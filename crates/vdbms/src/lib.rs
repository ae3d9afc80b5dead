//! VDBMS engines and the architecture-agnostic query model.
//!
//! The benchmark expresses each query "in a VDBMS- and architecture-
//! agnostic manner" (§2); engines "are free to implement each such
//! query in any manner \[that\] is appropriate for that system". This
//! crate defines that agnostic surface — [`QuerySpec`], [`QueryInstance`],
//! [`QueryOutput`], and the [`Vdbms`] trait — plus four engines:
//!
//! | Engine | Architecture modelled | Character |
//! |---|---|---|
//! | [`ReferenceEngine`] | the VCD reference implementation (§5) | correct, straightforward |
//! | [`BatchEngine`] | Scanner: eager batch dataflow | fast at small scale; bounded frame-table cache thrashes at large L; slow resize kernel; heavyweight NN framework path; Q4 exhausts memory |
//! | [`FunctionalEngine`] | LightDB: lazy functional VR algebra | GOP-streamed, fast fixed-point kernels; 40-video device-memory cap on Q3/Q4; slow scalar captioning |
//! | [`CascadeEngine`] | NoScope: specialized inference cascade | supports only Q1 and Q2(c); difference detector + cheap model skip the expensive network |
//!
//! The engines execute queries *for real* (decode → kernels → encode);
//! their performance differences emerge from their architectures, not
//! from hard-coded delays. All of them execute through the shared
//! physical-operator [`pipeline`] (Scan → Decode → Kernel → Encode →
//! Sink), differing in which scan operator and execution policy they
//! pick; per-stage wall time, frames, and bytes are recorded into the
//! [`ExecContext`]'s [`pipeline::PipelineMetrics`].

#![forbid(unsafe_code)]

pub mod batch;
pub mod cascade;
pub mod cost;
pub mod engine;
pub mod functional;
pub mod io;
pub mod kernels;
mod pipeline;
pub mod plan;
pub mod query;
pub mod reference;
#[cfg(test)]
mod zero_copy;

pub use batch::BatchEngine;
pub use cascade::CascadeEngine;
pub use cost::{
    CalibrationProfile, CandidateSpace, KernelClass, Optimizer, OptimizerMode, QueryWork, Workload,
};
pub use engine::Vdbms;
pub use functional::FunctionalEngine;
pub use io::{ExecContext, InputVideo, OutputBox, QueryOutput, ResultMode};
pub use pipeline::{PipelineMetrics, PipelineSnapshot, StageKind, StageSnapshot};
pub use plan::{PlanNode, Policy};
pub use query::{FaceParams, QueryInstance, QueryKind, QuerySpec};
pub use reference::ReferenceEngine;
