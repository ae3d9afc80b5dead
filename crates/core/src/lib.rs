//! # Visual Road
//!
//! A from-scratch Rust implementation of **Visual Road: A Video Data
//! Management Benchmark** (Haynes et al., SIGMOD 2019): a benchmark
//! for video database management systems (VDBMSs) built on a
//! deterministic simulated metropolitan area.
//!
//! The benchmark has three pillars, all provided by this crate and its
//! substrates:
//!
//! * the **Visual City Generator** ([`vcg`]) — turns hyperparameters
//!   `{L, R, t, s}` into a dataset of realistic, temporally-coherent
//!   traffic- and panoramic-camera videos with exact ground truth;
//! * the **Visual City Driver** ([`vcd`]) — submits query batches
//!   (4·L instances per query, parameters drawn per Table 3), runs
//!   them on an engine, throttles online streams, and validates
//!   results by PSNR (frame validation) or against scene geometry
//!   (semantic validation);
//! * the **query suite** — microbenchmarks Q1–Q6 and composites
//!   Q7–Q10, specified engine-agnostically in [`vr_vdbms::query`].
//!
//! ## Quickstart
//!
//! ```no_run
//! use visual_road::prelude::*;
//!
//! // 1. Generate a (scaled-down) dataset.
//! let hyper = Hyperparameters::new(
//!     1,                                   // scale factor L
//!     Resolution::new(192, 108),           // camera resolution R
//!     Duration::from_secs(1.0),            // duration t
//!     42,                                  // seed s
//! ).unwrap();
//! let dataset = Vcg::new(GenConfig::default()).generate(&hyper).unwrap();
//!
//! // 2. Drive an engine through a benchmark query.
//! let vcd = Vcd::new(&dataset, VcdConfig::default());
//! let mut engine = ReferenceEngine::new();
//! let report = vcd.run_queries(&mut engine, &[QueryKind::Q1Select]).unwrap();
//! println!("{report}");
//! ```

#![forbid(unsafe_code)]

pub mod captions;
pub mod dataset;
pub mod report;
pub mod semantic;
pub mod server;
pub mod vcd;
pub mod vcg;

pub use dataset::Dataset;
pub use semantic::{
    acquire_index, answer_with_index, answer_with_rescan, decide_route, ingest_dataset,
    recall_at_k, truth_top_segments, IngestStats, SemanticAnswer, SemanticQuery, SemanticRouter,
};
pub use report::{BenchmarkReport, DegradationStats, QueryStatus};
pub use vcd::{ExecutionMode, ExplainMode, Vcd, VcdConfig};
pub use vcg::{GenConfig, Vcg};

// Re-export the substrate crates under one roof so downstream users
// depend on `visual-road` alone.
pub use vr_base as base;
pub use vr_codec as codec;
pub use vr_container as container;
pub use vr_frame as frame;
pub use vr_geom as geom;
pub use vr_render as render;
pub use vr_scene as scene;
pub use vr_storage as storage;
pub use vr_vdbms as vdbms;
pub use vr_vision as vision;
pub use vr_vtt as vtt;

/// The benchmark version implemented by this crate.
pub(crate) const BENCHMARK_VERSION: &str = "1.0";

/// Common imports for benchmark users.
pub mod prelude {
    pub use crate::dataset::Dataset;
    pub use crate::report::{BenchmarkReport, QueryStatus};
    pub use crate::vcd::{ExecutionMode, ExplainMode, Vcd, VcdConfig};
    pub use crate::vcg::{GenConfig, Vcg};
    pub use vr_base::{Duration, FrameRate, Hyperparameters, Resolution};
    pub use vr_vdbms::{
        BatchEngine, CascadeEngine, FunctionalEngine, QueryKind, ReferenceEngine, Vdbms,
    };
}
