//! The repo benchmark as a library: the `vrbench` binary is a thin command
//! line over these modules, and the self-tests under `tests/` use them to
//! check the binary's output against `BENCHMARK.json`.
//!
//! Layout: [`workload`] holds what every workload shares, [`batch`] and
//! [`serve`] the four workloads, [`probes`] the per-layer probes,
//! [`loadgen`] the TCP client, [`spans`] the benchmark's own span recorder,
//! [`stats`] the order statistics, [`metrics`] the declared metric table,
//! [`compare`] the A-against-B verdicts.

pub mod batch;
pub mod compare;
pub mod host;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod probes;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod workload;
