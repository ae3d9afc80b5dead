//! Observability: span tracing and stage latency histograms.
//!
//! This module is the workspace's single telemetry surface. It has two
//! halves with one shared contract — *telemetry must never feed back
//! into query results*:
//!
//! * [`trace`] — a span tracer ([`trace::span`] guards record
//!   enter/exit with monotonic timestamps, thread track ids, and
//!   parent links) plus a chrome-trace (`trace_event` JSON) exporter
//!   for `chrome://tracing` / Perfetto, which also draw it as a flame
//!   chart. Off by default; enabled by the CLI via `--trace-out`.
//! * [`metrics`] — the fixed-bucket latency histogram (p50/p95/p99
//!   snapshots) each stage of an execution context's `PipelineMetrics`
//!   keeps. A stage's figures belong to that context.
//!
//! Layer 2 (EXPLAIN ANALYZE support) builds one more on the same
//! contract:
//!
//! * [`alloc`] — a counting `GlobalAlloc` wrapper with per-thread
//!   scoped accounting (allocations, bytes, high-water marks), one
//!   relaxed flag load per allocation when tracking is off
//!   ([`alloc::set_tracking`]).
//!
//! Layer 3 (request-scoped serving observability) adds two more:
//!
//! * [`qlog`] — per-request identity ([`qlog::RequestCtx`]) and a
//!   structured JSON-lines query log with deterministic field order,
//!   plan digests, and slow-query `EXPLAIN ANALYZE` exemplars;
//! * [`slo`] — per-`tenant/priority` latency objectives with
//!   rolling-window error-budget burn rates, surfaced as the `STATS`
//!   `slo` block.
//!
//! ### Span taxonomy
//!
//! | category    | names                                   | recorded by |
//! |-------------|-----------------------------------------|-------------|
//! | `pipeline`  | `scan`/`decode`/`kernel`/`encode`/`sink`, `run_*` policies | vr-vdbms stage execution |
//! | `decoder`   | `decode_parallel`, `gop_chunk<i>`, `conceal` | GOP-parallel decode, resilient concealment |
//! | `scheduler` | `instance.<query>.<index>`              | VCD batch scheduler (both dispatch modes) |
//! | `server`    | `request.req-<id>.<tenant>`             | query server per-request lanes |
//! | `request`   | `<request id>` wrapping each `run_*`    | vr-vdbms pipeline entry, when `ExecContext::request_id` is set |
//! | `vcd`       | `batch.<query>`, `validate`             | per-query driver |
//! | `storage`   | `flat.put`/`flat.get`                   | the flat store |
//! | `fault`     | `retry_backoff`                         | fault-injector recovery paths |
//!
//! ### Where each figure lives
//!
//! Each figure has one home and one reader. A stage's latencies,
//! frames, bytes and allocator figures are in its context's
//! `PipelineMetrics`, printed on the report's `stages:` and `obs:`
//! lines and on EXPLAIN ANALYZE's plan nodes; the scheduler's workers
//! and utilization are in `SchedulerStats` (`sched:`); the recovery
//! counts are in the same `PipelineMetrics`, a
//! `crate::fault::RecoveryCounters` beside the stage records
//! (`degraded:`); dropped trace events are the chrome trace's
//! `dropped` footer.

// The counting `GlobalAlloc` impl is the only `unsafe` in the workspace.
#[allow(unsafe_code)]
pub mod alloc;
pub mod metrics;
pub mod qlog;
pub mod slo;
pub mod trace;
