//! Observability: span tracing and a process-global metrics registry.
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
//! * [`metrics`] — named counters, gauges, and fixed-bucket latency
//!   histograms (p50/p95/p99 snapshots) in a process-global
//!   [`metrics::Registry`], exported as deterministic JSON
//!   (`--metrics-out`). It sums over the whole process; a query's own
//!   stage record is its execution context's `PipelineMetrics`, which
//!   mirrors every record into it.
//!
//! Layer 2 (EXPLAIN ANALYZE support) builds one more on the same
//! contract:
//!
//! * [`alloc`] — a counting `GlobalAlloc` wrapper with per-thread
//!   scoped accounting (allocations, bytes, high-water marks), one
//!   relaxed flag load per allocation when tracking is off
//!   (`VR_ALLOC_TRACK` / [`alloc::set_tracking`]).
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
//! ### Metric naming
//!
//! Dotted lowercase names, unit as the last segment where one applies:
//! `stage.decode.nanos` (histogram), `stage.decode.frames` (counter),
//! `degradation.io_retries` (counter),
//! `scheduler.worker_utilization` (gauge), and for the allocator
//! scopes `alloc.<scope>.allocs` / `alloc.<scope>.bytes` (counters)
//! plus `alloc.<scope>.peak_bytes` (max-merged gauge).

// The counting `GlobalAlloc` impl is the only `unsafe` in the workspace.
#[allow(unsafe_code)]
pub mod alloc;
pub mod metrics;
pub mod qlog;
pub mod slo;
pub mod trace;
