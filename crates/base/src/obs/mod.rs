//! Observability: span tracing and a process-global metrics registry.
//!
//! This module is the workspace's single telemetry surface. It has two
//! halves with one shared contract — *telemetry must never feed back
//! into query results*:
//!
//! * [`trace`] — a span tracer ([`trace::span`] guards record
//!   enter/exit with monotonic timestamps, thread track ids, and
//!   parent links) plus a chrome-trace (`trace_event` JSON) exporter
//!   for `chrome://tracing` / Perfetto. Off by default; enabled by the
//!   CLI via `--trace-out` / `VR_TRACE`. With the `obs` cargo feature
//!   disabled the call sites compile to no-ops.
//! * [`metrics`] — named counters, gauges, and fixed-bucket latency
//!   histograms (p50/p95/p99 snapshots) in a process-global
//!   [`metrics::Registry`], exported as deterministic JSON/text (and
//!   Prometheus text for the live endpoint) and diffed per query with
//!   [`metrics::MetricsSnapshot::since`].
//!
//! Layer 2 (EXPLAIN ANALYZE support) builds three more surfaces on the
//! same contract:
//!
//! * [`alloc`] — a counting `GlobalAlloc` wrapper with per-thread
//!   scoped accounting (allocations, bytes, high-water marks), one
//!   relaxed atomic per allocation when tracking is off
//!   (`VR_ALLOC_TRACK` / [`alloc::set_tracking`]);
//! * [`folded`] — collapsed-stacks (flamegraph) export of the span
//!   buffer, with a self-time invariant check;
//! * [`serve`] — a loopback-bound `TcpListener` endpoint
//!   (`/metrics`, `/metrics.json`, `/healthz`, `/explain`, plus
//!   registered views such as `/slo` and `/requests`) serving
//!   read-only snapshots while a run is in flight.
//!
//! Layer 3 (request-scoped serving observability) adds two more:
//!
//! * [`qlog`] — per-request identity ([`qlog::RequestCtx`]) and a
//!   structured JSON-lines query log with deterministic field order,
//!   plan digests, and slow-query `EXPLAIN ANALYZE` exemplars;
//! * [`slo`] — per-`tenant/priority` latency objectives with
//!   rolling-window error-budget burn rates, surfaced via `/slo` and
//!   the `STATS` `slo` block.
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
//! | `storage`   | `flat.put`/`flat.get`/`dfs.put`/`dfs.get` | storage backends |
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

pub mod alloc;
pub mod folded;
pub mod metrics;
pub mod qlog;
pub mod serve;
pub mod slo;
pub mod trace;
