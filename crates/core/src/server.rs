//! The long-running multi-tenant query server behind
//! `visualroad serve`.
//!
//! The batch CLI runs one benchmark and exits; this module keeps the
//! same engines resident and serves query requests from many
//! concurrent client sessions over the loopback TCP substrate
//! established by `vr-base::obs::serve`. Every request carries a
//! tenant id, a priority class, and an optional deadline, and passes
//! through the [`vr_base::admission`] controller before it may touch
//! an engine — that layer (bounded queue, per-tenant quotas,
//! priority-aware shedding, per-tenant circuit breakers, drain) is
//! what makes the server safe to overload.
//!
//! ## Wire protocol
//!
//! Line-based, one request per line, one response line per request
//! (the `STATS` body is JSON compacted onto its line). Requests:
//!
//! ```text
//! EXEC tenant=<id> priority=<high|low> query=<Q1|Q2a|...|S1|S2|S3>
//!      [engine=<name>] [deadline_ms=<n>] [online=<speedup>]
//! STATS
//! HEALTH
//! SHUTDOWN
//! ```
//!
//! Responses:
//!
//! ```text
//! OK tenant=<id> query=<q> engine=<e> latency_us=<n> degraded=<0|1> route=<index|rescan>
//! SHED reason=<saturated|queue_full|quota|breaker_open|draining|deadline_expired>
//! CANCELLED tenant=<id> query=<q> latency_us=<n>
//! ERR <message>
//! STATS <one-line json>
//! OK active=<n> queued=<n> draining=<0|1>      (HEALTH)
//! OK draining                                  (SHUTDOWN)
//! ```
//!
//! The semantic query class `S1` (count) / `S2` (top-k segments) /
//! `S3` (similarity) is answered from the ingested side index when the
//! cost-based optimizer picks it (`route=index`; no frame decoded) and
//! by a metadata rescan otherwise. Every `OK` reports its route, and
//! the per-tenant admission accounting splits `index_served` vs
//! `rescan_served` so drivers can cross-check the ledger exactly.
//!
//! `EXEC` executes a pregenerated query instance (round-robin over a
//! per-query pool sampled exactly like the batch driver's `4·L`
//! batches, so the server and the benchmark measure the same work).
//! A request admitted *degraded* runs with a single pipeline worker —
//! the cheap configuration — and reports `degraded=1`. A deadline is
//! armed on the instance's `CancelToken`, so past-deadline work
//! unwinds cooperatively and answers `CANCELLED` instead of holding
//! its slot. `online=<speedup>` streams the instance's inputs through
//! the paced RTP ingest first (the online half of a mixed workload).
//!
//! `SHUTDOWN` begins a graceful drain: admission stops (queued
//! waiters are refused `draining`), in-flight requests finish (their
//! own deadlines cancel past-deadline work), and once idle — or after
//! the drain timeout — the listener closes. [`QueryServer::wait`]
//! reports whether the drain was clean.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vr_base::admission::{AdmissionConfig, AdmissionController, Priority, ShedReason};
use vr_base::obs::qlog::{self, Outcome, QueryLog, RequestCtx, RequestRecord};
use vr_base::obs::slo::{SloConfig, SloTracker};
use vr_base::obs::{metrics, serve, trace};
use vr_base::sync::CancelToken;
use vr_base::Error;
use vr_vdbms::{
    CalibrationProfile, ExecContext, PipelineMetrics, QueryInstance, QueryKind, Vdbms,
};

use crate::dataset::Dataset;
use crate::semantic::{
    acquire_index, SemanticAnswer, SemanticPlan, SemanticQuery, SemanticRouter,
};
use crate::vcd::{ingest_inputs_online, Vcd, VcdConfig};

/// Server configuration: the admission policy plus execution defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Port to bind on loopback (0 picks an ephemeral port).
    pub port: u16,
    /// Admission policy (queue, quotas, thresholds, breakers).
    pub admission: AdmissionConfig,
    /// Pipeline workers for a normally admitted request.
    pub workers: usize,
    /// Pipeline workers for a request admitted degraded (the cheap
    /// configuration low-priority work falls back to under load).
    pub degraded_workers: usize,
    /// Deadline applied to `EXEC` requests that carry none.
    pub default_deadline: Option<Duration>,
    /// How long a drain may wait for in-flight work before giving up.
    pub drain_timeout: Duration,
    /// Query kinds the server pregenerates instance pools for.
    pub queries: Vec<QueryKind>,
    /// Ingest a semantic side index at startup so the S1/S2/S3 query
    /// class is served from it (route=index) instead of by rescan.
    pub use_index: bool,
    /// Load a prebuilt `.vrsx` side index instead of ingesting. An
    /// unusable (corrupt/truncated/stale) file fails CLOSED: the
    /// server logs a warning and serves semantic queries by rescan.
    pub index_path: Option<String>,
    /// JSONL sink for the structured query log (`--qlog-out`). The
    /// in-memory ring behind `/requests` is kept either way.
    pub qlog_path: Option<String>,
    /// Slow-query threshold: a completed request at or above it gets a
    /// full `EXPLAIN ANALYZE` exemplar embedded in its log record.
    /// `None` disables exemplar capture.
    pub slow_query: Option<Duration>,
    /// Per-priority latency objectives and error-budget policy for the
    /// SLO tracker behind `/slo` and the `STATS` `slo` block.
    pub slo: SloConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            port: 0,
            admission: AdmissionConfig::default(),
            workers: vr_base::sync::worker_budget(),
            degraded_workers: 1,
            default_deadline: None,
            drain_timeout: Duration::from_secs(10),
            queries: vec![QueryKind::Q1Select, QueryKind::Q2aGrayscale, QueryKind::Q2cBoxes],
            use_index: false,
            index_path: None,
            qlog_path: None,
            slow_query: None,
            slo: SloConfig::default(),
        }
    }
}

/// Outcome of a completed server run (after drain).
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Whether every in-flight request finished inside the drain
    /// timeout.
    pub clean: bool,
    /// Final admission accounting (the same JSON `STATS` serves).
    pub stats_json: String,
}

/// One pregenerated query pool: the driver-equivalent instances plus
/// a round-robin cursor.
struct Pool {
    instances: Vec<QueryInstance>,
    next: AtomicUsize,
}

/// State shared by every connection handler.
struct Shared {
    dataset: Dataset,
    engines: BTreeMap<String, Box<dyn Vdbms>>,
    default_engine: String,
    pools: BTreeMap<QueryKind, Pool>,
    admission: Arc<AdmissionController>,
    /// Routes the semantic query class: the side index, when one
    /// ingested/validated cleanly at startup, and the optimizer that
    /// prices it against a rescan (one cached decision per label).
    router: SemanticRouter,
    /// Structured query log: one record per request that reached
    /// admission, appended at settlement (before the response line is
    /// written, so drivers can reconcile log vs ledger exactly).
    qlog: Arc<QueryLog>,
    /// Per-tenant/priority latency objectives and burn rates.
    slo: Arc<SloTracker>,
    /// Arrival-order request id mint (1-based, deterministic for a
    /// deterministic request sequence).
    next_request: AtomicU64,
    cfg: ServerConfig,
    /// Set once the drain (or a stop) finished; the accept loop and
    /// every connection thread exit on it.
    shutdown: AtomicBool,
    /// Whether the drain reached idle inside its timeout.
    drained_clean: AtomicBool,
}

/// A running query server. Stop it with a `SHUTDOWN` request, or
/// programmatically with [`QueryServer::shutdown`]; then [`wait`]
/// (QueryServer::wait) for the drain verdict.
pub struct QueryServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl QueryServer {
    /// Bind `127.0.0.1:port`, pregenerate the query pools, and serve
    /// until a `SHUTDOWN` request (or [`shutdown`](Self::shutdown))
    /// drains the server.
    pub fn start(
        dataset: Dataset,
        engines: Vec<Box<dyn Vdbms>>,
        cfg: ServerConfig,
    ) -> vr_base::Result<Self> {
        if engines.is_empty() {
            return Err(Error::InvalidConfig("server needs at least one engine".into()));
        }
        // The pools reuse the driver's deterministic instance sampler,
        // so a server request measures exactly the work a benchmark
        // batch instance does.
        let mut pools = BTreeMap::new();
        {
            let vcd = Vcd::new(&dataset, VcdConfig::default());
            for &kind in &cfg.queries {
                let instances = vcd.batch(kind)?;
                pools.insert(kind, Pool { instances, next: AtomicUsize::new(0) });
            }
        }
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))
            .map_err(Error::Io)?;
        let addr = listener.local_addr().map_err(Error::Io)?;
        listener.set_nonblocking(true).map_err(Error::Io)?;

        // Report names like "batch (Scanner-like)" would break the
        // space-separated wire protocol; key engines by their first
        // word ("batch"), which is also what the CLI's --engine takes.
        let short = |e: &dyn Vdbms| {
            e.name().split_whitespace().next().unwrap_or("engine").to_string()
        };
        let default_engine = short(engines[0].as_ref());
        let engines: BTreeMap<String, Box<dyn Vdbms>> =
            engines.into_iter().map(|e| (short(e.as_ref()), e)).collect();

        // Semantic side index: ingest at startup (--use-index) or load
        // a prebuilt file (--index). Unusable files fail closed into
        // rescan — a warning, never a refused start or a wrong answer.
        let wanted = cfg.use_index || cfg.index_path.is_some();
        let index = match wanted.then(|| acquire_index(&dataset, cfg.index_path.as_deref())) {
            Some(Ok(idx)) => {
                eprintln!("semantic index ready: {} tracklets", idx.len());
                Some(idx)
            }
            Some(Err(e)) => {
                eprintln!(
                    "warning: semantic index unusable ({e}); serving semantic queries by rescan"
                );
                None
            }
            None => None,
        };
        let router = SemanticRouter::new(&dataset, index, CalibrationProfile::builtin());

        let qlog = Arc::new(
            QueryLog::open(cfg.qlog_path.as_deref(), cfg.slow_query).map_err(Error::Io)?,
        );
        let slo = Arc::new(SloTracker::new(cfg.slo.clone()));
        // Publish the live views on the loopback metrics endpoint.
        // The view registry is process-global like the registry
        // itself: with several servers in one process the last
        // registration wins, and views stay registered after drain
        // (a stale closure only holds an `Arc` of a quiet log).
        {
            let view_log = Arc::clone(&qlog);
            serve::set_view("/requests", "application/jsonl; charset=utf-8", move || {
                view_log.recent_jsonl()
            });
            let view_slo = Arc::clone(&slo);
            serve::set_view("/slo", "application/json; charset=utf-8", move || {
                view_slo.render_json()
            });
        }

        let shared = Arc::new(Shared {
            dataset,
            engines,
            default_engine,
            pools,
            admission: Arc::new(AdmissionController::new(cfg.admission.clone())),
            router,
            qlog,
            slo,
            next_request: AtomicU64::new(0),
            cfg,
            shutdown: AtomicBool::new(false),
            drained_clean: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("vr-query-serve".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(Error::Io)?;
        Ok(Self { addr, shared, accept_handle: Some(accept_handle) })
    }

    /// The bound address (real port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Begin a graceful drain from the owning process (equivalent to
    /// a `SHUTDOWN` request).
    pub fn shutdown(&self) {
        spawn_drain(&self.shared);
    }

    /// A cloneable trigger another thread can use to start the drain
    /// while the owner blocks in [`wait`](Self::wait) — the CLI's
    /// stdin watcher uses this.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shared))
    }

    /// Block until the server has shut down (after a drain) and
    /// report how the drain went.
    pub fn wait(mut self) -> DrainReport {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        DrainReport {
            clean: self.shared.drained_clean.load(Ordering::Relaxed),
            stats_json: self
                .shared
                .admission
                .snapshot()
                .to_json_with_slo(Some(&self.shared.slo)),
        }
    }
}

/// Detached trigger for a graceful drain (see
/// [`QueryServer::shutdown_handle`]).
#[derive(Clone)]
pub struct ShutdownHandle(Arc<Shared>);

impl ShutdownHandle {
    /// Begin the graceful drain.
    pub fn shutdown(&self) {
        spawn_drain(&self.0);
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        // A dropped handle must not leak the accept thread: force the
        // flag (skipping any drain not already run) and join.
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

/// Run the graceful drain: stop admitting, flush in-flight work, then
/// release the accept loop.
fn drain(shared: &Shared) {
    shared.admission.begin_drain();
    let clean = shared.admission.await_idle(shared.cfg.drain_timeout);
    shared.drained_clean.store(clean, Ordering::Relaxed);
    shared.shutdown.store(true, Ordering::Relaxed);
}

/// Start the drain on a thread of its own, so whoever asked — a
/// session answering `SHUTDOWN`, the CLI's stdin watcher, the owning
/// process — is not held for the drain timeout. The thread is left
/// detached: its last act is the `shutdown` flag the accept loop, and so
/// [`QueryServer::wait`], exits on. If it cannot be spawned the drain
/// runs on the caller.
fn spawn_drain(shared: &Arc<Shared>) {
    let on_thread = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("vr-query-drain".to_string())
        .spawn(move || drain(&on_thread));
    if spawned.is_err() {
        drain(shared);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_shared = Arc::clone(&shared);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("vr-query-conn".to_string())
                    .spawn(move || session(stream, conn_shared))
                {
                    sessions.push(handle);
                }
                sessions.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    // Session threads observe the same shutdown flag via their read
    // timeouts; join them so `wait()` returning means fully stopped.
    for handle in sessions {
        let _ = handle.join();
    }
}

/// One client session: read request lines, answer each with one
/// response line, until EOF or shutdown.
fn session(stream: TcpStream, shared: Arc<Shared>) {
    // Short read timeout so the thread observes shutdown even while a
    // client sits idle with the connection open.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {
                let request = line.trim();
                if request.is_empty() {
                    continue;
                }
                metrics::counter("server.requests").inc();
                let response = handle_request(request, &shared);
                let stop_after = request.eq_ignore_ascii_case("SHUTDOWN");
                if writer.write_all(response.as_bytes()).is_err()
                    || writer.write_all(b"\n").is_err()
                    || writer.flush().is_err()
                {
                    return;
                }
                if stop_after {
                    // The drain runs on its own thread; this session
                    // has answered and can close.
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

fn handle_request(request: &str, shared: &Arc<Shared>) -> String {
    let mut tokens = request.split_whitespace();
    let verb = tokens.next().unwrap_or("").to_ascii_uppercase();
    let kv: BTreeMap<&str, &str> =
        tokens.filter_map(|t| t.split_once('=')).collect();
    match verb.as_str() {
        "EXEC" => exec(&kv, shared),
        "STATS" => {
            let json = shared.admission.snapshot().to_json_with_slo(Some(&shared.slo));
            format!("STATS {}", json.replace('\n', ""))
        }
        "HEALTH" => {
            let snap = shared.admission.snapshot();
            format!(
                "OK active={} queued={} draining={}",
                snap.active,
                snap.queued,
                snap.draining as u8
            )
        }
        "SHUTDOWN" => {
            spawn_drain(shared);
            "OK draining".to_string()
        }
        other => format!("ERR unknown request {other:?}"),
    }
}

/// One `EXEC` line with every field checked: from here on only
/// admission and the work itself can refuse or fail it.
struct Request<'a> {
    tenant: &'a str,
    priority: Priority,
    /// The query as the client spelled it — what the log records.
    query: &'a str,
    /// Its canonical label — what responses, spans and fault specs use.
    label: &'a str,
    /// What responses and log records call the engine.
    engine: &'a str,
    deadline: Option<Duration>,
    online: Option<f64>,
    work: Work<'a>,
}

/// The part of a request that depends on its query class.
enum Work<'a> {
    /// An instance from a pregenerated pool, executed by a loaded engine.
    Pixel { engine: &'a dyn Vdbms, pool: &'a Pool },
    /// S1/S2/S3: answered from the side index or by a metadata rescan,
    /// whichever the optimizer priced cheaper.
    Semantic(SemanticQuery),
}

/// An admitted request's work, planned: it can explain itself, run,
/// and say which route it took.
enum Planned<'a> {
    Pixel { engine: &'a dyn Vdbms, instance: &'a QueryInstance, ctx: ExecContext },
    Semantic { query: SemanticQuery, plan: SemanticPlan<'a> },
}

/// Why an admitted request has no answer.
enum Failure {
    /// Its deadline fired mid-flight.
    Cancelled,
    Ingest(Error),
    Exec(Error),
}

/// Check an `EXEC` line. The order of the checks is the order of the
/// `ERR` messages a line with several mistakes gets, and is pinned by
/// `tests/server.rs::wire_and_log_are_pinned`.
fn parse_exec<'a>(
    kv: &BTreeMap<&'a str, &'a str>,
    shared: &'a Shared,
) -> Result<Request<'a>, String> {
    let tenant = match kv.get("tenant") {
        Some(t) if !t.is_empty() => *t,
        _ => return Err("EXEC needs tenant=<id>".to_string()),
    };
    let priority = kv.get("priority").unwrap_or(&"low").parse::<Priority>()?;
    let query = *kv.get("query").ok_or("EXEC needs query=<Q1|Q2a|...>")?;
    // The semantic class bypasses the engine pools (and ignores
    // `engine=` and `online=`: it has no engine and streams nothing).
    let (label, engine, work) = if let Some(semantic) = SemanticQuery::parse_label(query) {
        (query, "semantic", Work::Semantic(semantic))
    } else {
        let pooled = QueryKind::parse(query).and_then(|k| Some((k, shared.pools.get(&k)?)));
        let (kind, pool) = pooled.ok_or_else(|| {
            let pools: Vec<_> = shared.pools.keys().map(|k| k.label()).collect();
            format!("no pool for query {query:?} (server pools: {pools:?})")
        })?;
        let name = kv.get("engine").copied().unwrap_or(&shared.default_engine);
        let engine = shared.engines.get(name).ok_or_else(|| {
            let loaded: Vec<_> = shared.engines.keys().collect();
            format!("unknown engine {name:?} (loaded: {loaded:?})")
        })?;
        if !engine.supports(kind) {
            return Err(format!("engine {name} does not support {}", kind.label()));
        }
        (kind.short_label(), name, Work::Pixel { engine: engine.as_ref(), pool })
    };
    let deadline = match kv.get("deadline_ms").map(|v| v.parse::<u64>()) {
        Some(Ok(ms)) => Some(Duration::from_millis(ms)),
        Some(Err(_)) => return Err("deadline_ms wants an integer".to_string()),
        None => shared.cfg.default_deadline,
    };
    let online = match (&work, kv.get("online").map(|v| v.parse::<f64>())) {
        (Work::Semantic(_), _) | (_, None) => None,
        (_, Some(Ok(speedup))) if speedup > 0.0 => Some(speedup),
        _ => return Err("online wants a positive speedup factor".to_string()),
    };
    Ok(Request { tenant, priority, query, label, engine, deadline, online, work })
}

impl<'a> Work<'a> {
    /// Plan an admitted request. A pixel query takes the pool's next
    /// instance — round-robin, so concurrent sessions spread across
    /// distinct instances like a batch does; a shed request never gets
    /// this far and takes no turn — and a context carrying the
    /// request's identity, deadline and worker budget (the cheap
    /// configuration when admission degraded it). A semantic query is
    /// routed.
    fn plan(
        self,
        shared: &'a Shared,
        req: &RequestCtx,
        label: &str,
        degraded: bool,
        deadline: Option<Instant>,
    ) -> Planned<'a> {
        match self {
            Work::Pixel { engine, pool } => {
                let turn = pool.next.fetch_add(1, Ordering::Relaxed);
                let cfg = &shared.cfg;
                let ctx = ExecContext {
                    workers: if degraded { cfg.degraded_workers } else { cfg.workers }.max(1),
                    query_label: label.to_string(),
                    cancel: deadline.map_or_else(CancelToken::new, CancelToken::with_deadline),
                    metrics: Arc::new(PipelineMetrics::default()),
                    tenant: Some(Arc::from(req.tenant.as_str())),
                    request_id: Some(Arc::from(format!("{}.{}", req.label(), req.tenant))),
                    ..ExecContext::default()
                };
                let instance = &pool.instances[turn % pool.instances.len()];
                Planned::Pixel { engine, instance, ctx }
            }
            Work::Semantic(query) => {
                let plan = shared.router.plan(&shared.dataset, &format!("semantic/{label}"));
                Planned::Semantic { query, plan }
            }
        }
    }
}

impl Planned<'_> {
    /// EXPLAIN, or — given the latency of a finished run — EXPLAIN
    /// ANALYZE. For a pixel query that is the engine's plan for
    /// (instance, context), built without executing anything and
    /// annotated with the run's measured stage costs; for a semantic
    /// query, either way, the optimizer's index-vs-rescan table. The
    /// first names the plan (the log records its digest), the second is
    /// what a slow completion embeds in its record.
    fn explain(&self, analyze: Option<Duration>) -> Cow<'_, str> {
        match self {
            Planned::Pixel { engine, instance, ctx } => {
                let mut plan = engine.plan(instance, ctx);
                if let Some(latency) = analyze {
                    plan.annotate(&ctx.metrics.snapshot(), latency.as_nanos() as u64);
                }
                plan.render_text().into()
            }
            Planned::Semantic { plan, .. } => plan.text.as_str().into(),
        }
    }

    /// Do the work. `Ok` holds what the `OK` line carries after its
    /// route: nothing for a pixel query, the answer for a semantic one.
    fn run(
        &self,
        shared: &Shared,
        online: Option<f64>,
    ) -> Result<Option<SemanticAnswer>, Failure> {
        let videos = &shared.dataset.videos;
        match self {
            Planned::Pixel { engine, instance, ctx } => {
                // The online half of a mixed workload: pace the inputs
                // through RTP ingest first, inside the measured latency
                // (a live camera's frames are not free).
                if let Some(speedup) = online {
                    ingest_inputs_online(videos, instance, speedup).map_err(Failure::Ingest)?;
                }
                match engine.execute(instance, videos, ctx) {
                    Ok(_) => Ok(None),
                    Err(Error::Cancelled(_)) => Err(Failure::Cancelled),
                    Err(e) => Err(Failure::Exec(e)),
                }
            }
            Planned::Semantic { query, plan } => {
                plan.answer(&shared.dataset, query).map(Some).map_err(Failure::Exec)
            }
        }
    }

    fn route(&self) -> &'static str {
        match self {
            // Pixel queries always scan/decode their inputs: in the
            // index-vs-rescan ledger they are rescan-served, which keeps
            // ok == index_served + rescan_served exact per tenant.
            Planned::Pixel { .. } => "rescan",
            Planned::Semantic { plan, .. } => plan.route(),
        }
    }
}

/// The one request path: parse → admit → plan → run → settle → respond.
/// The log record is started when the request gets its identity and
/// filled in as far as the request gets; it is settled — into the SLO
/// tracker and the query log — exactly once, whether the request was
/// shed or admitted, and before the response line is written, so the
/// log's per-tenant totals reconcile exactly with the admission ledger
/// at any `STATS` the client observes after its own requests.
fn exec(kv: &BTreeMap<&str, &str>, shared: &Arc<Shared>) -> String {
    let Request { tenant, priority, query, label, engine, deadline: deadline_ms, online, work } =
        match parse_exec(kv, shared) {
            Ok(request) => request,
            Err(complaint) => return format!("ERR {complaint}"),
        };
    // Identity is minted last: a line rejected above never reaches
    // admission, has no log record, and must not leave a hole in the
    // ids that join log, spans and ledger.
    let req = RequestCtx {
        id: shared.next_request.fetch_add(1, Ordering::Relaxed) + 1,
        tenant: tenant.to_string(),
        priority,
    };
    // The per-request chrome-trace lane: admission, planning, and any
    // same-thread execution nest under it, named by id and tenant.
    let _lane = trace::span_dyn("server", || format!("request.{}.{tenant}", req.label()));
    let mut record = RequestRecord {
        req: req.id,
        tenant: req.tenant.clone(),
        priority,
        query: query.to_string(),
        engine: engine.to_string(),
        outcome: Outcome::Shed,
        shed_reason: None,
        degraded: false,
        route: None,
        queue_wait: Duration::ZERO,
        latency: Duration::ZERO,
        deadline: deadline_ms,
        plan_digest: String::new(),
        exemplar: None,
    };
    // The clock starts at admission and stops when the work returns:
    // bookkeeping before and rendering after are not request latency.
    let t0 = Instant::now();
    let deadline = deadline_ms.map(|d| t0 + d);
    let response = match shared.admission.admit_request(&req, deadline) {
        Err(reason) => {
            record.shed_reason = Some(reason.label());
            record.latency = t0.elapsed();
            format!("SHED reason={}", reason.label())
        }
        Ok(permit) => {
            record.degraded = permit.degraded();
            record.queue_wait = permit.queue_wait();
            let planned = work.plan(shared, &req, label, record.degraded, deadline);
            record.plan_digest = qlog::fnv64_hex(&planned.explain(None));
            let result = planned.run(shared, online);
            let latency = t0.elapsed();
            record.latency = latency;
            metrics::histogram(&format!("server.latency.{priority}"))
                .observe(latency.as_nanos() as u64);
            let (route, degraded, latency_us) =
                (planned.route(), record.degraded as u8, latency.as_micros());
            let (outcome, response) = match result {
                Ok(answer) => (
                    Outcome::Ok,
                    format!(
                        "OK tenant={tenant} query={label} engine={engine} latency_us={latency_us} \
                         degraded={degraded} route={route}{}",
                        answer.map(|a| format!(" {}", a.render())).unwrap_or_default()
                    ),
                ),
                Err(Failure::Cancelled) => (
                    Outcome::Cancelled,
                    format!("CANCELLED tenant={tenant} query={label} latency_us={latency_us}"),
                ),
                Err(Failure::Ingest(e)) => (Outcome::Err, format!("ERR ingest: {e}")),
                Err(Failure::Exec(e)) => {
                    (Outcome::Err, format!("ERR tenant={tenant} query={label}: {e}"))
                }
            };
            record.outcome = outcome;
            // A deadline cancellation is the client's latency bound
            // doing its job, not an engine fault: it settles as a
            // success, so it never feeds the tenant's breaker.
            if outcome == Outcome::Err {
                permit.fail();
            } else {
                permit.succeed();
            }
            metrics::counter(match outcome {
                Outcome::Ok => "server.exec_ok",
                Outcome::Cancelled => "server.exec_cancelled",
                _ => "server.exec_err",
            })
            .inc();
            if outcome == Outcome::Ok {
                record.route = Some(route);
                shared.admission.note_route(tenant, route == "index");
                let slow = shared.qlog.slow_threshold().is_some_and(|t| latency >= t);
                record.exemplar = slow.then(|| planned.explain(Some(latency)).into_owned());
            }
            response
        }
    };
    shared.slo.record(&record.tenant, record.priority, record.outcome, record.latency);
    shared.qlog.append(&record);
    response
}

/// Shed reasons whose counts the stress driver treats as load shedding
/// (as opposed to per-tenant isolation effects like quota/breaker).
pub fn load_shed_reasons() -> [ShedReason; 2] {
    [ShedReason::Saturated, ShedReason::QueueFull]
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcg::{GenConfig, Vcg};
    use vr_base::Hyperparameters;
    use vr_base::{Duration as VrDuration, Resolution};
    use vr_vdbms::BatchEngine;

    fn tiny_dataset() -> Dataset {
        let hyper =
            Hyperparameters::new(1, Resolution::new(96, 54), VrDuration::from_secs(0.25), 11)
                .unwrap();
        Vcg::new(GenConfig::default()).generate(&hyper).unwrap()
    }

    fn start_server(cfg: ServerConfig) -> QueryServer {
        QueryServer::start(tiny_dataset(), vec![Box::new(BatchEngine::new())], cfg).unwrap()
    }

    fn request(stream: &mut TcpStream, line: &str) -> String {
        use std::io::{BufRead, BufReader, Write};
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim().to_string()
    }

    #[test]
    fn exec_health_stats_and_graceful_shutdown() {
        let server = start_server(ServerConfig {
            queries: vec![QueryKind::Q1Select],
            ..ServerConfig::default()
        });
        let addr = server.addr();
        let mut conn = TcpStream::connect(addr).unwrap();

        let ok = request(&mut conn, "EXEC tenant=alpha priority=high query=Q1");
        assert!(ok.starts_with("OK tenant=alpha query=Q1"), "exec response: {ok}");
        assert!(ok.contains("latency_us="));

        let health = request(&mut conn, "HEALTH");
        assert!(health.starts_with("OK active=0"), "health response: {health}");

        let stats = request(&mut conn, "STATS");
        assert!(stats.starts_with("STATS {"), "stats response: {stats}");
        assert!(stats.contains("\"alpha\""));
        assert!(!stats.contains('\n'));

        let bad = request(&mut conn, "EXEC tenant=alpha priority=high query=Q9");
        assert!(bad.starts_with("ERR no pool"), "missing pool: {bad}");

        let down = request(&mut conn, "SHUTDOWN");
        assert_eq!(down, "OK draining");
        let report = server.wait();
        assert!(report.clean, "drain must be clean with nothing in flight");
        assert!(report.stats_json.contains("\"draining\": true"));
    }

    #[test]
    fn semantic_queries_report_their_route_and_split_the_ledger() {
        let server = start_server(ServerConfig {
            queries: vec![QueryKind::Q1Select],
            use_index: true,
            ..ServerConfig::default()
        });
        let mut conn = TcpStream::connect(server.addr()).unwrap();

        // With an index loaded the optimizer routes S-queries to it.
        let s2 = request(&mut conn, "EXEC tenant=alpha priority=high query=S2");
        assert!(s2.starts_with("OK tenant=alpha query=S2 engine=semantic"), "s2: {s2}");
        assert!(s2.contains("route=index"), "s2 must be index-served: {s2}");
        assert!(s2.contains("segments=["), "s2 carries its answer: {s2}");
        let s1 = request(&mut conn, "EXEC tenant=alpha priority=high query=S1");
        assert!(s1.contains("route=index") && s1.contains("count="), "s1: {s1}");

        // Pixel queries scan their inputs: rescan-served by definition.
        let q1 = request(&mut conn, "EXEC tenant=alpha priority=high query=Q1");
        assert!(q1.starts_with("OK ") && q1.contains("route=rescan"), "q1: {q1}");

        let stats = request(&mut conn, "STATS");
        assert!(stats.contains("\"index_served\": 2"), "ledger: {stats}");
        assert!(stats.contains("\"rescan_served\": 1"), "ledger: {stats}");

        request(&mut conn, "SHUTDOWN");
        assert!(server.wait().clean);
    }

    #[test]
    fn semantic_queries_fall_back_to_rescan_without_an_index() {
        let server = start_server(ServerConfig {
            queries: vec![QueryKind::Q1Select],
            ..ServerConfig::default()
        });
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let s1 = request(&mut conn, "EXEC tenant=beta priority=low query=S1");
        assert!(s1.starts_with("OK tenant=beta query=S1"), "s1: {s1}");
        assert!(s1.contains("route=rescan"), "no index => rescan: {s1}");
        request(&mut conn, "SHUTDOWN");
        assert!(server.wait().clean);
    }

    #[test]
    fn tiny_deadline_is_cancelled_not_errored() {
        let server = start_server(ServerConfig {
            queries: vec![QueryKind::Q1Select],
            ..ServerConfig::default()
        });
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        // A 0 ms deadline cancels at the first frame boundary: the
        // response must be CANCELLED (bounded latency), never ERR,
        // and must not trip the tenant's breaker.
        for _ in 0..4 {
            let r = request(&mut conn, "EXEC tenant=rush priority=high query=Q1 deadline_ms=0");
            assert!(r.starts_with("CANCELLED tenant=rush"), "deadline response: {r}");
        }
        let ok = request(&mut conn, "EXEC tenant=rush priority=high query=Q1");
        assert!(ok.starts_with("OK "), "breaker must not trip on cancellations: {ok}");
        server.shutdown();
        assert!(server.wait().clean);
    }

    #[test]
    fn concurrent_sessions_share_the_engines() {
        let server = Arc::new(start_server(ServerConfig {
            queries: vec![QueryKind::Q1Select, QueryKind::Q2aGrayscale],
            ..ServerConfig::default()
        }));
        let addr = server.addr();
        let threads: Vec<_> = (0..6)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut conn = TcpStream::connect(addr).unwrap();
                    let query = if i % 2 == 0 { "Q1" } else { "Q2a" };
                    let tenant = format!("t{}", i % 3);
                    let mut ok = 0;
                    for _ in 0..3 {
                        let r = request(
                            &mut conn,
                            &format!("EXEC tenant={tenant} priority=low query={query}"),
                        );
                        assert!(
                            r.starts_with("OK ") || r.starts_with("SHED "),
                            "unexpected response under load: {r}"
                        );
                        if r.starts_with("OK ") {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        let total: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(total > 0, "at least some concurrent requests must complete");
        let server = Arc::try_unwrap(server).ok().expect("sole owner");
        server.shutdown();
        assert!(server.wait().clean);
    }

    /// Zero a qlog line's two timing fields; everything else in a
    /// record is deterministic for a deterministic request sequence.
    fn strip_timings(line: &str) -> String {
        line.split(", ")
            .map(|field| {
                if field.starts_with("\"queue_wait_us\":") {
                    "\"queue_wait_us\": 0".to_string()
                } else if field.starts_with("\"latency_us\":") {
                    "\"latency_us\": 0".to_string()
                } else {
                    field.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    #[test]
    fn qlog_is_deterministic_across_identical_runs() {
        fn run(path: &std::path::Path) -> Vec<String> {
            let server = start_server(ServerConfig {
                queries: vec![QueryKind::Q1Select],
                use_index: true,
                qlog_path: Some(path.to_str().unwrap().to_string()),
                ..ServerConfig::default()
            });
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            for q in ["Q1", "S1", "Q1"] {
                let r =
                    request(&mut conn, &format!("EXEC tenant=alpha priority=high query={q}"));
                assert!(r.starts_with("OK "), "exec response: {r}");
            }
            request(&mut conn, "SHUTDOWN");
            assert!(server.wait().clean);
            let body = std::fs::read_to_string(path).unwrap();
            std::fs::remove_file(path).ok();
            body.lines().map(strip_timings).collect()
        }
        let tmp = std::env::temp_dir();
        let a = run(&tmp.join(format!("vr_qlog_det_{}_a.jsonl", std::process::id())));
        let b = run(&tmp.join(format!("vr_qlog_det_{}_b.jsonl", std::process::id())));
        assert_eq!(a.len(), 3, "one record per request: {a:?}");
        assert_eq!(a, b, "identical seeded runs must log identically modulo timings");
        // Sequential requests over one connection settle in arrival
        // order, so seq tracks req exactly.
        assert!(
            a[0].starts_with(
                "{\"seq\": 1, \"req\": 1, \"tenant\": \"alpha\", \"priority\": \"high\", \
                 \"query\": \"Q1\", \"engine\": \"batch\", \"outcome\": \"ok\""
            ),
            "first record: {}",
            a[0]
        );
        assert!(!a[0].contains("\"plan_digest\": \"\""), "completed requests carry a digest");
        assert!(
            a[1].contains("\"engine\": \"semantic\"") && a[1].contains("\"route\": \"index\""),
            "semantic record: {}",
            a[1]
        );
    }

    #[test]
    fn slow_query_exemplar_captures_the_annotated_plan() {
        use vr_base::fault::{self, FaultInjector};
        let path =
            std::env::temp_dir().join(format!("vr_qlog_slow_{}.jsonl", std::process::id()));
        // A 5ms injected kernel stall guarantees the request lands over
        // the 1ms slow-query threshold.
        fault::install(Some(Arc::new(
            FaultInjector::from_spec("stall_stage=kernel:5ms", 7).unwrap(),
        )));
        let server = start_server(ServerConfig {
            queries: vec![QueryKind::Q1Select],
            qlog_path: Some(path.to_str().unwrap().to_string()),
            slow_query: Some(Duration::from_millis(1)),
            ..ServerConfig::default()
        });
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let r = request(&mut conn, "EXEC tenant=alpha priority=high query=Q1");
        assert!(r.starts_with("OK "), "stalled exec still completes: {r}");
        request(&mut conn, "SHUTDOWN");
        assert!(server.wait().clean);
        fault::install(None);
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 1, "one record: {body}");
        assert!(lines[0].contains("\"slow_us\": 1000,"), "threshold echoed: {}", lines[0]);
        // The exemplar is the full EXPLAIN ANALYZE text: the plan shape
        // annotated with this run's measured per-stage wall times.
        assert!(lines[0].contains("\"exemplar\": \""), "exemplar captured: {}", lines[0]);
        assert!(lines[0].contains("wall="), "exemplar is annotated: {}", lines[0]);
    }

    #[test]
    fn stats_carries_the_slo_block_and_the_endpoint_serves_views() {
        let server = start_server(ServerConfig {
            queries: vec![QueryKind::Q1Select],
            // A generous objective keeps the one OK below it even on a
            // loaded runner: its burn rate must be exactly zero.
            slo: SloConfig { high: Duration::from_secs(60), ..SloConfig::default() },
            ..ServerConfig::default()
        });
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let ok = request(&mut conn, "EXEC tenant=alpha priority=high query=Q1");
        assert!(ok.starts_with("OK "), "exec response: {ok}");
        let stats = request(&mut conn, "STATS");
        assert!(stats.contains("\"slo\": {"), "stats slo block: {stats}");
        assert!(stats.contains("\"alpha/high\""), "slo class: {stats}");
        assert!(stats.contains("\"burn_rate\": 0.000"), "fast ok burns nothing: {stats}");

        // The loopback endpoint serves the registered /slo and
        // /requests views. The view registry is process-global (last
        // registration wins), so parallel server tests may have
        // re-registered: assert schema, not this server's counts.
        fn http_get(addr: SocketAddr, path: &str) -> String {
            use std::io::Read;
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        }
        let ms = serve::MetricsServer::start(0).unwrap();
        let slo = http_get(ms.addr(), "/slo");
        assert!(slo.starts_with("HTTP/1.1 200 OK"), "/slo response: {slo}");
        assert!(slo.contains("application/json"), "/slo content type: {slo}");
        assert!(
            slo.contains("\"objective_ms\"")
                && slo.contains("\"target\"")
                && slo.contains("\"window\""),
            "/slo schema: {slo}"
        );
        let reqs = http_get(ms.addr(), "/requests");
        assert!(reqs.starts_with("HTTP/1.1 200 OK"), "/requests response: {reqs}");
        assert!(reqs.contains("application/jsonl"), "/requests content type: {reqs}");
        ms.stop();

        request(&mut conn, "SHUTDOWN");
        assert!(server.wait().clean);
    }
}
