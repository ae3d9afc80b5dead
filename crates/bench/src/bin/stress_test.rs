//! Multi-tenant load driver for the `visualroad serve` query server.
//!
//! Hammers a running server with mixed offline/online workloads from
//! concurrent tenant sessions, then cross-checks the latency and
//! shedding behaviour the admission layer promises:
//!
//! * per-tenant QPS and p50/p95/p99 wall latency (every request
//!   counts — sheds are fast rejects, cancellations are the deadline
//!   working);
//! * exact accounting: the responses this driver observed must equal
//!   the server's own `STATS` ledger, tenant by tenant
//!   (ok + cancelled + err == admitted, shed == shed_total,
//!   degraded == degraded, and every OK's `route=` token must match
//!   the ledger's `index_served` / `rescan_served` split);
//! * priority isolation: high-priority tenants must never be shed for
//!   saturation (load shedding is low-priority-only by policy), and
//!   with `--require-high-zero-shed` must not be shed at all;
//! * bounded tails: high-priority p99 must stay under
//!   `--p99-bound-ms`;
//! * with `--expect-shedding`, the run must actually have shed some
//!   low-priority work (otherwise the leg did not generate pressure
//!   and proves nothing);
//! * with `--shutdown`, the server must acknowledge `SHUTDOWN` with
//!   `OK draining` (its process exit code then reports drain
//!   cleanliness);
//! * with `--qlog FILE`, the server's structured query log is replayed
//!   and reconciled record-by-record with the `STATS` ledger: per
//!   tenant, ok + cancelled + err records == `admitted`, shed records
//!   == the shed total, degraded and route counts match, and the total
//!   record count equals admitted + shed summed over tenants.
//!
//! ```text
//! stress_test --addr 127.0.0.1:7878 \
//!   --tenants gold:high:2,bronze:low:6 --requests 25 \
//!   --queries Q1,Q2a --deadline-ms 2000 --online-every 5 \
//!   --p99-bound-ms 4000 --expect-shedding --shutdown \
//!   --out results/ci/stress.json
//! ```
//!
//! Exits nonzero when any verification fails.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vr_base::json::{self, Fixed, Layout::{Block, Inline}, Writer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Priority {
    High,
    Low,
}

impl Priority {
    fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Low => "low",
        }
    }
}

#[derive(Debug, Clone)]
struct TenantSpec {
    name: String,
    priority: Priority,
    sessions: usize,
}

#[derive(Debug, Clone)]
struct Config {
    addr: String,
    tenants: Vec<TenantSpec>,
    requests: usize,
    queries: Vec<String>,
    engine: Option<String>,
    deadline_ms: u64,
    low_deadline_ms: Option<u64>,
    online_every: usize,
    online_speedup: f64,
    p99_bound_ms: u64,
    expect_shedding: bool,
    require_high_zero_shed: bool,
    shutdown: bool,
    out: Option<String>,
    qlog: Option<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "stress_test: {msg}\n\n\
         USAGE: stress_test --addr HOST:PORT [--tenants name:prio:sessions,...]\n\
           [--requests N] [--queries Q1,Q2a,...] [--engine NAME]\n\
           [--deadline-ms N] [--low-deadline-ms N]\n\
           [--online-every N] [--online-speedup F]\n\
           [--p99-bound-ms N] [--expect-shedding] [--require-high-zero-shed]\n\
           [--shutdown] [--out FILE] [--qlog FILE]"
    );
    std::process::exit(2);
}

/// `value` as a number, or the usage text naming `flag` and `kind`.
fn parsed<T: std::str::FromStr>(flag: &str, value: String, kind: &str) -> T {
    value.parse().unwrap_or_else(|_| usage(&format!("{flag} wants {kind}")))
}

fn parse_config() -> Config {
    let mut cfg = Config {
        addr: String::new(),
        tenants: vec![
            TenantSpec { name: "gold".into(), priority: Priority::High, sessions: 2 },
            TenantSpec { name: "bronze".into(), priority: Priority::Low, sessions: 6 },
        ],
        requests: 25,
        queries: vec!["Q1".into()],
        engine: None,
        deadline_ms: 2000,
        low_deadline_ms: None,
        online_every: 0,
        online_speedup: 200.0,
        p99_bound_ms: 4000,
        expect_shedding: false,
        require_high_zero_shed: false,
        shutdown: false,
        out: None,
        qlog: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| usage(&format!("{name} needs a value")));
        match flag.as_str() {
            "--addr" => cfg.addr = val("--addr"),
            "--tenants" => {
                cfg.tenants = val("--tenants")
                    .split(',')
                    .map(|spec| {
                        let mut parts = spec.split(':');
                        let name = parts.next().unwrap_or("").to_string();
                        let priority = match parts.next() {
                            Some("high") => Priority::High,
                            Some("low") => Priority::Low,
                            _ => usage("tenant spec is name:high|low:sessions"),
                        };
                        let sessions = parts
                            .next()
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage("tenant spec is name:high|low:sessions"));
                        if name.is_empty() || name.contains(char::is_whitespace) {
                            usage("tenant names must be nonempty and whitespace-free");
                        }
                        TenantSpec { name, priority, sessions }
                    })
                    .collect();
            }
            "--requests" => cfg.requests = parsed(&flag, val(&flag), "N"),
            "--queries" => {
                cfg.queries = val("--queries").split(',').map(str::to_string).collect()
            }
            "--engine" => cfg.engine = Some(val("--engine")),
            "--deadline-ms" => cfg.deadline_ms = parsed(&flag, val(&flag), "N"),
            "--low-deadline-ms" => cfg.low_deadline_ms = Some(parsed(&flag, val(&flag), "N")),
            "--online-every" => cfg.online_every = parsed(&flag, val(&flag), "N"),
            "--online-speedup" => cfg.online_speedup = parsed(&flag, val(&flag), "F"),
            "--p99-bound-ms" => cfg.p99_bound_ms = parsed(&flag, val(&flag), "N"),
            "--expect-shedding" => cfg.expect_shedding = true,
            "--require-high-zero-shed" => cfg.require_high_zero_shed = true,
            "--shutdown" => cfg.shutdown = true,
            "--out" => cfg.out = Some(val("--out")),
            "--qlog" => cfg.qlog = Some(val("--qlog")),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if cfg.addr.is_empty() {
        usage("--addr HOST:PORT is required");
    }
    if cfg.tenants.is_empty() {
        usage("at least one tenant is required");
    }
    cfg
}

/// What one session observed, folded per tenant afterwards.
#[derive(Debug, Default, Clone)]
struct Observed {
    sent: u64,
    ok: u64,
    degraded: u64,
    cancelled: u64,
    err: u64,
    /// OK responses that reported `route=index` / `route=rescan`. Every
    /// OK carries exactly one, so these must sum to `ok` — and must
    /// match the server ledger's `index_served` / `rescan_served`.
    route_index: u64,
    route_rescan: u64,
    shed: BTreeMap<String, u64>,
    /// Wall latency of every request, micros.
    latencies_us: Vec<u64>,
}

impl Observed {
    fn shed_total(&self) -> u64 {
        self.shed.values().sum()
    }

    fn fold(&mut self, other: Observed) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.cancelled += other.cancelled;
        self.err += other.err;
        self.route_index += other.route_index;
        self.route_rescan += other.route_rescan;
        for (reason, n) in other.shed {
            *self.shed.entry(reason).or_insert(0) += n;
        }
        self.latencies_us.extend(other.latencies_us);
    }
}

fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Run one session: `requests` EXECs over one connection.
fn run_session(cfg: &Config, tenant: &TenantSpec, session_index: usize) -> Result<Observed, String> {
    let stream = TcpStream::connect(&cfg.addr)
        .map_err(|e| format!("connect {}: {e}", cfg.addr))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut obs = Observed::default();
    for r in 0..cfg.requests {
        let query = &cfg.queries[(session_index + r) % cfg.queries.len()];
        let mut line = format!(
            "EXEC tenant={} priority={} query={query}",
            tenant.name,
            tenant.priority.label()
        );
        if let Some(engine) = &cfg.engine {
            line.push_str(&format!(" engine={engine}"));
        }
        let deadline = match tenant.priority {
            Priority::High => Some(cfg.deadline_ms),
            Priority::Low => cfg.low_deadline_ms,
        };
        if let Some(ms) = deadline {
            line.push_str(&format!(" deadline_ms={ms}"));
        }
        if cfg.online_every > 0 && (session_index + r) % cfg.online_every == 0 {
            line.push_str(&format!(" online={}", cfg.online_speedup));
        }
        let t0 = Instant::now();
        writer.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        writer.write_all(b"\n").map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())?;
        let mut response = String::new();
        if reader.read_line(&mut response).map_err(|e| e.to_string())? == 0 {
            return Err(format!("server closed connection mid-session ({})", tenant.name));
        }
        let latency = t0.elapsed();
        obs.sent += 1;
        obs.latencies_us.push(latency.as_micros() as u64);
        let response = response.trim();
        if response.starts_with("OK ") {
            obs.ok += 1;
            if response.contains("degraded=1") {
                obs.degraded += 1;
            }
            if response.contains("route=index") {
                obs.route_index += 1;
            } else if response.contains("route=rescan") {
                obs.route_rescan += 1;
            } else {
                return Err(format!("OK response without a route: {response:?}"));
            }
        } else if response.starts_with("CANCELLED ") {
            obs.cancelled += 1;
        } else if let Some(rest) = response.strip_prefix("SHED reason=") {
            *obs.shed.entry(rest.split_whitespace().next().unwrap_or("?").to_string())
                .or_insert(0) += 1;
        } else if response.starts_with("ERR ") {
            obs.err += 1;
        } else {
            return Err(format!("unparseable response: {response:?}"));
        }
    }
    Ok(obs)
}

/// One-shot request on a fresh connection (STATS / SHUTDOWN).
fn one_shot(addr: &str, request: &str) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    writer.write_all(request.as_bytes()).map_err(|e| e.to_string())?;
    writer.write_all(b"\n").map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    let mut response = String::new();
    reader.read_line(&mut response).map_err(|e| e.to_string())?;
    Ok(response.trim().to_string())
}

fn field(v: &json::Value, key: &str) -> u64 {
    v.get(key).and_then(|f| f.as_f64()).unwrap_or(0.0) as u64
}

fn main() -> ExitCode {
    let cfg = parse_config();
    let total_sessions: usize = cfg.tenants.iter().map(|t| t.sessions).sum();
    eprintln!(
        "stress_test: {} sessions x {} requests against {} ...",
        total_sessions, cfg.requests, cfg.addr
    );

    // Fan the sessions out; each owns one connection for its whole
    // life, like a real client would.
    let results: Mutex<BTreeMap<String, Observed>> = Mutex::new(BTreeMap::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let mut session_index = 0usize;
        for tenant in &cfg.tenants {
            for _ in 0..tenant.sessions {
                let idx = session_index;
                session_index += 1;
                let (cfg, results, errors) = (&cfg, &results, &errors);
                scope.spawn(move || match run_session(cfg, tenant, idx) {
                    Ok(obs) => results
                        .lock()
                        .unwrap()
                        .entry(tenant.name.clone())
                        .or_default()
                        .fold(obs),
                    Err(e) => errors.lock().unwrap().push(e),
                });
            }
        }
    });
    let wall = t0.elapsed();
    let results = results.into_inner().unwrap();
    let errors = errors.into_inner().unwrap();

    let mut failures: Vec<String> = errors;

    // Per-tenant report table.
    println!(
        "{:<10} {:>4} {:>6} {:>5} {:>4} {:>5} {:>8} {:>5} {:>4} {:>5} {:>9} {:>9} {:>9} {:>8}",
        "tenant", "prio", "sent", "ok", "idx", "rscn", "degraded", "canc", "err", "shed",
        "p50_ms", "p95_ms", "p99_ms", "qps"
    );
    let priority_of: BTreeMap<&str, Priority> =
        cfg.tenants.iter().map(|t| (t.name.as_str(), t.priority)).collect();
    let mut high_latencies: Vec<u64> = Vec::new();
    let mut low_load_shed = 0u64;
    for (name, obs) in &results {
        let mut sorted = obs.latencies_us.clone();
        sorted.sort_unstable();
        let priority = priority_of.get(name.as_str()).copied().unwrap_or(Priority::Low);
        if priority == Priority::High {
            high_latencies.extend(&sorted);
        } else {
            low_load_shed += obs.shed.get("saturated").copied().unwrap_or(0)
                + obs.shed.get("queue_full").copied().unwrap_or(0);
        }
        println!(
            "{:<10} {:>4} {:>6} {:>5} {:>4} {:>5} {:>8} {:>5} {:>4} {:>5} {:>9.1} {:>9.1} {:>9.1} {:>8.1}",
            name,
            priority.label(),
            obs.sent,
            obs.ok,
            obs.route_index,
            obs.route_rescan,
            obs.degraded,
            obs.cancelled,
            obs.err,
            obs.shed_total(),
            percentile_us(&sorted, 0.50) as f64 / 1000.0,
            percentile_us(&sorted, 0.95) as f64 / 1000.0,
            percentile_us(&sorted, 0.99) as f64 / 1000.0,
            obs.sent as f64 / wall.as_secs_f64().max(1e-9),
        );
    }

    // The server's own ledger, for exact accounting.
    let stats_line = match one_shot(&cfg.addr, "STATS") {
        Ok(line) => line,
        Err(e) => {
            eprintln!("FAIL: cannot fetch STATS: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = match stats_line
        .strip_prefix("STATS ")
        .ok_or_else(|| format!("bad STATS response: {stats_line:?}"))
        .and_then(|body| json::parse(body))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("FAIL: cannot parse STATS: {e}");
            return ExitCode::FAILURE;
        }
    };
    let empty = BTreeMap::new();
    let server_tenants = stats
        .get("tenants")
        .and_then(|t| t.as_object())
        .unwrap_or(&empty);

    // Exact per-tenant accounting: what we observed must equal what
    // the server recorded.
    for (name, obs) in &results {
        let Some(server) = server_tenants.get(name) else {
            failures.push(format!("tenant {name} missing from server STATS"));
            continue;
        };
        let admitted = field(server, "admitted");
        let shed: u64 = [
            "shed_saturated",
            "shed_queue_full",
            "shed_quota",
            "shed_breaker",
            "shed_draining",
            "shed_deadline",
        ]
        .iter()
        .map(|k| field(server, k))
        .sum();
        let driver_admitted = obs.ok + obs.cancelled + obs.err;
        if driver_admitted != admitted {
            failures.push(format!(
                "{name}: driver saw {driver_admitted} admitted (ok+cancelled+err), server ledger says {admitted}"
            ));
        }
        if obs.shed_total() != shed {
            failures.push(format!(
                "{name}: driver saw {} sheds, server ledger says {shed}",
                obs.shed_total()
            ));
        }
        if obs.degraded != field(server, "degraded") {
            failures.push(format!(
                "{name}: driver saw {} degraded, server ledger says {}",
                obs.degraded,
                field(server, "degraded")
            ));
        }
        // Route accounting: every OK was served by exactly one route,
        // and the server's index/rescan ledger must match what this
        // driver saw, tenant by tenant.
        if obs.route_index + obs.route_rescan != obs.ok {
            failures.push(format!(
                "{name}: {} OKs but {} route tokens (index {} + rescan {})",
                obs.ok,
                obs.route_index + obs.route_rescan,
                obs.route_index,
                obs.route_rescan
            ));
        }
        if obs.route_index != field(server, "index_served") {
            failures.push(format!(
                "{name}: driver saw {} index-served, server ledger says {}",
                obs.route_index,
                field(server, "index_served")
            ));
        }
        if obs.route_rescan != field(server, "rescan_served") {
            failures.push(format!(
                "{name}: driver saw {} rescan-served, server ledger says {}",
                obs.route_rescan,
                field(server, "rescan_served")
            ));
        }
        // Priority isolation: load shedding must never touch
        // high-priority tenants.
        if priority_of.get(name.as_str()) == Some(&Priority::High) {
            let saturated = field(server, "shed_saturated");
            if saturated != 0 {
                failures.push(format!(
                    "{name} is high priority but was load-shed {saturated} times"
                ));
            }
            if cfg.require_high_zero_shed && obs.shed_total() != 0 {
                failures.push(format!(
                    "{name} is high priority and --require-high-zero-shed is set, but saw {} sheds: {:?}",
                    obs.shed_total(),
                    obs.shed
                ));
            }
        }
    }

    // Replay the server's structured query log and reconcile it with
    // the STATS ledger, tenant by tenant. The server appends each
    // record before writing the response line, so every request this
    // driver saw answered must already be in the log — zero drift.
    if let Some(path) = &cfg.qlog {
        match std::fs::read_to_string(path) {
            Err(e) => failures.push(format!("cannot read qlog {path}: {e}")),
            Ok(body) => {
                #[derive(Default)]
                struct QlogTotals {
                    ok: u64,
                    cancelled: u64,
                    shed: u64,
                    err: u64,
                    degraded: u64,
                    route_index: u64,
                    route_rescan: u64,
                }
                let mut per_tenant: BTreeMap<String, QlogTotals> = BTreeMap::new();
                let mut records = 0u64;
                for (i, line) in body.lines().enumerate() {
                    let rec = match json::parse(line) {
                        Ok(v) => v,
                        Err(e) => {
                            failures.push(format!("qlog line {}: {e}", i + 1));
                            continue;
                        }
                    };
                    records += 1;
                    let tenant = rec.get("tenant").and_then(|t| t.as_str()).unwrap_or("?");
                    let t = per_tenant.entry(tenant.to_string()).or_default();
                    match rec.get("outcome").and_then(|o| o.as_str()).unwrap_or("?") {
                        "ok" => t.ok += 1,
                        "cancelled" => t.cancelled += 1,
                        "shed" => t.shed += 1,
                        "err" => t.err += 1,
                        other => failures.push(format!(
                            "qlog line {}: unknown outcome {other:?}",
                            i + 1
                        )),
                    }
                    if matches!(rec.get("degraded"), Some(json::Value::Bool(true))) {
                        t.degraded += 1;
                    }
                    match rec.get("route").and_then(|r| r.as_str()) {
                        Some("index") => t.route_index += 1,
                        Some("rescan") => t.route_rescan += 1,
                        _ => {}
                    }
                }
                let mut ledger_total = 0u64;
                for (name, server) in server_tenants.iter() {
                    let admitted = field(server, "admitted");
                    let shed: u64 = [
                        "shed_saturated",
                        "shed_queue_full",
                        "shed_quota",
                        "shed_breaker",
                        "shed_draining",
                        "shed_deadline",
                    ]
                    .iter()
                    .map(|k| field(server, k))
                    .sum();
                    ledger_total += admitted + shed;
                    let empty = QlogTotals::default();
                    let t = per_tenant.get(name).unwrap_or(&empty);
                    if t.ok + t.cancelled + t.err != admitted {
                        failures.push(format!(
                            "qlog {name}: {} settled admissions (ok {} + cancelled {} + err {}), ledger says {admitted}",
                            t.ok + t.cancelled + t.err, t.ok, t.cancelled, t.err
                        ));
                    }
                    if t.shed != shed {
                        failures.push(format!(
                            "qlog {name}: {} shed records, ledger says {shed}",
                            t.shed
                        ));
                    }
                    if t.degraded != field(server, "degraded") {
                        failures.push(format!(
                            "qlog {name}: {} degraded records, ledger says {}",
                            t.degraded,
                            field(server, "degraded")
                        ));
                    }
                    if t.route_index != field(server, "index_served") {
                        failures.push(format!(
                            "qlog {name}: {} index-served records, ledger says {}",
                            t.route_index,
                            field(server, "index_served")
                        ));
                    }
                    if t.route_rescan != field(server, "rescan_served") {
                        failures.push(format!(
                            "qlog {name}: {} rescan-served records, ledger says {}",
                            t.route_rescan,
                            field(server, "rescan_served")
                        ));
                    }
                }
                for name in per_tenant.keys() {
                    if !server_tenants.contains_key(name) {
                        failures.push(format!("qlog tenant {name} missing from server STATS"));
                    }
                }
                if records != ledger_total {
                    failures.push(format!(
                        "qlog has {records} records but the ledger settled {ledger_total} requests (admitted + shed)"
                    ));
                }
                println!(
                    "qlog cross-check: {records} records over {} tenants reconcile with STATS",
                    per_tenant.len()
                );
            }
        }
    }

    // Bounded high-priority tail.
    high_latencies.sort_unstable();
    let high_p99_us = percentile_us(&high_latencies, 0.99);
    println!(
        "high-priority p99 {:.1} ms (bound {} ms) over {} requests",
        high_p99_us as f64 / 1000.0,
        cfg.p99_bound_ms,
        high_latencies.len()
    );
    if !high_latencies.is_empty() && high_p99_us > cfg.p99_bound_ms * 1000 {
        failures.push(format!(
            "high-priority p99 {:.1} ms exceeds the {} ms bound",
            high_p99_us as f64 / 1000.0,
            cfg.p99_bound_ms
        ));
    }

    // The leg must actually have shed something to prove the policy.
    if cfg.expect_shedding && low_load_shed == 0 {
        failures.push(
            "--expect-shedding: no low-priority work was load-shed (saturated/queue_full) — the leg generated no pressure".into(),
        );
    }

    // Graceful shutdown handshake.
    if cfg.shutdown {
        match one_shot(&cfg.addr, "SHUTDOWN") {
            Ok(r) if r == "OK draining" => println!("shutdown acknowledged: {r}"),
            Ok(r) => failures.push(format!("unexpected SHUTDOWN response: {r:?}")),
            Err(e) => failures.push(format!("SHUTDOWN failed: {e}")),
        }
    }

    // Machine-readable report.
    if let Some(path) = &cfg.out {
        let doc = render_report(
            wall,
            total_sessions,
            cfg.requests,
            high_p99_us,
            low_load_shed,
            &results,
            failures.len(),
        );
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }

    if failures.is_empty() {
        println!("stress_test: PASS");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

/// The machine-readable report (`--out`): the run's totals, one line
/// per tenant, and the failure count.
fn render_report(
    wall: Duration,
    sessions: usize,
    requests_per_session: usize,
    high_p99_us: u64,
    low_load_shed: u64,
    results: &BTreeMap<String, Observed>,
    failures: usize,
) -> String {
    let mut w = Writer::new();
    w.object(Block).member("wall_secs", Fixed(wall.as_secs_f64(), 3));
    w.member("sessions", sessions).member("requests_per_session", requests_per_session);
    w.member("high_p99_us", high_p99_us).member("low_load_shed", low_load_shed);
    w.key("tenants").object(Block);
    for (name, obs) in results {
        let mut sorted = obs.latencies_us.clone();
        sorted.sort_unstable();
        w.key(name).object(Inline).member("sent", obs.sent).member("ok", obs.ok);
        w.member("degraded", obs.degraded).member("cancelled", obs.cancelled);
        w.member("err", obs.err).member("shed", obs.shed_total());
        w.member("route_index", obs.route_index).member("route_rescan", obs.route_rescan);
        w.member("p50_us", percentile_us(&sorted, 0.50));
        w.member("p95_us", percentile_us(&sorted, 0.95));
        w.member("p99_us", percentile_us(&sorted, 0.99)).end();
    }
    w.end().member("failures", failures).end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte for byte what the inline `format!`s in `main` wrote
    /// (captured on the commit before `json::Writer`).
    #[test]
    fn report_is_pinned() {
        const GOLDEN: &str = "{\n  \"wall_secs\": 1.234,\n  \"sessions\": 8,\n  \"requests_per_session\": 20,\n  \"high_p99_us\": 4321,\n  \"low_load_shed\": 3,\n  \"tenants\": {\n    \"bronze\": {\"sent\": 0, \"ok\": 0, \"degraded\": 0, \"cancelled\": 0, \"err\": 0, \"shed\": 0, \"route_index\": 0, \"route_rescan\": 0, \"p50_us\": 0, \"p95_us\": 0, \"p99_us\": 0},\n    \"gold\": {\"sent\": 10, \"ok\": 6, \"degraded\": 1, \"cancelled\": 1, \"err\": 0, \"shed\": 3, \"route_index\": 2, \"route_rescan\": 4, \"p50_us\": 200, \"p95_us\": 400, \"p99_us\": 400}\n  },\n  \"failures\": 2\n}\n";
        let shed = BTreeMap::from([("saturated".to_string(), 2), ("quota".to_string(), 1)]);
        let gold = Observed {
            sent: 10,
            ok: 6,
            degraded: 1,
            cancelled: 1,
            err: 0,
            route_index: 2,
            route_rescan: 4,
            shed,
            latencies_us: vec![300, 100, 200, 400],
        };
        let results =
            BTreeMap::from([("gold".to_string(), gold), ("bronze".to_string(), Observed::default())]);
        let doc = render_report(Duration::from_millis(1234), 8, 20, 4321, 3, &results, 2);
        assert_eq!(doc, GOLDEN);
        json::parse(&doc).unwrap();
    }

    /// The tenant name used to be interpolated raw.
    #[test]
    fn tenant_names_read_back_whatever_they_hold() {
        let results = BTreeMap::from([("a\"b".to_string(), Observed { sent: 1, ..Default::default() })]);
        let doc = json::parse(&render_report(Duration::ZERO, 1, 1, 0, 0, &results, 0)).unwrap();
        assert_eq!(field(doc.get("tenants").unwrap().get("a\"b").unwrap(), "sent"), 1);
    }
}
