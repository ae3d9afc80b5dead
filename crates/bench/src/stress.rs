//! Multi-tenant load driver for the `visualroad serve` query server,
//! behind the `stress_test` binary and the fleets in `tests/fleets.rs`.
//!
//! [`run`] hammers a running server with mixed offline/online
//! workloads from concurrent tenant sessions, then cross-checks the
//! latency and shedding behaviour the admission layer promises:
//!
//! * per-tenant QPS and p50/p95/p99 wall latency (every request
//!   counts — sheds are fast rejects, cancellations are the deadline
//!   working);
//! * exact accounting: the responses this driver observed must equal
//!   the server's own `STATS` ledger, tenant by tenant, as `reconcile`
//!   checks (admitted is ok, cancelled and err together; sheds match
//!   per reason; degraded matches; every OK's `route=` token agrees
//!   with the ledger's `index_served` / `rescan_served` split);
//! * priority isolation: high-priority tenants must never be shed for
//!   saturation (load shedding is low-priority-only by policy), and
//!   with `require_high_zero_shed` must not be shed at all;
//! * bounded tails: high-priority p99 must stay under `p99_bound_ms`;
//! * with `expect_shedding`, the run must actually have shed some
//!   low-priority work (otherwise the leg did not generate pressure
//!   and proves nothing);
//! * with `shutdown`, the server must acknowledge `SHUTDOWN` with
//!   `OK draining` (its drain then reports whether it was clean);
//! * with `qlog`, the server's structured query log is read back
//!   ([`qlog::parse`]) and folded into the same per-tenant tally, which
//!   `reconcile` holds against the `STATS` ledger; the log must also
//!   hold exactly admitted + shed records over all tenants.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use visual_road::server::load_shed_reasons;
use vr_base::admission::{AdmissionSnapshot, Priority, ShedReason, TenantCounters};
use vr_base::json::Layout::{Block, Inline};
use vr_base::json::{Fixed, Writer};
use vr_base::obs::qlog::{self, Outcome};

/// One tenant: its name, priority class and number of sessions.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub name: String,
    pub priority: Priority,
    pub sessions: usize,
}

/// A driver run, as the `stress_test` flags spell it.
#[derive(Debug, Clone)]
pub struct Config {
    pub addr: String,
    pub tenants: Vec<TenantSpec>,
    /// `EXEC`s per session.
    pub requests: usize,
    pub queries: Vec<String>,
    pub engine: Option<String>,
    /// High-priority deadline.
    pub deadline_ms: u64,
    pub low_deadline_ms: Option<u64>,
    /// Every Nth request of a session runs online (0: none).
    pub online_every: usize,
    pub online_speedup: f64,
    pub p99_bound_ms: u64,
    pub expect_shedding: bool,
    pub require_high_zero_shed: bool,
    pub shutdown: bool,
    pub out: Option<String>,
    pub qlog: Option<String>,
}

impl Config {
    /// Parse the flags (without the program name). An error is the
    /// complaint the usage text follows.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
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
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--addr" => cfg.addr = value()?,
                "--tenants" => cfg.tenants = tenants(&value()?)?,
                "--requests" => cfg.requests = number(&flag, value()?, "N")?,
                "--queries" => cfg.queries = value()?.split(',').map(str::to_string).collect(),
                "--engine" => cfg.engine = Some(value()?),
                "--deadline-ms" => cfg.deadline_ms = number(&flag, value()?, "N")?,
                "--low-deadline-ms" => cfg.low_deadline_ms = Some(number(&flag, value()?, "N")?),
                "--online-every" => cfg.online_every = number(&flag, value()?, "N")?,
                "--online-speedup" => cfg.online_speedup = number(&flag, value()?, "F")?,
                "--p99-bound-ms" => cfg.p99_bound_ms = number(&flag, value()?, "N")?,
                "--expect-shedding" => cfg.expect_shedding = true,
                "--require-high-zero-shed" => cfg.require_high_zero_shed = true,
                "--shutdown" => cfg.shutdown = true,
                "--out" => cfg.out = Some(value()?),
                "--qlog" => cfg.qlog = Some(value()?),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if cfg.addr.is_empty() {
            return Err("--addr HOST:PORT is required".into());
        }
        Ok(cfg)
    }
}

/// `value` as a number, or the complaint naming `flag` and `kind`.
fn number<T: std::str::FromStr>(flag: &str, value: String, kind: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag} wants {kind}"))
}

/// A comma-separated list of `name:high|low:sessions` tenant specs.
fn tenants(specs: &str) -> Result<Vec<TenantSpec>, String> {
    let malformed = || "tenant spec is name:high|low:sessions".to_string();
    let tenant = |spec: &str| {
        let mut parts = spec.split(':');
        let name = parts.next().unwrap_or("").to_string();
        let priority = parts.next().and_then(Priority::from_label).ok_or_else(malformed)?;
        let sessions = parts.next().and_then(|s| s.parse().ok()).ok_or_else(malformed)?;
        if name.is_empty() || name.contains(char::is_whitespace) {
            return Err("tenant names must be nonempty and whitespace-free".into());
        }
        Ok(TenantSpec { name, priority, sessions })
    };
    specs.split(',').map(tenant).collect()
}

/// One tenant's requests as a source saw them: the driver from its
/// responses, or the query log from its records. `reconcile` holds
/// either against the `STATS` ledger.
#[derive(Debug, Default, Clone)]
pub struct Observed {
    pub sent: u64,
    pub ok: u64,
    /// OKs admission degraded (a log also counts other outcomes).
    pub degraded: u64,
    pub cancelled: u64,
    pub err: u64,
    /// OK responses that reported `route=index` / `route=rescan`. Every
    /// OK carries exactly one, so these must sum to `ok` — and must
    /// match the server ledger's `index_served` / `rescan_served`.
    pub route_index: u64,
    pub route_rescan: u64,
    /// Sheds by reason label ([`ShedReason::label`]).
    pub shed: BTreeMap<String, u64>,
    /// Wall latency of every request, micros.
    pub latencies_us: Vec<u64>,
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

    /// Sheds for one reason.
    fn sheds(&self, reason: ShedReason) -> u64 {
        self.shed.get(reason.label()).copied().unwrap_or(0)
    }

    /// Count one settled request; `reason` is read for a shed only.
    fn count(&mut self, outcome: Outcome, reason: &str, degraded: bool, route: Option<&str>) {
        self.sent += 1;
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Cancelled => self.cancelled += 1,
            Outcome::Err => self.err += 1,
            Outcome::Shed => *self.shed.entry(reason.to_string()).or_insert(0) += 1,
        }
        self.degraded += u64::from(degraded);
        self.route_index += u64::from(route == Some("index"));
        self.route_rescan += u64::from(route == Some("rescan"));
    }

    /// Count one response line of the wire protocol.
    fn count_response(&mut self, response: &str, latency_us: u64) -> Result<(), String> {
        self.latencies_us.push(latency_us);
        if response.starts_with("OK ") {
            let route = response.split_whitespace().find_map(|w| w.strip_prefix("route="));
            let route =
                route.ok_or_else(|| format!("OK response without a route: {response:?}"))?;
            self.count(Outcome::Ok, "", response.contains("degraded=1"), Some(route));
        } else if let Some(rest) = response.strip_prefix("SHED reason=") {
            self.count(Outcome::Shed, rest.split_whitespace().next().unwrap_or("?"), false, None);
        } else if response.starts_with("CANCELLED ") {
            self.count(Outcome::Cancelled, "", false, None);
        } else if response.starts_with("ERR ") {
            self.count(Outcome::Err, "", false, None);
        } else {
            return Err(format!("unparseable response: {response:?}"));
        }
        Ok(())
    }

    /// Count one query-log record.
    fn count_logged(&mut self, r: &qlog::RequestRecord) {
        self.latencies_us.push(r.latency.as_micros() as u64);
        self.count(r.outcome, r.shed_reason.unwrap_or(""), r.degraded, r.route);
    }
}

/// Hold one tenant's tally, as `source` saw it, against its `STATS`
/// ledger entry: ok + cancelled + err == admitted, sheds reason by
/// reason, degraded, the index/rescan split, and one route token per
/// OK. The mismatches, each naming the tenant and the source.
fn reconcile(
    source: &str,
    name: &str,
    seen: &Observed,
    ledger: Option<&TenantCounters>,
) -> Vec<String> {
    let Some(ledger) = ledger else {
        return vec![format!("{source} tenant {name} missing from server STATS")];
    };
    let mut failures = Vec::new();
    let mut check = |what: &str, n: u64, ledger: u64| {
        if n != ledger {
            failures.push(format!("{name}: {source} saw {n} {what}, server ledger says {ledger}"));
        }
    };
    check("admitted (ok+cancelled+err)", seen.ok + seen.cancelled + seen.err, ledger.admitted);
    for reason in ShedReason::ALL {
        check(&format!("{} sheds", reason.label()), seen.sheds(reason), ledger.shed(reason));
    }
    check("degraded", seen.degraded, ledger.degraded);
    check("index-served", seen.route_index, ledger.index_served);
    check("rescan-served", seen.route_rescan, ledger.rescan_served);
    let routes = seen.route_index + seen.route_rescan;
    if routes != seen.ok {
        failures.push(format!("{name}: {source} saw {} OKs but {routes} route tokens", seen.ok));
    }
    for reason in seen.shed.keys().filter(|r| ShedReason::from_label(r).is_none()) {
        failures.push(format!("{name}: {source} saw sheds for an unknown reason {reason:?}"));
    }
    failures
}

fn connect(addr: &str) -> Result<BufReader<TcpStream>, String> {
    TcpStream::connect(addr).map(BufReader::new).map_err(|e| format!("connect {addr}: {e}"))
}

/// Send one request line; the response line, trimmed, or `None` if the
/// server closed the connection instead.
fn request(conn: &mut BufReader<TcpStream>, line: &str) -> Result<Option<String>, String> {
    conn.get_mut().write_all(format!("{line}\n").as_bytes()).map_err(|e| e.to_string())?;
    let mut response = String::new();
    let read = conn.read_line(&mut response).map_err(|e| e.to_string())?;
    Ok((read > 0).then(|| response.trim().to_string()))
}

/// One-shot request on a fresh connection (`STATS` / `SHUTDOWN`).
fn one_shot(addr: &str, line: &str) -> Result<String, String> {
    Ok(request(&mut connect(addr)?, line)?.unwrap_or_default())
}

/// Run one session: `requests` EXECs over one connection.
fn run_session(cfg: &Config, tenant: &TenantSpec, index: usize) -> Result<Observed, String> {
    let mut conn = connect(&cfg.addr)?;
    let mut obs = Observed::default();
    for r in 0..cfg.requests {
        let query = &cfg.queries[(index + r) % cfg.queries.len()];
        let mut line =
            format!("EXEC tenant={} priority={} query={query}", tenant.name, tenant.priority);
        if let Some(engine) = &cfg.engine {
            line += &format!(" engine={engine}");
        }
        let deadline = match tenant.priority {
            Priority::High => Some(cfg.deadline_ms),
            Priority::Low => cfg.low_deadline_ms,
        };
        if let Some(ms) = deadline {
            line += &format!(" deadline_ms={ms}");
        }
        if cfg.online_every > 0 && (index + r).is_multiple_of(cfg.online_every) {
            line += &format!(" online={}", cfg.online_speedup);
        }
        let t0 = Instant::now();
        let response = request(&mut conn, &line)?
            .ok_or_else(|| format!("server closed connection mid-session ({})", tenant.name))?;
        obs.count_response(&response, t0.elapsed().as_micros() as u64)?;
    }
    Ok(obs)
}

/// The `q` quantile of `latencies`, nearest rank; 0 for none.
fn percentile_us(latencies: &[u64], q: f64) -> u64 {
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(0)
}

/// What a [`run`] saw and found.
#[derive(Debug)]
pub struct Report {
    pub wall: Duration,
    /// Per-tenant tallies of the responses.
    pub tenants: BTreeMap<String, Observed>,
    pub high_p99_us: u64,
    /// Low-priority requests shed for load.
    pub low_load_shed: u64,
    /// Every check that failed.
    pub failures: Vec<String>,
}

/// A tenant's configured priority; a name the configuration does not
/// hold counts as low.
fn priority_of(cfg: &Config, name: &str) -> Priority {
    cfg.tenants.iter().find(|t| t.name == name).map_or(Priority::Low, |t| t.priority)
}

/// The per-tenant table `stress_test` prints.
fn table(cfg: &Config, wall: Duration, tenants: &BTreeMap<String, Observed>) -> String {
    let mut out = format!(
        "{:<10} {:>4} {:>6} {:>5} {:>4} {:>5} {:>8} {:>5} {:>4} {:>5} {:>9} {:>9} {:>9} {:>8}\n",
        "tenant", "prio", "sent", "ok", "idx", "rscn", "degraded", "canc", "err", "shed",
        "p50_ms", "p95_ms", "p99_ms", "qps"
    );
    for (name, o) in tenants {
        let p = |q| percentile_us(&o.latencies_us, q) as f64 / 1000.0;
        out += &format!(
            "{name:<10} {:>4} {:>6} {:>5} {:>4} {:>5} {:>8} {:>5} {:>4} {:>5} {:>9.1} {:>9.1} {:>9.1} {:>8.1}\n",
            priority_of(cfg, name),
            o.sent, o.ok, o.route_index, o.route_rescan, o.degraded, o.cancelled, o.err, o.shed_total(),
            p(0.50), p(0.95), p(0.99),
            o.sent as f64 / wall.as_secs_f64().max(1e-9),
        );
    }
    out
}

/// Drive the server `cfg` names and check what it answered, appending
/// to `out` what `stress_test` prints before its verdict: the
/// per-tenant table, then a line for each check that reports one. An
/// error means the `STATS` ledger could not be fetched or read, and
/// nothing past the table was checked.
pub fn run(cfg: &Config, out: &mut String) -> Result<Report, String> {
    // Fan the sessions out; each owns one connection for its whole
    // life, like a real client would.
    let t0 = Instant::now();
    let (mut tenants, mut failures) = (BTreeMap::<String, Observed>::new(), Vec::new());
    std::thread::scope(|scope| {
        let mut threads = Vec::new();
        for (index, tenant) in cfg.tenants.iter().flat_map(|t| vec![t; t.sessions]).enumerate() {
            threads.push((tenant, scope.spawn(move || run_session(cfg, tenant, index))));
        }
        for (tenant, thread) in threads {
            match thread.join().expect("session threads do not panic") {
                Ok(obs) => tenants.entry(tenant.name.clone()).or_default().fold(obs),
                Err(e) => failures.push(e),
            }
        }
    });
    let wall = t0.elapsed();
    *out += &table(cfg, wall, &tenants);
    let mut high_latencies: Vec<u64> = Vec::new();
    let mut low_load_shed = 0;
    for (name, obs) in &tenants {
        match priority_of(cfg, name) {
            Priority::High => high_latencies.extend(&obs.latencies_us),
            Priority::Low => {
                low_load_shed += load_shed_reasons().map(|r| obs.sheds(r)).iter().sum::<u64>()
            }
        }
    }

    // The server's own ledger, for exact accounting.
    let line = one_shot(&cfg.addr, "STATS").map_err(|e| format!("cannot fetch STATS: {e}"))?;
    let body = line.strip_prefix("STATS ").ok_or(format!("bad STATS response: {line:?}"));
    let ledger =
        body.and_then(AdmissionSnapshot::parse).map_err(|e| format!("cannot parse STATS: {e}"))?;
    for (name, obs) in &tenants {
        let counters = ledger.tenants.get(name);
        failures.extend(reconcile("driver", name, obs, counters));
        // Priority isolation: load shedding must never touch
        // high-priority tenants.
        if priority_of(cfg, name) == Priority::High {
            let saturated = counters.map_or(0, |c| c.shed_saturated);
            if saturated != 0 {
                failures
                    .push(format!("{name} is high priority but was load-shed {saturated} times"));
            }
            let sheds = obs.shed_total();
            if cfg.require_high_zero_shed && sheds != 0 {
                let why = "is high priority and --require-high-zero-shed is set";
                failures.push(format!("{name} {why}, but saw {sheds} sheds: {:?}", obs.shed));
            }
        }
    }

    // The server appends each log record before writing the response
    // line, so every request this driver saw answered is already in
    // the log: zero drift.
    if let Some(path) = &cfg.qlog {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read qlog {path}: {e}"));
        match text.and_then(|text| qlog::parse(&text, path)) {
            Err(e) => failures.push(e),
            Ok(records) => {
                let mut logged: BTreeMap<String, Observed> = BTreeMap::new();
                for r in &records {
                    logged.entry(r.record.tenant.clone()).or_default().count_logged(&r.record);
                }
                for name in ledger.tenants.keys().chain(logged.keys()).collect::<BTreeSet<_>>() {
                    let seen = logged.get(name).cloned().unwrap_or_default();
                    failures.extend(reconcile("qlog", name, &seen, ledger.tenants.get(name)));
                }
                let (n, tenants) = (records.len(), logged.len());
                let settled: u64 =
                    ledger.tenants.values().map(|t| t.admitted + t.shed_total()).sum();
                if n as u64 != settled {
                    failures.push(format!(
                        "qlog has {n} records but the ledger settled {settled} requests (admitted + shed)"
                    ));
                }
                *out += &format!(
                    "qlog cross-check: {n} records over {tenants} tenants reconcile with STATS\n"
                );
            }
        }
    }

    // Bounded high-priority tail.
    let high_p99_us = percentile_us(&high_latencies, 0.99);
    let (p99_ms, bound_ms, n) =
        (high_p99_us as f64 / 1000.0, cfg.p99_bound_ms, high_latencies.len());
    *out += &format!("high-priority p99 {p99_ms:.1} ms (bound {bound_ms} ms) over {n} requests\n");
    if n > 0 && high_p99_us > bound_ms * 1000 {
        failures.push(format!("high-priority p99 {p99_ms:.1} ms exceeds the {bound_ms} ms bound"));
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
            Ok(r) if r == "OK draining" => *out += &format!("shutdown acknowledged: {r}\n"),
            Ok(r) => failures.push(format!("unexpected SHUTDOWN response: {r:?}")),
            Err(e) => failures.push(format!("SHUTDOWN failed: {e}")),
        }
    }
    Ok(Report { wall, tenants, high_p99_us, low_load_shed, failures })
}

/// The machine-readable report (`--out`): the run's totals, one line
/// per tenant, and the failure count.
pub fn render_report(
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
        w.key(name).object(Inline).member("sent", obs.sent).member("ok", obs.ok);
        w.member("degraded", obs.degraded).member("cancelled", obs.cancelled);
        w.member("err", obs.err).member("shed", obs.shed_total());
        w.member("route_index", obs.route_index).member("route_rescan", obs.route_rescan);
        w.member("p50_us", percentile_us(&obs.latencies_us, 0.50));
        w.member("p95_us", percentile_us(&obs.latencies_us, 0.95));
        w.member("p99_us", percentile_us(&obs.latencies_us, 0.99)).end();
    }
    w.end().member("failures", failures).end();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_base::json;

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
        let results =
            BTreeMap::from([("a\"b".to_string(), Observed { sent: 1, ..Default::default() })]);
        let doc = json::parse(&render_report(Duration::ZERO, 1, 1, 0, 0, &results, 0)).unwrap();
        let sent = doc.get("tenants").and_then(|t| t.get("a\"b")).and_then(|t| t.get("sent"));
        assert_eq!(sent.and_then(json::Value::as_f64), Some(1.0));
    }

    fn args(line: &str) -> Result<Config, String> {
        Config::parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn config_parse_returns_the_complaint() {
        let cfg =
            args("--addr h:1 --tenants a:high:1,b:low:3 --low-deadline-ms 9 --shutdown --qlog q")
                .unwrap();
        assert_eq!((cfg.tenants.len(), cfg.tenants[1].sessions), (2, 3));
        assert_eq!(
            (cfg.low_deadline_ms, cfg.shutdown, cfg.qlog.as_deref()),
            (Some(9), true, Some("q"))
        );
        let complaint = |line: &str| args(line).unwrap_err();
        assert_eq!(complaint("--shutdown"), "--addr HOST:PORT is required");
        assert_eq!(complaint("--addr"), "--addr needs a value");
        assert_eq!(complaint("--addr h:1 --requests many"), "--requests wants N");
        assert_eq!(
            complaint("--addr h:1 --tenants a:hi:1"),
            "tenant spec is name:high|low:sessions"
        );
        assert_eq!(
            complaint("--addr h:1 --tenants a:high"),
            "tenant spec is name:high|low:sessions"
        );
        assert_eq!(
            complaint("--addr h:1 --tenants :high:1"),
            "tenant names must be nonempty and whitespace-free"
        );
        assert_eq!(complaint("--addr h:1 -v"), "unknown flag \"-v\"");
    }

    /// One request of each outcome, as wire responses and as the
    /// records the server logged for them.
    const RESPONSES: [&str; 6] = [
        "OK tenant=gold query=Q1 engine=batch latency_us=9 degraded=1 route=rescan",
        "OK tenant=gold query=S1 engine=semantic latency_us=9 degraded=0 route=index count=2",
        "SHED reason=saturated",
        "SHED reason=quota",
        "CANCELLED tenant=gold query=Q1 latency_us=9",
        "ERR tenant=gold query=Q1: stage panicked",
    ];

    fn logged() -> Vec<qlog::RequestRecord> {
        let record = |outcome, shed_reason, degraded, route| qlog::RequestRecord {
            req: 1,
            tenant: "gold".into(),
            priority: Priority::High,
            query: "Q1".into(),
            engine: "batch".into(),
            outcome,
            shed_reason,
            degraded,
            route,
            queue_wait: Duration::ZERO,
            latency: Duration::from_micros(9),
            deadline: None,
            plan_digest: String::new(),
            exemplar: None,
        };
        vec![
            record(Outcome::Ok, None, true, Some("rescan")),
            record(Outcome::Ok, None, false, Some("index")),
            record(Outcome::Shed, Some("saturated"), false, None),
            record(Outcome::Shed, Some("quota"), false, None),
            record(Outcome::Cancelled, None, false, None),
            record(Outcome::Err, None, false, None),
        ]
    }

    /// The ledger entry those six requests leave.
    fn ledger() -> TenantCounters {
        TenantCounters {
            admitted: 4,
            degraded: 1,
            shed_saturated: 1,
            shed_quota: 1,
            completed_ok: 2,
            failed: 1,
            index_served: 1,
            rescan_served: 1,
            ..TenantCounters::default()
        }
    }

    #[test]
    fn responses_and_log_records_fold_into_one_tally() {
        let mut wire = Observed::default();
        for response in RESPONSES {
            wire.count_response(response, 9).unwrap();
        }
        let mut log = Observed::default();
        for r in &logged() {
            log.count_logged(r);
        }
        assert_eq!(format!("{wire:?}"), format!("{log:?}"));
        assert_eq!(
            (wire.ok, wire.degraded, wire.cancelled, wire.err, wire.shed_total()),
            (2, 1, 1, 1, 2)
        );
        assert_eq!(reconcile("driver", "gold", &wire, Some(&ledger())), Vec::<String>::new());
        assert!(
            wire.count_response("OK tenant=gold query=Q1", 1).is_err(),
            "an OK without a route"
        );
        assert!(wire.count_response("BUSY", 1).is_err());
    }

    #[test]
    fn reconcile_names_every_mismatch() {
        let mut seen = Observed::default();
        for response in RESPONSES {
            seen.count_response(response, 9).unwrap();
        }
        let failures = |ledger: TenantCounters| reconcile("qlog", "gold", &seen, Some(&ledger));
        assert_eq!(
            failures(TenantCounters { admitted: 5, index_served: 0, ..ledger() }),
            [
                "gold: qlog saw 4 admitted (ok+cancelled+err), server ledger says 5",
                "gold: qlog saw 1 index-served, server ledger says 0",
            ]
        );
        assert_eq!(
            reconcile("qlog", "gold", &seen, None),
            ["qlog tenant gold missing from server STATS"]
        );
        let mut unknown = seen.clone();
        unknown.shed.insert("tired".into(), 1);
        assert_eq!(failures(ledger()).len(), 0);
        assert_eq!(
            reconcile("driver", "gold", &unknown, Some(&ledger())),
            ["gold: driver saw sheds for an unknown reason \"tired\""]
        );
    }

    /// Two reasons swapped keep the total; each reason is its own check.
    #[test]
    fn sheds_reconcile_reason_by_reason() {
        let mut seen = Observed::default();
        for response in RESPONSES {
            seen.count_response(response, 9).unwrap();
        }
        let swapped = TenantCounters { shed_saturated: 0, shed_breaker: 1, ..ledger() };
        assert_eq!(swapped.shed_total(), ledger().shed_total());
        assert_eq!(
            reconcile("driver", "gold", &seen, Some(&swapped)),
            [
                "gold: driver saw 1 saturated sheds, server ledger says 0",
                "gold: driver saw 0 breaker_open sheds, server ledger says 1",
            ]
        );
    }
}
