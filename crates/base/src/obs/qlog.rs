//! Structured query log: one JSON-lines record per served request.
//!
//! Observability layer 3's durable surface. The query server mints a
//! [`RequestCtx`] per `EXEC` line and, once the request settles (ok,
//! cancelled, shed, or errored), appends a [`RequestRecord`] to the
//! process's [`QueryLog`]. Records have a **fixed field order** and
//! every field is always present (`null` where absent), so two
//! identical seeded runs produce byte-identical logs modulo the two
//! timing fields (`queue_wait_us`, `latency_us`) and any slow-query
//! exemplars — `server.rs`'s `qlog_is_deterministic_across_identical_runs`
//! asserts exactly that.
//!
//! Two ids per record, because records are appended at *completion*
//! time while request ids are minted at *arrival* time:
//!
//! * `seq` — assigned under the append lock; strictly increasing in
//!   file order (one of the checks [`parse`] makes);
//! * `req` — the arrival-minted id, which also names the request's
//!   span-tracer lane (`request.req-NNNNNN.<tenant>` in chrome-trace);
//!   unique but not ordered in the file.
//!
//! A log with no `--qlog-out` file renders nothing: it only numbers
//! the records. [`parse`] reads a log back into the records that wrote
//! it.

use std::io::Write;
use std::time::Duration;

use crate::admission::{Priority, ShedReason};
use crate::json::{self, Layout::Inline, Value, Writer};
use crate::sync::Mutex;

/// Identity of one in-flight request, minted at arrival and carried
/// by the server through planning, execution and the query log.
#[derive(Debug, Clone)]
pub struct RequestCtx {
    /// Deterministic per-server arrival sequence number (1-based).
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Declared priority class.
    pub priority: Priority,
}

impl RequestCtx {
    /// Stable short label (`req-000042`) used in span names and logs.
    pub fn label(&self) -> String {
        format!("req-{:06}", self.id)
    }
}

/// How a request settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed and returned rows/frames.
    Ok,
    /// Admitted but cancelled by its deadline mid-flight.
    Cancelled,
    /// Refused at admission.
    Shed,
    /// Admitted but failed during execution.
    Err,
}

impl Outcome {
    /// Stable lower-snake label used in the wire record.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Cancelled => "cancelled",
            Outcome::Shed => "shed",
            Outcome::Err => "err",
        }
    }

    /// The outcome whose [`label`](Self::label) is exactly `label`.
    pub(crate) fn from_label(label: &str) -> Option<Outcome> {
        [Outcome::Ok, Outcome::Cancelled, Outcome::Shed, Outcome::Err]
            .into_iter()
            .find(|o| o.label() == label)
    }
}

/// One settled request, ready to render. `seq` is assigned by
/// [`QueryLog::append`]; everything else is filled by the server.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Arrival-minted request id ([`RequestCtx::id`]).
    pub req: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Declared priority class.
    pub priority: Priority,
    /// Query label (`Q1`, `S2`, ...).
    pub query: String,
    /// Engine that served it (`batch`, `streaming`, `semantic`, ...).
    pub engine: String,
    /// How the request settled.
    pub outcome: Outcome,
    /// Shed reason label; `Some` iff `outcome == Shed`.
    pub shed_reason: Option<&'static str>,
    /// Whether admission degraded the request (reduced fan-out).
    pub degraded: bool,
    /// `Some("index")` / `Some("rescan")` for completed requests that
    /// took a route decision; `None` otherwise.
    pub route: Option<&'static str>,
    /// Time spent blocked in the admission queue.
    pub queue_wait: Duration,
    /// Wall time from arrival to settlement.
    pub latency: Duration,
    /// Client-declared deadline, if any.
    pub deadline: Option<Duration>,
    /// FNV-1a digest of the chosen plan's rendered text (or the
    /// optimizer decision for semantic queries); empty when no plan
    /// was reached (sheds).
    pub plan_digest: String,
    /// Full `EXPLAIN ANALYZE` text, captured only when the request is
    /// slower than the configured slow-query threshold.
    pub exemplar: Option<String>,
}

/// 64-bit FNV-1a over a string — the plan-digest hash. Deterministic,
/// dependency-free, and stable across runs/platforms.
pub(crate) fn fnv64(data: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in data.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// [`fnv64`] rendered as the fixed-width hex form used in records.
pub fn fnv64_hex(data: &str) -> String {
    format!("{:016x}", fnv64(data))
}

struct Inner {
    seq: u64,
    writer: Option<std::io::BufWriter<std::fs::File>>,
}

/// Append-only query log over an optional JSONL file. One instance per
/// server.
pub struct QueryLog {
    slow: Option<Duration>,
    /// Whether records are rendered to a file (fixed at open).
    sink: bool,
    inner: Mutex<Inner>,
}

impl QueryLog {
    /// Open a log. `path` is the JSONL sink (`None`: records are
    /// numbered, not rendered); `slow` is the slow-query threshold
    /// (`None` disables exemplars).
    pub fn open(path: Option<&str>, slow: Option<Duration>) -> std::io::Result<Self> {
        let writer = match path {
            Some(p) => Some(std::io::BufWriter::new(std::fs::File::create(p)?)),
            None => None,
        };
        Ok(Self {
            slow,
            sink: writer.is_some(),
            inner: Mutex::new(Inner { seq: 0, writer }),
        })
    }

    /// The `EXPLAIN ANALYZE` exemplar a record of a request that took
    /// `latency` carries: the text `explain` renders, when the latency
    /// is at or over the slow-query threshold and the log has a file
    /// sink. Without a sink no record is rendered, so `explain` is
    /// never called.
    pub fn exemplar<S: Into<String>>(
        &self,
        latency: Duration,
        explain: impl FnOnce() -> S,
    ) -> Option<String> {
        let slow = self.sink && self.slow.is_some_and(|t| latency >= t);
        slow.then(|| explain().into())
    }

    /// The plan digest a record carries: [`fnv64_hex`] of the plan text
    /// `explain` renders. Without a file sink no record is rendered, so
    /// the digest is empty and `explain` is never called.
    pub fn plan_digest<S: AsRef<str>>(&self, explain: impl FnOnce() -> S) -> String {
        if self.sink {
            fnv64_hex(explain().as_ref())
        } else {
            String::new()
        }
    }

    /// Assign the next `seq` and, with a file sink, render and append
    /// one record. The file write is flushed per record so
    /// crash-truncated logs still end on a line boundary. Returns the
    /// assigned `seq`.
    pub fn append(&self, rec: &RequestRecord) -> u64 {
        let mut inner = self.inner.lock();
        inner.seq += 1;
        let seq = inner.seq;
        if let Some(w) = inner.writer.as_mut() {
            // Log I/O must never fail a query: drop the line on error.
            let _ = writeln!(w, "{}", self.render(seq, rec));
            let _ = w.flush();
        }
        seq
    }

    /// Render one record with the fixed field order. Every field is
    /// always present; absent values render as `null`.
    fn render(&self, seq: u64, r: &RequestRecord) -> String {
        let mut w = Writer::new();
        w.object(Inline).member("seq", seq).member("req", r.req);
        w.member("tenant", &r.tenant).member("priority", r.priority.label());
        w.member("query", &r.query).member("engine", &r.engine);
        w.member("outcome", r.outcome.label()).member("shed_reason", r.shed_reason);
        w.member("degraded", r.degraded).member("route", r.route);
        w.member("queue_wait_us", r.queue_wait.as_micros() as u64);
        w.member("latency_us", r.latency.as_micros() as u64);
        w.member("deadline_ms", r.deadline.map(|d| d.as_millis() as u64));
        w.member("plan_digest", &r.plan_digest);
        w.member("slow_us", self.slow.map_or(0, |d| d.as_micros() as u64));
        w.member("exemplar", r.exemplar.as_deref()).end();
        w.finish()
    }
}

/// A record [`parse`] read back: the server's record plus the two
/// fields [`QueryLog`] adds to it.
#[derive(Debug, Clone, PartialEq)]
pub struct Logged {
    /// Append order; strictly increasing in the file.
    pub seq: u64,
    /// The log's slow-query threshold in micros (0: none).
    pub slow_us: u64,
    pub record: RequestRecord,
}

/// Read a JSONL query log back: the strict reader of
/// [`QueryLog::append`]. `source` names the log in diagnostics, which
/// also give the line. The log must hold at least one record, and each
/// line, in this order, must parse as JSON; have a `seq` above the
/// previous line's; a `req` >= 1; a non-empty `tenant`; a `priority` of
/// `high` or `low`; an `outcome` of `ok`, `cancelled`, `shed` or `err`;
/// a `shed_reason` iff the outcome is `shed` and a `route` iff it is
/// `ok`; and an `exemplar` only when `latency_us` is at or over the
/// record's own non-zero `slow_us`. Every other field must hold what
/// the writer puts there (a known shed reason and route, a boolean
/// `degraded`, non-negative numbers, strings).
pub fn parse(text: &str, source: &str) -> Result<Vec<Logged>, String> {
    let mut records: Vec<Logged> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let at = |msg: String| format!("{source}:{}: {msg}", i + 1);
        let value = json::parse(line).map_err(|e| at(format!("invalid JSON: {e}")))?;
        let previous = records.last().map_or(0, |r| r.seq);
        records.push(read_record(&value, previous).map_err(at)?);
    }
    if records.is_empty() {
        return Err(format!("{source}: no query-log records"));
    }
    Ok(records)
}

/// One line of [`parse`], whose previous record had `seq` `previous`.
fn read_record(rec: &Value, previous: u64) -> Result<Logged, String> {
    let num = |key: &str| {
        let n = rec.get(key).and_then(Value::as_f64).filter(|n| n.is_finite() && *n >= 0.0);
        n.map(|n| n as u64).ok_or_else(|| format!("missing or negative {key:?}"))
    };
    let text = |key: &str| {
        rec.get(key).and_then(Value::as_str).ok_or(format!("missing or non-string {key:?}"))
    };
    let nullable = |key: &str| match rec.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v.as_str().map(Some).ok_or(format!("{key:?} is neither a string nor null")),
    };
    // A member the writer renders as one of `known`, or as `null`.
    let label = |key: &str, known: &[&'static str]| match nullable(key)? {
        Some(s) => {
            known.iter().find(|k| **k == s).map(|k| Some(*k)).ok_or(format!("unknown {key} {s:?}"))
        }
        None => Ok(None),
    };
    let seq = num("seq")?;
    if seq <= previous {
        return Err(format!("seq {seq} is not strictly increasing (previous {previous})"));
    }
    let req = num("req")?;
    if req < 1 {
        return Err("req must be >= 1".into());
    }
    let tenant =
        text("tenant").ok().filter(|t| !t.is_empty()).ok_or("missing or empty \"tenant\"")?;
    let priority = rec.get("priority").and_then(Value::as_str);
    let priority =
        priority.and_then(Priority::from_label).ok_or(format!("bad priority {priority:?}"))?;
    let outcome = text("outcome").map_err(|_| "missing \"outcome\"")?;
    let outcome = Outcome::from_label(outcome).ok_or(format!("unknown outcome {outcome:?}"))?;
    let shed = label("shed_reason", &ShedReason::ALL.map(|r| r.label()))?;
    let route = label("route", &["index", "rescan"])?;
    for (key, v, when) in [("shed_reason", shed, Outcome::Shed), ("route", route, Outcome::Ok)] {
        if v.is_some() != (outcome == when) {
            let (when, o) = (when.label(), outcome.label());
            return Err(format!("{key} must be present iff outcome is {when} (outcome {o:?})"));
        }
    }
    let slow_us = num("slow_us")?;
    let latency_us = num("latency_us")?;
    let exemplar = nullable("exemplar")?;
    if exemplar.is_some() && (slow_us == 0 || latency_us < slow_us) {
        return Err(format!(
            "exemplar on a record that is not slow (latency {latency_us}us, threshold {slow_us}us)"
        ));
    }
    let Some(&Value::Bool(degraded)) = rec.get("degraded") else {
        return Err("missing or non-boolean \"degraded\"".into());
    };
    let deadline = match rec.get("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(_) => Some(Duration::from_millis(num("deadline_ms")?)),
    };
    let record = RequestRecord {
        req,
        tenant: tenant.to_string(),
        priority,
        query: text("query")?.to_string(),
        engine: text("engine")?.to_string(),
        outcome,
        shed_reason: shed,
        degraded,
        route,
        queue_wait: Duration::from_micros(num("queue_wait_us")?),
        latency: Duration::from_micros(latency_us),
        deadline,
        plan_digest: text("plan_digest")?.to_string(),
        exemplar: exemplar.map(str::to_string),
    };
    Ok(Logged { seq, slow_us, record })
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn record(req: u64) -> RequestRecord {
        RequestRecord {
            req,
            tenant: "gold".into(),
            priority: Priority::High,
            query: "Q1".into(),
            engine: "batch".into(),
            outcome: Outcome::Ok,
            shed_reason: None,
            degraded: false,
            route: Some("rescan"),
            queue_wait: Duration::from_micros(12),
            latency: Duration::from_micros(3400),
            deadline: Some(Duration::from_millis(3000)),
            plan_digest: fnv64_hex("plan"),
            exemplar: None,
        }
    }

    /// Append `records` to a log with a file sink named after `tag`;
    /// the file's text.
    fn logged(tag: &str, slow: Option<Duration>, records: &[RequestRecord]) -> String {
        let path =
            std::env::temp_dir().join(format!("vr_qlog_{tag}_{}.jsonl", std::process::id()));
        {
            let log = QueryLog::open(path.to_str(), slow).unwrap();
            for (seq, r) in (1..).zip(records) {
                assert_eq!(log.append(r), seq);
            }
        }
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        body
    }

    #[test]
    fn seq_is_strictly_increasing() {
        let records: Vec<RequestRecord> = (1..=10).map(record).collect();
        let body = logged("seq", None, &records);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 10);
        for (seq, line) in (1..).zip(&lines) {
            assert!(line.starts_with(&format!("{{\"seq\": {seq}, ")), "{line}");
        }
    }

    /// Without a file sink `append` only numbers the record: it renders
    /// nothing and allocates nothing.
    #[test]
    fn a_log_without_a_sink_allocates_nothing() {
        use super::super::alloc::{self, ScopeGuard};
        let log = QueryLog::open(None, Some(Duration::from_millis(1))).unwrap();
        let rec = record(1);
        let _serial = alloc::TEST_LOCK.lock();
        alloc::set_tracking(true);
        let scope = ScopeGuard::begin();
        let seqs = [log.append(&rec), log.append(&rec)];
        let delta = scope.finish();
        alloc::set_tracking(false);
        assert_eq!(seqs, [1, 2]);
        assert_eq!(delta.allocs, 0, "{delta:?}");
    }

    #[test]
    fn a_log_without_a_sink_never_asks_for_the_plan() {
        let sinkless = QueryLog::open(None, None).unwrap();
        let digest = sinkless.plan_digest(|| -> &str { panic!("the plan was rendered") });
        assert_eq!(digest, "");
        let path =
            std::env::temp_dir().join(format!("vr_qlog_digest_{}.jsonl", std::process::id()));
        let sunk = QueryLog::open(path.to_str(), None).unwrap();
        assert_eq!(sunk.plan_digest(|| "plan"), fnv64_hex("plan"));
        drop(sunk);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_log_without_a_sink_never_renders_an_exemplar() {
        let slow = Duration::from_millis(1);
        let sinkless = QueryLog::open(None, Some(slow)).unwrap();
        let never = || -> &str { panic!("the exemplar was rendered") };
        assert_eq!(sinkless.exemplar(Duration::from_secs(1), never), None);
        let path =
            std::env::temp_dir().join(format!("vr_qlog_exemplar_{}.jsonl", std::process::id()));
        let sunk = QueryLog::open(path.to_str(), Some(slow)).unwrap();
        assert_eq!(sunk.exemplar(slow, || "plan"), Some("plan".to_string()));
        assert_eq!(sunk.exemplar(slow / 2, never), None, "under the threshold");
        drop(sunk);
        let unthresholded = QueryLog::open(path.to_str(), None).unwrap();
        assert_eq!(unthresholded.exemplar(Duration::from_secs(1), never), None);
        drop(unthresholded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64_hex("a"), format!("{:016x}", fnv64("a")));
        assert_ne!(fnv64("plan a"), fnv64("plan b"));
    }

    #[test]
    fn file_sink_writes_one_line_per_record() {
        let body = logged("sink", None, &[record(1), record(2)]);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\": 1,"));
        assert!(lines[1].contains("\"seq\": 2,"));
    }

    /// Every outcome, a degraded record, no deadline, and an exemplar
    /// on a record over the slow-query threshold.
    fn settled() -> Vec<RequestRecord> {
        let shed = RequestRecord {
            outcome: Outcome::Shed,
            shed_reason: Some(ShedReason::DeadlineExpired.label()),
            route: None,
            plan_digest: String::new(),
            ..record(2)
        };
        let slow = RequestRecord {
            tenant: "go\"ld".into(),
            priority: Priority::Low,
            degraded: true,
            route: Some("index"),
            deadline: None,
            exemplar: Some("scan: rows=7\n  wall=3ms".into()),
            ..record(3)
        };
        let cancelled = RequestRecord { outcome: Outcome::Cancelled, route: None, ..record(4) };
        let err = RequestRecord { outcome: Outcome::Err, route: None, ..record(5) };
        vec![record(1), shed, slow, cancelled, err]
    }

    #[test]
    fn parse_reads_back_what_append_wrote() {
        let body = logged("read_back", Some(Duration::from_millis(1)), &settled());
        let logged = parse(&body, "q.jsonl").unwrap();
        let expected: Vec<Logged> = (1..)
            .zip(settled())
            .map(|(seq, record)| Logged { seq, slow_us: 1000, record })
            .collect();
        assert_eq!(logged, expected);
    }

    /// One rejection for each check `parse` documents, each made by
    /// editing one field of a valid log.
    #[test]
    fn parse_refuses_each_broken_rule() {
        let good = logged("refused", Some(Duration::from_millis(1)), &settled());
        let first = good.lines().next().unwrap();
        let refused = |text: &str, why: &str| {
            let err = parse(text, "q.jsonl").unwrap_err();
            assert!(err.starts_with("q.jsonl:") && err.contains(why), "{why}: {err}");
        };
        let broken = |from: &str, to: &str| {
            assert!(good.contains(from), "{from}");
            good.replacen(from, to, 1)
        };
        refused("", "no query-log records");
        refused(&format!("{first}\n{{\"seq\": 2,"), "2: invalid JSON");
        refused(&format!("{first}\n{first}"), "2: seq 1 is not strictly increasing (previous 1)");
        refused(&broken("\"req\": 1,", "\"req\": 0,"), "1: req must be >= 1");
        refused(
            &broken("\"tenant\": \"gold\"", "\"tenant\": \"\""),
            "1: missing or empty \"tenant\"",
        );
        refused(
            &broken("\"priority\": \"high\"", "\"priority\": \"hi\""),
            "1: bad priority Some(\"hi\")",
        );
        refused(
            &broken("\"outcome\": \"ok\"", "\"outcome\": \"done\""),
            "1: unknown outcome \"done\"",
        );
        refused(
            &broken(
                "\"outcome\": \"ok\", \"shed_reason\": null",
                "\"outcome\": \"ok\", \"shed_reason\": \"quota\"",
            ),
            "1: shed_reason must be present iff outcome is shed",
        );
        refused(
            &broken("\"route\": null", "\"route\": \"rescan\""),
            "2: route must be present iff outcome is ok (outcome \"shed\")",
        );
        refused(
            &broken(
                "\"latency_us\": 3400, \"deadline_ms\": null",
                "\"latency_us\": 999, \"deadline_ms\": null",
            ),
            "3: exemplar on a record that is not slow",
        );
        refused(
            &broken("\"shed_reason\": \"deadline_expired\"", "\"shed_reason\": \"late\""),
            "2: unknown shed_reason \"late\"",
        );
        refused(
            &broken("\"route\": \"index\"", "\"route\": \"cache\""),
            "3: unknown route \"cache\"",
        );
    }
}
