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
//!   file order (what `trace_check --qlog` validates);
//! * `req` — the arrival-minted id threaded through admission, the
//!   optimizer, and the span tracer (`request.req-NNNNNN.<tenant>`
//!   lanes in chrome-trace); unique but not ordered in the file.
//!
//! A bounded in-memory ring of the most recent rendered lines backs
//! the live `/requests` view, so the log is inspectable even when no
//! `--qlog-out` file was configured.

use std::collections::VecDeque;
use std::io::Write;
use std::time::Duration;

use crate::admission::Priority;
use crate::json::{Layout::Inline, Writer};
use crate::sync::Mutex;

/// Most recent rendered records retained for the `/requests` view.
const RING_CAP: usize = 256;

/// Identity of one in-flight request, minted at arrival and threaded
/// through admission, planning, and execution.
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
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Cancelled => "cancelled",
            Outcome::Shed => "shed",
            Outcome::Err => "err",
        }
    }
}

/// One settled request, ready to render. `seq` is assigned by
/// [`QueryLog::append`]; everything else is filled by the server.
#[derive(Debug, Clone)]
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
pub fn fnv64(data: &str) -> u64 {
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
    ring: VecDeque<String>,
}

/// Append-only query log: an optional JSONL file plus the in-memory
/// ring behind `/requests`. One instance per server.
pub struct QueryLog {
    slow: Option<Duration>,
    inner: Mutex<Inner>,
}

impl QueryLog {
    /// Open a log. `path` is the JSONL sink (`None` = ring only);
    /// `slow` is the slow-query threshold (`None` disables exemplars).
    pub fn open(path: Option<&str>, slow: Option<Duration>) -> std::io::Result<Self> {
        let writer = match path {
            Some(p) => Some(std::io::BufWriter::new(std::fs::File::create(p)?)),
            None => None,
        };
        Ok(Self {
            slow,
            inner: Mutex::new(Inner { seq: 0, writer, ring: VecDeque::new() }),
        })
    }

    /// The configured slow-query threshold, if any.
    pub fn slow_threshold(&self) -> Option<Duration> {
        self.slow
    }

    /// Assign the next `seq`, render, and append one record. The file
    /// write is flushed per record so crash-truncated logs still end
    /// on a line boundary. Returns the assigned `seq`.
    pub fn append(&self, rec: &RequestRecord) -> u64 {
        let mut inner = self.inner.lock();
        inner.seq += 1;
        let seq = inner.seq;
        let line = self.render(seq, rec);
        if let Some(w) = inner.writer.as_mut() {
            // Log I/O must never fail a query: drop the line on error.
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
        if inner.ring.len() == RING_CAP {
            inner.ring.pop_front();
        }
        inner.ring.push_back(line);
        seq
    }

    /// Records appended so far.
    pub fn len(&self) -> u64 {
        self.inner.lock().seq
    }

    /// Whether any record has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained tail of the log as JSONL — the `/requests` view.
    pub fn recent_jsonl(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        for line in &inner.ring {
            out.push_str(line);
            out.push('\n');
        }
        out
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

    #[test]
    fn seq_is_strictly_increasing_and_ring_is_bounded() {
        let log = QueryLog::open(None, None).unwrap();
        for i in 0..(RING_CAP as u64 + 10) {
            assert_eq!(log.append(&record(i + 1)), i + 1);
        }
        let recent = log.recent_jsonl();
        let lines: Vec<&str> = recent.lines().collect();
        assert_eq!(lines.len(), RING_CAP);
        // Oldest lines were evicted; the tail keeps the newest seqs.
        assert!(lines[0].contains("\"seq\": 11,"));
        assert!(lines[RING_CAP - 1].contains(&format!("\"seq\": {},", RING_CAP as u64 + 10)));
    }

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64_hex("a"), format!("{:016x}", fnv64("a")));
        assert_ne!(fnv64("plan a"), fnv64("plan b"));
    }

    #[test]
    fn file_sink_writes_one_line_per_record() {
        let path = std::env::temp_dir()
            .join(format!("vr_qlog_test_{}.jsonl", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        {
            let log = QueryLog::open(Some(&path_s), None).unwrap();
            log.append(&record(1));
            log.append(&record(2));
        }
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\": 1,"));
        assert!(lines[1].contains("\"seq\": 2,"));
    }
}
