//! Span-based tracer with a chrome-trace (`trace_event` JSON)
//! exporter.
//!
//! A [`Span`] records a Begin event when created and an End event when
//! dropped, carrying a monotonic timestamp (nanoseconds since the
//! tracer epoch), a per-thread track id, a unique span id, and the
//! parent span id from a thread-local span stack — enough for
//! `chrome://tracing` / Perfetto to reconstruct the nesting.
//!
//! Cost model:
//!
//! * compiled out — with the `obs` feature disabled, [`enabled`] is a
//!   compile-time `false`, so every call site's span construction is
//!   dead-code-eliminated;
//! * disabled at runtime (the default) — one relaxed atomic load per
//!   call site, no allocation, no lock ([`span_dyn`] takes a closure so
//!   dynamic names are never even built);
//! * enabled — events append to a global mutex-guarded buffer, capped
//!   at [`MAX_EVENTS`] (overflow increments a drop counter rather than
//!   growing without bound).
//!
//! Timestamps exist **only** in exporter output: nothing downstream of
//! a query reads them, so enabling tracing cannot perturb query
//! results (`tests/cli.rs` asserts this byte-for-byte).

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::{Fixed, Layout::Inline, Writer};
use crate::sync::Mutex;

/// Default cap on buffered events (~2M); beyond it events are counted
/// as dropped instead of buffered. At ~100 bytes/event this bounds the
/// tracer's memory to ~200 MB worst case.
pub const MAX_EVENTS: usize = 1 << 21;

static EVENT_CAP: AtomicUsize = AtomicUsize::new(MAX_EVENTS);
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Stable per-thread track id, assigned on first span.
    static TID: Cell<u64> = const { Cell::new(0) };
    /// Open-span stack for parent links.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Begin/End phase of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span entry (`"ph": "B"`).
    Begin,
    /// Span exit (`"ph": "E"`).
    End,
}

/// One buffered trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span name (e.g. `"decode"`, `"instance.q1.3"`).
    pub name: String,
    /// Span category (e.g. `"pipeline"`, `"scheduler"`).
    pub cat: &'static str,
    /// Begin or End.
    pub phase: Phase,
    /// Nanoseconds since the tracer epoch (monotonic).
    pub nanos: u64,
    /// Track id of the recording thread.
    pub tid: u64,
    /// Unique span id.
    pub span: u64,
    /// Enclosing span id on the same thread, if any (Begin only).
    pub parent: Option<u64>,
}

/// Whether tracing is live. With the `obs` feature off this is a
/// compile-time `false` and call sites vanish entirely.
#[inline]
pub fn enabled() -> bool {
    cfg!(feature = "obs") && ENABLED.load(Ordering::Relaxed)
}

/// Turn the tracer on or off. Enabling pins the epoch on first use so
/// all timestamps share one origin. A no-op without the `obs` feature.
pub fn set_enabled(on: bool) {
    if cfg!(feature = "obs") {
        if on {
            EPOCH.get_or_init(Instant::now);
        }
        ENABLED.store(on, Ordering::Relaxed);
    }
}

fn now_nanos() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos().min(u64::MAX as u128) as u64
}

fn current_tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Override the event cap (tests and memory-constrained embedders).
/// The cap applies to future [`record`] calls only; already-buffered
/// events are never discarded.
pub fn set_event_cap(cap: usize) {
    EVENT_CAP.store(cap, Ordering::Relaxed);
}

fn record(event: TraceEvent) {
    let mut events = EVENTS.lock();
    if events.len() < EVENT_CAP.load(Ordering::Relaxed) {
        events.push(event);
    } else {
        // Not silent: the drop is visible both in the chrome-trace
        // `otherData` footer and as a registry counter on `/metrics`.
        DROPPED.fetch_add(1, Ordering::Relaxed);
        super::metrics::counter("obs.spans_dropped").inc();
    }
}

/// RAII span guard: Begin on construction, End on drop. Inert (and
/// free) when tracing is disabled.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span(Option<SpanInner>);

struct SpanInner {
    name: String,
    cat: &'static str,
    id: u64,
    tid: u64,
}

/// Open a span with a static name. The common, allocation-light call
/// site form: `let _span = trace::span("pipeline", "decode");`
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    span_dyn(cat, || name.to_string())
}

/// Open a span whose name is built lazily — the closure only runs when
/// tracing is enabled, so dynamic names (query labels, instance
/// indices) cost nothing on the disabled path.
#[inline]
pub fn span_dyn(cat: &'static str, name: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span(None);
    }
    let name = name();
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let tid = current_tid();
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    record(TraceEvent {
        name: name.clone(),
        cat,
        phase: Phase::Begin,
        nanos: now_nanos(),
        tid,
        span: id,
        parent,
    });
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    Span(Some(SpanInner { name, cat, id, tid }))
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if stack.last() == Some(&inner.id) {
                    stack.pop();
                } else {
                    // Out-of-order drop (e.g. a guard moved across a
                    // catch_unwind boundary): remove just this span.
                    stack.retain(|&id| id != inner.id);
                }
            });
            // The End event reuses the opening thread's track id so
            // B/E pairs stay balanced per track even if the guard is
            // dropped on another thread.
            record(TraceEvent {
                name: inner.name,
                cat: inner.cat,
                phase: Phase::End,
                nanos: now_nanos(),
                tid: inner.tid,
                span: inner.id,
                parent: None,
            });
        }
    }
}

/// Number of currently buffered events.
pub fn buffered() -> usize {
    EVENTS.lock().len()
}

/// Events discarded because the buffer hit [`MAX_EVENTS`].
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Take every buffered event, leaving the buffer empty.
pub fn drain() -> Vec<TraceEvent> {
    std::mem::take(&mut *EVENTS.lock())
}

/// Copy the buffered events without draining them (exporters that
/// must coexist — chrome trace and folded stacks — both read this).
pub fn events() -> Vec<TraceEvent> {
    EVENTS.lock().clone()
}

/// Serialises tests — across this crate's modules — that enable the
/// process-global tracer.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Serialize the buffered events as a chrome-trace (`trace_event`)
/// JSON document without draining them. Loadable in `chrome://tracing`
/// and Perfetto. Returns the number of events written.
///
/// The event list is neither block nor inline — one event per line at
/// column 0 — so its brackets and line ends are spliced in raw around
/// events the writer renders, and each line is handed to `out` as it
/// is finished: a full buffer is ~2M events.
pub fn write_chrome_trace(out: &mut dyn std::io::Write) -> std::io::Result<usize> {
    let events = EVENTS.lock().clone();
    let mut w = Writer::new();
    w.object(Inline).key("traceEvents").raw("[\n");
    for (i, e) in events.iter().enumerate() {
        let ph = match e.phase {
            Phase::Begin => "B",
            Phase::End => "E",
        };
        w.object(Inline).member("name", &e.name).member("cat", e.cat).member("ph", ph);
        w.member("ts", Fixed(e.nanos as f64 / 1_000.0, 3)).member("pid", 1u64);
        w.member("tid", e.tid).key("args").object(Inline).member("span", e.span);
        if let Some(parent) = e.parent {
            w.member("parent", parent);
        }
        w.end().end().raw(if i + 1 == events.len() { "\n" } else { ",\n" });
        w.flush_to(out)?;
    }
    w.raw("]").member("displayTimeUnit", "ms");
    w.key("otherData").object(Inline).member("dropped", dropped()).end().end().raw("\n");
    w.flush_to(out)?;
    Ok(events.len())
}

/// Write the chrome-trace profile to `path`; returns the event count.
pub fn save(path: &str) -> std::io::Result<usize> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    let n = write_chrome_trace(&mut out)?;
    out.flush()?;
    Ok(n)
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global; tests that flip it on must not
    // interleave — they share `super::TEST_LOCK` with the folded
    // exporter's tests. (Other crates' tests never enable tracing.)

    fn with_tracer<R>(f: impl FnOnce() -> R) -> R {
        let _guard = TEST_LOCK.lock();
        drain();
        set_enabled(true);
        let result = f();
        set_enabled(false);
        drain();
        result
    }

    #[test]
    fn spans_nest_and_balance() {
        let events = with_tracer(|| {
            {
                let _outer = span("test", "outer");
                {
                    let _inner = span("test", "inner");
                }
                let _sibling = span_dyn("test", || format!("sibling{}", 1));
            }
            drain()
        });
        assert_eq!(events.len(), 6);
        let begins: Vec<&TraceEvent> =
            events.iter().filter(|e| e.phase == Phase::Begin).collect();
        let ends: Vec<&TraceEvent> = events.iter().filter(|e| e.phase == Phase::End).collect();
        assert_eq!(begins.len(), 3);
        assert_eq!(ends.len(), 3);
        let outer = begins.iter().find(|e| e.name == "outer").unwrap();
        let inner = begins.iter().find(|e| e.name == "inner").unwrap();
        let sibling = begins.iter().find(|e| e.name == "sibling1").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.span));
        assert_eq!(sibling.parent, Some(outer.span));
        // Every Begin has a matching End with the same span id, and the
        // End's timestamp is not earlier than the Begin's.
        for b in &begins {
            let e = ends.iter().find(|e| e.span == b.span).unwrap();
            assert_eq!(e.name, b.name);
            assert_eq!(e.tid, b.tid);
            assert!(e.nanos >= b.nanos);
        }
    }

    #[test]
    fn disabled_tracer_records_nothing_and_skips_dynamic_names() {
        let _guard = TEST_LOCK.lock();
        drain();
        set_enabled(false);
        let mut built = false;
        {
            let _span = span_dyn("test", || {
                built = true;
                "never".to_string()
            });
        }
        assert!(!built, "dynamic span names must not be built while disabled");
        assert_eq!(buffered(), 0);
    }

    #[test]
    fn threads_get_distinct_track_ids_and_stay_balanced() {
        let events = with_tracer(|| {
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        let _outer = span("test", "worker");
                        let _inner = span("test", "step");
                    });
                }
            });
            drain()
        });
        assert_eq!(events.len(), 16);
        let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4);
        // Per-track stack balance: replaying each track's events must
        // push/pop cleanly and end empty.
        for tid in tids {
            let mut stack: Vec<u64> = Vec::new();
            for e in events.iter().filter(|e| e.tid == tid) {
                match e.phase {
                    Phase::Begin => stack.push(e.span),
                    Phase::End => assert_eq!(stack.pop(), Some(e.span)),
                }
            }
            assert!(stack.is_empty());
        }
    }

    #[test]
    fn event_cap_overflow_is_counted_not_silent() {
        let _guard = TEST_LOCK.lock();
        drain();
        set_enabled(true);
        set_event_cap(4);
        let dropped_before = dropped();
        let metric = crate::obs::metrics::counter("obs.spans_dropped");
        let metric_before = metric.get();
        for i in 0..4 {
            let _s = span_dyn("test", || format!("cap{i}"));
        }
        set_event_cap(MAX_EVENTS);
        set_enabled(false);
        let events = drain();
        // 4 spans produce 8 events; a cap of 4 buffers the first 4 and
        // drops the rest — visibly, in both the static counter (the
        // chrome-trace footer) and the metrics registry (`/metrics`).
        assert_eq!(events.len(), 4);
        assert_eq!(dropped() - dropped_before, 4);
        assert_eq!(metric.get() - metric_before, 4);
    }

    /// Byte for byte what the hand-rolled exporter wrote for these
    /// events (captured on the commit before `json::Writer`), and a
    /// document the strict parser accepts.
    #[test]
    fn chrome_trace_export_is_pinned() {
        const GOLDEN: &str = "{\"traceEvents\": [\n{\"name\": \"outer\", \"cat\": \"pipe\\\"line\", \"ph\": \"B\", \"ts\": 1.500, \"pid\": 1, \"tid\": 3, \"args\": {\"span\": 1}},\n{\"name\": \"in\\nner\", \"cat\": \"pipe\\\"line\", \"ph\": \"B\", \"ts\": 2000.001, \"pid\": 1, \"tid\": 3, \"args\": {\"span\": 2, \"parent\": 1}},\n{\"name\": \"in\\nner\", \"cat\": \"pipe\\\"line\", \"ph\": \"E\", \"ts\": 3000.000, \"pid\": 1, \"tid\": 3, \"args\": {\"span\": 2}},\n{\"name\": \"outer\", \"cat\": \"pipe\\\"line\", \"ph\": \"E\", \"ts\": 4000.999, \"pid\": 1, \"tid\": 3, \"args\": {\"span\": 1}}\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped\": 0}}\n";
        let _guard = TEST_LOCK.lock();
        drain();
        let event = |name: &str, phase, nanos, span, parent| TraceEvent {
            name: name.into(),
            cat: "pipe\"line",
            phase,
            nanos,
            tid: 3,
            span,
            parent,
        };
        EVENTS.lock().extend([
            event("outer", Phase::Begin, 1_500, 1, None),
            event("in\nner", Phase::Begin, 2_000_001, 2, Some(1)),
            event("in\nner", Phase::End, 3_000_000, 2, None),
            event("outer", Phase::End, 4_000_999, 1, None),
        ]);
        let mut buf = Vec::new();
        assert_eq!(write_chrome_trace(&mut buf).unwrap(), 4);
        drain();
        // The footer carries the process-wide drop counter.
        let golden = GOLDEN.replace("\"dropped\": 0", &format!("\"dropped\": {}", dropped()));
        let json = String::from_utf8(buf).unwrap();
        assert_eq!(json, golden);
        crate::json::parse(&json).unwrap();
        let mut empty = Vec::new();
        write_chrome_trace(&mut empty).unwrap();
        assert!(empty.starts_with(b"{\"traceEvents\": [\n], \"displayTimeUnit\": \"ms\", "));
    }
}
