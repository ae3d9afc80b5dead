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
//! * disabled at runtime (the default) — one relaxed atomic load per
//!   call site, no allocation, no lock ([`span_dyn`] takes a closure so
//!   dynamic names are never even built);
//! * enabled — events append to a global mutex-guarded buffer, capped
//!   at [`MAX_EVENTS`]: a span opened at the cap is refused whole (its
//!   `B` and `E` count as dropped in the export's footer), and a span
//!   whose `B` was buffered always buffers its `E`, so every exported
//!   span closes. The buffer can pass the cap by at most the spans open
//!   when it was reached.
//!
//! Timestamps exist **only** in exporter output: nothing downstream of
//! a query reads them, so enabling tracing cannot perturb query
//! results (`tests/cli.rs` asserts this byte-for-byte).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::{self, Fixed, Layout::Inline, Value, Writer};
use crate::sync::Mutex;

/// Default cap on buffered events (~2M); beyond it new spans are
/// counted as dropped instead of buffered. At ~100 bytes/event this
/// bounds the tracer's memory to ~200 MB worst case.
pub(crate) const MAX_EVENTS: usize = 1 << 21;

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

/// Whether tracing is live.
#[inline]
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the tracer on or off. Enabling pins the epoch on first use so
/// all timestamps share one origin.
pub fn set_enabled(on: bool) {
    if on {
        EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
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

/// Override the event cap. The cap applies to spans opened after the
/// call only; already-buffered events are never discarded.
#[cfg(test)]
fn set_event_cap(cap: usize) {
    EVENT_CAP.store(cap, Ordering::Relaxed);
}

/// Buffer a span's `B` event, or refuse the whole span when the
/// buffer is at its cap: both of its events then count as dropped (not
/// silent: the chrome-trace `otherData` footer reports them). Returns
/// whether the span was buffered.
fn record_begin(event: TraceEvent) -> bool {
    let mut events = EVENTS.lock();
    if events.len() < EVENT_CAP.load(Ordering::Relaxed) {
        events.push(event);
        true
    } else {
        DROPPED.fetch_add(2, Ordering::Relaxed);
        false
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
    let begin = TraceEvent {
        name: name.clone(),
        cat,
        phase: Phase::Begin,
        nanos: now_nanos(),
        tid,
        span: id,
        parent,
    };
    if !record_begin(begin) {
        return Span(None);
    }
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
            // dropped on another thread. It is buffered past the cap:
            // its Begin was.
            EVENTS.lock().push(TraceEvent {
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

/// Events discarded because the buffer was at its cap: two per
/// refused span.
pub(crate) fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Take every buffered event, leaving the buffer empty.
pub fn drain() -> Vec<TraceEvent> {
    std::mem::take(&mut *EVENTS.lock())
}

/// Serialize the buffered events as a chrome-trace (`trace_event`)
/// JSON document without draining them. Loadable in `chrome://tracing`
/// and Perfetto. Returns the number of events written.
///
/// The event list is neither block nor inline — one event per line at
/// column 0 — so its brackets and line ends are spliced in raw around
/// events the writer renders, and each line is handed to `out` as it
/// is finished: a full buffer is ~2M events.
pub(crate) fn write_chrome_trace(out: &mut dyn std::io::Write) -> std::io::Result<usize> {
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

/// What [`validate`] counted in a profile that passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    pub events: usize,
    /// `B` events.
    pub spans: usize,
    /// Distinct span names.
    pub names: usize,
    pub tracks: usize,
    /// Scheduler instance spans (`cat` `scheduler`, name `instance.*`).
    pub instances: usize,
}

/// One event of a profile as [`validate`] reads it.
struct Event<'a> {
    name: &'a str,
    cat: &'a str,
    begin: bool,
    ts: f64,
    tid: u64,
    index: usize,
}

fn parse_event(v: &Value, index: usize) -> Result<Event<'_>, String> {
    let text = |key: &str| v.get(key).and_then(Value::as_str);
    let num = |key: &str| v.get(key).and_then(Value::as_f64);
    let missing = |what: &str| format!("event {index}: missing {what}");
    let name =
        text("name").filter(|n| !n.is_empty()).ok_or_else(|| missing("or empty \"name\""))?;
    let cat = text("cat").ok_or_else(|| missing("\"cat\""))?;
    let begin = match text("ph").ok_or_else(|| missing("\"ph\""))? {
        "B" => true,
        "E" => false,
        other => return Err(format!("event {index}: unexpected phase {other:?}")),
    };
    let ts = num("ts")
        .filter(|t| t.is_finite() && *t >= 0.0)
        .ok_or_else(|| missing("or negative \"ts\""))?;
    num("pid").ok_or_else(|| missing("\"pid\""))?;
    let tid = num("tid").filter(|t| *t >= 0.0).ok_or_else(|| missing("\"tid\""))? as u64;
    Ok(Event { name, cat, begin, ts, tid, index })
}

/// Validate a chrome-trace profile: the reader of
/// [`write_chrome_trace`]. `source` names the document in diagnostics.
/// Checks, in order:
///
/// 1. the document parses and holds a non-empty `traceEvents` array;
/// 2. every event is well-formed: non-empty string `name`, string
///    `cat`, `ph` of `"B"` or `"E"`, numeric `ts >= 0`, numeric
///    `pid`/`tid`;
/// 3. B/E pairs balance per track: replaying each `tid`'s events in
///    file order, every `E` must close the innermost open `B` with the
///    same name, timestamps must be non-decreasing within a track, and
///    every track's stack must be empty at the end. So on each track
///    a span's children begin after it begins, end before it ends and
///    do not overlap one another: no span's self time (its duration
///    less its children's) is negative;
/// 4. every `required` span name appears as a `B` event, and at least
///    one scheduler instance span (`cat == "scheduler"`, name
///    `instance.*`) is present.
pub fn validate(text: &str, source: &str, required: &[&str]) -> Result<TraceSummary, String> {
    let doc = json::parse(text).map_err(|e| format!("{source}: invalid JSON: {e}"))?;
    let raw = doc.get("traceEvents").and_then(Value::as_array);
    let raw = raw.ok_or_else(|| format!("{source}: no \"traceEvents\" array"))?;
    if raw.is_empty() {
        return Err(format!("{source}: traceEvents is empty"));
    }
    let events: Vec<Event> =
        raw.iter().enumerate().map(|(i, v)| parse_event(v, i)).collect::<Result<_, _>>()?;

    // Per-track balance: an E must close the innermost open B of the
    // same name, and timestamps must be monotonic within the track.
    let mut tracks: BTreeMap<u64, (Vec<&Event>, f64)> = BTreeMap::new();
    for e in &events {
        let Event { name, index: i, tid, ts, .. } = *e;
        let (stack, last) = tracks.entry(tid).or_insert_with(|| (Vec::new(), 0.0));
        if ts + 1e-9 < *last {
            return Err(format!("event {i}: ts {ts} goes backwards on tid {tid} (previous {last})"));
        }
        *last = ts;
        if e.begin {
            stack.push(e);
            continue;
        }
        let closes = stack.pop().map(|open| open.name);
        if closes != Some(name) {
            return Err(match closes {
                Some(open) => format!("event {i}: E {name:?} closes B {open:?} on tid {tid}"),
                None => format!("event {i}: E {name:?} with no open span on tid {tid}"),
            });
        }
    }
    for (tid, (stack, _)) in &tracks {
        if let Some(Event { name, index, .. }) = stack.last() {
            return Err(format!("tid {tid}: span {name:?} (event {index}) never closed"));
        }
    }

    // Required span coverage.
    let begins: Vec<&Event> = events.iter().filter(|e| e.begin).collect();
    let names: BTreeSet<&str> = begins.iter().map(|e| e.name).collect();
    if let Some(want) = required.iter().find(|want| !names.contains(*want)) {
        return Err(format!("no span named {want:?} in the profile"));
    }
    let instances =
        begins.iter().filter(|e| e.cat == "scheduler" && e.name.starts_with("instance.")).count();
    if instances == 0 {
        return Err("no scheduler instance span (cat \"scheduler\", name \"instance.*\")".into());
    }
    let (events, spans, names, tracks) = (events.len(), begins.len(), names.len(), tracks.len());
    Ok(TraceSummary { events, spans, names, tracks, instances })
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracer is process-global; tests that flip it on must not
    /// interleave. (Other crates' tests never enable tracing.)
    static TEST_LOCK: Mutex<()> = Mutex::new(());

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
        assert_eq!(EVENTS.lock().len(), 0);
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
        for i in 0..4 {
            let _s = span_dyn("test", || format!("cap{i}"));
        }
        set_event_cap(MAX_EVENTS);
        set_enabled(false);
        let events = drain();
        // 4 spans produce 8 events; a cap of 4 buffers the first two
        // spans and refuses the other two whole — visibly, in the
        // counter the chrome-trace footer reports.
        assert_eq!(events.len(), 4);
        assert_eq!(dropped() - dropped_before, 4);
    }

    /// A span left open when the buffer reaches its cap still closes in
    /// the export, and spans opened at the cap are refused whole, so
    /// the writer's own file passes [`validate`].
    #[test]
    fn spans_open_across_the_cap_close_in_the_export() {
        let _guard = TEST_LOCK.lock();
        drain();
        set_enabled(true);
        set_event_cap(3);
        let dropped_before = dropped();
        {
            let _instance = span("scheduler", "instance.q1.0");
            {
                let _decode = span("pipeline", "decode");
            }
            // The buffer now holds its cap of 3 events: the kernel
            // span and its child are refused, B and E alike.
            let _kernel = span("pipeline", "kernel");
            let _inner = span("pipeline", "inner");
        }
        set_event_cap(MAX_EVENTS);
        set_enabled(false);
        let mut buf = Vec::new();
        let written = write_chrome_trace(&mut buf).unwrap();
        drain();
        // The instance's B and E, the decode span's B and E.
        assert_eq!(written, 4);
        assert_eq!(dropped() - dropped_before, 4);
        let summary = validate(&String::from_utf8(buf).unwrap(), "capped.json", &["decode"]);
        assert_eq!(summary.map(|t| (t.spans, t.instances)), Ok((2, 1)));
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

    #[test]
    fn validate_reads_what_the_exporter_wrote() {
        let json = with_tracer(|| {
            {
                let _instance = span("scheduler", "instance.q1.0");
                let _decode = span("pipeline", "decode");
                let _kernel = span("pipeline", "kernel");
            }
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _sink = span("pipeline", "sink");
                });
            });
            let mut buf = Vec::new();
            write_chrome_trace(&mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        });
        let summary = validate(&json, "t.json", &["decode", "kernel", "sink"]).unwrap();
        let expected = TraceSummary { events: 8, spans: 4, names: 4, tracks: 2, instances: 1 };
        assert_eq!(summary, expected);
    }

    /// A profile of `events`, each `(name, cat, ph, ts, tid)`.
    fn profile(events: &[(&str, &str, &str, f64, u64)]) -> String {
        let events: Vec<String> = events
            .iter()
            .map(|(name, cat, ph, ts, tid)| {
                format!(
                    "{{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"{ph}\", \"ts\": {ts}, \
                     \"pid\": 1, \"tid\": {tid}}}"
                )
            })
            .collect();
        format!("{{\"traceEvents\": [{}]}}", events.join(", "))
    }

    /// One rejection for each of `validate`'s four checks.
    #[test]
    fn validate_refuses_each_broken_rule() {
        let refused = |text: &str, required: &[&str], why: &str| {
            let err = validate(text, "t.json", required).unwrap_err();
            assert!(err.contains(why), "{why}: {err}");
        };
        let instance = [
            ("instance.q1.0", "scheduler", "B", 0.0, 1),
            ("instance.q1.0", "scheduler", "E", 9.0, 1),
        ];
        validate(&profile(&instance), "t.json", &[]).unwrap();
        // 1. a document with events.
        refused("{\"traceEvents\": []}", &[], "t.json: traceEvents is empty");
        refused("{\"events\": []}", &[], "t.json: no \"traceEvents\" array");
        // 2. well-formed events.
        refused(&profile(&[("x", "c", "X", 0.0, 1)]), &[], "event 0: unexpected phase \"X\"");
        refused(&profile(&[("x", "c", "B", -1.0, 1)]), &[], "event 0: missing or negative \"ts\"");
        // 3. balanced, monotonic tracks.
        let crossed = [instance[0], ("a", "c", "B", 1.0, 1), instance[1], ("a", "c", "E", 9.0, 1)];
        refused(&profile(&crossed), &[], "event 2: E \"instance.q1.0\" closes B \"a\" on tid 1");
        let backwards =
            [instance[0], ("a", "c", "B", 5.0, 1), ("a", "c", "E", 4.0, 1), instance[1]];
        refused(&profile(&backwards), &[], "event 2: ts 4 goes backwards on tid 1 (previous 5)");
        refused(
            &profile(&instance[..1]),
            &[],
            "tid 1: span \"instance.q1.0\" (event 0) never closed",
        );
        // 4. the required spans and a scheduler instance.
        refused(&profile(&instance), &["decode"], "no span named \"decode\" in the profile");
        refused(
            &profile(&[("a", "c", "B", 0.0, 1), ("a", "c", "E", 1.0, 1)]),
            &[],
            "no scheduler instance span",
        );
    }
}
