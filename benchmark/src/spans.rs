//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of each call into the
//! program (choosing-metrics §4): the program's internal tracer stays off
//! in both runs. A span is added once its interval is known (or opened
//! with `begin` and closed with `finish` when children must name it as
//! their parent first), so recording costs one short mutex hold after the
//! timed call returns. Synthetic
//! spans carry figures the program reported about itself (stage totals,
//! the `latency_us` token) as children of the call that produced them.

use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Operation id: spans of one pass or one request share it.
    pub op: u64,
}

/// In-memory span list, written out once when the run ends.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a measured interval.
    pub fn add(
        &self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.push(Span {
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        })
    }

    /// Open a span whose children will be recorded before it ends; it has
    /// no length until [`finish`](Self::finish) closes it.
    pub fn begin(
        &self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
    ) -> SpanId {
        self.add(name, parent, op, start, start)
    }

    /// Close a span opened with [`begin`](Self::begin).
    pub fn finish(&self, id: SpanId, end: Instant) {
        let end_ns = self.ns(end);
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")[id]
            .end_ns = end_ns;
    }

    /// Record a figure the program reported (`nanos` of work attributed
    /// to `parent`), laid out from `offset_ns` after the parent's start so
    /// sibling synthetic spans do not overlap.
    pub fn add_synthetic(
        &self,
        name: impl Into<String>,
        parent: SpanId,
        offset_ns: u64,
        nanos: u64,
    ) -> SpanId {
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking recorder");
        let (start, op) = (spans[parent].start_ns + offset_ns, spans[parent].op);
        spans.push(Span {
            name: name.into(),
            start_ns: start,
            end_ns: start + nanos,
            parent: Some(parent),
            op,
        });
        spans.len() - 1
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking recorder");
        spans.push(span);
        spans.len() - 1
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once, and a
/// child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns.min(s.end_ns)).saturating_sub(covered)
        })
        .collect()
}

/// Sum of self time per span name, largest first — the "where did the
/// time go" table a traced run prints.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, u64, usize)> {
    let mut by_name: std::collections::BTreeMap<&str, (u64, usize)> = Default::default();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = by_name.entry(&s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(n, (t, c))| (n.to_string(), t, c))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows
}

/// Render spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{}\n",
            crate::json::quote(&s.name),
            s.start_ns,
            s.end_ns,
            s.op,
            if i + 1 < spans.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10: the overlap must be counted once.
            span("b", 30, 60, Some(0)),
            // A grandchild shortens `b`, not `pass`.
            span("b.inner", 35, 45, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20, 10]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("req", 100, 200, None),
            // Reported work longer than the call that produced it (as a
            // stage total summed over two workers can be).
            span("stage", 150, 400, Some(0)),
            // Entirely outside: covers nothing.
            span("stray", 10, 50, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 250, 40]);
    }

    #[test]
    fn synthetic_children_sit_inside_their_parent() {
        let rec = Recorder::new();
        let t0 = Instant::now();
        let parent = rec.add(
            "call",
            None,
            7,
            t0,
            t0 + std::time::Duration::from_micros(100),
        );
        let a = rec.add_synthetic("decode", parent, 0, 30_000);
        let b = rec.add_synthetic("encode", parent, 30_000, 50_000);
        let spans = rec.snapshot();
        assert_eq!((spans[a].parent, spans[a].op), (Some(parent), 7));
        assert_eq!(spans[b].start_ns, spans[a].end_ns);
        assert_eq!(self_times(&spans)[parent], 20_000);
        let rows = self_time_by_name(&spans);
        assert_eq!(rows[0], ("encode".to_string(), 50_000, 1));
        assert!(to_json(&spans).contains("\"name\": \"decode\""));
    }
}
