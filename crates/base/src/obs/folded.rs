//! Collapsed-stacks ("folded") export of the span tracer's events —
//! the input format of standard flamegraph tooling
//! (`flamegraph.pl`, inferno, speedscope's folded importer).
//!
//! Each completed span contributes its **self time** (total duration
//! minus the summed durations of its direct children) to one output
//! line of the form
//!
//! ```text
//! root;child;grandchild <self-nanos>
//! ```
//!
//! where the stack is the span's ancestor chain (root first), joined
//! with `;`. Identical stacks aggregate, and lines render in sorted
//! order so the artifact is deterministic for a deterministic trace.
//!
//! The folding enforces the *self-time invariant*: spans are properly
//! nested per thread under a monotonic clock, so the children of a
//! span can never account for more time than the span itself. A trace
//! that violates this (clock skew, unbalanced guards) fails the fold
//! with a diagnostic instead of silently clamping —
//! `crates/bench/tests/obs_artifacts.rs` runs this check on a real
//! trace.

use std::collections::BTreeMap;

use super::trace::{Phase, TraceEvent};

/// Aggregated folded stacks, ready to render or save.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FoldedStacks {
    /// `stack -> summed self-time nanos`, sorted by stack string.
    pub stacks: BTreeMap<String, u64>,
    /// Spans skipped because they never closed (e.g. the buffer was
    /// exported mid-span).
    pub unclosed: usize,
}

struct OpenSpan {
    begin_nanos: u64,
    parent: Option<u64>,
    /// Sum of direct children's total durations.
    child_nanos: u64,
}

/// Fold a buffered event stream into collapsed stacks.
///
/// Returns `Err` when a span's children outlast the span itself (the
/// self-time invariant) or when the stream is structurally broken (an
/// End without a matching Begin).
pub(crate) fn fold(events: &[TraceEvent]) -> Result<FoldedStacks, String> {
    // Open spans by span id. Events arrive in buffer order, which is
    // begin-before-end per span; parent links let the stack be
    // reconstructed without relying on per-thread ordering.
    let mut open: BTreeMap<u64, OpenSpan> = BTreeMap::new();
    // Closed ancestors may still be needed for stack strings of spans
    // that close later (a child guard outliving its parent's buffer
    // entry is impossible for RAII guards, but names are kept for the
    // whole fold anyway — ids are unique per trace).
    let mut names: BTreeMap<u64, (String, Option<u64>)> = BTreeMap::new();
    let mut out = FoldedStacks::default();

    for e in events {
        match e.phase {
            Phase::Begin => {
                names.insert(e.span, (e.name.clone(), e.parent));
                open.insert(
                    e.span,
                    OpenSpan { begin_nanos: e.nanos, parent: e.parent, child_nanos: 0 },
                );
            }
            Phase::End => {
                let span = open
                    .remove(&e.span)
                    .ok_or_else(|| format!("span {} ({:?}) ends without a begin", e.span, e.name))?;
                let total = e.nanos.saturating_sub(span.begin_nanos);
                if span.child_nanos > total {
                    return Err(format!(
                        "self-time invariant violated: span {} ({:?}) ran {}ns but its \
                         children sum to {}ns",
                        e.span, e.name, total, span.child_nanos
                    ));
                }
                let self_nanos = total - span.child_nanos;
                if let Some(parent) = span.parent {
                    if let Some(p) = open.get_mut(&parent) {
                        p.child_nanos += total;
                    }
                }
                let stack = stack_string(&e.name, span.parent, &names);
                *out.stacks.entry(stack).or_insert(0) += self_nanos;
            }
        }
    }
    out.unclosed = open.len();
    Ok(out)
}

/// Build `root;...;name` from the parent chain.
fn stack_string(
    name: &str,
    mut parent: Option<u64>,
    names: &BTreeMap<u64, (String, Option<u64>)>,
) -> String {
    let mut chain: Vec<&str> = vec![name];
    while let Some(id) = parent {
        match names.get(&id) {
            Some((n, p)) => {
                chain.push(n);
                parent = *p;
            }
            None => break,
        }
    }
    chain.reverse();
    chain.join(";")
}

impl FoldedStacks {
    /// Render as `stack count` lines, one per aggregated stack, sorted.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        for (stack, nanos) in &self.stacks {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&nanos.to_string());
            out.push('\n');
        }
        out
    }
}

/// Fold the currently buffered trace events (without draining them)
/// and write the collapsed stacks to `path`. Returns the number of
/// distinct stacks written.
pub fn save(path: &str) -> Result<usize, String> {
    let folded = fold(&super::trace::events())?;
    std::fs::write(path, folded.render()).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(folded.stacks.len())
}

/// Validate a collapsed-stacks file: the reader of
/// [`FoldedStacks::render`]. `source` names the file in diagnostics.
/// The file must hold a stack, and every non-empty line must be
/// `frame;frame;... <nanos>`: no empty frame, and a count that is a
/// non-negative integer. Returns the number of stacks.
pub fn validate(text: &str, source: &str) -> Result<usize, String> {
    let mut lines = 0;
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
        let at = |msg: String| format!("{source}:{}: {msg}", i + 1);
        let split = line.rsplit_once(' ');
        let (stack, count) = split.ok_or_else(|| at("no \"stack count\" separator".into()))?;
        if stack.is_empty() || stack.split(';').any(str::is_empty) {
            return Err(at(format!("empty frame in stack {stack:?}")));
        }
        let bad_count = |_| at(format!("count {count:?} is not a non-negative integer"));
        count.parse::<u64>().map_err(bad_count)?;
        lines += 1;
    }
    if lines == 0 {
        return Err(format!("{source}: no folded stacks"));
    }
    Ok(lines)
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, phase: Phase, nanos: u64, span: u64, parent: Option<u64>) -> TraceEvent {
        TraceEvent { name: name.to_string(), cat: "test", phase, nanos, tid: 1, span, parent }
    }

    #[test]
    fn folds_nested_spans_into_self_time_stacks() {
        // outer [0, 100] containing inner [10, 40]: outer self = 70.
        let events = vec![
            ev("outer", Phase::Begin, 0, 1, None),
            ev("inner", Phase::Begin, 10, 2, Some(1)),
            ev("inner", Phase::End, 40, 2, None),
            ev("outer", Phase::End, 100, 1, None),
        ];
        let folded = fold(&events).unwrap();
        assert_eq!(folded.stacks.get("outer"), Some(&70));
        assert_eq!(folded.stacks.get("outer;inner"), Some(&30));
        assert_eq!(folded.unclosed, 0);
        let rendered = folded.render();
        assert_eq!(rendered, "outer 70\nouter;inner 30\n");
    }

    #[test]
    fn identical_stacks_aggregate() {
        let events = vec![
            ev("root", Phase::Begin, 0, 1, None),
            ev("step", Phase::Begin, 0, 2, Some(1)),
            ev("step", Phase::End, 10, 2, None),
            ev("step", Phase::Begin, 20, 3, Some(1)),
            ev("step", Phase::End, 50, 3, None),
            ev("root", Phase::End, 60, 1, None),
        ];
        let folded = fold(&events).unwrap();
        assert_eq!(folded.stacks.get("root;step"), Some(&40));
        assert_eq!(folded.stacks.get("root"), Some(&20));
    }

    #[test]
    fn self_time_is_never_negative_on_real_traces() {
        // Fold a real trace produced by the span tracer and assert the
        // invariant held (fold errors exactly when a computed self
        // time would go negative).
        use crate::obs::trace;
        let events = {
            let _guard = trace::TEST_LOCK.lock();
            trace::drain();
            trace::set_enabled(true);
            {
                let _a = trace::span("test", "folded_root");
                for _ in 0..3 {
                    let _b = trace::span("test", "folded_leaf");
                    std::hint::black_box(0u64);
                }
            }
            trace::set_enabled(false);
            trace::drain()
        };
        let folded = fold(&events).expect("self-time invariant must hold on tracer output");
        assert!(folded.stacks.contains_key("folded_root;folded_leaf"));
        let root_total: u64 = folded
            .stacks
            .iter()
            .filter(|(k, _)| k.starts_with("folded_root"))
            .map(|(_, v)| v)
            .sum();
        // Summed self times reconstruct the root span's total.
        assert!(root_total > 0);
    }

    #[test]
    fn child_outlasting_parent_fails_the_invariant() {
        let events = vec![
            ev("outer", Phase::Begin, 0, 1, None),
            ev("inner", Phase::Begin, 10, 2, Some(1)),
            ev("inner", Phase::End, 120, 2, None),
            ev("outer", Phase::End, 100, 1, None),
        ];
        let err = fold(&events).unwrap_err();
        assert!(err.contains("self-time invariant"), "unexpected error: {err}");
    }

    #[test]
    fn unclosed_spans_are_counted_not_folded() {
        let events = vec![
            ev("done", Phase::Begin, 0, 1, None),
            ev("done", Phase::End, 10, 1, None),
            ev("open", Phase::Begin, 5, 2, None),
        ];
        let folded = fold(&events).unwrap();
        assert_eq!(folded.unclosed, 1);
        assert_eq!(folded.stacks.len(), 1);
    }

    #[test]
    fn validate_reads_what_render_wrote() {
        let events = vec![
            ev("outer", Phase::Begin, 0, 1, None),
            ev("inner", Phase::Begin, 10, 2, Some(1)),
            ev("inner", Phase::End, 40, 2, None),
            ev("outer", Phase::End, 100, 1, None),
        ];
        assert_eq!(validate(&fold(&events).unwrap().render(), "f.txt"), Ok(2));
    }

    /// One rejection for each of `validate`'s two checks.
    #[test]
    fn validate_refuses_each_broken_rule() {
        let refused = |text: &str, why: &str| {
            let err = validate(text, "f.txt").unwrap_err();
            assert!(err.contains(why), "{why}: {err}");
        };
        refused("\n\n", "f.txt: no folded stacks");
        refused("a;b 7\na;;b 3\n", "f.txt:2: empty frame in stack \"a;;b\"");
        refused("a;b 7\na;b\n", "f.txt:2: no \"stack count\" separator");
        refused("a;b -7\n", "f.txt:1: count \"-7\" is not a non-negative integer");
    }
}
