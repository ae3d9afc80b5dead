//! Plan trees: EXPLAIN / EXPLAIN ANALYZE for the physical-operator
//! pipeline.
//!
//! Every engine describes the plan it *would* run for a query instance
//! as a [`PlanNode`] tree — operator kind, execution policy, worker
//! fan-out, and fault/retry wrappers — via [`crate::Vdbms::plan`].
//! The description is deterministic and renderable before execution
//! (`--explain`); after execution the same tree is annotated from the
//! context's [`PipelineSnapshot`] with wall time, self vs. child time,
//! frames/bytes in and out, and the allocator scopes' peak-memory
//! figures (`--explain-analyze`).
//!
//! The tree is consumer-rooted, like a database EXPLAIN: the root
//! `query` node's input is the `sink`, whose input is `encode`, and so
//! on down to the scan. Stages a policy fuses stay fused in the plan —
//! a streaming scan decodes on read, so it appears as one
//! `scan:stream` node accounted under the Decode stage, while the
//! batch engine's materialized frame table keeps a separate
//! `decode:batch` child under its `scan:memory` node.
//!
//! Invariants checked by [`PlanNode::verify`] (the CI explain leg runs
//! it on every analyzed plan):
//!
//! * summed node self-times never exceed the batch wall time at one
//!   worker (and never exceed `wall x workers` above that);
//! * a stage node that executed (`invocations > 0`) has nonzero wall
//!   time.

use crate::io::{ExecContext, ResultMode};
use crate::pipeline::{PipelineSnapshot, StageKind};
use vr_base::json::{Layout::Inline, Writer};

/// The execution policy driving a plan (one per `Pipeline::run_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// `run_eager`: materialize, data-parallel kernel, encode at end.
    Eager,
    /// `run_streaming`: one frame resident at a time.
    Streaming,
    /// `run_streaming_multi`: N synchronized streaming sources.
    StreamingMulti,
    /// `run_sequence`: whole-sequence operator over a drained scan.
    Sequence,
    /// `run_short_circuit`: a gate routes frames to cheap/full kernels.
    ShortCircuit,
    /// Semantic-index probe: answer from the ingest-time side index
    /// without decoding a single frame.
    IndexScan,
}

impl Policy {
    /// Lower-case label used in plan details.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Eager => "eager",
            Policy::Streaming => "streaming",
            Policy::StreamingMulti => "streaming-multi",
            Policy::Sequence => "sequence",
            Policy::ShortCircuit => "short-circuit",
            Policy::IndexScan => "index-scan",
        }
    }
}

/// The scan operator feeding a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOp {
    /// Forward-only streaming decode ([`crate::pipeline::StreamScan`]).
    Stream,
    /// Keyframe-seeking range decode ([`crate::pipeline::RangeScan`]).
    Range,
    /// Materialized frame-table read ([`crate::pipeline::MemoryScan`]);
    /// the batch decode that filled the table is a child node.
    Memory,
    /// N parallel streaming sources (multi-camera queries).
    Multi(usize),
    /// Side-index probe over persisted tracklet records: no decode at
    /// all, the scan reads the in-memory semantic index.
    Index,
}

/// Post-execution measurements for one plan node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Total time attributed to this node and its inputs.
    pub wall_nanos: u64,
    /// Time spent in this node itself (wall minus children).
    pub self_nanos: u64,
    /// Frames consumed from this node's inputs.
    pub frames_in: u64,
    /// Frames produced by this node.
    pub frames_out: u64,
    /// Bytes consumed from this node's inputs.
    pub bytes_in: u64,
    /// Bytes produced by this node.
    pub bytes_out: u64,
    /// Stage invocations (0 for synthetic nodes).
    pub invocations: u64,
    /// Allocations observed inside the node's measured regions.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Worst single-invocation allocation high-water mark.
    pub peak_alloc_bytes: u64,
}

/// One operator in a plan tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Operator kind, e.g. `query`, `sink`, `kernel`, `scan:stream`,
    /// `retry`.
    pub op: String,
    /// Free-form parameters: policy, worker fan-out, kernel name.
    pub detail: String,
    /// The pipeline stage whose accounting backs this node, if any.
    pub stage: Option<StageKind>,
    /// Input operators (consumer-rooted: children produce this node's
    /// input).
    pub children: Vec<PlanNode>,
    /// Filled by [`PlanNode::annotate`] after execution.
    pub stats: Option<NodeStats>,
}

impl PlanNode {
    /// A leaf/synthetic node with no stage backing.
    pub fn synthetic(op: impl Into<String>, detail: impl Into<String>) -> Self {
        Self { op: op.into(), detail: detail.into(), stage: None, children: Vec::new(), stats: None }
    }

    /// A node backed by a pipeline stage.
    pub fn stage(op: impl Into<String>, detail: impl Into<String>, stage: StageKind) -> Self {
        Self {
            op: op.into(),
            detail: detail.into(),
            stage: Some(stage),
            children: Vec::new(),
            stats: None,
        }
    }

    /// Append an input operator and return self (builder style).
    pub fn with_input(mut self, child: PlanNode) -> Self {
        self.children.push(child);
        self
    }
}

/// Everything an engine states about the plan it would run; `build`
/// turns it into the canonical tree.
#[derive(Debug, Clone)]
pub struct PlanDesc {
    /// Engine name (`reference`, `batch`, ...).
    pub engine: &'static str,
    /// Query label (`Q1`, `Q2(c)`, ...).
    pub query: &'static str,
    /// Execution policy.
    pub policy: Policy,
    /// Scan operator.
    pub scan: ScanOp,
    /// Kernel description, e.g. `crop+select`, `detect_boxes(vehicle)`.
    pub kernel: String,
    /// Short-circuit gate description, when the policy has one.
    pub gate: Option<String>,
    /// Optimizer-chosen eager fan-out. `None` (hand-tuned defaults)
    /// renders the context's worker budget, as before.
    pub fanout: Option<usize>,
}

/// Build the canonical plan tree for a description under a context.
/// Deterministic: the same description and context shape always yield
/// the same tree (the explain snapshot tests pin this per engine).
pub fn build(desc: &PlanDesc, ctx: &ExecContext) -> PlanNode {
    let workers = ctx.workers.max(1);
    let faults = vr_base::fault::global().is_some();

    // Scan: fused decode for stream/range scans, separate batch decode
    // under a materialized table.
    let scan = match desc.scan {
        ScanOp::Stream => {
            PlanNode::stage("scan:stream", "decode-on-read", StageKind::Decode)
        }
        ScanOp::Range => {
            PlanNode::stage("scan:range", "keyframe-seek decode-on-read", StageKind::Decode)
        }
        ScanOp::Memory => PlanNode::stage("scan:memory", "frame-table read", StageKind::Scan)
            .with_input(PlanNode::stage(
                "decode:batch",
                if workers > 1 {
                    format!("gop-parallel workers={workers}")
                } else {
                    "sequential".to_string()
                },
                StageKind::Decode,
            )),
        ScanOp::Multi(n) => PlanNode::stage(
            "scan:multi",
            format!("decode-on-read sources={n}"),
            StageKind::Decode,
        ),
        ScanOp::Index => PlanNode::stage(
            "scan:index",
            "semantic side-index probe (no decode)",
            StageKind::Scan,
        ),
    };
    // Decode concealment is a property of the decode path when faults
    // are injected; surface it on the scan node.
    let scan = if faults {
        let mut scan = scan;
        if !scan.detail.is_empty() {
            scan.detail.push(' ');
        }
        scan.detail.push_str("conceal=on");
        scan
    } else {
        scan
    };

    let mut kernel_detail = desc.kernel.clone();
    let fanout = desc.fanout.unwrap_or(workers);
    if desc.policy == Policy::Eager && fanout > 1 {
        kernel_detail.push_str(&format!(" fan-out={fanout}"));
    }
    if let Some(gate) = &desc.gate {
        kernel_detail.push_str(&format!(" gate={gate}"));
    }
    let kernel = PlanNode::stage("kernel", kernel_detail, StageKind::Kernel).with_input(scan);

    let encode = PlanNode::stage("encode", "constant-qp", StageKind::Encode).with_input(kernel);

    let sink_mode = match ctx.result_mode {
        ResultMode::Write { .. } => "mode=write",
        ResultMode::Streaming => "mode=stream",
    };
    let sink = PlanNode::stage("sink", sink_mode, StageKind::Sink).with_input(encode);

    // Fault-tolerant runs wrap persistence in the bounded-backoff
    // retry loop.
    let resilient = if faults {
        PlanNode::synthetic("retry", "bounded-backoff io").with_input(sink)
    } else {
        sink
    };

    PlanNode {
        op: "query".to_string(),
        detail: format!(
            "{} engine={} policy={} workers={workers}",
            desc.query,
            desc.engine,
            desc.policy.label()
        ),
        stage: None,
        children: vec![resilient],
        stats: None,
    }
}

impl PlanNode {
    /// Fill [`PlanNode::stats`] across the tree from a per-context
    /// pipeline snapshot and the measured batch wall time.
    ///
    /// Stage nodes take their stage's totals as self time; synthetic
    /// nodes aggregate their inputs; the root absorbs the remainder
    /// (`wall - children`) as its own self time — scheduler overhead,
    /// validation-excluded driver work.
    pub fn annotate(&mut self, snap: &PipelineSnapshot, wall_nanos: u64) {
        let children_self: u64 =
            self.children.iter_mut().map(|c| c.annotate_inner(snap)).sum();
        let (frames_in, bytes_in) = self.children_out();
        let (frames_out, bytes_out) = self
            .children
            .first()
            .and_then(|c| c.stats)
            .map(|s| (s.frames_out, s.bytes_out))
            .unwrap_or((0, 0));
        self.stats = Some(NodeStats {
            wall_nanos,
            self_nanos: wall_nanos.saturating_sub(children_self),
            frames_in,
            frames_out,
            bytes_in,
            bytes_out,
            invocations: 0,
            allocs: 0,
            alloc_bytes: 0,
            peak_alloc_bytes: 0,
        });
    }

    /// Annotate a non-root node; returns the subtree's summed self
    /// time.
    fn annotate_inner(&mut self, snap: &PipelineSnapshot) -> u64 {
        let children_self: u64 =
            self.children.iter_mut().map(|c| c.annotate_inner(snap)).sum();
        let children_wall: u64 =
            self.children.iter().filter_map(|c| c.stats).map(|s| s.wall_nanos).sum();
        let (frames_in, bytes_in) = self.children_out();
        let mut stats = match self.stage {
            Some(kind) => {
                let s = snap.stage(kind);
                NodeStats {
                    wall_nanos: s.nanos + children_wall,
                    self_nanos: s.nanos,
                    frames_in,
                    frames_out: s.frames,
                    bytes_in,
                    bytes_out: s.bytes,
                    invocations: s.invocations,
                    allocs: s.allocs,
                    alloc_bytes: s.alloc_bytes,
                    peak_alloc_bytes: s.peak_alloc_bytes,
                }
            }
            None => NodeStats {
                wall_nanos: children_wall,
                self_nanos: 0,
                frames_in,
                frames_out: frames_in,
                bytes_in,
                bytes_out: bytes_in,
                invocations: 0,
                allocs: 0,
                alloc_bytes: 0,
                peak_alloc_bytes: 0,
            },
        };
        // A pass-through wrapper reports its input's flow unchanged.
        if self.stage.is_none() {
            if let Some(first) = self.children.first().and_then(|c| c.stats) {
                stats.frames_out = first.frames_out;
                stats.bytes_out = first.bytes_out;
            }
        }
        self.stats = Some(stats);
        children_self + stats.self_nanos
    }

    /// Sum of the direct children's produced frames/bytes.
    fn children_out(&self) -> (u64, u64) {
        self.children
            .iter()
            .filter_map(|c| c.stats)
            .fold((0, 0), |(f, b), s| (f + s.frames_out, b + s.bytes_out))
    }

    /// Summed self time across the tree (requires annotation).
    pub fn total_self_nanos(&self) -> u64 {
        self.stats.map(|s| s.self_nanos).unwrap_or(0)
            + self.children.iter().map(|c| c.total_self_nanos()).sum::<u64>()
    }

    /// Check the analyzed plan's invariants. `workers` is the fan-out
    /// the batch ran with: at 1 worker measured work is sequential
    /// inside the wall window, so self times must sum to at most the
    /// wall time; above that the bound scales with the fan-out.
    pub fn verify(&self, wall_nanos: u64, workers: usize) -> Result<(), String> {
        if self.stats.is_none() {
            return Err("plan is not annotated".to_string());
        }
        let total_self = self.total_self_nanos();
        let bound = wall_nanos.saturating_mul(workers.max(1) as u64);
        if total_self > bound {
            return Err(format!(
                "self-time invariant violated: nodes sum to {total_self}ns > \
                 {bound}ns ({wall_nanos}ns wall x {workers} workers)"
            ));
        }
        self.verify_nodes()
    }

    fn verify_nodes(&self) -> Result<(), String> {
        if let Some(s) = self.stats {
            if s.invocations > 0 && s.wall_nanos == 0 {
                return Err(format!(
                    "stage node {} executed {} time(s) with zero wall time",
                    self.op, s.invocations
                ));
            }
        }
        for c in &self.children {
            c.verify_nodes()?;
        }
        Ok(())
    }

    /// Render as an indented text tree, one node per line. Without
    /// stats (EXPLAIN) only shapes print, so the output is fully
    /// deterministic; with stats (EXPLAIN ANALYZE) a measurement
    /// bracket is appended per node.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.op);
        if !self.detail.is_empty() {
            out.push_str(" (");
            out.push_str(&self.detail);
            out.push(')');
        }
        if let Some(s) = &self.stats {
            out.push_str(&format!(
                "  [wall={} self={} in={}fr/{}B out={}fr/{}B inv={} \
                 alloc={}x/{}B peak={}B]",
                fmt_nanos(s.wall_nanos),
                fmt_nanos(s.self_nanos),
                s.frames_in,
                s.bytes_in,
                s.frames_out,
                s.bytes_out,
                s.invocations,
                s.allocs,
                s.alloc_bytes,
                s.peak_alloc_bytes,
            ));
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }

    /// Render as a JSON document (one object per node, `children`
    /// nested, `stats` null until annotated).
    pub fn render_json(&self) -> String {
        let mut w = Writer::new();
        self.write_json(&mut w);
        w.raw("\n");
        w.finish()
    }

    fn write_json(&self, w: &mut Writer) {
        w.object(Inline).member("op", &self.op).member("detail", &self.detail);
        w.member("stage", self.stage.map(|k| k.label()));
        w.key("stats");
        if let Some(s) = &self.stats {
            w.object(Inline);
            w.member("wall_nanos", s.wall_nanos).member("self_nanos", s.self_nanos);
            w.member("frames_in", s.frames_in).member("frames_out", s.frames_out);
            w.member("bytes_in", s.bytes_in).member("bytes_out", s.bytes_out);
            w.member("invocations", s.invocations).member("allocs", s.allocs);
            w.member("alloc_bytes", s.alloc_bytes);
            w.member("peak_alloc_bytes", s.peak_alloc_bytes).end();
        } else {
            w.value(None::<u64>);
        }
        w.key("children").array(Inline);
        for c in &self.children {
            c.write_json(w);
        }
        w.end().end();
    }
}

fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use crate::io::ExecContext;
    use crate::pipeline::{PipelineMetrics, StageKind};
    use crate::query::{QueryInstance, QuerySpec, SampleContext};
    use crate::{BatchEngine, CascadeEngine, FunctionalEngine, ReferenceEngine, Vdbms};
    use vr_base::Timestamp;

    fn q1() -> QueryInstance {
        QueryInstance {
            index: 0,
            spec: QuerySpec::Q1 {
                rect: vr_geom::Rect::new(0, 0, 32, 32),
                t1: Timestamp::ZERO,
                t2: Timestamp::from_micros(500_000),
            },
            inputs: vec![0],
        }
    }

    fn q2c() -> QueryInstance {
        QueryInstance {
            index: 0,
            spec: QuerySpec::Q2c { class: vr_scene::ObjectClass::Vehicle },
            inputs: vec![0],
        }
    }

    fn ctx() -> ExecContext {
        ExecContext { workers: 1, ..ExecContext::default() }
    }

    /// Plan shape is deterministic per engine: the exact rendered tree
    /// is pinned, so any change to an engine's physical plan shows up
    /// here as a reviewable diff.
    #[test]
    fn explain_tree_snapshot_reference() {
        let plan = ReferenceEngine::new().plan(&q1(), &ctx());
        assert_eq!(
            plan.render_text(),
            "query (Q1 engine=reference policy=streaming workers=1)\n\
             \x20 sink (mode=stream)\n\
             \x20   encode (constant-qp)\n\
             \x20     kernel (crop+temporal-select)\n\
             \x20       scan:stream (decode-on-read)\n"
        );
    }

    #[test]
    fn explain_tree_snapshot_batch() {
        let plan = BatchEngine::new().plan(&q1(), &ctx());
        assert_eq!(
            plan.render_text(),
            "query (Q1 engine=batch policy=eager workers=1)\n\
             \x20 sink (mode=stream)\n\
             \x20   encode (constant-qp)\n\
             \x20     kernel (slow_float_crop)\n\
             \x20       scan:memory (frame-table read)\n\
             \x20         decode:batch (sequential)\n"
        );
    }

    #[test]
    fn explain_tree_snapshot_functional() {
        let plan = FunctionalEngine::new().plan(&q1(), &ctx());
        assert_eq!(
            plan.render_text(),
            "query (Q1 engine=functional policy=streaming workers=1)\n\
             \x20 sink (mode=stream)\n\
             \x20   encode (constant-qp)\n\
             \x20     kernel (crop)\n\
             \x20       scan:range (keyframe-seek decode-on-read)\n"
        );
    }

    #[test]
    fn explain_tree_snapshot_cascade() {
        let plan = CascadeEngine::new().plan(&q2c(), &ctx());
        assert_eq!(
            plan.render_text(),
            "query (Q2(c) engine=cascade policy=short-circuit workers=1)\n\
             \x20 sink (mode=stream)\n\
             \x20   encode (constant-qp)\n\
             \x20     kernel (detect_boxes(Vehicle) gate=frame-diff)\n\
             \x20       scan:stream (decode-on-read)\n"
        );
    }

    #[test]
    fn every_engine_produces_a_plan_for_every_supported_query() {
        let engines: Vec<Box<dyn Vdbms>> = vec![
            Box::new(ReferenceEngine::new()),
            Box::new(BatchEngine::new()),
            Box::new(FunctionalEngine::new()),
            Box::new(CascadeEngine::new()),
        ];
        let sample = SampleContext::default();
        let resolution = vr_base::Resolution { width: 128, height: 72 };
        let duration = vr_base::Duration::from_secs(1.0);
        let ctx = ctx();
        for engine in &engines {
            for kind in crate::query::QueryKind::ALL {
                if !engine.supports(kind) {
                    continue;
                }
                let mut rng = vr_base::VrRng::seed_from(7);
                let instance = QueryInstance {
                    index: 0,
                    spec: QuerySpec::sample(kind, &mut rng, resolution, duration, &sample),
                    inputs: vec![0],
                };
                let plan = engine.plan(&instance, &ctx);
                assert_eq!(plan.op, "query", "{} {kind:?}", engine.name());
                assert!(
                    plan.render_text().contains("engine="),
                    "{} {kind:?} plan lacks engine tag",
                    engine.name()
                );
                // The same call twice yields the same tree: plans are
                // deterministic descriptions, not measurements.
                assert_eq!(plan, engine.plan(&instance, &ctx));
            }
        }
    }

    #[test]
    fn annotate_fills_stats_and_verify_accepts_consistent_plans() {
        let metrics = PipelineMetrics::default();
        metrics.record(StageKind::Decode, 4_000, 8, 1_024, );
        metrics.record(StageKind::Kernel, 2_000, 8, 0);
        metrics.record(StageKind::Encode, 1_000, 8, 512);
        metrics.record(StageKind::Sink, 500, 8, 512);
        let snap = metrics.snapshot();

        let mut plan = ReferenceEngine::new().plan(&q1(), &ctx());
        plan.annotate(&snap, 10_000);
        let root = plan.stats.unwrap();
        assert_eq!(root.wall_nanos, 10_000);
        // Root self time is the unattributed remainder.
        assert_eq!(root.self_nanos, 10_000 - 7_500);
        assert_eq!(plan.total_self_nanos(), 10_000);
        plan.verify(10_000, 1).unwrap();

        // The sink node sees encode output as its input.
        let sink = &plan.children[0];
        let s = sink.stats.unwrap();
        assert_eq!(s.self_nanos, 500);
        assert_eq!(s.frames_in, 8);
        assert_eq!(s.bytes_in, 512);
        assert_eq!(s.bytes_out, 512);

        // Verify rejects a wall time smaller than the measured work.
        assert!(plan.verify(5_000, 1).is_err());
    }

    #[test]
    fn verify_flags_executed_stages_with_zero_wall() {
        let metrics = PipelineMetrics::default();
        // An invocation that recorded zero nanos: impossible on real
        // clocks, so verify treats it as a broken plan.
        metrics.record(StageKind::Kernel, 0, 1, 0);
        let snap = metrics.snapshot();
        let mut plan = ReferenceEngine::new().plan(&q1(), &ctx());
        plan.annotate(&snap, 1_000);
        let err = plan.verify(1_000, 1).unwrap_err();
        assert!(err.contains("zero wall time"), "unexpected error: {err}");
    }
}
