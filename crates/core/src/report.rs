//! Benchmark result reporting.
//!
//! "When reporting results, an evaluator must report validation
//! descriptive statistics for each query. For queries executed in
//! online mode, this should be reported in frames per second. A VDBMS
//! executing offline analytical queries should report total query
//! runtime or frames per second." (§3.2)

use std::fmt;
use std::time::Duration as WallDuration;
use vr_base::fault::DegradationSnapshot;
use vr_frame::metrics::PsnrStats;
use vr_vdbms::{PipelineSnapshot, QueryKind, StageKind};

/// Validation outcome for a query batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidationSummary {
    /// Per-frame PSNR statistics against the reference output (frame
    /// validation), aggregated over the batch.
    pub psnr: Option<PsnrStats>,
    /// Fraction of engine-reported boxes matching the reference boxes
    /// at IoU ≥ 0.5 (semantic validation, Q2c/Q2d/Q8).
    pub semantic_agreement: Option<f64>,
    /// Fraction of ground-truth-visible objects the engine reported
    /// (informational; algorithm quality is out of the benchmark's
    /// scope, §4).
    pub ground_truth_recall: Option<f64>,
    /// F1 score of the engine's boxes against scene-geometry ground
    /// truth — the figure §4 says benchmark users "could be required
    /// to publish" if algorithm selection becomes a concern.
    pub ground_truth_f1: Option<f64>,
    /// Whether the batch validates under the benchmark's thresholds.
    pub passed: bool,
}

/// Per-batch accounting from the driver's instance scheduler: how
/// many workers dispatched the batch, tail and mean per-instance
/// latency, how busy the workers were, and how many instances blew
/// the configured deadline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedulerStats {
    /// Worker threads the scheduler dispatched this batch across
    /// (1 = the sequential driver loop).
    pub workers: usize,
    /// Instances actually executed (the sequential driver stops at
    /// the first failure, so this can be < batch size).
    pub instances: usize,
    /// Slowest single instance, in nanoseconds.
    pub max_instance_nanos: u64,
    /// Mean per-instance latency, in nanoseconds.
    pub mean_instance_nanos: u64,
    /// Instances whose latency exceeded the configured per-instance
    /// deadline (0 when no deadline is set).
    pub deadline_misses: usize,
    /// Busy fraction of the worker pool over the batch's `runtime`:
    /// sum of per-instance latencies / (workers × runtime), at most 1.
    pub worker_utilization: f64,
}

impl SchedulerStats {
    /// Fold per-instance latencies of a batch that took `runtime` into
    /// batch statistics.
    pub(crate) fn from_durations(
        workers: usize,
        nanos: &[u64],
        runtime: WallDuration,
        deadline: Option<WallDuration>,
    ) -> Self {
        let deadline_nanos = deadline.map(|d| d.as_nanos() as u64);
        let busy: u64 = nanos.iter().sum();
        let capacity = workers as f64 * runtime.as_nanos().max(1) as f64;
        Self {
            workers,
            instances: nanos.len(),
            max_instance_nanos: nanos.iter().copied().max().unwrap_or(0),
            mean_instance_nanos: busy.checked_div(nanos.len() as u64).unwrap_or(0),
            deadline_misses: deadline_nanos
                .map(|d| nanos.iter().filter(|&&n| n > d).count())
                .unwrap_or(0),
            worker_utilization: (busy as f64 / capacity).min(1.0),
        }
    }
}

/// Degraded-operation accounting for one query batch under fault
/// injection (and deadline enforcement): how the system bent instead
/// of breaking. All zero / `None` on a clean run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DegradationStats {
    /// What the recovery layers absorbed during the batch: concealed
    /// frames, skipped samples and packets, I/O retries and give-ups,
    /// contained stage panics, absorbed stalls. Like the stage
    /// figures, the counts belong to the batch's own execution context
    /// (its `PipelineMetrics`): a batch running beside it at the same
    /// time counts its recoveries in its own.
    pub recovered: DegradationSnapshot,
    /// Instances cancelled (deadline or explicit token) and folded as
    /// degraded rows instead of failing the batch.
    pub cancelled_instances: u64,
    /// Instances that failed with a typed error and were folded as
    /// degraded rows (only under active faults / deadline enforcement).
    pub failed_instances: u64,
    /// Mean PSNR vs. the clean reference achieved while faults were
    /// active (`None` when faults were off or nothing was comparable).
    pub achieved_psnr_db: Option<f64>,
    /// Whether a fault plan was active during the batch.
    pub faults_active: bool,
}

impl DegradationStats {
    /// Whether any degradation occurred.
    pub(crate) fn any(&self) -> bool {
        self.recovered.any() || self.cancelled_instances > 0 || self.failed_instances > 0
    }
}

impl fmt::Display for DegradationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "concealed {} | skipped samples {} | skipped pkts {} | io retries {} \
             (gave up {}) | stage panics {} | stalls {} | cancelled {} | failed {}",
            self.recovered.concealed_frames,
            self.recovered.skipped_samples,
            self.recovered.skipped_packets,
            self.recovered.io_retries,
            self.recovered.io_give_ups,
            self.recovered.stage_panics,
            self.recovered.stalls_absorbed,
            self.cancelled_instances,
            self.failed_instances,
        )?;
        if let Some(p) = self.achieved_psnr_db {
            write!(f, " | achieved {p:.1}dB")?;
        }
        Ok(())
    }
}

/// EXPLAIN / EXPLAIN ANALYZE artifact for one query batch: the
/// engine's plan tree, annotated with per-node measurements when the
/// batch executed under `--explain-analyze`.
#[derive(Debug, Clone, Default)]
pub struct ExplainInfo {
    /// Indented plan tree (one operator per line), with a per-node
    /// measurement bracket when analyzed.
    pub text: String,
    /// The same tree as a JSON document.
    pub json: String,
    /// Failure from [`vr_vdbms::PlanNode::verify`] — the self-time /
    /// wall-time invariant or a zero-wall executed stage. `None` when
    /// the plan is consistent (or was never analyzed).
    pub verify_error: Option<String>,
}

/// Outcome of one query's batch on one engine.
#[derive(Debug, Clone)]
pub enum QueryStatus {
    /// Executed to completion.
    Completed {
        /// Wall-clock time for the whole batch.
        runtime: WallDuration,
        /// Input frames processed across the batch.
        frames: usize,
        /// Frames per second (the online-mode reporting unit).
        fps: f64,
        /// Bytes persisted (write mode) across the batch.
        bytes_written: usize,
        /// Per-operator (scan/decode/kernel/encode/sink) time, frame,
        /// byte and invocation-latency aggregates from the engine's
        /// physical pipeline.
        stages: PipelineSnapshot,
        /// Batch-scheduler accounting (workers, per-instance latency,
        /// utilization, deadline misses).
        scheduler: SchedulerStats,
        validation: ValidationSummary,
        /// Fault-tolerance accounting (all zero on a clean run).
        degradation: DegradationStats,
        /// Plan tree (EXPLAIN) / annotated plan tree (EXPLAIN
        /// ANALYZE), when requested.
        explain: Option<ExplainInfo>,
    },
    /// The engine cannot express the query (reported as N/A, like
    /// NoScope on Q3–Q10).
    Unsupported,
    /// The engine failed at runtime (like Scanner on Q4).
    Failed { error: String },
}

/// One query's report row.
#[derive(Debug, Clone)]
pub struct QueryReport {
    pub kind: QueryKind,
    /// Instances in the batch (4·L).
    pub batch_size: usize,
    pub status: QueryStatus,
}

impl QueryReport {
    /// Runtime, if completed.
    pub fn runtime(&self) -> Option<WallDuration> {
        match &self.status {
            QueryStatus::Completed { runtime, .. } => Some(*runtime),
            _ => None,
        }
    }

    /// Frames per second, if completed.
    pub fn fps(&self) -> Option<f64> {
        match &self.status {
            QueryStatus::Completed { fps, .. } => Some(*fps),
            _ => None,
        }
    }
}

/// A full benchmark run on one engine.
#[derive(Debug, Clone)]
pub struct BenchmarkReport {
    /// Engine name.
    pub engine: String,
    /// Global election: scale factor (§3.2).
    pub scale: u32,
    /// Global election: resolution.
    pub resolution: String,
    /// Global election: duration in seconds.
    pub duration_secs: f64,
    /// Global election: execution mode.
    pub mode: String,
    pub queries: Vec<QueryReport>,
}

impl BenchmarkReport {
    /// The report row for a query, if that query ran.
    pub fn query(&self, kind: QueryKind) -> Option<&QueryReport> {
        self.queries.iter().find(|q| q.kind == kind)
    }

    /// Total runtime across completed queries.
    pub fn total_runtime(&self) -> WallDuration {
        self.queries.iter().filter_map(|q| q.runtime()).sum()
    }

    /// What the completed batches recovered from, summed over rows.
    pub fn recovered(&self) -> DegradationSnapshot {
        let rows = self.queries.iter().filter_map(|q| match &q.status {
            QueryStatus::Completed { degradation, .. } => Some(degradation.recovered),
            _ => None,
        });
        rows.sum()
    }
}

impl fmt::Display for BenchmarkReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Visual Road {} — engine: {} (L={}, R={}, t={:.1}s, {})",
            crate::BENCHMARK_VERSION,
            self.engine,
            self.scale,
            self.resolution,
            self.duration_secs,
            self.mode
        )?;
        writeln!(
            f,
            "{:<7} {:>6} {:>12} {:>10} {:>9}  {}",
            "query", "batch", "runtime", "fps", "psnr", "verdict"
        )?;
        for q in &self.queries {
            match &q.status {
                QueryStatus::Completed {
                    runtime, fps, stages, scheduler, validation, degradation, explain, ..
                } => {
                    let psnr = validation
                        .psnr
                        .map(|p| format!("{:.1}dB", p.mean))
                        .unwrap_or_else(|| "-".into());
                    let verdict = if validation.passed { "PASS" } else { "CHECK" };
                    writeln!(
                        f,
                        "{:<7} {:>6} {:>11.3}s {:>10.1} {:>9}  {}",
                        q.kind.label(),
                        q.batch_size,
                        runtime.as_secs_f64(),
                        fps,
                        psnr,
                        verdict
                    )?;
                    let ms = |k: StageKind| stages.stage(k).nanos as f64 / 1e6;
                    writeln!(
                        f,
                        "        stages: decode {:.1}ms/{}fr  kernel {:.1}ms/{}fr  \
                         encode {:.1}ms/{}B  (scan {:.1}ms, sink {:.1}ms)",
                        ms(StageKind::Decode),
                        stages.stage(StageKind::Decode).frames,
                        ms(StageKind::Kernel),
                        stages.stage(StageKind::Kernel).frames,
                        ms(StageKind::Encode),
                        stages.stage(StageKind::Encode).bytes,
                        ms(StageKind::Scan),
                        ms(StageKind::Sink),
                    )?;
                    writeln!(
                        f,
                        "        sched: {} worker{} / {} instance{}  \
                         max {:.1}ms  mean {:.1}ms  {} deadline miss{}  \
                         | contention {}ns",
                        scheduler.workers,
                        if scheduler.workers == 1 { "" } else { "s" },
                        scheduler.instances,
                        if scheduler.instances == 1 { "" } else { "s" },
                        scheduler.max_instance_nanos as f64 / 1e6,
                        scheduler.mean_instance_nanos as f64 / 1e6,
                        scheduler.deadline_misses,
                        if scheduler.deadline_misses == 1 { "" } else { "es" },
                        stages.contention_nanos,
                    )?;
                    let ran = || {
                        StageKind::ALL.into_iter().filter(|&k| stages.stage(k).latency.count > 0)
                    };
                    if ran().next().is_some() {
                        write!(f, "        obs:")?;
                        for k in ran() {
                            let h = stages.stage(k).latency;
                            write!(
                                f,
                                " {} p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms ({})",
                                k.label(),
                                h.p50() as f64 / 1e6,
                                h.p95() as f64 / 1e6,
                                h.p99() as f64 / 1e6,
                                h.count,
                            )?;
                        }
                        writeln!(f, " | util {:.0}%", scheduler.worker_utilization * 100.0)?;
                    }
                    if degradation.any() || degradation.faults_active {
                        writeln!(f, "        degraded: {degradation}")?;
                    }
                    if let Some(info) = explain {
                        writeln!(f, "        plan:")?;
                        for line in info.text.lines() {
                            writeln!(f, "          {line}")?;
                        }
                        if let Some(err) = &info.verify_error {
                            writeln!(f, "          !! {err}")?;
                        }
                    }
                }
                QueryStatus::Unsupported => {
                    writeln!(
                        f,
                        "{:<7} {:>6} {:>12} {:>10} {:>9}  N/A (unsupported)",
                        q.kind.label(),
                        q.batch_size,
                        "-",
                        "-",
                        "-"
                    )?;
                }
                QueryStatus::Failed { error } => {
                    writeln!(
                        f,
                        "{:<7} {:>6} {:>12} {:>10} {:>9}  FAILED: {}",
                        q.kind.label(),
                        q.batch_size,
                        "-",
                        "-",
                        "-",
                        error
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchmarkReport {
        let decode = vr_base::obs::metrics::Histogram::new();
        for (nanos, times) in [(400_000, 200), (1_500_000, 30), (4_000_000, 10)] {
            (0..times).for_each(|_| decode.observe(nanos));
        }
        let mut stages = PipelineSnapshot::default();
        stages.stages[1].latency = decode.snapshot();
        BenchmarkReport {
            engine: "reference".into(),
            scale: 2,
            resolution: "192x108".into(),
            duration_secs: 1.0,
            mode: "offline/streaming".into(),
            queries: vec![
                QueryReport {
                    kind: QueryKind::Q1Select,
                    batch_size: 8,
                    status: QueryStatus::Completed {
                        runtime: WallDuration::from_millis(1500),
                        frames: 240,
                        fps: 160.0,
                        bytes_written: 0,
                        stages,
                        scheduler: SchedulerStats::from_durations(
                            2,
                            &[700_000_000, 800_000_000],
                            WallDuration::from_millis(1500),
                            Some(WallDuration::from_millis(750)),
                        ),
                        validation: ValidationSummary {
                            psnr: PsnrStats::from_values(&[55.0, 60.0]),
                            semantic_agreement: None,
                            ground_truth_recall: None,
                            ground_truth_f1: None,
                            passed: true,
                        },
                        degradation: DegradationStats {
                            recovered: DegradationSnapshot {
                                concealed_frames: 3,
                                skipped_samples: 2,
                                ..DegradationSnapshot::default()
                            },
                            achieved_psnr_db: Some(41.5),
                            faults_active: true,
                            ..DegradationStats::default()
                        },
                        explain: Some(ExplainInfo {
                            text: "query (Q1)\n  sink (mode=stream)\n".into(),
                            json: "{\"op\": \"query\"}".into(),
                            verify_error: Some("self-time invariant violated".into()),
                        }),
                    },
                },
                QueryReport {
                    kind: QueryKind::Q4Upsample,
                    batch_size: 8,
                    status: QueryStatus::Failed { error: "resource exhausted".into() },
                },
                QueryReport {
                    kind: QueryKind::Q9PanoramicStitching,
                    batch_size: 8,
                    status: QueryStatus::Unsupported,
                },
            ],
        }
    }

    #[test]
    fn display_renders_all_statuses() {
        let text = sample_report().to_string();
        assert!(text.contains("Q1"));
        assert!(text.contains("PASS"));
        assert!(text.contains("FAILED: resource exhausted"));
        assert!(text.contains("N/A (unsupported)"));
        assert!(text.contains("L=2"));
        assert!(text.contains("stages: decode"));
        assert!(text.contains("sched: 2 workers / 2 instances"));
        assert!(text.contains("1 deadline miss "));
        assert!(text.contains("obs: decode p50 0.50ms p95 2.00ms p99 5.00ms (240)"));
        assert!(text.contains("util 50%"));
        assert!(text.contains("degraded: concealed 3"));
        assert!(text.contains("achieved 41.5dB"));
        assert!(text.contains("plan:"));
        assert!(text.contains("          query (Q1)"));
        assert!(text.contains("!! self-time invariant violated"));
    }

    #[test]
    fn degradation_any_and_display() {
        let clean = DegradationStats::default();
        assert!(!clean.any());
        let recovered = DegradationSnapshot { io_retries: 1, ..DegradationSnapshot::default() };
        let degraded = DegradationStats { recovered, ..DegradationStats::default() };
        assert!(degraded.any());
        assert!(degraded.to_string().contains("io retries 1"));
        assert!(!degraded.to_string().contains("achieved"));
    }

    #[test]
    fn scheduler_stats_fold_durations() {
        let s = SchedulerStats::from_durations(
            4,
            &[100, 300, 200],
            WallDuration::from_nanos(300),
            Some(WallDuration::from_nanos(250)),
        );
        assert_eq!(s.workers, 4);
        assert_eq!(s.instances, 3);
        assert_eq!(s.max_instance_nanos, 300);
        assert_eq!(s.mean_instance_nanos, 200);
        assert_eq!(s.deadline_misses, 1);
        assert_eq!(s.worker_utilization, 0.5);
        assert_eq!(SchedulerStats::from_durations(1, &[], WallDuration::ZERO, None), SchedulerStats {
            workers: 1,
            ..SchedulerStats::default()
        });
    }

    #[test]
    fn accessors() {
        let r = sample_report();
        assert!(r.query(QueryKind::Q1Select).unwrap().fps().unwrap() > 100.0);
        assert!(r.query(QueryKind::Q4Upsample).unwrap().runtime().is_none());
        assert!(r.query(QueryKind::Q2aGrayscale).is_none());
        assert_eq!(r.total_runtime(), WallDuration::from_millis(1500));
    }
}
