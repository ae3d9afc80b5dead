//! The Visual City Driver (§3.2).
//!
//! Responsible for "reading the input videos, exposing encoded video
//! data to a VDBMS, submitting queries to the VDBMS being measured,
//! and evaluating the correctness of a VDBMS's query results":
//!
//! * builds a **query batch** of 4·L instances per query, drawing
//!   free parameters uniformly from the Table 3 domains;
//! * in **online mode**, streams each input through an RTP
//!   packetizer throttled to the camera's capture rate before the
//!   engine may consume it;
//! * in **write mode**, engines persist results (persistence time is
//!   measured); **streaming mode** discards them;
//! * validates results by **frame validation** (per-frame PSNR ≥ 40 dB
//!   against the reference implementation) or **semantic validation**
//!   (Q2(c): boxes against the reference boxes at the PASCAL VOC
//!   ε = 0.5 threshold, with ground-truth recall reported
//!   informationally).

use crate::dataset::Dataset;
use crate::report::{
    BenchmarkReport, DegradationStats, ExplainInfo, QueryReport, QueryStatus, SchedulerStats,
    ValidationSummary,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vr_base::obs::{metrics, trace};
use vr_base::rng::mix64;
use vr_base::sync::{panic_message, run_jobs, stage_panic, CancelToken};
use vr_base::{fault, BufSlice, Error, Resolution, Result, VrRng};
use vr_codec::{Decoder, EncodedVideo};
use vr_frame::metrics::{psnr_y, PsnrStats, VALIDATION_THRESHOLD_DB};
use vr_scene::groundtruth::frame_truth;
use vr_storage::rtp::{RtpDepacketizer, RtpPacketizer};
use vr_storage::{FlatStore, Pacer};
use vr_vdbms::query::{QueryInstance, QuerySpec};
use vr_vdbms::reference::execute_reference;
use vr_vdbms::{
    CalibrationProfile, ExecContext, InputVideo, Optimizer, OptimizerMode, PipelineSnapshot,
    PlanNode, QueryKind, QueryOutput, ResultMode, Vdbms, Workload,
};

/// Minimum fraction of engine boxes that must match the reference boxes
/// within ε = 0.5 for semantic validation to pass. 0.7 leaves headroom
/// for cascade-style engines that reuse previous detections on static
/// frames (an accuracy trade the paper's NoScope makes too).
const SEMANTIC_THRESHOLD: f64 = 0.7;

/// Offline (random file access) vs online (rate-throttled forward-only
/// streams) execution (§3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecutionMode {
    Offline,
    /// Online with a time-compression factor: `speedup` = 1.0 streams
    /// at faithful real time; larger values compress the wait
    /// proportionally (reported with results).
    Online { speedup: f64 },
}

/// How much plan-tree detail the driver attaches to each query row.
/// The shape alone, without executing, is [`Vcd::explain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExplainMode {
    /// No plan trees.
    #[default]
    Off,
    /// Attach the plan annotated with wall/self time, frame/byte flow,
    /// and allocator scopes after the batch runs (EXPLAIN ANALYZE).
    Analyze,
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct VcdConfig {
    pub mode: ExecutionMode,
    /// `Some(store)` = write mode; `None` = streaming mode.
    pub write_store: Option<FlatStore>,
    /// Whether to validate results against the reference
    /// implementation (validation runs outside the measured window).
    pub validate: bool,
    /// Override the 4·L batch size (for scaled-down runs; reported).
    pub batch_size: Option<usize>,
    /// Whether to quiesce the engine between query batches ("a VDBMS
    /// … may optionally quiesce or restart upon completing a batch",
    /// §3.2). Quiescing releases pooled resources (the functional
    /// engine's device memory) but also drops caches (the batch
    /// engine's frame table) — the scale-factor experiments run
    /// without it to expose cross-batch caching behaviour.
    pub quiesce_between_batches: bool,
    /// Worker budget handed to each engine's pipelined executor via
    /// [`ExecContext::workers`]. `None` defers to `VR_WORKERS` / the
    /// machine's parallelism; `Some(1)` forces every engine down its
    /// sequential path.
    pub pipeline_workers: Option<usize>,
    /// Worker threads the driver dispatches one batch's instances
    /// across. `None` defers to `VR_WORKERS` / the machine's
    /// parallelism; `Some(1)` is the classic sequential driver loop
    /// (which also aborts the batch at the first failing instance).
    pub batch_workers: Option<usize>,
    /// Per-instance latency deadline. Instances that exceed it are
    /// counted in [`SchedulerStats::deadline_misses`] AND enforced:
    /// the scheduler arms each instance's [`CancelToken`] with this
    /// deadline, the pipeline unwinds with
    /// [`Error::Cancelled`](vr_base::Error::Cancelled) at the next
    /// frame boundary, and the instance is folded into the report as a
    /// degraded row ([`DegradationStats::cancelled_instances`])
    /// instead of blocking or failing the batch.
    pub instance_deadline: Option<Duration>,
    /// Plan-tree reporting: off, or EXPLAIN ANALYZE (annotated
    /// post-execution).
    pub explain: ExplainMode,
    /// Cost-based optimizer switch: `Off` keeps every engine's
    /// hand-tuned plan choices; `On` installs an
    /// [`Optimizer`] in each query's [`ExecContext`] so engines pick
    /// the cheapest candidate plan.
    pub optimizer: OptimizerMode,
    /// Calibration profile the optimizer scores with; `None` seeds
    /// from [`CalibrationProfile::builtin`].
    pub profile: Option<CalibrationProfile>,
}

impl Default for VcdConfig {
    fn default() -> Self {
        Self {
            mode: ExecutionMode::Offline,
            write_store: None,
            validate: true,
            batch_size: None,
            quiesce_between_batches: true,
            pipeline_workers: None,
            batch_workers: None,
            instance_deadline: None,
            explain: ExplainMode::Off,
            optimizer: OptimizerMode::Off,
            profile: None,
        }
    }
}

/// The driver, bound to a dataset.
pub struct Vcd<'d> {
    dataset: &'d Dataset,
    cfg: VcdConfig,
    /// Shared cost-based optimizer (present when the config enables
    /// it); one instance per driver, so each plan decision is made
    /// once and reused across that driver's batches.
    optimizer: Option<Arc<Optimizer>>,
}

/// One instance's slot after dispatch: its result and latency in
/// nanoseconds.
type Slot = (Result<QueryOutput>, u64);

/// What the fold of a batch's slots keeps for the report.
#[derive(Default)]
struct Folded<'b> {
    /// Instances that produced an output, in submission order.
    completed: Vec<(&'b QueryInstance, QueryOutput)>,
    /// Input frames of the completed instances.
    frames: usize,
    /// Bytes persisted by the completed instances (write mode).
    bytes_written: usize,
    /// Latency of every instance that ran, in submission order.
    latencies: Vec<u64>,
    cancelled_instances: u64,
    failed_instances: u64,
}

impl<'d> Vcd<'d> {
    /// Bind a driver to a dataset.
    pub fn new(dataset: &'d Dataset, cfg: VcdConfig) -> Self {
        let optimizer = cfg.optimizer.enabled().then(|| {
            let profile = cfg.profile.clone().unwrap_or_else(CalibrationProfile::builtin);
            let res = dataset.hyper.resolution;
            let frames = dataset.hyper.duration.frames(vr_base::FrameRate::STANDARD).max(1);
            Arc::new(Optimizer::new(profile).with_workload(Workload {
                width: res.width,
                height: res.height,
                frames,
            }))
        });
        Self { dataset, cfg, optimizer }
    }

    /// The driver's optimizer, when the config enabled one: its
    /// decision tables can be read off it after a run.
    pub fn optimizer(&self) -> Option<&Arc<Optimizer>> {
        self.optimizer.as_ref()
    }

    /// Build the query batch for one query kind: `4L` instances (or
    /// the configured override), parameters drawn uniformly, inputs
    /// chosen per query semantics.
    pub fn batch(&self, kind: QueryKind) -> Result<Vec<QueryInstance>> {
        let size = self.cfg.batch_size.unwrap_or(self.dataset.hyper.batch_size());
        if size == 0 {
            return Err(Error::InvalidConfig("a query batch needs at least one instance".into()));
        }
        let mut rng = VrRng::seed_from(mix64(self.dataset.hyper.seed, kind as u64 + 0xBA7C));
        let ctx = self.dataset.sample_context();
        let traffic = self.dataset.traffic_indices();
        let rigs = crate::dataset::rig_faces(&self.dataset.meta);
        let panoramas = self.dataset.panorama_indices();
        let res = self.dataset.hyper.resolution;
        let dur = self.dataset.hyper.duration;

        let mut instances = Vec::with_capacity(size);
        for index in 0..size {
            let (spec, inputs) = match kind {
                QueryKind::Q9PanoramicStitching => {
                    if rigs.is_empty() {
                        return Err(vr_base::Error::InvalidConfig(
                            "dataset has no complete panoramic rigs".into(),
                        ));
                    }
                    let r = rng.range(0, rigs.len() - 1);
                    let spec = QuerySpec::Q9 {
                        faces: ctx.rigs[r],
                        output: Resolution::new(res.width * 2, res.width),
                    };
                    (spec, rigs[r].1.to_vec())
                }
                QueryKind::Q10TileEncoding => {
                    if panoramas.is_empty() {
                        return Err(vr_base::Error::InvalidConfig(
                            "dataset was generated without 360° panoramas".into(),
                        ));
                    }
                    let p = *rng.choose(&panoramas);
                    let pano_res = {
                        let info = self.dataset.videos[p].video_info()?;
                        Resolution::new(info.width, info.height)
                    };
                    let spec = QuerySpec::sample(kind, &mut rng, pano_res, dur, &ctx);
                    (spec, vec![p])
                }
                QueryKind::Q8VehicleTracking => {
                    let spec = QuerySpec::sample(kind, &mut rng, res, dur, &ctx);
                    (spec, traffic.clone())
                }
                _ => {
                    let spec = QuerySpec::sample(kind, &mut rng, res, dur, &ctx);
                    let input = *rng.choose(&traffic);
                    (spec, vec![input])
                }
            };
            instances.push(QueryInstance { index, spec, inputs });
        }
        Ok(instances)
    }

    /// Run a set of queries on an engine and report.
    pub fn run_queries(
        &self,
        engine: &mut dyn Vdbms,
        kinds: &[QueryKind],
    ) -> Result<BenchmarkReport> {
        let mut queries = Vec::with_capacity(kinds.len());
        for &kind in kinds {
            queries.push(self.run_one(engine, kind)?);
            if self.cfg.quiesce_between_batches {
                engine.quiesce();
            }
        }
        Ok(BenchmarkReport {
            engine: engine.name().to_string(),
            scale: self.dataset.hyper.scale,
            resolution: self.dataset.hyper.resolution.to_string(),
            duration_secs: self.dataset.hyper.duration.as_secs_f64(),
            mode: format!(
                "{}/{}",
                match self.cfg.mode {
                    ExecutionMode::Offline => "offline".to_string(),
                    ExecutionMode::Online { speedup } => format!("online(x{speedup})"),
                },
                if self.cfg.write_store.is_some() { "write" } else { "streaming" }
            ),
            queries,
        })
    }

    /// Run every benchmark query in submission order.
    pub fn run_full_benchmark(&self, engine: &mut dyn Vdbms) -> Result<BenchmarkReport> {
        self.run_queries(engine, &QueryKind::ALL)
    }

    /// EXPLAIN without execution: the plan tree the engine would run
    /// for each query's batch, rendered as text. Unsupported queries
    /// report as such instead of erroring, mirroring the N/A report
    /// rows.
    pub fn explain(
        &self,
        engine: &dyn Vdbms,
        kinds: &[QueryKind],
    ) -> Result<Vec<(QueryKind, String)>> {
        let mut out = Vec::with_capacity(kinds.len());
        for &kind in kinds {
            if !engine.supports(kind) {
                out.push((kind, "unsupported\n".to_string()));
                continue;
            }
            let batch = self.batch(kind)?;
            let ctx = self.exec_context(kind);
            let mut text = engine.plan(&batch[0], &ctx).render_text();
            // Planning above consulted (and cached) the optimizer's
            // decision; surface the chosen-vs-rejected table with it.
            if let Some(decision) = self
                .optimizer
                .as_ref()
                .and_then(|opt| opt.decision(&engine.plan_key(&batch[0])))
            {
                text.push_str(&decision.render_text());
            }
            out.push((kind, text));
        }
        Ok(out)
    }

    fn exec_context(&self, kind: QueryKind) -> ExecContext {
        ExecContext {
            result_mode: match &self.cfg.write_store {
                Some(store) => ResultMode::Write {
                    store: store.clone(),
                    prefix: kind.short_label().to_string(),
                },
                None => ResultMode::Streaming,
            },
            workers: self
                .cfg
                .pipeline_workers
                .unwrap_or_else(vr_base::sync::worker_budget)
                .max(1),
            query_label: kind.short_label().to_string(),
            optimizer: self.optimizer.clone(),
            ..ExecContext::default()
        }
    }

    /// Per-instance context: same shared metrics/result mode, but a
    /// fresh cancellation token armed with the configured deadline so
    /// one straggler's cancellation never leaks into its neighbours.
    /// The instance's identity rides along as the request id, so the
    /// pipeline's request-lane spans attribute batch work per instance
    /// exactly like the server attributes it per request.
    fn instance_context(&self, ctx: &ExecContext, index: usize) -> ExecContext {
        let mut ictx = ctx.clone();
        let deadline = self.cfg.instance_deadline.map(|d| Instant::now() + d);
        ictx.cancel = deadline.map_or_else(CancelToken::new, CancelToken::with_deadline);
        ictx.request_id = Some(Arc::from(format!("instance.{}.{index}", ctx.query_label)));
        ictx
    }

    /// Whether the driver folds failing/cancelled instances into the
    /// report as degraded rows instead of failing the whole batch:
    /// on when a fault plan is active (chaos runs must always
    /// terminate with an accurate report) or when a deadline is being
    /// enforced. Off by default, preserving the classic semantics
    /// where the first failing instance decides the batch.
    fn degrade_mode(&self) -> bool {
        fault::active() || self.cfg.instance_deadline.is_some()
    }

    /// Execute one query's batch on the engine; measure and validate.
    fn run_one(&self, engine: &mut dyn Vdbms, kind: QueryKind) -> Result<QueryReport> {
        let batch = self.batch(kind)?;
        let batch_size = batch.len();
        if !engine.supports(kind) {
            return Ok(QueryReport { kind, batch_size, status: QueryStatus::Unsupported });
        }
        let ctx = self.exec_context(kind);
        // Plan description for the batch: built before the measured
        // window opens, so describing the plan never perturbs the
        // measurement. Instances of one batch share a plan shape — the
        // first instance stands for all of them. With the optimizer
        // enabled the plan is always built here even without EXPLAIN:
        // planning is what caches the cost-based decision that both
        // the scheduler below and the engine's `execute` consult.
        let analyze = self.cfg.explain == ExplainMode::Analyze;
        let plan = (analyze || self.optimizer.is_some()).then(|| engine.plan(&batch[0], &ctx));
        let plan_key = engine.plan_key(&batch[0]);
        let budget = self
            .cfg
            .batch_workers
            .unwrap_or_else(vr_base::sync::worker_budget)
            .clamp(1, batch.len().max(1));
        // Scheduler fan-out: with the optimizer on, the batch-level
        // worker count comes from the cost model's break-even check
        // (an instance estimated cheaper than a few thread spawns — or
        // a single-core host — gains nothing from fanning out);
        // otherwise the hand-tuned budget stands.
        let workers = match &self.optimizer {
            Some(opt) => {
                let est = opt
                    .decision(&plan_key)
                    .map(|d| d.chosen.est_nanos)
                    .unwrap_or(u64::MAX);
                opt.batch_fanout(budget, batch.len(), est)
            }
            None => budget,
        };
        let batch_span = trace::span_dyn("vcd", || format!("batch.{}", kind.label()));
        let deg_before = fault::degradation_snapshot();
        let start = Instant::now();
        engine.prepare_batch(&batch, &self.dataset.videos, &ctx);
        // `prepare_batch` needed the exclusive reference; dispatch
        // shares the engine across scheduler workers.
        let engine: &dyn Vdbms = engine;
        let slots = match self.dispatch(engine, &batch, &ctx, workers) {
            Ok(slots) => slots,
            Err(e) => {
                let status = QueryStatus::Failed { error: e.to_string() };
                return Ok(QueryReport { kind, batch_size, status });
            }
        };
        let runtime = start.elapsed();
        let recovered = fault::degradation_snapshot().since(&deg_before);
        drop(batch_span);

        let folded = self.fold(slots, &batch, &ctx);
        let fps = folded.frames as f64 / runtime.as_secs_f64().max(1e-9);
        // Everything the engine's pipeline recorded over the batch;
        // validation below runs under its own context.
        let stages = ctx.metrics.snapshot();
        let latencies = &folded.latencies;
        let scheduler =
            SchedulerStats::from_durations(workers, latencies, runtime, self.cfg.instance_deadline);
        let fan_out = ctx.workers.max(1) * workers;
        let mean = scheduler.mean_instance_nanos;
        let explain = plan
            .filter(|_| analyze)
            .map(|plan| self.explain_info(plan, &plan_key, &stages, runtime, fan_out, mean));
        metrics::gauge("scheduler.worker_utilization").set(scheduler.worker_utilization);
        metrics::gauge("scheduler.workers").set(workers as f64);

        let validation = if self.cfg.validate {
            // Validation (reference runs + PSNR) happens outside the
            // measured window AND outside the fault plan: injecting
            // faults into the correctness oracle would make every
            // verdict meaningless.
            let _span = trace::span("vcd", "validate");
            fault::suppress(|| self.validate_batch(&folded.completed))?
        } else {
            ValidationSummary { passed: true, ..Default::default() }
        };

        let faults_active = fault::active();
        let degradation = DegradationStats {
            recovered,
            cancelled_instances: folded.cancelled_instances,
            failed_instances: folded.failed_instances,
            achieved_psnr_db: if faults_active {
                validation.psnr.map(|p| p.mean)
            } else {
                None
            },
            faults_active,
        };

        Ok(QueryReport {
            kind,
            batch_size,
            status: QueryStatus::Completed {
                runtime,
                frames: folded.frames,
                fps,
                bytes_written: folded.bytes_written,
                stages,
                scheduler,
                validation,
                degradation,
                explain,
            },
        })
    }

    /// Fold the per-instance slots in submission order. A failed slot
    /// exists only in degrade mode (faults active or a deadline
    /// enforced): cancelled/failed instances become degraded rows and
    /// the batch completes with the surviving outputs.
    fn fold<'b>(
        &self,
        slots: Vec<Slot>,
        batch: &'b [QueryInstance],
        ctx: &ExecContext,
    ) -> Folded<'b> {
        let mut folded = Folded::default();
        for ((result, nanos), instance) in slots.into_iter().zip(batch) {
            folded.latencies.push(nanos);
            match result {
                Ok(out) => {
                    for &i in &instance.inputs {
                        folded.frames += self.dataset.videos[i].frame_count();
                    }
                    folded.bytes_written += match &ctx.result_mode {
                        ResultMode::Write { .. } => out.size_bytes(),
                        ResultMode::Streaming => 0,
                    };
                    folded.completed.push((instance, out));
                }
                Err(Error::Cancelled(_)) => folded.cancelled_instances += 1,
                Err(_) => folded.failed_instances += 1,
            }
        }
        folded
    }

    /// The EXPLAIN ANALYZE artifact of a finished batch: the plan
    /// annotated with the batch's stage snapshot and verified against
    /// its wall time; with the optimizer on, its chosen-vs-rejected
    /// table follows and the estimate is confronted with the batch's
    /// mean per-instance latency.
    fn explain_info(
        &self,
        mut plan: PlanNode,
        plan_key: &str,
        stages: &PipelineSnapshot,
        runtime: Duration,
        fan_out: usize,
        mean_instance_nanos: u64,
    ) -> ExplainInfo {
        plan.annotate(stages, runtime.as_nanos() as u64);
        // Measured stage work may legitimately exceed wall time when
        // pipeline stages and scheduler workers overlap; the invariant
        // bound scales with the total fan-out.
        let verify_error = plan.verify(runtime.as_nanos() as u64, fan_out).err();
        let mut text = plan.render_text();
        if let Some(opt) = &self.optimizer {
            if let Some(decision) = opt.decision(plan_key) {
                text.push_str(&decision.render_text());
                if mean_instance_nanos > 0 {
                    let (est, measured) = (decision.chosen.est_nanos, mean_instance_nanos);
                    let err = (est as f64 - measured as f64).abs() / measured as f64 * 100.0;
                    text.push_str(&format!(
                        "optimizer: est {} vs measured {} per instance (error {err:.1}%)\n",
                        vr_vdbms::cost::fmt_cost(est),
                        vr_vdbms::cost::fmt_cost(measured),
                    ));
                }
            }
        }
        ExplainInfo { text, json: plan.render_json(), verify_error }
    }

    /// Run one batch's instances on `workers` scheduler workers
    /// ([`run_jobs`]) and return one slot per instance: its result plus
    /// its latency in nanoseconds.
    ///
    /// Each instance is one job: open its span, start its clock, pace
    /// its inputs through RTP when the driver is in online mode (inside
    /// the worker, concurrently, the way a rack of live cameras would),
    /// execute it under its own context. With one worker the jobs run
    /// on the calling thread — the classic sequential driver, no thread
    /// spawned.
    ///
    /// In degrade mode a failure costs that instance only: it is a
    /// filled slot. Otherwise it is the job's error, which stops the
    /// workers, and the lowest-index failure decides the batch whatever
    /// the completion order.
    fn dispatch(
        &self,
        engine: &dyn Vdbms,
        batch: &[QueryInstance],
        ctx: &ExecContext,
        workers: usize,
    ) -> Result<Vec<Slot>> {
        let degrade = self.degrade_mode();
        let videos = &self.dataset.videos;
        let name = |i| format!("instance.{}.{i}", ctx.query_label);
        run_jobs(batch.len(), workers, name, |i| {
            let instance = &batch[i];
            let _span = trace::span_dyn("scheduler", || name(i));
            let t0 = Instant::now();
            let ingested = match self.cfg.mode {
                ExecutionMode::Online { speedup } => {
                    ingest_inputs_online(videos, instance, speedup).map(|_| ())
                }
                ExecutionMode::Offline => Ok(()),
            };
            let ictx = self.instance_context(ctx, i);
            let result = ingested.and_then(|()| engine.execute(instance, videos, &ictx));
            match result {
                Err(e) if !degrade => Err(e),
                result => Ok((result, t0.elapsed().as_nanos() as u64)),
            }
        })
    }

    /// Validate the completed (instance, output) pairs of a batch
    /// against the reference implementation (and, for Q2(c), scene
    /// geometry). Under degrade mode cancelled/failed instances are
    /// absent from `completed`, so only what actually ran is judged.
    fn validate_batch(
        &self,
        completed: &[(&QueryInstance, QueryOutput)],
    ) -> Result<ValidationSummary> {
        // The oracle shares nothing with the measured engine's context:
        // the defaults give it its own stage metrics (validation work
        // must not pollute the batch's aggregates), streaming results,
        // and no optimizer — it always runs the hand-written reference
        // plan. One worker, because the reference defines correct
        // output and must not depend on the host's parallelism.
        let ref_ctx = ExecContext { workers: 1, ..ExecContext::default() };
        let mut psnr_values: Vec<f64> = Vec::new();
        let mut box_matches = 0usize;
        let mut box_total = 0usize;
        let mut gt_found = 0usize;
        let mut gt_total = 0usize;
        let mut gt_false_pos = 0usize;
        let mut length_mismatch = false;

        for (instance, output) in completed {
            let reference = execute_reference(instance, &self.dataset.videos, &ref_ctx)?;
            match (output, &reference) {
                (
                    QueryOutput::BoxedVideo { boxes, .. },
                    QueryOutput::BoxedVideo { boxes: ref_boxes, .. },
                ) => {
                    // Semantic validation: every engine box must match
                    // a reference box within the ε = 0.5 Jaccard
                    // threshold (§4.1).
                    for (fb, rb) in boxes.iter().zip(ref_boxes) {
                        box_total += fb.len();
                        for b in fb {
                            if rb.iter().any(|r| {
                                r.class == b.class && b.rect.jaccard_distance(&r.rect) <= 0.5
                            }) {
                                box_matches += 1;
                            }
                        }
                    }
                    // Informational ground-truth recall / F1.
                    let (found, total, false_pos) =
                        self.ground_truth_match(instance, boxes)?;
                    gt_found += found;
                    gt_total += total;
                    gt_false_pos += false_pos;
                }
                (a, b) => {
                    let (Some(va), Some(vb)) = (a.primary_video(), b.primary_video()) else {
                        continue;
                    };
                    let (psnr, mismatch) = compare_frames(va, vb)?;
                    psnr_values.extend(psnr);
                    length_mismatch |= mismatch;
                }
            }
        }

        let psnr = PsnrStats::from_values(&psnr_values);
        let semantic_agreement =
            (box_total > 0).then(|| box_matches as f64 / box_total as f64);
        let ground_truth_recall = (gt_total > 0).then(|| gt_found as f64 / gt_total as f64);
        let ground_truth_f1 = (gt_total > 0).then(|| {
            let precision = if gt_found + gt_false_pos == 0 {
                0.0
            } else {
                gt_found as f64 / (gt_found + gt_false_pos) as f64
            };
            let recall = gt_found as f64 / gt_total as f64;
            if precision + recall == 0.0 {
                0.0
            } else {
                2.0 * precision * recall / (precision + recall)
            }
        });
        let passed = !length_mismatch
            && psnr.map(|p| p.min >= VALIDATION_THRESHOLD_DB).unwrap_or(true)
            && semantic_agreement
                .map(|a| a >= SEMANTIC_THRESHOLD)
                .unwrap_or(true);
        Ok(ValidationSummary {
            psnr,
            semantic_agreement,
            ground_truth_recall,
            ground_truth_f1,
            passed,
        })
    }

    /// Match engine boxes against scene-geometry ground truth:
    /// returns (matched ground-truth objects, total ground-truth
    /// objects, unmatched engine boxes). Matching is IoU ≥ 0.5 against
    /// visible objects of the queried class; engine boxes overlapping
    /// *any* enumerated truth object (occluded/tiny included) are not
    /// penalized as false positives — the ignore-region protocol.
    fn ground_truth_match(
        &self,
        instance: &QueryInstance,
        boxes: &[Vec<vr_vdbms::io::OutputBox>],
    ) -> Result<(usize, usize, usize)> {
        let QuerySpec::Q2c { class } = &instance.spec else {
            return Ok((0, 0, 0));
        };
        let Some(&input_idx) = instance.inputs.first() else {
            return Ok((0, 0, 0));
        };
        let meta = self.dataset.meta[input_idx];
        let Some(camera_id) = meta.camera else {
            return Ok((0, 0, 0));
        };
        let camera = self.dataset.city.camera(camera_id).ok_or_else(|| {
            Error::NotFound(format!("camera {camera_id:?} (instance {}) in city", instance.index))
        })?;
        let info = self.dataset.videos[input_idx].video_info()?;
        let mut found = 0usize;
        let mut total = 0usize;
        let mut false_pos = 0usize;
        for (i, frame_boxes) in boxes.iter().enumerate() {
            let t = i as f64 * info.frame_rate.frame_interval_secs();
            let truth = frame_truth(&self.dataset.city, camera, t, info.width, info.height);
            for obj in truth.visible(*class) {
                total += 1;
                if frame_boxes.iter().any(|b| b.rect.iou(&obj.rect) >= 0.5) {
                    found += 1;
                }
            }
            for b in frame_boxes {
                let touches_any = truth
                    .objects
                    .iter()
                    .any(|o| !b.rect.intersect(&o.rect).is_empty());
                if !touches_any {
                    false_pos += 1;
                }
            }
        }
        Ok((found, total, false_pos))
    }
}

/// Frame validation of one answer against the reference answer: the
/// luma PSNR of each frame of their common prefix, up to the first
/// frame whose size differs, and whether the two disagree in length
/// (by more than a tenth of the reference, plus one) or in frame size.
///
/// The two are decoded in lockstep, so one frame of each is resident
/// whatever the length. Both are decoded to their ends all the same: a
/// decode error anywhere in either surfaces, and when both fail it is
/// the answer's first error.
fn compare_frames(answer: &EncodedVideo, reference: &EncodedVideo) -> Result<(Vec<f64>, bool)> {
    let (na, nr) = (answer.len(), reference.len());
    if na.abs_diff(nr) > nr / 10 + 1 {
        return Ok((Vec::new(), true));
    }
    let mut da = Decoder::new(answer.info);
    let mut dr = Decoder::new(reference.info);
    let mut reference_error = None;
    let mut psnr = Vec::with_capacity(na.min(nr));
    let mut mismatch = false;
    for i in 0..na.max(nr) {
        let x = answer.packets.get(i).map(|p| da.decode(&p.data)).transpose()?;
        let y = match reference.packets.get(i).filter(|_| reference_error.is_none()) {
            Some(p) => dr.decode(&p.data).map_err(|e| reference_error = Some(e)).ok(),
            None => None,
        };
        if let (Some(x), Some(y), false) = (&x, &y, mismatch) {
            if x.width() != y.width() || x.height() != y.height() {
                mismatch = true;
            } else {
                psnr.push(psnr_y(x, y));
            }
        }
    }
    match reference_error {
        Some(e) => Err(e),
        None => Ok((psnr, mismatch)),
    }
}

/// Stream one input's video track through a named pipe at the capture
/// rate — the single-machine online transport ("a VDBMS may access
/// each video using either a named pipe … or via the RTP protocol",
/// §3.2). A producer thread paces frame writes; the consumer blocks
/// on reads, exactly as it would on a FIFO. Returns bytes delivered.
pub fn ingest_online_pipe(input: &InputVideo, speedup: f64) -> Result<usize> {
    use vr_storage::pipe::PipeRegistry;
    let registry = PipeRegistry::new();
    let mut writer = registry.create(&input.name, 4)?;
    let reader = registry.open(&input.name)?;
    std::thread::scope(|scope| -> Result<usize> {
        // Zero-copy: each pipe message is a view into the container's
        // shared buffer, not a per-sample copy.
        let producer =
            scope.spawn(move || paced_samples(input, speedup, |_, sample| writer.write(sample)));
        let mut bytes = 0usize;
        while let Some(frame) = reader.read() {
            bytes += frame.len();
        }
        producer.join().unwrap_or_else(|p| Err(stage_panic(panic_message(p))))?;
        Ok(bytes)
    })
}

/// Walk one input's video samples in order, releasing sample `i` no
/// earlier than its capture time (at `speedup`× real time) — the
/// ingest both online transports share.
fn paced_samples(
    input: &InputVideo,
    speedup: f64,
    mut send: impl FnMut(usize, BufSlice) -> Result<()>,
) -> Result<()> {
    let info = input.video_info()?;
    let (track, t) = input.video_track()?;
    let pacer = Pacer::with_speedup(info.frame_rate, speedup.max(1e-3));
    for i in 0..t.samples.len() {
        pacer.wait_for_frame(i as u64);
        send(i, input.container.sample_slice(track, i)?)?;
    }
    Ok(())
}

/// Online ingest of one query instance: every input it reads goes
/// through paced RTP first — an engine may not read faster than the
/// cameras capture. The driver's online mode and the server's
/// `online=<speedup>` are this one loop. Returns the bytes delivered.
pub(crate) fn ingest_inputs_online(
    videos: &[InputVideo],
    instance: &QueryInstance,
    speedup: f64,
) -> Result<usize> {
    instance.inputs.iter().map(|&i| ingest_online(&videos[i], speedup)).sum()
}

/// Stream one input's video track through paced RTP (online-mode
/// ingest): packets are released at the capture rate and reassembled;
/// the returned count is the bytes delivered.
pub fn ingest_online(input: &InputVideo, speedup: f64) -> Result<usize> {
    let mut tx = RtpPacketizer::new(input.name.len() as u32 + 1, 1400);
    let mut rx = RtpDepacketizer::new(input.name.len() as u32 + 1);
    let mut bytes = 0usize;
    // Packets produced by the sender — the depacketizer needs the
    // final sequence number to account for tail loss exactly.
    let mut produced: u64 = 0;
    paced_samples(input, speedup, |i, sample| {
        for pkt in tx.packetize(&sample, (i as u32).wrapping_mul(3000)) {
            produced += 1;
            // A dropped packet vanishes on the wire; the jitter buffer
            // discovers the gap and skips past it.
            if let Some(inj) = vr_base::fault::global() {
                if inj.drop_rtp_packet(&input.name, produced) {
                    continue;
                }
            }
            for frame in rx.push(&pkt)? {
                bytes += frame.len();
            }
        }
        Ok(())
    })?;
    for frame in rx.finish(produced as u16) {
        bytes += frame.len();
    }
    vr_base::fault::note_skipped_packets(rx.skipped());
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_base::obs::alloc;
    use vr_codec::{encode_sequence, EncoderConfig, Packet};
    use vr_frame::Frame;

    /// The comparison before the two answers were decoded in lockstep:
    /// each decoded whole, then the common prefix compared.
    fn compare_frames_oracle(
        va: &EncodedVideo,
        vb: &EncodedVideo,
    ) -> Result<(Vec<f64>, bool)> {
        let mut psnr_values = Vec::new();
        let mut length_mismatch = false;
        if va.len() != vb.len()
            && (va.len() as i64 - vb.len() as i64).unsigned_abs() as usize > vb.len() / 10 + 1
        {
            return Ok((psnr_values, true));
        }
        let fa = va.decode_all()?;
        let fb = vb.decode_all()?;
        for (x, y) in fa.iter().zip(&fb) {
            if x.width() != y.width() || x.height() != y.height() {
                length_mismatch = true;
                break;
            }
            psnr_values.push(psnr_y(x, y));
        }
        Ok((psnr_values, length_mismatch))
    }

    /// `n` frames of a drifting gradient with a moving block.
    fn clip(w: u32, h: u32, n: usize) -> Vec<Frame> {
        (0..n)
            .map(|t| {
                let mut f = Frame::new(w, h);
                for y in 0..h {
                    for x in 0..w {
                        f.set_y(x, y, ((x * 3 + y + t as u32 * 4) % 200 + 20) as u8);
                    }
                }
                let bx = (t as u32 * 5) % (w - 16);
                for y in 8..24 {
                    for x in bx..bx + 16 {
                        f.set_y(x, y, 235);
                    }
                }
                f
            })
            .collect()
    }

    fn encode(frames: &[Frame], qp: u8) -> EncodedVideo {
        encode_sequence(&EncoderConfig::constant_qp(qp).with_gop(10), frames).unwrap()
    }

    /// A copy of `v` with packet `i` replaced by `data`.
    fn corrupt(v: &EncodedVideo, i: usize, data: &[u8]) -> EncodedVideo {
        let mut v = v.clone();
        v.packets[i] = Packet { data: data.to_vec(), keyframe: false };
        v
    }

    /// Bit-for-bit: the same PSNR values, verdict and error.
    fn same(got: Result<(Vec<f64>, bool)>, want: Result<(Vec<f64>, bool)>, case: &str) {
        match (got, want) {
            (Ok((g, gm)), Ok((w, wm))) => {
                let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&g), bits(&w), "{case}: PSNR values");
                assert_eq!(gm, wm, "{case}: mismatch verdict");
            }
            (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{case}: error"),
            (g, w) => panic!("{case}: got {g:?}, the oracle gave {w:?}"),
        }
    }

    #[test]
    fn lockstep_comparison_matches_the_decode_all_oracle() {
        let frames = clip(64, 48, 30);
        let reference = encode(&frames, 10);
        let reencoded = encode(&frames, 30);
        let longer = encode(&clip(64, 48, 32), 12);
        let shorter = encode(&frames[..20], 10);
        let wider = encode(&clip(96, 48, 30), 10);
        // A frame type no decoder knows, and a QP out of range: the
        // two errors read differently, so the winner shows.
        let (bad_type, bad_qp) = ([0xee, 10, 0], [0, 99, 0]);
        let cases = [
            ("equal answers", reference.clone(), reference.clone()),
            ("a re-encoded answer", reencoded.clone(), reference.clone()),
            ("a longer answer within the tolerance", longer.clone(), reference.clone()),
            ("a shorter reference within the tolerance", reference.clone(), longer.clone()),
            ("unequal lengths", shorter.clone(), reference.clone()),
            ("a width mismatch", wider.clone(), reference.clone()),
            ("a corrupt answer tail", corrupt(&reencoded, 29, &bad_type), reference.clone()),
            ("a corrupt reference tail", reencoded.clone(), corrupt(&reference, 28, &bad_qp)),
            ("a corrupt tail past the prefix", corrupt(&longer, 31, &bad_type), reference.clone()),
            (
                "both corrupt, the reference first",
                corrupt(&reencoded, 29, &bad_type),
                corrupt(&reference, 3, &bad_qp),
            ),
            (
                "both corrupt, the answer first",
                corrupt(&reencoded, 2, &bad_type),
                corrupt(&reference, 27, &bad_qp),
            ),
            ("a corrupt answer of another width", corrupt(&wider, 25, &bad_qp), reference.clone()),
        ];
        for (case, answer, reference) in &cases {
            same(compare_frames(answer, reference), compare_frames_oracle(answer, reference), case);
        }
        let (psnr, mismatch) = compare_frames(&reencoded, &reference).unwrap();
        assert_eq!((psnr.len(), mismatch), (30, false));
        assert!(compare_frames(&wider, &reference).unwrap().1, "a width mismatch is reported");
        let both = compare_frames(&cases[9].1, &cases[9].2).unwrap_err().to_string();
        assert!(!both.contains("QP 99"), "the answer's error wins: {both}");
    }

    /// Peak bytes one thread allocates while `compare` runs.
    fn peak_bytes(compare: impl FnOnce() -> Result<(Vec<f64>, bool)>) -> u64 {
        let scope = alloc::ScopeGuard::begin();
        compare().unwrap();
        scope.finish().peak_bytes
    }

    /// The validator's memory does not grow with the answer: tripling a
    /// 30-frame answer moves its peak by less than four frames, where
    /// decoding both answers whole first grows it by 2 × 60 frames.
    #[test]
    fn validation_peak_does_not_grow_with_the_answer() {
        let (w, h) = (160, 96);
        let frame_bytes = (w * h * 3 / 2) as u64;
        let frames = clip(w, h, 90);
        let pair = |n: usize| (encode(&frames[..n], 24), encode(&frames[..n], 10));
        let (short, long) = (pair(30), pair(90));
        alloc::set_tracking(true);
        // Warm-up: lazily built codec tables allocate once per process.
        peak_bytes(|| compare_frames(&short.0, &short.1));
        let lockstep = [&short, &long].map(|(a, r)| peak_bytes(|| compare_frames(a, r)));
        let whole = [&short, &long].map(|(a, r)| peak_bytes(|| compare_frames_oracle(a, r)));
        alloc::set_tracking(false);
        assert!(lockstep[0] > 0, "alloc tracking recorded nothing");
        assert!(
            lockstep[1] < lockstep[0] + 4 * frame_bytes,
            "lockstep peak {lockstep:?} B grew by four frames ({frame_bytes} B each) or more"
        );
        assert!(
            whole[1] >= whole[0] + 100 * frame_bytes,
            "the whole-decode oracle's peak {whole:?} B should grow by about 120 frames"
        );
    }
}
