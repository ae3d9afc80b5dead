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
    BenchmarkReport, DegradationStats, ExplainInfo, ObsStats, QueryReport, QueryStatus,
    SchedulerStats, StageLatency, ValidationSummary,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use vr_base::obs::{metrics, serve, trace};
use vr_base::rng::mix64;
use vr_base::sync::CancelToken;
use vr_base::{fault, Error, Resolution, Result, VrRng};
use vr_container::TrackKind;
use vr_frame::metrics::{psnr_y, PsnrStats, VALIDATION_THRESHOLD_DB};
use vr_scene::groundtruth::frame_truth;
use vr_storage::rtp::{RtpDepacketizer, RtpPacketizer};
use vr_storage::{FlatStore, Pacer};
use vr_vdbms::query::{QueryInstance, QuerySpec};
use vr_vdbms::reference::execute_reference;
use vr_vdbms::{
    CalibrationProfile, ExecContext, InputVideo, Optimizer, OptimizerMode, PipelineMetrics,
    QueryKind, QueryOutput, ResultMode, Vdbms, Workload,
};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExplainMode {
    /// No plan trees.
    #[default]
    Off,
    /// Attach the pre-execution plan shape (EXPLAIN).
    Plan,
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
    /// QP engines encode results at.
    pub output_qp: u8,
    /// Q4 α/β exponent cap (paper domain: 5).
    pub max_upsample_exp: u32,
    /// Minimum fraction of engine boxes that must match the reference
    /// boxes within ε = 0.5 for semantic validation to pass. 0.7
    /// leaves headroom for cascade-style engines that reuse previous
    /// detections on static frames (an accuracy trade the paper's
    /// NoScope makes too).
    pub semantic_threshold: f64,
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
    /// Plan-tree reporting: off, EXPLAIN (shape only), or EXPLAIN
    /// ANALYZE (annotated post-execution). The in-flight plan is also
    /// published to the live endpoint's `/explain` route.
    pub explain: ExplainMode,
    /// Cost-based optimizer switch: `Off` keeps every engine's
    /// hand-tuned plan choices; `On`/`Explain` install an
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
            output_qp: 10,
            max_upsample_exp: 2,
            semantic_threshold: 0.7,
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
    /// it); one instance per driver so plan decisions and measured
    /// feedback accumulate across that driver's batches.
    optimizer: Option<Arc<Optimizer>>,
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

    /// The driver's optimizer, when the config enabled one — the CLI
    /// reads decision tables off it after a run.
    pub fn optimizer(&self) -> Option<&Arc<Optimizer>> {
        self.optimizer.as_ref()
    }

    /// Build the query batch for one query kind: `4L` instances (or
    /// the configured override), parameters drawn uniformly, inputs
    /// chosen per query semantics.
    pub fn batch(&self, kind: QueryKind) -> Result<Vec<QueryInstance>> {
        let size = self.cfg.batch_size.unwrap_or(self.dataset.hyper.batch_size());
        let mut rng = VrRng::seed_from(mix64(self.dataset.hyper.seed, kind as u64 + 0xBA7C));
        let ctx = self.dataset.sample_context(self.cfg.max_upsample_exp);
        let traffic = self.dataset.traffic_indices();
        let rigs = self.dataset.rig_faces();
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
                    (spec, rigs[r].to_vec())
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
            output_qp: self.cfg.output_qp,
            metrics: Arc::new(PipelineMetrics::default()),
            workers: self
                .cfg
                .pipeline_workers
                .unwrap_or_else(vr_base::sync::worker_budget)
                .max(1),
            query_label: kind.short_label().to_string(),
            cancel: CancelToken::new(),
            stage_timeout: Some(vr_vdbms::io::DEFAULT_STAGE_TIMEOUT),
            optimizer: self.optimizer.clone(),
            tenant: None,
            request_id: None,
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
        let inputs = &self.dataset.videos;
        let degrade = self.degrade_mode();
        // Plan description for the batch: built (and published to the
        // live endpoint's /explain route) before the measured window
        // opens, so describing the plan never perturbs the
        // measurement. Instances of one batch share a plan shape — the
        // first instance stands for all of them. With the optimizer
        // enabled the plan is always built here even without EXPLAIN:
        // planning is what caches the cost-based decision that both
        // the scheduler below and the engine's `execute` consult.
        let mut plan = (self.cfg.explain != ExplainMode::Off || self.optimizer.is_some())
            .then(|| {
                let plan = engine.plan(&batch[0], &ctx);
                if self.cfg.explain != ExplainMode::Off {
                    serve::set_explain(plan.render_text());
                }
                plan
            });
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
        // Registry state at the measured window's start; the
        // after-snapshot is taken before validation so the reference
        // pipelines the oracle runs never pollute this batch's deltas.
        let obs_before = metrics::snapshot();
        let start = Instant::now();
        engine.prepare_batch(&batch, inputs, &ctx);
        // `prepare_batch` needed the exclusive reference; dispatch
        // shares the engine across scheduler workers.
        let engine: &dyn Vdbms = engine;
        let slots = self.dispatch(engine, &batch, &ctx, workers)?;
        let runtime = start.elapsed();
        let obs_delta = metrics::snapshot().since(&obs_before);
        let recovered = fault::degradation_snapshot().since(&deg_before);
        drop(batch_span);

        // Fold the per-instance slots in submission order. Classic
        // semantics: the first (lowest-index) failure decides the
        // batch's status, exactly as under the sequential driver.
        // Degrade mode (faults active or a deadline enforced):
        // cancelled/failed instances become degraded rows and the
        // batch always completes with the surviving outputs.
        let mut completed: Vec<(&QueryInstance, QueryOutput)> = Vec::with_capacity(batch.len());
        let mut frames = 0usize;
        let mut bytes_written = 0usize;
        let mut latencies: Vec<u64> = Vec::with_capacity(batch.len());
        let mut cancelled_instances = 0u64;
        let mut failed_instances = 0u64;
        let mut failure: Option<String> = None;
        for (slot, instance) in slots.into_iter().zip(&batch) {
            let Some((result, nanos)) = slot else { break };
            latencies.push(nanos);
            match result {
                Ok(out) => {
                    for &i in &instance.inputs {
                        frames += self.dataset.videos[i].frame_count();
                    }
                    bytes_written += match &ctx.result_mode {
                        ResultMode::Write { .. } => out.size_bytes(),
                        ResultMode::Streaming => 0,
                    };
                    completed.push((instance, out));
                }
                Err(Error::Cancelled(_)) if degrade => cancelled_instances += 1,
                Err(_) if degrade => failed_instances += 1,
                Err(e) => {
                    failure = Some(e.to_string());
                    break;
                }
            }
        }
        if let Some(error) = failure {
            return Ok(QueryReport { kind, batch_size, status: QueryStatus::Failed { error } });
        }
        let fps = frames as f64 / runtime.as_secs_f64().max(1e-9);
        // Per-operator stage aggregates accumulated by the engine's
        // pipeline over the whole measured batch.
        let stages = ctx.metrics.snapshot();
        // Feedback path: fold the batch's mean measured per-instance
        // latency into the optimizer's profile (EWMA) so later batches
        // — and the persisted profile — score with observed costs.
        if let Some(opt) = &self.optimizer {
            if !latencies.is_empty() {
                opt.feedback(&plan_key, latencies.iter().sum::<u64>() / latencies.len() as u64);
            }
        }
        let explain = plan
            .take()
            .filter(|_| self.cfg.explain != ExplainMode::Off)
            .map(|mut plan| {
                let verify_error = if self.cfg.explain == ExplainMode::Analyze {
                    plan.annotate(&stages, runtime.as_nanos() as u64);
                    // Measured stage work may legitimately exceed wall
                    // time when pipeline stages and scheduler workers
                    // overlap; the invariant bound scales with the total
                    // fan-out.
                    plan.verify(runtime.as_nanos() as u64, ctx.workers.max(1) * workers).err()
                } else {
                    None
                };
                let mut text = plan.render_text();
                if let Some(opt) = &self.optimizer {
                    // EXPLAIN grows the chosen-vs-rejected table; under
                    // ANALYZE the estimate is also confronted with the
                    // measured per-instance latency recorded above.
                    if let Some(decision) = opt.decision(&plan_key) {
                        text.push_str(&decision.render_text());
                    }
                    if self.cfg.explain == ExplainMode::Analyze {
                        if let Some((est, measured)) = opt.observed(&plan_key) {
                            let err = (est as f64 - measured as f64).abs()
                                / (measured as f64).max(1.0)
                                * 100.0;
                            text.push_str(&format!(
                                "optimizer: est {} vs measured {} per instance (error {err:.1}%)\n",
                                vr_vdbms::cost::fmt_cost(est),
                                vr_vdbms::cost::fmt_cost(measured),
                            ));
                        }
                    }
                }
                serve::set_explain(text.clone());
                ExplainInfo { text, json: plan.render_json(), verify_error }
            });
        let scheduler =
            SchedulerStats::from_durations(workers, &latencies, self.cfg.instance_deadline);

        // Worker-pool busy fraction over the measured window, also
        // published as a gauge for the metrics exporters.
        let busy_nanos: u64 = latencies.iter().sum();
        let worker_utilization = (busy_nanos as f64
            / (workers as f64 * runtime.as_nanos().max(1) as f64))
            .min(1.0);
        metrics::gauge("scheduler.worker_utilization").set(worker_utilization);
        metrics::gauge("scheduler.workers").set(workers as f64);
        let obs = ObsStats {
            stage_latency: vr_vdbms::StageKind::ALL
                .iter()
                .filter_map(|kind| {
                    let stage = kind.label();
                    let h = obs_delta.histograms.get(&format!("stage.{stage}.nanos"))?;
                    (h.count > 0).then(|| StageLatency {
                        stage,
                        count: h.count,
                        p50_nanos: h.p50(),
                        p95_nanos: h.p95(),
                        p99_nanos: h.p99(),
                    })
                })
                .collect(),
            worker_utilization,
        };

        let validation = if self.cfg.validate {
            // Validation (reference runs + PSNR) happens outside the
            // measured window AND outside the fault plan: injecting
            // faults into the correctness oracle would make every
            // verdict meaningless.
            let _span = trace::span("vcd", "validate");
            fault::suppress(|| self.validate_batch(&completed))?
        } else {
            ValidationSummary { passed: true, ..Default::default() }
        };

        let faults_active = fault::active();
        let degradation = DegradationStats {
            concealed_frames: recovered.concealed_frames,
            skipped_samples: recovered.skipped_samples,
            skipped_packets: recovered.skipped_packets,
            io_retries: recovered.io_retries,
            io_give_ups: recovered.io_give_ups,
            stage_panics: recovered.stage_panics,
            stalls_absorbed: recovered.stalls_absorbed,
            cancelled_instances,
            failed_instances,
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
                frames,
                fps,
                bytes_written,
                stages,
                scheduler,
                validation,
                degradation,
                obs,
                explain,
            },
        })
    }

    /// Run one batch's instances on `workers` scheduler workers and
    /// return one slot per instance: its result plus its latency in
    /// nanoseconds, or `None` if it was never started.
    ///
    /// Every worker runs the same loop: take the next instance index
    /// from a shared counter (so an expensive instance never stalls the
    /// rest of the batch behind it), open its span, start its clock,
    /// pace its inputs through RTP when the driver is in online mode
    /// (inside the worker, concurrently, the way a rack of live cameras
    /// would), execute it under its own context, fill its slot. With
    /// one worker the loop runs on the calling thread — the classic
    /// sequential driver, no thread spawned.
    ///
    /// In degrade mode a failure costs that instance only. Otherwise
    /// the first failure ends its worker's loop: a failed ingest is the
    /// batch's error, a failed execution a filled slot — and since
    /// indices are handed out in order, every slot below the lowest
    /// failing one is filled, so the fold in `run_one` still reports
    /// the lowest-index failure whatever the completion order.
    #[allow(clippy::type_complexity)]
    fn dispatch(
        &self,
        engine: &dyn Vdbms,
        batch: &[QueryInstance],
        ctx: &ExecContext,
        workers: usize,
    ) -> Result<Vec<Option<(Result<QueryOutput>, u64)>>> {
        let degrade = self.degrade_mode();
        let videos = &self.dataset.videos;
        let next = AtomicUsize::new(0);
        // Each index is taken by exactly one worker, so each slot is
        // set at most once.
        let slots: Vec<OnceLock<_>> = batch.iter().map(|_| OnceLock::new()).collect();
        let worker = || -> Result<()> {
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(instance) = batch.get(i) else {
                    return Ok(());
                };
                let _span =
                    trace::span_dyn("scheduler", || format!("instance.{}.{i}", ctx.query_label));
                let t0 = Instant::now();
                let ingested = match self.cfg.mode {
                    ExecutionMode::Online { speedup } => {
                        ingest_inputs_online(videos, instance, speedup).map(|_| ())
                    }
                    ExecutionMode::Offline => Ok(()),
                };
                let result = match ingested {
                    Ok(()) => engine.execute(instance, videos, &self.instance_context(ctx, i)),
                    // An ingest failure (e.g. an exhausted retry budget).
                    Err(e) if degrade => Err(e),
                    Err(e) => return Err(e),
                };
                let stop = result.is_err() && !degrade;
                let _ = slots[i].set((result, t0.elapsed().as_nanos() as u64));
                if stop {
                    return Ok(());
                }
            }
        };
        let statuses: Vec<Result<()>> = if workers <= 1 {
            vec![worker()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
                // A worker that somehow panicked past the pipeline's
                // containment boundaries surfaces as a typed error
                // rather than poisoning the whole process.
                let join = |h: std::thread::ScopedJoinHandle<'_, Result<()>>| {
                    h.join().unwrap_or_else(|p| {
                        fault::note_stage_panic();
                        Err(Error::StagePanic(panic_message(p)))
                    })
                };
                handles.into_iter().map(join).collect()
            })
        };
        statuses.into_iter().collect::<Result<()>>()?;
        Ok(slots.into_iter().map(OnceLock::into_inner).collect())
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
        let ref_ctx = ExecContext {
            output_qp: self.cfg.output_qp,
            workers: 1,
            ..ExecContext::default()
        };
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
                    if va.len() != vb.len()
                        && (va.len() as i64 - vb.len() as i64).unsigned_abs() as usize
                            > vb.len() / 10 + 1
                    {
                        length_mismatch = true;
                        continue;
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
                .map(|a| a >= self.cfg.semantic_threshold)
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

/// Best-effort text from a propagated panic payload.
pub(crate) fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Stream one input's video track through a named pipe at the capture
/// rate — the single-machine online transport ("a VDBMS may access
/// each video using either a named pipe … or via the RTP protocol",
/// §3.2). A producer thread paces frame writes; the consumer blocks
/// on reads, exactly as it would on a FIFO. Returns bytes delivered.
pub fn ingest_online_pipe(input: &InputVideo, speedup: f64) -> Result<usize> {
    use vr_storage::pipe::PipeRegistry;
    let info = input.video_info()?;
    let track = input
        .container
        .track_of_kind(TrackKind::Video)
        .ok_or_else(|| vr_base::Error::NotFound("video track".into()))?;
    let n = input.container.tracks()[track].samples.len();
    let registry = PipeRegistry::new();
    let writer = registry.create(&input.name, 4)?;
    let reader = registry.open(&input.name)?;
    std::thread::scope(|scope| -> Result<usize> {
        let producer = scope.spawn(move || -> Result<()> {
            let pacer = Pacer::with_speedup(info.frame_rate, speedup.max(1e-3));
            for i in 0..n {
                pacer.wait_for_frame(i as u64);
                // Zero-copy: the pipe message is a view into the
                // container's shared buffer, not a per-sample copy.
                let sample = input.container.sample_slice(track, i)?;
                writer.write(sample)?;
            }
            Ok(())
        });
        let mut bytes = 0usize;
        while let Some(frame) = reader.read() {
            bytes += frame.len();
        }
        match producer.join() {
            Ok(r) => r?,
            Err(p) => {
                vr_base::fault::note_stage_panic();
                return Err(vr_base::Error::StagePanic(panic_message(p)));
            }
        }
        Ok(bytes)
    })
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
    let info = input.video_info()?;
    let track = input
        .container
        .track_of_kind(TrackKind::Video)
        .ok_or_else(|| vr_base::Error::NotFound("video track".into()))?;
    let n = input.container.tracks()[track].samples.len();
    let pacer = Pacer::with_speedup(info.frame_rate, speedup.max(1e-3));
    let mut tx = RtpPacketizer::new(input.name.len() as u32 + 1, 1400);
    let mut rx = RtpDepacketizer::new(input.name.len() as u32 + 1);
    let mut bytes = 0usize;
    // Packets produced by the sender — the depacketizer needs the
    // final sequence number to account for tail loss exactly.
    let mut produced: u64 = 0;
    for i in 0..n {
        pacer.wait_for_frame(i as u64);
        let sample = input.container.sample(track, i)?;
        for pkt in tx.packetize(sample, (i as u32).wrapping_mul(3000)) {
            produced += 1;
            // A dropped packet vanishes on the wire; the jitter buffer
            // discovers the gap and skips past it.
            if let Some(inj) = vr_base::fault::global() {
                if inj.drop_rtp_packet() {
                    continue;
                }
            }
            for frame in rx.push(&pkt)? {
                bytes += frame.len();
            }
        }
    }
    for frame in rx.finish(produced as u16) {
        bytes += frame.len();
    }
    vr_base::fault::note_skipped_packets(rx.skipped());
    Ok(bytes)
}
