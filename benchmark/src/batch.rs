//! The two batch workloads: VCD offline passes over a fixed list of
//! (engine, query) pairs.
//!
//! `batch_codec` holds the pairs whose time is decode and encode;
//! `batch_vision` the pairs whose time is detector and blur kernels. A
//! codec change should move the first by most of its size and the second
//! by the codec's ~13% share; a kernel change the reverse.

use std::collections::BTreeMap;
use std::time::Instant;

use visual_road::prelude::*;
use visual_road::storage::FlatStore;
use visual_road::vdbms::{PipelineSnapshot, StageKind};
use visual_road::Dataset;

use crate::host;
use crate::metrics::{exec_metric, Outcome, CODEC_PAIRS, VISION_PAIRS};
use crate::spans::{Recorder, SpanId};
use crate::stats;
use crate::workload::{self, RunArgs};

pub fn pairs_of(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "batch_codec" => &CODEC_PAIRS,
        _ => &VISION_PAIRS,
    }
}

pub fn engine_of(token: &str) -> Box<dyn Vdbms> {
    match token {
        "reference" => Box::new(ReferenceEngine::new()),
        "batch" => Box::new(BatchEngine::new()),
        "functional" => Box::new(FunctionalEngine::new()),
        "cascade" => Box::new(CascadeEngine::new()),
        other => unreachable!("no engine is declared as {other:?}"),
    }
}

pub fn kind_of(token: &str) -> QueryKind {
    match token {
        "q1" => QueryKind::Q1Select,
        "q2a" => QueryKind::Q2aGrayscale,
        "q2b" => QueryKind::Q2bBlur,
        "q2c" => QueryKind::Q2cBoxes,
        "q3" => QueryKind::Q3Subquery,
        "q4" => QueryKind::Q4Upsample,
        "q5" => QueryKind::Q5Downsample,
        "q6a" => QueryKind::Q6aUnionBoxes,
        "q7" => QueryKind::Q7ObjectDetection,
        "q8" => QueryKind::Q8VehicleTracking,
        other => unreachable!("no query is declared as {other:?}"),
    }
}

/// A set-up batch workload: dataset on disk and reloaded from it, one
/// engine per engine token (engines keep state across passes, as under the
/// VCD), results written to the same store.
struct Env {
    dataset: Dataset,
    store: FlatStore,
    engines: BTreeMap<&'static str, Box<dyn Vdbms>>,
    pairs: &'static [(&'static str, &'static str)],
    workers: usize,
    generate_s: f64,
}

/// One `Vcd::run_queries(engine, [query])` call as the benchmark saw it.
struct PairRun {
    engine: &'static str,
    query: &'static str,
    /// Wall time of the call, measured around it.
    wall_ns: u64,
    instances: u64,
    /// Σ instance latency the driver's scheduler reported.
    instance_ns: u64,
    stages: PipelineSnapshot,
    /// Why the pair did not complete (and, on a validated pass, PASS).
    failure: Option<String>,
}

struct Pass {
    wall_s: f64,
    /// Process CPU seconds the pass used, all threads.
    cpu_s: f64,
    runs: Vec<PairRun>,
}

impl Pass {
    fn stage_s(&self, kinds: &[StageKind]) -> f64 {
        let nanos: u64 = self
            .runs
            .iter()
            .map(|r| kinds.iter().map(|&k| r.stages.stage(k).nanos).sum::<u64>())
            .sum();
        nanos as f64 / 1e9
    }

    fn instance_s(&self) -> f64 {
        self.runs.iter().map(|r| r.instance_ns).sum::<u64>() as f64 / 1e9
    }

    fn instances(&self) -> u64 {
        self.runs.iter().map(|r| r.instances).sum()
    }
}

fn setup(args: &RunArgs, serial: usize) -> Result<Env, String> {
    let t0 = Instant::now();
    let mut dataset = workload::generate_dataset(&args.sizes)?;
    let generate_s = t0.elapsed().as_secs_f64();
    let root = workload::out_dir().join(format!("store-{}-{serial}", std::process::id()));
    let store = FlatStore::open(root).map_err(|e| format!("open store: {e}"))?;
    dataset
        .write_to_store(&store)
        .map_err(|e| format!("write dataset: {e}"))?;
    dataset
        .reload_videos(&store)
        .map_err(|e| format!("reload dataset: {e}"))?;
    let pairs = pairs_of(&args.workload);
    let engines = pairs.iter().map(|&(e, _)| (e, engine_of(e))).collect();
    let mut env = Env {
        dataset,
        store,
        engines,
        pairs,
        workers: host::parallelism(),
        generate_s,
    };
    let order: Vec<usize> = (0..pairs.len()).collect();
    let warm = run_pass(&mut env, &order, false, None)?;
    if let Some(run) = warm.runs.iter().find(|r| r.failure.is_some()) {
        return Err(format!(
            "warm-up {}×{}: {}",
            run.engine,
            run.query,
            run.failure.as_ref().unwrap()
        ));
    }
    Ok(env)
}

fn teardown(env: Env) -> Result<(), String> {
    env.store
        .destroy()
        .map_err(|e| format!("remove store: {e}"))
}

/// One pass over the pair list in `order`. With a recorder, spans are
/// recorded inside the pass, so that their cost is inside its wall time.
fn run_pass(
    env: &mut Env,
    order: &[usize],
    validate: bool,
    trace: Option<(&Recorder, u64)>,
) -> Result<Pass, String> {
    let Env {
        dataset,
        store,
        engines,
        pairs,
        workers,
        ..
    } = env;
    let vcd = Vcd::new(
        dataset,
        VcdConfig {
            validate,
            write_store: Some(store.clone()),
            batch_workers: Some(*workers),
            pipeline_workers: Some(1),
            ..VcdConfig::default()
        },
    );
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let pass_span = trace.map(|(rec, op)| rec.begin("pass", None, op, start));
    let mut runs = Vec::with_capacity(order.len());
    for &i in order {
        let (engine, query) = pairs[i];
        let engine_box = engines
            .get_mut(engine)
            .expect("an engine per declared token");
        let t0 = Instant::now();
        let report = vcd
            .run_queries(engine_box.as_mut(), &[kind_of(query)])
            .map_err(|e| format!("run_queries {engine}×{query}: {e}"))?;
        let t1 = Instant::now();
        let row = &report.queries[0];
        let mut run = PairRun {
            engine,
            query,
            wall_ns: (t1 - t0).as_nanos() as u64,
            instances: row.batch_size as u64,
            instance_ns: 0,
            stages: PipelineSnapshot::default(),
            failure: None,
        };
        match &row.status {
            QueryStatus::Completed {
                stages,
                scheduler,
                validation,
                degradation,
                ..
            } => {
                run.stages = *stages;
                run.instance_ns = scheduler.mean_instance_nanos * scheduler.instances as u64;
                if scheduler.instances != row.batch_size
                    || degradation.failed_instances + degradation.cancelled_instances > 0
                {
                    run.failure = Some(format!(
                        "{} of {} instances completed",
                        scheduler.instances, row.batch_size
                    ));
                } else if validate && !validation.passed {
                    run.failure = Some(format!("validation did not PASS: {validation:?}"));
                }
            }
            QueryStatus::Unsupported => run.failure = Some("unsupported".into()),
            QueryStatus::Failed { error } => run.failure = Some(error.clone()),
        }
        if let (Some((rec, op)), Some(parent)) = (trace, pass_span) {
            record_run(rec, parent, op, &run, *workers, t0, t1);
        }
        runs.push(run);
    }
    let end = Instant::now();
    if let (Some((rec, _)), Some(id)) = (trace, pass_span) {
        rec.finish(id, end);
    }
    Ok(Pass {
        wall_s: (end - start).as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu0,
        runs,
    })
}

/// pass → run_queries(engine, query) → instances → stages. The last two
/// levels are what the report said, spread over the scheduler's workers so
/// that they fit inside the call that produced them: `run_queries` minus
/// `instances` is the driver's own time, `instances` minus its stages is
/// the engines' time outside any stage.
fn record_run(
    rec: &Recorder,
    pass: SpanId,
    op: u64,
    run: &PairRun,
    workers: usize,
    t0: Instant,
    t1: Instant,
) {
    let call = rec.add(
        format!("run_queries({},{})", run.engine, run.query),
        Some(pass),
        op,
        t0,
        t1,
    );
    let per_worker = |nanos: u64| nanos / workers.max(1) as u64;
    let instances = rec.add_synthetic("instances", call, 0, per_worker(run.instance_ns));
    let mut offset = 0;
    for kind in StageKind::ALL {
        let nanos = per_worker(run.stages.stage(kind).nanos);
        rec.add_synthetic(format!("stage.{}", kind.label()), instances, offset, nanos);
        offset += nanos;
    }
}

/// The seeded order of one pass's pairs.
fn pass_order(rng: &mut visual_road::base::VrRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

fn count(out: &mut Outcome, pass: &Pass) {
    for run in &pass.runs {
        out.attempted += run.instances;
        if let Some(why) = &run.failure {
            out.failed += run.instances;
            out.problem(format!("{}×{}: {why}", run.engine, run.query));
        }
    }
}

pub fn run(args: &RunArgs, process_start: Instant, out: &mut Outcome) -> Result<(), String> {
    let mut serial = 0;
    let mut env = workload::measure_setup(
        args,
        process_start,
        out,
        || {
            serial += 1;
            setup(args, serial).map(|env| (env, 0.0))
        },
        teardown,
    )?;
    let result = measure(args, &mut env, out);
    teardown(env)?;
    result
}

fn measure(args: &RunArgs, env: &mut Env, out: &mut Outcome) -> Result<(), String> {
    let mut rng = visual_road::base::VrRng::seed_from(args.seed);
    let recorder = Recorder::new();
    let n = env.pairs.len();
    let workers = env.workers;

    // The timed window: whole passes until `--seconds` have gone by, and
    // never fewer than the workload's floor. A traced run records spans on
    // every other pass, so the two halves give the cost of recording.
    let min_passes = match args.workload.as_str() {
        "batch_codec" => args.sizes.min_codec_passes,
        _ => args.sizes.min_vision_passes,
    };
    let mut passes: Vec<(Pass, bool)> = Vec::new();
    let window = Instant::now();
    while passes.len() < min_passes || window.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && passes.len().is_multiple_of(2);
        let order = pass_order(&mut rng, n);
        let trace = traced.then_some((&recorder, passes.len() as u64));
        passes.push((run_pass(env, &order, false, trace)?, traced));
    }
    let window_s = window.elapsed().as_secs_f64();
    let cpu_s: f64 = passes.iter().map(|(p, _)| p.cpu_s).sum();
    for (pass, _) in &passes {
        count(out, pass);
    }

    // Correctness gate: one validated pass must PASS on every pair.
    let order: Vec<usize> = (0..n).collect();
    let gate = run_pass(env, &order, true, None)?;
    count(out, &gate);

    let walls: Vec<f64> = passes.iter().map(|(p, _)| p.wall_s).collect();
    let pass_wall = stats::median(&walls);
    let instances: u64 = passes.iter().map(|(p, _)| p.instances()).sum();
    out.note(format!(
        "{} timed passes of {n} pairs ({} instances each) in {window_s:.2} s on {workers} batch workers",
        passes.len(),
        instances / passes.len() as u64,
    ));

    if !args.trace {
        out.set_median("pass_wall_s", &walls);
        // A batch workload's "request" is one `run_queries` call: the
        // median call per pair, then the median over the pairs, so that
        // every pair counts once whatever its share of the pass.
        let mut calls: BTreeMap<_, Vec<f64>> = BTreeMap::new();
        for run in passes.iter().flat_map(|(p, _)| &p.runs) {
            calls
                .entry((run.engine, run.query))
                .or_default()
                .push(run.wall_ns as f64 / 1e6);
        }
        let per_pair: Vec<f64> = calls.values().map(|ms| stats::median(ms)).collect();
        out.set_median("req_p50_ms", &per_pair);
        // The same information as `pass_wall_s`, kept so that every
        // workload prints every metric.
        let per_pass = instances as f64 / passes.len() as f64;
        out.set("sat_qps", per_pass / pass_wall);
        return Ok(());
    }

    out.set("proc.cpu_s_per_pass", cpu_s / passes.len() as f64);
    let stage_sets: [(&str, &[StageKind]); 4] = [
        ("vdbms.decode_s", &[StageKind::Decode]),
        ("vdbms.kernel_s", &[StageKind::Kernel]),
        ("vdbms.encode_s", &[StageKind::Encode]),
        ("vdbms.scan_sink_s", &[StageKind::Scan, StageKind::Sink]),
    ];
    let mut stage_total = 0.0;
    for (name, kinds) in stage_sets {
        let per_pass: Vec<f64> = passes.iter().map(|(p, _)| p.stage_s(kinds)).collect();
        out.set_median(name, &per_pass);
        stage_total += stats::median(&per_pass);
    }
    let instance_s = stats::median(
        &passes
            .iter()
            .map(|(p, _)| p.instance_s())
            .collect::<Vec<_>>(),
    );
    let all_stage: f64 = passes.iter().map(|(p, _)| p.stage_s(&StageKind::ALL)).sum();
    let all_instance: f64 = passes.iter().map(|(p, _)| p.instance_s()).sum();
    out.set(
        "vdbms.residual_share",
        1.0 - all_stage / all_instance.max(1e-12),
    );
    let overhead: Vec<f64> = passes
        .iter()
        .map(|(p, _)| (p.wall_s - p.instance_s() / workers as f64) / p.wall_s)
        .collect();
    out.set_median("vcd.driver_overhead_share", &overhead);
    out.set("vcd.validate_s", gate.wall_s - pass_wall);
    // The layers sum: worker-seconds of a pass = stages + the engines'
    // time outside any stage + the driver's own time and idle workers.
    let worker_s = pass_wall * workers as f64;
    out.note(format!(
        "accounting per pass: pass_wall {pass_wall:.4} s × {workers} workers = {worker_s:.4} worker-s \
         = stages {stage_total:.4} + engine residual {:.4} + driver and idle {:.4}",
        instance_s - stage_total,
        worker_s - instance_s,
    ));
    let on: Vec<f64> = passes
        .iter()
        .filter(|(_, t)| *t)
        .map(|(p, _)| p.wall_s)
        .collect();
    let off: Vec<f64> = passes
        .iter()
        .filter(|(_, t)| !*t)
        .map(|(p, _)| p.wall_s)
        .collect();
    if !on.is_empty() && !off.is_empty() {
        out.set(
            "obs.trace_overhead_share",
            stats::median(&on) / stats::median(&off) - 1.0,
        );
        out.note(format!(
            "trace overhead: traced passes {:.4} s vs untraced {:.4} s (medians of {} and {})",
            stats::median(&on),
            stats::median(&off),
            on.len(),
            off.len()
        ));
    }

    // One timed `Vdbms::execute` per instance of each pair, on a fresh
    // engine, one pipeline worker, results discarded.
    let vcd = Vcd::new(&env.dataset, VcdConfig::default());
    for &(engine, query) in env.pairs {
        let t0 = Instant::now();
        let ms = crate::probes::exec_ms(&vcd, &env.dataset, engine, kind_of(query))?;
        out.set_median(&exec_metric(engine, query), &ms);
        recorder.add(
            format!("probe.exec({engine},{query})"),
            None,
            u64::MAX,
            t0,
            Instant::now(),
        );
    }
    crate::probes::layers(&env.dataset, env.generate_s, args, &recorder, out)?;
    workload::write_trace(&args.workload, &recorder, out)
}
