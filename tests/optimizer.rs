//! Cost-based optimizer suite: plan choices are deterministic, the
//! cost model's estimates stay within sane error bounds on the CI
//! query set, EXPLAIN surfaces the chosen-vs-rejected candidate table,
//! and EXPLAIN ANALYZE reports the estimate-vs-measured error.

use visual_road::prelude::*;
use visual_road::vdbms::OptimizerMode;

mod common;
use common::tiny_dataset;

fn optimized_config() -> VcdConfig {
    VcdConfig {
        validate: false,
        batch_size: Some(2),
        pipeline_workers: Some(1),
        batch_workers: Some(1),
        optimizer: OptimizerMode::On,
        ..Default::default()
    }
}

/// Two identical runs make identical plan choices with identical
/// estimates: an estimate is a function of the profile and the query,
/// never of a measured latency.
#[test]
fn plan_choices_are_deterministic_across_runs() {
    let dataset = tiny_dataset(61);
    let kinds = [QueryKind::Q2cBoxes];
    let run = || {
        let vcd = Vcd::new(&dataset, optimized_config());
        let mut engine = BatchEngine::new();
        vcd.run_queries(&mut engine, &kinds).unwrap();
        vcd.optimizer()
            .expect("config enabled the optimizer")
            .decisions()
            .into_iter()
            .map(|d| (d.key, d.chosen.label(), d.chosen.est_nanos))
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty(), "no plan decisions recorded");
    assert_eq!(a, b, "plan choices diverged between identical runs");
}

/// On the CI query set the cost model's per-instance estimate stays
/// within generous bounds of the measured latency — the model need not
/// be precise, but an estimate 25x off would mis-rank real candidates.
#[test]
fn estimates_stay_within_error_bounds_on_ci_queries() {
    let dataset = tiny_dataset(62);
    let vcd = Vcd::new(&dataset, optimized_config());
    let mut engine = BatchEngine::new();
    let report = vcd.run_queries(&mut engine, &[QueryKind::Q2cBoxes]).unwrap();
    let QueryStatus::Completed { scheduler, .. } = &report.queries[0].status else {
        panic!("Q2(c) did not complete: {report}");
    };
    let measured = scheduler.mean_instance_nanos.max(1);
    let opt = vcd.optimizer().unwrap();
    let mut checked = 0;
    for d in opt.decisions() {
        let est = d.chosen.est_nanos;
        let ratio = est.max(1) as f64 / measured as f64;
        assert!(
            (1.0 / 25.0..=25.0).contains(&ratio),
            "{}: estimate {est}ns vs measured {measured}ns (ratio {ratio:.3})",
            d.key
        );
        checked += 1;
    }
    assert_eq!(checked, 1, "expected one decision per CI query");
}

/// EXPLAIN grows the optimizer's candidate table: the chosen plan
/// marked with an arrow, every rejected candidate with its relative
/// overrun. Snapshot of the rendering contract the CLI prints.
#[test]
fn explain_renders_chosen_and_rejected_plans() {
    let dataset = tiny_dataset(63);
    // Q2(c) weighs the framework path against the cascade order, so
    // one of the two is a rejected row to render.
    let vcd = Vcd::new(&dataset, optimized_config());
    let plans = vcd.explain(&BatchEngine::new(), &[QueryKind::Q2cBoxes]).unwrap();
    let (kind, text) = &plans[0];
    assert_eq!(*kind, QueryKind::Q2cBoxes);
    assert!(
        text.contains("plans considered (cost-based optimizer):"),
        "missing candidate table:\n{text}"
    );
    assert!(text.contains("  -> "), "no chosen marker:\n{text}");
    assert!(text.contains("rejected (+"), "no rejected rows with overrun:\n{text}");
    // The chosen row carries the policy label and an estimate.
    let chosen_line = text
        .lines()
        .find(|l| l.trim_start().starts_with("->"))
        .expect("chosen row");
    assert!(chosen_line.contains("est "), "no estimate in: {chosen_line}");
    assert!(chosen_line.ends_with("chosen"), "chosen tail missing: {chosen_line}");
}

/// The known-good pick: on temporally-coherent generated video, the
/// batch engine's Q2(c) plan must take the short-circuit cascade order
/// — on `tiny_dataset`, and at the 256x144 shape the old optimizer
/// gate benchmarked (Q2(c) over 12 frames at four workers), decided
/// through `plan` as an engine does.
#[test]
fn optimizer_picks_cascade_skip_order_for_q2c() {
    let dataset = tiny_dataset(64);
    let vcd = Vcd::new(&dataset, optimized_config());
    let mut engine = BatchEngine::new();
    vcd.run_queries(&mut engine, &[QueryKind::Q2cBoxes]).unwrap();
    let opt = vcd.optimizer().unwrap();
    let q2c = opt.decision("batch (Scanner-like)/Q2(c)").expect("Q2(c) decision");
    assert!(
        q2c.chosen.label().contains("short-circuit"),
        "Q2(c) chose [{}] over the cascade-skip order",
        q2c.chosen.label()
    );

    use std::sync::Arc;
    use visual_road::vdbms::{
        CalibrationProfile, ExecContext, Optimizer, QueryInstance, QuerySpec, Workload,
    };
    let pick = |frames: u64, spec: QuerySpec| {
        let opt = Arc::new(
            Optimizer::new(CalibrationProfile::builtin())
                .with_workload(Workload { width: 256, height: 144, frames }),
        );
        let ctx = ExecContext { workers: 4, optimizer: Some(opt.clone()), ..Default::default() };
        let q = QueryInstance { index: 0, spec, inputs: vec![0] };
        let engine = BatchEngine::new();
        let _ = engine.plan(&q, &ctx);
        opt.decision(&engine.plan_key(&q)).expect("plan records a decision").chosen
    };
    let vehicle = visual_road::scene::ObjectClass::Vehicle;
    let q2c = pick(12, QuerySpec::Q2c { class: vehicle });
    assert!(q2c.label().contains("short-circuit"), "Q2(c) at 12 frames chose [{}]", q2c.label());
}

/// EXPLAIN ANALYZE reports the estimate-vs-measured error for the
/// executed plan: the decision's own estimate against the batch's mean
/// instance latency.
#[test]
fn explain_analyze_reports_estimate_vs_measured_error() {
    let dataset = tiny_dataset(65);
    let vcd = Vcd::new(
        &dataset,
        VcdConfig { explain: ExplainMode::Analyze, ..optimized_config() },
    );
    let mut engine = BatchEngine::new();
    let report = vcd.run_queries(&mut engine, &[QueryKind::Q2cBoxes]).unwrap();
    let QueryStatus::Completed { explain: Some(explain), .. } = &report.queries[0].status
    else {
        panic!("Q2(c) did not complete with an explain artifact");
    };
    assert!(
        explain.text.contains("plans considered (cost-based optimizer):"),
        "analyzed plan lost the candidate table:\n{}",
        explain.text
    );
    assert!(
        explain.text.contains("optimizer: est "),
        "no estimate-vs-measured line:\n{}",
        explain.text
    );
    assert!(
        explain.text.contains("error "),
        "no relative error in:\n{}",
        explain.text
    );
    let key = engine.plan_key(&vcd.batch(QueryKind::Q2cBoxes).unwrap()[0]);
    let decision = vcd.optimizer().unwrap().decision(&key).expect("Q2(c) decision");
    let est = visual_road::vdbms::cost::fmt_cost(decision.chosen.est_nanos);
    assert!(
        explain.text.contains(&format!("optimizer: est {est} vs measured ")),
        "the printed estimate is not the decision's {est}:\n{}",
        explain.text
    );
}

/// One engine's run leaves another engine's estimate alone: the
/// cascade's Q2(c) estimate after a batch-engine Q2(c) run on the same
/// driver is the one a fresh driver makes for the cascade alone.
#[test]
fn one_engines_run_does_not_move_another_engines_estimate() {
    let dataset = tiny_dataset(67);
    let cascade_estimate = |vcd: &Vcd| {
        let mut cascade = CascadeEngine::new();
        vcd.run_queries(&mut cascade, &[QueryKind::Q2cBoxes]).unwrap();
        let key = cascade.plan_key(&vcd.batch(QueryKind::Q2cBoxes).unwrap()[0]);
        vcd.optimizer().unwrap().decision(&key).expect("cascade Q2(c) decision").chosen.est_nanos
    };
    let shared = Vcd::new(&dataset, optimized_config());
    shared.run_queries(&mut BatchEngine::new(), &[QueryKind::Q2cBoxes]).unwrap();
    let after_batch = cascade_estimate(&shared);
    let alone = cascade_estimate(&Vcd::new(&dataset, optimized_config()));
    assert_eq!(after_batch, alone, "the batch engine's run moved the cascade's estimate");
}

/// With the optimizer off, no decisions exist and plans keep the
/// hand-tuned defaults — the off switch genuinely disables the path.
#[test]
fn optimizer_off_records_no_decisions() {
    let dataset = tiny_dataset(66);
    let vcd = Vcd::new(
        &dataset,
        VcdConfig { optimizer: OptimizerMode::Off, ..optimized_config() },
    );
    assert!(vcd.optimizer().is_none());
    let mut engine = BatchEngine::new();
    let report = vcd.run_queries(&mut engine, &[QueryKind::Q2cBoxes]).unwrap();
    assert!(matches!(report.queries[0].status, QueryStatus::Completed { .. }));
    let plans = vcd.explain(&BatchEngine::new(), &[QueryKind::Q2cBoxes]).unwrap();
    assert!(
        !plans[0].1.contains("plans considered"),
        "optimizer table rendered with the optimizer off"
    );
}

/// The server seeds its optimizer from the builtin profile, and the
/// benchmark's `serve_semantic` workload requires `route=index` for
/// S1-S3. The route weighs an index probe against a metadata rescan —
/// neither side decodes a pixel — so re-seeding the codec's per-pixel
/// costs must leave it where it was. Pinned on the benchmark's dataset.
#[test]
fn semantic_queries_take_the_index_route_under_the_builtin_profile() {
    use visual_road::semantic::{decide_route, ingest_dataset};
    use visual_road::vdbms::{CalibrationProfile, Optimizer};
    let hyper =
        Hyperparameters::new(1, Resolution::new(192, 108), Duration::from_secs(1.0), 42).unwrap();
    let dataset = Vcg::new(GenConfig::default()).generate(&hyper).unwrap();
    let (index, _) = ingest_dataset(&dataset).unwrap();
    let opt = Optimizer::new(CalibrationProfile::builtin());
    for label in ["s1", "s2", "s3"] {
        let key = format!("semantic/{label}");
        assert!(
            decide_route(&opt, &key, &dataset, Some(index.len() as u64)),
            "{label} must be index-served:\n{}",
            opt.decision(&key).map(|d| d.render_text()).unwrap_or_default()
        );
    }
    // With no index the only candidate is the rescan.
    assert!(!decide_route(&opt, "semantic/unindexed", &dataset, None));
}
