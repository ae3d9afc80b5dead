//! Engine-parity suite for the shared physical-operator pipeline.
//!
//! All four executors (reference, batch, functional, cascade) now run
//! through `vr_vdbms::pipeline`. These tests pin the contract that the
//! refactor must not change observable behaviour: every engine still
//! passes frame (PSNR) and semantic validation on every query it
//! supports, the cascade engine still reports N/A — not failure — on
//! the queries it cannot express, and the pipeline's per-operator
//! metrics surface through the benchmark report.

use visual_road::prelude::*;
use visual_road::vdbms::StageKind;

mod common;
use common::tiny_dataset;

/// Every engine, on every query it `supports()`, still validates
/// against the reference implementation. The two paper-mandated
/// divergences are pinned explicitly: batch fails Q4 at runtime with
/// resource exhaustion (Scanner, §6.2) and cascade reports everything
/// outside Q1/Q2(c) as unsupported (NoScope, Table 1).
#[test]
fn every_engine_validates_on_every_supported_query() {
    let dataset = tiny_dataset(41);
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(1), ..Default::default() });
    let engines: Vec<(&str, Box<dyn Vdbms>)> = vec![
        ("reference", Box::new(ReferenceEngine::new())),
        ("batch", Box::new(BatchEngine::new())),
        ("functional", Box::new(FunctionalEngine::new())),
        ("cascade", Box::new(CascadeEngine::new())),
    ];
    for (name, mut engine) in engines {
        let report = vcd.run_full_benchmark(engine.as_mut()).unwrap();
        assert_eq!(report.queries.len(), QueryKind::ALL.len());
        for q in &report.queries {
            match &q.status {
                QueryStatus::Completed { validation, .. } => {
                    assert!(
                        validation.passed,
                        "{} failed validation on {name}: {validation:?}",
                        q.kind.label()
                    );
                }
                QueryStatus::Unsupported => {
                    assert_eq!(
                        name, "cascade",
                        "{} unexpectedly unsupported on {name}",
                        q.kind.label()
                    );
                    assert!(
                        !matches!(q.kind, QueryKind::Q1Select | QueryKind::Q2cBoxes),
                        "cascade must support {}",
                        q.kind.label()
                    );
                }
                QueryStatus::Failed { error } => {
                    // The only sanctioned runtime failure: the batch
                    // dataflow exhausting memory on Q4 upsampling.
                    assert_eq!(name, "batch", "{} failed on {name}: {error}", q.kind.label());
                    assert_eq!(q.kind, QueryKind::Q4Upsample, "batch failed {error}");
                    assert!(error.contains("materialize"), "unexpected Q4 error: {error}");
                }
            }
        }
    }
}

/// The tentpole contract of the parallel executor: with the pipeline
/// fanned out to four workers, every engine produces *byte-identical*
/// output to its sequential run on every query it supports — and the
/// sanctioned failure (batch Q4) raises the same error. Fresh engines
/// per run keep caches from leaking between the two configurations.
#[test]
fn parallel_execution_is_bit_identical_to_sequential() {
    use visual_road::vdbms::ExecContext;
    let dataset = tiny_dataset(44);
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(1), ..Default::default() });
    let factories: Vec<(&str, fn() -> Box<dyn Vdbms>)> = vec![
        ("reference", || Box::new(ReferenceEngine::new())),
        ("batch", || Box::new(BatchEngine::new())),
        ("functional", || Box::new(FunctionalEngine::new())),
        ("cascade", || Box::new(CascadeEngine::new())),
    ];
    for (name, factory) in factories {
        for kind in QueryKind::ALL {
            if !factory().supports(kind) {
                continue;
            }
            let batch = vcd.batch(kind).unwrap();
            let run = |workers: usize| -> Vec<Result<String, String>> {
                let engine = factory();
                let ctx = ExecContext { workers, ..ExecContext::default() };
                batch
                    .iter()
                    .map(|inst| {
                        engine
                            .execute(inst, &dataset.videos, &ctx)
                            .map(|out| format!("{out:?}"))
                            .map_err(|e| e.to_string())
                    })
                    .collect()
            };
            let seq = run(1);
            let par = run(4);
            assert_eq!(seq, par, "{name} diverged on {}", kind.label());
        }
    }
}

/// The driver's concurrent batch scheduler reports the same frames,
/// bytes, and validation verdicts as the classic sequential loop, and
/// its per-instance latency accounting lands in the report.
#[test]
fn concurrent_batch_scheduler_matches_sequential_driver() {
    let dataset = tiny_dataset(45);
    let run = |batch_workers: usize| {
        let vcd = Vcd::new(
            &dataset,
            VcdConfig {
                batch_size: Some(3),
                batch_workers: Some(batch_workers),
                pipeline_workers: Some(1),
                instance_deadline: Some(std::time::Duration::from_secs(3600)),
                ..Default::default()
            },
        );
        let mut engine = ReferenceEngine::new();
        vcd.run_queries(&mut engine, &[QueryKind::Q1Select, QueryKind::Q2cBoxes]).unwrap()
    };
    let seq = run(1);
    let par = run(4);
    for (a, b) in seq.queries.iter().zip(&par.queries) {
        let (
            QueryStatus::Completed {
                frames: fa,
                bytes_written: ba,
                validation: va,
                scheduler: sa,
                ..
            },
            QueryStatus::Completed {
                frames: fb,
                bytes_written: bb,
                validation: vb,
                scheduler: sb,
                ..
            },
        ) = (&a.status, &b.status)
        else {
            panic!("{} did not complete under both schedulers", a.kind.label());
        };
        assert!(va.passed && vb.passed, "{} failed validation", a.kind.label());
        assert_eq!(fa, fb, "{}", a.kind.label());
        assert_eq!(ba, bb, "{}", a.kind.label());
        assert_eq!(sa.workers, 1);
        // Four requested workers clamp to the three-instance batch.
        assert_eq!(sb.workers, 3);
        assert_eq!((sa.instances, sb.instances), (3, 3));
        for s in [sa, sb] {
            assert!(s.max_instance_nanos > 0);
            assert!(s.mean_instance_nanos <= s.max_instance_nanos);
            assert_eq!(s.deadline_misses, 0, "hour-long deadline never misses");
        }
    }
}

/// A deliberately-impossible deadline is charged to every instance —
/// accounting only; execution still completes and validates.
#[test]
fn scheduler_counts_deadline_misses() {
    let dataset = tiny_dataset(46);
    let vcd = Vcd::new(
        &dataset,
        VcdConfig {
            batch_size: Some(2),
            batch_workers: Some(2),
            instance_deadline: Some(std::time::Duration::from_nanos(1)),
            ..Default::default()
        },
    );
    let mut engine = ReferenceEngine::new();
    let report = vcd.run_queries(&mut engine, &[QueryKind::Q1Select]).unwrap();
    let QueryStatus::Completed { scheduler, validation, .. } = &report.queries[0].status
    else {
        panic!("Q1 did not complete");
    };
    assert!(validation.passed);
    assert_eq!(scheduler.instances, 2);
    assert_eq!(scheduler.deadline_misses, 2);
}

/// The pipeline's per-operator metrics are populated for the pixel
/// queries (Q1–Q5): every completed query decoded frames, spent
/// kernel time, and encoded output bytes.
#[test]
fn stage_metrics_are_recorded_for_pixel_queries() {
    let dataset = tiny_dataset(42);
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(1), ..Default::default() });
    let kinds = [
        QueryKind::Q1Select,
        QueryKind::Q2aGrayscale,
        QueryKind::Q2bBlur,
        QueryKind::Q2cBoxes,
        QueryKind::Q2dMasking,
        QueryKind::Q3Subquery,
        QueryKind::Q4Upsample,
        QueryKind::Q5Downsample,
    ];
    let mut engine = FunctionalEngine::new();
    let report = vcd.run_queries(&mut engine, &kinds).unwrap();
    for q in &report.queries {
        let QueryStatus::Completed { stages, .. } = &q.status else {
            panic!("{} did not complete: {:?}", q.kind.label(), q.status);
        };
        let decode = stages.stage(StageKind::Decode);
        let kernel = stages.stage(StageKind::Kernel);
        let encode = stages.stage(StageKind::Encode);
        assert!(decode.frames > 0, "{}: no frames decoded", q.kind.label());
        assert!(decode.nanos > 0, "{}: no decode time", q.kind.label());
        assert!(kernel.nanos > 0, "{}: no kernel time", q.kind.label());
        assert!(encode.frames > 0, "{}: no frames encoded", q.kind.label());
        assert!(encode.bytes > 0, "{}: no bytes encoded", q.kind.label());
    }
}

/// The batch engine's eager materialization shows up as decode work
/// charged on a cache miss, and the rendered report carries a
/// per-stage line under every completed query row.
#[test]
fn report_renders_per_stage_timings() {
    let dataset = tiny_dataset(43);
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(1), ..Default::default() });
    let mut engine = BatchEngine::new();
    let report = vcd
        .run_queries(&mut engine, &[QueryKind::Q1Select, QueryKind::Q5Downsample])
        .unwrap();
    let text = report.to_string();
    assert_eq!(text.matches("stages: decode").count(), 2, "one stage line per row:\n{text}");
    for q in &report.queries {
        let QueryStatus::Completed { stages, .. } = &q.status else {
            panic!("{} did not complete: {:?}", q.kind.label(), q.status);
        };
        assert!(stages.stage(StageKind::Kernel).nanos > 0, "{}", q.kind.label());
        assert!(stages.stage(StageKind::Sink).invocations > 0, "{}", q.kind.label());
    }
}
