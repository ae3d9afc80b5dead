//! End-to-end benchmark runs: the full query suite through the VCD on
//! a generated dataset.

use visual_road::prelude::*;
use visual_road::QueryStatus;

mod common;
use common::tiny_dataset;

/// Every benchmark query completes and validates on the reference
/// engine.
#[test]
fn full_benchmark_on_reference_engine() {
    let dataset = tiny_dataset(99);
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(2), ..Default::default() });
    let mut engine = ReferenceEngine::new();
    let report = vcd.run_full_benchmark(&mut engine).unwrap();
    assert_eq!(report.queries.len(), 14);
    for q in &report.queries {
        match &q.status {
            QueryStatus::Completed { validation, frames, fps, .. } => {
                assert!(*frames > 0, "{} processed no frames", q.kind.label());
                assert!(*fps > 0.0);
                assert!(
                    validation.passed,
                    "{} failed validation: {validation:?}",
                    q.kind.label()
                );
            }
            other => panic!("{} did not complete: {other:?}", q.kind.label()),
        }
    }
    // The rendered report mentions every query.
    let text = report.to_string();
    for q in &report.queries {
        assert!(text.contains(q.kind.label()), "report misses {}", q.kind.label());
    }
}

/// The batch engine completes everything except Q4 (which exhausts
/// memory, §6.2).
#[test]
fn full_benchmark_on_batch_engine() {
    let dataset = tiny_dataset(99);
    let vcd = Vcd::new(
        &dataset,
        VcdConfig { batch_size: Some(1), validate: false, ..Default::default() },
    );
    let mut engine = BatchEngine::new();
    let report = vcd.run_full_benchmark(&mut engine).unwrap();
    for q in &report.queries {
        match q.kind {
            QueryKind::Q4Upsample => assert!(
                matches!(q.status, QueryStatus::Failed { .. }),
                "Q4 should fail on the batch engine"
            ),
            _ => assert!(
                matches!(q.status, QueryStatus::Completed { .. }),
                "{} should complete on the batch engine: {:?}",
                q.kind.label(),
                q.status
            ),
        }
    }
}

/// The functional engine completes the full suite at this scale (its
/// device pool only exhausts past 40 Q3/Q4 videos).
#[test]
fn full_benchmark_on_functional_engine() {
    let dataset = tiny_dataset(99);
    let vcd = Vcd::new(
        &dataset,
        VcdConfig { batch_size: Some(1), validate: false, ..Default::default() },
    );
    let mut engine = FunctionalEngine::new();
    let report = vcd.run_full_benchmark(&mut engine).unwrap();
    for q in &report.queries {
        assert!(
            matches!(q.status, QueryStatus::Completed { .. }),
            "{} on functional engine: {:?}",
            q.kind.label(),
            q.status
        );
    }
}

/// Quiescing between batches releases the functional engine's device
/// pool — the paper's "two batches" workaround for Q3/Q4 at L=16.
#[test]
fn functional_device_pool_workaround() {
    let dataset = tiny_dataset(99);
    // Batch larger than the configured pool.
    let vcd = Vcd::new(
        &dataset,
        VcdConfig { batch_size: Some(3), validate: false, ..Default::default() },
    );
    let mut engine = visual_road::vdbms::FunctionalEngine::with_config(
        visual_road::vdbms::functional::FunctionalConfig {
            device_video_slots: 2,
            ..Default::default()
        },
    );
    // 3 instances against a 2-slot pool: the batch may fail if all
    // three instances draw distinct inputs. With one tile there are 4
    // traffic videos, so collisions are possible; force distinctness
    // by checking the actual outcome both ways.
    let report = vcd.run_queries(&mut engine, &[QueryKind::Q4Upsample]).unwrap();
    match &report.queries[0].status {
        QueryStatus::Failed { error } => {
            assert!(error.contains("device memory"), "unexpected failure: {error}")
        }
        QueryStatus::Completed { .. } => {
            // All three instances happened to share ≤2 inputs — the
            // pool held. Verify the engine indeed tracked them.
            assert!(engine.device_slots_used() <= 2);
        }
        other => panic!("{other:?}"),
    }
    // After a quiesce the pool is empty and a fresh batch succeeds.
    visual_road::vdbms::Vdbms::quiesce(&mut engine);
    assert_eq!(engine.device_slots_used(), 0);
}

/// Reports carry the benchmark's "global elections" (§3.2): scale,
/// resolution, duration, and mode.
#[test]
fn report_carries_global_elections() {
    let dataset = tiny_dataset(99);
    let vcd = Vcd::new(
        &dataset,
        VcdConfig { batch_size: Some(1), validate: false, ..Default::default() },
    );
    let mut engine = ReferenceEngine::new();
    let report = vcd.run_queries(&mut engine, &[QueryKind::Q1Select]).unwrap();
    assert_eq!(report.scale, 1);
    assert_eq!(report.resolution, "128x72");
    assert!((report.duration_secs - 0.4).abs() < 1e-9);
    assert_eq!(report.mode, "offline/streaming");
}
