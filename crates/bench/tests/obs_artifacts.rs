//! The observability readers over the artifacts of an in-process run
//! of every engine on Q1 and Q2(c): the chrome trace of a traced run
//! at four workers, and the chrome trace of
//! an EXPLAIN ANALYZE run at one worker, the regime where per-node
//! self times must sum to no more than the wall time (every plan is
//! checked for that, and the trace's spans must nest on every track).
//! `tests/cli.rs` reads the plans the binary writes.

use std::path::Path;

use visual_road::base::obs::{alloc, trace};
use visual_road::prelude::*;

#[path = "../../../tests/common/mod.rs"]
mod common;
use common::tiny_dataset;

/// Every engine over Q1 and Q2(c), batches of two, no validation; the
/// EXPLAIN text of every completed query.
fn run_all_engines(dataset: &Dataset, workers: usize, explain: ExplainMode) -> Vec<String> {
    let vcd = Vcd::new(
        dataset,
        VcdConfig {
            validate: false,
            batch_size: Some(2),
            pipeline_workers: Some(workers),
            batch_workers: Some(workers),
            explain,
            ..Default::default()
        },
    );
    let engines: [Box<dyn Vdbms>; 4] = [
        Box::new(ReferenceEngine::new()),
        Box::new(BatchEngine::new()),
        Box::new(FunctionalEngine::new()),
        Box::new(CascadeEngine::new()),
    ];
    let mut plans = Vec::new();
    for mut engine in engines {
        let report =
            vcd.run_queries(engine.as_mut(), &[QueryKind::Q1Select, QueryKind::Q2cBoxes]).unwrap();
        for q in &report.queries {
            if let QueryStatus::Completed { explain: Some(info), .. } = &q.status {
                assert_eq!(info.verify_error, None, "{} {}: {}", report.engine, q.kind.label(), info.text);
                plans.push(info.text.clone());
            }
        }
    }
    plans
}

#[test]
fn traces_and_plans_validate() {
    let dataset = tiny_dataset(0);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs-artifacts");
    std::fs::create_dir_all(&dir).unwrap();
    let (trace_json, analyzed) = (dir.join("trace.json"), dir.join("analyzed.json"));

    trace::set_enabled(true);
    run_all_engines(&dataset, 4, ExplainMode::Off);
    trace::set_enabled(false);
    trace::save(trace_json.to_str().unwrap()).unwrap();
    trace::drain();

    alloc::set_tracking(true);
    trace::set_enabled(true);
    let plans = run_all_engines(&dataset, 1, ExplainMode::Analyze);
    trace::set_enabled(false);
    trace::save(analyzed.to_str().unwrap()).unwrap();
    assert!(!plans.is_empty(), "no EXPLAIN ANALYZE plans");

    // What `trace_check` checks, with its default required spans.
    let read = |p: &Path| std::fs::read_to_string(p).unwrap();
    let stages = ["scan", "decode", "kernel", "encode", "sink"];
    trace::validate(&read(&trace_json), "trace.json", &stages).unwrap();
    trace::validate(&read(&analyzed), "analyzed.json", &stages).unwrap();
}
