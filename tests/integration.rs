//! Cross-crate integration tests: engines agree with the reference
//! implementation, datasets carry what queries need, and the driver's
//! plumbing (batching, modes, ingest) composes.

use visual_road::prelude::*;
use visual_road::storage::FlatStore;
use visual_road::vdbms::query::{QueryInstance, QuerySpec};
use visual_road::vdbms::{ExecContext, OutputBox, QueryKind, QueryOutput, Vdbms};
use vr_frame::metrics::psnr_y;

mod common;
use common::tiny_dataset;

/// Engines must produce outputs within the 40 dB frame-validation
/// threshold of the reference implementation for the pixel queries.
#[test]
fn engines_agree_with_reference_within_threshold() {
    let dataset = tiny_dataset(11);
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(2), ..Default::default() });
    let kinds = [
        QueryKind::Q1Select,
        QueryKind::Q2aGrayscale,
        QueryKind::Q2bBlur,
        QueryKind::Q5Downsample,
        QueryKind::Q6aUnionBoxes,
        QueryKind::Q6bUnionCaptions,
    ];
    let mut batch_engine = BatchEngine::new();
    let report = vcd.run_queries(&mut batch_engine, &kinds).unwrap();
    for q in &report.queries {
        match &q.status {
            visual_road::QueryStatus::Completed { validation, .. } => {
                assert!(
                    validation.passed,
                    "{} failed validation on batch engine: {validation:?}",
                    q.kind.label()
                );
            }
            other => panic!("{} did not complete: {other:?}", q.kind.label()),
        }
    }
    let mut functional = FunctionalEngine::new();
    let report = vcd.run_queries(&mut functional, &kinds).unwrap();
    for q in &report.queries {
        match &q.status {
            visual_road::QueryStatus::Completed { validation, .. } => {
                assert!(
                    validation.passed,
                    "{} failed validation on functional engine: {validation:?}",
                    q.kind.label()
                );
            }
            other => panic!("{} did not complete: {other:?}", q.kind.label()),
        }
    }
}

/// Q2(c) semantic validation: engine boxes must match reference boxes
/// within the PASCAL VOC ε = 0.5 Jaccard threshold.
#[test]
fn q2c_semantic_validation_passes() {
    let dataset = tiny_dataset(12);
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(2), ..Default::default() });
    for engine in [
        Box::new(BatchEngine::new()) as Box<dyn Vdbms>,
        Box::new(FunctionalEngine::new()),
        Box::new(CascadeEngine::new()),
    ] {
        let mut engine = engine;
        let report = vcd.run_queries(engine.as_mut(), &[QueryKind::Q2cBoxes]).unwrap();
        match &report.queries[0].status {
            visual_road::QueryStatus::Completed { validation, .. } => {
                assert!(
                    validation.passed,
                    "Q2(c) on {} failed: {validation:?}",
                    report.engine
                );
                assert!(validation.semantic_agreement.is_some());
            }
            other => panic!("Q2(c) on {} did not complete: {other:?}", report.engine),
        }
    }
}

/// The reference engine with two broken answers: a Q2(a) answer
/// keeps only the first half of its frames, and every Q2(c) box moves
/// right by two box widths.
struct Mutated(ReferenceEngine);

impl Vdbms for Mutated {
    fn name(&self) -> &'static str {
        "mutated-reference"
    }

    fn supports(&self, kind: QueryKind) -> bool {
        self.0.supports(kind)
    }

    fn execute(
        &self,
        instance: &QueryInstance,
        inputs: &[visual_road::vdbms::InputVideo],
        ctx: &ExecContext,
    ) -> vr_base::Result<QueryOutput> {
        Ok(match self.0.execute(instance, inputs, ctx)? {
            QueryOutput::Video(mut video) if instance.spec == QuerySpec::Q2a => {
                video.packets.truncate(video.packets.len() / 2);
                QueryOutput::Video(video)
            }
            QueryOutput::BoxedVideo { video, mut boxes } => {
                for b in boxes.iter_mut().flatten() {
                    let dx = 2 * b.rect.width() as i32;
                    (b.rect.x0, b.rect.x1) = (b.rect.x0 + dx, b.rect.x1 + dx);
                }
                QueryOutput::BoxedVideo { video, boxes }
            }
            other => other,
        })
    }
}

/// The validator can say no: half of Q2(a)'s frames missing, or Q2(c)'s
/// boxes moved past the ε = 0.5 Jaccard threshold, fail the batch; the
/// unwrapped reference passes the same batches.
#[test]
fn the_validator_rejects_broken_answers() {
    let dataset = tiny_dataset(12);
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(2), ..Default::default() });
    let kinds = [QueryKind::Q2aGrayscale, QueryKind::Q2cBoxes];
    let validate = |engine: &mut dyn Vdbms| {
        let report = vcd.run_queries(engine, &kinds).unwrap();
        let summaries = report.queries.iter().map(|q| match &q.status {
            QueryStatus::Completed { validation, .. } => validation.clone(),
            other => panic!("{} on {}: {other:?}", q.kind.label(), report.engine),
        });
        summaries.collect::<Vec<_>>()
    };
    let control = validate(&mut ReferenceEngine::new());
    assert!(control.iter().all(|v| v.passed), "the reference validates: {control:?}");
    // The control is judged on frames (Q2(a)) and on boxes (Q2(c)).
    assert!(control[0].psnr.is_some() && control[1].semantic_agreement.is_some(), "{control:?}");
    let broken = validate(&mut Mutated(ReferenceEngine::new()));
    assert!(broken.iter().all(|v| !v.passed), "both mutations are caught: {broken:?}");
}

/// The batch engine's frame table holds only what its arms read: Q8
/// and Q9 stream their own scans, so they decode exactly the frames
/// the reference engine decodes and leave the table untouched, while a
/// table arm (Q2(a)) fills and hits it as before.
#[test]
fn the_batch_table_decodes_only_what_its_arms_read() {
    use visual_road::vdbms::StageKind;
    let dataset = tiny_dataset(5);
    let cfg = VcdConfig { batch_size: Some(2), validate: false, ..Default::default() };
    let vcd = Vcd::new(&dataset, cfg);
    let decoded = |engine: &mut dyn Vdbms, kind: QueryKind| {
        let report = vcd.run_queries(engine, &[kind]).unwrap();
        let QueryStatus::Completed { stages, .. } = &report.queries[0].status else {
            panic!("{} on {}: {report}", kind.label(), report.engine);
        };
        stages.stage(StageKind::Decode).frames
    };
    for kind in [QueryKind::Q8VehicleTracking, QueryKind::Q9PanoramicStitching] {
        let mut batch = BatchEngine::new();
        let want = decoded(&mut ReferenceEngine::new(), kind);
        assert_eq!(decoded(&mut batch, kind), want, "{}", kind.label());
        assert_eq!(batch.cache_stats(), (0, 0), "{} reads no table", kind.label());
    }
    // Both instances read one camera: one miss fills the table, each
    // instance hits it (the figures the engine recorded before Q8 and
    // Q9 left the table).
    let mut batch = BatchEngine::new();
    assert_eq!(decoded(&mut batch, QueryKind::Q2aGrayscale), 12, "one 12-frame camera");
    assert_eq!(batch.cache_stats(), (2, 1), "(hits, misses)");
}

/// The batch (Scanner-like) engine must fail Q4 with resource
/// exhaustion while the functional (LightDB-like) engine completes it
/// (§6.2).
#[test]
fn q4_engine_divergence_matches_paper() {
    let dataset = tiny_dataset(13);
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(1), ..Default::default() });
    let mut batch = BatchEngine::new();
    let r = vcd.run_queries(&mut batch, &[QueryKind::Q4Upsample]).unwrap();
    assert!(
        matches!(r.queries[0].status, visual_road::QueryStatus::Failed { .. }),
        "batch engine should fail Q4: {:?}",
        r.queries[0].status
    );
    let mut functional = FunctionalEngine::new();
    let r = vcd.run_queries(&mut functional, &[QueryKind::Q4Upsample]).unwrap();
    assert!(
        matches!(r.queries[0].status, visual_road::QueryStatus::Completed { .. }),
        "functional engine should complete Q4: {:?}",
        r.queries[0].status
    );
}

/// The cascade (NoScope-like) engine reports every non-Q1/Q2c query
/// as unsupported, mirroring Table 1 / §6.2.
#[test]
fn cascade_capability_matrix() {
    let dataset = tiny_dataset(14);
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(1), ..Default::default() });
    let mut engine = CascadeEngine::new();
    let report = vcd.run_full_benchmark(&mut engine).unwrap();
    let mut supported = 0;
    for q in &report.queries {
        match q.kind {
            QueryKind::Q1Select | QueryKind::Q2cBoxes => {
                assert!(
                    matches!(q.status, visual_road::QueryStatus::Completed { .. }),
                    "{} should complete on cascade",
                    q.kind.label()
                );
                supported += 1;
            }
            _ => assert!(
                matches!(q.status, visual_road::QueryStatus::Unsupported),
                "{} should be unsupported on cascade",
                q.kind.label()
            ),
        }
    }
    assert_eq!(supported, 2);
}

/// Write mode persists results that decode; streaming writes nothing.
#[test]
fn write_and_streaming_modes() {
    let dataset = tiny_dataset(15);
    let store = FlatStore::temp("int-write").unwrap();
    let cfg = VcdConfig {
        write_store: Some(store.clone()),
        batch_size: Some(2),
        ..Default::default()
    };
    let vcd = Vcd::new(&dataset, cfg);
    let mut engine = ReferenceEngine::new();
    vcd.run_queries(&mut engine, &[QueryKind::Q2aGrayscale]).unwrap();
    let files = store.list().unwrap();
    assert_eq!(files.len(), 2, "one persisted result per instance");
    for name in &files {
        let v = visual_road::vdbms::InputVideo::from_store(&store, name).unwrap();
        visual_road::vdbms::kernels::decode_all(&v).unwrap();
    }
    store.destroy().unwrap();
}

/// An answer's bytes: every packet of its video, and Q2(c)'s boxes.
fn answer_bytes(out: &QueryOutput) -> (Vec<Vec<u8>>, Vec<Vec<OutputBox>>) {
    let boxes = match out {
        QueryOutput::BoxedVideo { boxes, .. } => boxes.clone(),
        QueryOutput::Video(_) => Vec::new(),
    };
    (out.video().packets.iter().map(|p| p.data.clone()).collect(), boxes)
}

/// Online mode reads each input once, as a paced scan, and with no
/// fault plan delivers every byte: every engine's answer to every
/// query it supports (or its error) is the same online as offline,
/// byte for byte. The online reads run pipelined at two workers, the
/// offline ones at one; a fresh engine per query, so the batch engine
/// fills its frame table from the paced feed.
#[test]
fn online_ingest_delivers_every_byte() {
    let dataset = tiny_dataset(16);
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(1), ..Default::default() });
    let offline = ExecContext { workers: 1, ..ExecContext::default() };
    let online = ExecContext { workers: 2, online: Some(1000.0), ..ExecContext::default() };
    let engines: [fn() -> Box<dyn Vdbms>; 4] = [
        || Box::new(ReferenceEngine::new()),
        || Box::new(BatchEngine::new()),
        || Box::new(FunctionalEngine::new()),
        || Box::new(CascadeEngine::new()),
    ];
    let mut compared = 0;
    for new_engine in engines {
        for kind in QueryKind::ALL {
            let engine = new_engine();
            if !engine.supports(kind) {
                continue;
            }
            let instance = &vcd.batch(kind).unwrap()[0];
            let answer = |ctx: &ExecContext| {
                let out = engine.execute(instance, &dataset.videos, ctx);
                out.map(|o| answer_bytes(&o)).map_err(|e| e.to_string())
            };
            let (got, want) = (answer(&online), answer(&offline));
            assert!(got == want, "{} {}: online differs from offline", engine.name(), kind.label());
            compared += 1;
        }
    }
    assert_eq!(compared, 3 * QueryKind::ALL.len() + 2, "every engine x query pair it supports");
}

/// Online, every engine's instance takes at least its input's paced
/// duration, (n − 1) / (fps · speedup): the read blocks on the capture
/// clock whichever scan the engine runs. The cascade, which has no
/// Q2(a), is timed on Q1 (a whole-track scan there).
#[test]
fn every_engine_reads_online_at_the_capture_rate() {
    let dataset = tiny_dataset(23);
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(1), ..Default::default() });
    let speedup = 4.0;
    let ctx = ExecContext { workers: 1, online: Some(speedup), ..ExecContext::default() };
    let engines: Vec<Box<dyn Vdbms>> = vec![
        Box::new(ReferenceEngine::new()),
        Box::new(BatchEngine::new()),
        Box::new(FunctionalEngine::new()),
        Box::new(CascadeEngine::new()),
    ];
    for engine in &engines {
        let kind = [QueryKind::Q2aGrayscale, QueryKind::Q1Select]
            .into_iter()
            .find(|&k| engine.supports(k))
            .unwrap();
        let instance = &vcd.batch(kind).unwrap()[0];
        let input = &dataset.videos[instance.inputs[0]];
        let interval = input.video_info().unwrap().frame_rate.frame_interval_secs();
        let paced = (input.frame_count() - 1) as f64 * interval / speedup;
        let t0 = std::time::Instant::now();
        engine.execute(instance, &dataset.videos, &ctx).unwrap();
        let took = t0.elapsed().as_secs_f64();
        assert!(took >= paced, "{} {}: {took:.3}s < paced {paced:.3}s", engine.name(), kind.label());
    }
}

/// The instance deadline covers the paced reads: online at real time
/// over a one-second clip, a 100 ms deadline cancels reference Q2(a)
/// at the next frame, long before the clip has been captured. So it
/// does the batch engine's table fill, called as the server calls it
/// (no `prepare_batch`), which then leaves no table entry behind.
#[test]
fn online_deadline_covers_the_paced_reads() {
    let hyper =
        Hyperparameters::new(1, Resolution::new(128, 72), Duration::from_secs(1.0), 24).unwrap();
    let gen = GenConfig { density_scale: 0.2, generate_panoramas: false, ..Default::default() };
    let dataset = Vcg::new(gen).generate(&hyper).unwrap();
    let cfg = VcdConfig {
        batch_size: Some(1),
        validate: false,
        mode: visual_road::ExecutionMode::Online { speedup: 1.0 },
        instance_deadline: Some(std::time::Duration::from_millis(100)),
        ..Default::default()
    };
    let report =
        Vcd::new(&dataset, cfg).run_queries(&mut ReferenceEngine::new(), &[QueryKind::Q2aGrayscale]);
    let QueryStatus::Completed { degradation, scheduler, .. } = &report.unwrap().queries[0].status
    else {
        panic!("a cancelled instance is a degraded row, not a failed batch");
    };
    assert_eq!(degradation.cancelled_instances, 1, "{degradation:?}");
    let capture = dataset.videos[dataset.traffic_indices()[0]].frame_count() as f64 / 30.0;
    let latency = scheduler.max_instance_nanos as f64 / 1e9;
    assert!(latency < capture / 2.0, "instance took {latency:.3}s of a {capture:.1}s capture");

    let engine = visual_road::vdbms::BatchEngine::new();
    let inputs = vec![dataset.traffic_indices()[0]];
    let instance = QueryInstance { index: 0, spec: QuerySpec::Q2a, inputs };
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(100);
    let cancel = vr_base::sync::CancelToken::with_deadline(deadline);
    let ctx = ExecContext { workers: 1, online: Some(1.0), cancel, ..ExecContext::default() };
    let t0 = std::time::Instant::now();
    let out = engine.execute(&instance, &dataset.videos, &ctx);
    let latency = t0.elapsed().as_secs_f64();
    assert!(matches!(out, Err(vr_base::Error::Cancelled(_))), "{out:?}");
    assert!(latency < capture / 2.0, "batch read took {latency:.3}s of a {capture:.1}s capture");
    let ctx = ExecContext { workers: 1, online: Some(1000.0), ..ExecContext::default() };
    engine.execute(&instance, &dataset.videos, &ctx).unwrap();
    assert_eq!(engine.cache_stats(), (0, 2), "(hits, misses): the cancelled read left no table");
}

/// Online mode is slower than offline because ingest is paced.
#[test]
fn online_mode_is_throttled() {
    let dataset = tiny_dataset(17);
    let offline = Vcd::new(
        &dataset,
        VcdConfig { batch_size: Some(1), validate: false, ..Default::default() },
    );
    let online = Vcd::new(
        &dataset,
        VcdConfig {
            batch_size: Some(1),
            validate: false,
            // 0.4 s of video at 6x speedup → ~66 ms of mandatory
            // pacing per instance.
            mode: visual_road::ExecutionMode::Online { speedup: 6.0 },
            ..Default::default()
        },
    );
    let mut engine = ReferenceEngine::new();
    let t_off = offline
        .run_queries(&mut engine, &[QueryKind::Q2aGrayscale])
        .unwrap()
        .total_runtime();
    let t_on = online
        .run_queries(&mut engine, &[QueryKind::Q2aGrayscale])
        .unwrap()
        .total_runtime();
    assert!(
        t_on > t_off,
        "online ({t_on:?}) should exceed offline ({t_off:?}) via pacing"
    );
}

/// A direct cross-engine check on real dataset content: decoded Q1
/// outputs of all capable engines agree pixel-for-pixel within codec
/// noise.
#[test]
fn q1_outputs_are_mutually_consistent() {
    let dataset = tiny_dataset(18);
    let instance = QueryInstance {
        index: 0,
        spec: QuerySpec::Q1 {
            rect: vr_geom::Rect::new(8, 8, 100, 60),
            t1: vr_base::Timestamp::ZERO,
            t2: vr_base::Timestamp::from_micros(300_000),
        },
        inputs: vec![dataset.traffic_indices()[0]],
    };
    let ctx = ExecContext::default();
    let mut outputs = Vec::new();
    let mut engines: Vec<Box<dyn Vdbms>> = vec![
        Box::new(ReferenceEngine::new()),
        Box::new(BatchEngine::new()),
        Box::new(FunctionalEngine::new()),
        Box::new(CascadeEngine::new()),
    ];
    for engine in engines.iter_mut() {
        let out = engine.execute(&instance, &dataset.videos, &ctx).unwrap();
        let QueryOutput::Video(v) = out else { panic!("Q1 yields a video") };
        outputs.push(v.decode_all().unwrap());
    }
    let reference = &outputs[0];
    for (ei, frames) in outputs.iter().enumerate().skip(1) {
        assert_eq!(frames.len(), reference.len(), "engine {ei} frame count");
        for (a, b) in frames.iter().zip(reference) {
            let p = psnr_y(a, b);
            assert!(p >= 40.0, "engine {ei} diverges from reference: {p} dB");
        }
    }
}

/// Q2(c) validation reports ground-truth F1 alongside recall.
#[test]
fn q2c_reports_ground_truth_f1() {
    let dataset = tiny_dataset(21);
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(1), ..Default::default() });
    let mut engine = ReferenceEngine::new();
    let report = vcd.run_queries(&mut engine, &[QueryKind::Q2cBoxes]).unwrap();
    match &report.queries[0].status {
        visual_road::QueryStatus::Completed { validation, .. } => {
            // F1 is present whenever the scene offered ground truth
            // to score against, and always well-formed.
            if let Some(f1) = validation.ground_truth_f1 {
                assert!((0.0..=1.0).contains(&f1), "f1 {f1}");
            }
            if let Some(a) = validation.semantic_agreement {
                assert!((0.0..=1.0).contains(&a), "agreement {a}");
            }
            assert!(validation.passed);
        }
        other => panic!("{other:?}"),
    }
}

/// The extended (procedurally-generated) tile pool generates,
/// renders, encodes, and answers queries like the base pool — the
/// paper's "increasingly complex procedurally-generated tiles"
/// extension.
#[test]
fn procedural_tiles_run_the_benchmark() {
    let hyper =
        Hyperparameters::new(2, Resolution::new(128, 72), Duration::from_secs(0.3), 31).unwrap();
    let dataset = Vcg::new(GenConfig {
        density_scale: 0.15,
        generate_panoramas: false,
        procedural_tile_variants: 8,
        ..Default::default()
    })
    .generate(&hyper)
    .unwrap();
    assert_eq!(dataset.traffic_indices().len(), 8);
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(2), ..Default::default() });
    let mut engine = ReferenceEngine::new();
    let report = vcd.run_queries(&mut engine, &[QueryKind::Q1Select, QueryKind::Q2aGrayscale]);
    let report = report.unwrap();
    for q in &report.queries {
        assert!(
            matches!(q.status, visual_road::QueryStatus::Completed { .. }),
            "{:?}",
            q.status
        );
    }
    // Determinism holds for the extended pool too.
    let again = Vcg::new(GenConfig {
        density_scale: 0.15,
        generate_panoramas: false,
        procedural_tile_variants: 8,
        ..Default::default()
    })
    .generate(&hyper)
    .unwrap();
    assert_eq!(
        dataset.videos[0].container.raw_bytes(),
        again.videos[0].container.raw_bytes()
    );
}

/// Without quiescing, the batch (Scanner-like) engine's frame table
/// persists across query batches and turns repeat decodes into cache
/// hits; with quiescing it re-decodes everything. This is the
/// mechanism behind the scale-factor experiment (Figure 6).
#[test]
fn quiesce_policy_controls_cross_batch_caching() {
    let dataset = tiny_dataset(22);
    let queries = [QueryKind::Q2aGrayscale, QueryKind::Q2bBlur];
    let run = |quiesce: bool| -> (u64, u64) {
        let cfg = VcdConfig {
            batch_size: Some(3),
            validate: false,
            quiesce_between_batches: quiesce,
            ..Default::default()
        };
        let vcd = Vcd::new(&dataset, cfg);
        let mut engine = BatchEngine::new();
        vcd.run_queries(&mut engine, &queries).unwrap();
        engine.cache_stats()
    };
    let (hits_keep, _) = run(false);
    let (hits_quiesce, misses_quiesce) = run(true);
    assert!(
        hits_keep > hits_quiesce,
        "persistent cache should hit more: {hits_keep} vs {hits_quiesce}"
    );
    assert!(misses_quiesce >= 2, "quiesced run re-decodes per batch");
}

/// HEVC-profile dataset generation round-trips end to end.
#[test]
fn hevc_profile_datasets_work() {
    let hyper =
        Hyperparameters::new(1, Resolution::new(96, 56), Duration::from_secs(0.3), 33).unwrap();
    let h264 = Vcg::new(GenConfig {
        density_scale: 0.1,
        generate_panoramas: false,
        ..Default::default()
    })
    .generate(&hyper)
    .unwrap();
    let hevc = Vcg::new(GenConfig {
        density_scale: 0.1,
        generate_panoramas: false,
        profile: visual_road::codec::Profile::HevcLike,
        ..Default::default()
    })
    .generate(&hyper)
    .unwrap();
    // Same content, better toolset → smaller files.
    assert!(
        hevc.total_bytes() < h264.total_bytes(),
        "hevc {} vs h264 {}",
        hevc.total_bytes(),
        h264.total_bytes()
    );
    // And the HEVC dataset answers queries.
    let vcd = Vcd::new(&hevc, VcdConfig { batch_size: Some(1), ..Default::default() });
    let mut engine = ReferenceEngine::new();
    let report = vcd.run_queries(&mut engine, &[QueryKind::Q2aGrayscale]).unwrap();
    assert!(matches!(
        report.queries[0].status,
        visual_road::QueryStatus::Completed { .. }
    ));
}

/// Two batches driven on two threads of one process, started together
/// so they overlap: every stage of each report describes that batch
/// alone — its latency histogram holds exactly the batch's own
/// invocations and nanoseconds.
#[test]
fn overlapping_batches_report_their_own_stage_statistics() {
    let dataset = tiny_dataset(5);
    let barrier = std::sync::Barrier::new(2);
    let reports: Vec<BenchmarkReport> = std::thread::scope(|scope| {
        let run = |kind: QueryKind| {
            let (dataset, barrier) = (&dataset, &barrier);
            scope.spawn(move || {
                let cfg = VcdConfig { batch_size: Some(4), validate: false, ..Default::default() };
                let vcd = Vcd::new(dataset, cfg);
                let mut engine = ReferenceEngine::new();
                barrier.wait();
                vcd.run_queries(&mut engine, &[kind]).unwrap()
            })
        };
        let handles = [run(QueryKind::Q2aGrayscale), run(QueryKind::Q2bBlur)];
        handles.map(|h| h.join().unwrap()).into()
    });
    for report in &reports {
        let visual_road::QueryStatus::Completed { stages, .. } = &report.queries[0].status else {
            panic!("{report}");
        };
        for kind in visual_road::vdbms::StageKind::ALL {
            let s = stages.stage(kind);
            let what = format!("{} {}", report.queries[0].kind.label(), kind.label());
            assert_eq!(s.latency.count, s.invocations, "{what}");
            assert_eq!(s.latency.sum, s.nanos, "{what}");
        }
        assert!(stages.stage(visual_road::vdbms::StageKind::Decode).invocations > 0, "{report}");
    }
}

/// Two batches of reference Q2(a) driven at once on two threads of one
/// process, one under a fault plan and one with none, each count only
/// their own recoveries: the faulted batch recovers exactly what it
/// recovers alone, and the clean one reports no plan, no recovery and
/// the bytes it writes alone.
#[test]
fn overlapping_faulted_batches_count_only_their_own_recoveries() {
    use std::sync::Arc;
    use visual_road::base::fault::{DegradationSnapshot, FaultInjector};
    use visual_road::report::DegradationStats;
    let dataset = tiny_dataset(5);
    let corrupt = Arc::new(FaultInjector::from_spec("corrupt_bitstream=0.2", 3).unwrap());
    // One batch: its degradation and the files it wrote.
    let run = |name: &str, faults: Option<Arc<FaultInjector>>, barrier: Option<&std::sync::Barrier>| {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("overlap-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FlatStore::open(&dir).unwrap();
        let cfg = VcdConfig {
            batch_size: Some(4),
            validate: false,
            pipeline_workers: Some(1),
            write_store: Some(store.clone()),
            faults,
            ..Default::default()
        };
        let vcd = Vcd::new(&dataset, cfg);
        let mut engine = ReferenceEngine::new();
        if let Some(barrier) = barrier {
            barrier.wait();
        }
        let report = vcd.run_queries(&mut engine, &[QueryKind::Q2aGrayscale]).unwrap();
        let visual_road::QueryStatus::Completed { degradation, .. } = report.queries[0].status else {
            panic!("{report}");
        };
        let files: Vec<(String, Vec<u8>)> = store
            .list()
            .unwrap()
            .into_iter()
            .map(|f| (f.clone(), store.get(&f).unwrap().to_vec()))
            .collect();
        (degradation, files)
    };
    let (faulted_solo, _) = run("faulted-solo", Some(corrupt.clone()), None);
    let (clean_solo, clean_solo_files) = run("clean-solo", None, None);
    assert!(faulted_solo.recovered.skipped_samples > 0, "the plan damaged nothing: {faulted_solo:?}");
    assert_eq!(clean_solo, DegradationStats::default());

    let barrier = std::sync::Barrier::new(2);
    let (faulted, (clean, clean_files)) = std::thread::scope(|scope| {
        let faulted = scope.spawn(|| run("faulted", Some(corrupt.clone()), Some(&barrier)).0);
        let clean = scope.spawn(|| run("clean", None, Some(&barrier)));
        (faulted.join().unwrap(), clean.join().unwrap())
    });
    assert_eq!(faulted.recovered, faulted_solo.recovered, "the faulted batch beside a clean one");
    assert!(!clean.faults_active, "{clean:?}");
    assert_eq!(clean.recovered, DegradationSnapshot::default(), "the clean batch beside a faulted one");
    assert!(clean_files == clean_solo_files, "the clean batch's answers changed beside a faulted one");
}

/// The reference engine, except that instances 2 and 5 of every batch
/// fail; records the index of every instance it was handed.
struct FailsTwoAndFive {
    inner: ReferenceEngine,
    seen: std::sync::Mutex<Vec<usize>>,
}

impl Vdbms for FailsTwoAndFive {
    fn name(&self) -> &'static str {
        "fails-two-and-five"
    }

    fn supports(&self, kind: QueryKind) -> bool {
        self.inner.supports(kind)
    }

    fn execute(
        &self,
        instance: &QueryInstance,
        inputs: &[visual_road::vdbms::InputVideo],
        ctx: &ExecContext,
    ) -> vr_base::Result<QueryOutput> {
        // The driver names each instance's context `instance.<query>.<i>`.
        let id = ctx.request_id.as_deref().expect("the driver names every instance");
        let i: usize = id.rsplit('.').next().and_then(|i| i.parse().ok()).expect(id);
        self.seen.lock().unwrap().push(i);
        match i {
            2 | 5 => Err(vr_base::Error::InvalidConfig(format!("instance {i} refused"))),
            _ => self.inner.execute(instance, inputs, ctx),
        }
    }
}

/// A batch of six whose instances 2 and 5 fail: without a deadline the
/// lowest-index failure decides the batch at every scheduler width,
/// and one worker stops there; with a deadline (degrade mode) every
/// instance runs and both failures are counted.
#[test]
fn the_lowest_failing_instance_decides_a_batch_at_every_width() {
    let dataset = tiny_dataset(31);
    let run = |batch_workers: usize, deadline: Option<std::time::Duration>| {
        let cfg = VcdConfig {
            batch_size: Some(6),
            batch_workers: Some(batch_workers),
            instance_deadline: deadline,
            validate: false,
            ..Default::default()
        };
        let mut engine =
            FailsTwoAndFive { inner: ReferenceEngine::new(), seen: Default::default() };
        let report = Vcd::new(&dataset, cfg)
            .run_queries(&mut engine, &[QueryKind::Q2aGrayscale])
            .unwrap();
        (report.queries[0].status.clone(), engine.seen.into_inner().unwrap())
    };
    for workers in [1, 2, 4] {
        let (status, seen) = run(workers, None);
        let QueryStatus::Failed { error } = &status else {
            panic!("workers={workers}: the batch fails: {status:?}");
        };
        assert_eq!(error, "invalid configuration: instance 2 refused", "workers={workers}");
        if workers == 1 {
            assert_eq!(seen, [0, 1, 2], "one worker stops at the first failure");
        }
        let (status, mut seen) = run(workers, Some(std::time::Duration::from_secs(120)));
        let QueryStatus::Completed { degradation, .. } = &status else {
            panic!("workers={workers}: degrade mode completes the batch: {status:?}");
        };
        assert_eq!(degradation.failed_instances, 2, "workers={workers}");
        seen.sort_unstable();
        assert_eq!(seen, [0, 1, 2, 3, 4, 5], "workers={workers}: degrade mode runs every instance");
    }
}

/// A batch of zero instances is a configuration error, for a query the
/// engine supports and for one it does not, and for EXPLAIN too.
#[test]
fn an_empty_batch_is_refused_not_a_panic() {
    let dataset = tiny_dataset(32);
    let vcd = Vcd::new(&dataset, VcdConfig { batch_size: Some(0), ..Default::default() });
    let mut cascade = CascadeEngine::new();
    for kind in [QueryKind::Q2cBoxes, QueryKind::Q4Upsample] {
        let err = vcd.run_queries(&mut cascade, &[kind]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid configuration: a query batch needs at least one instance",
            "{}",
            kind.label()
        );
    }
    assert!(vcd.explain(&cascade, &[QueryKind::Q2cBoxes]).is_err());
}
