//! Cross-crate integration tests: engines agree with the reference
//! implementation, datasets carry what queries need, and the driver's
//! plumbing (batching, modes, ingest) composes.

use visual_road::prelude::*;
use visual_road::storage::FlatStore;
use visual_road::vcd::ingest_online;
use visual_road::vdbms::query::{QueryInstance, QuerySpec};
use visual_road::vdbms::{ExecContext, QueryKind, QueryOutput, Vdbms};
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

/// Online-mode ingest streams all video bytes through paced RTP.
#[test]
fn online_ingest_delivers_every_byte() {
    let dataset = tiny_dataset(16);
    let idx = dataset.traffic_indices()[0];
    let input = &dataset.videos[idx];
    let expected: usize = {
        let track = input
            .container
            .track_of_kind(visual_road::container::TrackKind::Video)
            .unwrap();
        input.container.tracks()[track].samples.iter().map(|s| s.size as usize).sum()
    };
    let bytes = ingest_online(input, 1000.0).unwrap();
    assert_eq!(bytes, expected);
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

/// The named-pipe online transport delivers every byte, paced.
#[test]
fn pipe_ingest_delivers_every_byte() {
    let dataset = tiny_dataset(19);
    let idx = dataset.traffic_indices()[0];
    let input = &dataset.videos[idx];
    let expected: usize = {
        let track = input
            .container
            .track_of_kind(visual_road::container::TrackKind::Video)
            .unwrap();
        input.container.tracks()[track].samples.iter().map(|s| s.size as usize).sum()
    };
    let bytes = visual_road::vcd::ingest_online_pipe(input, 1000.0).unwrap();
    assert_eq!(bytes, expected);
}

/// Offline mode can stage inputs on the mini distributed file system
/// (the HDFS analogue) and read them back intact, surviving a
/// datanode failure.
#[test]
fn dataset_stages_on_dfs_with_failover() {
    let dataset = tiny_dataset(20);
    let dfs = visual_road::storage::MiniDfs::new(3, 2, 32 * 1024).unwrap();
    dataset.write_to_dfs(&dfs).unwrap();
    assert_eq!(dfs.file_count(), dataset.videos.len());
    dfs.kill_datanode(1);
    for video in &dataset.videos {
        let bytes = dfs.get(&video.name).unwrap();
        assert_eq!(bytes, video.container.raw_bytes(), "{}", video.name);
        // And the staged copy still parses as a container.
        visual_road::vdbms::InputVideo::from_bytes(video.name.clone(), bytes).unwrap();
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
