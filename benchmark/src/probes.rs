//! Layer probes: each times calls into one layer's existing `pub`
//! functions, from outside, on data taken from the generated dataset.
//!
//! A probe's number is what an optimisation of that layer should move
//! first; benchmark/README.md says which end-to-end metric, on which
//! workload, should follow — and where nothing should change.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use visual_road::base::admission::{AdmissionConfig, AdmissionController, Priority};
use visual_road::base::{SharedBuf, Timestamp, VrRng};
use visual_road::codec::{encode_sequence, Decoder, EncoderConfig};
use visual_road::container::{Container, ContainerWriter, TrackKind};
use visual_road::frame::{ops, psnr_y, Frame};
use visual_road::geom::Rect;
use visual_road::prelude::*;
use visual_road::render::render_camera_frame;
use visual_road::scene::{ObjectClass, VisualCity};
use visual_road::storage::FlatStore;
use visual_road::vdbms::batch::BatchConfig;
use visual_road::vdbms::kernels::{box_track, decode_all_parallel};
use visual_road::vdbms::{
    CalibrationProfile, CandidateSpace, ExecContext, InputVideo, KernelClass, Optimizer, Policy,
    QueryWork, Workload,
};
use visual_road::vision::diff::FrameDiff;
use visual_road::vision::{associate, embed_tracklet, TrackerConfig, YoloConfig, YoloDetector};
use visual_road::{
    answer_with_index, answer_with_rescan, ingest_dataset, recall_at_k, truth_top_segments,
    Dataset, SemanticAnswer, SemanticQuery,
};
use vr_index::{Hnsw, HnswConfig, SemanticIndex, EMBED_DIM};

use crate::batch::engine_of;
use crate::host;
use crate::metrics::Outcome;
use crate::spans::Recorder;
use crate::stats;
use crate::workload::{self, RunArgs};

/// Samples a probe takes; its figure is their median.
const SAMPLES: usize = 7;

/// Nanoseconds per call of `f`: `SAMPLES` samples, each of as many calls
/// as fill about a millisecond, so short kernels are timed in bulk.
fn ns_per_call<T>(mut f: impl FnMut() -> T) -> Vec<f64> {
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().as_nanos().max(1) as f64;
    let reps = ((1e6 / once) as usize).clamp(1, 10_000);
    (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect()
}

fn scaled(samples: &[f64], by: f64) -> Vec<f64> {
    samples.iter().map(|s| s * by).collect()
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// One timed `Vdbms::execute` per instance of the pair's batch, in ms: a
/// fresh engine, one pipeline worker, results discarded.
pub fn exec_ms(
    vcd: &Vcd<'_>,
    dataset: &Dataset,
    engine: &str,
    kind: QueryKind,
) -> Result<Vec<f64>, String> {
    let engine = engine_of(engine);
    let ctx = ExecContext {
        workers: 1,
        ..ExecContext::default()
    };
    vcd.batch(kind)
        .map_err(err("sample batch"))?
        .iter()
        .map(|instance| {
            let t = Instant::now();
            black_box(
                engine
                    .execute(instance, &dataset.videos, &ctx)
                    .map_err(err("execute"))?,
            );
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// Mux an encoded video into a container the engines can read.
fn mux(video: &visual_road::codec::EncodedVideo) -> Result<InputVideo, String> {
    let mut w = ContainerWriter::new();
    let t = w.add_track(TrackKind::Video, video.info.serialize());
    for (i, p) in video.packets.iter().enumerate() {
        w.push_sample(
            t,
            &p.data,
            Timestamp::of_frame(i as u64, video.info.frame_rate),
            p.keyframe,
        );
    }
    InputVideo::from_bytes("probe.vrmf", w.finish()).map_err(err("mux"))
}

/// Run every layer probe and record one span per probe.
pub fn layers(
    dataset: &Dataset,
    generate_s: f64,
    args: &RunArgs,
    rec: &Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let probe =
        |name: &str, out: &mut Outcome, f: &mut dyn FnMut(&mut Outcome) -> Result<(), String>| {
            let t0 = Instant::now();
            let r = f(out);
            rec.add(format!("probe.{name}"), None, u64::MAX, t0, Instant::now());
            r
        };
    let nproc = host::parallelism();
    let traffic = dataset.traffic_indices();
    let input = &dataset.videos[*traffic.first().ok_or("dataset has no traffic video")?];
    let info = input.video_info().map_err(err("video info"))?;
    let px = (info.width * info.height) as f64;
    let track = input
        .container
        .track_of_kind(TrackKind::Video)
        .ok_or("no video track")?;
    let samples: Vec<&[u8]> = (0..input.frame_count())
        .map(|i| input.container.sample(track, i).map_err(err("sample")))
        .collect::<Result<_, _>>()?;
    let decode = || -> Result<Vec<Frame>, String> {
        let mut dec = Decoder::new(info);
        samples
            .iter()
            .map(|s| dec.decode(s).map_err(err("decode")))
            .collect()
    };
    let frames = decode()?;
    let n = frames.len() as f64;

    probe("vcg", out, &mut |out| {
        out.set("vcg.generate_s", generate_s);
        out.set(
            "vcg.frames_per_s",
            dataset.total_frames() as f64 / generate_s,
        );
        out.set("vcg.dataset_bytes", dataset.total_bytes() as f64);
        let city = ns_per_call(|| VisualCity::generate(&dataset.hyper, dataset.density_scale));
        out.set_median("scene.city_generate_ms", &scaled(&city, 1e-6));
        let cam = dataset
            .city
            .traffic_cameras()
            .next()
            .ok_or("city has no traffic camera")?;
        let mut t = 0.0;
        let render = ns_per_call(|| {
            t += 1.0 / 30.0;
            render_camera_frame(&dataset.city, cam, t, info.width, info.height)
        });
        out.set_median("render.frame_ms", &scaled(&render, 1e-6));
        Ok(())
    })?;

    probe("codec", out, &mut |out| {
        let dec = ns_per_call(|| decode().expect("decoded once already"));
        out.set_median("codec.decode_ns_per_px", &scaled(&dec, 1.0 / (px * n)));
        let cfg = EncoderConfig::constant_qp(10);
        let enc = ns_per_call(|| encode_sequence(&cfg, &frames).expect("encode"));
        out.set_median("codec.encode_ns_per_px", &scaled(&enc, 1.0 / (px * n)));
        let video = encode_sequence(&cfg, &frames).map_err(err("encode"))?;
        out.set(
            "codec.encode_bytes_per_frame",
            video.size_bytes() as f64 / n,
        );
        let back = video.decode_all().map_err(err("decode round trip"))?;
        let psnr: f64 = frames
            .iter()
            .zip(&back)
            .map(|(a, b)| psnr_y(a, b))
            .sum::<f64>()
            / n;
        out.set("codec.roundtrip_psnr_db", psnr);
        // The dataset's videos are one GOP long, which cannot be split:
        // re-encode with short GOPs so there is something to parallelise.
        let gops =
            mux(&encode_sequence(&cfg.clone().with_gop(5), &frames).map_err(err("encode"))?)?;
        let one = stats::median(&ns_per_call(|| {
            decode_all_parallel(&gops, 1).expect("decode")
        }));
        let many = stats::median(&ns_per_call(|| {
            decode_all_parallel(&gops, nproc).expect("decode")
        }));
        out.set("codec.decode_parallel_speedup", one / many);
        out.note(format!(
            "codec.decode_parallel_speedup: {:.3} ms at 1 worker ÷ {:.3} ms at {nproc}",
            one / 1e6,
            many / 1e6
        ));
        Ok(())
    })?;

    probe("container+storage", out, &mut |out| {
        let raw = input.container.raw_bytes();
        let shared = SharedBuf::from(raw.to_vec());
        let parse = ns_per_call(|| Container::parse(shared.clone()).expect("parse"));
        out.set_median("container.parse_us", &scaled(&parse, 1e-3));
        let iter = ns_per_call(|| {
            let mut cursor = input.container.cursor(track).expect("cursor");
            let mut bytes = 0;
            while let Some((_, slice)) = cursor.next_sample_slice() {
                bytes += slice.len();
            }
            bytes
        });
        out.set_median("container.sample_iter_ns", &scaled(&iter, 1.0 / n));
        let payload: u64 = input
            .container
            .tracks()
            .iter()
            .flat_map(|t| &t.samples)
            .map(|s| s.size as u64)
            .sum();
        out.set(
            "container.overhead_bytes_per_payload_byte",
            (raw.len() as u64 - payload) as f64 / payload as f64,
        );
        let root = workload::out_dir().join(format!("probe-store-{}", std::process::id()));
        let store = FlatStore::open(root).map_err(err("open probe store"))?;
        let mb = dataset.total_bytes() as f64 / 1e6;
        let put = ns_per_call(|| dataset.write_to_store(&store).expect("put"));
        let get = ns_per_call(|| {
            for v in &dataset.videos {
                black_box(store.get(&v.name).expect("get"));
            }
        });
        store.destroy().map_err(err("remove probe store"))?;
        out.set(
            "storage.flat_put_mb_per_s",
            mb / (stats::median(&put) / 1e9),
        );
        out.set(
            "storage.flat_get_mb_per_s",
            mb / (stats::median(&get) / 1e9),
        );
        Ok(())
    })?;

    probe("frame", out, &mut |out| {
        let (w, h) = (info.width as i32, info.height as i32);
        let (f, g) = (&frames[0], &frames[frames.len() - 1]);
        let rect = Rect::new(w / 8, h / 8, w * 7 / 8, h * 7 / 8);
        let crop_px = ((w * 6 / 8) * (h * 6 / 8)) as f64;
        out.set_median(
            "frame.crop_ns_per_px",
            &scaled(&ns_per_call(|| ops::crop(f, rect)), 1.0 / crop_px),
        );
        out.set_median(
            "frame.grayscale_ns_per_px",
            &scaled(&ns_per_call(|| ops::grayscale(f)), 1.0 / px),
        );
        out.set_median(
            "frame.blur_ns_per_px",
            &scaled(&ns_per_call(|| ops::gaussian_blur(f, 7)), 1.0 / px),
        );
        let up = ns_per_call(|| ops::interpolate_bilinear(f, info.width * 2, info.height * 2));
        out.set_median("frame.bilinear_ns_per_px", &scaled(&up, 1.0 / (px * 4.0)));
        let mask = ns_per_call(|| ops::background_mask(f, g, 0.1));
        out.set_median("frame.background_mask_ns_per_px", &scaled(&mask, 1.0 / px));
        out.set_median(
            "frame.psnr_ns_per_px",
            &scaled(&ns_per_call(|| psnr_y(f, g)), 1.0 / px),
        );
        Ok(())
    })?;

    let dets: Vec<Vec<(ObjectClass, Rect)>> = (0..input.frame_count())
        .map(|i| {
            let boxes = box_track(input, i).map_err(err("box track"))?;
            Ok(boxes.into_iter().map(|b| (b.class, b.rect)).collect())
        })
        .collect::<Result<_, String>>()?;
    probe("vision", out, &mut |out| {
        let mut yolo = YoloDetector::new(YoloConfig::default());
        let mut i = 0;
        let detect = ns_per_call(|| {
            i += 1;
            yolo.detect(&frames[i % frames.len()])
        });
        out.set_median("vision.yolo_ms_per_frame", &scaled(&detect, 1e-6));
        let mut diff = FrameDiff::new();
        let step = ns_per_call(|| {
            i += 1;
            diff.step(&frames[i % frames.len()])
        });
        out.set_median("vision.diff_ns_per_px", &scaled(&step, 1.0 / px));
        let assoc = ns_per_call(|| associate(&dets, TrackerConfig::default()));
        out.set_median("vision.associate_us_per_frame", &scaled(&assoc, 1e-3 / n));
        let tracks = associate(&dets, TrackerConfig::default());
        if !tracks.is_empty() {
            let embed = ns_per_call(|| {
                for t in &tracks {
                    black_box(embed_tracklet(t, info.width, info.height, n as u32));
                }
            });
            out.set_median(
                "vision.embed_us_per_track",
                &scaled(&embed, 1e-3 / tracks.len() as f64),
            );
        }
        Ok(())
    })?;

    let vcd = Vcd::new(dataset, VcdConfig::default());
    probe("vdbms", out, &mut |out| {
        let q1 = vcd
            .batch(QueryKind::Q1Select)
            .map_err(err("sample batch"))?;
        let instance = &q1[0];
        let ctx1 = ExecContext {
            workers: 1,
            ..ExecContext::default()
        };
        let run = |engine: &BatchEngine, ctx: &ExecContext| {
            black_box(
                engine
                    .execute(instance, &dataset.videos, ctx)
                    .expect("batch Q1"),
            );
        };
        // Warm: the decoded video stays in the frame table. Cold: the
        // table is emptied first. Thrash: the table cannot hold one video.
        let mut engine = BatchEngine::new();
        run(&engine, &ctx1);
        out.set_median(
            "vdbms.batch_cache_hit_ms",
            &scaled(&ns_per_call(|| run(&engine, &ctx1)), 1e-6),
        );
        let cold: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                engine.quiesce();
                let t = Instant::now();
                run(&engine, &ctx1);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.set_median("vdbms.batch_cache_miss_ms", &cold);
        let small = BatchEngine::with_config(BatchConfig {
            cache_bytes: 64 << 10,
            ..BatchConfig::default()
        });
        out.set_median(
            "vdbms.batch_cache_thrash_ms",
            &scaled(&ns_per_call(|| run(&small, &ctx1)), 1e-6),
        );
        let (hits, misses) = small.cache_stats();
        out.note(format!(
            "thrashing frame table: {hits} hits, {misses} misses"
        ));

        let fresh = |ctx: &ExecContext| run(&BatchEngine::new(), ctx);
        let one = stats::median(&ns_per_call(|| fresh(&ctx1)));
        let ctxn = ExecContext {
            workers: nproc,
            ..ExecContext::default()
        };
        let many = stats::median(&ns_per_call(|| fresh(&ctxn)));
        out.set("vdbms.workers_speedup.q1", one / many);
        out.note(format!(
            "vdbms.workers_speedup.q1: batch×Q1 {:.3} ms at 1 worker ÷ {:.3} ms at {nproc}",
            one / 1e6,
            many / 1e6
        ));

        let optimizer = Optimizer::new(CalibrationProfile::builtin()).with_workload(Workload {
            width: info.width,
            height: info.height,
            frames: input.frame_count() as u64,
        });
        let work = QueryWork {
            frames: input.frame_count() as u64,
            in_pixels: px as u64,
            out_pixels: px as u64 / 4,
            kernel: KernelClass::PerPixel { factor: 1.0 },
            vectors: 0,
        };
        let space = CandidateSpace {
            policies: vec![Policy::Eager, Policy::Streaming, Policy::Sequence],
            max_fanout: nproc,
        };
        let mut key = 0u64;
        let cold = ns_per_call(|| {
            key += 1;
            optimizer.decide(&format!("probe/{key}"), work, &space)
        });
        out.set_median("vdbms.optimizer_decide_cold_us", &scaled(&cold, 1e-3));
        let cached = ns_per_call(|| optimizer.decide("probe/1", work, &space));
        out.set_median("vdbms.optimizer_decide_cached_us", &scaled(&cached, 1e-3));
        let sample = ns_per_call(|| vcd.batch(QueryKind::Q1Select).expect("sample batch"));
        out.set_median("vcd.batch_sample_us", &scaled(&sample, 1e-3));
        Ok(())
    })?;

    probe("index", out, &mut |out| {
        let ingest = ns_per_call(|| ingest_dataset(dataset).expect("ingest"));
        out.set_median("index.ingest_s", &scaled(&ingest, 1e-9));
        let (index, sidecar) = ingest_dataset(dataset).map_err(err("ingest"))?;
        out.set("index.tracklets", index.len() as f64);
        out.set("index.sidecar_bytes", sidecar.len() as f64);
        let load = ns_per_call(|| SemanticIndex::from_sidecar_bytes(&sidecar).expect("load"));
        out.set_median("index.load_ms", &scaled(&load, 1e-6));
        for label in ["S1", "S2", "S3"] {
            let q = SemanticQuery::parse_label(label).expect("a named semantic query");
            let suffix = label.to_ascii_lowercase();
            let probe = ns_per_call(|| answer_with_index(&index, &q).expect("index answer"));
            out.set_median(&format!("index.answer_us.{suffix}"), &scaled(&probe, 1e-3));
            let rescan = ns_per_call(|| answer_with_rescan(dataset, &q).expect("rescan answer"));
            out.set_median(&format!("index.rescan_us.{suffix}"), &scaled(&rescan, 1e-3));
        }
        let s2 = SemanticQuery::parse_label("S2").expect("a named semantic query");
        let truth = truth_top_segments(dataset, Some(ObjectClass::Vehicle), 8)
            .map_err(err("truth segments"))?;
        if let SemanticAnswer::Segments(got) = answer_with_index(&index, &s2).map_err(err("S2"))? {
            out.set("index.recall_at_10", recall_at_k(&truth, &got, 10));
        }

        const VECTORS: usize = 2000;
        let embedding = |rng: &mut VrRng| -> Vec<f32> {
            (0..EMBED_DIM)
                .map(|_| (rng.next_u64() % 1000) as f32 / 1000.0)
                .collect()
        };
        let build = |seed: u64| {
            let mut rng = VrRng::seed_from(seed);
            let mut hnsw = Hnsw::new(EMBED_DIM, HnswConfig::default());
            for _ in 0..VECTORS {
                let v = embedding(&mut rng);
                hnsw.insert(v, &mut rng);
            }
            (hnsw, rng)
        };
        let built: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(build(args.seed));
                t.elapsed().as_secs_f64() * 1e6 / VECTORS as f64
            })
            .collect();
        out.set_median("index.hnsw_build_us_per_vec", &built);
        let (hnsw, mut rng) = build(args.seed);
        let queries: Vec<Vec<f32>> = (0..64).map(|_| embedding(&mut rng)).collect();
        let mut qi = 0;
        let search = ns_per_call(|| {
            qi += 1;
            hnsw.search(&queries[qi % queries.len()], 10)
        });
        out.set_median("index.hnsw_topk10_us", &scaled(&search, 1e-3));
        Ok(())
    })?;

    probe("admission", out, &mut |out| {
        let gate = Arc::new(AdmissionController::new(AdmissionConfig::default()));
        let admit = ns_per_call(|| {
            gate.admit("t0", Priority::High, None)
                .expect("uncontended")
                .succeed()
        });
        out.set_median("admission.admit_settle_ns", &admit);
        Ok(())
    })
}
