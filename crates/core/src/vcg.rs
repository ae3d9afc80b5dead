//! The Visual City Generator (§3.1, §5).
//!
//! Accepts the four hyperparameters `{L, R, t, s}`, constructs a
//! Visual City, renders every camera, encodes the frames, and muxes
//! one container per video stream:
//!
//! * **video track** — codec packets (H264-like or HEVC-like profile);
//! * **captions track** — a randomly-generated WebVTT document (Q6b);
//! * **metadata track** — one sample per frame holding the serialized
//!   reference bounding boxes (the precomputed `B` of Q6a).
//!
//! Each camera's stream is one job, and `GenConfig::nodes` worker
//! threads (the EC2-node analogue; every core by default) take camera
//! jobs from one shared queue — per-camera generation needs no
//! coordination, which is exactly what Figure 9 measures. The 360°
//! panoramas are a second phase, one job per rig, once every face
//! stream exists. Output is bit-identical across node counts.

use crate::captions::generate_captions;
use crate::dataset::{Dataset, VideoMeta, VideoRole};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;
use vr_base::{Error, FrameRate, Hyperparameters, Result, Timestamp, VrRng};
use vr_codec::{Encoder, EncoderConfig, Profile, RateControlMode};
use vr_container::{ContainerWriter, TrackKind};
use vr_frame::Frame;
use vr_render::CameraRenderer;
use vr_scene::{CityCamera, VisualCity};
use vr_vdbms::kernels::{serialize_boxes, FrameStream, StitchMap};
use vr_vdbms::query::FaceParams;
use vr_vdbms::{InputVideo, OutputBox};

/// Generator configuration (knobs *around* the benchmark
/// hyperparameters — scaling controls and implementation choices that
/// are reported alongside results).
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Entity-density scale (1.0 = the paper's per-tile populations;
    /// in-session runs default lighter).
    pub density_scale: f64,
    /// Worker "nodes" for distributed generation (1 = sequential, on
    /// the calling thread). Defaults to
    /// [`worker_budget`](vr_base::sync::worker_budget), so `VR_WORKERS`
    /// applies.
    pub nodes: usize,
    /// Codec profile for input videos.
    pub profile: Profile,
    /// Encode QP for input videos.
    pub input_qp: u8,
    /// Camera capture rate.
    pub frame_rate: FrameRate,
    /// Whether to also produce the pre-stitched 360° videos Q10
    /// consumes.
    pub generate_panoramas: bool,
    /// Extra procedurally-generated tile layouts added to the pool
    /// (0 = the paper's 72-tile pool; the future-work extension).
    pub procedural_tile_variants: u8,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            density_scale: 0.15,
            nodes: vr_base::sync::worker_budget(),
            profile: Profile::H264Like,
            input_qp: 20,
            frame_rate: FrameRate::STANDARD,
            generate_panoramas: true,
            procedural_tile_variants: 0,
        }
    }
}

/// The Visual City Generator.
pub struct Vcg {
    cfg: GenConfig,
}

impl Vcg {
    /// Create a generator.
    pub fn new(cfg: GenConfig) -> Self {
        Self { cfg }
    }

    /// Generate a dataset single-threaded, recording each camera
    /// stream's wall-clock generation time. Used by the Figure 9
    /// reproduction to compute per-node-count makespans on machines
    /// without enough cores to run the worker threads truly in
    /// parallel (per-camera generation is fully independent, so the
    /// makespan of the job schedule is exactly what a node cluster
    /// would take).
    pub fn generate_with_timings(
        &self,
        hyper: &Hyperparameters,
    ) -> Result<(Dataset, Vec<std::time::Duration>)> {
        Vcg::new(GenConfig { nodes: 1, ..self.cfg.clone() }).generate_timed(hyper)
    }

    /// Generate a complete dataset.
    pub fn generate(&self, hyper: &Hyperparameters) -> Result<Dataset> {
        Ok(self.generate_timed(hyper)?.0)
    }

    /// The generator body: the dataset, and how long each camera's
    /// stream took (in camera order).
    fn generate_timed(
        &self,
        hyper: &Hyperparameters,
    ) -> Result<(Dataset, Vec<std::time::Duration>)> {
        let city = VisualCity::generate_extended(
            hyper,
            self.cfg.density_scale,
            self.cfg.procedural_tile_variants,
        );
        let cameras = city.cameras();
        let nodes = self.cfg.nodes;

        // Phase 1: one job per camera stream.
        let streams = run_jobs(
            cameras.len(),
            nodes,
            |i| cameras[i].id.to_string(),
            |i| {
                let t0 = Instant::now();
                let (video, meta) = generate_camera_video(&city, &cameras[i], hyper, &self.cfg)?;
                Ok((video, meta, t0.elapsed()))
            },
        )?;
        let mut videos = Vec::with_capacity(streams.len());
        let mut meta = Vec::with_capacity(streams.len());
        let mut timings = Vec::with_capacity(streams.len());
        for (v, m, took) in streams {
            videos.push(v);
            meta.push(m);
            timings.push(took);
        }

        // Phase 2: the derived 360° panoramas (stitched from the face
        // videos with the reference stitcher), one job per rig. Kept
        // apart from phase 1: a rig's job holds the most memory of any
        // (its stitch table, four face decoders and an encoder), and
        // overlapping it with camera jobs would raise the high-water
        // mark.
        if self.cfg.generate_panoramas {
            let rigs = collect_rig_faces(&meta);
            let panoramas = run_jobs(
                rigs.len(),
                nodes,
                |r| format!("pano360-rig{}", rigs[r].0),
                |r| {
                    let (rig, faces) = rigs[r];
                    generate_panorama(&videos, &meta, rig, faces, &city, self.cfg.input_qp)
                },
            )?;
            for (v, m) in panoramas {
                videos.push(v);
                meta.push(m);
            }
        }

        let dataset =
            Dataset { hyper: *hyper, city, videos, meta, density_scale: self.cfg.density_scale };
        Ok((dataset, timings))
    }
}

/// Run `job(i)` for every `i < n` and return the results in index
/// order, whatever order the jobs finished in.
///
/// In the shape of the VCD's batch dispatch: each of `workers` threads
/// takes the next index from one shared counter, so a slow job never
/// leaves a worker idle behind it. The calling thread is one of the
/// workers, so with one worker (or one job) nothing is spawned; and
/// the memory its jobs free stays with the thread that goes on to use
/// the dataset, where a spawned thread's would sit resident and unused
/// once it exits. A panicking job becomes [`Error::StagePanic`] naming
/// it (`name(i)`). Workers stop taking jobs once they see a failure;
/// since indices are handed out in order, every job below a failed one
/// has still run, so the error returned is the lowest-index job's — the
/// one a sequential run stops at.
fn run_jobs<T: Send + Sync>(
    n: usize,
    workers: usize,
    name: impl Fn(usize) -> String + Sync,
    job: impl Fn(usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Vec<OnceLock<Result<T>>> = (0..n).map(|_| OnceLock::new()).collect();
    let worker = || {
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return;
            }
            let result = catch_unwind(AssertUnwindSafe(|| job(i))).unwrap_or_else(|p| {
                Err(Error::StagePanic(format!("{}: {}", name(i), crate::vcd::panic_message(p))))
            });
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            // Each index is taken by exactly one worker.
            let _ = slots[i].set(result);
        }
    };
    std::thread::scope(|s| {
        for _ in 1..workers.min(n) {
            s.spawn(worker);
        }
        worker();
    });
    // Slots are filled up to at least the lowest failure, so reading in
    // order meets that error before any job that never started.
    slots.into_iter().map_while(OnceLock::into_inner).collect()
}

/// Render, encode, and mux one camera's stream.
fn generate_camera_video(
    city: &VisualCity,
    cam: &CityCamera,
    hyper: &Hyperparameters,
    cfg: &GenConfig,
) -> Result<(InputVideo, VideoMeta)> {
    let (w, h) = (hyper.resolution.width, hyper.resolution.height);
    let frames = hyper.duration.frames(cfg.frame_rate).max(1);
    let enc_cfg = EncoderConfig {
        profile: cfg.profile,
        rate: RateControlMode::ConstantQp(cfg.input_qp),
        gop: cfg.frame_rate.0,
        frame_rate: cfg.frame_rate,
    };
    let mut encoder = Encoder::new(enc_cfg, w, h)?;
    let mut writer = ContainerWriter::new();
    let video_track = writer.add_track(TrackKind::Video, encoder.info().serialize());

    // Captions (traffic cameras only — panoramic faces feed Q9).
    let caption_track = if cam.kind == vr_base::CameraKind::Traffic {
        Some(writer.add_track(TrackKind::Captions, Vec::new()))
    } else {
        None
    };
    let boxes_track = if cam.kind == vr_base::CameraKind::Traffic {
        Some(writer.add_track(TrackKind::Metadata, Vec::new()))
    } else {
        None
    };

    // The camera's static scene layer, drawn once and dropped with
    // this stream.
    let renderer = CameraRenderer::new(city, cam, w, h);
    for i in 0..frames {
        let t = i as f64 * cfg.frame_rate.frame_interval_secs();
        let frame = renderer.frame(t);
        let packet = encoder.encode(&frame)?;
        let ts = Timestamp::of_frame(i, cfg.frame_rate);
        writer.push_sample(video_track, &packet.data, ts, packet.keyframe);
        if let Some(bt) = boxes_track {
            let truth = vr_scene::groundtruth::frame_truth(city, cam, t, w, h);
            let boxes: Vec<OutputBox> = truth
                .objects
                .iter()
                .filter(|o| !o.occluded)
                .map(|o| OutputBox { class: o.class, rect: o.rect })
                .collect();
            writer.push_sample(bt, &serialize_boxes(&boxes), ts, true);
        }
    }
    if let Some(ct) = caption_track {
        let mut rng = VrRng::seed_from(vr_base::rng::mix64(hyper.seed, 0xCA90 ^ cam.id.0 as u64));
        let doc = generate_captions(&mut rng, hyper.duration);
        writer.push_sample(ct, doc.serialize().as_bytes(), Timestamp::ZERO, true);
    }

    let name = format!("{}-{}.vrmf", cam.id, role_tag(cam));
    let input = InputVideo::from_bytes(name, writer.finish())?;
    let role = match cam.kind {
        vr_base::CameraKind::Traffic => VideoRole::Traffic,
        vr_base::CameraKind::PanoramicFace(face) => VideoRole::PanoramicFace {
            rig: rig_index_of(city, cam),
            face,
        },
    };
    Ok((input, VideoMeta { camera: Some(cam.id), tile: cam.tile, role }))
}

fn role_tag(cam: &CityCamera) -> String {
    match cam.kind {
        vr_base::CameraKind::Traffic => "traffic".to_string(),
        vr_base::CameraKind::PanoramicFace(f) => format!("pano-f{f}"),
    }
}

/// Which rig (by city order) a panoramic face camera belongs to.
fn rig_index_of(city: &VisualCity, cam: &CityCamera) -> usize {
    city.panoramic_rigs()
        .iter()
        .position(|rig| rig.iter().any(|f| f.id == cam.id))
        .expect("face camera belongs to a rig")
}

fn collect_rig_faces(meta: &[VideoMeta]) -> Vec<(usize, [usize; 4])> {
    let mut rigs: std::collections::BTreeMap<usize, [usize; 4]> = Default::default();
    for (i, m) in meta.iter().enumerate() {
        if let VideoRole::PanoramicFace { rig, face } = m.role {
            rigs.entry(rig).or_insert([usize::MAX; 4])[face as usize] = i;
        }
    }
    rigs.into_iter().filter(|(_, f)| f.iter().all(|&i| i != usize::MAX)).collect()
}

/// Build the pre-stitched 360° video for one rig.
fn generate_panorama(
    videos: &[InputVideo],
    meta: &[VideoMeta],
    rig: usize,
    faces: [usize; 4],
    city: &VisualCity,
    qp: u8,
) -> Result<(InputVideo, VideoMeta)> {
    let rigs = city.panoramic_rigs();
    let rig_cams = rigs[rig];
    let params: [FaceParams; 4] = std::array::from_fn(|i| FaceParams {
        yaw: rig_cams[i].camera.yaw,
        pitch: rig_cams[i].camera.pitch,
        hfov_deg: rig_cams[i].camera.hfov_deg,
    });
    // The four faces decode in lockstep, one frame of each resident.
    let mut streams = Vec::with_capacity(4);
    for &fi in &faces {
        streams.push(FrameStream::open(&videos[fi])?);
    }
    let info = streams[0].info();
    let n = streams.iter().map(|s| s.len()).min().unwrap_or(0);
    let out_w = (info.width * 2).max(4) & !1;
    let out_h = info.width.max(4) & !1;

    let enc_cfg = EncoderConfig {
        profile: info.profile,
        rate: RateControlMode::ConstantQp(qp),
        gop: info.gop,
        frame_rate: info.frame_rate,
    };
    let mut encoder = Encoder::new(enc_cfg, out_w, out_h)?;
    let mut writer = ContainerWriter::new();
    let track = writer.add_track(TrackKind::Video, encoder.info().serialize());
    // The rig's direction table, built once and dropped with this video.
    let map = StitchMap::new(&params, info.width, info.height, out_w, out_h);
    for t in 0..n {
        let [a, b, c, d]: [Result<Frame>; 4] = std::array::from_fn(|i| {
            streams[i].next_frame().expect("within the shortest face")
        });
        let packet = encoder.encode(&map.apply(&[a?, b?, c?, d?]))?;
        writer.push_sample(
            track,
            &packet.data,
            Timestamp::of_frame(t as u64, info.frame_rate),
            packet.keyframe,
        );
    }
    let tile = meta[faces[0]].tile;
    let input = InputVideo::from_bytes(format!("pano360-rig{rig}.vrmf"), writer.finish())?;
    Ok((input, VideoMeta { camera: None, tile, role: VideoRole::Panorama360 { rig } }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_base::{Duration, Resolution};

    fn hyper(l: u32, seed: u64) -> Hyperparameters {
        Hyperparameters::new(l, Resolution::new(96, 56), Duration::from_secs(0.3), seed)
            .unwrap()
    }

    fn fast_cfg() -> GenConfig {
        GenConfig { density_scale: 0.05, ..Default::default() }
    }

    #[test]
    fn generates_expected_video_inventory() {
        let ds = Vcg::new(fast_cfg()).generate(&hyper(2, 7)).unwrap();
        // Per tile: 4 traffic + 4 faces; plus 1 panorama per rig.
        assert_eq!(ds.traffic_indices().len(), 8);
        assert_eq!(ds.rig_faces().len(), 2);
        assert_eq!(ds.panorama_indices().len(), 2);
        assert_eq!(ds.videos.len(), 2 * 8 + 2);
        // Every video decodes and has the right frame count (0.3 s at
        // 30 fps = 9 frames).
        for idx in ds.traffic_indices() {
            assert_eq!(ds.videos[idx].frame_count(), 9);
            vr_vdbms::kernels::decode_all(&ds.videos[idx]).unwrap();
        }
        assert!(ds.total_frames() > 0);
        assert!(ds.total_bytes() > 0);
    }

    #[test]
    fn traffic_videos_carry_aux_tracks() {
        let ds = Vcg::new(fast_cfg()).generate(&hyper(1, 8)).unwrap();
        for idx in ds.traffic_indices() {
            let v = &ds.videos[idx];
            assert!(v.container.track_of_kind(TrackKind::Captions).is_some());
            assert!(v.container.track_of_kind(TrackKind::Metadata).is_some());
            // Caption track parses as WebVTT.
            vr_vdbms::kernels::caption_track(v).unwrap();
            // Box track parses for frame 0.
            vr_vdbms::kernels::box_track(v, 0).unwrap();
        }
        // Panoramic faces don't.
        for faces in ds.rig_faces() {
            for fi in faces {
                assert!(ds.videos[fi]
                    .container
                    .track_of_kind(TrackKind::Captions)
                    .is_none());
            }
        }
    }

    #[test]
    fn generation_is_deterministic_across_node_counts() {
        let single = Vcg::new(GenConfig { nodes: 1, ..fast_cfg() })
            .generate(&hyper(2, 9))
            .unwrap();
        let multi = Vcg::new(GenConfig { nodes: 4, ..fast_cfg() })
            .generate(&hyper(2, 9))
            .unwrap();
        assert_eq!(single.videos.len(), multi.videos.len());
        for (a, b) in single.videos.iter().zip(&multi.videos) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                a.container.raw_bytes(),
                b.container.raw_bytes(),
                "distributed output must be bit-identical ({})",
                a.name
            );
        }
    }

    /// Run `f` on its own thread and fail the test if it has not
    /// returned within `limit` (a worker left blocked).
    fn within<T: Send + 'static>(
        limit: std::time::Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(limit).expect("finished within the time limit")
    }

    #[test]
    fn a_failing_camera_fails_the_run_at_every_node_count() {
        // QP 99 is out of range: every camera's encoder refuses it.
        let errors: Vec<String> = [1, 3, 4]
            .into_iter()
            .map(|nodes| {
                within(std::time::Duration::from_secs(60), move || {
                    let cfg = GenConfig { input_qp: 99, nodes, ..fast_cfg() };
                    Vcg::new(cfg).generate(&hyper(2, 12)).map(|_| ()).unwrap_err().to_string()
                })
            })
            .collect();
        assert!(errors[0].contains("QP 99"), "{}", errors[0]);
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
    }

    #[test]
    fn jobs_fill_slots_in_order_and_fail_at_the_lowest_index() {
        for workers in [1, 2, 3, 8] {
            let squares = run_jobs(7, workers, |i| format!("job {i}"), |i| Ok(i * i)).unwrap();
            assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36]);
            assert!(run_jobs(0, workers, |_| String::new(), Ok).unwrap().is_empty());
            // Job 2 panics, job 5 errors: the lowest index wins, named.
            let err = within(std::time::Duration::from_secs(30), move || {
                run_jobs(
                    8,
                    workers,
                    |i| format!("job {i}"),
                    |i| match i {
                        2 => panic!("boom"),
                        5 => Err(Error::InvalidConfig("five".into())),
                        _ => Ok(i),
                    },
                )
                .unwrap_err()
            });
            assert!(
                matches!(&err, Error::StagePanic(m) if m == "job 2: boom"),
                "workers={workers}: {err}"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Vcg::new(fast_cfg()).generate(&hyper(1, 1)).unwrap();
        let b = Vcg::new(fast_cfg()).generate(&hyper(1, 2)).unwrap();
        assert_ne!(
            a.videos[0].container.raw_bytes(),
            b.videos[0].container.raw_bytes()
        );
    }

    #[test]
    fn sample_context_reflects_city() {
        let ds = Vcg::new(fast_cfg()).generate(&hyper(2, 10)).unwrap();
        let ctx = ds.sample_context(2);
        assert!(!ctx.known_plates.is_empty());
        assert_eq!(ctx.rigs.len(), 2);
        assert_eq!(ctx.max_upsample_exp, 2);
    }

    #[test]
    fn store_round_trip() {
        let ds = Vcg::new(GenConfig { generate_panoramas: false, ..fast_cfg() })
            .generate(&hyper(1, 11))
            .unwrap();
        let store = vr_storage::FlatStore::temp("vcg-store").unwrap();
        ds.write_to_store(&store).unwrap();
        assert_eq!(store.list().unwrap().len(), ds.videos.len());
        let mut ds2 = Vcg::new(GenConfig { generate_panoramas: false, ..fast_cfg() })
            .generate(&hyper(1, 11))
            .unwrap();
        ds2.reload_videos(&store).unwrap();
        assert_eq!(
            ds.videos[0].container.raw_bytes(),
            ds2.videos[0].container.raw_bytes()
        );
        store.destroy().unwrap();
    }
}
