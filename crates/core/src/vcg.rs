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
//! jobs from one shared queue ([`run_jobs`]) — per-camera generation
//! needs no coordination, which is exactly what Figure 9 measures. The 360°
//! panoramas are a second phase, one job per rig, once every face
//! stream exists; a rig job with a core to spare decodes and stitches
//! on one thread while it encodes on another. Output is bit-identical
//! across node counts.

use crate::captions::generate_captions;
use crate::dataset::{rig_faces, Dataset, VideoMeta, VideoRole};
use std::time::Instant;
use vr_base::sync::run_jobs;
use vr_base::{Error, FramePool, FrameRate, Hyperparameters, Result, Timestamp, VrRng};
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
        // mark. With at least two nodes per rig, each rig job splits
        // across two threads.
        if self.cfg.generate_panoramas {
            let rigs = rig_faces(&meta);
            let spare_core = nodes >= 2 * rigs.len();
            let panoramas = run_jobs(
                rigs.len(),
                nodes,
                |r| format!("pano360-rig{}", rigs[r].0),
                |r| {
                    let (rig, faces) = rigs[r];
                    let qp = self.cfg.input_qp;
                    generate_panorama(&videos, &meta, rig, faces, &city, qp, spare_core)
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

/// Build the pre-stitched 360° video for one rig: decode the four
/// faces in lockstep and stitch (the producer), encode and mux (the
/// consumer). With `spare_core` the producer runs on a thread of its
/// own, one frame ahead of the encoder; otherwise the two alternate on
/// the calling thread.
fn generate_panorama(
    videos: &[InputVideo],
    meta: &[VideoMeta],
    rig: usize,
    faces: [usize; 4],
    city: &VisualCity,
    qp: u8,
    spare_core: bool,
) -> Result<(InputVideo, VideoMeta)> {
    let rig_cams = city.panoramic_rigs()[rig];
    let params: [FaceParams; 4] = std::array::from_fn(|i| FaceParams {
        yaw: rig_cams[i].camera.yaw,
        pitch: rig_cams[i].camera.pitch,
        hfov_deg: rig_cams[i].camera.hfov_deg,
    });
    // One frame of each face resident at a time.
    let [a, b, c, d] = faces.map(|fi| FrameStream::open(&videos[fi]));
    let mut streams = [a?, b?, c?, d?];
    let info = streams[0].info();
    let n = streams.iter().map(FrameStream::len).min().unwrap_or(0);
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
    // The rig's direction table, built once per video.
    let map = StitchMap::new(&params, info.width, info.height, out_w, out_h);
    // Stitched frames recycle: one being stitched, one in the channel,
    // one being encoded.
    let pool = FramePool::new(3);
    // The producer owns the streams, the table and the pool, so they
    // are freed with it, before the muxer copies the container out.
    let stitch = move |t: usize| {
        let [a, b, c, d] = streams.each_mut().map(|s| {
            s.next().unwrap_or_else(|| {
                Err(Error::Corrupt(format!("pano360-rig{rig}: a face ends before frame {t}")))
            })
        });
        let mut out = Frame::new_pooled(out_w, out_h, &pool);
        map.apply(&[a?, b?, c?, d?], &mut out);
        Ok(out)
    };
    let encode = |t: usize, frame: Frame| {
        let packet = encoder.encode(&frame)?;
        let ts = Timestamp::of_frame(t as u64, info.frame_rate);
        writer.push_sample(track, &packet.data, ts, packet.keyframe);
        Ok(())
    };
    produce_consume(n, spare_core, stitch, encode)?;
    let tile = meta[faces[0]].tile;
    let input = InputVideo::from_bytes(format!("pano360-rig{rig}.vrmf"), writer.finish())?;
    Ok((input, VideoMeta { camera: None, tile, role: VideoRole::Panorama360 { rig } }))
}

/// Run `consume(t, produce(t)?)` for every `t < n` in order, stopping
/// at the first error.
///
/// With `pipelined`, `produce` runs on a scoped thread and hands its
/// items over a channel of one slot, so it works one item ahead of the
/// calling thread, which consumes. When the consumer stops, dropping
/// the receiver fails the producer's next send, so it stops too; a
/// producer's panic is re-raised on the calling thread with its own
/// payload. Otherwise both alternate on the calling thread, which
/// spawns nothing.
fn produce_consume<T: Send>(
    n: usize,
    pipelined: bool,
    mut produce: impl FnMut(usize) -> Result<T> + Send,
    mut consume: impl FnMut(usize, T) -> Result<()>,
) -> Result<()> {
    if !pipelined {
        return (0..n).try_for_each(|t| consume(t, produce(t)?));
    }
    let (tx, rx) = std::sync::mpsc::sync_channel(1);
    std::thread::scope(|s| {
        let producer = s.spawn(move || {
            for t in 0..n {
                let item = produce(t);
                let failed = item.is_err();
                if tx.send(item).is_err() || failed {
                    return;
                }
            }
        });
        let consumed = rx.into_iter().enumerate().try_for_each(|(t, item)| consume(t, item?));
        if let Err(panic) = producer.join() {
            std::panic::resume_unwind(panic);
        }
        consumed
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vr_base::sync::panic_message;
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
        assert_eq!(rig_faces(&ds.meta).len(), 2);
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
        for (_, faces) in rig_faces(&ds.meta) {
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
        // Two rigs: nodes 1 stitches inline on one thread, nodes 2 runs
        // the two rig jobs in parallel, each inline, and nodes 4 runs
        // them in parallel, each pipelined.
        let single = Vcg::new(GenConfig { nodes: 1, ..fast_cfg() })
            .generate(&hyper(2, 9))
            .unwrap();
        for nodes in [2, 4] {
            let multi = Vcg::new(GenConfig { nodes, ..fast_cfg() })
                .generate(&hyper(2, 9))
                .unwrap();
            assert_eq!(single.videos.len(), multi.videos.len());
            for (a, b) in single.videos.iter().zip(&multi.videos) {
                assert_eq!(a.name, b.name);
                assert_eq!(
                    a.container.raw_bytes(),
                    b.container.raw_bytes(),
                    "distributed output must be bit-identical ({}, nodes {nodes})",
                    a.name
                );
            }
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

    /// `video` with the payload of video sample `k` cut to its first
    /// two bytes.
    fn with_truncated_packet(video: &InputVideo, k: usize) -> InputVideo {
        let track = video.container.track_of_kind(TrackKind::Video).unwrap();
        let source = &video.container.tracks()[track];
        let mut writer = ContainerWriter::new();
        let out = writer.add_track(TrackKind::Video, source.config.clone());
        for (i, s) in source.samples.iter().enumerate() {
            let data = video.container.sample(track, i).unwrap();
            let data = if i == k { &data[..2] } else { data };
            writer.push_sample(out, data, s.timestamp, s.keyframe);
        }
        InputVideo::from_bytes(video.name.clone(), writer.finish()).unwrap()
    }

    #[test]
    fn a_corrupt_face_packet_fails_the_panorama_job_inline_and_pipelined() {
        let errors: Vec<(String, String)> = [false, true]
            .into_iter()
            .map(|spare_core| {
                within(std::time::Duration::from_secs(60), move || {
                    let cfg = GenConfig { generate_panoramas: false, ..fast_cfg() };
                    let mut ds = Vcg::new(cfg).generate(&hyper(1, 13)).unwrap();
                    let (rig, faces) = rig_faces(&ds.meta)[0];
                    ds.videos[faces[2]] = with_truncated_packet(&ds.videos[faces[2]], 4);
                    let decoder = vr_vdbms::kernels::decode_all(&ds.videos[faces[2]]);
                    let job = generate_panorama(
                        &ds.videos, &ds.meta, rig, faces, &ds.city, 20, spare_core,
                    );
                    (decoder.unwrap_err().to_string(), job.map(|_| ()).unwrap_err().to_string())
                })
            })
            .collect();
        let (decoder, inline) = &errors[0];
        assert!(decoder.starts_with("corrupt data"), "{decoder}");
        assert_eq!(inline, decoder, "inline: the decoder's own error");
        assert_eq!(&errors[1].1, decoder, "pipelined: the decoder's own error");
    }

    #[test]
    fn produce_consume_stops_both_sides_at_the_first_failure() {
        let three = || Error::InvalidConfig("three".into());
        for pipelined in [false, true] {
            let (consumer_err, produced, producer_err, consumed, panic) =
                within(std::time::Duration::from_secs(30), move || {
                    // The consumer fails at item 3 of 100: a producer
                    // blocked on the full channel must stop as well.
                    let produced = AtomicUsize::new(0);
                    let produce = |t| {
                        produced.fetch_add(1, Ordering::Relaxed);
                        Ok(t)
                    };
                    let consume = |t, _| if t == 3 { Err(three()) } else { Ok(()) };
                    let consumer_err = produce_consume(100, pipelined, produce, consume);
                    // The producer fails at item 5: items 0..5 arrive.
                    let mut consumed = Vec::new();
                    let produce = |t| if t == 5 { Err(Error::Corrupt("five".into())) } else { Ok(t) };
                    let consume = |_, item| {
                        consumed.push(item);
                        Ok(())
                    };
                    let producer_err = produce_consume(100, pipelined, produce, consume);
                    let panic = catch_unwind(|| {
                        let produce = |t| if t == 2 { panic!("boom") } else { Ok(t) };
                        produce_consume(9, pipelined, produce, |_, _| Ok(()))
                    });
                    let panic = panic.map_err(panic_message);
                    (consumer_err, produced.into_inner(), producer_err, consumed, panic)
                });
            assert_eq!(consumer_err.unwrap_err().to_string(), three().to_string());
            // At most one item in the channel and one being produced
            // beyond the four consumed.
            assert!(produced <= 6, "pipelined={pipelined}: produced {produced} items");
            assert_eq!(producer_err.unwrap_err().to_string(), "corrupt data: five");
            assert_eq!(consumed, [0, 1, 2, 3, 4]);
            assert_eq!(panic.unwrap_err(), "boom", "pipelined={pipelined}: the producer's payload");
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
        let ctx = ds.sample_context();
        assert!(!ctx.known_plates.is_empty());
        assert_eq!(ctx.rigs.len(), 2);
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
