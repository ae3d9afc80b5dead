//! The reference engine: the VCD's own implementation of every query
//! (§5, "we also develop a Visual Road reference implementation for
//! use in verifying benchmark results").
//!
//! Streaming scans through the shared physical-operator pipeline with
//! no scheduling tricks. The per-query functions are `pub` so the
//! composite queries and the other engines can reuse the exact
//! reference semantics where their architecture does not deliberately
//! diverge.

use crate::engine::Vdbms;
use crate::io::{ExecContext, InputVideo, OutputBox, QueryOutput};
use crate::kernels::{
    boxes_frame, caption_track, encode_output, filter_class, subquery_reencode, StitchMap,
};
use crate::pipeline::{self, DetectBoxes, FrameKernel, FrameSource, KernelOut, Pipeline};
use crate::plan::PlanNode;
use crate::query::{FaceParams, QueryInstance, QueryKind, QuerySpec};
use vr_base::{Error, LicensePlate, Resolution, Result, Timestamp};
use vr_codec::{EncodedVideo, VideoInfo};
use vr_frame::tile::TileGrid;
use vr_frame::{ops, Frame};
use vr_geom::Rect;
use vr_scene::ObjectClass;
use vr_vision::{AlprRecognizer, Detection, YoloConfig, YoloDetector};
use vr_vtt::{render_cues_frame, CaptionStyle};

/// The reference engine.
#[derive(Default)]
pub struct ReferenceEngine {
    _private: (),
}

impl ReferenceEngine {
    /// Create the reference engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Vdbms for ReferenceEngine {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn supports(&self, _kind: QueryKind) -> bool {
        true
    }

    fn execute(
        &self,
        instance: &QueryInstance,
        inputs: &[InputVideo],
        ctx: &ExecContext,
    ) -> Result<QueryOutput> {
        let output = execute_reference(instance, inputs, ctx)?;
        Pipeline::new(ctx).sink(instance.index, &output)?;
        Ok(output)
    }

    fn plan(&self, instance: &QueryInstance, ctx: &ExecContext) -> PlanNode {
        use crate::plan::{Policy, ScanOp};
        // One arm per `execute_reference` arm: same policy, same scan.
        let (policy, scan, kernel) = match &instance.spec {
            QuerySpec::Q1 { .. } => {
                (Policy::Streaming, ScanOp::Stream, "crop+temporal-select".to_string())
            }
            QuerySpec::Q2a => (Policy::Streaming, ScanOp::Stream, "grayscale".to_string()),
            QuerySpec::Q2b { d } => {
                (Policy::Streaming, ScanOp::Stream, format!("gaussian_blur(d={d})"))
            }
            QuerySpec::Q2c { class } => {
                (Policy::Streaming, ScanOp::Stream, format!("detect_boxes({class:?})"))
            }
            QuerySpec::Q2d { m, .. } => {
                (Policy::Sequence, ScanOp::Stream, format!("temporal-mask(m={m})"))
            }
            QuerySpec::Q3 { .. } => {
                (Policy::Sequence, ScanOp::Stream, "subquery-reencode".to_string())
            }
            QuerySpec::Q4 { alpha, beta } => (
                Policy::Streaming,
                ScanOp::Stream,
                format!("interpolate-bilinear(x{alpha},x{beta})"),
            ),
            QuerySpec::Q5 { .. } => (Policy::Streaming, ScanOp::Stream, "downsample".to_string()),
            QuerySpec::Q6a => (Policy::Streaming, ScanOp::Stream, "box-overlay".to_string()),
            QuerySpec::Q6b => {
                (Policy::Streaming, ScanOp::Stream, "caption-overlay".to_string())
            }
            QuerySpec::Q7 { class } => {
                (Policy::Sequence, ScanOp::Stream, format!("object-detection({class:?})"))
            }
            QuerySpec::Q8 { .. } => (
                Policy::StreamingMulti,
                ScanOp::Multi(instance.inputs.len()),
                "plate-track".to_string(),
            ),
            QuerySpec::Q9 { .. } => {
                (Policy::StreamingMulti, ScanOp::Multi(4), "panoramic-stitch".to_string())
            }
            QuerySpec::Q10 { .. } => {
                (Policy::Sequence, ScanOp::Stream, "tile-encode".to_string())
            }
        };
        crate::plan::build(
            &crate::plan::PlanDesc {
                engine: "reference",
                query: instance.spec.kind().label(),
                policy,
                scan,
                kernel,
                gate: None,
                fanout: None,
            },
            ctx,
        )
    }
}

/// Execute an instance with the reference semantics (shared with the
/// driver's validation path, which must not double-sink results).
/// Every arm runs through the shared pipeline's streaming policy.
pub fn execute_reference(
    instance: &QueryInstance,
    inputs: &[InputVideo],
    ctx: &ExecContext,
) -> Result<QueryOutput> {
    let pl = Pipeline::new(ctx);
    let input = |i: usize| -> Result<&InputVideo> {
        instance
            .inputs
            .get(i)
            .and_then(|&idx| inputs.get(idx))
            .ok_or_else(|| Error::InvalidConfig(format!("instance is missing input {i}")))
    };
    match &instance.spec {
        QuerySpec::Q1 { rect, t1, t2 } => {
            let mut scan = pl.stream_scan(input(0)?)?;
            let info = scan.info();
            let last = (t2.frame_index(info.frame_rate) as usize)
                .min(scan.len().saturating_sub(1));
            let first = (t1.frame_index(info.frame_rate) as usize).min(last);
            let rect = *rect;
            let mut kernel = pipeline::filter_map(move |f, i| {
                (first..=last).contains(&i).then(|| ops::crop(&f, rect))
            });
            Ok(QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video))
        }
        QuerySpec::Q2a => {
            let mut scan = pl.stream_scan(input(0)?)?;
            let mut kernel = pipeline::map(|f, _| ops::grayscale(&f));
            Ok(QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video))
        }
        QuerySpec::Q2b { d } => {
            let mut scan = pl.stream_scan(input(0)?)?;
            let d = *d;
            let mut kernel = pipeline::map(move |f, _| ops::gaussian_blur(&f, d));
            Ok(QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video))
        }
        QuerySpec::Q2c { class } => {
            let mut scan = pl.stream_scan(input(0)?)?;
            let mut kernel = DetectBoxes::new(*class, YoloConfig::default());
            let r = pl.run_streaming(&mut scan, &mut kernel)?;
            Ok(QueryOutput::BoxedVideo {
                video: r.video,
                boxes: r.boxes.unwrap_or_default(),
            })
        }
        QuerySpec::Q2d { m, epsilon } => {
            let mut scan = pl.stream_scan(input(0)?)?;
            let (m, epsilon) = (*m, *epsilon);
            let out = pl.run_sequence(&mut scan, |frames, _| {
                Ok(q2d_masking(&frames, m, epsilon))
            })?;
            Ok(QueryOutput::Video(out))
        }
        QuerySpec::Q3 { dx, dy, bitrates } => {
            let mut scan = pl.stream_scan(input(0)?)?;
            let (dx, dy) = (*dx, *dy);
            let out = pl.run_sequence(&mut scan, |frames, info| {
                subquery_reencode(&frames, info, dx, dy, bitrates)
            })?;
            Ok(QueryOutput::Video(out))
        }
        QuerySpec::Q4 { alpha, beta } => {
            let mut scan = pl.stream_scan(input(0)?)?;
            let (alpha, beta) = (*alpha, *beta);
            let mut kernel = pipeline::map(move |f, _| {
                ops::interpolate_bilinear(&f, f.width() * alpha, f.height() * beta)
            });
            Ok(QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video))
        }
        QuerySpec::Q5 { alpha, beta } => {
            let mut scan = pl.stream_scan(input(0)?)?;
            let (alpha, beta) = (*alpha, *beta);
            let mut kernel = pipeline::map(move |f, _| {
                ops::downsample(&f, (f.width() / alpha).max(2), (f.height() / beta).max(2))
            });
            Ok(QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video))
        }
        QuerySpec::Q6a => {
            let inp = input(0)?;
            let mut scan = pl.stream_scan(inp)?;
            let mut kernel = pipeline::try_map(|f: Frame, i: usize| {
                let boxes = crate::kernels::box_track(inp, i)?;
                let dets: Vec<Detection> = boxes
                    .iter()
                    .map(|b| Detection { class: b.class, rect: b.rect, score: 1.0 })
                    .collect();
                let overlay = boxes_frame(f.width(), f.height(), &dets);
                Ok(ops::coalesce(&f, &overlay))
            });
            Ok(QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video))
        }
        QuerySpec::Q6b => {
            let inp = input(0)?;
            let doc = caption_track(inp)?;
            let style = CaptionStyle::default();
            let mut scan = pl.stream_scan(inp)?;
            let frame_rate = scan.info().frame_rate;
            let mut kernel = pipeline::map(move |f, i| {
                let t = Timestamp::of_frame(i as u64, frame_rate);
                let overlay = render_cues_frame(&doc, t, f.width(), f.height(), &style);
                ops::coalesce(&f, &overlay)
            });
            Ok(QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video))
        }
        QuerySpec::Q7 { class } => {
            let mut scan = pl.stream_scan(input(0)?)?;
            let class = *class;
            let out = pl.run_sequence(&mut scan, |frames, _| {
                Ok(q7_object_detection(&frames, class, YoloConfig::default()))
            })?;
            Ok(QueryOutput::Video(out))
        }
        QuerySpec::Q8 { plate } => {
            let videos: Result<Vec<_>> =
                instance.inputs.iter().map(|&i| {
                    inputs
                        .get(i)
                        .ok_or_else(|| Error::InvalidConfig(format!("missing input {i}")))
                }).collect();
            let videos = videos?;
            let out = q8_vehicle_tracking(&pl, &videos, *plate)?;
            Ok(QueryOutput::Video(out))
        }
        QuerySpec::Q9 { faces, output } => {
            let out = q9_stitch(
                &pl,
                &[input(0)?, input(1)?, input(2)?, input(3)?],
                faces,
                *output,
            )?;
            Ok(QueryOutput::Video(out))
        }
        QuerySpec::Q10 { high_bitrate, low_bitrate, high_tiles, client } => {
            let mut scan = pl.stream_scan(input(0)?)?;
            let (hb, lb, client) = (*high_bitrate, *low_bitrate, *client);
            let out = pl.run_sequence(&mut scan, |frames, info| {
                q10_tile_encode(&frames, info, hb, lb, high_tiles, client)
            })?;
            Ok(QueryOutput::Video(out))
        }
    }
}

/// Encode frames whose resolution may differ from the input's.
pub fn encode_cropped(frames: &[Frame], info: VideoInfo, qp: u8) -> Result<EncodedVideo> {
    let adjusted = VideoInfo {
        width: frames.first().map(|f| f.width()).unwrap_or(info.width),
        height: frames.first().map(|f| f.height()).unwrap_or(info.height),
        ..info
    };
    encode_output(frames, adjusted, qp)
}

/// Q1 reference: temporal selection then spatial crop.
pub fn q1_select(
    frames: &[Frame],
    info: VideoInfo,
    rect: Rect,
    t1: Timestamp,
    t2: Timestamp,
) -> Vec<Frame> {
    let first = t1.frame_index(info.frame_rate) as usize;
    let last = (t2.frame_index(info.frame_rate) as usize).min(frames.len().saturating_sub(1));
    let first = first.min(last);
    frames[first..=last].iter().map(|f| ops::crop(f, rect)).collect()
}

/// Q2(c) reference: detect, filter to the class, paint class-colored
/// boxes on ω.
pub fn q2c_boxes(
    frames: &[Frame],
    class: ObjectClass,
    cfg: YoloConfig,
) -> (Vec<Frame>, Vec<Vec<OutputBox>>) {
    let mut detector = YoloDetector::new(cfg);
    let mut out_frames = Vec::with_capacity(frames.len());
    let mut out_boxes = Vec::with_capacity(frames.len());
    for f in frames {
        let dets = filter_class(detector.detect(f), class);
        out_frames.push(boxes_frame(f.width(), f.height(), &dets));
        out_boxes.push(
            dets.iter().map(|d| OutputBox { class: d.class, rect: d.rect }).collect(),
        );
    }
    (out_frames, out_boxes)
}

/// Q2(d) reference: m-frame mean background, relative-threshold mask.
/// Uses rolling window sums, so cost is O(frames · pixels), not
/// O(frames · m · pixels).
pub fn q2d_masking(frames: &[Frame], m: u32, epsilon: f64) -> Vec<Frame> {
    assert!(!frames.is_empty());
    let m = (m as usize).clamp(1, frames.len());
    let len = frames[0].y.len();
    // Rolling sum over the luma plane of the window [j, j+m).
    let mut sum: Vec<u32> = vec![0; len];
    for f in frames.iter().take(m) {
        for (s, &p) in sum.iter_mut().zip(&f.y) {
            *s += p as u32;
        }
    }
    let mut background = Frame::new(frames[0].width(), frames[0].height());
    let mut out = Vec::with_capacity(frames.len());
    for j in 0..frames.len() {
        for (b, &s) in background.y.iter_mut().zip(&sum) {
            *b = ((s + (m as u32) / 2) / m as u32) as u8;
        }
        out.push(ops::background_mask(&frames[j], &background, epsilon));
        // Slide the window: drop frame j, add frame j+m (when it
        // exists; near the end the window shrinks to the tail and we
        // keep the last full window instead, matching the paper's
        // j..j+m formulation clamped at the boundary).
        if j + m < frames.len() {
            for ((s, &old), &new) in
                sum.iter_mut().zip(&frames[j].y).zip(&frames[j + m].y)
            {
                *s = *s - old as u32 + new as u32;
            }
        }
    }
    out
}

/// Q6(a) reference: overlay the precomputed box track.
pub fn q6a_union_boxes(input: &InputVideo, frames: &[Frame]) -> Result<Vec<Frame>> {
    let mut out = Vec::with_capacity(frames.len());
    for (i, f) in frames.iter().enumerate() {
        let boxes = crate::kernels::box_track(input, i)?;
        let dets: Vec<Detection> = boxes
            .iter()
            .map(|b| Detection { class: b.class, rect: b.rect, score: 1.0 })
            .collect();
        let overlay = boxes_frame(f.width(), f.height(), &dets);
        out.push(ops::coalesce(f, &overlay));
    }
    Ok(out)
}

/// Q7 reference: `Q2d(Q6a(V, Q2c(V)))` per Table 6, with the composite
/// masking window fixed at (m = 10, ε = 0.2).
pub fn q7_object_detection(frames: &[Frame], class: ObjectClass, cfg: YoloConfig) -> Vec<Frame> {
    let (box_frames, _) = q2c_boxes(frames, class, cfg);
    let unioned: Vec<Frame> = frames
        .iter()
        .zip(&box_frames)
        .map(|(f, b)| ops::coalesce(f, b))
        .collect();
    q2d_masking(&unioned, 10, 0.2)
}

/// The Q8 tracking kernel: per-frame plate recognition with ≤3-frame
/// gap bridging, segments buffered internally and emitted at finish.
/// A VTS is a maximal run of frames where the plate is identifiable;
/// short gaps are bridged, matching momentary recognition dropouts.
struct Q8Kernel {
    recognizer: AlprRecognizer,
    plate: LicensePlate,
    info: VideoInfo,
    segments: Vec<Frame>,
    gap: usize,
}

impl Q8Kernel {
    fn new(plate: LicensePlate, info: VideoInfo) -> Self {
        Self {
            recognizer: AlprRecognizer::default(),
            plate,
            info,
            segments: Vec::new(),
            gap: usize::MAX,
        }
    }
}

impl FrameKernel for Q8Kernel {
    fn push(&mut self, mut f: Frame, _index: usize, _out: &mut Vec<KernelOut>) -> Result<()> {
        let reads = self.recognizer.recognize(&f);
        let hit = reads.iter().find(|r| r.plate == self.plate);
        match hit {
            Some(read) => {
                // Overlay the identified plate region (Q6a step of
                // the Table 7 recurrence).
                vr_frame::draw::outline_rect(
                    &mut f,
                    read.rect.inflated(2),
                    vr_frame::color::rgb_to_yuv(ObjectClass::Vehicle.color()),
                    2,
                );
                self.segments.push(f);
                self.gap = 0;
            }
            None if self.gap <= 3 => {
                // Bridge: keep the frame inside the segment.
                self.segments.push(f);
                self.gap += 1;
            }
            None => self.gap = self.gap.saturating_add(1),
        }
        Ok(())
    }

    fn end_of_source(&mut self, _out: &mut Vec<KernelOut>) -> Result<()> {
        // Trim trailing bridge frames that never reconnected.
        while self.gap > 0 && self.gap != usize::MAX && !self.segments.is_empty() && self.gap <= 3
        {
            self.segments.pop();
            self.gap -= 1;
        }
        self.gap = usize::MAX;
        Ok(())
    }

    fn finish(&mut self, out: &mut Vec<KernelOut>) -> Result<()> {
        if self.segments.is_empty() {
            // No sighting: the tracking video is a single black frame
            // (a zero-length video cannot be encoded or validated).
            self.segments.push(Frame::new(self.info.width, self.info.height));
        }
        out.extend(self.segments.drain(..).map(KernelOut::from));
        Ok(())
    }
}

/// Q8 reference: scan each traffic video with the plate recognizer,
/// collect vehicle tracking segments (VTSs) for the target plate, and
/// concatenate them ordered by entry time. Runs as one multi-source
/// streaming pipeline.
pub fn q8_vehicle_tracking(
    pl: &Pipeline,
    videos: &[&InputVideo],
    plate: LicensePlate,
) -> Result<EncodedVideo> {
    let first = videos
        .first()
        .ok_or_else(|| Error::InvalidConfig("Q8 needs at least one input".into()))?;
    let info = first.video_info()?;
    let mut scans = videos
        .iter()
        .map(|v| pl.stream_scan(v))
        .collect::<Result<Vec<_>>>()?;
    let mut sources: Vec<&mut dyn FrameSource> =
        scans.iter_mut().map(|s| s as &mut dyn FrameSource).collect();
    let mut kernel = Q8Kernel::new(plate, info);
    Ok(pl.run_streaming_multi(&mut sources, &mut kernel)?.video)
}

/// Q9 reference: decode the four faces and stitch per frame.
pub fn q9_stitch(
    pl: &Pipeline,
    faces: &[&InputVideo; 4],
    params: &[FaceParams; 4],
    output: Resolution,
) -> Result<EncodedVideo> {
    let mut decoded = Vec::with_capacity(4);
    let mut info = None;
    for face in faces {
        let mut scan = pl.stream_scan(face)?;
        info.get_or_insert(scan.info());
        decoded.push(pl.drain(&mut scan)?);
    }
    let info = info.unwrap();
    let n = decoded.iter().map(|d| d.len()).min().unwrap_or(0);
    if n == 0 {
        return Err(Error::InvalidConfig("Q9 faces are empty".into()));
    }
    let out_w = output.width.max(4) & !1;
    let out_h = output.height.max(4) & !1;
    let out = pl.kernel_span(n as u64, || {
        let map = StitchMap::new(params, info.width, info.height, out_w, out_h);
        (0..n)
            .map(|t| map.apply(&std::array::from_fn(|i| decoded[i][t].clone())))
            .collect::<Vec<Frame>>()
    });
    pl.encode_frames(&out, VideoInfo { width: out_w, height: out_h, ..info })
}

/// Q10 reference: 3×3 two-bitrate tile re-encode, then downsample to
/// the client resolution (Table 8: `V' = Q5(Q3(V, j → b_j), r)`).
pub fn q10_tile_encode(
    frames: &[Frame],
    info: VideoInfo,
    high_bitrate: u32,
    low_bitrate: u32,
    high_tiles: &[bool; 9],
    client: Resolution,
) -> Result<Vec<Frame>> {
    assert!(!frames.is_empty());
    let (w, h) = (frames[0].width(), frames[0].height());
    let grid = TileGrid::uniform(w, h, 3, 3);
    let bitrates: Vec<u32> = high_tiles
        .iter()
        .map(|&hi| if hi { high_bitrate } else { low_bitrate })
        .collect();
    // Reuse the Q3 kernel with the uniform grid by re-encoding each
    // tile sequence at its bitrate.
    let rects = grid.rects();
    let mut decoded_tiles: Vec<Vec<Frame>> = Vec::with_capacity(9);
    for (rect, &bitrate) in rects.iter().zip(&bitrates) {
        let tile_frames: Vec<Frame> = frames.iter().map(|f| ops::crop(f, *rect)).collect();
        let cfg = vr_codec::EncoderConfig {
            profile: info.profile,
            rate: vr_codec::RateControlMode::Bitrate(bitrate),
            gop: info.gop,
            frame_rate: info.frame_rate,
        };
        decoded_tiles.push(vr_codec::encode_sequence(&cfg, &tile_frames)?.decode_all()?);
    }
    let mut out = Vec::with_capacity(frames.len());
    for t in 0..frames.len() {
        let tiles: Vec<Frame> = decoded_tiles.iter().map(|d| d[t].clone()).collect();
        let stitched = grid.stitch(&tiles);
        out.push(ops::downsample(
            &stitched,
            client.width.clamp(2, w),
            client.height.clamp(2, h),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_frame::Yuv;

    fn frames(n: usize) -> Vec<Frame> {
        (0..n)
            .map(|i| {
                let mut f = Frame::new(64, 48);
                for y in 0..48 {
                    for x in 0..64 {
                        f.set_y(x, y, ((x * 2 + y * 3) as usize + i * 5) as u8);
                    }
                }
                f
            })
            .collect()
    }

    #[test]
    fn q1_selects_time_and_space() {
        let fs = frames(30);
        let info = VideoInfo {
            profile: vr_codec::Profile::H264Like,
            width: 64,
            height: 48,
            frame_rate: vr_base::FrameRate(30),
            gop: 30,
        };
        let out = q1_select(
            &fs,
            info,
            Rect::new(10, 10, 40, 30),
            Timestamp::of_frame(5, info.frame_rate),
            Timestamp::of_frame(10, info.frame_rate),
        );
        assert_eq!(out.len(), 6); // frames 5..=10
        assert_eq!(out[0].width(), 30);
        assert_eq!(out[0].height(), 20);
        assert_eq!(out[0].get_y(0, 0), fs[5].get_y(10, 10));
    }

    #[test]
    fn q2d_rolling_matches_naive() {
        let fs = frames(12);
        let m = 4u32;
        let eps = 0.15;
        let rolling = q2d_masking(&fs, m, eps);
        // Naive recomputation.
        for j in 0..fs.len() {
            let hi = (j + m as usize).min(fs.len());
            let lo = hi.saturating_sub(m as usize).min(j);
            let window: Vec<&Frame> = fs[lo..hi].iter().collect();
            let bg = ops::temporal_mean(&window);
            let naive = ops::background_mask(&fs[j], &bg, eps);
            let p = vr_frame::metrics::psnr_y(&rolling[j], &naive);
            assert!(p > 38.0, "frame {j}: rolling vs naive {p} dB");
        }
    }

    #[test]
    fn q2d_masks_static_scene_to_black() {
        let f = Frame::filled(32, 32, Yuv::gray(120));
        let fs = vec![f; 8];
        let out = q2d_masking(&fs, 4, 0.3);
        assert!(out[3].is_omega(16, 16), "static pixels must be masked");
    }

    #[test]
    fn q7_composes_detection_union_masking() {
        // A moving bright blob over a static background: Q7 output
        // keeps (colored) content near the blob and blacks out the
        // rest.
        let mut fs = frames(12);
        for (i, f) in fs.iter_mut().enumerate() {
            for y in 10..26 {
                for x in (5 + i * 2)..(25 + i * 2).min(64) {
                    f.set(x as u32, y, Yuv::new(230, 60, 200));
                }
            }
        }
        let out = q7_object_detection(&fs, ObjectClass::Vehicle, YoloConfig::fast());
        assert_eq!(out.len(), fs.len());
        // Far corner is background → ω.
        assert!(out[6].is_omega(60, 44));
    }

    #[test]
    fn q10_produces_client_resolution() {
        let fs = frames(4);
        let info = VideoInfo {
            profile: vr_codec::Profile::H264Like,
            width: 64,
            height: 48,
            frame_rate: vr_base::FrameRate(30),
            gop: 4,
        };
        let mut high = [false; 9];
        high[4] = true;
        let out =
            q10_tile_encode(&fs, info, 1 << 21, 1 << 16, &high, Resolution::new(32, 24))
                .unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!((out[0].width(), out[0].height()), (32, 24));
    }
}
