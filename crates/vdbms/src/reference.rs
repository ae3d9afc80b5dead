//! The reference engine: the VCD's own implementation of every query
//! (§5, "we also develop a Visual Road reference implementation for
//! use in verifying benchmark results").
//!
//! Streaming scans through the shared physical-operator pipeline with
//! no scheduling tricks. Each query's kernel is the shared one
//! (`pipeline`, `kernels`) that the other engines also run where their
//! architecture does not deliberately diverge; the multi-camera
//! queries are `pub` here for the same reuse.

use crate::engine::Vdbms;
use crate::io::{ExecContext, InputVideo, QueryOutput};
use crate::kernels::{boxes_frame, caption_track, StitchMap, TileReencode};
use crate::pipeline::{
    self, DecodeScan, DetectBoxes, FrameKernel, FrameSource, KernelOut, ObjectDetection,
    Pipeline, TemporalMaskKernel,
};
use crate::plan::PlanNode;
use crate::query::{FaceParams, QueryInstance, QueryKind, QuerySpec};
use vr_base::{Error, LicensePlate, Resolution, Result, Timestamp};
use vr_codec::{EncodedVideo, VideoInfo};
use vr_frame::{ops, Frame};
use vr_geom::Rect;
use vr_scene::ObjectClass;
use vr_vision::{AlprRecognizer, Detection, YoloConfig};
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
                (Policy::Streaming, ScanOp::Stream, format!("temporal-mask(m={m})"))
            }
            QuerySpec::Q3 { .. } => {
                (Policy::Streaming, ScanOp::Stream, "subquery-reencode".to_string())
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
                (Policy::Streaming, ScanOp::Stream, format!("object-detection({class:?})"))
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
                (Policy::Streaming, ScanOp::Stream, "tile-encode".to_string())
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
            },
            ctx,
        )
    }
}

/// Execute an instance with the reference semantics (shared with the
/// driver's validation path, which must not double-sink results).
/// Every single-input arm streams through the shared pipeline (Q8 over
/// its cameras in turn, Q9 over its four faces in lockstep).
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
            let mut kernel = TemporalMaskKernel::new(*m, *epsilon, scan.len());
            Ok(QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video))
        }
        QuerySpec::Q3 { dx, dy, bitrates } => {
            let mut scan = pl.stream_scan(input(0)?)?;
            let mut kernel = TileReencode::q3(scan.info(), *dx, *dy, bitrates)?;
            Ok(QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video))
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
            let mut kernel = ObjectDetection::new(*class, YoloConfig::default(), scan.len());
            Ok(QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video))
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
            let mut kernel =
                TileReencode::q10(scan.info(), *high_bitrate, *low_bitrate, high_tiles, *client)?;
            Ok(QueryOutput::Video(pl.run_streaming(&mut scan, &mut kernel)?.video))
        }
    }
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

/// Q9's four face scans read in lockstep: face 0, 1, 2 and 3 of frame
/// 0, then of frame 1, and so on up to the shortest face. Each scan
/// records its own Decode time; this source adds none.
struct Lockstep<'a> {
    faces: [DecodeScan<'a>; 4],
    next: usize,
    end: usize,
}

impl<'a> Lockstep<'a> {
    fn new(faces: [DecodeScan<'a>; 4]) -> Self {
        let rounds = faces.iter().map(|f| f.len()).min().unwrap_or(0);
        Self { faces, next: 0, end: 4 * rounds }
    }
}

impl FrameSource for Lockstep<'_> {
    fn info(&self) -> VideoInfo {
        self.faces[0].info()
    }

    fn len(&self) -> usize {
        self.end - self.next
    }

    fn next_frame(&mut self) -> Option<Result<Frame>> {
        if self.next >= self.end {
            return None;
        }
        let frame = self.faces[self.next % 4].next_frame()?;
        self.next += 1;
        Some(frame)
    }
}

/// Q9's kernel: holds one round of face frames and emits their stitch.
/// The direction table is built at the first round, as Kernel work.
struct Stitch<'p> {
    params: &'p [FaceParams; 4],
    face: (u32, u32),
    out: (u32, u32),
    map: Option<StitchMap>,
    round: Vec<Frame>,
}

impl FrameKernel for Stitch<'_> {
    fn push(&mut self, frame: Frame, _index: usize, out: &mut Vec<KernelOut>) -> Result<()> {
        self.round.push(frame);
        let Ok(faces) = <&[Frame; 4]>::try_from(self.round.as_slice()) else {
            return Ok(());
        };
        let ((fw, fh), (ow, oh)) = (self.face, self.out);
        let map = self.map.get_or_insert_with(|| StitchMap::new(self.params, fw, fh, ow, oh));
        let mut stitched = Frame::new(ow, oh);
        map.apply(faces, &mut stitched);
        self.round.clear();
        out.push(KernelOut::from(stitched));
        Ok(())
    }
}

/// Q9 reference: stream the four faces in lockstep and stitch each
/// round into one equirectangular frame.
pub fn q9_stitch(
    pl: &Pipeline,
    faces: &[&InputVideo; 4],
    params: &[FaceParams; 4],
    output: Resolution,
) -> Result<EncodedVideo> {
    let [a, b, c, d] = faces.map(|face| pl.stream_scan(face));
    let mut source = Lockstep::new([a?, b?, c?, d?]);
    if source.len() == 0 {
        return Err(Error::InvalidConfig("Q9 faces are empty".into()));
    }
    let info = source.info();
    let mut kernel = Stitch {
        params,
        face: (info.width, info.height),
        out: (output.width.max(4) & !1, output.height.max(4) & !1),
        map: None,
        round: Vec::with_capacity(4),
    };
    Ok(pl.run_streaming(&mut source, &mut kernel)?.video)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::io::OutputBox;
    use crate::kernels::filter_class;
    use crate::pipeline::tests::{
        assert_streams_as, drain, encode_frames, kernel_frames, packets, video_info,
    };
    use crate::pipeline::StageKind;
    use vr_container::{ContainerWriter, TrackKind};
    use vr_frame::tile::TileGrid;
    use vr_frame::Yuv;
    use vr_vision::YoloDetector;

    /// Q2(d) before it streamed: the whole video in, rolling window
    /// sums over the luma plane, the window clamped at the end.
    pub(crate) fn q2d_masking(frames: &[Frame], m: u32, epsilon: f64) -> Vec<Frame> {
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
            // exists; near the end keep the last full window).
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

    /// Q9 before it streamed: every face drained whole, then each frame
    /// stitched and the panorama encoded.
    fn q9_stitch_drained(
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
            decoded.push(drain(&mut scan)?);
        }
        let info = info.unwrap();
        let n = decoded.iter().map(|d| d.len()).min().unwrap_or(0);
        if n == 0 {
            return Err(Error::InvalidConfig("Q9 faces are empty".into()));
        }
        let out_w = output.width.max(4) & !1;
        let out_h = output.height.max(4) & !1;
        let map = StitchMap::new(params, info.width, info.height, out_w, out_h);
        let out = (0..n)
            .map(|t| {
                let mut frame = Frame::new(out_w, out_h);
                map.apply(&std::array::from_fn(|i| decoded[i][t].clone()), &mut frame);
                frame
            })
            .collect::<Vec<Frame>>();
        encode_frames(pl, out, VideoInfo { width: out_w, height: out_h, ..info })
    }

    /// Four rig faces one quarter-turn apart.
    fn face_params() -> [FaceParams; 4] {
        std::array::from_fn(|i| FaceParams {
            yaw: i as f32 * std::f32::consts::FRAC_PI_2,
            pitch: 0.2 * i as f32 - 0.3,
            hfov_deg: 110.0,
        })
    }

    /// Face `i` of a rig: `n` `w`×`h` moving frames, each face starting
    /// at a different point of the motion.
    fn face_input(i: usize, w: u32, h: u32, n: usize) -> InputVideo {
        let frames = crate::kernels::tests::moving_frames(w, h, n + 3 * i);
        crate::io::tests::frames_input(&format!("face{i}.vrmf"), &frames[3 * i..], 5)
    }

    /// A rig's four face inputs, borrowed.
    fn faces(rig: &[InputVideo]) -> [&InputVideo; 4] {
        std::array::from_fn(|i| &rig[i])
    }

    /// Q7 before it streamed: every frame coalesced with its box frame
    /// in place, then the whole video masked.
    pub(crate) fn q7_object_detection(
        mut frames: Vec<Frame>,
        class: ObjectClass,
        cfg: YoloConfig,
    ) -> Vec<Frame> {
        let mut detector = YoloDetector::new(cfg);
        for f in &mut frames {
            let dets = filter_class(detector.detect(f), class);
            *f = ops::coalesce(f, &boxes_frame(f.width(), f.height(), &dets));
        }
        q2d_masking(&frames, 10, 0.2)
    }

    /// Q10 before it streamed: the whole-video tile re-encode, then a
    /// downsample of every frame.
    fn q10_tile_encode(
        frames: Vec<Frame>,
        info: VideoInfo,
        high_bitrate: u32,
        low_bitrate: u32,
        high_tiles: &[bool; 9],
        client: Resolution,
    ) -> Result<Vec<Frame>> {
        let (w, h) = (frames[0].width(), frames[0].height());
        let bitrates: Vec<u32> =
            high_tiles.iter().map(|&hi| if hi { high_bitrate } else { low_bitrate }).collect();
        let grid = TileGrid::uniform(w, h, 3, 3);
        let mut out = crate::kernels::tests::subquery_reencode(frames, info, &grid, &bitrates)?;
        for f in &mut out {
            *f = ops::downsample(f, client.width.clamp(2, w), client.height.clamp(2, h));
        }
        Ok(out)
    }

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

    /// The Q10 kernel before it called the shared tile kernel: its own
    /// copy of the whole-sequence tile loop, then a downsample.
    fn q10_tile_encode_oracle(
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

    /// The detection pass Q7 used to call: every frame's box frame
    /// (and boxes), for the whole video.
    fn q2c_boxes_oracle(
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

    /// Q7 before it ran frame by frame: whole-video box frames, then a
    /// whole-video union.
    fn q7_object_detection_oracle(
        frames: &[Frame],
        class: ObjectClass,
        cfg: YoloConfig,
    ) -> Vec<Frame> {
        let (box_frames, _) = q2c_boxes_oracle(frames, class, cfg);
        let unioned: Vec<Frame> = frames
            .iter()
            .zip(&box_frames)
            .map(|(f, b)| ops::coalesce(f, b))
            .collect();
        q2d_masking(&unioned, 10, 0.2)
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
        let mut kernel = ObjectDetection::new(ObjectClass::Vehicle, YoloConfig::fast(), fs.len());
        let out = kernel_frames(&mut kernel, &fs).unwrap();
        assert_eq!(out.len(), fs.len());
        // Far corner is background → ω.
        assert!(out[6].is_omega(60, 44));
    }

    #[test]
    fn q10_produces_client_resolution() {
        let fs = frames(4);
        let info = video_info(vr_codec::Profile::H264Like, 64, 48, 4);
        let mut high = [false; 9];
        high[4] = true;
        let mut kernel =
            TileReencode::q10(info, 1 << 21, 1 << 16, &high, Resolution::new(32, 24)).unwrap();
        let out = kernel_frames(&mut kernel, &fs).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!((out[0].width(), out[0].height()), (32, 24));
    }

    /// The streaming kernel, the in-place whole-video form and the
    /// three-vector form agree byte for byte, at 14 frames and at 6
    /// (fewer than the window's m = 10).
    #[test]
    fn q7_matches_the_three_vector_oracle() {
        let info = video_info(vr_codec::Profile::H264Like, 96, 64, 30);
        for n in [14, 6] {
            let fs = crate::kernels::tests::moving_frames(96, 64, n);
            for (class, cfg) in [
                (ObjectClass::Vehicle, YoloConfig::fast()),
                (ObjectClass::Pedestrian, YoloConfig::fast()),
                (ObjectClass::Vehicle, YoloConfig::default()),
                (ObjectClass::Pedestrian, YoloConfig::default()),
            ] {
                let want = q7_object_detection_oracle(&fs, class, cfg.clone());
                let whole = q7_object_detection(fs.clone(), class, cfg.clone());
                assert!(whole == want, "{class:?}, {n} frames: Q7 differs from the oracle");
                let what = format!("Q7 {class:?} ({} MACs/px), {n} frames", cfg.macs_per_pixel);
                assert_streams_as(&fs, info, &want, |total| {
                    ObjectDetection::new(class, cfg.clone(), total)
                }, &what);
            }
        }
    }

    #[test]
    fn q10_matches_its_own_tile_loop() {
        let (w, h) = (96, 72);
        let fs = crate::kernels::tests::moving_frames(w, h, 6);
        for (gop, hb, lb, client) in [
            (6, 1 << 21, 1 << 16, Resolution::new(48, 36)),
            (2, 1 << 19, 1 << 13, Resolution::new(96, 72)),
            (3, 1 << 17, 1 << 17, Resolution::new(30, 20)),
        ] {
            let info = video_info(vr_codec::Profile::H264Like, w, h, gop);
            let high: [bool; 9] = std::array::from_fn(|i| i % 2 == gop as usize % 2);
            let want = q10_tile_encode_oracle(&fs, info, hb, lb, &high, client).unwrap();
            let whole = q10_tile_encode(fs.clone(), info, hb, lb, &high, client).unwrap();
            let what = format!("gop {gop}, {hb}/{lb} b/s, client {client}");
            assert!(whole == want, "{what}: Q10 differs from the oracle");
            assert_streams_as(&fs, info, &want, |_| {
                TileReencode::q10(info, hb, lb, &high, client).unwrap()
            }, &what);
        }
    }

    /// The lockstep Q9 against its drained form, packet for packet, at
    /// pipeline workers 1 and 2: four equal faces, faces of unequal
    /// lengths (the panorama stops at the shortest), and an empty face,
    /// which both forms refuse with the same error.
    #[test]
    fn q9_matches_the_drained_stitch() {
        let params = face_params();
        let output = Resolution::new(98, 47);
        for lengths in [[6, 6, 6, 6], [7, 4, 6, 5], [3, 5, 5, 5]] {
            let inputs: Vec<InputVideo> =
                (0..4).map(|i| face_input(i, 48, 32, lengths[i])).collect();
            let faces = faces(&inputs);
            let ctx = ExecContext { workers: 1, ..ExecContext::default() };
            let want = q9_stitch_drained(&Pipeline::new(&ctx), &faces, &params, output).unwrap();
            let shortest = *lengths.iter().min().unwrap();
            assert_eq!(want.len(), shortest, "{lengths:?}");
            assert_eq!((want.info.width, want.info.height), (98, 46), "{lengths:?}");
            for workers in [1, 2] {
                let ctx = ExecContext { workers, ..ExecContext::default() };
                let got = q9_stitch(&Pipeline::new(&ctx), &faces, &params, output).unwrap();
                let same = packets(&got) == packets(&want);
                assert!(same, "faces of {lengths:?} frames, workers={workers}: packets differ");
                let snap = ctx.metrics.snapshot();
                let (decoded, stitched) = (4 * shortest as u64, shortest as u64);
                assert_eq!(snap.stage(StageKind::Decode).frames, decoded, "{lengths:?}");
                assert_eq!(snap.stage(StageKind::Kernel).frames, decoded, "{lengths:?}");
                assert_eq!(snap.stage(StageKind::Encode).frames, stitched, "{lengths:?}");
            }
        }
        let mut w = ContainerWriter::new();
        let info = video_info(vr_codec::Profile::H264Like, 48, 32, 5);
        w.add_track(TrackKind::Video, info.serialize());
        let empty = InputVideo::from_bytes("face-empty.vrmf", w.finish()).unwrap();
        let full = face_input(0, 48, 32, 4);
        let faces = [&full, &full, &empty, &full];
        let ctx = ExecContext { workers: 1, ..ExecContext::default() };
        let pl = Pipeline::new(&ctx);
        for result in [
            q9_stitch_drained(&pl, &faces, &params, output),
            q9_stitch(&pl, &faces, &params, output),
        ] {
            let error = result.err().map(|e| e.to_string()).unwrap_or_default();
            assert!(error.contains("Q9 faces are empty"), "{error:?}");
        }
    }

    /// Peak live bytes above entry on this thread while `run` answers,
    /// less the answer's own packets (which grow with the input
    /// whatever the kernel keeps resident).
    fn peak_beside_the_answer(run: impl FnOnce() -> EncodedVideo) -> u64 {
        let scope = vr_base::obs::alloc::ScopeGuard::begin();
        let answer = run();
        let peak = scope.finish().peak_bytes;
        let packets: usize = answer.packets.iter().map(|p| p.data.capacity()).sum();
        peak.saturating_sub(packets as u64)
    }

    /// Reference Q7 (fast detector) and Q3 keep a window, not the video:
    /// at one pipeline worker, tripling a 30-frame 160×96 input moves
    /// their peak by less than four frames, where draining the input
    /// into the whole-video forms first grows it by 40 frames or more.
    #[test]
    fn streaming_peak_does_not_grow_with_the_input() {
        let (w, h) = (160, 96);
        let frame_bytes = (w * h * 3 / 2) as u64;
        let frames = crate::kernels::tests::moving_frames(w, h, 90);
        let inputs =
            [30, 90].map(|n| crate::io::tests::frames_input("peak.vrmf", &frames[..n], 30));
        let info = inputs[0].video_info().unwrap();
        let ctx = ExecContext { workers: 1, ..ExecContext::default() };
        let pl = Pipeline::new(&ctx);
        let bitrates = [1 << 18; 6];
        let q7 = |input: &InputVideo| {
            let mut scan = pl.stream_scan(input).unwrap();
            let mut kernel =
                ObjectDetection::new(ObjectClass::Vehicle, YoloConfig::fast(), scan.len());
            pl.run_streaming(&mut scan, &mut kernel).unwrap().video
        };
        let q3 = |input: &InputVideo| {
            let mut scan = pl.stream_scan(input).unwrap();
            let mut kernel = TileReencode::q3(info, 64, 48, &bitrates).unwrap();
            pl.run_streaming(&mut scan, &mut kernel).unwrap().video
        };
        let drained = |input: &InputVideo| drain(&mut pl.stream_scan(input).unwrap()).unwrap();
        let q7_whole = |input: &InputVideo| {
            let out = q7_object_detection(drained(input), ObjectClass::Vehicle, YoloConfig::fast());
            encode_frames(&pl, out, info).unwrap()
        };
        let q3_whole = |input: &InputVideo| {
            let grid = TileGrid::new(w, h, 64, 48);
            let frames = drained(input);
            let out = crate::kernels::tests::subquery_reencode(frames, info, &grid, &bitrates);
            let out = out.unwrap();
            encode_frames(&pl, out, info).unwrap()
        };
        let _serial = crate::pipeline::tests::ALLOC_LOCK.lock();
        vr_base::obs::alloc::set_tracking(true);
        // Warm-up: lazily built codec and detector tables allocate once
        // per process.
        peak_beside_the_answer(|| q7(&inputs[0]));
        peak_beside_the_answer(|| q3(&inputs[0]));
        let peaks = |run: &dyn Fn(&InputVideo) -> EncodedVideo| {
            inputs.each_ref().map(|input| peak_beside_the_answer(|| run(input)))
        };
        let streamed = [peaks(&q7), peaks(&q3)];
        let whole = [peaks(&q7_whole), peaks(&q3_whole)];
        vr_base::obs::alloc::set_tracking(false);
        for (query, [short, long]) in ["Q7", "Q3"].into_iter().zip(streamed) {
            assert!(short > 0, "{query}: alloc tracking recorded nothing");
            assert!(
                long < short + 4 * frame_bytes,
                "{query}: the streamed peak {short} -> {long} B grew by four frames \
                 ({frame_bytes} B each) or more"
            );
        }
        for (query, [short, long]) in ["Q7", "Q3"].into_iter().zip(whole) {
            assert!(
                long >= short + 40 * frame_bytes,
                "{query}: the whole-video peak {short} -> {long} B should grow by 40 frames"
            );
        }
    }

    /// Q9 holds one round of faces, not the video: at one pipeline
    /// worker, tripling four 20-frame 96×64 faces moves its peak by less
    /// than four face frames, where draining the faces first grows it by
    /// a hundred or more.
    #[test]
    fn q9_peak_does_not_grow_with_the_faces() {
        let (w, h) = (96, 64);
        let frame_bytes = (w * h * 3 / 2) as u64;
        let rigs = [20, 60].map(|n| (0..4).map(|i| face_input(i, w, h, n)).collect::<Vec<_>>());
        let params = face_params();
        let output = Resolution::new(192, 96);
        let ctx = ExecContext { workers: 1, ..ExecContext::default() };
        let pl = Pipeline::new(&ctx);
        let _serial = crate::pipeline::tests::ALLOC_LOCK.lock();
        vr_base::obs::alloc::set_tracking(true);
        // Warm-up: lazily built codec tables allocate once per process.
        peak_beside_the_answer(|| q9_stitch(&pl, &faces(&rigs[0]), &params, output).unwrap());
        let [short, long] = rigs.each_ref().map(|rig| {
            peak_beside_the_answer(|| q9_stitch(&pl, &faces(rig), &params, output).unwrap())
        });
        let [drained_short, drained_long] = rigs.each_ref().map(|rig| {
            peak_beside_the_answer(|| {
                q9_stitch_drained(&pl, &faces(rig), &params, output).unwrap()
            })
        });
        vr_base::obs::alloc::set_tracking(false);
        assert!(short > 0, "alloc tracking recorded nothing");
        assert!(
            long < short + 4 * frame_bytes,
            "the lockstep peak {short} -> {long} B grew by four face frames \
             ({frame_bytes} B each) or more"
        );
        assert!(
            drained_long >= drained_short + 100 * frame_bytes,
            "the drained peak {drained_short} -> {drained_long} B should grow by 100 face frames"
        );
    }
}
