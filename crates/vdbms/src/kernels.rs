//! Shared query kernels.
//!
//! Correct single implementations of the operations every engine
//! needs (decode, stitching, box overlays, the Q3/Q10 tile re-encode).
//! [`FrameStream`] is the one loop that turns an input's samples into
//! frames — whole-track, keyframe-seeking range, GOP-parallel and
//! online (paced RTP) decode are all streams over it.
//! Engines differ in *scheduling* (eager vs streamed, cached vs not)
//! and in a few deliberately divergent kernels (the batch engine's
//! slow resize, the functional engine's scalar captioner) — those
//! live in the engine modules; everything here is the shared fast
//! path, which doubles as the reference implementation.

use crate::io::{ExecContext, InputVideo, OutputBox};
use crate::pipeline::{FrameKernel, KernelOut, PipelineMetrics};
use std::sync::Arc;
use vr_base::fault::{FaultInjector, Recovery};
use vr_base::{Error, Resolution, Result};
use vr_codec::{
    DecodeOutcome, Decoder, Encoder, EncoderConfig, RateControlMode, ResilientDecoder, VideoInfo,
};
use vr_container::{SampleInfo, TrackKind};
use vr_frame::tile::TileGrid;
use vr_frame::{draw, ops, round_u8, Frame};
use vr_geom::{Camera, Equirect, Rect, Vec3};
use vr_scene::ObjectClass;
use vr_storage::rtp::{RtpDepacketizer, RtpPacketizer};
use vr_storage::Pacer;
use vr_vision::Detection;
use vr_vtt::WebVtt;

/// A run's fault plan and the metrics its recoveries land in: what a
/// [`FrameStream`] takes of its execution context to decode under the
/// plan ([`FrameStream::faulted`]).
struct RunFaults {
    injector: Arc<FaultInjector>,
    metrics: Arc<PipelineMetrics>,
}

impl RunFaults {
    fn recover(&self, what: Recovery, n: u64) {
        self.metrics.recovered().add(what, n);
    }
}

/// The shared sample→frame decode step, switching between the fast
/// path (zero-copy decode, any error propagates) and the resilient
/// path used under a run's fault plan (corruption injection, CRC
/// skip-and-conceal at the demuxer boundary, decoder resync at the
/// next keyframe). Every engine decode route goes through this, so
/// injected faults surface the same way everywhere and the fast path
/// stays bit-identical when faults are off.
enum SampleDecoder {
    /// No fault plan: plain decode.
    Fast(Decoder),
    /// A fault plan: conceal instead of fail, and count.
    Resilient(ResilientDecoder, RunFaults),
}

impl SampleDecoder {
    /// The plain decoder a stream opens with.
    fn new(info: VideoInfo) -> Self {
        SampleDecoder::Fast(Decoder::new(info))
    }

    /// The run's fault plan, when the path is resilient.
    fn faults(&self) -> Option<&RunFaults> {
        match self {
            SampleDecoder::Fast(_) => None,
            SampleDecoder::Resilient(_, faults) => Some(faults),
        }
    }

    /// Decode sample `index` of `track`.
    fn decode_sample(
        &mut self,
        input: &InputVideo,
        track: usize,
        index: usize,
    ) -> Result<Frame> {
        match self {
            SampleDecoder::Fast(dec) => dec.decode(input.container.sample(track, index)?),
            SampleDecoder::Resilient(dec, faults) => {
                let sinfo = input.container.tracks()[track].samples[index];
                // The injector may mutate the sample: decode a copy.
                let mut payload = input.container.sample(track, index)?.to_vec();
                faults.injector.corrupt_sample(&input.name, index as u64, &mut payload);
                Ok(decode_checked(dec, faults, sinfo, &payload))
            }
        }
    }

    /// Decode sample `index` as the online feed delivered it: `None`
    /// when the wire lost it, which the resilient path conceals (only
    /// a fault plan drops packets, and only under one is the path
    /// resilient; a loss on the fast path is an error).
    fn decode_received(
        &mut self,
        input: &InputVideo,
        sinfo: SampleInfo,
        index: usize,
        received: Option<Vec<u8>>,
    ) -> Result<Frame> {
        match (self, received) {
            (SampleDecoder::Fast(dec), Some(payload)) => dec.decode(&payload),
            (SampleDecoder::Fast(_), None) => {
                Err(Error::Corrupt(format!("sample {index} of {} lost on the wire", input.name)))
            }
            (SampleDecoder::Resilient(dec, faults), Some(mut payload)) => {
                faults.injector.corrupt_sample(&input.name, index as u64, &mut payload);
                Ok(decode_checked(dec, faults, sinfo, &payload))
            }
            (SampleDecoder::Resilient(dec, faults), None) => {
                faults.recover(Recovery::ConcealedFrame, 1);
                Ok(dec.conceal_missing())
            }
        }
    }
}

/// The resilient path's demuxer integrity check: a payload that fails
/// its index CRC is skipped (never fed to the decoder) and the frame
/// concealed to keep cadence.
fn decode_checked(
    dec: &mut ResilientDecoder,
    faults: &RunFaults,
    sinfo: SampleInfo,
    payload: &[u8],
) -> Frame {
    if vr_bitstream::crc32(payload) != sinfo.crc {
        faults.recover(Recovery::SkippedSample, 1);
        faults.recover(Recovery::ConcealedFrame, 1);
        return dec.conceal_missing();
    }
    let (frame, outcome) = dec.decode(payload, sinfo.keyframe);
    if outcome == DecodeOutcome::Concealed {
        faults.recover(Recovery::ConcealedFrame, 1);
    }
    frame
}

/// Largest packet the online feed sends, header included.
const RTP_MTU: usize = 1400;

/// Online mode's sample source (§3.2): an input's samples as a live
/// camera sends them. Sample `i` is released at its capture time (at
/// the feed's speedup), sent as RTP packets, any the fault plan drops
/// vanish on the wire, and the rest are reassembled. The depacketizer
/// is settled at every sample boundary, so a sample is known whole or
/// lost when it is due: no read-ahead, and no jitter window involved.
struct PacedFeed {
    pacer: Pacer,
    tx: RtpPacketizer,
    rx: RtpDepacketizer,
    /// Packets sent so far; the next packet's drop decision is keyed
    /// by this count plus one.
    sent: u64,
}

impl PacedFeed {
    /// A feed whose capture clock starts now.
    fn new(input: &InputVideo, info: VideoInfo, speedup: f64) -> Self {
        let ssrc = input.name.len() as u32 + 1;
        Self {
            pacer: Pacer::with_speedup(info.frame_rate, speedup.max(1e-3)),
            tx: RtpPacketizer::new(ssrc, RTP_MTU),
            rx: RtpDepacketizer::new(ssrc),
            sent: 0,
        }
    }

    /// Block until sample `index` of `track` is captured, then send it
    /// and receive it: its bytes, or `None` when a packet was lost.
    /// Under a fault plan, its packets may be dropped on the wire, and
    /// the lost ones are counted as skipped here, sample by sample.
    fn receive(
        &mut self,
        input: &InputVideo,
        track: usize,
        index: usize,
        faults: Option<&RunFaults>,
    ) -> Result<Option<Vec<u8>>> {
        self.pacer.wait_for_frame(index as u64);
        let sample = input.container.sample(track, index)?;
        let skipped = self.rx.skipped();
        let mut received = Vec::with_capacity(1);
        for packet in self.tx.packetize(sample, (index as u32).wrapping_mul(3000)) {
            self.sent += 1;
            if faults.is_some_and(|f| f.injector.drop_rtp_packet(&input.name, self.sent)) {
                continue;
            }
            received.extend(self.rx.push(&packet)?);
        }
        received.extend(self.rx.finish(self.sent as u16));
        let lost = self.rx.skipped() - skipped;
        if let Some(faults) = faults.filter(|_| lost > 0) {
            faults.recover(Recovery::SkippedPacket, lost);
        }
        Ok(received.pop())
    }
}

/// Decode every frame of an input's video track.
pub fn decode_all(input: &InputVideo) -> Result<(VideoInfo, Vec<Frame>)> {
    let stream = FrameStream::open(input)?;
    Ok((stream.info(), stream.collect_frames()?))
}

/// Decode every frame of an input's video track, splitting the work
/// across `workers` threads at GOP boundaries. Keyframes reset the
/// decoder, so each chunk decodes independently with a fresh decoder
/// and the in-order concatenation is bit-identical to [`decode_all`]
/// (the same property [`FrameStream::range`]'s keyframe seek relies on).
pub fn decode_all_parallel(
    input: &InputVideo,
    workers: usize,
) -> Result<(VideoInfo, Vec<Frame>)> {
    decode_parallel(input, workers, &ExecContext::default())
}

/// [`decode_all_parallel`] under the context's fault plan: every
/// chunk's stream is [`faulted`](FrameStream::faulted) with it.
pub(crate) fn decode_parallel(
    input: &InputVideo,
    workers: usize,
    ctx: &ExecContext,
) -> Result<(VideoInfo, Vec<Frame>)> {
    let info = input.video_info()?;
    let (track, t) = input.video_track()?;
    let samples = &t.samples[..];
    let n = samples.len();
    // GOP starts: every keyframe index. A stream that does not open on
    // a keyframe cannot be chunked; neither can a trivial one.
    let gop_starts: Vec<usize> = (0..n).filter(|&i| samples[i].keyframe).collect();
    let stream = |from, end| FrameStream::over(input, track, samples, info, from, end).faulted(ctx);
    if workers <= 1 || n < 2 || gop_starts.first() != Some(&0) || gop_starts.len() < 2 {
        return Ok((info, stream(0, n).collect_frames()?));
    }
    let _span = vr_base::obs::trace::span("decoder", "decode_parallel");
    let chunks = workers.min(gop_starts.len());
    // Contiguous runs of GOPs per chunk; bounds are sample indices.
    let bounds: Vec<(usize, usize)> = (0..chunks)
        .map(|c| {
            let g0 = c * gop_starts.len() / chunks;
            let g1 = (c + 1) * gop_starts.len() / chunks;
            (gop_starts[g0], gop_starts.get(g1).copied().unwrap_or(n))
        })
        .collect();
    let name = |c| format!("gop_chunk{c}");
    let parts = vr_base::sync::run_jobs(chunks, chunks, name, |c| {
        let _span = vr_base::obs::trace::span_dyn("decoder", || name(c));
        let (from, end) = bounds[c];
        stream(from, end).collect_frames()
    })?;
    let frames: Vec<Frame> = parts.into_iter().flatten().collect();
    Ok((info, frames))
}

/// Decode every frame of an input read online at `speedup`
/// ([`FrameStream::paced`]) under the context's fault plan: one paced
/// stream, since GOP chunks cannot be read out of a forward-only
/// stream. The context's cancellation token is polled after every
/// sample, so a deadline ends the capture early with
/// [`Error::Cancelled`].
pub(crate) fn decode_paced(
    input: &InputVideo,
    speedup: f64,
    ctx: &ExecContext,
) -> Result<(VideoInfo, Vec<Frame>)> {
    let stream = FrameStream::open(input)?.paced(Some(speedup)).faulted(ctx);
    let info = stream.info();
    let mut frames = Vec::with_capacity(stream.len());
    for frame in stream {
        frames.push(frame?);
        if ctx.cancel.cancelled() {
            let at = format!("online read of {} at frame {}", input.name, frames.len());
            return Err(Error::Cancelled(at));
        }
    }
    Ok((info, frames))
}

/// A forward-only decoded-frame stream over an input's video track
/// (one frame resident at a time) — the one loop that turns samples
/// into frames. A stream over frames `[from, to]` pre-rolls from the
/// last keyframe at or before `from`: the random-access path offline
/// mode's sample index exists for. A [`paced`](Self::paced) stream
/// takes its samples from online mode's feed instead.
pub struct FrameStream<'a> {
    input: &'a InputVideo,
    track: usize,
    samples: &'a [SampleInfo],
    info: VideoInfo,
    decoder: SampleDecoder,
    /// Online mode's paced feed; `None` reads the sample table.
    feed: Option<PacedFeed>,
    /// Next sample to decode.
    next: usize,
    /// First sample yielded as a frame; samples before it are pre-roll.
    from: usize,
    /// One past the last sample.
    end: usize,
}

impl<'a> FrameStream<'a> {
    /// Open a stream over the input's whole video track.
    pub fn open(input: &'a InputVideo) -> Result<Self> {
        let info = input.video_info()?;
        let (track, t) = input.video_track()?;
        Ok(Self::over(input, track, &t.samples, info, 0, t.samples.len()))
    }

    /// Open a stream over frames `[from, to]` (inclusive; `to` past the
    /// end clamps), seeking to the last keyframe at or before `from`.
    pub fn range(input: &'a InputVideo, from: usize, to: usize) -> Result<Self> {
        let mut stream = Self::open(input)?;
        if stream.is_empty() || from > to {
            return Err(Error::InvalidConfig(format!(
                "bad scan range {from}..={to} over {} samples",
                stream.len()
            )));
        }
        let to = to.min(stream.end - 1);
        stream.from = from.min(to);
        stream.next = (0..=stream.from).rev().find(|&i| stream.samples[i].keyframe).unwrap_or(0);
        stream.end = to + 1;
        Ok(stream)
    }

    /// A stream with a fresh decoder over samples `[from, end)` of a
    /// video track, decoding from `from` (so it must be a keyframe).
    fn over(
        input: &'a InputVideo,
        track: usize,
        samples: &'a [SampleInfo],
        info: VideoInfo,
        from: usize,
        end: usize,
    ) -> Self {
        let decoder = SampleDecoder::new(info);
        Self { input, track, samples, info, decoder, feed: None, next: from, from, end }
    }

    /// Read the stream the way online mode exposes a video when
    /// `online` holds a speedup: forward only from sample 0, each
    /// sample received from a [`PacedFeed`] whose capture clock starts
    /// now (pre-roll is received and dropped, as there is no seeking).
    /// `None` leaves the stream reading the sample table.
    pub(crate) fn paced(mut self, online: Option<f64>) -> Self {
        if let Some(speedup) = online {
            self.feed = Some(PacedFeed::new(self.input, self.info, speedup));
            self.next = 0;
        }
        self
    }

    /// Decode under the context's fault plan when it has one: the plan
    /// may corrupt each sample (and, paced, drop its packets), a
    /// damaged sample is skipped and concealed instead of failing the
    /// stream, and every recovery is counted in the context's metrics.
    /// Without a plan the stream keeps the plain decoder.
    pub(crate) fn faulted(mut self, ctx: &ExecContext) -> Self {
        if let Some(injector) = ctx.faults.clone() {
            let faults = RunFaults { injector, metrics: ctx.metrics.clone() };
            self.decoder = SampleDecoder::Resilient(ResilientDecoder::new(self.info), faults);
        }
        self
    }

    /// Stream parameters.
    pub fn info(&self) -> VideoInfo {
        self.info
    }

    /// Frames the stream yields in total (pre-roll excluded).
    pub fn len(&self) -> usize {
        self.end - self.from
    }

    /// Whether the stream yields no frames.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode the next sample, pre-roll included: the frame and whether
    /// it is one the stream yields. `None` at the end of the range.
    pub(crate) fn next_sample(&mut self) -> Option<(Result<Frame>, bool)> {
        if self.next >= self.end {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let frame = match &mut self.feed {
            Some(feed) => {
                let received = feed.receive(self.input, self.track, i, self.decoder.faults());
                received.and_then(|r| self.decoder.decode_received(self.input, self.samples[i], i, r))
            }
            None => self.decoder.decode_sample(self.input, self.track, i),
        };
        Some((frame, i >= self.from))
    }

    /// The next frame of the range, or the error of a failed decode,
    /// pre-roll included, taking each sample from `step` — plain
    /// [`Self::next_sample`], or a scan's timed wrapper around it.
    pub(crate) fn next_with(
        &mut self,
        mut step: impl FnMut(&mut Self) -> Option<(Result<Frame>, bool)>,
    ) -> Option<Result<Frame>> {
        loop {
            let (frame, wanted) = step(self)?;
            if wanted || frame.is_err() {
                return Some(frame);
            }
        }
    }

    /// Decode every remaining frame.
    fn collect_frames(self) -> Result<Vec<Frame>> {
        let mut frames = Vec::with_capacity(self.len());
        for frame in self {
            frames.push(frame?);
        }
        Ok(frames)
    }
}

impl Iterator for FrameStream<'_> {
    type Item = Result<Frame>;

    fn next(&mut self) -> Option<Result<Frame>> {
        self.next_with(Self::next_sample)
    }
}

/// The caption document muxed into an input (Q6b).
pub fn caption_track(input: &InputVideo) -> Result<WebVtt> {
    let track = input
        .container
        .track_of_kind(TrackKind::Captions)
        .ok_or_else(|| Error::NotFound(format!("caption track in {}", input.name)))?;
    let mut text = String::new();
    for i in 0..input.container.tracks()[track].samples.len() {
        let sample = input.container.sample(track, i)?;
        text.push_str(
            std::str::from_utf8(sample)
                .map_err(|_| Error::Corrupt("caption track is not UTF-8".into()))?,
        );
    }
    WebVtt::parse(&text)
}

/// The precomputed bounding-box track muxed into an input (Q6a's
/// serialized-box format). One sample per frame.
pub fn box_track(input: &InputVideo, frame: usize) -> Result<Vec<OutputBox>> {
    let track = input
        .container
        .track_of_kind(TrackKind::Metadata)
        .ok_or_else(|| Error::NotFound(format!("box metadata track in {}", input.name)))?;
    let data = input.container.sample(track, frame)?;
    deserialize_boxes(data)
}

/// Serialize per-frame boxes for the metadata track / box output.
pub fn serialize_boxes(boxes: &[OutputBox]) -> Vec<u8> {
    let mut w = vr_bitstream::bytesio::ByteWriter::new();
    w.put_u32(boxes.len() as u32);
    for b in boxes {
        w.put_u8(match b.class {
            ObjectClass::Vehicle => 0,
            ObjectClass::Pedestrian => 1,
        });
        w.put_i32(b.rect.x0);
        w.put_i32(b.rect.y0);
        w.put_i32(b.rect.x1);
        w.put_i32(b.rect.y1);
    }
    w.finish()
}

/// Inverse of [`serialize_boxes`].
pub fn deserialize_boxes(data: &[u8]) -> Result<Vec<OutputBox>> {
    let mut r = vr_bitstream::bytesio::ByteReader::new(data);
    let n = r.get_u32()? as usize;
    if n > 1 << 20 {
        return Err(Error::Corrupt("absurd box count".into()));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let class = match r.get_u8()? {
            0 => ObjectClass::Vehicle,
            1 => ObjectClass::Pedestrian,
            other => return Err(Error::Corrupt(format!("bad class {other}"))),
        };
        out.push(OutputBox {
            class,
            rect: vr_geom::Rect {
                x0: r.get_i32()?,
                y0: r.get_i32()?,
                x1: r.get_i32()?,
                y1: r.get_i32()?,
            },
        });
    }
    Ok(out)
}

/// Render a Q2(c) box frame: each detected instance's rectangle filled
/// with its class color `c_j`, ω (black) elsewhere (§4.1).
pub fn boxes_frame(width: u32, height: u32, detections: &[Detection]) -> Frame {
    let mut f = Frame::new(width, height); // all ω
    for d in detections {
        let rgb = d.class.color();
        let yuv = vr_frame::color::rgb_to_yuv(rgb);
        draw::fill_rect(&mut f, d.rect, yuv);
    }
    f
}

/// Filter detections to one class (Q2c takes `O` as a parameter).
pub fn filter_class(detections: Vec<Detection>, class: ObjectClass) -> Vec<Detection> {
    detections.into_iter().filter(|d| d.class == class).collect()
}

/// Q3's kernel, and Q10's over a uniform 3×3 grid: cut each frame into
/// the grid's tiles, re-encode each tile at its bitrate, decode it
/// back, and emit the stitch of the decoded tiles.
///
/// Each tile keeps one encoder and one decoder that advance together,
/// so frame `t` maps to the stitch of the tiles' frame `t` and one
/// frame's tiles are resident; a tile's encoder sees the same crops in
/// the same order as a whole-sequence encode would, so the bytes match
/// it. Q10 then downsamples each stitch to the client resolution.
pub(crate) struct TileReencode {
    grid: TileGrid,
    rects: Vec<Rect>,
    coders: Vec<(Encoder, Decoder)>,
    /// Q10's client resolution, clamped to the frame.
    client: Option<(u32, u32)>,
}

impl TileReencode {
    /// Q3 over frames of `info`'s size: a `dx`×`dy` tile grid, tile `j`
    /// at `bitrates[j]`.
    pub(crate) fn q3(info: VideoInfo, dx: u32, dy: u32, bitrates: &[u32]) -> Result<Self> {
        Self::new(info, TileGrid::new(info.width, info.height, dx, dy), bitrates, None)
    }

    /// Q10 (Table 8, `V' = Q5(Q3(V, j → b_j), r)`): a uniform 3×3 grid,
    /// the `high_tiles` at `high_bitrate` and the rest at
    /// `low_bitrate`, then a downsample to `client`.
    pub(crate) fn q10(
        info: VideoInfo,
        high_bitrate: u32,
        low_bitrate: u32,
        high_tiles: &[bool; 9],
        client: Resolution,
    ) -> Result<Self> {
        let (w, h) = (info.width, info.height);
        let bitrates: Vec<u32> =
            high_tiles.iter().map(|&hi| if hi { high_bitrate } else { low_bitrate }).collect();
        let client = (client.width.clamp(2, w), client.height.clamp(2, h));
        Self::new(info, TileGrid::uniform(w, h, 3, 3), &bitrates, Some(client))
    }

    fn new(
        info: VideoInfo,
        grid: TileGrid,
        bitrates: &[u32],
        client: Option<(u32, u32)>,
    ) -> Result<Self> {
        if bitrates.len() != grid.len() {
            return Err(Error::InvalidConfig(format!(
                "Q3 got {} bitrates for a {}-tile grid",
                bitrates.len(),
                grid.len()
            )));
        }
        let rects = grid.rects();
        let coders = rects
            .iter()
            .zip(bitrates)
            .map(|(rect, &bitrate)| {
                let cfg = EncoderConfig {
                    profile: info.profile,
                    rate: RateControlMode::Bitrate(bitrate),
                    gop: info.gop,
                    frame_rate: info.frame_rate,
                };
                let encoder = Encoder::new(cfg, rect.width(), rect.height())?;
                let decoder = Decoder::new(encoder.info());
                Ok((encoder, decoder))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { grid, rects, coders, client })
    }
}

impl FrameKernel for TileReencode {
    fn push(&mut self, frame: Frame, _index: usize, out: &mut Vec<KernelOut>) -> Result<()> {
        let tiles = self
            .rects
            .iter()
            .zip(&mut self.coders)
            .map(|(rect, (encoder, decoder))| {
                let packet = encoder.encode(&ops::crop(&frame, *rect))?;
                decoder.decode(&packet.data)
            })
            .collect::<Result<Vec<Frame>>>()?;
        let stitched = self.grid.stitch(&tiles);
        out.push(KernelOut::from(match self.client {
            Some((w, h)) => ops::downsample(&stitched, w, h),
            None => stitched,
        }));
        Ok(())
    }
}

/// Q9's direction table for one rig and one pair of sizes: for every
/// output pixel, the face that supplies it and the point in that face
/// to sample. Rig orientation and sizes are fixed for a whole video,
/// so the trigonometry, face choice, projection and the sampler's
/// shift and clamp are done once here, and [`StitchMap::apply`] only
/// loads and blends. Planar, 9 bytes per output pixel.
pub struct StitchMap {
    face_dims: (u32, u32),
    out_w: u32,
    out_h: u32,
    face: Vec<u8>,
    /// The sample point as [`Taps::at`] takes it.
    x: Vec<f32>,
    y: Vec<f32>,
}

impl StitchMap {
    /// Map an `out_w`×`out_h` equirectangular frame onto four
    /// `face_w`×`face_h` faces oriented by `params`.
    ///
    /// Each output pixel's direction is mapped into each face camera's
    /// space; the face whose optical axis is closest supplies the
    /// sample. Face cameras share a position, so only orientation
    /// matters.
    pub fn new(
        params: &[crate::query::FaceParams; 4],
        face_w: u32,
        face_h: u32,
        out_w: u32,
        out_h: u32,
    ) -> Self {
        let cams = params.map(|p| Camera::new(Vec3::ZERO, p.yaw, p.pitch, p.hfov_deg));
        let forwards = cams.map(|c| c.forward());
        let eq = Equirect::new(out_w, out_h);
        let n = (out_w * out_h) as usize;
        let (mut face, mut xs, mut ys) =
            (Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n));
        for py in 0..out_h {
            for px in 0..out_w {
                let dir = eq.pixel_to_dir(px as f32 + 0.5, py as f32 + 0.5);
                // Pick the face with the largest forward component.
                let mut best = 0usize;
                let mut best_dot = f32::MIN;
                for (i, forward) in forwards.iter().enumerate() {
                    let d = forward.dot(dir);
                    if d > best_dot {
                        best_dot = d;
                        best = i;
                    }
                }
                let cam = &cams[best];
                // Project the direction through the face camera.
                let target = cam.position + dir * 100.0;
                let (x, y) = match cam.project(target, face_w, face_h) {
                    Some((x, y, _)) => (x, y),
                    // Above/below every face's FOV: approximate with
                    // the nearest row of the best face.
                    None => {
                        (face_w as f32 / 2.0, if dir.z > 0.0 { 0.0 } else { face_h as f32 - 1.0 })
                    }
                };
                let (x, y) = Taps::clamp(x, y, face_w, face_h);
                face.push(best as u8);
                xs.push(x);
                ys.push(y);
            }
        }
        Self { face_dims: (face_w, face_h), out_w, out_h, face, x: xs, y: ys }
    }

    /// Stitch one set of face frames into `out`, writing every sample.
    /// Each face's planes are borrowed once here, not once per tap.
    pub fn apply(&self, faces: &[Frame; 4], out: &mut Frame) {
        assert!(
            faces.iter().all(|f| (f.width(), f.height()) == self.face_dims),
            "stitch map built for other face dimensions"
        );
        assert_eq!((out.width(), out.height()), (self.out_w, self.out_h), "stitch output size");
        let (fw, fh) = self.face_dims;
        let (stride, cstride) = (fw as usize, fw as usize / 2);
        let y_planes: [&[u8]; 4] = std::array::from_fn(|i| faces[i].y.as_slice());
        let u_planes: [&[u8]; 4] = std::array::from_fn(|i| faces[i].u.as_slice());
        let v_planes: [&[u8]; 4] = std::array::from_fn(|i| faces[i].v.as_slice());
        let mut luma = Run::<1>::new();
        let sources = self.face.chunks(RUN).zip(self.x.chunks(RUN)).zip(self.y.chunks(RUN));
        for (oy, ((face, xs), ys)) in out.y.as_mut_slice().chunks_mut(RUN).zip(sources) {
            for (j, ((&f, &x), &y)) in face.iter().zip(xs).zip(ys).enumerate() {
                luma.gather(j, &Taps::at(x, y, fw, fh), [y_planes[f as usize]], stride, 0);
            }
            luma.blend_into(0, oy);
        }
        // A chroma sample takes the direction of its 2×2 block's
        // bottom-right pixel.
        let (ow, cw) = (self.out_w as usize, self.out_w as usize / 2);
        let mut chroma = Run::<2>::new();
        let rows = out.u.as_mut_slice().chunks_mut(cw).zip(out.v.as_mut_slice().chunks_mut(cw));
        for (cy, (ou, ov)) in rows.enumerate() {
            let runs = ou.chunks_mut(RUN).zip(ov.chunks_mut(RUN));
            for (r, (ou, ov)) in runs.enumerate() {
                for j in 0..ou.len() {
                    let i = (cy * 2 + 1) * ow + (r * RUN + j) * 2 + 1;
                    let f = self.face[i] as usize;
                    let taps = Taps::at(self.x[i], self.y[i], fw, fh);
                    chroma.gather(j, &taps, [u_planes[f], v_planes[f]], cstride, 1);
                }
                chroma.blend_into(0, ou);
                chroma.blend_into(1, ov);
            }
        }
    }
}

/// Samples per run: [`StitchMap::apply`] gathers a run's taps one
/// sample at a time, then blends the whole run in one fixed-length
/// loop, which the compiler vectorizes.
const RUN: usize = 32;

/// One run's gathered taps for `P` planes that share their sample
/// points (luma alone, or U and V), with the points' weights.
struct Run<const P: usize> {
    /// Per plane: top-left, top-right, bottom-left, bottom-right.
    corners: [[[u8; RUN]; 4]; P],
    tx: [f32; RUN],
    ty: [f32; RUN],
}

impl<const P: usize> Run<P> {
    fn new() -> Self {
        Self { corners: [[[0; RUN]; 4]; P], tx: [0.0; RUN], ty: [0.0; RUN] }
    }

    /// Gather sample `j` of the run from each plane.
    #[inline]
    fn gather(&mut self, j: usize, taps: &Taps, planes: [&[u8]; P], stride: usize, shift: u32) {
        for (corners, plane) in self.corners.iter_mut().zip(planes) {
            for (corner, tap) in corners.iter_mut().zip(taps.corners(plane, stride, shift)) {
                corner[j] = tap;
            }
        }
        (self.tx[j], self.ty[j]) = (taps.tx, taps.ty);
    }

    /// Blend plane `p` of the run's first `out.len()` samples into `out`.
    fn blend_into(&self, p: usize, out: &mut [u8]) {
        let [tl, tr, bl, br] = &self.corners[p];
        let mut blended = [0u8; RUN];
        for j in 0..RUN {
            blended[j] = blend([tl[j], tr[j], bl[j], br[j]], self.tx[j], self.ty[j]);
        }
        out.copy_from_slice(&blended[..out.len()]);
    }
}

/// The four taps and two weights of a clamped bilinear sample of a
/// `w`×`h` image, at a point [`Taps::clamp`] has prepared.
struct Taps {
    x0: u32,
    x1: u32,
    y0: u32,
    y1: u32,
    tx: f32,
    ty: f32,
}

impl Taps {
    /// Shift a point to sample centres and clamp it into the image
    /// (NaN stays NaN, and [`Taps::at`] samples it at 0).
    fn clamp(x: f32, y: f32, w: u32, h: u32) -> (f32, f32) {
        ((x - 0.5).clamp(0.0, w as f32 - 1.0), (y - 0.5).clamp(0.0, h as f32 - 1.0))
    }

    #[inline]
    fn at(xf: f32, yf: f32, w: u32, h: u32) -> Self {
        // Clamped non-negative, where the cast's truncation is `floor`
        // (and NaN casts to 0 either way) without the libm call.
        let x0 = xf as u32;
        let y0 = yf as u32;
        Self {
            x0,
            x1: (x0 + 1).min(w - 1),
            y0,
            y1: (y0 + 1).min(h - 1),
            tx: xf - x0 as f32,
            ty: yf - y0 as f32,
        }
    }

    /// The four taps in one plane of row length `stride`, each of
    /// whose samples covers `1 << shift` image pixels a side (1 for
    /// chroma): top-left, top-right, bottom-left, bottom-right.
    #[inline]
    fn corners(&self, plane: &[u8], stride: usize, shift: u32) -> [u8; 4] {
        let at = |x: u32, y: u32| plane[(y >> shift) as usize * stride + (x >> shift) as usize];
        [at(self.x0, self.y0), at(self.x1, self.y0), at(self.x0, self.y1), at(self.x1, self.y1)]
    }
}

/// Bilinear blend of four taps (top-left, top-right, bottom-left,
/// bottom-right) with weights `tx` and `ty`.
#[inline]
fn blend([tl, tr, bl, br]: [u8; 4], tx: f32, ty: f32) -> u8 {
    let lerp = |a: u8, b: u8| a as f32 + (b as f32 - a as f32) * tx;
    let (top, bot) = (lerp(tl, tr), lerp(bl, br));
    round_u8(top + (bot - top) * ty)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::query::FaceParams;
    use vr_codec::Profile;
    use vr_frame::Yuv;

    fn face_params() -> [FaceParams; 4] {
        std::array::from_fn(|i| FaceParams {
            yaw: i as f32 * std::f32::consts::FRAC_PI_2,
            pitch: 0.0,
            hfov_deg: 120.0,
        })
    }

    #[test]
    fn boxes_round_trip() {
        let boxes = vec![
            OutputBox { class: ObjectClass::Vehicle, rect: vr_geom::Rect::new(1, 2, 30, 20) },
            OutputBox { class: ObjectClass::Pedestrian, rect: vr_geom::Rect::new(-5, 0, 4, 9) },
        ];
        let bytes = serialize_boxes(&boxes);
        assert_eq!(deserialize_boxes(&bytes).unwrap(), boxes);
        assert!(deserialize_boxes(&[1, 2]).is_err());
    }

    #[test]
    fn boxes_frame_colors_by_class() {
        let dets = vec![
            Detection {
                class: ObjectClass::Vehicle,
                rect: vr_geom::Rect::from_origin_size(2, 2, 6, 6),
                score: 0.9,
            },
            Detection {
                class: ObjectClass::Pedestrian,
                rect: vr_geom::Rect::from_origin_size(20, 2, 6, 10),
                score: 0.9,
            },
        ];
        let f = boxes_frame(32, 16, &dets);
        assert!(!f.is_omega(4, 4));
        assert!(!f.is_omega(22, 6));
        assert!(f.is_omega(14, 8), "outside any box must be ω");
        // Vehicle regions are reddish (V channel high), pedestrians
        // greenish (low U/V energy relative).
        let vehicle = f.get(4, 4);
        let ped = f.get(22, 6);
        assert_ne!(vehicle, ped);
    }

    #[test]
    fn stitch_covers_all_directions_smoothly() {
        // Four flat faces with distinct luma: the equirect output must
        // contain all four values, each about a quarter of the image.
        let faces: [Frame; 4] = std::array::from_fn(|i| {
            Frame::filled(64, 64, Yuv::gray(50 + i as u8 * 40))
        });
        let mut out = Frame::new(128, 64);
        StitchMap::new(&face_params(), 64, 64, 128, 64).apply(&faces, &mut out);
        let mut counts = [0usize; 4];
        for y in 0..64 {
            for x in 0..128 {
                let v = out.get_y(x, y);
                for (i, c) in counts.iter_mut().enumerate() {
                    if v == 50 + i as u8 * 40 {
                        *c += 1;
                    }
                }
            }
        }
        let total: usize = counts.iter().sum();
        assert!(total as f32 > 128.0 * 64.0 * 0.95, "unfilled pixels");
        for (i, c) in counts.iter().enumerate() {
            let share = *c as f32 / total as f32;
            assert!(
                (0.15..0.35).contains(&share),
                "face {i} covers {share} of the sphere"
            );
        }
    }

    #[test]
    fn bilinear_sampling_interpolates() {
        let mut f = Frame::new(4, 4);
        f.set_y(0, 0, 0);
        f.set_y(1, 0, 100);
        let mid = sample_taps(&f, 1.0, 0.5);
        assert!((mid.y as i32 - 50).abs() <= 2, "got {}", mid.y);
    }

    /// A clamped bilinear sample of every plane of `f`, through the
    /// taps [`StitchMap`] stores and applies.
    fn sample_taps(f: &Frame, x: f32, y: f32) -> Yuv {
        let (w, h) = (f.width(), f.height());
        let (xf, yf) = Taps::clamp(x, y, w, h);
        let taps = Taps::at(xf, yf, w, h);
        let one = |plane: &[u8], stride: usize, shift: u32| {
            blend(taps.corners(plane, stride, shift), taps.tx, taps.ty)
        };
        let cstride = w as usize / 2;
        Yuv { y: one(&f.y, w as usize, 0), u: one(&f.u, cstride, 1), v: one(&f.v, cstride, 1) }
    }

    /// The sampler with the libm `floor`/`round` calls it used to make.
    fn sample_bilinear_oracle(f: &Frame, x: f32, y: f32) -> Yuv {
        let xf = (x - 0.5).clamp(0.0, f.width() as f32 - 1.0);
        let yf = (y - 0.5).clamp(0.0, f.height() as f32 - 1.0);
        let (x0, y0) = (xf.floor() as u32, yf.floor() as u32);
        let (x1, y1) = ((x0 + 1).min(f.width() - 1), (y0 + 1).min(f.height() - 1));
        let (tx, ty) = (xf - x0 as f32, yf - y0 as f32);
        let one = |get: &dyn Fn(u32, u32) -> u8| {
            let blend = |a: u8, b: u8| a as f32 + (b as f32 - a as f32) * tx;
            let (top, bot) = (blend(get(x0, y0), get(x1, y0)), blend(get(x0, y1), get(x1, y1)));
            (top + (bot - top) * ty).round().clamp(0.0, 255.0) as u8
        };
        Yuv {
            y: one(&|x, y| f.get_y(x, y)),
            u: one(&|x, y| f.get_u(x / 2, y / 2)),
            v: one(&|x, y| f.get_v(x / 2, y / 2)),
        }
    }

    /// The per-pixel stitcher [`StitchMap`] replaced (direction, face
    /// choice and projection recomputed for every pixel of every
    /// frame; chroma written by all four pixels of a block, the last
    /// one winning), sampling with the libm-form sampler. Also counts
    /// the pixels no face can project, `[above, below]`.
    fn stitch_equirect_oracle(
        faces: &[Frame; 4],
        params: &[FaceParams; 4],
        out_w: u32,
        out_h: u32,
    ) -> (Frame, [usize; 2]) {
        let cams: Vec<Camera> = params
            .iter()
            .map(|p| Camera::new(Vec3::ZERO, p.yaw, p.pitch, p.hfov_deg))
            .collect();
        let eq = Equirect::new(out_w, out_h);
        let mut out = Frame::new(out_w, out_h);
        let mut outside = [0usize; 2];
        let (fw, fh) = (faces[0].width(), faces[0].height());
        let (oy, ou, ov) = (out.y.as_mut_slice(), out.u.as_mut_slice(), out.v.as_mut_slice());
        for py in 0..out_h {
            for px in 0..out_w {
                let dir = eq.pixel_to_dir(px as f32 + 0.5, py as f32 + 0.5);
                let mut best = 0usize;
                let mut best_dot = f32::MIN;
                for (i, cam) in cams.iter().enumerate() {
                    let d = cam.forward().dot(dir);
                    if d > best_dot {
                        best_dot = d;
                        best = i;
                    }
                }
                let cam = &cams[best];
                let target = cam.position + dir * 100.0;
                let c = if let Some((x, y, _)) = cam.project(target, fw, fh) {
                    sample_bilinear_oracle(&faces[best], x, y)
                } else {
                    outside[(dir.z <= 0.0) as usize] += 1;
                    let x = fw as f32 / 2.0;
                    let y = if dir.z > 0.0 { 0.0 } else { fh as f32 - 1.0 };
                    sample_bilinear_oracle(&faces[best], x, y)
                };
                oy[(py * out_w + px) as usize] = c.y;
                ou[((py / 2) * out_w / 2 + px / 2) as usize] = c.u;
                ov[((py / 2) * out_w / 2 + px / 2) as usize] = c.v;
            }
        }
        (out, outside)
    }

    #[test]
    fn stitch_map_matches_the_per_pixel_oracle() {
        let mut rng = vr_base::VrRng::seed_from(0x5717_c4ed);
        let mut noise = |w: u32, h: u32| -> [Frame; 4] {
            std::array::from_fn(|_| {
                let mut f = Frame::new(w, h);
                for plane in [&mut f.y, &mut f.u, &mut f.v] {
                    plane.iter_mut().for_each(|s| *s = rng.next_u32() as u8);
                }
                f
            })
        };
        let mut rig_rng = vr_base::VrRng::seed_from(0x5717_0002);
        let mut outside = [0usize; 2];
        let sizes = [((64, 36), (128, 64)), ((48, 48), (64, 32)), ((96, 54), (100, 50))];
        for case in 0..12 {
            let ((fw, fh), (ow, oh)) = sizes[case % 3];
            // A level rig, rigs tilted as a whole (so a polar cap lies
            // behind every face) and rigs whose faces each tilt their
            // own way.
            let tilt = [0.0, 0.7, -0.7, 0.35][case % 4];
            let yaw0 = rig_rng.range_f32(-3.0, 3.0);
            let params: [FaceParams; 4] = std::array::from_fn(|i| FaceParams {
                yaw: yaw0 + i as f32 * std::f32::consts::FRAC_PI_2,
                pitch: if case >= 8 { rig_rng.range_f32(-0.9, 0.9) } else { tilt },
                hfov_deg: rig_rng.range_f32(90.0, 130.0),
            });
            let map = StitchMap::new(&params, fw, fh, ow, oh);
            // Two frames through one map and one output frame: nothing
            // of the first may reach the second.
            let mut out = Frame::new(ow, oh);
            for _ in 0..2 {
                let faces = noise(fw, fh);
                let (want, n) = stitch_equirect_oracle(&faces, &params, ow, oh);
                map.apply(&faces, &mut out);
                assert!(out == want, "case {case}: map differs from the oracle");
                outside[0] += n[0];
                outside[1] += n[1];
            }
        }
        assert!(
            outside[0] > 0 && outside[1] > 0,
            "no output pixel above/below every face's view: {outside:?}"
        );
    }

    #[test]
    fn bilinear_sampling_matches_the_libm_form() {
        let mut rng = vr_base::VrRng::seed_from(0xb111_0001);
        let mut f = Frame::new(16, 12);
        for y in 0..12 {
            for x in 0..16 {
                f.set_y(x, y, rng.next_u32() as u8);
                f.set_u(x / 2, y / 2, rng.next_u32() as u8);
                f.set_v(x / 2, y / 2, rng.next_u32() as u8);
            }
        }
        for case in 0..20_000 {
            // Inside, on the half-pixel grid (exact ties), and outside.
            let (x, y) = match case % 3 {
                0 => (rng.range_f32(-2.0, 18.0), rng.range_f32(-2.0, 14.0)),
                1 => (rng.range(0, 33) as f32 * 0.5, rng.range(0, 25) as f32 * 0.5),
                _ => (rng.range(0, 65) as f32 * 0.25, rng.range_f32(0.0, 12.0)),
            };
            assert_eq!(sample_taps(&f, x, y), sample_bilinear_oracle(&f, x, y), "({x}, {y})");
        }
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(sample_taps(&f, bad, 3.0), sample_bilinear_oracle(&f, bad, 3.0));
            assert_eq!(sample_taps(&f, 3.0, bad), sample_bilinear_oracle(&f, 3.0, bad));
        }
    }

    /// The Q3 kernel before it streamed: the whole video in, each
    /// tile's encoder and decoder advanced in lockstep, frame `t`
    /// replaced by the stitch of the tiles' frame `t`.
    pub(crate) fn subquery_reencode(
        mut frames: Vec<Frame>,
        info: VideoInfo,
        grid: &TileGrid,
        bitrates: &[u32],
    ) -> Result<Vec<Frame>> {
        assert!(!frames.is_empty());
        if bitrates.len() != grid.len() {
            return Err(Error::InvalidConfig(format!(
                "Q3 got {} bitrates for a {}-tile grid",
                bitrates.len(),
                grid.len()
            )));
        }
        let rects = grid.rects();
        let mut coders = rects
            .iter()
            .zip(bitrates)
            .map(|(rect, &bitrate)| {
                let cfg = EncoderConfig {
                    profile: info.profile,
                    rate: RateControlMode::Bitrate(bitrate),
                    gop: info.gop,
                    frame_rate: info.frame_rate,
                };
                let encoder = Encoder::new(cfg, rect.width(), rect.height())?;
                let decoder = Decoder::new(encoder.info());
                Ok((encoder, decoder))
            })
            .collect::<Result<Vec<_>>>()?;
        for frame in &mut frames {
            let tiles = rects
                .iter()
                .zip(&mut coders)
                .map(|(rect, (encoder, decoder))| {
                    let packet = encoder.encode(&ops::crop(frame, *rect))?;
                    decoder.decode(&packet.data)
                })
                .collect::<Result<Vec<Frame>>>()?;
            *frame = grid.stitch(&tiles);
        }
        Ok(frames)
    }

    /// The Q3 kernel before tiles advanced in lockstep: every tile's
    /// whole crop sequence encoded, then decoded whole, then stitched.
    fn subquery_reencode_oracle(
        frames: &[Frame],
        info: VideoInfo,
        dx: u32,
        dy: u32,
        bitrates: &[u32],
    ) -> Result<Vec<Frame>> {
        assert!(!frames.is_empty());
        let (w, h) = (frames[0].width(), frames[0].height());
        let grid = TileGrid::new(w, h, dx, dy);
        if bitrates.len() != grid.len() {
            return Err(Error::InvalidConfig(format!(
                "Q3 got {} bitrates for a {}-tile grid",
                bitrates.len(),
                grid.len()
            )));
        }
        // Per tile: gather the tile across time, encode at its bitrate,
        // decode back.
        let rects = grid.rects();
        let mut decoded_tiles: Vec<Vec<Frame>> = Vec::with_capacity(rects.len());
        for (rect, &bitrate) in rects.iter().zip(bitrates) {
            let tile_frames: Vec<Frame> =
                frames.iter().map(|f| ops::crop(f, *rect)).collect();
            let cfg = EncoderConfig {
                profile: info.profile,
                rate: RateControlMode::Bitrate(bitrate),
                gop: info.gop,
                frame_rate: info.frame_rate,
            };
            let encoded = vr_codec::encode_sequence(&cfg, &tile_frames)?;
            decoded_tiles.push(encoded.decode_all()?);
        }
        // Recombine per time step.
        let mut out = Vec::with_capacity(frames.len());
        for t in 0..frames.len() {
            let tiles_at_t: Vec<Frame> =
                decoded_tiles.iter().map(|tile| tile[t].clone()).collect();
            out.push(grid.stitch(&tiles_at_t));
        }
        Ok(out)
    }

    /// `n` frames of moving gradients and a drifting block, so every
    /// tile has motion to code and the rate controller has work to do.
    pub(crate) fn moving_frames(w: u32, h: u32, n: usize) -> Vec<Frame> {
        (0..n)
            .map(|t| {
                let mut f = Frame::new(w, h);
                for y in 0..h {
                    for x in 0..w {
                        let v = (x * 3 + y * 2 + t as u32 * 5) % 220;
                        f.set_y(x, y, v as u8 + 16);
                    }
                }
                let bx = (t as u32 * 3) % w.saturating_sub(8).max(1);
                for y in 4..(12.min(h)) {
                    for x in bx..(bx + 8).min(w) {
                        f.set(x, y, Yuv::new(230, 60, 200));
                    }
                }
                f
            })
            .collect()
    }

    /// The streaming tile kernel, the lockstep whole-video form and the
    /// per-tile whole-sequence form agree byte for byte.
    #[test]
    fn subquery_reencode_matches_the_whole_sequence_oracle() {
        let (w, h) = (96, 64);
        let frames = moving_frames(w, h, 7);
        let cases = [
            (3, 32, 32, 1 << 18),
            (7, 48, 24, 1 << 15),
            (2, 40, 64, 1 << 21),
            (4, 96, 64, 1 << 16),
            (5, 18, 30, 1 << 17),
        ];
        for (gop, dx, dy, bitrate) in cases {
            let info = crate::pipeline::tests::video_info(Profile::HevcLike, w, h, gop);
            let grid = TileGrid::new(w, h, dx, dy);
            // Unequal bitrates, so each tile's rate controller differs.
            let bitrates: Vec<u32> =
                (0..grid.len() as u32).map(|i| bitrate >> (i % 3)).collect();
            let want = subquery_reencode_oracle(&frames, info, dx, dy, &bitrates).unwrap();
            let whole = subquery_reencode(frames.clone(), info, &grid, &bitrates).unwrap();
            let what = format!("grid {dx}x{dy} at {bitrate} b/s, gop {gop}");
            assert!(whole == want, "{what} differs from the oracle");
            crate::pipeline::tests::assert_streams_as(&frames, info, &want, |_| {
                TileReencode::q3(info, dx, dy, &bitrates).unwrap()
            }, &what);
        }
    }

    #[test]
    fn subquery_reencode_validates_bitrate_count() {
        let frames = vec![Frame::filled(64, 64, Yuv::gray(90)); 3];
        let info = crate::pipeline::tests::video_info(Profile::H264Like, 64, 64, 3);
        assert!(TileReencode::q3(info, 32, 32, &[1 << 18]).is_err());
        let mut kernel = TileReencode::q3(info, 32, 32, &[1 << 20; 4]).unwrap();
        let out = crate::pipeline::tests::kernel_frames(&mut kernel, &frames).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].width(), 64);
        // Flat frames survive re-encode nearly unchanged.
        let p = vr_frame::metrics::psnr_y(&frames[0], &out[0]);
        assert!(p > 35.0, "psnr {p}");
    }
}

#[cfg(test)]
mod range_tests {
    use super::*;

    fn decode_range(input: &InputVideo, from: usize, to: usize) -> Result<Vec<Frame>> {
        FrameStream::range(input, from, to)?.collect_frames()
    }

    #[test]
    fn decode_range_matches_full_decode() {
        let input = crate::io::tests::tiny_input("range.vrmf");
        let (_, all) = decode_all(&input).unwrap();
        for (from, to) in [(0usize, 3usize), (1, 2), (2, 2), (3, 3), (0, 0)] {
            let part = decode_range(&input, from, to).unwrap();
            assert_eq!(part.len(), to - from + 1, "range {from}..={to}");
            for (i, f) in part.iter().enumerate() {
                assert_eq!(
                    f, &all[from + i],
                    "range {from}..={to} frame {i} must match full decode"
                );
            }
        }
    }

    #[test]
    fn decode_range_clamps_and_validates() {
        let input = crate::io::tests::tiny_input("range2.vrmf");
        // `to` beyond the end clamps.
        let part = decode_range(&input, 2, 99).unwrap();
        assert_eq!(part.len(), 2);
        // Inverted range errors.
        assert!(decode_range(&input, 3, 1).is_err());
    }

    /// A paced stream decodes the frames the sample table gives, whole
    /// or over a range (read from sample 0), and so does the batch
    /// engine's online table fill.
    #[test]
    fn paced_streams_match_the_sample_table() {
        let input = crate::io::tests::gop2_input("paced.vrmf");
        let (_, all) = decode_all(&input).unwrap();
        for (from, to) in [(0usize, 8usize), (3, 6), (5, 5)] {
            let paced = FrameStream::range(&input, from, to).unwrap().paced(Some(1000.0));
            assert_eq!(paced.collect_frames().unwrap(), all[from..=to], "range {from}..={to}");
        }
        let (_, frames) = decode_paced(&input, 1000.0, &ExecContext::default()).unwrap();
        assert_eq!(frames, all);
    }

    #[test]
    fn decode_all_parallel_matches_sequential() {
        // 9 frames at gop 2 → 5 independent GOPs to split across
        // workers; every budget must reproduce the sequential decode.
        let input = crate::io::tests::gop2_input("par.vrmf");
        let (_, seq) = decode_all(&input).unwrap();
        assert_eq!(seq.len(), 9);
        for workers in [1usize, 2, 3, 8, 64] {
            let (_, par) = decode_all_parallel(&input, workers).unwrap();
            assert_eq!(par, seq, "workers={workers}");
        }
    }
}
