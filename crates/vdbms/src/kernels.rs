//! Shared query kernels.
//!
//! Correct single implementations of the operations every engine
//! needs (decode, encode, stitching, box overlays, Q3 re-encode).
//! Engines differ in *scheduling* (eager vs streamed, cached vs not)
//! and in a few deliberately divergent kernels (the batch engine's
//! slow resize, the functional engine's scalar captioner) — those
//! live in the engine modules; everything here is the shared fast
//! path, which doubles as the reference implementation.

use crate::io::{InputVideo, OutputBox};
use vr_base::{fault, Error, Result};
use vr_codec::{
    encode_sequence, DecodeOutcome, Decoder, EncodedVideo, EncoderConfig, RateControlMode,
    ResilientDecoder, VideoInfo,
};
use vr_container::TrackKind;
use vr_frame::tile::TileGrid;
use vr_frame::{draw, ops, round_u8, Frame, Yuv};
use vr_geom::{Camera, Equirect, Vec3};
use vr_scene::ObjectClass;
use vr_vision::Detection;
use vr_vtt::WebVtt;

/// The shared sample→frame decode step, switching between the fast
/// path (zero-copy decode, any error propagates) and the resilient
/// path used while a fault plan is active (corruption injection, CRC
/// skip-and-conceal at the demuxer boundary, decoder resync at the
/// next keyframe). Every engine decode route goes through this, so
/// injected faults surface the same way everywhere and the fast path
/// stays bit-identical when faults are off.
pub enum SampleDecoder {
    /// No fault plan installed: plain decode.
    Fast(Decoder),
    /// Fault plan active: conceal instead of fail.
    Resilient(ResilientDecoder),
}

impl SampleDecoder {
    /// Pick the path for this run (sticky for the decoder's lifetime).
    pub fn new(info: VideoInfo) -> Self {
        if fault::active() {
            SampleDecoder::Resilient(ResilientDecoder::new(info))
        } else {
            SampleDecoder::Fast(Decoder::new(info))
        }
    }

    /// Decode sample `index` of `track`.
    pub fn decode_sample(
        &mut self,
        input: &InputVideo,
        track: usize,
        index: usize,
    ) -> Result<Frame> {
        match self {
            SampleDecoder::Fast(dec) => dec.decode(input.container.sample(track, index)?),
            SampleDecoder::Resilient(dec) => {
                let sinfo = input.container.tracks()[track].samples[index];
                let sample = input.container.sample(track, index)?;
                // The sample is only copied when an injector may
                // mutate it; otherwise the decoder reads the shared
                // container bytes in place.
                let corrupted;
                let payload: &[u8] = if let Some(inj) = fault::global() {
                    let mut owned = sample.to_vec();
                    inj.corrupt_sample(&mut owned);
                    corrupted = owned;
                    &corrupted
                } else {
                    sample
                };
                // Demuxer integrity check: a payload that fails its
                // index CRC is skipped (never fed to the decoder) and
                // the frame concealed to keep cadence.
                if vr_bitstream::crc32(payload) != sinfo.crc {
                    fault::note_skipped_sample();
                    let frame = dec.conceal_missing();
                    fault::note_concealed(1);
                    return Ok(frame);
                }
                let (frame, outcome) = dec.decode(payload, sinfo.keyframe);
                if outcome == DecodeOutcome::Concealed {
                    fault::note_concealed(1);
                }
                Ok(frame)
            }
        }
    }
}

/// Decode every frame of an input's video track.
pub fn decode_all(input: &InputVideo) -> Result<(VideoInfo, Vec<Frame>)> {
    let info = input.video_info()?;
    let track = input
        .container
        .track_of_kind(TrackKind::Video)
        .ok_or_else(|| Error::NotFound(format!("video track in {}", input.name)))?;
    let mut dec = SampleDecoder::new(info);
    let n = input.container.tracks()[track].samples.len();
    let mut frames = Vec::with_capacity(n);
    for i in 0..n {
        frames.push(dec.decode_sample(input, track, i)?);
    }
    Ok((info, frames))
}

/// Decode every frame of an input's video track, splitting the work
/// across `workers` threads at GOP boundaries. Keyframes reset the
/// decoder, so each chunk decodes independently with a fresh decoder
/// and the in-order concatenation is bit-identical to [`decode_all`]
/// (the same property `decode_range`'s keyframe seek relies on).
pub fn decode_all_parallel(
    input: &InputVideo,
    workers: usize,
) -> Result<(VideoInfo, Vec<Frame>)> {
    let info = input.video_info()?;
    let track = input
        .container
        .track_of_kind(TrackKind::Video)
        .ok_or_else(|| Error::NotFound(format!("video track in {}", input.name)))?;
    let samples = &input.container.tracks()[track].samples;
    let n = samples.len();
    // GOP starts: every keyframe index. A stream that does not open on
    // a keyframe cannot be chunked; neither can a trivial one.
    let gop_starts: Vec<usize> = (0..n).filter(|&i| samples[i].keyframe).collect();
    if workers <= 1 || n < 2 || gop_starts.first() != Some(&0) || gop_starts.len() < 2 {
        return decode_all(input);
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
    let mut parts: Vec<Result<Vec<Frame>>> = bounds
        .iter()
        .map(|&(from, to)| Ok(Vec::with_capacity(to - from)))
        .collect();
    vr_base::sync::parallel_chunks(&mut parts, chunks, |c, part| {
        let _span = vr_base::obs::trace::span_dyn("decoder", || format!("gop_chunk{c}"));
        let (from, to) = bounds[c];
        let mut dec = SampleDecoder::new(info);
        let mut out = Vec::with_capacity(to - from);
        for i in from..to {
            match dec.decode_sample(input, track, i) {
                Ok(f) => out.push(f),
                Err(e) => {
                    *part = Err(e);
                    return;
                }
            }
        }
        *part = Ok(out);
    });
    let mut frames = Vec::with_capacity(n);
    for part in parts {
        frames.extend(part?);
    }
    Ok((info, frames))
}

/// Decode only frames `[from, to]` (inclusive), seeking to the
/// nearest preceding keyframe instead of decoding from the start —
/// the random-access path offline mode's sample index exists for.
pub fn decode_range(
    input: &InputVideo,
    from: usize,
    to: usize,
) -> Result<(VideoInfo, Vec<Frame>)> {
    let info = input.video_info()?;
    let track = input
        .container
        .track_of_kind(TrackKind::Video)
        .ok_or_else(|| Error::NotFound(format!("video track in {}", input.name)))?;
    let samples = &input.container.tracks()[track].samples;
    if samples.is_empty() || from > to {
        return Err(Error::InvalidConfig(format!(
            "bad decode range {from}..={to} over {} samples",
            samples.len()
        )));
    }
    let to = to.min(samples.len() - 1);
    let from = from.min(to);
    // Seek: the last keyframe at or before `from`.
    let seek = (0..=from).rev().find(|&i| samples[i].keyframe).unwrap_or(0);
    let mut dec = SampleDecoder::new(info);
    let mut out = Vec::with_capacity(to - from + 1);
    for i in seek..=to {
        let frame = dec.decode_sample(input, track, i)?;
        if i >= from {
            out.push(frame);
        }
    }
    Ok((info, out))
}

/// A forward-only decoded-frame stream (one frame resident at a
/// time) — the functional engine's GOP-streamed access pattern.
pub struct FrameStream<'a> {
    input: &'a InputVideo,
    track: usize,
    info: VideoInfo,
    decoder: SampleDecoder,
    next: usize,
    len: usize,
}

impl<'a> FrameStream<'a> {
    /// Open a stream over the input's video track.
    pub fn open(input: &'a InputVideo) -> Result<Self> {
        let info = input.video_info()?;
        let track = input
            .container
            .track_of_kind(TrackKind::Video)
            .ok_or_else(|| Error::NotFound(format!("video track in {}", input.name)))?;
        let len = input.container.tracks()[track].samples.len();
        Ok(Self { input, track, info, decoder: SampleDecoder::new(info), next: 0, len })
    }

    /// Stream parameters.
    pub fn info(&self) -> VideoInfo {
        self.info
    }

    /// Total frame count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream has no frames.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Decode and return the next frame.
    pub fn next_frame(&mut self) -> Option<Result<Frame>> {
        if self.next >= self.len {
            return None;
        }
        let i = self.next;
        self.next += 1;
        Some(self.decoder.decode_sample(self.input, self.track, i))
    }
}

/// Encode processed frames as a query result at constant QP.
pub fn encode_output(frames: &[Frame], info: VideoInfo, qp: u8) -> Result<EncodedVideo> {
    let cfg = EncoderConfig {
        profile: info.profile,
        rate: RateControlMode::ConstantQp(qp),
        gop: info.gop,
        frame_rate: info.frame_rate,
    };
    encode_sequence(&cfg, frames)
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

/// Q3 core: partition each frame into (dx, dy) tiles, re-encode each
/// tile's temporal sequence at its assigned bitrate, decode, and
/// recombine. Returns the recombined frames (engines then encode the
/// final output themselves).
pub fn subquery_reencode(
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
        let encoded = encode_sequence(&cfg, &tile_frames)?;
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

/// Q9's direction table for one rig and one pair of sizes: for every
/// output pixel, the face that supplies it and the point in that face
/// to sample. Rig orientation and sizes are fixed for a whole video,
/// so the trigonometry, face choice and projection are done once here
/// and [`StitchMap::apply`] only samples. Planar, 9 bytes per output
/// pixel.
pub struct StitchMap {
    face_dims: (u32, u32),
    out_w: u32,
    out_h: u32,
    face: Vec<u8>,
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
                face.push(best as u8);
                xs.push(x);
                ys.push(y);
            }
        }
        Self { face_dims: (face_w, face_h), out_w, out_h, face, x: xs, y: ys }
    }

    /// Stitch one set of face frames.
    pub fn apply(&self, faces: &[Frame; 4]) -> Frame {
        assert_eq!(
            (faces[0].width(), faces[0].height()),
            self.face_dims,
            "stitch map built for other face dimensions"
        );
        let (out_w, out_h) = (self.out_w as usize, self.out_h as usize);
        let mut out = Frame::new(self.out_w, self.out_h);
        let sources = self.face.iter().zip(&self.x).zip(&self.y);
        for (oy, ((&face, &x), &y)) in out.y.as_mut_slice().iter_mut().zip(sources) {
            *oy = sample_bilinear_luma(&faces[face as usize], x, y);
        }
        // A chroma sample takes the direction of its 2×2 block's
        // bottom-right pixel.
        let (ou, ov) = (out.u.as_mut_slice(), out.v.as_mut_slice());
        for cy in 0..out_h / 2 {
            for cx in 0..out_w / 2 {
                let i = (cy * 2 + 1) * out_w + cx * 2 + 1;
                let (u, v) =
                    sample_bilinear_chroma(&faces[self.face[i] as usize], self.x[i], self.y[i]);
                ou[cy * (out_w / 2) + cx] = u;
                ov[cy * (out_w / 2) + cx] = v;
            }
        }
        out
    }
}

/// Q9 core: stitch four 120°-FOV faces into an equirectangular frame.
/// One-shot: a video's worth of frames should build one [`StitchMap`].
pub fn stitch_equirect(
    faces: &[Frame; 4],
    params: &[crate::query::FaceParams; 4],
    out_w: u32,
    out_h: u32,
) -> Frame {
    StitchMap::new(params, faces[0].width(), faces[0].height(), out_w, out_h).apply(faces)
}

/// The four taps and two weights of a clamped bilinear sample.
struct BilinearTaps {
    x0: u32,
    x1: u32,
    y0: u32,
    y1: u32,
    tx: f32,
    ty: f32,
}

impl BilinearTaps {
    #[inline]
    fn at(f: &Frame, x: f32, y: f32) -> Self {
        let xf = (x - 0.5).clamp(0.0, f.width() as f32 - 1.0);
        let yf = (y - 0.5).clamp(0.0, f.height() as f32 - 1.0);
        // Clamped non-negative, where the cast's truncation is `floor`
        // (and NaN casts to 0 either way) without the libm call.
        let x0 = xf as u32;
        let y0 = yf as u32;
        Self {
            x0,
            x1: (x0 + 1).min(f.width() - 1),
            y0,
            y1: (y0 + 1).min(f.height() - 1),
            tx: xf - x0 as f32,
            ty: yf - y0 as f32,
        }
    }

    /// Blend one plane. Generic over the getter (not `&dyn Fn`) so each
    /// plane's sampling inlines into straight-line code in the
    /// per-pixel hot loop.
    #[inline]
    fn sample(&self, get: impl Fn(u32, u32) -> u8) -> u8 {
        let blend = |a: u8, b: u8, t: f32| a as f32 + (b as f32 - a as f32) * t;
        let top = blend(get(self.x0, self.y0), get(self.x1, self.y0), self.tx);
        let bot = blend(get(self.x0, self.y1), get(self.x1, self.y1), self.tx);
        round_u8(top + (bot - top) * self.ty)
    }

    #[inline]
    fn luma(&self, f: &Frame) -> u8 {
        self.sample(|x, y| f.get_y(x, y))
    }

    #[inline]
    fn chroma(&self, f: &Frame) -> (u8, u8) {
        (self.sample(|x, y| f.get_u(x / 2, y / 2)), self.sample(|x, y| f.get_v(x / 2, y / 2)))
    }
}

/// Clamped bilinear sample of a frame's luma plane.
pub fn sample_bilinear_luma(f: &Frame, x: f32, y: f32) -> u8 {
    BilinearTaps::at(f, x, y).luma(f)
}

/// Clamped bilinear sample of a frame's `(U, V)` planes at luma
/// coordinates `(x, y)`.
pub fn sample_bilinear_chroma(f: &Frame, x: f32, y: f32) -> (u8, u8) {
    BilinearTaps::at(f, x, y).chroma(f)
}

/// Clamped bilinear sample of a frame.
pub fn sample_bilinear(f: &Frame, x: f32, y: f32) -> Yuv {
    let taps = BilinearTaps::at(f, x, y);
    let (u, v) = taps.chroma(f);
    Yuv { y: taps.luma(f), u, v }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::FaceParams;
    use vr_codec::Profile;

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
        let out = stitch_equirect(&faces, &face_params(), 128, 64);
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
        let mid = sample_bilinear(&f, 1.0, 0.5);
        assert!((mid.y as i32 - 50).abs() <= 2, "got {}", mid.y);
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
            // Two frames through one map: nothing of the first may
            // reach the second.
            for _ in 0..2 {
                let faces = noise(fw, fh);
                let (want, n) = stitch_equirect_oracle(&faces, &params, ow, oh);
                assert!(map.apply(&faces) == want, "case {case}: map differs from the oracle");
                assert!(stitch_equirect(&faces, &params, ow, oh) == want, "case {case}: wrapper");
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
            assert_eq!(sample_bilinear(&f, x, y), sample_bilinear_oracle(&f, x, y), "({x}, {y})");
        }
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(sample_bilinear(&f, bad, 3.0), sample_bilinear_oracle(&f, bad, 3.0));
            assert_eq!(sample_bilinear(&f, 3.0, bad), sample_bilinear_oracle(&f, 3.0, bad));
        }
    }

    #[test]
    fn subquery_reencode_validates_bitrate_count() {
        let frames = vec![Frame::filled(64, 64, Yuv::gray(90)); 3];
        let info = VideoInfo {
            profile: Profile::H264Like,
            width: 64,
            height: 64,
            frame_rate: vr_base::FrameRate(30),
            gop: 3,
        };
        assert!(subquery_reencode(&frames, info, 32, 32, &[1 << 18]).is_err());
        let out = subquery_reencode(&frames, info, 32, 32, &[1 << 20; 4]).unwrap();
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

    #[test]
    fn decode_range_matches_full_decode() {
        let input = crate::io::tests::tiny_input("range.vrmf");
        let (_, all) = decode_all(&input).unwrap();
        for (from, to) in [(0usize, 3usize), (1, 2), (2, 2), (3, 3), (0, 0)] {
            let (_, part) = decode_range(&input, from, to).unwrap();
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
    fn decode_all_parallel_matches_sequential() {
        // 9 frames at gop 2 → 5 independent GOPs to split across
        // workers; every budget must reproduce the sequential decode.
        let frames: Vec<Frame> = (0..9)
            .map(|i| {
                let mut f = Frame::new(32, 32);
                for y in 0..32 {
                    for x in 0..32 {
                        f.set_y(x, y, (x * 5 + y * 3 + i * 11) as u8);
                    }
                }
                f
            })
            .collect();
        let cfg = EncoderConfig {
            profile: vr_codec::Profile::H264Like,
            rate: RateControlMode::ConstantQp(16),
            gop: 2,
            frame_rate: vr_base::FrameRate(30),
        };
        let video = encode_sequence(&cfg, &frames).unwrap();
        let mut w = vr_container::ContainerWriter::new();
        let t = w.add_track(TrackKind::Video, video.info.serialize());
        for (i, p) in video.packets.iter().enumerate() {
            w.push_sample(
                t,
                &p.data,
                vr_base::Timestamp::of_frame(i as u64, vr_base::FrameRate(30)),
                p.keyframe,
            );
        }
        let input = InputVideo::from_bytes("par.vrmf", w.finish()).unwrap();
        let (_, seq) = decode_all(&input).unwrap();
        assert_eq!(seq.len(), 9);
        for workers in [1usize, 2, 3, 8, 64] {
            let (_, par) = decode_all_parallel(&input, workers).unwrap();
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn decode_range_clamps_and_validates() {
        let input = crate::io::tests::tiny_input("range2.vrmf");
        // `to` beyond the end clamps.
        let (_, part) = decode_range(&input, 2, 99).unwrap();
        assert_eq!(part.len(), 2);
        // Inverted range errors.
        assert!(decode_range(&input, 3, 1).is_err());
    }
}
