//! The video encoder.

use crate::blocks::{Block, PlaneMut, PlaneRef, Rows};
use crate::common::{chroma_mv, intra_flat_pred, mb_blocks, mb_grid, quadrant, reconstruct, MB};
use crate::entropy::{put_block, put_mv};
use crate::motion::{diamond_search, MotionVector};
use crate::packet::{FrameType, Packet, Profile, RateControlMode, VideoInfo};
use crate::quant::{qstep, quantize, Levels, MAX_QP};
use crate::ratecontrol::RateController;
use crate::transform::{dct, N};
use std::sync::Arc;
use vr_base::{Error, FramePool, FrameRate, Result};
use vr_bitstream::BitWriter;
use vr_frame::Frame;

/// Encoder configuration.
#[derive(Debug, Clone)]
pub struct EncoderConfig {
    /// Coding tool profile.
    pub profile: Profile,
    /// Constant-QP or bitrate-targeted coding.
    pub rate: RateControlMode,
    /// I-frame period in frames.
    pub gop: u32,
    /// Nominal frame rate (drives the rate controller's per-frame
    /// budget).
    pub frame_rate: FrameRate,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            profile: Profile::H264Like,
            rate: RateControlMode::ConstantQp(26),
            gop: 30,
            frame_rate: FrameRate::STANDARD,
        }
    }
}

impl EncoderConfig {
    /// Constant-QP configuration with defaults elsewhere.
    pub fn constant_qp(qp: u8) -> Self {
        Self { rate: RateControlMode::ConstantQp(qp), ..Default::default() }
    }

    /// Bitrate-targeted configuration with defaults elsewhere.
    pub fn bitrate(bits_per_second: u32) -> Self {
        Self { rate: RateControlMode::Bitrate(bits_per_second), ..Default::default() }
    }

    /// Builder-style profile override.
    pub fn with_profile(mut self, profile: Profile) -> Self {
        self.profile = profile;
        self
    }

    /// Builder-style GOP override.
    pub fn with_gop(mut self, gop: u32) -> Self {
        self.gop = gop;
        self
    }
}

/// Where each frame's QP comes from: the configured constant, or the
/// rate controller of a bitrate-targeted stream.
enum FrameQp {
    Constant(u8),
    Controlled(RateController),
}

/// A streaming video encoder: feed frames in display order, receive
/// one packet each.
pub struct Encoder {
    cfg: EncoderConfig,
    width: u32,
    height: u32,
    /// Reconstructed previous frame (the decoder's view of it), used
    /// as the motion-compensation reference.
    reference: Option<Frame>,
    frame_index: u64,
    qp: FrameQp,
    /// Recycles reconstruction planes across GOPs: the old reference
    /// returns here when replaced, so steady-state encoding allocates
    /// no plane buffers.
    pool: Arc<FramePool>,
    /// Bitstream capacity hint, grown to the largest packet seen so
    /// the writer never reallocates mid-frame after warmup.
    pkt_capacity: usize,
}

impl Encoder {
    /// Create an encoder for `width`×`height` frames.
    pub fn new(cfg: EncoderConfig, width: u32, height: u32) -> Result<Self> {
        if width < 2 || height < 2 || width % 2 != 0 || height % 2 != 0 {
            return Err(Error::InvalidConfig(format!(
                "unsupported encode resolution {width}x{height}"
            )));
        }
        if cfg.gop == 0 {
            return Err(Error::InvalidConfig("GOP must be >= 1".into()));
        }
        let qp = match cfg.rate {
            RateControlMode::Bitrate(bps) => {
                FrameQp::Controlled(RateController::new(bps, cfg.frame_rate.0, width, height))
            }
            RateControlMode::ConstantQp(qp) if qp > MAX_QP => {
                return Err(Error::InvalidConfig(format!("QP {qp} out of range")));
            }
            RateControlMode::ConstantQp(qp) => FrameQp::Constant(qp),
        };
        Ok(Self {
            cfg,
            width,
            height,
            reference: None,
            frame_index: 0,
            qp,
            pool: FramePool::from_env(),
            pkt_capacity: width as usize * height as usize / 8,
        })
    }

    /// Stream parameters for the container/track header.
    pub fn info(&self) -> VideoInfo {
        VideoInfo {
            profile: self.cfg.profile,
            width: self.width,
            height: self.height,
            frame_rate: self.cfg.frame_rate,
            gop: self.cfg.gop,
        }
    }

    /// Encode the next frame.
    pub fn encode(&mut self, frame: &Frame) -> Result<Packet> {
        if frame.width() != self.width || frame.height() != self.height {
            return Err(Error::InvalidConfig(format!(
                "frame size {}x{} does not match encoder {}x{}",
                frame.width(),
                frame.height(),
                self.width,
                self.height
            )));
        }
        // A GOP starts with an intra frame; any other frame is inter
        // against the previous reconstruction, taken out here so the
        // new one can replace it below.
        let reference = match self.frame_index % self.cfg.gop as u64 {
            0 => None,
            _ => self.reference.take(),
        };
        let intra = reference.is_none();
        let frame_type = if intra { FrameType::Intra } else { FrameType::Inter };
        let qp = match &self.qp {
            FrameQp::Constant(qp) => *qp,
            FrameQp::Controlled(rc) => rc.frame_qp(intra),
        };

        let mut w = BitWriter::with_capacity(self.pkt_capacity);
        w.put_bits(frame_type.to_u8() as u64, 8);
        w.put_bits(qp as u64, 8);

        let mut recon = Frame::new_pooled(self.width, self.height, &self.pool);
        match &reference {
            None => self.encode_intra(frame, &mut recon, qp, &mut w),
            Some(reference) => self.encode_inter(frame, reference, &mut recon, qp, &mut w),
        }

        let bits = w.bit_len();
        if let FrameQp::Controlled(rc) = &mut self.qp {
            rc.update(bits, intra);
        }
        // Dropping the old reference recycles its planes into the pool.
        drop(reference);
        self.reference = Some(recon);
        self.frame_index += 1;
        let data = w.finish();
        self.pkt_capacity = self.pkt_capacity.max(data.len() + 64);
        Ok(Packet { data, keyframe: intra })
    }

    fn encode_intra(&self, frame: &Frame, recon: &mut Frame, qp: u8, w: &mut BitWriter) {
        let dc_pred = self.cfg.profile.intra_dc_prediction();
        let (mb_cols, mb_rows) = mb_grid(self.width, self.height);
        let step = qstep(qp);
        let src = PlaneRef::of(frame);
        let mut recon = PlaneMut::of(recon);
        for mby in 0..mb_rows {
            for mbx in 0..mb_cols {
                let bx = (mbx as i32) * MB as i32;
                let by = (mby as i32) * MB as i32;
                let inside = src[0].contains(bx, by, MB);
                let cur = src[0].gather::<MB>(bx, by, inside);
                encode_intra_mb(&src, &mut recon, &cur, bx, by, inside, step, dc_pred, w);
            }
        }
    }

    fn encode_inter(
        &self,
        frame: &Frame,
        reference: &Frame,
        recon: &mut Frame,
        qp: u8,
        w: &mut BitWriter,
    ) {
        let profile = self.cfg.profile;
        let dc_pred = profile.intra_dc_prediction();
        let (mb_cols, mb_rows) = mb_grid(self.width, self.height);
        let step = qstep(qp);
        let lambda = step * 6.0;
        let src = PlaneRef::of(frame);
        let refs = PlaneRef::of(reference);
        let mut recon = PlaneMut::of(recon);
        for mby in 0..mb_rows {
            // MV predictor resets at each row (decoder does the same).
            let mut mv_pred = MotionVector::default();
            for mbx in 0..mb_cols {
                let bx = (mbx as i32) * MB as i32;
                let by = (mby as i32) * MB as i32;
                let inside = src[0].contains(bx, by, MB);
                let cur = src[0].gather::<MB>(bx, by, inside);
                let seed = if profile.predictive_mv() { mv_pred } else { MotionVector::default() };
                let me = diamond_search(&cur, &refs[0], bx, by, seed, profile.search_range());

                // Intra cost: SAD against the block's own mean (a
                // proxy for how well flat intra prediction will do).
                let intra_sad = intra_sad(&cur);
                let mv_cost = ((me.mv.dx - seed.dx).unsigned_abs() as f32
                    + (me.mv.dy - seed.dy).unsigned_abs() as f32)
                    * lambda
                    * 0.1;
                let inter_cost = me.sad as f32 + mv_cost + lambda * 4.0;

                if inter_cost <= intra_sad {
                    w.put_bit(true); // inter MB
                    put_mv(w, me.mv, seed);
                    mv_pred = me.mv;
                    // Residual blocks against motion-compensated
                    // prediction from the reconstructed reference, read
                    // in place wherever it lies inside the frame.
                    let (lx, ly) = (bx + me.mv.dx as i32, by + me.mv.dy as i32);
                    let mut luma_scratch = None;
                    let luma_pred = refs[0].rows_at::<MB>(
                        lx,
                        ly,
                        refs[0].contains(lx, ly, MB),
                        &mut luma_scratch,
                    );
                    let cur = cur.each_ref();
                    let cmv = chroma_mv(me.mv);
                    let (cx, cy) = (bx / 2 + cmv.dx as i32, by / 2 + cmv.dy as i32);
                    let chroma_inside = refs[1].contains(cx, cy, N);
                    for (i, &(p, x0, y0)) in mb_blocks(bx, by).iter().enumerate() {
                        let (mut src_scratch, mut pred_scratch) = (None, None);
                        let (block, pred) = if p == 0 {
                            (quadrant(&cur, i), quadrant(&luma_pred, i))
                        } else {
                            (
                                src[p].rows_at(x0, y0, inside, &mut src_scratch),
                                refs[p].rows_at(cx, cy, chroma_inside, &mut pred_scratch),
                            )
                        };
                        recon[p].scatter(x0, y0, inside, &encode_block(&block, &pred, step, w));
                    }
                } else {
                    w.put_bit(false); // intra MB
                    mv_pred = MotionVector::default();
                    encode_intra_mb(&src, &mut recon, &cur, bx, by, inside, step, dc_pred, w);
                }
            }
        }
    }
}

/// The intra cost of a macroblock: the SAD of its samples against
/// their mean, as an `f32`.
///
/// It is computed in integers, `Σ|256·p − S| / 256` with `S = Σp`, and
/// is the same `f32` the sequential float sums gave (`oracle::intra_sad`
/// in the tests): every partial sum of `Σp` is an integer below 2^16,
/// exact in `f32`, and the mean `S/256` is then exact too; each term
/// `|p − S/256|` and every partial sum of them is a multiple of 2^-8
/// below 2^16 (at most 256 · 255), so it fits the 24-bit significand
/// and no addition rounded. The integer total `T = Σ|256·p − S|` is
/// below 2^24, so `T as f32 / 256.0` is exact as well.
fn intra_sad(cur: &Block<MB>) -> f32 {
    let sum: u32 = cur.as_flattened().iter().map(|&p| p as u32).sum();
    let total: u32 =
        cur.as_flattened().iter().map(|&p| (256 * p as i32 - sum as i32).unsigned_abs()).sum();
    total as f32 / 256.0
}

/// Encode the six blocks of an intra macroblock, each against the flat
/// predictor taken from what `recon` holds so far. `cur` is the luma
/// macroblock, `inside` whether it lies wholly inside the frame.
#[allow(clippy::too_many_arguments)]
fn encode_intra_mb(
    src: &[PlaneRef<'_>; 3],
    recon: &mut [PlaneMut<'_>; 3],
    cur: &Block<MB>,
    bx: i32,
    by: i32,
    inside: bool,
    step: f32,
    dc_pred: bool,
    w: &mut BitWriter,
) {
    let cur = cur.each_ref();
    for (i, &(p, x0, y0)) in mb_blocks(bx, by).iter().enumerate() {
        let mut scratch = None;
        let block =
            if p == 0 { quadrant(&cur, i) } else { src[p].rows_at(x0, y0, inside, &mut scratch) };
        let pred = [[intra_flat_pred(&recon[p].as_ref(), x0, y0, dc_pred); N]; N];
        recon[p].scatter(x0, y0, inside, &encode_block(&block, &pred.each_ref(), step, w));
    }
}

/// Encode one 8×8 block against its prediction — transform the
/// residual, quantize, entropy-code — and return the closed-loop
/// reconstruction.
fn encode_block(src: &Rows<'_, N>, pred: &Rows<'_, N>, step: f32, w: &mut BitWriter) -> Block<N> {
    // A block equal to its prediction has an all `+0.0` residual, whose
    // DCT is all `+0.0` and quantizes to all-zero levels: skip to that.
    let levels = if src == pred { Levels::ZERO } else { quantize(&dct(src, pred), step) };
    put_block(w, &levels);
    reconstruct(&levels, step, pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::testutil::moving_square_sequence;
    use vr_base::VrRng;

    /// Frames of the benchmark city's first traffic camera at 192×108.
    fn traffic_frames(n: usize) -> Vec<Frame> {
        let hyper = vr_base::Hyperparameters::new(
            1,
            vr_base::Resolution::new(192, 108),
            vr_base::Duration::from_secs(1.0),
            42,
        )
        .unwrap();
        let city = visual_road::scene::VisualCity::generate(&hyper, 0.15);
        let cam = city.traffic_cameras().next().expect("traffic camera");
        (0..n)
            .map(|i| {
                visual_road::render::render_camera_frame(&city, cam, i as f64 / 30.0, 192, 108)
            })
            .collect()
    }

    /// `intra_sad` and its decision against the sequential `f32` sums,
    /// on random, flat, two-valued and extreme macroblocks.
    #[test]
    fn integer_intra_sad_matches_the_float_sums() {
        let mut rng = VrRng::seed_from(0x1a7a_0001);
        for case in 0..4000 {
            let (lo, hi) = match case % 4 {
                0 => (0u32, 255u32),
                1 => {
                    let v = rng.range(0, 255) as u32;
                    (v, v)
                }
                2 => (0, 1),
                _ => (250, 255),
            };
            let mb: Block<MB> = std::array::from_fn(|_| {
                std::array::from_fn(|_| (lo + rng.below((hi - lo + 1) as u64) as u32) as u8)
            });
            let want = oracle::intra_sad(&mb);
            assert_eq!(intra_sad(&mb).to_bits(), want.to_bits(), "case {case}");
            let inter_cost = rng.range_f32(0.0, 20_000.0);
            assert_eq!(inter_cost <= intra_sad(&mb), inter_cost <= want);
        }
        let extremes: [Block<MB>; 2] =
            [[[0; MB]; MB], std::array::from_fn(|r| [255 * (r % 2) as u8; MB])];
        for mb in &extremes {
            assert_eq!(intra_sad(mb).to_bits(), oracle::intra_sad(mb).to_bits());
        }
    }

    /// The per-block path on real blocks: every 8×8 block of a rendered
    /// traffic clip (each plane), predicted by the same block one frame
    /// earlier and by a flat 128 block. Coefficients to the bit, levels
    /// and masks, bitstream bytes and reconstructions against the
    /// oracles, at QP 10 (the benchmark's) and 26; intra cost and its
    /// decision for every macroblock.
    #[test]
    fn block_path_matches_the_oracles_on_real_clip_blocks() {
        let frames = traffic_frames(4);
        let flat = [[128u8; N]; N];
        let mut blocks = 0;
        for pair in frames.windows(2) {
            let (prev, cur) = (PlaneRef::of(&pair[0]), PlaneRef::of(&pair[1]));
            for p in 0..3 {
                let (w, h) = (cur[p].width as i32, cur[p].height as i32);
                for y in (0..h).step_by(N) {
                    for x in (0..w).step_by(N) {
                        let inside = cur[p].contains(x, y, N);
                        let src: Block<N> = cur[p].gather(x, y, inside);
                        for pred in [prev[p].gather(x, y, inside), flat] {
                            let coeffs = dct(&src.each_ref(), &pred.each_ref());
                            let want = oracle::dct(&oracle::residual(&src, &pred));
                            assert_eq!(coeffs.map(f32::to_bits), want.map(f32::to_bits));
                            for step in [qstep(10), qstep(26)] {
                                let levels = quantize(&coeffs, step);
                                assert_eq!(levels.levels, oracle::quantize_floor(&coeffs, step));
                                assert_eq!(levels, Levels::new(levels.levels));
                                let (mut a, mut b) = (BitWriter::new(), BitWriter::new());
                                put_block(&mut a, &levels);
                                oracle::put_block(&mut b, &levels);
                                assert_eq!(a.finish(), b.finish());
                                assert_eq!(
                                    reconstruct(&levels, step, &pred.each_ref()),
                                    oracle::reconstruct(&levels.levels, step, &pred)
                                );
                            }
                            blocks += 1;
                        }
                    }
                }
            }
            let (w, h) = (cur[0].width as i32, cur[0].height as i32);
            for y in (0..h).step_by(MB) {
                for x in (0..w).step_by(MB) {
                    let mb: Block<MB> = cur[0].gather(x, y, cur[0].contains(x, y, MB));
                    assert_eq!(intra_sad(&mb).to_bits(), oracle::intra_sad(&mb).to_bits());
                }
            }
        }
        assert!(blocks > 1000, "{blocks} blocks");
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(Encoder::new(EncoderConfig::default(), 33, 32).is_err());
        assert!(Encoder::new(EncoderConfig::default(), 0, 0).is_err());
        assert!(Encoder::new(EncoderConfig::constant_qp(99), 32, 32).is_err());
        let cfg = EncoderConfig { gop: 0, ..Default::default() };
        assert!(Encoder::new(cfg, 32, 32).is_err());
    }

    #[test]
    fn rejects_mismatched_frames() {
        let mut enc = Encoder::new(EncoderConfig::default(), 64, 64).unwrap();
        let frame = Frame::new(32, 32);
        assert!(enc.encode(&frame).is_err());
    }

    #[test]
    fn gop_structure_marks_keyframes() {
        let cfg = EncoderConfig::constant_qp(30).with_gop(5);
        let frames = moving_square_sequence(64, 64, 12, 3);
        let mut enc = Encoder::new(cfg, 64, 64).unwrap();
        let packets: Vec<_> = frames.iter().map(|f| enc.encode(f).unwrap()).collect();
        for (i, p) in packets.iter().enumerate() {
            assert_eq!(p.keyframe, i % 5 == 0, "frame {i}");
        }
    }

    #[test]
    fn p_frames_are_smaller_on_coherent_video() {
        let cfg = EncoderConfig::constant_qp(28).with_gop(30);
        let frames = moving_square_sequence(96, 96, 8, 4);
        let mut enc = Encoder::new(cfg, 96, 96).unwrap();
        let packets: Vec<_> = frames.iter().map(|f| enc.encode(f).unwrap()).collect();
        let i_size = packets[0].data.len();
        let p_avg: f64 = packets[1..].iter().map(|p| p.data.len() as f64).sum::<f64>()
            / (packets.len() - 1) as f64;
        assert!(
            p_avg * 2.0 < i_size as f64,
            "P frames should be much smaller: I={i_size}, P_avg={p_avg}"
        );
    }
}
