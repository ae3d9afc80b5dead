//! The video encoder.

use crate::blocks::{Block, PlaneMut, PlaneRef};
use crate::common::{chroma_mv, intra_flat_pred, mb_blocks, mb_grid, quadrant, reconstruct, MB};
use crate::entropy::{put_block, put_mv};
use crate::motion::{diamond_search, MotionVector};
use crate::packet::{FrameType, Packet, Profile, RateControlMode, VideoInfo};
use crate::quant::{qstep, quantize, Levels};
use crate::ratecontrol::RateController;
use crate::transform::{dct, BLOCK, N};
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
    rc: Option<RateController>,
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
        let rc = match cfg.rate {
            RateControlMode::Bitrate(bps) => {
                Some(RateController::new(bps, cfg.frame_rate.0, width, height))
            }
            RateControlMode::ConstantQp(qp) if qp > crate::quant::MAX_QP => {
                return Err(Error::InvalidConfig(format!("QP {qp} out of range")));
            }
            RateControlMode::ConstantQp(_) => None,
        };
        Ok(Self {
            cfg,
            width,
            height,
            reference: None,
            frame_index: 0,
            rc,
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
        let intra = self.frame_index % self.cfg.gop as u64 == 0 || self.reference.is_none();
        let frame_type = if intra { FrameType::Intra } else { FrameType::Inter };
        let qp = match (&self.rc, self.cfg.rate) {
            (Some(rc), _) => rc.frame_qp(intra),
            (None, RateControlMode::ConstantQp(qp)) => qp,
            (None, RateControlMode::Bitrate(_)) => unreachable!("rc always set for bitrate mode"),
        };

        let mut w = BitWriter::with_capacity(self.pkt_capacity);
        w.put_bits(frame_type.to_u8() as u64, 8);
        w.put_bits(qp as u64, 8);

        let mut recon = Frame::new_pooled(self.width, self.height, &self.pool);
        match frame_type {
            FrameType::Intra => self.encode_intra(frame, &mut recon, qp, &mut w),
            FrameType::Inter => {
                // Take the reference out to appease the borrow checker;
                // it is replaced by the new reconstruction below.
                let reference = self.reference.take().expect("inter frame needs a reference");
                self.encode_inter(frame, &reference, &mut recon, qp, &mut w);
            }
        }

        let bits = w.bit_len();
        if let Some(rc) = &mut self.rc {
            rc.update(bits, intra);
        }
        // Dropping the old reference recycles its planes into the pool.
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
                // Both sums feed the mode decision below, so they stay
                // sequential f32 sums in raster order.
                let mean: f32 =
                    cur.as_flattened().iter().map(|&p| p as f32).sum::<f32>() / (MB * MB) as f32;
                let intra_sad: f32 =
                    cur.as_flattened().iter().map(|&p| (p as f32 - mean).abs()).sum();
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
                    // prediction from the reconstructed reference.
                    let (dx, dy) = (me.mv.dx as i32, me.mv.dy as i32);
                    let luma_pred = refs[0].gather::<MB>(
                        bx + dx,
                        by + dy,
                        refs[0].contains(bx + dx, by + dy, MB),
                    );
                    let cmv = chroma_mv(me.mv);
                    let (cx, cy) = (bx / 2 + cmv.dx as i32, by / 2 + cmv.dy as i32);
                    let chroma_inside = refs[1].contains(cx, cy, N);
                    for (i, &(p, x0, y0)) in mb_blocks(bx, by).iter().enumerate() {
                        let (block, pred) = if p == 0 {
                            (quadrant(&cur, i), quadrant(&luma_pred, i))
                        } else {
                            (src[p].gather(x0, y0, inside), refs[p].gather(cx, cy, chroma_inside))
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
    for (i, &(p, x0, y0)) in mb_blocks(bx, by).iter().enumerate() {
        let block = if p == 0 { quadrant(cur, i) } else { src[p].gather(x0, y0, inside) };
        let pred = [[intra_flat_pred(&recon[p].as_ref(), x0, y0, dc_pred); N]; N];
        recon[p].scatter(x0, y0, inside, &encode_block(&block, &pred, step, w));
    }
}

/// Encode one 8×8 block against its prediction — transform the
/// residual, quantize, entropy-code — and return the closed-loop
/// reconstruction.
fn encode_block(src: &Block<N>, pred: &Block<N>, step: f32, w: &mut BitWriter) -> Block<N> {
    // A block equal to its prediction has an all `+0.0` residual, whose
    // DCT is all `+0.0` and quantizes to all-zero levels: skip to that.
    let levels = if src == pred {
        Levels::ZERO
    } else {
        let mut residual = [0.0f32; BLOCK];
        let samples = src.as_flattened().iter().zip(pred.as_flattened());
        for (r, (&s, &p)) in residual.iter_mut().zip(samples) {
            *r = s as f32 - p as f32;
        }
        quantize(&dct(&residual), step)
    };
    put_block(w, &levels);
    reconstruct(&levels, step, pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::moving_square_sequence;

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
