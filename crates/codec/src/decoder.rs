//! The video decoder: the exact mirror of the encoder's
//! reconstruction path.

use crate::blocks::{PlaneMut, PlaneRef};
use crate::common::{chroma_mv, intra_flat_pred, mb_blocks, mb_grid, quadrant, reconstruct, MB};
use crate::entropy::{read_block, read_mv};
use crate::motion::MotionVector;
use crate::packet::{FrameType, VideoInfo};
use crate::quant::qstep;
use crate::transform::N;
use std::sync::Arc;
use vr_base::buf::DEFAULT_POOL_FRAMES;
use vr_base::{Error, FramePool, Result};
use vr_bitstream::BitReader;
use vr_frame::Frame;

/// A streaming decoder: feed packets in decode order.
///
/// Reconstruction frames are drawn from a per-decoder [`FramePool`]
/// and recycled when the caller drops them, so steady-state decoding
/// allocates no plane buffers.
pub struct Decoder {
    info: VideoInfo,
    reference: Option<Frame>,
    pool: Arc<FramePool>,
}

impl Decoder {
    /// Create a decoder for a stream with the given parameters.
    pub fn new(info: VideoInfo) -> Self {
        Self { info, reference: None, pool: FramePool::new(DEFAULT_POOL_FRAMES) }
    }

    /// Stream parameters.
    pub fn info(&self) -> VideoInfo {
        self.info
    }

    /// Decode one packet into a frame.
    pub fn decode(&mut self, data: &[u8]) -> Result<Frame> {
        let mut r = BitReader::new(data);
        let frame_type = FrameType::from_u8(r.read_bits(8)? as u8)?;
        let qp = r.read_bits(8)? as u8;
        if qp > crate::quant::MAX_QP {
            return Err(Error::Corrupt(format!("QP {qp} out of range")));
        }
        let (w, h) = (self.info.width, self.info.height);
        let mut recon = Frame::new_pooled(w, h, &self.pool);
        match frame_type {
            FrameType::Intra => self.decode_intra(&mut r, &mut recon, qp)?,
            FrameType::Inter => {
                // Taking the reference out makes its planes unique
                // again once replaced below, so they recycle.
                let reference = self.reference.take().ok_or_else(|| {
                    Error::Corrupt("inter frame without a decoded reference".into())
                })?;
                self.decode_inter(&mut r, &reference, &mut recon, qp)?;
            }
        }
        // O(1): planes are copy-on-write, so keeping the reference is
        // a refcount bump, not a frame copy.
        self.reference = Some(recon.clone());
        Ok(recon)
    }

    /// Reset stream state (e.g. before seeking to a keyframe).
    pub fn reset(&mut self) {
        self.reference = None;
    }

    fn decode_intra(&self, r: &mut BitReader<'_>, recon: &mut Frame, qp: u8) -> Result<()> {
        let dc_pred = self.info.profile.intra_dc_prediction();
        let (mb_cols, mb_rows) = mb_grid(self.info.width, self.info.height);
        let step = qstep(qp);
        let mut recon = PlaneMut::of(recon);
        for mby in 0..mb_rows {
            for mbx in 0..mb_cols {
                let bx = (mbx as i32) * MB as i32;
                let by = (mby as i32) * MB as i32;
                decode_intra_mb(&mut recon, bx, by, step, dc_pred, r)?;
            }
        }
        Ok(())
    }

    fn decode_inter(
        &self,
        r: &mut BitReader<'_>,
        reference: &Frame,
        recon: &mut Frame,
        qp: u8,
    ) -> Result<()> {
        let profile = self.info.profile;
        let dc_pred = profile.intra_dc_prediction();
        let (mb_cols, mb_rows) = mb_grid(self.info.width, self.info.height);
        let step = qstep(qp);
        let refs = PlaneRef::of(reference);
        let mut recon = PlaneMut::of(recon);
        for mby in 0..mb_rows {
            let mut mv_pred = MotionVector::default();
            for mbx in 0..mb_cols {
                let bx = (mbx as i32) * MB as i32;
                let by = (mby as i32) * MB as i32;
                let inter = r.read_bit()?;
                if inter {
                    let pred =
                        if profile.predictive_mv() { mv_pred } else { MotionVector::default() };
                    let mv = read_mv(r, pred)?;
                    mv_pred = mv;
                    let inside = refs[0].contains(bx, by, MB);
                    let (rx, ry) = (bx + mv.dx as i32, by + mv.dy as i32);
                    let mut luma_scratch = None;
                    let luma_pred = refs[0].rows_at::<MB>(
                        rx,
                        ry,
                        refs[0].contains(rx, ry, MB),
                        &mut luma_scratch,
                    );
                    let cmv = chroma_mv(mv);
                    let (cx, cy) = (bx / 2 + cmv.dx as i32, by / 2 + cmv.dy as i32);
                    let chroma_inside = refs[1].contains(cx, cy, N);
                    for (i, &(p, x0, y0)) in mb_blocks(bx, by).iter().enumerate() {
                        let mut scratch = None;
                        let pred = if p == 0 {
                            quadrant(&luma_pred, i)
                        } else {
                            refs[p].rows_at(cx, cy, chroma_inside, &mut scratch)
                        };
                        let block = reconstruct(&read_block(r)?, step, &pred);
                        recon[p].scatter(x0, y0, inside, &block);
                    }
                } else {
                    mv_pred = MotionVector::default();
                    decode_intra_mb(&mut recon, bx, by, step, dc_pred, r)?;
                }
            }
        }
        Ok(())
    }
}

/// Decode the six blocks of an intra macroblock, each against the flat
/// predictor taken from what `recon` holds so far.
fn decode_intra_mb(
    recon: &mut [PlaneMut<'_>; 3],
    bx: i32,
    by: i32,
    step: f32,
    dc_pred: bool,
    r: &mut BitReader<'_>,
) -> Result<()> {
    let inside = recon[0].as_ref().contains(bx, by, MB);
    for &(p, x0, y0) in &mb_blocks(bx, by) {
        let pred = [[intra_flat_pred(&recon[p].as_ref(), x0, y0, dc_pred); N]; N];
        let block = reconstruct(&read_block(r)?, step, &pred.each_ref());
        recon[p].scatter(x0, y0, inside, &block);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::EncoderConfig;
    use crate::packet::Profile;
    use crate::testutil::moving_square_sequence;
    use crate::{encode_sequence, EncodedVideo};
    use vr_frame::metrics::psnr_y;

    fn round_trip(cfg: EncoderConfig, frames: &[Frame]) -> (EncodedVideo, Vec<Frame>) {
        let video = encode_sequence(&cfg, frames).unwrap();
        let decoded = video.decode_all().unwrap();
        (video, decoded)
    }

    #[test]
    fn low_qp_round_trip_is_high_quality() {
        let frames = moving_square_sequence(64, 64, 6, 1);
        let (_, decoded) = round_trip(EncoderConfig::constant_qp(4).with_gop(3), &frames);
        for (orig, dec) in frames.iter().zip(&decoded) {
            let p = psnr_y(orig, dec);
            assert!(p > 42.0, "psnr {p}");
        }
    }

    #[test]
    fn higher_qp_degrades_quality_and_shrinks_bitstream() {
        let frames = moving_square_sequence(64, 64, 6, 2);
        let (v_lo, d_lo) = round_trip(EncoderConfig::constant_qp(8), &frames);
        let (v_hi, d_hi) = round_trip(EncoderConfig::constant_qp(40), &frames);
        assert!(v_hi.size_bytes() < v_lo.size_bytes() / 2);
        let p_lo = psnr_y(&frames[3], &d_lo[3]);
        let p_hi = psnr_y(&frames[3], &d_hi[3]);
        assert!(p_lo > p_hi, "psnr should drop with qp: {p_lo} vs {p_hi}");
    }

    #[test]
    fn hevc_profile_round_trips_and_beats_h264_size() {
        let frames = moving_square_sequence(96, 96, 10, 3);
        let h264 = EncoderConfig::constant_qp(28).with_profile(Profile::H264Like);
        let hevc = EncoderConfig::constant_qp(28).with_profile(Profile::HevcLike);
        let (v264, d264) = round_trip(h264, &frames);
        let (v265, d265) = round_trip(hevc, &frames);
        // Both must be valid and similar quality ...
        let p264 = psnr_y(&frames[5], &d264[5]);
        let p265 = psnr_y(&frames[5], &d265[5]);
        assert!(p264 > 30.0 && p265 > 30.0, "{p264} {p265}");
        // ... while the HEVC-like toolset spends fewer bits.
        assert!(
            v265.size_bytes() < v264.size_bytes(),
            "hevc {} vs h264 {}",
            v265.size_bytes(),
            v264.size_bytes()
        );
    }

    #[test]
    fn inter_without_reference_is_an_error() {
        let frames = moving_square_sequence(32, 32, 3, 4);
        let video = encode_sequence(&EncoderConfig::constant_qp(20), &frames).unwrap();
        let mut dec = Decoder::new(video.info);
        // Skip the keyframe; the P-frame must be rejected.
        assert!(dec.decode(&video.packets[1].data).is_err());
        // After decoding the keyframe it works.
        dec.decode(&video.packets[0].data).unwrap();
        dec.decode(&video.packets[1].data).unwrap();
        // Reset drops the reference again.
        dec.reset();
        assert!(dec.decode(&video.packets[2].data).is_err());
    }

    #[test]
    fn truncated_packet_is_an_error() {
        let frames = moving_square_sequence(32, 32, 1, 5);
        let video = encode_sequence(&EncoderConfig::constant_qp(20), &frames).unwrap();
        let mut dec = Decoder::new(video.info);
        let data = &video.packets[0].data;
        assert!(dec.decode(&data[..data.len() / 2]).is_err());
    }

    #[test]
    fn bitrate_mode_tracks_target() {
        // A 96x96 clip saturates near 245 kbit/s, so the 500 kbit/s
        // target gets a clip with room to spend it.
        for (target_bps, side) in [(400_000u32, 96), (500_000, 128)] {
            let frames = moving_square_sequence(side, side, 45, 6);
            let cfg = EncoderConfig::bitrate(target_bps).with_gop(15);
            let video = encode_sequence(&cfg, &frames).unwrap();
            let seconds = frames.len() as f64 / 30.0;
            let actual_bps = video.size_bytes() as f64 * 8.0 / seconds;
            let ratio = actual_bps / target_bps as f64;
            assert!(
                (0.5..2.0).contains(&ratio),
                "bitrate off target: {actual_bps:.0} vs {target_bps} (ratio {ratio:.2})"
            );
            // And it still decodes.
            let decoded = video.decode_all().unwrap();
            assert_eq!(decoded.len(), frames.len());
        }
    }

    #[test]
    fn static_video_compresses_dramatically() {
        // The data-dependence Table 9 relies on: identical frames cost
        // almost nothing after the keyframe.
        let frame = moving_square_sequence(64, 64, 1, 7).pop().unwrap();
        let frames: Vec<Frame> = std::iter::repeat_with(|| frame.clone()).take(10).collect();
        let video = encode_sequence(&EncoderConfig::constant_qp(28), &frames).unwrap();
        let i_size = video.packets[0].data.len();
        for p in &video.packets[1..] {
            assert!(
                p.data.len() * 10 < i_size,
                "static P-frame too large: {} vs I {}",
                p.data.len(),
                i_size
            );
        }
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use crate::packet::Profile;
    use crate::testutil::moving_square_sequence;
    use crate::{encode_sequence, EncodedVideo, EncoderConfig};
    use vr_base::VrRng;

    /// A short real stream per profile: packet 0 is the keyframe, the
    /// rest are P-frames carrying inter macroblocks and motion vectors.
    fn streams() -> Vec<EncodedVideo> {
        let frames = moving_square_sequence(64, 64, 4, 5);
        [Profile::H264Like, Profile::HevcLike]
            .into_iter()
            .map(|p| {
                encode_sequence(&EncoderConfig::constant_qp(24).with_profile(p), &frames).unwrap()
            })
            .collect()
    }

    /// A decoder that has decoded `video`'s keyframe, so it holds the
    /// reference a P-frame needs and `decode_inter`/`read_mv` run.
    fn primed(video: &EncodedVideo) -> Decoder {
        let mut dec = Decoder::new(video.info);
        dec.decode(&video.packets[0].data).unwrap();
        dec
    }

    /// Feed `data` both as a first packet and after a real keyframe.
    /// Returns whether the primed decode was an error.
    fn decode_both_ways(video: &EncodedVideo, data: &[u8]) -> bool {
        let _ = Decoder::new(video.info).decode(data);
        primed(video).decode(data).is_err()
    }

    /// Arbitrary bytes must never panic the decoder — they decode or
    /// they error — whether they claim to be an I-frame or a P-frame.
    /// Seeded randomized sweep (the former proptest case).
    #[test]
    fn prop_garbage_never_panics() {
        let videos = streams();
        let mut rng = VrRng::seed_from(0xdec0_0001);
        let mut inter_errors = 0;
        for case in 0..512 {
            let len = rng.range(0, 511);
            let mut data: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            // Half the cases carry a valid P-frame header, so the
            // garbage is parsed as macroblock modes, vectors and blocks.
            if case % 2 == 1 && data.len() >= 2 {
                data[0] = FrameType::Inter.to_u8();
                data[1] %= crate::quant::MAX_QP + 1;
                inter_errors += decode_both_ways(&videos[case / 2 % 2], &data) as u32;
            } else {
                decode_both_ways(&videos[case / 2 % 2], &data);
            }
        }
        assert!(inter_errors > 0, "the sweep must reach the inter error paths");
    }

    /// Randomly truncating or flipping bits of a real packet — the
    /// keyframe or a P-frame — must never panic (errors are fine;
    /// silent wrong output is fine too — corruption detection is the
    /// container's CRC's job).
    #[test]
    fn prop_mutated_packets_never_panic() {
        let videos = streams();
        let mut rng = VrRng::seed_from(0xdec0_0002);
        for case in 0..512 {
            let video = &videos[case % 2];
            let packet = &video.packets[case / 2 % video.packets.len()];
            let (cut, flip) = (rng.range(0, 999), rng.range(0, 999));
            let mut data = packet.data.clone();
            data.truncate((cut % data.len()).max(1));
            let f = flip % data.len();
            data[f] ^= 0x55;
            decode_both_ways(video, &data);
            // Bit flips alone keep the length, so damage lands deep in
            // the macroblock stream rather than at its truncated end.
            let mut data = packet.data.clone();
            for _ in 0..rng.range(1, 4) {
                let bit = rng.range(16, data.len() * 8 - 1);
                data[bit / 8] ^= 0x80 >> (bit % 8);
            }
            decode_both_ways(video, &data);
        }
    }

    /// Motion vectors that run the predictor out of `i16`, and zero
    /// prefixes longer than any code, are errors in a P-frame — not an
    /// overflow panic, a wrapped vector or a shift by 64. Each packet
    /// is otherwise complete, so the hostile field is the only thing
    /// there is to reject.
    #[test]
    fn hostile_p_frames_are_errors() {
        use vr_bitstream::expgolomb::put_se;
        use vr_bitstream::BitWriter;
        let video = &streams()[1]; // HEVC-like: predictive MVs
                                   // A 64×64 P-frame of 16 macroblocks with empty blocks: the
                                   // first `mvs.len()` inter with the given `dx` differences, the
                                   // rest intra.
        let packet = |mvs: &[i64]| {
            let mut w = BitWriter::new();
            w.put_bits(FrameType::Inter.to_u8() as u64, 8);
            w.put_bits(24, 8);
            for mb in 0..16 {
                w.put_bit(mb < mvs.len());
                if let Some(&dx) = mvs.get(mb) {
                    put_se(&mut w, dx);
                    put_se(&mut w, 0);
                }
                w.put_bits(0b11_1111, 6); // six ue(0): empty blocks
            }
            w.finish()
        };
        let rejected = |data: &[u8], why: &str| {
            let err = primed(video).decode(data).expect_err(why).to_string();
            assert!(err.contains(why), "{err}");
        };
        primed(video).decode(&packet(&[20_000, -20_000, 7])).unwrap();
        // Two differences whose running sum passes i16::MAX.
        rejected(&packet(&[20_000, 20_000]), "motion vector");
        // A difference that does not fit i16 at all.
        rejected(&packet(&[1 << 20]), "motion vector");
        // A 40-zero prefix with a well-formed suffix behind it.
        let mut data = packet(&[]);
        data.truncate(2);
        data.extend_from_slice(&[0x80, 0, 0, 0, 0, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]);
        rejected(&data, "prefix");
    }

    /// Deterministic spot-check on many seeds (cheap, not proptest).
    #[test]
    fn random_bytes_mass_test() {
        let video = &streams()[0];
        let mut rng = VrRng::seed_from(77);
        for _ in 0..200 {
            let len = rng.range(0, 300);
            let data: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            decode_both_ways(video, &data);
        }
    }
}
