//! A from-scratch block-transform video codec.
//!
//! This is the repository's substitute for H.264/HEVC (see DESIGN.md):
//! a real hybrid video coder with the same architecture as the
//! standards it stands in for —
//!
//! * 16×16 **macroblocks** split into 8×8 transform blocks,
//! * an orthonormal 8×8 **DCT** ([`transform`]),
//! * H.264-style **quantization** with QP 0–51 and a step size that
//!   doubles every 6 QP ([`quant`]),
//! * **zig-zag + run-level + Exp-Golomb** entropy coding ([`entropy`]),
//! * diamond-search **motion estimation** and motion-compensated
//!   P-frames with closed-loop reconstruction ([`motion`],
//!   [`encoder`]),
//! * **GOP** structure (periodic I-frames) and a leaky-bucket
//!   **rate controller** targeting a bitrate ([`ratecontrol`]).
//!
//! Two [`Profile`]s are provided. `H264Like` is the baseline.
//! `HevcLike` adds predictive motion-vector coding, intra DC
//! prediction, and a wider motion search — real coding tools that
//! buy roughly 20–40 % bitrate at equal quality, mirroring the
//! relationship between the real standards.
//!
//! The codec is deliberately *simple* but *honest*: every byte of the
//! bitstream is produced by transform/entropy machinery with the same
//! data-dependence as production codecs (static content compresses
//! dramatically better than noise), which is what the benchmark's
//! dataset-validation experiments (Table 9) require.

#![forbid(unsafe_code)]

pub mod blocks;
pub mod common;
pub mod decoder;
pub mod encoder;
pub mod entropy;
pub mod motion;
#[cfg(test)]
mod oracle;
pub mod packet;
pub mod quant;
pub mod ratecontrol;
pub mod resilient;
pub mod transform;

pub use decoder::Decoder;
pub use resilient::{DecodeOutcome, ResilientDecoder};
pub use encoder::{Encoder, EncoderConfig};
pub use packet::{Packet, Profile, RateControlMode, VideoInfo};

use vr_base::Result;
use vr_frame::Frame;

/// An encoded video: stream parameters plus one packet per frame.
///
/// This is the unit the container muxes and the benchmark moves
/// around; `size_bytes` is what Q3/Q10 measure when they compare
/// bitrates.
#[derive(Debug, Clone)]
pub struct EncodedVideo {
    /// Stream parameters needed to decode.
    pub info: VideoInfo,
    /// One encoded packet per frame, in presentation order.
    pub packets: Vec<Packet>,
}

impl EncodedVideo {
    /// Total compressed payload size.
    pub fn size_bytes(&self) -> usize {
        self.packets.iter().map(|p| p.data.len()).sum()
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the video contains no frames.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Decode every frame.
    pub fn decode_all(&self) -> Result<Vec<Frame>> {
        let mut dec = Decoder::new(self.info);
        self.packets.iter().map(|p| dec.decode(&p.data)).collect()
    }
}

/// Encode a sequence of frames with one call (frames must share the
/// configured resolution).
pub fn encode_sequence(cfg: &EncoderConfig, frames: &[Frame]) -> Result<EncodedVideo> {
    assert!(!frames.is_empty(), "cannot encode an empty sequence");
    let mut enc = Encoder::new(cfg.clone(), frames[0].width(), frames[0].height())?;
    let packets = frames.iter().map(|f| enc.encode(f)).collect::<Result<Vec<_>>>()?;
    Ok(EncodedVideo { info: enc.info(), packets })
}

#[cfg(test)]
pub(crate) mod testutil;

#[cfg(test)]
mod randomized_tests {
    //! Seeded randomized whole-codec checks (the former proptest
    //! suite), driven by the in-repo deterministic generator.
    use super::*;
    use vr_base::VrRng;

    /// Structured random frames (gradients + blocks, not noise) at a
    /// random small even resolution.
    fn arb_sequence(rng: &mut VrRng) -> Vec<Frame> {
        let (w, h) = (rng.range(2, 4) as u32 * 16, rng.range(2, 4) as u32 * 16);
        let n = rng.range(1, 5);
        let mut seq_rng = VrRng::seed_from(rng.next_u64());
        (0..n)
            .map(|t| {
                let mut f = Frame::new(w, h);
                let phase = seq_rng.range(0, 50) as u32;
                for y in 0..h {
                    for x in 0..w {
                        f.set_y(x, y, ((x * 2 + y + phase + t as u32 * 3) % 230) as u8);
                    }
                }
                f
            })
            .collect()
    }

    /// Any structured sequence encodes and decodes at any QP with
    /// the right frame count/geometry and sane quality at low QP.
    #[test]
    fn prop_encode_decode_round_trip() {
        let mut rng = VrRng::seed_from(0xc0de_0001);
        for case in 0..12 {
            let frames = arb_sequence(&mut rng);
            // Cover both QP extremes deterministically, then sample.
            let qp = match case {
                0 => 0,
                1 => 51,
                _ => rng.range(0, 51) as u8,
            };
            let profile = if rng.chance(0.5) { Profile::HevcLike } else { Profile::H264Like };
            let cfg = EncoderConfig::constant_qp(qp).with_profile(profile).with_gop(3);
            let video = encode_sequence(&cfg, &frames).unwrap();
            assert_eq!(video.len(), frames.len());
            let decoded = video.decode_all().unwrap();
            for (orig, dec) in frames.iter().zip(&decoded) {
                assert_eq!(orig.width(), dec.width());
                assert_eq!(orig.height(), dec.height());
                if qp <= 8 {
                    let p = vr_frame::metrics::psnr_y(orig, dec);
                    assert!(p > 38.0, "qp {qp} psnr {p}");
                }
            }
        }
    }

    /// Encoding is a pure function of (config, frames).
    #[test]
    fn prop_encoding_is_deterministic() {
        let mut rng = VrRng::seed_from(0xc0de_0002);
        for _ in 0..6 {
            let frames = arb_sequence(&mut rng);
            let qp = rng.range(10, 39) as u8;
            let cfg = EncoderConfig::constant_qp(qp);
            let a = encode_sequence(&cfg, &frames).unwrap();
            let b = encode_sequence(&cfg, &frames).unwrap();
            assert_eq!(a.len(), b.len());
            for (pa, pb) in a.packets.iter().zip(&b.packets) {
                assert_eq!(&pa.data, &pb.data);
            }
        }
    }
}
