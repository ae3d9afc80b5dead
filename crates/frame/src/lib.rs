//! Video frame model and image operations.
//!
//! Everything in Visual Road ultimately manipulates frames: the
//! renderer produces them, the codec compresses them, and nearly every
//! benchmark query (Table 5) is defined as an operation over them. This
//! crate supplies:
//!
//! * [`Frame`] — a planar **YUV 4:2:0** frame, the codec's native
//!   format (chroma subsampled 2×2, as in H.264/HEVC).
//! * [`RgbImage`] — a packed RGB24 image used by the renderer and the
//!   vision substrate.
//! * color conversion between the two (BT.601 full-range).
//! * the per-query image operations: crop (Q1), grayscale (Q2a),
//!   Gaussian blur (Q2b), temporal mean filtering (Q2d), tiling (Q3),
//!   bilinear interpolation (Q4), downsampling (Q5), ω-coalesce overlay
//!   (Q6), plus drawing primitives for bounding boxes and captions.
//! * quality metrics: MSE and PSNR (the frame-validation metric, §3.2).

#![forbid(unsafe_code)]

pub mod color;
pub mod draw;
pub mod frame;
pub mod metrics;
pub mod ops;
pub mod tile;

pub use color::{rgb_to_yuv, round_u8, yuv_to_rgb, Rgb, Yuv};
pub use frame::{Frame, Plane, RgbImage};
pub use metrics::{mse_y, psnr, psnr_y, PSNR_LOSSLESS_DB, VALIDATION_THRESHOLD_DB};

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use vr_base::VrRng;

    /// A deterministic "natural-ish" test frame: smooth gradients plus
    /// a few rectangles, so codecs and filters have real structure to
    /// chew on.
    pub fn structured_frame(w: u32, h: u32, seed: u64) -> Frame {
        let mut rng = VrRng::seed_from(seed);
        let mut f = Frame::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let v = ((x * 255 / w.max(1)) / 2 + (y * 255 / h.max(1)) / 2) as u8;
                f.set_y(x, y, v);
            }
        }
        for _ in 0..4 {
            let rx = rng.range(0, w.saturating_sub(9) as usize) as u32;
            let ry = rng.range(0, h.saturating_sub(9) as usize) as u32;
            let lum = rng.range(0, 255) as u8;
            for y in ry..(ry + 8).min(h) {
                for x in rx..(rx + 8).min(w) {
                    f.set_y(x, y, lum);
                }
            }
        }
        let (cw, ch) = f.chroma_dims();
        for cy in 0..ch {
            for cx in 0..cw {
                f.set_u(cx, cy, 100 + ((cx * 56) / cw.max(1)) as u8);
                f.set_v(cx, cy, 120 + ((cy * 56) / ch.max(1)) as u8);
            }
        }
        f
    }
}
