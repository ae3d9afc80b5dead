//! Frame-level image operations backing the microbenchmark queries.
//!
//! Each public function here is the *reference* kernel: the VCD's
//! reference engine calls these directly, and the engines under test
//! implement their own variants (fast, slow, streaming, ...) that must
//! match these within the 40 dB PSNR validation threshold.

use crate::frame::Frame;
use vr_geom::Rect;

/// Crop a frame to `rect` (Q1 spatial selection).
///
/// The crop origin is rounded **down** to even coordinates and the
/// size **up** to even dimensions so the chroma planes stay aligned;
/// both the reference implementation and engines under test apply the
/// same rounding, so outputs remain comparable.
pub fn crop(src: &Frame, rect: Rect) -> Frame {
    let rect = rect.clipped(src.width(), src.height());
    assert!(!rect.is_empty(), "crop rectangle is empty after clipping");
    let x0 = (rect.x0 as u32) & !1;
    let y0 = (rect.y0 as u32) & !1;
    let w = ((rect.x1 as u32 - x0) + 1) & !1;
    let h = ((rect.y1 as u32 - y0) + 1) & !1;
    let w = w.min(src.width() - x0).max(2) & !1;
    let h = h.min(src.height() - y0).max(2) & !1;
    let mut dst = Frame::new(w, h);
    for y in 0..h {
        let srow = ((y0 + y) * src.width() + x0) as usize;
        let drow = (y * w) as usize;
        dst.y[drow..drow + w as usize].copy_from_slice(&src.y[srow..srow + w as usize]);
    }
    let (cw, ch) = dst.chroma_dims();
    let scw = src.width() / 2;
    for cy in 0..ch {
        let srow = ((y0 / 2 + cy) * scw + x0 / 2) as usize;
        let drow = (cy * cw) as usize;
        dst.u[drow..drow + cw as usize].copy_from_slice(&src.u[srow..srow + cw as usize]);
        dst.v[drow..drow + cw as usize].copy_from_slice(&src.v[srow..srow + cw as usize]);
    }
    dst
}

/// Convert to grayscale by dropping chroma (Q2a): U = V = 128, luma
/// unchanged — exactly the paper's "takes in a YUV pixel (y, u, v) and
/// returns (y, 0, 0)" with offset-binary chroma.
pub fn grayscale(src: &Frame) -> Frame {
    let mut dst = src.clone();
    // Fresh neutral planes instead of `fill(128)`: filling a shared
    // copy-on-write plane would first copy the chroma it is about to
    // overwrite. The luma plane stays shared with `src` (zero-copy).
    dst.u = crate::frame::Plane::new(src.u.len(), 128);
    dst.v = crate::frame::Plane::new(src.v.len(), 128);
    dst
}

/// In-place variant of [`grayscale`] (used by streaming engines to
/// avoid an allocation per frame).
pub fn grayscale_in_place(frame: &mut Frame) {
    frame.u.fill(128);
    frame.v.fill(128);
}

/// Build the 1D Gaussian kernel for a `d`×`d` blur with σ = d/6
/// (three standard deviations inside the kernel), in 16-bit fixed
/// point summing to 65536.
pub fn gaussian_kernel(d: u32) -> Vec<u32> {
    assert!(d >= 1, "kernel size must be >= 1");
    let sigma = (d as f64 / 6.0).max(0.5);
    let half = (d / 2) as i64;
    let mut weights: Vec<f64> = (-half..=half)
        .map(|i| (-((i * i) as f64) / (2.0 * sigma * sigma)).exp())
        .collect();
    let sum: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= sum;
    }
    // Convert to fixed point; force the total to exactly 65536 by
    // dumping the residual on the center tap.
    let mut fixed: Vec<u32> = weights.iter().map(|w| (w * 65536.0).round() as u32).collect();
    let total: i64 = fixed.iter().map(|&w| w as i64).sum();
    let center = fixed.len() / 2;
    fixed[center] = (fixed[center] as i64 + (65536 - total)) as u32;
    fixed
}

/// Gaussian blur with a `d`×`d` kernel (Q2b), implemented separably
/// (horizontal then vertical pass) on all three planes.
pub fn gaussian_blur(src: &Frame, d: u32) -> Frame {
    let kernel = gaussian_kernel(d);
    let mut dst = src.clone();
    blur_plane(&src.y, &mut dst.y, src.width(), src.height(), &kernel);
    let (cw, ch) = src.chroma_dims();
    blur_plane(&src.u, &mut dst.u, cw, ch, &kernel);
    blur_plane(&src.v, &mut dst.v, cw, ch, &kernel);
    dst
}

fn blur_plane(src: &[u8], dst: &mut [u8], w: u32, h: u32, kernel: &[u32]) {
    let half = (kernel.len() / 2) as i64;
    let mut tmp = vec![0u8; src.len()];
    // Horizontal pass with edge clamping.
    for y in 0..h as i64 {
        for x in 0..w as i64 {
            let mut acc = 0u64;
            for (k, &kw) in kernel.iter().enumerate() {
                let sx = (x + k as i64 - half).clamp(0, w as i64 - 1);
                acc += kw as u64 * src[(y * w as i64 + sx) as usize] as u64;
            }
            tmp[(y * w as i64 + x) as usize] = ((acc + 32768) >> 16) as u8;
        }
    }
    // Vertical pass.
    for y in 0..h as i64 {
        for x in 0..w as i64 {
            let mut acc = 0u64;
            for (k, &kw) in kernel.iter().enumerate() {
                let sy = (y + k as i64 - half).clamp(0, h as i64 - 1);
                acc += kw as u64 * tmp[(sy * w as i64 + x) as usize] as u64;
            }
            dst[(y * w as i64 + x) as usize] = ((acc + 32768) >> 16) as u8;
        }
    }
}

/// Bilinear interpolation to a new (larger or smaller) resolution
/// (Q4 upsampling). Output dimensions are rounded up to even.
///
/// Each plane is resampled separably over row buffers: a column table
/// holds every output column's `(sx, sx1, tx)`, one horizontal pass
/// per source row blends `row[sx]·(65536−tx) + row[sx1]·tx`, and every
/// output row blends its two source rows' passes vertically with
/// `(top·(65536−ty) + bot·ty + 2³¹) >> 32`. A horizontal pass holds
/// exactly the `top`/`bot` sums a per-pixel 2×2 tap computes (each ≤
/// 255·65536, so a u32 holds it), and the vertical blend is that tap's
/// formula, so a pass reused by every output row that shares its
/// source row (and swapped from bottom to top when the source row
/// advances by one) leaves every output byte unchanged.
pub fn interpolate_bilinear(src: &Frame, out_w: u32, out_h: u32) -> Frame {
    let out_w = (out_w.max(2) + 1) & !1;
    let out_h = (out_h.max(2) + 1) & !1;
    let mut dst = Frame::new(out_w, out_h);
    resample_plane_bilinear(&src.y, src.width(), src.height(), &mut dst.y, out_w, out_h);
    let (scw, sch) = src.chroma_dims();
    let (dcw, dch) = dst.chroma_dims();
    resample_plane_bilinear(&src.u, scw, sch, &mut dst.u, dcw, dch);
    resample_plane_bilinear(&src.v, scw, sch, &mut dst.v, dcw, dch);
    dst
}

/// One 16.16 fixed-point source coordinate of output index `o`,
/// pixel-center aligned: `(s, s1, t)` with `s1` clamped to the edge.
fn bilinear_tap(o: u64, step: u64, n: u32) -> (u32, u32, u32) {
    let f = (o * step + step / 2).saturating_sub(1 << 15);
    let s = (f >> 16).min(n as u64 - 1) as u32;
    (s, (s + 1).min(n - 1), (f & 0xFFFF) as u32)
}

fn resample_plane_bilinear(src: &[u8], sw: u32, sh: u32, dst: &mut [u8], dw: u32, dh: u32) {
    let step_x = ((sw as u64) << 16) / dw as u64;
    let step_y = ((sh as u64) << 16) / dh as u64;
    let cols: Vec<_> = (0..dw as u64).map(|ox| bilinear_tap(ox, step_x, sw)).collect();
    let row = |sy: u32| &src[(sy * sw) as usize..][..sw as usize];
    let horizontal = |r: &[u8], out: &mut [u32]| {
        for (o, &(sx, sx1, tx)) in out.iter_mut().zip(&cols) {
            *o = r[sx as usize] as u32 * (65536 - tx) + r[sx1 as usize] as u32 * tx;
        }
    };
    let (mut top, mut bot) = (vec![0u32; dw as usize], vec![0u32; dw as usize]);
    // The source row `top` holds; `bot` holds the next one (clamped).
    let mut held: Option<u32> = None;
    for (oy, out) in dst.chunks_exact_mut(dw as usize).enumerate() {
        let (sy, sy1, ty) = bilinear_tap(oy as u64, step_y, sh);
        match held {
            Some(prev) if prev == sy => {}
            Some(prev) if prev + 1 == sy => {
                std::mem::swap(&mut top, &mut bot);
                horizontal(row(sy1), &mut bot);
            }
            _ => {
                horizontal(row(sy), &mut top);
                horizontal(row(sy1), &mut bot);
            }
        }
        held = Some(sy);
        let (wt, wb) = (65536 - ty as u64, ty as u64);
        for ((d, &t), &b) in out.iter_mut().zip(&top).zip(&bot) {
            *d = ((t as u64 * wt + b as u64 * wb + (1u64 << 31)) >> 32) as u8;
        }
    }
}

/// Box-filter downsampling to `(out_w, out_h)` (Q5). Each output
/// sample averages the covered source box; this is the conventional
/// high-quality decimation filter.
pub fn downsample(src: &Frame, out_w: u32, out_h: u32) -> Frame {
    let out_w = (out_w.max(2)) & !1;
    let out_h = (out_h.max(2)) & !1;
    assert!(
        out_w <= src.width() && out_h <= src.height(),
        "downsample target exceeds source resolution"
    );
    let mut dst = Frame::new(out_w, out_h);
    downsample_plane(&src.y, src.width(), src.height(), &mut dst.y, out_w, out_h);
    let (scw, sch) = src.chroma_dims();
    let (dcw, dch) = dst.chroma_dims();
    downsample_plane(&src.u, scw, sch, &mut dst.u, dcw, dch);
    downsample_plane(&src.v, scw, sch, &mut dst.v, dcw, dch);
    dst
}

fn downsample_plane(src: &[u8], sw: u32, sh: u32, dst: &mut [u8], dw: u32, dh: u32) {
    for oy in 0..dh {
        let y0 = (oy as u64 * sh as u64 / dh as u64) as u32;
        let y1 = (((oy as u64 + 1) * sh as u64 + dh as u64 - 1) / dh as u64) as u32;
        let y1 = y1.clamp(y0 + 1, sh);
        for ox in 0..dw {
            let x0 = (ox as u64 * sw as u64 / dw as u64) as u32;
            let x1 = (((ox as u64 + 1) * sw as u64 + dw as u64 - 1) / dw as u64) as u32;
            let x1 = x1.clamp(x0 + 1, sw);
            let mut acc = 0u64;
            for sy in y0..y1 {
                for sx in x0..x1 {
                    acc += src[(sy * sw + sx) as usize] as u64;
                }
            }
            let n = ((y1 - y0) * (x1 - x0)) as u64;
            dst[(oy * dw + ox) as usize] = ((acc + n / 2) / n) as u8;
        }
    }
}

/// Pixel-wise mean of a window of frames (the background reference
/// frame `b_j` of Q2d). All frames must share one resolution.
pub fn temporal_mean(window: &[&Frame]) -> Frame {
    assert!(!window.is_empty(), "temporal mean of an empty window");
    let (w, h) = (window[0].width(), window[0].height());
    for f in window {
        assert!(f.width() == w && f.height() == h, "window frames must match in size");
    }
    let mut acc_y = vec![0u32; window[0].y.len()];
    let mut acc_u = vec![0u32; window[0].u.len()];
    let mut acc_v = vec![0u32; window[0].v.len()];
    for f in window {
        for (a, &s) in acc_y.iter_mut().zip(&f.y) {
            *a += s as u32;
        }
        for (a, &s) in acc_u.iter_mut().zip(&f.u) {
            *a += s as u32;
        }
        for (a, &s) in acc_v.iter_mut().zip(&f.v) {
            *a += s as u32;
        }
    }
    let n = window.len() as u32;
    let mut out = Frame::new(w, h);
    for (d, &a) in out.y.iter_mut().zip(&acc_y) {
        *d = ((a + n / 2) / n) as u8;
    }
    for (d, &a) in out.u.iter_mut().zip(&acc_u) {
        *d = ((a + n / 2) / n) as u8;
    }
    for (d, &a) in out.v.iter_mut().zip(&acc_v) {
        *d = ((a + n / 2) / n) as u8;
    }
    out
}

/// Background masking (Q2d): for each pixel `p_v` of `frame` and `p_b`
/// of `background`, output ω when `|p_v - p_b| / p_v < ε`, else `p_v`.
///
/// The relative difference is evaluated on luma (the paper's scalar
/// formulation); ω is written as full black including neutral chroma.
pub fn background_mask(frame: &Frame, background: &Frame, epsilon: f64) -> Frame {
    assert!(frame.width() == background.width() && frame.height() == background.height());
    let (w, h) = (frame.width(), frame.height());
    // Pass 1: per-pixel mask on luma.
    let mut mask = vec![false; (w * h) as usize];
    for y in 0..h {
        for x in 0..w {
            let pv = frame.get_y(x, y) as f64;
            let pb = background.get_y(x, y) as f64;
            let rel = if pv > 0.0 { ((pv - pb) / pv).abs() } else { 0.0 };
            mask[(y * w + x) as usize] = rel < epsilon;
        }
    }
    // Pass 2: apply. Luma is zeroed per pixel; a chroma block is
    // neutralized only when all four covered pixels are masked, so a
    // surviving foreground pixel keeps its color.
    let mut out = frame.clone();
    // Resolve the copy-on-write planes once, outside the pixel loops.
    let oy = out.y.as_mut_slice();
    for y in 0..h {
        for x in 0..w {
            if mask[(y * w + x) as usize] {
                oy[(y * w + x) as usize] = 0;
            }
        }
    }
    let (cw, ch) = frame.chroma_dims();
    let (ou, ov) = (out.u.as_mut_slice(), out.v.as_mut_slice());
    for cy in 0..ch {
        for cx in 0..cw {
            let all = (0..2).all(|dy| {
                (0..2).all(|dx| mask[((cy * 2 + dy) * w + cx * 2 + dx) as usize])
            });
            if all {
                ou[(cy * w / 2 + cx) as usize] = 128;
                ov[(cy * w / 2 + cx) as usize] = 128;
            }
        }
    }
    out
}

/// ω-coalesce join (Q6, Equation 1): output `b` where `b ≠ ω`, else
/// `p`. `overlay` pixels equal to the ω sentinel (within
/// [`Frame::is_omega`]'s ±4) are treated as transparent; a chroma
/// sample takes the overlay's whenever any of its 2×2 luma pixels is
/// not ω.
pub fn coalesce(base: &Frame, overlay: &Frame) -> Frame {
    assert!(base.width() == overlay.width() && base.height() == overlay.height());
    let mut out = base.clone();
    let (w, cw) = (base.width() as usize, base.chroma_dims().0 as usize);
    let (ly, lu, lv) = (overlay.y.as_slice(), overlay.u.as_slice(), overlay.v.as_slice());
    // Resolve the copy-on-write planes once, outside the row loop.
    let (oy, ou, ov) = (out.y.as_mut_slice(), out.u.as_mut_slice(), out.v.as_mut_slice());
    for (y, (orow, lrow)) in oy.chunks_exact_mut(w).zip(ly.chunks_exact(w)).enumerate() {
        let c = (y / 2) * cw;
        for (cx, (opair, lpair)) in
            orow.chunks_exact_mut(2).zip(lrow.chunks_exact(2)).enumerate()
        {
            let (u, v) = (lu[c + cx], lv[c + cx]);
            let neutral = u.abs_diff(128) <= 4 && v.abs_diff(128) <= 4;
            let mut any = false;
            for (o, &l) in opair.iter_mut().zip(lpair) {
                if !neutral || l > 4 {
                    *o = l;
                    any = true;
                }
            }
            if any {
                ou[c + cx] = u;
                ov[c + cx] = v;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Yuv;
    use crate::testutil::structured_frame;

    #[test]
    fn crop_extracts_expected_region() {
        let src = structured_frame(64, 48, 1);
        let c = crop(&src, Rect::new(10, 8, 30, 24));
        assert_eq!(c.width(), 20);
        assert_eq!(c.height(), 16);
        assert_eq!(c.get_y(0, 0), src.get_y(10, 8));
        assert_eq!(c.get_y(19, 15), src.get_y(29, 23));
        assert_eq!(c.get(2, 2), src.get(12, 10));
    }

    #[test]
    fn crop_rounds_odd_coords() {
        let src = structured_frame(64, 48, 2);
        let c = crop(&src, Rect::new(11, 9, 20, 20));
        // Origin rounds down to (10, 8); size rounds up to even.
        assert_eq!(c.get_y(0, 0), src.get_y(10, 8));
        assert_eq!(c.width() % 2, 0);
        assert_eq!(c.height() % 2, 0);
    }

    #[test]
    fn crop_clips_to_frame() {
        let src = structured_frame(32, 32, 3);
        let c = crop(&src, Rect::new(-10, -10, 16, 16));
        assert_eq!(c.width(), 16);
        assert_eq!(c.height(), 16);
        assert_eq!(c.get_y(0, 0), src.get_y(0, 0));
    }

    #[test]
    fn grayscale_neutralizes_chroma_only() {
        let src = structured_frame(32, 32, 4);
        let g = grayscale(&src);
        assert_eq!(g.y, src.y);
        assert!(g.u.iter().all(|&u| u == 128));
        assert!(g.v.iter().all(|&v| v == 128));
        let mut ip = src.clone();
        grayscale_in_place(&mut ip);
        assert_eq!(ip, g);
    }

    #[test]
    fn gaussian_kernel_normalizes() {
        for d in [1u32, 3, 5, 9, 15, 20] {
            let k = gaussian_kernel(d);
            assert_eq!(k.iter().map(|&w| w as u64).sum::<u64>(), 65536, "d={d}");
            // Symmetric (within rounding of the forced center tap).
            let n = k.len();
            for i in 0..n / 2 {
                assert!(
                    (k[i] as i64 - k[n - 1 - i] as i64).abs() <= 1,
                    "kernel asymmetry at d={d}"
                );
            }
        }
    }

    #[test]
    fn blur_preserves_flat_regions_and_smooths_edges() {
        let flat = Frame::filled(32, 32, Yuv::new(100, 90, 160));
        let b = gaussian_blur(&flat, 7);
        assert!(b.y.iter().all(|&v| v.abs_diff(100) <= 1));
        // A hard step edge must smooth out.
        let mut step = Frame::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                step.set_y(x, y, if x < 16 { 0 } else { 200 });
            }
        }
        let b = gaussian_blur(&step, 9);
        let mid = b.get_y(16, 16);
        assert!(mid > 20 && mid < 180, "edge not smoothed: {mid}");
        // Mean brightness is preserved by a normalized kernel.
        let mean_in: u64 = step.y.iter().map(|&v| v as u64).sum();
        let mean_out: u64 = b.y.iter().map(|&v| v as u64).sum();
        let diff = (mean_in as i64 - mean_out as i64).abs() as f64 / step.y.len() as f64;
        assert!(diff < 1.0, "mean drift {diff}");
    }

    #[test]
    fn upsample_doubles_dimensions() {
        let src = structured_frame(32, 24, 5);
        let up = interpolate_bilinear(&src, 64, 48);
        assert_eq!((up.width(), up.height()), (64, 48));
        // A flat frame stays flat under interpolation.
        let flat = Frame::filled(16, 16, Yuv::new(123, 77, 200));
        let up = interpolate_bilinear(&flat, 40, 36);
        assert!(up.y.iter().all(|&v| v == 123));
        assert!(up.u.iter().all(|&v| v == 77));
    }

    #[test]
    fn upsample_then_downsample_approximates_identity() {
        let src = structured_frame(32, 32, 6);
        let up = interpolate_bilinear(&src, 64, 64);
        let down = downsample(&up, 32, 32);
        let p = crate::metrics::psnr_y(&src, &down);
        assert!(p > 30.0, "round-trip PSNR {p}");
    }

    #[test]
    fn downsample_averages() {
        let mut src = Frame::new(4, 4);
        // One 2x2 block = 100, rest 0 → the 2x2 output's (0,0) is 100.
        for y in 0..2 {
            for x in 0..2 {
                src.set_y(x, y, 100);
            }
        }
        let d = downsample(&src, 2, 2);
        assert_eq!(d.get_y(0, 0), 100);
        assert_eq!(d.get_y(1, 1), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds source")]
    fn downsample_rejects_upscale() {
        let src = Frame::new(8, 8);
        let _ = downsample(&src, 16, 16);
    }

    #[test]
    fn temporal_mean_averages_frames() {
        let a = Frame::filled(8, 8, Yuv::new(10, 128, 128));
        let b = Frame::filled(8, 8, Yuv::new(30, 128, 128));
        let m = temporal_mean(&[&a, &b]);
        assert!(m.y.iter().all(|&v| v == 20));
    }

    #[test]
    fn background_mask_blacks_out_static_pixels() {
        let bg = Frame::filled(8, 8, Yuv::new(100, 128, 128));
        let mut frame = bg.clone();
        frame.set(4, 4, Yuv::new(250, 90, 90)); // a moving object pixel
        let masked = background_mask(&frame, &bg, 0.2);
        assert!(masked.is_omega(0, 0), "static pixel should be ω");
        assert_eq!(masked.get(4, 4), Yuv::new(250, 90, 90));
    }

    /// The per-pixel form [`resample_plane_bilinear`] replaced: every
    /// output sample recomputes both 16.16 coordinates and taps its
    /// 2×2 neighbourhood.
    fn resample_plane_bilinear_oracle(
        src: &[u8],
        sw: u32,
        sh: u32,
        dst: &mut [u8],
        dw: u32,
        dh: u32,
    ) {
        let step_x = ((sw as u64) << 16) / dw as u64;
        let step_y = ((sh as u64) << 16) / dh as u64;
        for oy in 0..dh as u64 {
            let fy = (oy * step_y + step_y / 2).saturating_sub(1 << 15);
            let sy = (fy >> 16).min(sh as u64 - 1);
            let ty = fy & 0xFFFF;
            let sy1 = (sy + 1).min(sh as u64 - 1);
            for ox in 0..dw as u64 {
                let fx = (ox * step_x + step_x / 2).saturating_sub(1 << 15);
                let sx = (fx >> 16).min(sw as u64 - 1);
                let tx = fx & 0xFFFF;
                let sx1 = (sx + 1).min(sw as u64 - 1);
                let p00 = src[(sy * sw as u64 + sx) as usize] as u64;
                let p01 = src[(sy * sw as u64 + sx1) as usize] as u64;
                let p10 = src[(sy1 * sw as u64 + sx) as usize] as u64;
                let p11 = src[(sy1 * sw as u64 + sx1) as usize] as u64;
                let top = p00 * (65536 - tx) + p01 * tx;
                let bot = p10 * (65536 - tx) + p11 * tx;
                let val = (top * (65536 - ty) + bot * ty + (1u64 << 31)) >> 32;
                dst[(oy * dw as u64 + ox) as usize] = val as u8;
            }
        }
    }

    /// The per-pixel form [`coalesce`] replaced: `is_omega` and `get`
    /// per pixel, chroma written by every non-ω pixel of its block.
    fn coalesce_oracle(base: &Frame, overlay: &Frame) -> Frame {
        let mut out = base.clone();
        let (w, h) = (base.width(), base.height());
        let (oy, ou, ov) = (out.y.as_mut_slice(), out.u.as_mut_slice(), out.v.as_mut_slice());
        for y in 0..h {
            for x in 0..w {
                if !overlay.is_omega(x, y) {
                    let c = overlay.get(x, y);
                    oy[(y * w + x) as usize] = c.y;
                    ou[((y / 2) * w / 2 + x / 2) as usize] = c.u;
                    ov[((y / 2) * w / 2 + x / 2) as usize] = c.v;
                }
            }
        }
        out
    }

    fn noise(len: usize, rng: &mut vr_base::VrRng) -> Vec<u8> {
        (0..len).map(|_| rng.next_u32() as u8).collect()
    }

    #[test]
    fn bilinear_matches_the_per_pixel_oracle() {
        let mut rng = vr_base::VrRng::seed_from(36);
        // Extremes first: the 2×2 floor, single rows and columns, a
        // 1000×30 strip both ways, integer and non-integer ratios.
        let mut pairs: Vec<((u32, u32), (u32, u32))> = vec![
            ((1, 1), (2, 2)),
            ((2, 2), (2, 2)),
            ((2, 2), (1000, 30)),
            ((1000, 30), (2, 2)),
            ((1000, 30), (30, 1000)),
            ((30, 1000), (999, 31)),
            ((1, 37), (53, 1)),
            ((192, 108), (384, 216)),
            ((192, 108), (768, 216)),
            ((12, 7), (96, 54)),
            ((96, 54), (192, 108)),
            ((7, 5), (3, 11)),
        ];
        while pairs.len() < 320 {
            let mut dim = |hi: usize| rng.range(1, hi) as u32;
            let src = (dim(80), dim(80));
            let dst = match pairs.len() % 4 {
                0 => (src.0 * dim(4), src.1 * dim(4)), // integer upscale
                1 => ((src.0 / dim(4)).max(1), (src.1 / dim(4)).max(1)), // downscale
                _ => (dim(160), dim(160)), // any ratio, odd targets included
            };
            pairs.push((src, dst));
        }
        for ((sw, sh), (dw, dh)) in pairs {
            let src = noise((sw * sh) as usize, &mut rng);
            let (mut got, mut want) = (vec![0; (dw * dh) as usize], vec![1; (dw * dh) as usize]);
            resample_plane_bilinear(&src, sw, sh, &mut got, dw, dh);
            resample_plane_bilinear_oracle(&src, sw, sh, &mut want, dw, dh);
            assert!(got == want, "{sw}x{sh} -> {dw}x{dh}");
        }
        // Through the frame wrapper too (even rounding, three planes).
        let frame = structured_frame(62, 34, 7);
        for (dw, dh) in [(124, 68), (186, 102), (31, 17), (95, 3)] {
            let got = interpolate_bilinear(&frame, dw, dh);
            let mut want = Frame::new(got.width(), got.height());
            let (ow, oh) = (got.width(), got.height());
            resample_plane_bilinear_oracle(&frame.y, 62, 34, &mut want.y, ow, oh);
            resample_plane_bilinear_oracle(&frame.u, 31, 17, &mut want.u, ow / 2, oh / 2);
            resample_plane_bilinear_oracle(&frame.v, 31, 17, &mut want.v, ow / 2, oh / 2);
            assert_eq!(got, want, "{dw}x{dh}");
        }
    }

    #[test]
    fn coalesce_matches_the_per_pixel_oracle() {
        let mut rng = vr_base::VrRng::seed_from(6);
        let (w, h) = (24u32, 16u32);
        let base = structured_frame(w, h, 11);
        for case in 0..200 {
            // An all-ω overlay in which some 2×2 blocks get one to
            // three non-ω luma pixels (or all four, or chroma that is
            // off-neutral), around the ±4 tolerance.
            let mut overlay = Frame::new(w, h);
            for cy in 0..h / 2 {
                for cx in 0..w / 2 {
                    let near = |r: &mut vr_base::VrRng| (122 + r.range(0, 12)) as u8;
                    let (u, v) = match rng.range(0, 5) {
                        0 => (rng.next_u32() as u8, rng.next_u32() as u8),
                        1 => (123, 128),
                        _ => (near(&mut rng), near(&mut rng)),
                    };
                    overlay.set_u(cx, cy, u);
                    overlay.set_v(cx, cy, v);
                    let lit = rng.range(0, 15);
                    for k in 0..4 {
                        let l = match lit >> k & 1 {
                            1 => 5 + rng.range(0, 250) as u8,
                            _ => rng.range(0, 4) as u8,
                        };
                        overlay.set_y(cx * 2 + k as u32 % 2, cy * 2 + k as u32 / 2, l);
                    }
                }
            }
            assert_eq!(coalesce(&base, &overlay), coalesce_oracle(&base, &overlay), "case {case}");
        }
    }

    #[test]
    fn coalesce_prefers_non_omega_overlay() {
        let base = Frame::filled(8, 8, Yuv::new(50, 100, 150));
        let mut overlay = Frame::new(8, 8); // all ω
        overlay.set(2, 2, Yuv::new(200, 60, 60));
        let out = coalesce(&base, &overlay);
        assert_eq!(out.get(2, 2), Yuv::new(200, 60, 60));
        assert_eq!(out.get(6, 6), Yuv::new(50, 100, 150));
    }
}
