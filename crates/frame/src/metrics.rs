//! Image quality metrics.
//!
//! Frame validation (§3.2) compares a VDBMS's output against the
//! reference implementation with PSNR and accepts results at or above
//! 40 dB ("considered to be near-lossless").

use crate::frame::Frame;

/// The near-lossless PSNR threshold cited by the paper.
pub const PSNR_LOSSLESS_DB: f64 = 40.0;

/// The validation cutoff adopted by Visual Road (§3.2).
pub const VALIDATION_THRESHOLD_DB: f64 = 40.0;

/// PSNR value reported for bit-identical inputs (MSE = 0); finite so
/// statistics over batches stay well-defined.
pub const PSNR_IDENTICAL_DB: f64 = 99.0;

/// Mean squared error over the luma plane.
pub fn mse_y(a: &Frame, b: &Frame) -> f64 {
    assert!(
        a.width() == b.width() && a.height() == b.height(),
        "PSNR requires equal resolutions: {}x{} vs {}x{}",
        a.width(),
        a.height(),
        b.width(),
        b.height()
    );
    sum_sq(&a.y, &b.y) / a.y.len() as f64
}

fn sum_sq(a: &[u8], b: &[u8]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as i32 - y as i32;
            (d * d) as f64
        })
        .sum()
}

/// Luma-plane PSNR in dB. Identical frames report
/// [`PSNR_IDENTICAL_DB`].
pub fn psnr_y(a: &Frame, b: &Frame) -> f64 {
    mse_to_psnr(mse_y(a, b))
}

/// PSNR in dB across all three planes (weighted by sample count).
pub fn psnr(a: &Frame, b: &Frame) -> f64 {
    assert!(a.width() == b.width() && a.height() == b.height());
    let total = sum_sq(&a.y, &b.y) + sum_sq(&a.u, &b.u) + sum_sq(&a.v, &b.v);
    let n = (a.y.len() + a.u.len() + a.v.len()) as f64;
    mse_to_psnr(total / n)
}

fn mse_to_psnr(mse: f64) -> f64 {
    if mse <= 0.0 {
        PSNR_IDENTICAL_DB
    } else {
        (10.0 * ((255.0f64 * 255.0) / mse).log10()).min(PSNR_IDENTICAL_DB)
    }
}

/// Summary statistics of per-frame PSNR over a validated video, the
/// "validation descriptive statistics" an evaluator must report (§3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsnrStats {
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    /// Fraction of frames at or above [`VALIDATION_THRESHOLD_DB`].
    pub pass_rate: f64,
    pub frames: usize,
}

impl PsnrStats {
    /// Aggregate a sequence of per-frame PSNR values.
    pub fn from_values(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut min = f64::MAX;
        let mut max = f64::MIN;
        let mut sum = 0.0;
        let mut pass = 0usize;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
            if v >= VALIDATION_THRESHOLD_DB {
                pass += 1;
            }
        }
        Some(Self {
            min,
            max,
            mean: sum / values.len() as f64,
            pass_rate: pass as f64 / values.len() as f64,
            frames: values.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Yuv;
    use crate::testutil::structured_frame;

    #[test]
    fn identical_frames_hit_cap() {
        let f = structured_frame(32, 32, 1);
        assert_eq!(psnr_y(&f, &f), PSNR_IDENTICAL_DB);
        assert_eq!(psnr(&f, &f), PSNR_IDENTICAL_DB);
        assert_eq!(mse_y(&f, &f), 0.0);
    }

    #[test]
    fn single_gray_level_step_is_about_48db() {
        // MSE = 1 → PSNR = 10·log10(255²) ≈ 48.13 dB.
        let a = Frame::filled(16, 16, Yuv::gray(100));
        let b = Frame::filled(16, 16, Yuv::gray(101));
        let p = psnr_y(&a, &b);
        assert!((p - 48.13).abs() < 0.05, "psnr {p}");
    }

    #[test]
    fn larger_error_lowers_psnr() {
        let a = Frame::filled(16, 16, Yuv::gray(100));
        let b = Frame::filled(16, 16, Yuv::gray(110));
        let c = Frame::filled(16, 16, Yuv::gray(160));
        assert!(psnr_y(&a, &b) > psnr_y(&a, &c));
    }

    #[test]
    #[should_panic(expected = "equal resolutions")]
    fn mismatched_sizes_panic() {
        let a = Frame::new(16, 16);
        let b = Frame::new(32, 32);
        let _ = psnr_y(&a, &b);
    }

    #[test]
    fn stats_aggregate() {
        let s = PsnrStats::from_values(&[35.0, 45.0, 50.0, 99.0]).unwrap();
        assert_eq!(s.min, 35.0);
        assert_eq!(s.max, 99.0);
        assert_eq!(s.frames, 4);
        assert!((s.mean - 57.25).abs() < 1e-9);
        assert_eq!(s.pass_rate, 0.75);
        assert!(PsnrStats::from_values(&[]).is_none());
    }
}

/// Structural similarity (SSIM) over the luma plane, computed on
/// 8×8 windows with the standard constants. The paper names PSNR as
/// version 1.0's validation metric and anticipates alternatives
/// (§3.2); SSIM is the obvious second metric.
pub fn ssim_y(a: &Frame, b: &Frame) -> f64 {
    assert!(
        a.width() == b.width() && a.height() == b.height(),
        "SSIM requires equal resolutions"
    );
    const C1: f64 = 6.5025; // (0.01 * 255)^2
    const C2: f64 = 58.5225; // (0.03 * 255)^2
    let win = 8u32;
    let mut total = 0.0;
    let mut windows = 0usize;
    let mut wy = 0;
    while wy + win <= a.height() {
        let mut wx = 0;
        while wx + win <= a.width() {
            let (mut sa, mut sb, mut saa, mut sbb, mut sab) = (0f64, 0f64, 0f64, 0f64, 0f64);
            for y in wy..wy + win {
                for x in wx..wx + win {
                    let pa = a.get_y(x, y) as f64;
                    let pb = b.get_y(x, y) as f64;
                    sa += pa;
                    sb += pb;
                    saa += pa * pa;
                    sbb += pb * pb;
                    sab += pa * pb;
                }
            }
            let n = (win * win) as f64;
            let ma = sa / n;
            let mb = sb / n;
            let va = (saa / n - ma * ma).max(0.0);
            let vb = (sbb / n - mb * mb).max(0.0);
            let cov = sab / n - ma * mb;
            let ssim = ((2.0 * ma * mb + C1) * (2.0 * cov + C2))
                / ((ma * ma + mb * mb + C1) * (va + vb + C2));
            total += ssim;
            windows += 1;
            wx += win;
        }
        wy += win;
    }
    if windows == 0 {
        1.0
    } else {
        total / windows as f64
    }
}

#[cfg(test)]
mod ssim_tests {
    use super::*;
    use crate::color::Yuv;
    use crate::testutil::structured_frame;

    #[test]
    fn identical_frames_score_one() {
        let f = structured_frame(32, 32, 9);
        assert!((ssim_y(&f, &f) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ssim_orders_degradations_like_psnr() {
        let f = structured_frame(64, 64, 10);
        let slightly = crate::ops::gaussian_blur(&f, 3);
        let heavily = crate::ops::gaussian_blur(&f, 15);
        let s1 = ssim_y(&f, &slightly);
        let s2 = ssim_y(&f, &heavily);
        assert!(s1 > s2, "more blur must lower SSIM: {s1} vs {s2}");
        assert!(s1 < 1.0);
        assert!(s2 > 0.0);
    }

    #[test]
    fn uncorrelated_content_scores_low() {
        let a = structured_frame(64, 64, 11);
        let b = Frame::filled(64, 64, Yuv::gray(255));
        assert!(ssim_y(&a, &b) < 0.5);
    }
}
