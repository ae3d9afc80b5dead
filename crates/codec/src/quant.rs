//! Quantization: the lossy stage.
//!
//! QP follows the H.264 convention: range 0–51, step size doubling
//! every 6 QP. A dead-zone around zero kills low-energy AC noise,
//! which is where most of the bitrate savings on natural video come
//! from.

use crate::transform::{BLOCK, N};

/// Maximum supported quantization parameter.
pub const MAX_QP: u8 = 51;

/// Quantization step size for a QP (H.264-style: `0.625 · 2^(qp/6)`,
/// so QP 4 ≈ 1.0 and +6 QP doubles the step). Calls `exp2f`: the
/// encoder and decoder take it once per frame, not per block.
pub fn qstep(qp: u8) -> f32 {
    let qp = qp.min(MAX_QP) as f32;
    0.625 * (qp / 6.0).exp2()
}

/// The quantized levels of one 8×8 block, with a record of where the
/// nonzero ones are so reconstruction can skip the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levels {
    /// Row-major levels.
    pub levels: [i32; BLOCK],
    /// Bit `u` set if coefficient row `u` holds a nonzero level.
    pub rows: u8,
    /// Bit `c` set if coefficient column `c` holds a nonzero level.
    pub cols: u8,
}

impl Levels {
    /// The all-zero block.
    pub const ZERO: Levels = Levels { levels: [0; BLOCK], rows: 0, cols: 0 };

    /// Wrap a level array, scanning it for the nonzero rows and columns.
    pub fn new(levels: [i32; BLOCK]) -> Self {
        let (mut rows, mut cols) = (0u8, 0u8);
        let mut col_or = [0i32; N];
        for (u, row) in levels.as_chunks::<N>().0.iter().enumerate() {
            let mut row_or = 0;
            for c in 0..N {
                row_or |= row[c];
                col_or[c] |= row[c];
            }
            rows |= ((row_or != 0) as u8) << u;
        }
        for (c, &v) in col_or.iter().enumerate() {
            cols |= ((v != 0) as u8) << c;
        }
        Self { levels, rows, cols }
    }

    /// Whether every level is zero.
    pub fn is_zero(&self) -> bool {
        self.rows == 0
    }

    /// Whether the DC level is the only nonzero one.
    pub fn is_dc_only(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }
}

/// Quantize a coefficient block with step `step` (see [`qstep`]). The
/// DC coefficient uses a round-to-nearest rule; AC coefficients get a
/// dead zone (`offset = 1/3`) matching typical encoder practice.
pub fn quantize(coeffs: &[f32; BLOCK], step: f32) -> Levels {
    let mut out = [0i32; BLOCK];
    // A true division, not a multiply by 1/step: the quotient decides
    // the level, and the two differ in the last bit.
    for i in 0..BLOCK {
        let v = coeffs[i] / step;
        // `a + 1/3` is non-negative (or NaN), where the cast's
        // truncation (NaN to 0, saturating) is what `floor` then cast
        // gave, without the libm call per coefficient.
        let q = (v.abs() + 1.0 / 3.0) as i32;
        out[i] = if v < 0.0 { -q } else { q };
    }
    out[0] = (coeffs[0] / step).round() as i32;
    Levels::new(out)
}

/// Reconstruct coefficients from quantized levels.
pub fn dequantize(levels: &[i32; BLOCK], step: f32) -> [f32; BLOCK] {
    let mut out = [0.0f32; BLOCK];
    for (o, &l) in out.iter_mut().zip(levels) {
        *o = l as f32 * step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qstep_doubles_every_six() {
        for qp in 0..=(MAX_QP - 6) {
            let ratio = qstep(qp + 6) / qstep(qp);
            assert!((ratio - 2.0).abs() < 1e-4, "qp {qp}: ratio {ratio}");
        }
        assert!((qstep(4) - 1.0).abs() < 0.02);
    }

    #[test]
    fn low_qp_is_near_lossless() {
        let mut coeffs = [0.0f32; BLOCK];
        coeffs[0] = 812.0;
        coeffs[1] = -37.5;
        coeffs[9] = 14.25;
        let q = quantize(&coeffs, qstep(0)).levels;
        let d = dequantize(&q, qstep(0));
        for (a, b) in coeffs.iter().zip(&d) {
            assert!((a - b).abs() <= qstep(0), "{a} vs {b}");
        }
    }

    #[test]
    fn high_qp_zeroes_small_ac() {
        let mut coeffs = [0.0f32; BLOCK];
        coeffs[5] = 3.0;
        coeffs[20] = -2.0;
        let q = quantize(&coeffs, qstep(40)).levels;
        assert!(q.iter().all(|&l| l == 0), "small AC should vanish at QP 40");
    }

    #[test]
    fn dead_zone_is_symmetric() {
        let mut pos = [0.0f32; BLOCK];
        let mut neg = [0.0f32; BLOCK];
        pos[3] = 7.7;
        neg[3] = -7.7;
        let qp = 20;
        assert_eq!(quantize(&pos, qstep(qp)).levels[3], -quantize(&neg, qstep(qp)).levels[3]);
    }

    #[test]
    fn error_bounded_by_step() {
        let qp = 28;
        let step = qstep(qp);
        let mut coeffs = [0.0f32; BLOCK];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = (i as f32 - 32.0) * 9.1;
        }
        let d = dequantize(&quantize(&coeffs, step).levels, step);
        for (a, b) in coeffs.iter().zip(&d) {
            assert!((a - b).abs() <= step * 1.01, "{a} vs {b} (step {step})");
        }
    }

    /// The libm form `quantize` replaces.
    fn quantize_oracle(coeffs: &[f32; BLOCK], step: f32) -> [i32; BLOCK] {
        let mut out = [0i32; BLOCK];
        out[0] = (coeffs[0] / step).round() as i32;
        for i in 1..BLOCK {
            let v = coeffs[i] / step;
            let a = v.abs();
            let q = (a + 1.0 / 3.0).floor() as i32;
            out[i] = if v < 0.0 { -q } else { q };
        }
        out
    }

    #[test]
    fn quantize_matches_floor_oracle_and_reports_sparsity() {
        let mut rng = vr_base::VrRng::seed_from(0x9a47_0001);
        for case in 0..2000 {
            let step = qstep(rng.range(0, MAX_QP as usize) as u8);
            let mut coeffs = [0.0f32; BLOCK];
            // From dense to a lone coefficient, at dead-zone scale
            // (where the 1/3 offset decides) and well above it.
            let density = [1.0, 0.3, 0.05][case % 3];
            let scale = if case % 2 == 0 { 3.0 * step } else { 2040.0 };
            for c in &mut coeffs {
                if rng.chance(density) {
                    *c = rng.range_f32(-scale, scale);
                }
            }
            let q = quantize(&coeffs, step);
            assert_eq!(q.levels, quantize_oracle(&coeffs, step));
            assert_eq!(q, Levels::new(q.levels));
            for u in 0..N {
                let row = (0..N).any(|c| q.levels[u * N + c] != 0);
                let col = (0..N).any(|r| q.levels[r * N + u] != 0);
                assert_eq!(q.rows >> u & 1 == 1, row, "row {u}");
                assert_eq!(q.cols >> u & 1 == 1, col, "col {u}");
            }
            assert_eq!(q.is_zero(), q.levels.iter().all(|&l| l == 0));
            assert_eq!(q.is_dc_only(), q.levels[0] != 0 && q.levels[1..].iter().all(|&l| l == 0));
        }
        // Non-finite coefficients cast the way `floor` then cast did.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut coeffs = [0.0f32; BLOCK];
            coeffs[5] = bad;
            assert_eq!(quantize(&coeffs, 1.0).levels, quantize_oracle(&coeffs, 1.0));
        }
    }
}
