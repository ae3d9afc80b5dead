//! Quantization: the lossy stage.
//!
//! QP follows the H.264 convention: range 0–51, step size doubling
//! every 6 QP. A dead-zone around zero kills low-energy AC noise,
//! which is where most of the bitrate savings on natural video come
//! from.

use crate::transform::{BLOCK, N};

/// Maximum supported quantization parameter.
pub const MAX_QP: u8 = 51;

/// 2^23: below it, adding this rounds a non-negative float to an
/// integer and leaves that integer in the low mantissa bits.
const MAGIC: f32 = 8_388_608.0;

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
///
/// One pass over the block divides, truncates, signs and fills the
/// row and column masks, and vectorizes end to end: a true division
/// per coefficient (the quotient decides the level, and a multiply by
/// `1/step` differs in the last bit), then `a = |v| + 1/3` truncated
/// without a float-to-int cast. For `0 <= a < 2^23`, `m = a + 2^23` is
/// exactly `2^23 + rne(a)` (floats there are one apart), so its bits
/// minus those of 2^23 are `rne(a)` as an integer, and `m − 2^23` is
/// `rne(a)` as a float; `rne(a)` exceeds `a` exactly when it rounded
/// up, so subtracting that comparison gives `floor(a)`, which is the
/// truncation the saturating cast computed. The DC's `round` takes the
/// same sum ([`round_half_away`]), so no coefficient calls libm. A
/// block with any `a` outside that range — a huge coefficient, ±∞ or
/// NaN, which no DCT of byte residuals produces — takes the scalar
/// saturating-cast form instead, so every input still casts as `floor`
/// did.
#[inline]
pub fn quantize(coeffs: &[f32; BLOCK], step: f32) -> Levels {
    let mut levels = [0i32; BLOCK];
    let (mut rows, mut col_or, mut in_range) = (0u8, [0i32; N], true);
    // Bottom row first, so each row's bit shifts in below the others.
    for (out, row) in levels.as_chunks_mut::<N>().0.iter_mut().zip(coeffs.as_chunks::<N>().0).rev()
    {
        let (row_levels, row_in_range) = quantize_ac_row(row, step);
        *out = row_levels;
        in_range &= row_in_range;
        rows = rows << 1 | (row_levels.iter().fold(0, |acc, &l| acc | l) != 0) as u8;
        for c in 0..N {
            col_or[c] |= row_levels[c];
        }
    }
    if !in_range {
        return quantize_saturating(coeffs, step);
    }
    let mut cols = 0u8;
    for (c, &v) in col_or.iter().enumerate() {
        cols |= ((v != 0) as u8) << c;
    }
    // The DC coefficient takes the round-to-nearest rule instead, and
    // decides alone whether row 0 and column 0 are nonzero apart from
    // what the rest of that row and column hold.
    let dc = round_half_away(coeffs[0] / step);
    levels[0] = dc;
    let row0 = levels[1..N].iter().any(|&l| l != 0);
    let col0 = levels[N..].iter().step_by(N).any(|&l| l != 0);
    rows = rows & !1 | (dc != 0 || row0) as u8;
    cols = cols & !1 | (dc != 0 || col0) as u8;
    Levels { levels, rows, cols }
}

/// `v.round() as i32` for `|v| < 2^23` without the libm call: the same
/// magic-number sum as [`quantize_ac_row`] gives `rne(|v|)` (ties to
/// even) exactly, `|v| − rne(|v|)` is exact, and it is `1/2` exactly
/// for the ties that went down, which `round` sends away from zero.
#[inline]
fn round_half_away(v: f32) -> i32 {
    let a = v.abs();
    let m = a + MAGIC;
    let q = (m.to_bits() - MAGIC.to_bits()) as i32 + (a - (m - MAGIC) >= 0.5) as i32;
    if v < 0.0 {
        -q
    } else {
        q
    }
}

/// The AC rule on one row of eight coefficients, and whether every `a`
/// was in the range where the float arithmetic below is the
/// truncation (see [`quantize`]).
#[inline]
fn quantize_ac_row(row: &[f32; N], step: f32) -> ([i32; N], bool) {
    let (mut out, mut in_range) = ([0i32; N], true);
    for c in 0..N {
        let v = row[c] / step;
        let a = v.abs() + 1.0 / 3.0;
        in_range &= a < MAGIC;
        let m = a + MAGIC;
        let q = (m.to_bits() - MAGIC.to_bits()) as i32 - (m - MAGIC > a) as i32;
        out[c] = if v < 0.0 { -q } else { q };
    }
    (out, in_range)
}

/// [`quantize`] with a saturating cast per coefficient: `a + 1/3` is
/// non-negative (or NaN), where the cast's truncation (NaN to 0,
/// saturating) is what `floor` then cast gave.
fn quantize_saturating(coeffs: &[f32; BLOCK], step: f32) -> Levels {
    let mut out = [0i32; BLOCK];
    for i in 0..BLOCK {
        let v = coeffs[i] / step;
        let q = (v.abs() + 1.0 / 3.0) as i32;
        out[i] = if v < 0.0 { -q } else { q };
    }
    out[0] = (coeffs[0] / step).round() as i32;
    Levels::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{dequantize, quantize_floor as quantize_oracle};

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

    /// The vectorized pass against the saturating-cast form it
    /// replaced (levels and masks): dead-zone-scale, DC-only, dense and
    /// sparse blocks at every QP, and blocks carrying a NaN, an
    /// infinity or a finite value past 2^23 or 2^31 anywhere, the DC
    /// included, which take the fallback.
    #[test]
    fn quantize_matches_the_saturating_cast_form() {
        let mut rng = vr_base::VrRng::seed_from(0x9a47_0002);
        let wild = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0e7, -3.0e9, 1.0e30];
        for case in 0..6000 {
            let step = qstep(rng.range(0, MAX_QP as usize) as u8);
            let mut coeffs = [0.0f32; BLOCK];
            match case % 5 {
                // Dead-zone scale: |v| around 1/3 .. 2, where the offset decides.
                0 => coeffs.iter_mut().for_each(|c| *c = rng.range_f32(-2.0 * step, 2.0 * step)),
                1 => coeffs[0] = rng.range_f32(-2040.0, 2040.0),
                2 => coeffs.iter_mut().for_each(|c| *c = rng.range_f32(-2040.0, 2040.0)),
                3 => {
                    for _ in 0..rng.range(1, 6) {
                        coeffs[rng.range(0, BLOCK - 1)] = rng.range_f32(-40.0, 40.0);
                    }
                }
                _ => {
                    coeffs.iter_mut().for_each(|c| *c = rng.range_f32(-100.0, 100.0));
                    coeffs[rng.range(0, BLOCK - 1)] = wild[rng.range(0, wild.len() - 1)];
                }
            }
            assert_eq!(quantize(&coeffs, step), quantize_saturating(&coeffs, step), "case {case}");
        }
        // Exact dead-zone and rounding edges: every quotient k/6 and
        // its neighbours one ulp away, in both signs, in every lane.
        for k in 0..=60 {
            let v = k as f32 / 6.0;
            for bits in [v.to_bits().saturating_sub(1), v.to_bits(), v.to_bits() + 1] {
                let v = f32::from_bits(bits);
                let coeffs: [f32; BLOCK] = std::array::from_fn(|i| if i % 2 == 0 { v } else { -v });
                assert_eq!(quantize(&coeffs, 1.0), quantize_saturating(&coeffs, 1.0), "v = {v:e}");
            }
        }
    }
}
