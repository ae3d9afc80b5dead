//! The 8×8 orthonormal DCT-II and its inverse.
//!
//! Implemented as two separable passes against a precomputed basis
//! matrix. Orthonormality (`C · Cᵀ = I`) means quantization error is
//! the *only* loss in the pipeline: `idct(dct(x)) == x` to floating
//! point precision.

use crate::blocks::Rows;

/// Transform block edge length.
pub const N: usize = 8;

/// Number of samples per transform block.
pub const BLOCK: usize = N * N;

/// The orthonormal DCT basis, `BASIS[u][k] = c(u) · cos((2k+1)uπ/16)`
/// with `c(0) = √(1/8)`, `c(u>0) = √(2/8)`: each entry is the `f32`
/// nearest the `f64` formula, written out as its bits so the
/// multipliers are constants the compiler can fold into the transform
/// loops (`basis_is_the_rounded_cosine_formula` recomputes them).
pub(crate) const BASIS: [[f32; N]; N] = from_bits([
    [
        0x3eb504f3, 0x3eb504f3, 0x3eb504f3, 0x3eb504f3, 0x3eb504f3, 0x3eb504f3, 0x3eb504f3,
        0x3eb504f3,
    ],
    [
        0x3efb14be, 0x3ed4db31, 0x3e8e39da, 0x3dc7c5c2, 0xbdc7c5c2, 0xbe8e39da, 0xbed4db31,
        0xbefb14be,
    ],
    [
        0x3eec835e, 0x3e43ef15, 0xbe43ef15, 0xbeec835e, 0xbeec835e, 0xbe43ef15, 0x3e43ef15,
        0x3eec835e,
    ],
    [
        0x3ed4db31, 0xbdc7c5c2, 0xbefb14be, 0xbe8e39da, 0x3e8e39da, 0x3efb14be, 0x3dc7c5c2,
        0xbed4db31,
    ],
    [
        0x3eb504f3, 0xbeb504f3, 0xbeb504f3, 0x3eb504f3, 0x3eb504f3, 0xbeb504f3, 0xbeb504f3,
        0x3eb504f3,
    ],
    [
        0x3e8e39da, 0xbefb14be, 0x3dc7c5c2, 0x3ed4db31, 0xbed4db31, 0xbdc7c5c2, 0x3efb14be,
        0xbe8e39da,
    ],
    [
        0x3e43ef15, 0xbeec835e, 0x3eec835e, 0xbe43ef15, 0xbe43ef15, 0x3eec835e, 0xbeec835e,
        0x3e43ef15,
    ],
    [
        0x3dc7c5c2, 0xbe8e39da, 0x3ed4db31, 0xbefb14be, 0x3efb14be, 0xbed4db31, 0x3e8e39da,
        0xbdc7c5c2,
    ],
]);

/// The transposed basis (`BASIS_T[k][u] = BASIS[u][k]`), so passes
/// whose natural inner dimension walks a basis *column* can instead
/// walk a contiguous row.
pub(crate) const BASIS_T: [[f32; N]; N] = {
    let mut t = [[0.0f32; N]; N];
    let mut u = 0;
    while u < N {
        let mut k = 0;
        while k < N {
            t[k][u] = BASIS[u][k];
            k += 1;
        }
        u += 1;
    }
    t
};

const fn from_bits(bits: [[u32; N]; N]) -> [[f32; N]; N] {
    let mut out = [[0.0f32; N]; N];
    let mut u = 0;
    while u < N {
        let mut k = 0;
        while k < N {
            out[u][k] = f32::from_bits(bits[u][k]);
            k += 1;
        }
        u += 1;
    }
    out
}

// Both transforms are written so the innermost loop runs over eight
// *contiguous* output lanes with a broadcast scalar multiply-add —
// the shape the autovectorizer lowers to packed mul+add. Each output
// element still accumulates its eight products in ascending index
// order from `+0.0` (lanes are independent accumulators), so results
// are bit-identical to the scalar reduction form they replaced.

/// Forward DCT of the residual `src − pred` of an 8×8 block, whose rows
/// are borrowed in place (a gathered block, a quadrant of a macroblock,
/// or a block inside a plane). Output coefficients, row-major.
///
/// Bit-identical to the untiled two-pass form over an `f32` residual
/// array (`oracle::dct`): `s − p` of two bytes is the same small
/// integer whether subtracted as `i16` or as `f32`, and every
/// accumulator takes the same products in the same order. Only the
/// tiling differs: the row pass works on two rows and the column pass
/// on four output rows at a time, so a tile's accumulators stay in
/// registers across the `k` loop, and the basis is a constant the
/// multiplies read directly.
#[inline]
pub fn dct(src: &Rows<'_, N>, pred: &Rows<'_, N>) -> [f32; BLOCK] {
    // Row pass: tmp = (src − pred) · Bᵀ, two rows per tile, the
    // residual formed as each tile is loaded.
    let mut tmp = [[0.0f32; N]; N];
    for r0 in (0..N).step_by(2) {
        let x: [[f32; N]; 2] = std::array::from_fn(|i| {
            let (s, p) = (src[r0 + i], pred[r0 + i]);
            std::array::from_fn(|k| (s[k] as i16 - p[k] as i16) as f32)
        });
        let mut acc = [[0.0f32; N]; 2];
        for k in 0..N {
            for (acc, x) in acc.iter_mut().zip(&x) {
                for u in 0..N {
                    acc[u] += x[k] * BASIS_T[k][u];
                }
            }
        }
        tmp[r0..r0 + 2].copy_from_slice(&acc);
    }
    // Column pass: out = B · tmp, four output rows per tile.
    let mut out = [0.0f32; BLOCK];
    for (u0, tile) in out.as_chunks_mut::<{ 4 * N }>().0.iter_mut().enumerate() {
        let mut acc = [[0.0f32; N]; 4];
        for (k, trow) in tmp.iter().enumerate() {
            for (i, acc) in acc.iter_mut().enumerate() {
                let s = BASIS[4 * u0 + i][k];
                for c in 0..N {
                    acc[c] += trow[c] * s;
                }
            }
        }
        tile.copy_from_slice(acc.as_flattened());
    }
    out
}

/// The indices of the set bits of `mask`, ascending, and their count.
/// Each index is below `N`; the users mask it with `N - 1` so the
/// compiler sees that too and drops the bounds checks.
#[inline]
fn set_bits(mask: u8) -> ([usize; N], usize) {
    let mut idx = [0usize; N];
    let mut n = 0;
    for i in 0..N {
        idx[n] = i;
        n += (mask >> i & 1) as usize;
    }
    (idx, n)
}

/// Inverse DCT of the dequantized levels `levels · step` (8×8,
/// row-major), whose nonzero levels all lie in the rows of `rows` and
/// the columns of `cols` (bit masks, as [`crate::quant::Levels`]
/// reports them; supersets are fine).
///
/// Dequantization is fused in: each masked coefficient row is
/// `level as f32 * step` computed once, the product the separate
/// `dequantize` pass made, and rows outside the mask are never
/// converted. Bit-identical to the dense transform of the dequantized
/// block. Every accumulator starts at `+0.0` and takes its products in
/// ascending index order; a product with a zero coefficient is `±0.0`,
/// and adding `±0.0` to `+0.0` or to a nonzero value returns it
/// unchanged — and an accumulator is never `-0.0`, since exact
/// cancellation rounds to `+0.0` and the products here are far from
/// underflow. So the terms of an all-zero coefficient row (column pass)
/// or column (row pass) can be left out without moving any other term,
/// and the sums are the same bits.
#[inline]
pub fn idct(levels: &[i32; BLOCK], step: f32, rows: u8, cols: u8) -> [[f32; N]; N] {
    let b = &BASIS;
    let (levels, _) = levels.as_chunks::<N>();
    let (rows, nrows) = set_bits(rows);
    let (cols, ncols) = set_bits(cols);
    let mut coeffs = [[0.0f32; N]; N];
    for (c, &u) in coeffs.iter_mut().zip(&rows[..nrows]) {
        *c = levels[u & (N - 1)].map(|l| l as f32 * step);
    }
    // Column pass: tmp = Bᵀ · coeffs.
    let mut tmp = [[0.0f32; N]; N];
    for (k, acc) in tmp.iter_mut().enumerate() {
        for (crow, &u) in coeffs.iter().zip(&rows[..nrows]) {
            let s = b[u & (N - 1)][k];
            for c in 0..N {
                acc[c] += crow[c] * s;
            }
        }
    }
    // Row pass: out = tmp · B.
    let mut out = [[0.0f32; N]; N];
    for (trow, acc) in tmp.iter().zip(&mut out) {
        for &u in &cols[..ncols] {
            let u = u & (N - 1);
            let s = trow[u];
            let bu = &b[u];
            for k in 0..N {
                acc[k] += s * bu[k];
            }
        }
    }
    out
}

/// Every sample of the inverse DCT of a block whose only nonzero
/// coefficient is the DC term `dc`: the two passes each multiply by
/// `basis[0][·]`, which is one value, `√(1/8)`, in all eight places.
#[inline]
pub fn idct_dc(dc: f32) -> f32 {
    let b0 = BASIS[0][0];
    (dc * b0) * b0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::Block;
    use crate::oracle::{dct as dct_oracle, dequantize, idct_dense, residual};
    use crate::quant::{qstep, Levels};
    use vr_base::VrRng;

    fn bits(block: &[f32]) -> Vec<u32> {
        block.iter().map(|v| v.to_bits()).collect()
    }

    /// `dct` of a residual given as its two byte blocks.
    fn dct_of(src: &Block<N>, pred: &Block<N>) -> [f32; BLOCK] {
        dct(&src.each_ref(), &pred.each_ref())
    }

    /// A block whose residual against zero is `f(r, c)`.
    fn block_of(mut f: impl FnMut(usize, usize) -> u8) -> Block<N> {
        std::array::from_fn(|r| std::array::from_fn(|c| f(r, c)))
    }

    /// The tiled transform against the untiled one, to the bit: random
    /// byte pairs (residuals of every sign and size), flat and
    /// near-flat pairs (the dead-zone residuals of a good prediction),
    /// one-sample impulses, and identical pairs (the all-`+0.0` case).
    #[test]
    fn tiled_dct_is_bit_identical_to_the_oracle() {
        let mut rng = VrRng::seed_from(0xdc70_0003);
        for case in 0..4000 {
            let src = block_of(|_, _| rng.next_u32() as u8);
            let pred = match case % 4 {
                0 => block_of(|_, _| rng.next_u32() as u8),
                1 => block_of(|r, c| src[r][c].saturating_add(rng.below(3) as u8)),
                2 => {
                    let (i, v) = (rng.range(0, BLOCK - 1), rng.next_u32() as u8);
                    block_of(|r, c| if r * N + c == i { v } else { src[r][c] })
                }
                _ => src,
            };
            let want = dct_oracle(&residual(&src, &pred));
            assert_eq!(bits(&dct_of(&src, &pred)), bits(&want), "case {case}");
        }
    }

    /// Pruned, DC-only and all-zero reconstruction against the dense
    /// transform of the dequantized block, to the bit, on sparse blocks
    /// of every density — with the exact masks and with supersets.
    #[test]
    fn pruned_idct_is_bit_identical_to_dense() {
        let mut rng = VrRng::seed_from(0xdc70_0002);
        for case in 0..3000 {
            let step = qstep(rng.range(0, 51) as u8);
            let mut levels = [0i32; BLOCK];
            // Low-frequency-heavy, like real blocks: case 0 mod 4 is
            // DC-only, the rest hold 0..=12 levels in a random corner.
            let corner = rng.range(1, N);
            if case % 4 == 0 {
                levels[0] = rng.range_i64(-400, 400) as i32;
            } else {
                for _ in 0..rng.range(0, 12) {
                    let (u, c) = (rng.range(0, corner - 1), rng.range(0, corner - 1));
                    levels[u * N + c] = rng.range_i64(-60, 60) as i32;
                }
            }
            let q = Levels::new(levels);
            let coeffs = dequantize(&q.levels, step);
            let dense = bits(&idct_dense(&coeffs));
            let pruned = |rows, cols| bits(idct(&q.levels, step, rows, cols).as_flattened());
            assert_eq!(pruned(q.rows, q.cols), dense, "exact masks");
            let (more_rows, more_cols) = (rng.next_u32() as u8, rng.next_u32() as u8);
            assert_eq!(pruned(q.rows | more_rows, q.cols | more_cols), dense, "superset masks");
            assert_eq!(pruned(0xFF, 0xFF), dense, "full masks");
            if q.is_dc_only() {
                let dc = idct_dc(coeffs[0]).to_bits();
                assert!(dense.iter().all(|&v| v == dc), "DC-only block is one value");
            }
            if q.is_zero() {
                assert!(dense.iter().all(|&v| v == 0.0f32.to_bits()), "zero block is +0.0");
            }
        }
    }

    #[test]
    fn dc_basis_row_is_one_value() {
        assert!(BASIS[0].iter().all(|v| v.to_bits() == BASIS[0][0].to_bits()));
    }

    #[test]
    fn basis_is_the_rounded_cosine_formula() {
        for u in 0..N {
            let c = if u == 0 { (1.0 / N as f64).sqrt() } else { (2.0 / N as f64).sqrt() };
            for k in 0..N {
                let angle = (2 * k + 1) as f64 * u as f64 * std::f64::consts::PI / (2.0 * N as f64);
                let want = (c * angle.cos()) as f32;
                assert_eq!(BASIS[u][k].to_bits(), want.to_bits(), "basis[{u}][{k}]");
                assert_eq!(BASIS_T[k][u].to_bits(), want.to_bits(), "basis_t[{k}][{u}]");
            }
        }
    }

    #[test]
    fn flat_block_is_pure_dc() {
        let c = dct_of(&[[100; N]; N], &[[0; N]; N]);
        // DC = mean * N (orthonormal): 100 * 8 = 800.
        assert!((c[0] - 800.0).abs() < 1e-3, "dc {}", c[0]);
        for (i, &v) in c.iter().enumerate().skip(1) {
            assert!(v.abs() < 1e-3, "ac[{i}] = {v}");
        }
    }

    /// A random residual in `-255..=255` as the byte pair that makes it.
    fn random_pair(rng: &mut VrRng) -> (Block<N>, Block<N>, [f32; BLOCK]) {
        let src = block_of(|_, _| rng.next_u32() as u8);
        let pred = block_of(|_, _| rng.next_u32() as u8);
        let r = residual(&src, &pred);
        (src, pred, r)
    }

    #[test]
    fn round_trip_is_exact_to_float_precision() {
        let mut rng = VrRng::seed_from(42);
        for _ in 0..20 {
            let (src, pred, block) = random_pair(&mut rng);
            let back = idct_dense(&dct_of(&src, &pred));
            for (a, b) in block.iter().zip(&back) {
                assert!((a - b).abs() < 1e-2, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn energy_is_preserved() {
        // Parseval: orthonormal transform preserves the L2 norm.
        let mut rng = VrRng::seed_from(7);
        let (src, pred, block) = random_pair(&mut rng);
        let c = dct_of(&src, &pred);
        let e_in: f64 = block.iter().map(|&v| (v as f64) * (v as f64)).sum();
        let e_out: f64 = c.iter().map(|&v| (v as f64) * (v as f64)).sum();
        assert!((e_in - e_out).abs() / e_in < 1e-5, "{e_in} vs {e_out}");
    }

    #[test]
    fn smooth_gradient_concentrates_energy_low() {
        let c = dct_of(&block_of(|r, k| (r + k) as u8 * 8), &[[0; N]; N]);
        let total: f64 = c.iter().map(|&v| (v as f64) * (v as f64)).sum();
        // DC + first-row/column AC terms dominate a linear ramp (a
        // ramp has small energy at every odd frequency, so compare
        // energies, not magnitudes).
        let low: f64 = [0usize, 1, 8].iter().map(|&i| (c[i] as f64) * (c[i] as f64)).sum();
        assert!(low / total > 0.98, "low-frequency share {}", low / total);
    }

    /// Seeded randomized round trips (the former proptest case).
    #[test]
    fn prop_round_trip() {
        let mut rng = VrRng::seed_from(0xdc70_0001);
        for _ in 0..256 {
            let (src, pred, block) = random_pair(&mut rng);
            let back = idct_dense(&dct_of(&src, &pred));
            for (a, b) in block.iter().zip(&back) {
                assert!((a - b).abs() < 2e-2, "{a} vs {b}");
            }
        }
    }

    /// Exhaustive basis sweep: each impulse block (a single residual
    /// sample of ±255) survives the round trip.
    #[test]
    fn exhaustive_impulse_round_trip() {
        for i in 0..BLOCK {
            for (s, p) in [(255u8, 0u8), (0, 255)] {
                let src = block_of(|r, c| if r * N + c == i { s } else { 0 });
                let pred = block_of(|r, c| if r * N + c == i { p } else { 0 });
                let back = idct_dense(&dct_of(&src, &pred));
                for (a, b) in residual(&src, &pred).iter().zip(&back) {
                    assert!((a - b).abs() < 2e-2, "impulse {i}: {a} vs {b}");
                }
            }
        }
    }
}
