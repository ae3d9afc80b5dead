//! The 8×8 orthonormal DCT-II and its inverse.
//!
//! Implemented as two separable passes against a precomputed basis
//! matrix. Orthonormality (`C · Cᵀ = I`) means quantization error is
//! the *only* loss in the pipeline: `idct(dct(x)) == x` to floating
//! point precision.

/// Transform block edge length.
pub const N: usize = 8;

/// Number of samples per transform block.
pub const BLOCK: usize = N * N;

/// Precomputed orthonormal DCT basis: `basis[u][k] = c(u) ·
/// cos((2k+1)uπ/16)`, with `c(0) = √(1/8)`, `c(u>0) = √(2/8)`.
fn basis() -> &'static [[f32; N]; N] {
    use std::sync::OnceLock;
    static BASIS: OnceLock<[[f32; N]; N]> = OnceLock::new();
    BASIS.get_or_init(|| {
        let mut b = [[0.0f32; N]; N];
        for (u, row) in b.iter_mut().enumerate() {
            let c = if u == 0 { (1.0 / N as f64).sqrt() } else { (2.0 / N as f64).sqrt() };
            for (k, e) in row.iter_mut().enumerate() {
                *e = (c * ((2 * k + 1) as f64 * u as f64 * std::f64::consts::PI
                    / (2.0 * N as f64))
                    .cos()) as f32;
            }
        }
        b
    })
}

/// The transposed basis (`basis_t[k][u] = basis[u][k]`), so passes
/// whose natural inner dimension walks a basis *column* can instead
/// walk a contiguous row.
fn basis_t() -> &'static [[f32; N]; N] {
    use std::sync::OnceLock;
    static BASIS_T: OnceLock<[[f32; N]; N]> = OnceLock::new();
    BASIS_T.get_or_init(|| {
        let b = basis();
        let mut t = [[0.0f32; N]; N];
        for u in 0..N {
            for k in 0..N {
                t[k][u] = b[u][k];
            }
        }
        t
    })
}

// Both transforms are written so the innermost loop runs over eight
// *contiguous* output lanes with a broadcast scalar multiply-add —
// the shape the autovectorizer lowers to packed FMA/mul+add. Each
// output element still accumulates its eight products in ascending
// index order (lanes are independent accumulators), so results are
// bit-identical to the scalar reduction form they replaced.

/// Forward DCT of an 8×8 block (row-major). Input values are pixel
/// residuals (typically −255..255); output coefficients.
pub fn dct(block: &[f32; BLOCK]) -> [f32; BLOCK] {
    let b = basis();
    let bt = basis_t();
    let mut tmp = [0.0f32; BLOCK];
    // Row pass: tmp = block · Bᵀ  (transform each row).
    for r in 0..N {
        let row = &block[r * N..(r + 1) * N];
        let acc = &mut tmp[r * N..(r + 1) * N];
        for k in 0..N {
            let s = row[k];
            let bk = &bt[k];
            for u in 0..N {
                acc[u] += s * bk[u];
            }
        }
    }
    // Column pass: out = B · tmp (transform each column).
    let mut out = [0.0f32; BLOCK];
    for u in 0..N {
        let bu = &b[u];
        let acc = &mut out[u * N..(u + 1) * N];
        for k in 0..N {
            let s = bu[k];
            let trow = &tmp[k * N..(k + 1) * N];
            for c in 0..N {
                acc[c] += trow[c] * s;
            }
        }
    }
    out
}

/// The indices of the set bits of `mask`, ascending, and their count.
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

/// Inverse DCT of an 8×8 coefficient block whose nonzero coefficients
/// all lie in the rows of `rows` and the columns of `cols` (bit masks,
/// as [`crate::quant::Levels`] reports them; supersets are fine).
///
/// Bit-identical to the dense transform. Every accumulator starts at
/// `+0.0` and takes its products in ascending index order; a product
/// with a zero coefficient is `±0.0`, and adding `±0.0` to `+0.0` or
/// to a nonzero value returns it unchanged — and an accumulator is
/// never `-0.0`, since exact cancellation rounds to `+0.0` and the
/// products here are far from underflow. So the terms of an all-zero
/// coefficient row (column pass) or column (row pass) can be left out
/// without moving any other term, and the sums are the same bits.
pub fn idct(coeffs: &[f32; BLOCK], rows: u8, cols: u8) -> [f32; BLOCK] {
    let b = basis();
    let (coeffs, _) = coeffs.as_chunks::<N>();
    let (rows, nrows) = set_bits(rows);
    let (cols, ncols) = set_bits(cols);
    // Column pass: tmp = Bᵀ · coeffs.
    let mut tmp = [[0.0f32; N]; N];
    for (k, acc) in tmp.iter_mut().enumerate() {
        for &u in &rows[..nrows] {
            let s = b[u][k];
            let crow = &coeffs[u];
            for c in 0..N {
                acc[c] += crow[c] * s;
            }
        }
    }
    // Row pass: out = tmp · B.
    let mut out = [0.0f32; BLOCK];
    for (trow, acc) in tmp.iter().zip(out.as_chunks_mut::<N>().0) {
        for &u in &cols[..ncols] {
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
    let b0 = basis()[0][0];
    (dc * b0) * b0
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_base::VrRng;

    /// The dense inverse transform the pruned one replaced.
    fn idct_dense(coeffs: &[f32; BLOCK]) -> [f32; BLOCK] {
        let b = basis();
        let mut tmp = [0.0f32; BLOCK];
        // Column pass: tmp = Bᵀ · coeffs.
        for k in 0..N {
            let acc = &mut tmp[k * N..(k + 1) * N];
            for u in 0..N {
                let s = b[u][k];
                let crow = &coeffs[u * N..(u + 1) * N];
                for c in 0..N {
                    acc[c] += crow[c] * s;
                }
            }
        }
        // Row pass: out = tmp · B.
        let mut out = [0.0f32; BLOCK];
        for r in 0..N {
            let trow = &tmp[r * N..(r + 1) * N];
            let acc = &mut out[r * N..(r + 1) * N];
            for u in 0..N {
                let s = trow[u];
                let bu = &b[u];
                for k in 0..N {
                    acc[k] += s * bu[k];
                }
            }
        }
        out
    }

    fn bits(block: &[f32; BLOCK]) -> Vec<u32> {
        block.iter().map(|v| v.to_bits()).collect()
    }

    /// Pruned, DC-only and all-zero reconstruction against the dense
    /// transform, to the bit, on dequantized sparse blocks of every
    /// density — with the exact masks and with supersets of them.
    #[test]
    fn pruned_idct_is_bit_identical_to_dense() {
        use crate::quant::{dequantize, qstep, Levels};
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
            assert_eq!(bits(&idct(&coeffs, q.rows, q.cols)), dense, "exact masks");
            let (more_rows, more_cols) = (rng.next_u32() as u8, rng.next_u32() as u8);
            assert_eq!(
                bits(&idct(&coeffs, q.rows | more_rows, q.cols | more_cols)),
                dense,
                "superset masks"
            );
            assert_eq!(bits(&idct(&coeffs, 0xFF, 0xFF)), dense, "full masks");
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
        let b = basis();
        assert!(b[0].iter().all(|v| v.to_bits() == b[0][0].to_bits()));
    }

    #[test]
    fn flat_block_is_pure_dc() {
        let block = [100.0f32; BLOCK];
        let c = dct(&block);
        // DC = mean * N (orthonormal): 100 * 8 = 800.
        assert!((c[0] - 800.0).abs() < 1e-3, "dc {}", c[0]);
        for (i, &v) in c.iter().enumerate().skip(1) {
            assert!(v.abs() < 1e-3, "ac[{i}] = {v}");
        }
    }

    #[test]
    fn round_trip_is_exact_to_float_precision() {
        let mut rng = VrRng::seed_from(42);
        for _ in 0..20 {
            let mut block = [0.0f32; BLOCK];
            for v in &mut block {
                *v = rng.range_f32(-255.0, 255.0);
            }
            let back = idct(&dct(&block), 0xFF, 0xFF);
            for (a, b) in block.iter().zip(&back) {
                assert!((a - b).abs() < 1e-2, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn energy_is_preserved() {
        // Parseval: orthonormal transform preserves the L2 norm.
        let mut rng = VrRng::seed_from(7);
        let mut block = [0.0f32; BLOCK];
        for v in &mut block {
            *v = rng.range_f32(-128.0, 128.0);
        }
        let c = dct(&block);
        let e_in: f64 = block.iter().map(|&v| (v as f64) * (v as f64)).sum();
        let e_out: f64 = c.iter().map(|&v| (v as f64) * (v as f64)).sum();
        assert!((e_in - e_out).abs() / e_in < 1e-5, "{e_in} vs {e_out}");
    }

    #[test]
    fn smooth_gradient_concentrates_energy_low() {
        let mut block = [0.0f32; BLOCK];
        for r in 0..N {
            for k in 0..N {
                block[r * N + k] = (r + k) as f32 * 8.0;
            }
        }
        let c = dct(&block);
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
            let mut block = [0.0f32; BLOCK];
            for v in &mut block {
                *v = rng.range_f32(-255.0, 255.0);
            }
            let back = idct(&dct(&block), 0xFF, 0xFF);
            for (a, b) in block.iter().zip(&back) {
                assert!((a - b).abs() < 2e-2, "{a} vs {b}");
            }
        }
    }

    /// Exhaustive basis sweep: each impulse block (a single unit
    /// coefficient) survives the round trip.
    #[test]
    fn exhaustive_impulse_round_trip() {
        for i in 0..BLOCK {
            let mut block = [0.0f32; BLOCK];
            block[i] = 255.0;
            let back = idct(&dct(&block), 0xFF, 0xFF);
            for (a, b) in block.iter().zip(&back) {
                assert!((a - b).abs() < 2e-2, "impulse {i}: {a} vs {b}");
            }
        }
    }
}
