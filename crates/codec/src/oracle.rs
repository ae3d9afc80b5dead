//! The forms the per-block rewrites replaced, kept as test oracles.
//! Each rewrite is checked against its oracle to the bit
//! (coefficients, samples), the level (quantization), the byte
//! (bitstream) or the decision (intra cost), on random blocks and on
//! blocks of a rendered traffic clip (`encoder::tests`).

use crate::blocks::Block;
use crate::common::MB;
use crate::entropy::scan;
use crate::quant::Levels;
use crate::transform::{BASIS, BASIS_T, BLOCK, N};
use vr_bitstream::expgolomb::{put_se, put_ue};
use vr_bitstream::BitWriter;

/// The residual the encoder built before the transform formed it
/// itself: `s as f32 - p as f32`, row-major.
pub(crate) fn residual(src: &Block<N>, pred: &Block<N>) -> [f32; BLOCK] {
    let mut r = [0.0f32; BLOCK];
    let samples = src.as_flattened().iter().zip(pred.as_flattened());
    for (r, (&s, &p)) in r.iter_mut().zip(samples) {
        *r = s as f32 - p as f32;
    }
    r
}

/// The forward transform over an `f32` residual array, untiled.
pub(crate) fn dct(block: &[f32; BLOCK]) -> [f32; BLOCK] {
    let (b, bt) = (&BASIS, &BASIS_T);
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

/// Dequantized coefficients, `level as f32 * step`: the products the
/// inverse transform now forms as it goes.
pub(crate) fn dequantize(levels: &[i32; BLOCK], step: f32) -> [f32; BLOCK] {
    let mut out = [0.0f32; BLOCK];
    for (o, &l) in out.iter_mut().zip(levels) {
        *o = l as f32 * step;
    }
    out
}

/// The dense inverse transform the pruned one replaced.
pub(crate) fn idct_dense(coeffs: &[f32; BLOCK]) -> [f32; BLOCK] {
    let b = &BASIS;
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

/// The libm quantizer: `round` on the DC, `floor(|v| + 1/3)` on the rest.
pub(crate) fn quantize_floor(coeffs: &[f32; BLOCK], step: f32) -> [i32; BLOCK] {
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

/// Reconstruction with the dense inverse transform and libm rounding.
pub(crate) fn reconstruct(levels: &[i32; BLOCK], step: f32, pred: &Block<N>) -> Block<N> {
    let rec = idct_dense(&dequantize(levels, step));
    let mut out = [[0u8; N]; N];
    for ((o, &p), r) in out.as_flattened_mut().iter_mut().zip(pred.as_flattened()).zip(&rec) {
        *o = (r + p as f32).round().clamp(0.0, 255.0) as u8;
    }
    out
}

/// The block encoder the mask-driven one replaced: a full 64-entry
/// scan into a pairs array, then two codes per pair.
pub(crate) fn put_block(w: &mut BitWriter, block: &Levels) {
    if block.is_zero() {
        put_ue(w, 0);
        return;
    }
    let order = scan();
    let mut pairs = [(0u32, 0i32); BLOCK];
    let mut n = 0usize;
    let mut run = 0u32;
    for &idx in order.iter() {
        let l = block.levels[idx];
        if l == 0 {
            run += 1;
        } else {
            pairs[n] = (run, l);
            n += 1;
            run = 0;
        }
    }
    put_ue(w, n as u64);
    for &(run, level) in &pairs[..n] {
        put_ue(w, run as u64);
        put_se(w, level as i64);
    }
}

/// The intra cost as sequential `f32` sums in raster order: SAD of the
/// macroblock against its mean.
pub(crate) fn intra_sad(cur: &Block<MB>) -> f32 {
    let mean: f32 = cur.as_flattened().iter().map(|&p| p as f32).sum::<f32>() / (MB * MB) as f32;
    cur.as_flattened().iter().map(|&p| (p as f32 - mean).abs()).sum()
}
