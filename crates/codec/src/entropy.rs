//! Entropy coding of quantized coefficient blocks and motion vectors.
//!
//! Blocks are zig-zag scanned, then coded as a count of nonzero
//! coefficients followed by (zero-run, level) pairs in Exp-Golomb.
//! This is the same run-level structure as H.264 CAVLC, minus the
//! adaptive VLC tables.

use crate::motion::MotionVector;
use crate::quant::Levels;
use crate::transform::{BLOCK, N};
use vr_base::{Error, Result};
use vr_bitstream::expgolomb::{put_se, put_ue, read_se, read_ue};
use vr_bitstream::zigzag;
use vr_bitstream::{BitReader, BitWriter};

/// The 8×8 zig-zag scan order, computed once.
fn scan() -> &'static [usize; BLOCK] {
    use std::sync::OnceLock;
    static SCAN: OnceLock<[usize; BLOCK]> = OnceLock::new();
    SCAN.get_or_init(|| {
        let v = zigzag::scan_order(N);
        let mut a = [0usize; BLOCK];
        a.copy_from_slice(&v);
        a
    })
}

/// Encode one quantized 8×8 block.
pub fn put_block(w: &mut BitWriter, block: &Levels) {
    if block.is_zero() {
        put_ue(w, 0);
        return;
    }
    let levels = &block.levels;
    let order = scan();
    // Collect (run, level) pairs in scan order. A block holds at most
    // BLOCK nonzero coefficients, so a fixed stack array suffices —
    // this is the encoder's innermost loop and must not heap-allocate.
    let mut pairs = [(0u32, 0i32); BLOCK];
    let mut n = 0usize;
    let mut run = 0u32;
    for &idx in order.iter() {
        let l = levels[idx];
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

/// Decode one quantized 8×8 block.
pub fn read_block(r: &mut BitReader<'_>) -> Result<Levels> {
    let nnz = read_ue(r)? as usize;
    if nnz == 0 {
        return Ok(Levels::ZERO);
    }
    if nnz > BLOCK {
        return Err(Error::Corrupt(format!("block nnz {nnz} > {BLOCK}")));
    }
    let order = scan();
    let mut block = Levels::ZERO;
    let mut pos = 0usize;
    for _ in 0..nnz {
        let run = read_ue(r)? as usize;
        pos += run;
        if pos >= BLOCK {
            return Err(Error::Corrupt("coefficient run overflows block".into()));
        }
        let level = read_se(r)? as i32;
        let idx = order[pos];
        block.levels[idx] = level;
        if level != 0 {
            block.rows |= 1 << (idx / N);
            block.cols |= 1 << (idx % N);
        }
        pos += 1;
    }
    Ok(block)
}

/// Encode a motion vector differentially against a predictor.
pub fn put_mv(w: &mut BitWriter, mv: MotionVector, pred: MotionVector) {
    put_se(w, (mv.dx - pred.dx) as i64);
    put_se(w, (mv.dy - pred.dy) as i64);
}

/// Decode a motion vector coded against a predictor. A difference or
/// a sum outside `i16` is damage: no encoder writes one.
pub fn read_mv(r: &mut BitReader<'_>, pred: MotionVector) -> Result<MotionVector> {
    let mut component = |pred: i16| -> Result<i16> {
        i16::try_from(read_se(r)?)
            .ok()
            .and_then(|d| d.checked_add(pred))
            .ok_or_else(|| Error::Corrupt("motion vector out of range".into()))
    };
    Ok(MotionVector { dx: component(pred.dx)?, dy: component(pred.dy)? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_base::VrRng;

    #[test]
    fn empty_block_costs_one_symbol() {
        let mut w = BitWriter::new();
        put_block(&mut w, &Levels::ZERO);
        assert_eq!(w.bit_len(), 1, "all-zero block must cost one bit (ue(0))");
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(read_block(&mut r).unwrap(), Levels::ZERO);
    }

    #[test]
    fn dc_only_block_round_trips() {
        let mut levels = [0i32; BLOCK];
        levels[0] = -17;
        let mut w = BitWriter::new();
        put_block(&mut w, &Levels::new(levels));
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(read_block(&mut r).unwrap(), Levels::new(levels));
    }

    #[test]
    fn sparse_blocks_cost_less_than_dense() {
        let mut sparse = [0i32; BLOCK];
        sparse[0] = 10;
        sparse[1] = -2;
        let mut dense = [0i32; BLOCK];
        for (i, l) in dense.iter_mut().enumerate() {
            *l = (i as i32 % 7) - 3;
        }
        let mut ws = BitWriter::new();
        put_block(&mut ws, &Levels::new(sparse));
        let mut wd = BitWriter::new();
        put_block(&mut wd, &Levels::new(dense));
        assert!(ws.bit_len() * 4 < wd.bit_len());
    }

    #[test]
    fn mv_round_trip_with_prediction() {
        let mut w = BitWriter::new();
        let mv = MotionVector { dx: -7, dy: 12 };
        let pred = MotionVector { dx: -6, dy: 10 };
        put_mv(&mut w, mv, pred);
        let near_bits = w.bit_len();
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(read_mv(&mut r, pred).unwrap(), mv);
        // A good predictor compresses better than a zero predictor.
        let mut w2 = BitWriter::new();
        put_mv(&mut w2, mv, MotionVector::default());
        assert!(near_bits < w2.bit_len());
    }

    #[test]
    fn mv_overflow_is_rejected() {
        let code = |d: i64| {
            let mut w = BitWriter::new();
            put_se(&mut w, d);
            put_se(&mut w, 0);
            w.finish()
        };
        let pred = MotionVector { dx: i16::MAX, dy: 0 };
        assert!(read_mv(&mut BitReader::new(&code(1)), pred).is_err(), "sum overflows");
        assert!(read_mv(&mut BitReader::new(&code(-1)), pred).is_ok());
        let zero = MotionVector::default();
        assert!(read_mv(&mut BitReader::new(&code(i16::MAX as i64 + 1)), zero).is_err());
        assert!(read_mv(&mut BitReader::new(&code(i16::MIN as i64 - 1)), zero).is_err());
        assert_eq!(
            read_mv(&mut BitReader::new(&code(i16::MIN as i64)), zero).unwrap(),
            MotionVector { dx: i16::MIN, dy: 0 }
        );
    }

    #[test]
    fn corrupt_nnz_is_rejected() {
        let mut w = BitWriter::new();
        put_ue(&mut w, 100); // nnz > 64
        let bytes = w.finish();
        assert!(read_block(&mut BitReader::new(&bytes)).is_err());
    }

    #[test]
    fn corrupt_run_is_rejected() {
        let mut w = BitWriter::new();
        put_ue(&mut w, 1); // one coefficient
        put_ue(&mut w, 64); // run overflows the block
        put_se(&mut w, 5);
        let bytes = w.finish();
        assert!(read_block(&mut BitReader::new(&bytes)).is_err());
    }

    /// Exhaustive sweep over every (seed, density) pair the former
    /// proptest strategy could draw: blocks of every sparsity level,
    /// 16 seeds each, round trip exactly.
    #[test]
    fn prop_block_round_trip() {
        for density in 0usize..64 {
            for seed in 0u64..16 {
                let mut rng = VrRng::seed_from(seed * 64 + density as u64);
                let mut levels = [0i32; BLOCK];
                for _ in 0..density {
                    let idx = rng.range(0, BLOCK - 1);
                    levels[idx] = rng.range_i64(-200, 200) as i32;
                }
                let mut w = BitWriter::new();
                put_block(&mut w, &Levels::new(levels));
                let bytes = w.finish();
                let mut r = BitReader::new(&bytes);
                // Equality covers the row/column masks too.
                assert_eq!(
                    read_block(&mut r).unwrap(),
                    Levels::new(levels),
                    "seed {seed} density {density}"
                );
            }
        }
    }
}
