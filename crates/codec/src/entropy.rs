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
use vr_bitstream::expgolomb::{put_se, put_ue, read_se, read_ue, zigzag_encode};
use vr_bitstream::zigzag;
use vr_bitstream::{BitReader, BitWriter};

/// The 8×8 zig-zag scan order, computed once.
pub(crate) fn scan() -> &'static [usize; BLOCK] {
    use std::sync::OnceLock;
    static SCAN: OnceLock<[usize; BLOCK]> = OnceLock::new();
    SCAN.get_or_init(|| {
        let v = zigzag::scan_order(N);
        let mut a = [0usize; BLOCK];
        a.copy_from_slice(&v);
        a
    })
}

/// The number of 8×8 positions on anti-diagonals `0..=d` (`u + c <=
/// d`): the zig-zag scan visits the diagonals in order, so these are
/// its first `diagonal_end(d)` positions.
fn diagonal_end(d: usize) -> usize {
    if d < N {
        (d + 1) * (d + 2) / 2
    } else {
        BLOCK - (2 * N - 2 - d) * (2 * N - 1 - d) / 2
    }
}

/// Encode one quantized 8×8 block: the count of nonzero levels, then
/// one (zero-run, level) pair per nonzero level in zig-zag order.
///
/// Every nonzero level lies in a row and a column the masks name, so
/// on an anti-diagonal no later than the last masked row plus the last
/// masked column, and the scan stops at the end of that diagonal. It
/// builds a bit mask of the nonzero positions in scan order without a
/// branch per position, then visits only the set bits: a pair's run is
/// the gap to the previous one.
#[inline]
pub fn put_block(w: &mut BitWriter, block: &Levels) {
    if block.is_zero() {
        put_ue(w, 0);
        return;
    }
    let levels = &block.levels;
    let order = scan();
    let last = (7 - block.rows.leading_zeros()) + (7 - block.cols.leading_zeros());
    let mut nonzero = 0u64;
    for (i, &idx) in order[..diagonal_end(last as usize)].iter().enumerate() {
        // `idx < BLOCK` always; the mask lets the compiler see it.
        nonzero |= ((levels[idx & (BLOCK - 1)] != 0) as u64) << i;
    }
    put_ue(w, nonzero.count_ones() as u64);
    let mut next = 0;
    while nonzero != 0 {
        let pos = nonzero.trailing_zeros();
        put_run_level(w, pos - next, levels[order[pos as usize] & (BLOCK - 1)]);
        next = pos + 1;
        nonzero &= nonzero - 1;
    }
}

/// `ue(run)` then `se(level)`, as one field when the two codes fit in
/// 64 bits together. An Exp-Golomb code of `v` is `v + 1` written
/// `2·bits(v + 1) − 1` wide, its zero prefix implied by the width, so
/// the two codes side by side are one `put_bits` of the two values
/// shifted together. A run is at most 63 (a 13-bit code) and a level
/// the encoder produces at most 3264 in magnitude (`2040 / qstep(0)`,
/// a 25-bit code), so its pairs are at most 38 bits: the split path is
/// for levels no DCT of byte residuals produces.
#[inline]
fn put_run_level(w: &mut BitWriter, run: u32, level: i32) {
    let r = run as u64 + 1;
    let l = zigzag_encode(level as i64) + 1;
    let (r_len, l_len) = (2 * (64 - r.leading_zeros()) - 1, 2 * (64 - l.leading_zeros()) - 1);
    if r_len + l_len <= 64 {
        w.put_bits(r << l_len | l, r_len + l_len);
    } else {
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

    /// Encoded bytes of `blocks`, each behind a 5-bit misalignment so
    /// the writer's word boundary falls in every position.
    fn encode_all(blocks: &[Levels], put: fn(&mut BitWriter, &Levels)) -> Vec<u8> {
        let mut w = BitWriter::new();
        for b in blocks {
            w.put_bits(0b10110, 5);
            put(&mut w, b);
        }
        w.finish()
    }

    #[test]
    fn zigzag_visits_the_anti_diagonals_in_order() {
        for (i, &idx) in scan().iter().enumerate() {
            let d = idx / N + idx % N;
            assert!(i < diagonal_end(d), "position {i} on diagonal {d}");
            assert!(d == 0 || i >= diagonal_end(d - 1), "position {i} on diagonal {d}");
        }
    }

    /// Byte equality with the full-scan encoder on empty, DC-only,
    /// sparse low-frequency, dense and extreme blocks (levels whose
    /// pair does not fit one 64-bit field take the split path).
    #[test]
    fn put_block_matches_the_full_scan_oracle() {
        let mut rng = VrRng::seed_from(0xe7c0_0001);
        let mut blocks = Vec::new();
        for case in 0..6000 {
            let mut levels = [0i32; BLOCK];
            match case % 6 {
                0 => {}
                1 => levels[0] = rng.range_i64(-3264, 3264) as i32,
                2 => {
                    let corner = rng.range(1, N);
                    for _ in 0..rng.range(1, 12) {
                        let (u, c) = (rng.range(0, corner - 1), rng.range(0, corner - 1));
                        levels[u * N + c] = rng.range_i64(-40, 40) as i32;
                    }
                }
                3 => {
                    for l in &mut levels {
                        *l = rng.range_i64(-3264, 3264) as i32;
                    }
                }
                4 => levels[rng.range(0, BLOCK - 1)] = rng.range_i64(-5, 5) as i32,
                _ => {
                    let extremes = [i32::MIN, i32::MAX, -(1 << 20), 1 << 20, 1];
                    for _ in 0..rng.range(1, 4) {
                        levels[rng.range(0, BLOCK - 1)] = extremes[rng.range(0, 4)];
                    }
                }
            }
            blocks.push(Levels::new(levels));
        }
        assert_eq!(encode_all(&blocks, put_block), encode_all(&blocks, crate::oracle::put_block));
    }

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
