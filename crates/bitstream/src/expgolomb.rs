//! Exp-Golomb entropy codes, as used by H.264/HEVC syntax elements.
//!
//! An unsigned value `v` is coded as `leading_zeros(⌊log2(v+1)⌋) ·
//! "0"`, then the binary of `v + 1`. Signed values are zig-zag mapped
//! onto unsigned first (0, 1, -1, 2, -2, ...), matching `se(v)` in the
//! H.264 spec.

use crate::reader::BitReader;
use crate::writer::BitWriter;
use vr_base::{Error, Result};

/// Longest zero prefix [`read_ue`] accepts. 32 zeros already cover
/// every value up to `2^33 - 2`, which is every `se(v)` of an `i32`;
/// a longer prefix is damage, and failing here keeps the shift and the
/// suffix width below in range whatever the input.
pub const MAX_UE_ZEROS: u32 = 32;

/// Write an unsigned Exp-Golomb code (`ue(v)`).
pub fn put_ue(w: &mut BitWriter, value: u64) {
    let v = value + 1;
    let bits = 64 - v.leading_zeros();
    // `v` fits `bits` bits, so written `2·bits − 1` wide it carries
    // its own zero prefix.
    if bits <= 32 {
        w.put_bits(v, 2 * bits - 1);
    } else {
        w.put_bits(0, bits - 1);
        w.put_bits(v, bits);
    }
}

/// Read an unsigned Exp-Golomb code. Fails closed on a zero prefix
/// longer than [`MAX_UE_ZEROS`] and on running out of bits.
pub fn read_ue(r: &mut BitReader<'_>) -> Result<u64> {
    let (window, real) = r.peek();
    // Bits past the end of the data read as zero, so both checks are
    // needed: the first bounds the shift and the suffix width below
    // whatever the input, the second catches data that ends inside a
    // prefix of legal length.
    let zeros = window.leading_zeros();
    if zeros > MAX_UE_ZEROS {
        return Err(Error::Corrupt(format!("exp-golomb prefix longer than {MAX_UE_ZEROS} zeros")));
    }
    if zeros >= real {
        return Err(Error::Corrupt("bitstream exhausted".into()));
    }
    let len = 2 * zeros + 1;
    if len <= real {
        // The whole code is in the window: its top `len` bits are the
        // zero prefix followed by `value + 1`.
        r.consume(len);
        return Ok((window >> (64 - len)) - 1);
    }
    r.consume(zeros + 1);
    let rest = r.read_bits(zeros)?;
    Ok(((1u64 << zeros) | rest) - 1)
}

/// Write a signed Exp-Golomb code (`se(v)`).
pub fn put_se(w: &mut BitWriter, value: i64) {
    put_ue(w, zigzag_encode(value));
}

/// Read a signed Exp-Golomb code.
pub fn read_se(r: &mut BitReader<'_>) -> Result<i64> {
    Ok(zigzag_decode(read_ue(r)?))
}

/// Map signed → unsigned: 0, -1, 1, -2, 2 ... → 0, 1, 2, 3, 4 ...
/// (H.264 ordering: positive first).
#[inline]
pub fn zigzag_encode(v: i64) -> u64 {
    if v > 0 {
        (v as u64) * 2 - 1
    } else {
        (-v as u64) * 2
    }
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(u: u64) -> i64 {
    if u % 2 == 1 {
        ((u + 1) / 2) as i64
    } else {
        -((u / 2) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_base::VrRng;

    #[test]
    fn ue_known_codes() {
        // Classic table: 0→"1", 1→"010", 2→"011", 3→"00100".
        for (v, expected_bits) in [(0u64, 1usize), (1, 3), (2, 3), (3, 5), (6, 5), (7, 7)] {
            let mut w = BitWriter::new();
            put_ue(&mut w, v);
            assert_eq!(w.bit_len(), expected_bits, "ue({v})");
        }
        let mut w = BitWriter::new();
        put_ue(&mut w, 0);
        assert_eq!(w.finish(), vec![0b1000_0000]);
    }

    #[test]
    fn se_ordering_matches_spec() {
        // se: 0→0, 1→1, 2→-1, 3→2, 4→-2 (decode direction).
        assert_eq!(zigzag_decode(0), 0);
        assert_eq!(zigzag_decode(1), 1);
        assert_eq!(zigzag_decode(2), -1);
        assert_eq!(zigzag_decode(3), 2);
        assert_eq!(zigzag_decode(4), -2);
    }

    #[test]
    fn sequence_round_trip() {
        let values: Vec<u64> = vec![0, 1, 2, 3, 100, 65535, 1 << 32, (1 << 33) - 2];
        let mut w = BitWriter::new();
        for &v in &values {
            put_ue(&mut w, v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(read_ue(&mut r).unwrap(), v);
        }
    }

    /// Seeded randomized round trips (the former proptest suite).
    #[test]
    fn prop_ue_round_trip() {
        let mut rng = VrRng::seed_from(0xe960_0001);
        for _ in 0..512 {
            let v = rng.below((1 << 33) - 1);
            let mut w = BitWriter::new();
            put_ue(&mut w, v);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert_eq!(read_ue(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn prop_se_round_trip() {
        let mut rng = VrRng::seed_from(0xe960_0002);
        for _ in 0..512 {
            let v = rng.range_i64(-(1i64 << 32) + 1, (1i64 << 32) - 1);
            let mut w = BitWriter::new();
            put_se(&mut w, v);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert_eq!(read_se(&mut r).unwrap(), v);
        }
    }

    /// Fail closed: 33 or more leading zeros is an error, not a shift
    /// by 64 or a 65-bit field, and running out mid-code is an error.
    #[test]
    fn overlong_prefix_and_truncation_are_errors() {
        for zeros in [33usize, 40, 63, 64, 65, 100, 200] {
            let mut w = BitWriter::new();
            for _ in 0..zeros {
                w.put_bit(false);
            }
            w.put_bits(u64::MAX, 64);
            w.put_bits(u64::MAX, 64);
            let bytes = w.finish();
            assert!(read_ue(&mut BitReader::new(&bytes)).is_err(), "{zeros} zeros");
        }
        assert!(read_ue(&mut BitReader::new(&[])).is_err());
        assert!(read_ue(&mut BitReader::new(&[0, 0])).is_err());
        assert!(read_ue(&mut BitReader::new(&[0; 16])).is_err());
        // The widest accepted code: 32 zeros, then 33 bits.
        let mut w = BitWriter::new();
        put_ue(&mut w, (1 << 33) - 2);
        assert_eq!(w.bit_len(), 65);
        let bytes = w.finish();
        assert_eq!(read_ue(&mut BitReader::new(&bytes)).unwrap(), (1 << 33) - 2);
        assert!(read_ue(&mut BitReader::new(&bytes[..8])).is_err(), "suffix cut short");
        // The widest se() of an i32 is inside that.
        for v in [i32::MIN as i64, i32::MAX as i64] {
            let mut w = BitWriter::new();
            put_se(&mut w, v);
            let bytes = w.finish();
            assert_eq!(read_se(&mut BitReader::new(&bytes)).unwrap(), v);
        }
    }

    #[test]
    fn prop_zigzag_bijective() {
        let mut rng = VrRng::seed_from(0xe960_0003);
        for _ in 0..512 {
            let u = rng.below(1 << 50);
            assert_eq!(zigzag_encode(zigzag_decode(u)), u);
        }
    }

    /// Exhaustive small-value sweep: every value below 2^12 round
    /// trips through both codes, and the zig-zag map is bijective.
    #[test]
    fn exhaustive_small_values_round_trip() {
        for v in 0u64..(1 << 12) {
            let mut w = BitWriter::new();
            put_ue(&mut w, v);
            put_se(&mut w, v as i64 - 2048);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert_eq!(read_ue(&mut r).unwrap(), v);
            assert_eq!(read_se(&mut r).unwrap(), v as i64 - 2048);
            assert_eq!(zigzag_encode(zigzag_decode(v)), v);
        }
    }
}
