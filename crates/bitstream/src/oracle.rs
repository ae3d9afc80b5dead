//! The bit-at-a-time reader, writer and Exp-Golomb codes the word-wide
//! ones replaced, kept as test oracles: same bytes out, same values
//! in, errors on the same inputs.

use crate::expgolomb::{zigzag_decode, zigzag_encode, MAX_UE_ZEROS};
use vr_base::{Error, Result};

pub struct SlowReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SlowReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.data.len() * 8 - self.pos
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    pub fn read_bit(&mut self) -> Result<bool> {
        if self.pos >= self.data.len() * 8 {
            return Err(Error::Corrupt("bitstream exhausted".into()));
        }
        let byte = self.data[self.pos / 8];
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit == 1)
    }

    pub fn read_bits(&mut self, n: u32) -> Result<u64> {
        if self.remaining() < n as usize {
            return Err(Error::Corrupt("bitstream exhausted".into()));
        }
        let mut v = 0u64;
        for _ in 0..n {
            v = (v << 1) | self.read_bit()? as u64;
        }
        Ok(v)
    }

    pub fn align(&mut self) {
        self.pos = (self.pos + 7) & !7;
    }

    /// The old loop plus the one new rule: a prefix past
    /// [`MAX_UE_ZEROS`] is an error.
    pub fn read_ue(&mut self) -> Result<u64> {
        let mut zeros = 0u32;
        while !self.read_bit()? {
            zeros += 1;
            if zeros > MAX_UE_ZEROS {
                return Err(Error::Corrupt("exp-golomb prefix too long".into()));
            }
        }
        let rest = self.read_bits(zeros)?;
        Ok(((1u64 << zeros) | rest) - 1)
    }

    pub fn read_se(&mut self) -> Result<i64> {
        Ok(zigzag_decode(self.read_ue()?))
    }
}

#[derive(Default)]
pub struct SlowWriter {
    buf: Vec<u8>,
    nbits: u32,
    acc: u8,
}

impl SlowWriter {
    pub fn put_bit(&mut self, bit: bool) {
        self.acc = (self.acc << 1) | bit as u8;
        self.nbits += 1;
        if self.nbits == 8 {
            self.buf.push(self.acc);
            self.acc = 0;
            self.nbits = 0;
        }
    }

    pub fn put_bits(&mut self, value: u64, n: u32) {
        for i in (0..n).rev() {
            self.put_bit((value >> i) & 1 == 1);
        }
    }

    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    pub fn align(&mut self) {
        while self.nbits != 0 {
            self.put_bit(false);
        }
    }

    pub fn finish(mut self) -> Vec<u8> {
        self.align();
        self.buf
    }

    pub fn put_ue(&mut self, value: u64) {
        let v = value + 1;
        let bits = 64 - v.leading_zeros();
        self.put_bits(0, bits - 1);
        self.put_bits(v, bits);
    }

    pub fn put_se(&mut self, value: i64) {
        self.put_ue(zigzag_encode(value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expgolomb::{put_se, put_ue, read_se, read_ue};
    use crate::{BitReader, BitWriter};
    use vr_base::VrRng;

    /// One field of a random bitstream.
    #[derive(Debug, Clone, Copy)]
    enum Field {
        Bit(bool),
        Bits(u64, u32),
        Ue(u64),
        Se(i64),
        Align,
    }

    fn random_field(rng: &mut VrRng) -> Field {
        match rng.range(0, 9) {
            0 => Field::Bit(rng.chance(0.5)),
            1 | 2 => Field::Bits(rng.next_u64(), rng.range(0, 64) as u32),
            // Mostly short codes, as in a coefficient stream, with the
            // widest ones mixed in.
            3..=5 => {
                let width = rng.range(0, 12);
                Field::Ue(rng.below(1 << width))
            }
            6 => Field::Ue(rng.below((1 << 33) - 1)),
            7 => Field::Se(rng.range_i64(-300, 300)),
            8 => Field::Se(rng.range_i64(i32::MIN as i64, i32::MAX as i64)),
            _ => Field::Align,
        }
    }

    /// Random field sequences: the two writers agree on every byte and
    /// on `bit_len` after every field; the two readers return the
    /// written values at the same positions.
    #[test]
    fn writers_and_readers_agree_on_random_field_sequences() {
        let mut rng = VrRng::seed_from(0xb175_0001);
        for _ in 0..300 {
            let fields: Vec<Field> =
                (0..rng.range(0, 80)).map(|_| random_field(&mut rng)).collect();
            let (mut fast, mut slow) = (BitWriter::new(), SlowWriter::default());
            for &f in &fields {
                match f {
                    Field::Bit(b) => (fast.put_bit(b), slow.put_bit(b)),
                    Field::Bits(v, n) => (fast.put_bits(v, n), slow.put_bits(v, n)),
                    Field::Ue(v) => (put_ue(&mut fast, v), slow.put_ue(v)),
                    Field::Se(v) => (put_se(&mut fast, v), slow.put_se(v)),
                    Field::Align => (fast.align(), slow.align()),
                };
                assert_eq!(fast.bit_len(), slow.bit_len(), "after {f:?}");
            }
            let bytes = fast.finish();
            assert_eq!(bytes, slow.finish());

            let (mut fast, mut slow) = (BitReader::new(&bytes), SlowReader::new(&bytes));
            for &f in &fields {
                match f {
                    Field::Bit(b) => {
                        assert_eq!(fast.read_bit().unwrap(), b);
                        assert_eq!(slow.read_bit().unwrap(), b);
                    }
                    Field::Bits(v, n) => {
                        let want = if n == 64 { v } else { v & ((1 << n) - 1) };
                        assert_eq!(fast.read_bits(n).unwrap(), want, "{n} bits");
                        assert_eq!(slow.read_bits(n).unwrap(), want);
                    }
                    Field::Ue(v) => {
                        assert_eq!(read_ue(&mut fast).unwrap(), v);
                        assert_eq!(slow.read_ue().unwrap(), v);
                    }
                    Field::Se(v) => {
                        assert_eq!(read_se(&mut fast).unwrap(), v);
                        assert_eq!(slow.read_se().unwrap(), v);
                    }
                    Field::Align => (fast.align(), slow.align()).0,
                }
                assert_eq!(fast.position(), slow.position(), "after {f:?}");
                assert_eq!(fast.remaining(), slow.remaining());
            }
        }
    }

    /// Garbage and truncated input: whatever is asked of the two
    /// readers, they return the same value or both fail. The comparison
    /// stops at the first error, which is where a decoder stops.
    #[test]
    fn readers_agree_on_garbage_and_truncated_input() {
        let mut rng = VrRng::seed_from(0xb175_0002);
        let mut errors = 0;
        for case in 0..2000 {
            let len = rng.range(0, 40);
            // Zero-heavy bytes make long prefixes, which is where the
            // error paths are.
            let zero_heavy = case % 2 == 0;
            let bytes: Vec<u8> = (0..len)
                .map(|_| if zero_heavy && rng.chance(0.7) { 0 } else { rng.next_u32() as u8 })
                .collect();
            let (mut fast, mut slow) = (BitReader::new(&bytes), SlowReader::new(&bytes));
            for _ in 0..64 {
                let (a, b) = match rng.range(0, 5) {
                    0 => (fast.read_bit().map(u64::from), slow.read_bit().map(u64::from)),
                    1 => {
                        let n = rng.range(0, 64) as u32;
                        (fast.read_bits(n), slow.read_bits(n))
                    }
                    2 | 3 => (read_ue(&mut fast), slow.read_ue()),
                    4 => (read_se(&mut fast).map(|v| v as u64), slow.read_se().map(|v| v as u64)),
                    _ => {
                        fast.align();
                        slow.align();
                        (Ok(0), Ok(0))
                    }
                };
                match (a, b) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b),
                    (Err(_), Err(_)) => {
                        errors += 1;
                        break;
                    }
                    (a, b) => panic!("readers disagree on {bytes:02x?}: {a:?} vs {b:?}"),
                }
                assert_eq!(fast.position(), slow.position());
            }
        }
        assert!(errors > 500, "the sweep must reach the error paths ({errors})");
    }
}
