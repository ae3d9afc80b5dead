//! MSB-first bit reader.

use vr_base::{Error, Result};

/// Reads bits most-significant-first from a byte slice.
///
/// Fields are cut out of a 64-bit big-endian window loaded at the
/// cursor's byte, so a field costs one load and two shifts however
/// wide it is; the only state is the bit cursor.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Wrap a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Total number of bits available.
    pub fn bit_len(&self) -> usize {
        self.data.len() * 8
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.bit_len() - self.pos
    }

    /// Current bit position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The upcoming bits, left-aligned in a `u64`, and how many of
    /// them are real: at least 57 unless fewer remain. Bits past the
    /// end of the data read as zero.
    #[inline]
    pub(crate) fn peek(&self) -> (u64, u32) {
        let tail = self.data.get(self.pos / 8..).unwrap_or(&[]);
        let word = match tail.first_chunk::<8>() {
            Some(bytes) => u64::from_be_bytes(*bytes),
            None => {
                let mut bytes = [0u8; 8];
                bytes[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(bytes)
            }
        };
        let skew = (self.pos % 8) as u32;
        (word << skew, self.remaining().min(64 - skew as usize) as u32)
    }

    /// Advance past `n` bits that [`peek`](Self::peek) reported real.
    #[inline]
    pub(crate) fn consume(&mut self, n: u32) {
        debug_assert!(n as usize <= self.remaining());
        self.pos += n as usize;
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        let (window, real) = self.peek();
        if real == 0 {
            return Err(Error::Corrupt("bitstream exhausted".into()));
        }
        self.pos += 1;
        Ok(window >> 63 == 1)
    }

    /// Read an `n`-bit unsigned field, MSB first (`n <= 64`).
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64> {
        debug_assert!(n <= 64);
        if self.remaining() < n as usize {
            return Err(Error::Corrupt(format!(
                "bitstream exhausted: wanted {n} bits, {} remain",
                self.remaining()
            )));
        }
        // A window holds 57 real bits at the worst skew; wider fields
        // take their low 32 bits from a second window.
        if n > 57 {
            let hi = self.take(n - 32);
            return Ok(hi << 32 | self.take(32));
        }
        Ok(self.take(n))
    }

    /// Cut an `n <= 57`-bit field known to be available.
    #[inline]
    fn take(&mut self, n: u32) -> u64 {
        let (window, _) = self.peek();
        self.pos += n as usize;
        // Two shifts, so that `n == 0` does not shift by 64.
        window >> 1 >> (63 - n)
    }

    /// Skip to the next byte boundary.
    pub fn align(&mut self) {
        self.pos = (self.pos + 7) & !7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::BitWriter;

    #[test]
    fn round_trip_mixed_fields() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        w.put_bits(0xDEAD_BEEF, 32);
        w.put_bits(1, 1);
        w.put_bits(0x3FF, 10);
        let bytes = w.finish();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(10).unwrap(), 0x3FF);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bit().is_err());
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(9).is_err());
    }

    #[test]
    fn align_skips_to_byte() {
        let bytes = [0b1010_0000, 0xCD];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().unwrap());
        r.align();
        assert_eq!(r.position(), 8);
        assert_eq!(r.read_bits(8).unwrap(), 0xCD);
        // Aligning when already aligned is a no-op.
        r.align();
        assert_eq!(r.remaining(), 0);
    }
}
