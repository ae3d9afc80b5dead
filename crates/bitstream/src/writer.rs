//! MSB-first bit writer.

/// Accumulates bits most-significant-first into a byte buffer.
///
/// Fields are shifted into a 64-bit accumulator that is flushed eight
/// bytes at a time, so a field costs a shift and an OR however wide it
/// is. The final partial byte (if any) is zero-padded when the buffer
/// is taken with [`finish`](BitWriter::finish), matching the reader's
/// expectation that trailing pad bits are zero.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits currently staged in the low end of `acc` (0..64).
    nbits: u32,
    acc: u64,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writer with preallocated capacity (bytes).
    pub fn with_capacity(bytes: usize) -> Self {
        Self { buf: Vec::with_capacity(bytes), nbits: 0, acc: 0 }
    }

    /// Write a single bit.
    #[inline]
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(bit as u64, 1);
    }

    /// Write the `n` least-significant bits of `value`, MSB first.
    /// `n` may be 0 (no-op) up to 64.
    #[inline]
    pub fn put_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let value = value & (u64::MAX >> (64 - n));
        let free = 64 - self.nbits;
        if n < free {
            self.acc = self.acc << n | value;
            self.nbits += n;
            return;
        }
        // The field fills the accumulator: flush it with the field's
        // top `free` bits and stage the remaining `spill` bits.
        let spill = n - free;
        let head = if free == 64 { 0 } else { self.acc << free };
        self.buf.extend_from_slice(&(head | value >> spill).to_be_bytes());
        self.acc = if spill == 0 { 0 } else { value & (u64::MAX >> (64 - spill)) };
        self.nbits = spill;
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Pad to a byte boundary with zero bits.
    pub fn align(&mut self) {
        self.put_bits(0, (8 - self.nbits % 8) % 8);
    }

    /// Finish writing: pad to a byte boundary and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.align();
        let staged = (self.nbits / 8) as usize;
        if staged > 0 {
            let bytes = (self.acc << (64 - self.nbits)).to_be_bytes();
            self.buf.extend_from_slice(&bytes[..staged]);
        }
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_pack_msb_first() {
        let mut w = BitWriter::new();
        w.put_bit(true);
        w.put_bit(false);
        w.put_bit(true);
        assert_eq!(w.bit_len(), 3);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1010_0000]);
    }

    #[test]
    fn put_bits_field() {
        let mut w = BitWriter::new();
        w.put_bits(0b1101, 4);
        w.put_bits(0xFF, 8);
        w.put_bits(0, 4);
        assert_eq!(w.finish(), vec![0b1101_1111, 0b1111_0000]);
    }

    #[test]
    fn zero_width_write_is_noop() {
        let mut w = BitWriter::new();
        w.put_bits(0xFFFF, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.put_bit(true);
        w.align();
        w.put_bits(0xAB, 8);
        assert_eq!(w.finish(), vec![0b1000_0000, 0xAB]);
    }

    #[test]
    fn sixty_four_bit_value() {
        let mut w = BitWriter::new();
        w.put_bits(u64::MAX, 64);
        assert_eq!(w.finish(), vec![0xFF; 8]);
    }
}
