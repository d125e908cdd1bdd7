//! LSB-first bit streams, as mandated by RFC 1951 §3.1.1: data elements are
//! packed starting from the least significant bit of each byte.

use crate::{DeflateError, Result};

/// Accumulates bits LSB-first into a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Bits not yet flushed to `out`, in the low end of the accumulator.
    acc: u64,
    /// Number of valid bits in `acc` (< 8 after `flush_bytes`).
    nbits: u32,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `count` bits of `value` (LSB-first). The accumulator
    /// drains four bytes at a time: a 32-bit write fits on top of up to 31
    /// pending bits without overflowing the 64-bit accumulator.
    #[inline]
    pub fn write_bits(&mut self, value: u32, count: u32) {
        debug_assert!(count <= 32);
        debug_assert!(count == 32 || u64::from(value) < (1u64 << count));
        self.acc |= u64::from(value) << self.nbits;
        self.nbits += count;
        if self.nbits >= 32 {
            self.out.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    /// Pad with zero bits to the next byte boundary (used before stored
    /// blocks and at stream end).
    pub fn align_to_byte(&mut self) {
        while self.nbits > 0 {
            self.out.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.nbits = self.nbits.saturating_sub(8);
        }
    }

    /// Append raw bytes; the writer must be byte-aligned.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(self.nbits, 0, "write_bytes requires byte alignment");
        self.out.extend_from_slice(bytes);
    }

    /// Number of complete bytes emitted so far (excluding pending bits).
    pub fn byte_len(&self) -> usize {
        self.out.len() + (self.nbits / 8) as usize
    }

    /// Total length in bits including pending bits.
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.nbits as usize
    }

    /// Finish the stream, flushing any pending partial byte.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.out
    }
}

/// Reads bits LSB-first from a byte slice.
///
/// Invariant: the accumulator's bits above `nbits` are zero, so a peek past
/// the end of the input reads zero padding, and `pos` minus the buffered
/// whole bytes is the exact byte position.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next unread byte index.
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Wrap a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Top the accumulator up: a whole little-endian word while 8 input
    /// bytes remain, byte by byte at the tail.
    #[inline]
    fn refill(&mut self) {
        if self.has_word() {
            self.refill_word();
        } else {
            while self.nbits <= 56 && self.pos < self.data.len() {
                self.acc |= u64::from(self.data[self.pos]) << self.nbits;
                self.pos += 1;
                self.nbits += 8;
            }
        }
    }

    /// At least 8 input bytes remain beyond the accumulator.
    #[inline(always)]
    pub(crate) fn has_word(&self) -> bool {
        self.data.len() - self.pos >= 8
    }

    /// Load the next 8 input bytes as one word and keep the whole bytes that
    /// fit, leaving 56 to 63 bits buffered. Requires [`Self::has_word`].
    #[inline(always)]
    pub(crate) fn refill_word(&mut self) {
        let word: [u8; 8] = self.data[self.pos..self.pos + 8]
            .try_into()
            .expect("slice of 8 bytes");
        let bytes = (63 - self.nbits) / 8;
        let nbits = self.nbits + 8 * bytes;
        // Mask off the bytes not taken, keeping the high bits zero.
        self.acc |= (u64::from_le_bytes(word) << self.nbits) & ((1u64 << nbits) - 1);
        self.pos += bytes as usize;
        self.nbits = nbits;
    }

    /// The buffered bits, next stream bit lowest.
    #[inline(always)]
    pub(crate) fn bits(&self) -> u64 {
        self.acc
    }

    /// Read `count` bits (0..=32), LSB-first.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u32> {
        debug_assert!(count <= 32);
        if self.nbits < count {
            self.refill();
            if self.nbits < count {
                return Err(DeflateError::UnexpectedEof);
            }
        }
        let mask = if count == 32 {
            u64::MAX >> 32
        } else {
            (1u64 << count) - 1
        };
        let v = (self.acc & mask) as u32;
        self.acc >>= count;
        self.nbits -= count;
        Ok(v)
    }

    /// Read a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<u32> {
        self.read_bits(1)
    }

    /// Look at the next `count` bits (0..=32) without consuming them,
    /// zero-padded past end of input. The accumulator keeps unread high bits
    /// at zero, so the padding needs no masking; pair with
    /// [`BitReader::bits_available`] to detect reads past the end.
    #[inline]
    pub fn peek_bits(&mut self, count: u32) -> u32 {
        debug_assert!(count <= 32);
        if self.nbits < count {
            self.refill();
        }
        let mask = if count == 32 {
            u64::MAX >> 32
        } else {
            (1u64 << count) - 1
        };
        (self.acc & mask) as u32
    }

    /// Discard `count` bits previously seen via [`BitReader::peek_bits`].
    /// `count` must not exceed [`BitReader::bits_available`].
    #[inline]
    pub fn consume(&mut self, count: u32) {
        debug_assert!(count <= self.nbits);
        self.acc >>= count;
        self.nbits -= count;
    }

    /// Bits currently buffered in the accumulator (valid after a peek; the
    /// stream may hold more bytes not yet pulled in).
    #[inline]
    pub fn bits_available(&self) -> u32 {
        self.nbits
    }

    /// Discard bits up to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        let drop = self.nbits % 8;
        self.acc >>= drop;
        self.nbits -= drop;
    }

    /// Fill `dst` with the next raw bytes; the reader must be byte-aligned.
    /// Buffered whole bytes come first, the rest is copied straight from the
    /// input.
    pub fn read_bytes(&mut self, dst: &mut [u8]) -> Result<()> {
        assert_eq!(self.nbits % 8, 0, "read_bytes requires byte alignment");
        let buffered = ((self.nbits / 8) as usize).min(dst.len());
        let (head, rest) = dst.split_at_mut(buffered);
        for b in head {
            *b = self.acc as u8;
            self.acc >>= 8;
            self.nbits -= 8;
        }
        let src = self
            .data
            .get(self.pos..self.pos + rest.len())
            .ok_or(DeflateError::UnexpectedEof)?;
        rest.copy_from_slice(src);
        self.pos += rest.len();
        Ok(())
    }

    /// Byte offset of the first byte not yet pulled into the accumulator,
    /// adjusted for buffered whole bytes. Valid only at byte alignment.
    pub fn byte_position(&self) -> usize {
        self.pos - (self.nbits / 8) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_bits() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b11110000, 8);
        w.write_bits(0x3FFF, 14);
        w.write_bits(1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(8).unwrap(), 0b11110000);
        assert_eq!(r.read_bits(14).unwrap(), 0x3FFF);
        assert_eq!(r.read_bit().unwrap(), 1);
    }

    #[test]
    fn lsb_first_layout() {
        let mut w = BitWriter::new();
        // Writing 1,0,1,1 LSB-first means the first bit lands in bit 0.
        w.write_bits(1, 1);
        w.write_bits(0, 1);
        w.write_bits(1, 1);
        w.write_bits(1, 1);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0000_1101]);
    }

    #[test]
    fn align_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.align_to_byte();
        w.write_bytes(&[0xAB]);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0x01, 0xAB]);

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit().unwrap(), 1);
        r.align_to_byte();
        let mut byte = [0u8];
        r.read_bytes(&mut byte).unwrap();
        assert_eq!(byte, [0xAB]);
    }

    #[test]
    fn eof_detected() {
        let mut r = BitReader::new(&[0xFF]);
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bit(), Err(DeflateError::UnexpectedEof));
    }

    #[test]
    fn zero_bit_reads_are_free() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn long_stream_round_trip() {
        let mut w = BitWriter::new();
        let mut expect = Vec::new();
        let mut s = 99u64;
        for _ in 0..10_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let count = 1 + (s % 24) as u32;
            let val = (s >> 32) as u32 & ((1u32 << count) - 1);
            expect.push((val, count));
            w.write_bits(val, count);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for (val, count) in expect {
            assert_eq!(r.read_bits(count).unwrap(), val);
        }
    }

    #[test]
    fn bit_len_tracks_pending() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0, 8);
        assert_eq!(w.bit_len(), 11);
        assert_eq!(w.byte_len(), 1);
    }
}
