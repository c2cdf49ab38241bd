//! LSB-first bit-level reader and writer used by the DEFLATE codec.
//!
//! Both keep a 64-bit accumulator and move whole words: the reader
//! refills with one unaligned 8-byte load while that much input
//! remains, the writer stores the accumulator as one 8-byte word after
//! every call and keeps only the sub-byte remainder.

use crate::{Error, Result};

/// Reads bits LSB-first from a byte slice, as required by RFC 1951.
///
/// The fields are visible to the inflate loops, which copy them into
/// locals for the duration of a block and write them back.
#[derive(Debug)]
pub struct BitReader<'a> {
    pub(crate) data: &'a [u8],
    /// Next byte index to refill from.
    pub(crate) pos: usize,
    /// Bit accumulator; the low `nbits` bits are valid and unconsumed.
    /// Bits above them are either zero or the input bits that follow.
    pub(crate) acc: u64,
    /// Number of valid bits in `acc` (at most 63).
    pub(crate) nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0, acc: 0, nbits: 0 }
    }

    /// Buffers as many bits as fit (at least 56 while input remains).
    #[inline]
    pub fn refill(&mut self) {
        if let Some(word) = self.data.get(self.pos..self.pos + 8) {
            // Branch-free: OR in a whole word, then count only the
            // bytes that fit below bit 64 as consumed. The bits of the
            // partly-fitting byte are ORed in again, unchanged, by the
            // next refill.
            self.acc |= u64::from_le_bytes(word.try_into().unwrap()) << self.nbits;
            self.pos += ((63 - self.nbits) >> 3) as usize;
            self.nbits |= 56;
        } else {
            // Fewer than 8 bytes left: the accumulator must not carry
            // bits that the byte-wise loop would OR over.
            self.acc &= (1u64 << self.nbits) - 1;
            while self.nbits <= 56 && self.pos < self.data.len() {
                self.acc |= (self.data[self.pos] as u64) << self.nbits;
                self.pos += 1;
                self.nbits += 8;
            }
        }
    }

    /// Number of buffered bits.
    #[inline]
    pub fn available(&self) -> u32 {
        self.nbits
    }

    /// Consumes `n` buffered bits.
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(self.nbits >= n);
        self.acc >>= n;
        self.nbits -= n;
    }

    /// Reads and consumes `n` bits (n <= 32), LSB-first.
    #[inline]
    pub fn bits(&mut self, n: u32) -> Result<u32> {
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(Error::UnexpectedEof);
            }
        }
        let v = (self.acc & ((1u64 << n) - 1)) as u32;
        self.consume(n);
        Ok(v)
    }

    /// Discards buffered bits up to the next byte boundary and hands the
    /// whole buffered bytes back to the input, so that `pos` is the
    /// index of the next unread byte.
    pub fn align_to_byte(&mut self) {
        self.pos -= (self.nbits / 8) as usize;
        self.acc = 0;
        self.nbits = 0;
    }

    /// Takes `n` whole bytes from the input; the reader must have just
    /// been [aligned](Self::align_to_byte).
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        debug_assert_eq!(self.nbits, 0, "take_bytes requires byte alignment");
        let bytes = self.data.get(self.pos..).and_then(|rest| rest.get(..n));
        let bytes = bytes.ok_or(Error::UnexpectedEof)?;
        self.pos += n;
        Ok(bytes)
    }

    /// Returns the number of whole bytes consumed from the input so far,
    /// counting buffered-but-unconsumed bits as not yet consumed.
    pub fn bytes_consumed(&self) -> usize {
        self.pos - (self.nbits / 8) as usize
    }
}

/// Most bits one [`BitWriter::write_bits`] call may carry: with the 7
/// bits a call can leave pending that stays below the accumulator's 64.
pub const MAX_WRITE_BITS: u32 = 56;

/// Writes bits LSB-first, appending to a byte vector.
///
/// The vector is kept 8 bytes longer than what has been written so each
/// call can store its accumulator as one word; [`finish`](Self::finish)
/// trims it.
#[derive(Debug)]
pub struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Index of the byte the accumulator's bit 0 belongs to.
    pos: usize,
    /// Pending bits; the low `nbits` are valid.
    acc: u64,
    /// Number of pending bits, at most 7 between calls.
    nbits: u32,
}

impl<'a> BitWriter<'a> {
    /// Creates a writer that appends to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        let pos = out.len();
        BitWriter { out, pos, acc: 0, nbits: 0 }
    }

    /// Makes room for `bytes` more bytes so the writes that produce them
    /// never have to grow the vector one word at a time.
    pub fn reserve(&mut self, bytes: usize) {
        let want = self.pos + bytes + 8;
        if self.out.len() < want {
            self.out.resize(want, 0);
        }
    }

    /// Appends the low `n` bits of `v` (n <= [`MAX_WRITE_BITS`]),
    /// LSB-first.
    #[inline]
    pub fn write_bits(&mut self, v: u64, n: u32) {
        debug_assert!(n <= MAX_WRITE_BITS);
        debug_assert!(v >> n == 0, "value {v} does not fit in {n} bits");
        self.acc |= v << self.nbits;
        self.nbits += n;
        if self.out.len() < self.pos + 8 {
            self.reserve(self.out.len() / 2 + 64);
        }
        self.out[self.pos..self.pos + 8].copy_from_slice(&self.acc.to_le_bytes());
        self.pos += (self.nbits >> 3) as usize;
        self.acc >>= self.nbits & !7;
        self.nbits &= 7;
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        if self.nbits > 0 {
            self.write_bits(0, 8 - self.nbits);
        }
    }

    /// Appends whole bytes; the writer must be byte-aligned.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        debug_assert_eq!(self.nbits, 0, "write_bytes requires byte alignment");
        self.out.truncate(self.pos);
        self.out.extend_from_slice(bytes);
        self.pos = self.out.len();
    }

    /// Flushes any partial byte and trims the vector to what was written.
    pub fn finish(mut self) {
        self.align_to_byte();
        self.out.truncate(self.pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(f: impl FnOnce(&mut BitWriter<'_>)) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = BitWriter::new(&mut out);
        f(&mut w);
        w.finish();
        out
    }

    #[test]
    fn roundtrip_various_widths() {
        let values = [
            (0b1u64, 1u32),
            (0b10, 2),
            (0b101, 3),
            (0x7F, 7),
            (0xFFFF, 16),
            (0, 5),
            (1, 1),
            ((1 << 48) - 3, 48),
            ((1 << 56) - 1, 56),
            (0x1234_5678, 32),
        ];
        let bytes = written(|w| {
            for &(v, n) in &values {
                w.write_bits(v, n);
            }
        });
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            let lo = r.bits(n.min(32)).unwrap() as u64;
            let hi = if n > 32 { r.bits(n - 32).unwrap() as u64 } else { 0 };
            assert_eq!(lo | hi << 32, v);
        }
    }

    #[test]
    fn writer_appends_after_existing_bytes() {
        let mut out = vec![0xAA, 0xBB];
        let mut w = BitWriter::new(&mut out);
        w.write_bits(0b101, 3);
        w.finish();
        assert_eq!(out, [0xAA, 0xBB, 0b101]);
    }

    #[test]
    fn eof_detection() {
        let mut r = BitReader::new(&[0xAB]);
        assert_eq!(r.bits(8).unwrap(), 0xAB);
        assert_eq!(r.bits(1), Err(Error::UnexpectedEof));
    }

    #[test]
    fn align_and_bytes() {
        let bytes = written(|w| {
            w.write_bits(0b11, 2);
            w.align_to_byte();
            w.write_bytes(b"xyz");
        });
        assert_eq!(bytes.len(), 4);

        // Long enough that the word refill buffers past the stored bytes.
        let mut long = bytes.clone();
        long.extend_from_slice(&[0x55; 16]);
        for data in [&bytes[..], &long[..]] {
            let mut r = BitReader::new(data);
            assert_eq!(r.bits(2).unwrap(), 0b11);
            r.align_to_byte();
            assert_eq!(r.take_bytes(3).unwrap(), b"xyz");
            assert_eq!(r.bytes_consumed(), 4);
        }
        let mut r = BitReader::new(&bytes);
        r.bits(2).unwrap();
        r.align_to_byte();
        assert_eq!(r.take_bytes(4), Err(Error::UnexpectedEof));
    }

    #[test]
    fn refill_consume_and_count() {
        let mut r = BitReader::new(&[0b1010_1100, 0xFF]);
        r.refill();
        assert_eq!(r.available(), 16);
        r.consume(2);
        assert_eq!(r.bits(4).unwrap(), 0b1011);
        assert_eq!(r.bits(2).unwrap(), 0b10);
        assert_eq!(r.bytes_consumed(), 1);
        // Past the end of input the accumulator reads as zero.
        assert_eq!(r.acc >> r.available(), 0);
    }

    #[test]
    fn word_and_byte_refill_agree() {
        let data: Vec<u8> = (0..40u32).map(|i| (i * 37 + 11) as u8).collect();
        for step in [1u32, 3, 7, 13, 15, 28, 32] {
            // `tail` ends inside `data` so its reader goes byte-wise
            // early; the other keeps loading words.
            let mut word = BitReader::new(&data);
            let mut tail = BitReader::new(&data[..12]);
            for _ in 0..(12 * 8 / step) {
                assert_eq!(word.bits(step).unwrap(), tail.bits(step).unwrap(), "step {step}");
            }
        }
    }
}
