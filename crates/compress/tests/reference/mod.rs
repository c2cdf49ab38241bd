//! The bit-at-a-time inflater this crate shipped before the table-driven
//! fast loop: a 10-bit lookup plus a one-bit-per-step canonical walk
//! over a byte-refilled [`BitReader`]. Kept verbatim as the oracle the
//! production decoder is compared against — on what it decodes *and* on
//! which error a damaged stream produces.

#![allow(dead_code, clippy::needless_range_loop)]

use std::sync::OnceLock;

use persona_compress::deflate::{
    CLEN_ORDER, DIST_BASE, DIST_EXTRA, LENGTH_BASE, LENGTH_EXTRA, MAX_CODE_LEN,
};
use persona_compress::{Error, Result};

/// Reads bits LSB-first from a byte slice, as required by RFC 1951.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte index to refill from.
    pos: usize,
    /// Bit accumulator; the low `nbits` bits are valid.
    acc: u64,
    /// Number of valid bits in `acc`.
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0, acc: 0, nbits: 0 }
    }

    /// Ensures at least `n` bits (n <= 56) are buffered, if input remains.
    #[inline]
    fn refill(&mut self) {
        while self.nbits <= 56 && self.pos < self.data.len() {
            self.acc |= (self.data[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Returns the next `n` bits without consuming them, zero-padded past
    /// the end of input.
    #[inline]
    pub fn peek(&mut self, n: u32) -> u32 {
        debug_assert!(n <= 32);
        if self.nbits < n {
            self.refill();
        }
        (self.acc & ((1u64 << n) - 1)) as u32
    }

    /// Consumes `n` bits that were previously peeked.
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(self.nbits >= n);
        self.acc >>= n;
        self.nbits -= n;
    }

    /// Reads and consumes `n` bits (n <= 32), LSB-first.
    #[inline]
    pub fn bits(&mut self, n: u32) -> Result<u32> {
        if n == 0 {
            return Ok(0);
        }
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

    /// Discards buffered bits up to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        let drop = self.nbits % 8;
        self.acc >>= drop;
        self.nbits -= drop;
    }

    /// Reads `buf.len()` whole bytes; the reader must be byte-aligned.
    pub fn read_bytes(&mut self, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(self.nbits % 8, 0, "read_bytes requires byte alignment");
        let mut i = 0;
        // Drain the accumulator first.
        while self.nbits >= 8 && i < buf.len() {
            buf[i] = (self.acc & 0xFF) as u8;
            self.acc >>= 8;
            self.nbits -= 8;
            i += 1;
        }
        let rest = buf.len() - i;
        if self.data.len() - self.pos < rest {
            return Err(Error::UnexpectedEof);
        }
        buf[i..].copy_from_slice(&self.data[self.pos..self.pos + rest]);
        self.pos += rest;
        Ok(())
    }

    /// Returns the number of whole bytes consumed from the input so far,
    /// counting buffered-but-unconsumed bits as not yet consumed.
    pub fn bytes_consumed(&self) -> usize {
        self.pos - (self.nbits as usize) / 8
    }
}

/// Width of the one-level fast lookup table, in bits.
const FAST_BITS: u32 = 10;

/// A canonical Huffman decoder built from code lengths.
///
/// Decoding uses a `2^10`-entry fast table for codes of length <= 10 and
/// a counts/offsets scan (as in zlib's `puff`) for longer codes.
pub struct Decoder {
    /// Fast table entry: `(symbol << 4) | code_len`, or 0 when the prefix
    /// belongs to a code longer than [`FAST_BITS`] (or is unused).
    fast: Vec<u16>,
    /// `counts[len]` = number of codes of each length 0..=15.
    counts: [u16; 16],
    /// Symbols sorted by (code length, symbol value).
    symbols: Vec<u16>,
    /// Whether the table contains at least one symbol.
    nonempty: bool,
}

impl Decoder {
    /// Builds a decoder from per-symbol code lengths (0 = unused).
    ///
    /// Returns an error if the lengths oversubscribe the code space. An
    /// *incomplete* code (undersubscribed) is accepted, matching zlib's
    /// handling of degenerate distance trees; decoding a gap then fails.
    pub fn from_lengths(lengths: &[u8]) -> Result<Self> {
        let mut counts = [0u16; 16];
        for &l in lengths {
            if l as usize > MAX_CODE_LEN {
                return Err(Error::Corrupt("code length exceeds 15"));
            }
            counts[l as usize] += 1;
        }
        let nonempty = (counts[0] as usize) < lengths.len();
        if !nonempty {
            return Ok(Decoder {
                fast: vec![0; 1 << FAST_BITS],
                counts,
                symbols: Vec::new(),
                nonempty,
            });
        }

        // Check for an over-subscribed code.
        let mut left: i32 = 1;
        for len in 1..=MAX_CODE_LEN {
            left <<= 1;
            left -= counts[len] as i32;
            if left < 0 {
                return Err(Error::Corrupt("over-subscribed Huffman code"));
            }
        }

        // Offsets of the first symbol of each length in `symbols`.
        let mut offsets = [0usize; 16];
        for len in 1..MAX_CODE_LEN {
            offsets[len + 1] = offsets[len] + counts[len] as usize;
        }
        let mut symbols = vec![0u16; lengths.len() - counts[0] as usize];
        for (sym, &l) in lengths.iter().enumerate() {
            if l != 0 {
                symbols[offsets[l as usize]] = sym as u16;
                offsets[l as usize] += 1;
            }
        }

        // Canonical code values, MSB-first, then bit-reversed into the
        // LSB-first fast table.
        let mut fast = vec![0u16; 1 << FAST_BITS];
        let mut code = 0u32;
        let mut idx = 0usize;
        for len in 1..=MAX_CODE_LEN as u32 {
            for _ in 0..counts[len as usize] {
                let sym = symbols[idx];
                idx += 1;
                if len <= FAST_BITS {
                    let rev = reverse_bits(code, len);
                    let entry = (sym << 4) | len as u16;
                    let step = 1usize << len;
                    let mut i = rev as usize;
                    while i < (1 << FAST_BITS) {
                        fast[i] = entry;
                        i += step;
                    }
                }
                code += 1;
            }
            code <<= 1;
        }

        Ok(Decoder { fast, counts, symbols, nonempty })
    }

    /// Decodes one symbol from the bit reader.
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16> {
        if !self.nonempty {
            return Err(Error::Corrupt("decode with empty Huffman table"));
        }
        let look = r.peek(FAST_BITS);
        let entry = self.fast[look as usize];
        if entry != 0 {
            let len = (entry & 0xF) as u32;
            // `peek` zero-pads past end of input; `bits` re-checks that
            // the matched code is backed by real input and errors if the
            // match only existed because of the padding.
            r.bits(len)?;
            return Ok(entry >> 4);
        }
        // Slow path: walk lengths beyond the fast table incrementally.
        let mut code = 0usize;
        let mut first = 0usize;
        let mut index = 0usize;
        for len in 1..=MAX_CODE_LEN {
            code |= r.bits(1)? as usize;
            let count = self.counts[len] as usize;
            if code < first + count {
                return Ok(self.symbols[index + (code - first)]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(Error::Corrupt("invalid Huffman code"))
    }

    /// Whether this decoder has any symbols at all.
    pub fn is_empty(&self) -> bool {
        !self.nonempty
    }
}

/// Reverses the low `n` bits of `v`.
#[inline]
pub fn reverse_bits(v: u32, n: u32) -> u32 {
    v.reverse_bits() >> (32 - n)
}

/// Decompresses one DEFLATE stream from the start of `data`, returning
/// the output and the number of input bytes consumed.
///
/// The consumed count includes the final partial byte of the stream
/// rounded up to a whole byte, which is how DEFLATE streams embedded in
/// containers (gzip members, BGZF blocks) are delimited.
pub fn inflate_from(data: &[u8], capacity_hint: usize) -> Result<(Vec<u8>, usize)> {
    let mut r = BitReader::new(data);
    let mut out: Vec<u8> = Vec::with_capacity(capacity_hint.min(1 << 30));
    loop {
        let bfinal = r.bits(1)?;
        let btype = r.bits(2)?;
        match btype {
            0 => inflate_stored(&mut r, &mut out)?,
            1 => {
                let (lit, dist) = fixed_tables();
                inflate_block(&mut r, &mut out, lit, dist)?;
            }
            2 => {
                let (lit, dist) = read_dynamic_tables(&mut r)?;
                inflate_block(&mut r, &mut out, &lit, &dist)?;
            }
            _ => return Err(Error::Corrupt("reserved block type 3")),
        }
        if bfinal == 1 {
            break;
        }
    }
    r.align_to_byte();
    Ok((out, r.bytes_consumed()))
}

fn inflate_stored(r: &mut BitReader<'_>, out: &mut Vec<u8>) -> Result<()> {
    r.align_to_byte();
    let mut hdr = [0u8; 4];
    r.read_bytes(&mut hdr)?;
    let len = u16::from_le_bytes([hdr[0], hdr[1]]);
    let nlen = u16::from_le_bytes([hdr[2], hdr[3]]);
    if len != !nlen {
        return Err(Error::Corrupt("stored block LEN/NLEN mismatch"));
    }
    let start = out.len();
    out.resize(start + len as usize, 0);
    r.read_bytes(&mut out[start..])?;
    Ok(())
}

/// Decodes litlen/dist symbols until end-of-block.
fn inflate_block(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    lit: &Decoder,
    dist: &Decoder,
) -> Result<()> {
    loop {
        let sym = lit.decode(r)?;
        match sym {
            0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            257..=285 => {
                let idx = (sym - 257) as usize;
                let len = LENGTH_BASE[idx] as usize + r.bits(LENGTH_EXTRA[idx] as u32)? as usize;
                let dsym = dist.decode(r)?;
                if dsym as usize >= DIST_BASE.len() {
                    return Err(Error::Corrupt("invalid distance symbol"));
                }
                let didx = dsym as usize;
                let distance = DIST_BASE[didx] as usize + r.bits(DIST_EXTRA[didx] as u32)? as usize;
                if distance > out.len() {
                    return Err(Error::Corrupt("match distance before start of output"));
                }
                copy_match(out, distance, len);
            }
            _ => return Err(Error::Corrupt("invalid literal/length symbol")),
        }
    }
}

/// Appends `len` bytes copied from `distance` bytes back, handling the
/// overlapping (RLE-style) case.
#[inline]
fn copy_match(out: &mut Vec<u8>, distance: usize, len: usize) {
    let start = out.len() - distance;
    if distance >= len {
        // Non-overlapping: copy within one buffer via split reborrow.
        out.reserve(len);
        let old_len = out.len();
        // Extend then copy_within avoids per-byte bounds checks.
        out.resize(old_len + len, 0);
        out.copy_within(start..start + len, old_len);
    } else {
        out.reserve(len);
        for i in 0..len {
            let b = out[start + i];
            out.push(b);
        }
    }
}

/// Reads the dynamic Huffman table definitions of a type-2 block.
fn read_dynamic_tables(r: &mut BitReader<'_>) -> Result<(Decoder, Decoder)> {
    let hlit = r.bits(5)? as usize + 257;
    let hdist = r.bits(5)? as usize + 1;
    let hclen = r.bits(4)? as usize + 4;
    if hlit > 286 {
        return Err(Error::Corrupt("HLIT > 286"));
    }
    if hdist > 30 {
        return Err(Error::Corrupt("HDIST > 30"));
    }

    let mut clen_lengths = [0u8; 19];
    for &pos in CLEN_ORDER.iter().take(hclen) {
        clen_lengths[pos] = r.bits(3)? as u8;
    }
    let clen_dec = Decoder::from_lengths(&clen_lengths)?;

    let mut lengths = vec![0u8; hlit + hdist];
    let mut i = 0;
    while i < lengths.len() {
        let sym = clen_dec.decode(r)?;
        match sym {
            0..=15 => {
                lengths[i] = sym as u8;
                i += 1;
            }
            16 => {
                if i == 0 {
                    return Err(Error::Corrupt("repeat code with no previous length"));
                }
                let prev = lengths[i - 1];
                let rep = 3 + r.bits(2)? as usize;
                if i + rep > lengths.len() {
                    return Err(Error::Corrupt("length repeat overruns table"));
                }
                for _ in 0..rep {
                    lengths[i] = prev;
                    i += 1;
                }
            }
            17 => {
                let rep = 3 + r.bits(3)? as usize;
                if i + rep > lengths.len() {
                    return Err(Error::Corrupt("zero repeat overruns table"));
                }
                i += rep;
            }
            18 => {
                let rep = 11 + r.bits(7)? as usize;
                if i + rep > lengths.len() {
                    return Err(Error::Corrupt("zero repeat overruns table"));
                }
                i += rep;
            }
            _ => return Err(Error::Corrupt("invalid code-length symbol")),
        }
    }

    let lit = Decoder::from_lengths(&lengths[..hlit])?;
    if lit.is_empty() {
        return Err(Error::Corrupt("empty literal/length table"));
    }
    let dist = Decoder::from_lengths(&lengths[hlit..])?;
    Ok((lit, dist))
}

/// Returns the fixed-Huffman decoders of RFC 1951 §3.2.6 (built once).
fn fixed_tables() -> (&'static Decoder, &'static Decoder) {
    static TABLES: OnceLock<(Decoder, Decoder)> = OnceLock::new();
    let (lit, dist) = TABLES.get_or_init(|| {
        let lit = Decoder::from_lengths(&fixed_litlen_lengths()).expect("fixed litlen table");
        let dist = Decoder::from_lengths(&[5u8; 30]).expect("fixed dist table");
        (lit, dist)
    });
    (lit, dist)
}

/// Code lengths of the fixed literal/length alphabet.
pub fn fixed_litlen_lengths() -> [u8; 288] {
    let mut lens = [0u8; 288];
    for (i, l) in lens.iter_mut().enumerate() {
        *l = match i {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
    }
    lens
}
