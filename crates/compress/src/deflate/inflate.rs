//! The DEFLATE decompressor (RFC 1951).
//!
//! Symbols are decoded through lookup tables whose entries carry
//! everything a decode step needs — what kind of symbol it is, its base
//! value, how many bits the code and its extra bits take — so a symbol
//! costs one load and one shift. A block is decoded by two loops over
//! the same tables: a fast loop that runs while `FAST_IN_SLACK` bytes
//! of input and `FAST_OUT_SLACK` bytes of allocated output remain and
//! therefore checks neither per symbol, and a careful step that makes
//! every check, grows the output, and reports exactly the error the
//! stream deserves. The output is allocated up front from the caller's
//! size hint, never beyond [`MAX_EXPANSION`] times the input.

use std::sync::OnceLock;

use super::huffman::reverse_bits;
use super::{
    CLEN_ORDER, DIST_BASE, DIST_EXTRA, LENGTH_BASE, LENGTH_EXTRA, MAX_CODE_LEN, MAX_MATCH,
};
use crate::bits::BitReader;
use crate::{Error, Result};

/// The most output a DEFLATE stream can produce per input byte: a
/// 258-byte match from a one-bit length code and a one-bit distance
/// code. No allocation made while inflating exceeds the input size
/// times this, whatever size a caller or a container trailer claims.
pub const MAX_EXPANSION: usize = 1032;

/// Input bytes the fast loop needs ahead of it: it refills the bit
/// buffer at most three times between two checks (once before the first
/// turn, twice per turn), each time loading 8 bytes from a position that
/// has advanced by at most 7.
const FAST_IN_SLACK: usize = 3 * 7 + 8;
/// Allocated output the fast loop needs ahead of it: per turn up to
/// three literals and one match, whose word-wise copy may run 7 bytes
/// over.
const FAST_OUT_SLACK: usize = 3 + MAX_MATCH + 7;

/// Decompresses a complete DEFLATE stream.
///
/// # Examples
///
/// ```
/// use persona_compress::deflate::{deflate, inflate};
///
/// let data = b"hello hello hello hello";
/// assert_eq!(inflate(&deflate(data)).unwrap(), data);
/// ```
pub fn inflate(data: &[u8]) -> Result<Vec<u8>> {
    inflate_with_capacity(data, data.len().saturating_mul(4))
}

/// Decompresses a complete DEFLATE stream whose output is expected to
/// be `size_hint` bytes long (a wrong hint costs time, not correctness).
pub fn inflate_with_capacity(data: &[u8], size_hint: usize) -> Result<Vec<u8>> {
    let (out, _consumed) = inflate_from(data, size_hint)?;
    Ok(out)
}

/// Decompresses one DEFLATE stream from the start of `data`, returning
/// the output and the number of input bytes consumed.
///
/// The consumed count includes the final partial byte of the stream
/// rounded up to a whole byte, which is how DEFLATE streams embedded in
/// containers (gzip members, BGZF blocks) are delimited. The output
/// buffer is allocated for `size_hint` bytes, capped at
/// [`MAX_EXPANSION`] times the input, and grown only if that was short.
pub fn inflate_from(data: &[u8], size_hint: usize) -> Result<(Vec<u8>, usize)> {
    let max_out = data.len().saturating_mul(MAX_EXPANSION);
    let mut s = Inflater {
        r: BitReader::new(data),
        out: vec![0; size_hint.saturating_add(FAST_OUT_SLACK).min(max_out)],
        produced: 0,
        max_out,
    };
    let mut dynamic = Tables::default();
    loop {
        let last = s.r.bits(1)?;
        match s.r.bits(2)? {
            0 => s.stored_block()?,
            1 => s.huffman_block(fixed_tables())?,
            2 => {
                s.read_dynamic_tables(&mut dynamic)?;
                s.huffman_block(&dynamic)?;
            }
            _ => return Err(Error::Corrupt("reserved block type 3")),
        }
        if last == 1 {
            break;
        }
    }
    s.r.align_to_byte();
    s.out.truncate(s.produced);
    Ok((s.out, s.r.bytes_consumed()))
}

// Table entries. The low byte is the number of bits the entry stands
// for — the (rest of the) code plus any extra bits; bits 8..12 the
// (rest of the) code alone; bits 12..16 say what the entry is; the high
// half is its value: a literal, a length or distance base, a code-length
// symbol, or the index of a subtable.
/// A literal; the value is the byte.
const LITERAL: u32 = 1 << 15;
/// No symbol decodes from these bits. The low byte is how many bits the
/// stream must still hold for that to be certain rather than a
/// truncation: the full 15 for a gap in an incomplete code, the code's
/// length for a symbol the alphabet reserves.
const INVALID: u32 = 1 << 14;
/// A pointer to a subtable indexed by the bits after the primary ones.
const SUBTABLE: u32 = 1 << 13;
/// The end-of-block symbol.
const END_OF_BLOCK: u32 = 1 << 12;
/// Anything that is neither a literal nor a length/distance base.
const EXCEPTIONAL: u32 = INVALID | SUBTABLE | END_OF_BLOCK;

/// A table entry's kind and value, and its symbol's extra-bit count.
type EntryOf = fn(usize) -> (u32, u32);

fn litlen_entry(sym: usize) -> (u32, u32) {
    match sym {
        0..=255 => (LITERAL | (sym as u32) << 16, 0),
        256 => (END_OF_BLOCK, 0),
        257..=285 => ((LENGTH_BASE[sym - 257] as u32) << 16, LENGTH_EXTRA[sym - 257] as u32),
        _ => (INVALID, 0),
    }
}

fn dist_entry(sym: usize) -> (u32, u32) {
    match sym {
        0..=29 => ((DIST_BASE[sym] as u32) << 16, DIST_EXTRA[sym] as u32),
        _ => (INVALID, 0),
    }
}

fn precode_entry(sym: usize) -> (u32, u32) {
    ((sym as u32) << 16, 0)
}

/// A decoding table for one canonical Huffman code: `N` primary entries
/// indexed by the next `log2(N)` input bits, and for each primary index
/// that longer codes share, a subtable indexed by the bits that follow.
/// Subtables all span the longest possible remainder, so a pointer
/// needs no size.
struct Table<const N: usize> {
    primary: [u32; N],
    sub: Vec<u32>,
    /// No symbol has a code at all (legal for distances).
    empty: bool,
}

impl<const N: usize> Default for Table<N> {
    fn default() -> Self {
        Table { primary: [INVALID | MAX_CODE_LEN as u32; N], sub: Vec::new(), empty: true }
    }
}

impl<const N: usize> Table<N> {
    const BITS: u32 = N.trailing_zeros();
    const SUB_BITS: u32 = MAX_CODE_LEN as u32 - Self::BITS;

    /// Fills the table from per-symbol code lengths (0 = unused, at
    /// most 15).
    ///
    /// Returns an error if the lengths oversubscribe the code space. An
    /// *incomplete* code (undersubscribed) is accepted, matching zlib's
    /// handling of degenerate distance trees; decoding a gap then fails.
    fn build(&mut self, lengths: &[u8], entry_of: EntryOf) -> Result<()> {
        let mut counts = [0u32; MAX_CODE_LEN + 1];
        for &l in lengths {
            counts[l as usize] += 1;
        }
        self.primary.fill(INVALID | MAX_CODE_LEN as u32);
        self.sub.clear();
        self.empty = counts[0] as usize == lengths.len();
        counts[0] = 0;

        let mut left: i32 = 1;
        for &count in &counts[1..] {
            left = (left << 1) - count as i32;
            if left < 0 {
                return Err(Error::Corrupt("over-subscribed Huffman code"));
            }
        }

        // Canonical code values, MSB-first, per length.
        let mut next_code = [0u32; MAX_CODE_LEN + 1];
        for len in 1..=MAX_CODE_LEN {
            next_code[len] = (next_code[len - 1] + counts[len - 1]) << 1;
        }
        for (sym, &l) in lengths.iter().enumerate() {
            if l == 0 {
                continue;
            }
            let len = l as u32;
            // Bit-reversed: the stream delivers a code's first bit lowest.
            let code = reverse_bits(next_code[l as usize], len) as usize;
            next_code[l as usize] += 1;
            let (kind, extra) = entry_of(sym);
            if len <= Self::BITS {
                let entry = kind | len << 8 | (len + extra);
                for slot in self.primary[code..].iter_mut().step_by(1 << len) {
                    *slot = entry;
                }
            } else {
                let prefix = code & (N - 1);
                if self.primary[prefix] & SUBTABLE == 0 {
                    let at = self.sub.len();
                    self.sub.resize(at + (1 << Self::SUB_BITS), INVALID | Self::SUB_BITS);
                    self.primary[prefix] = SUBTABLE | (at as u32) << 16 | Self::BITS;
                }
                let at = (self.primary[prefix] >> 16) as usize;
                let rest = len - Self::BITS;
                let entry = kind | rest << 8 | (rest + extra);
                let subtable = &mut self.sub[at..at + (1 << Self::SUB_BITS)];
                for slot in subtable[code >> Self::BITS..].iter_mut().step_by(1 << rest) {
                    *slot = entry;
                }
            }
        }
        Ok(())
    }

    /// The entry for the symbol at the front of the reader, after every
    /// check: the bits it stands for are buffered and it is a symbol.
    /// Consumes only the primary bits of a subtable lookup.
    fn lookup(&self, r: &mut BitReader<'_>) -> Result<u32> {
        r.refill();
        let mut entry = self.primary[r.acc as usize & (N - 1)];
        if entry & SUBTABLE != 0 {
            if r.available() < Self::BITS {
                return Err(Error::UnexpectedEof);
            }
            r.consume(Self::BITS);
            let index = r.acc as usize & ((1 << Self::SUB_BITS) - 1);
            entry = self.sub[(entry >> 16) as usize + index];
        }
        if entry & INVALID != 0 && self.empty {
            return Err(Error::Corrupt("decode with empty Huffman table"));
        }
        if r.available() < entry & 0xFF {
            return Err(Error::UnexpectedEof);
        }
        if entry & INVALID != 0 {
            return Err(Error::Corrupt("invalid Huffman code"));
        }
        Ok(entry)
    }
}

/// The value of a length or distance entry: its base plus the extra
/// bits that follow the code at the front of `acc`.
#[inline(always)]
fn base_plus_extra(entry: u32, acc: u64) -> usize {
    let (bits, code_len) = (entry & 0xFF, (entry >> 8) & 0xF);
    (entry >> 16) as usize + ((acc & ((1u64 << bits) - 1)) >> code_len) as usize
}

/// The two tables a Huffman block is decoded with.
#[derive(Default)]
struct Tables {
    litlen: Table<2048>,
    dist: Table<256>,
}

struct Inflater<'a> {
    r: BitReader<'a>,
    /// Allocated (zeroed) output; the first `produced` bytes are real.
    out: Vec<u8>,
    produced: usize,
    /// Bound on `out.len()`.
    max_out: usize,
}

impl Inflater<'_> {
    /// Makes sure `n` more bytes of output are allocated.
    fn ensure(&mut self, n: usize) -> Result<()> {
        let need = self.produced + n;
        if need > self.out.len() {
            if need > self.max_out {
                return Err(Error::Corrupt("output exceeds 1032 times the input"));
            }
            let grown = (self.out.len() * 2).max(need + FAST_OUT_SLACK);
            self.out.resize(grown.min(self.max_out), 0);
        }
        Ok(())
    }

    fn stored_block(&mut self) -> Result<()> {
        self.r.align_to_byte();
        let header = self.r.take_bytes(4)?;
        let len = u16::from_le_bytes([header[0], header[1]]);
        let nlen = u16::from_le_bytes([header[2], header[3]]);
        if len != !nlen {
            return Err(Error::Corrupt("stored block LEN/NLEN mismatch"));
        }
        let bytes = self.r.take_bytes(len as usize)?;
        self.ensure(bytes.len())?;
        self.out[self.produced..self.produced + bytes.len()].copy_from_slice(bytes);
        self.produced += bytes.len();
        Ok(())
    }

    /// Reads the dynamic Huffman table definitions of a type-2 block.
    fn read_dynamic_tables(&mut self, tables: &mut Tables) -> Result<()> {
        let r = &mut self.r;
        let hlit = r.bits(5)? as usize + 257;
        let hdist = r.bits(5)? as usize + 1;
        let hclen = r.bits(4)? as usize + 4;
        if hlit > 286 {
            return Err(Error::Corrupt("HLIT > 286"));
        }
        if hdist > 30 {
            return Err(Error::Corrupt("HDIST > 30"));
        }

        let mut precode_lengths = [0u8; 19];
        for &sym in &CLEN_ORDER[..hclen] {
            precode_lengths[sym] = r.bits(3)? as u8;
        }
        let mut precode = Table::<128>::default();
        precode.build(&precode_lengths, precode_entry)?;

        let mut lengths = [0u8; 286 + 30];
        let lengths = &mut lengths[..hlit + hdist];
        let mut i = 0;
        while i < lengths.len() {
            let entry = precode.lookup(r)?;
            r.consume(entry & 0xFF);
            let (fill, rep, overrun) = match entry >> 16 {
                sym @ 0..=15 => (sym as u8, 1, ""),
                16 => {
                    if i == 0 {
                        return Err(Error::Corrupt("repeat code with no previous length"));
                    }
                    (lengths[i - 1], 3 + r.bits(2)? as usize, "length repeat overruns table")
                }
                17 => (0, 3 + r.bits(3)? as usize, "zero repeat overruns table"),
                _ => (0, 11 + r.bits(7)? as usize, "zero repeat overruns table"),
            };
            if i + rep > lengths.len() {
                return Err(Error::Corrupt(overrun));
            }
            lengths[i..i + rep].fill(fill);
            i += rep;
        }

        tables.litlen.build(&lengths[..hlit], litlen_entry)?;
        if tables.litlen.empty {
            return Err(Error::Corrupt("empty literal/length table"));
        }
        tables.dist.build(&lengths[hlit..], dist_entry)
    }

    /// Decodes literal/length and distance symbols until end-of-block.
    fn huffman_block(&mut self, tables: &Tables) -> Result<()> {
        loop {
            if self.r.pos + FAST_IN_SLACK <= self.r.data.len()
                && self.produced + FAST_OUT_SLACK <= self.out.len()
                && self.fast_loop(tables)?
            {
                return Ok(());
            }

            // One symbol with every check made.
            let entry = tables.litlen.lookup(&mut self.r)?;
            if entry & LITERAL != 0 {
                self.r.consume(entry & 0xFF);
                self.ensure(1)?;
                self.out[self.produced] = (entry >> 16) as u8;
                self.produced += 1;
                continue;
            }
            if entry & END_OF_BLOCK != 0 {
                self.r.consume(entry & 0xFF);
                return Ok(());
            }
            let len = base_plus_extra(entry, self.r.acc);
            self.r.consume(entry & 0xFF);
            let entry = tables.dist.lookup(&mut self.r)?;
            let dist = base_plus_extra(entry, self.r.acc);
            self.r.consume(entry & 0xFF);
            if dist > self.produced {
                return Err(Error::Corrupt("match distance before start of output"));
            }
            self.ensure(len)?;
            let (src, dst) = (self.produced - dist, self.produced);
            if dist >= len {
                self.out.copy_within(src..src + len, dst);
            } else {
                for i in 0..len {
                    self.out[dst + i] = self.out[src + i];
                }
            }
            self.produced += len;
        }
    }

    /// Decodes symbols for as long as [`FAST_IN_SLACK`] bytes of input
    /// and [`FAST_OUT_SLACK`] bytes of allocated output remain, which
    /// the caller has checked hold on entry. Returns whether the block
    /// ended; if not, the careful step takes over mid-block.
    ///
    /// The loop is software-pipelined: the literal/length entry of the
    /// next symbol is looked up before the current match is copied, so
    /// the table load overlaps the copy instead of waiting for it.
    fn fast_loop(&mut self, tables: &Tables) -> Result<bool> {
        let data = self.r.data;
        let out = &mut self.out[..];
        let in_limit = data.len() - FAST_IN_SLACK;
        let out_limit = out.len() - FAST_OUT_SLACK;
        let (mut pos, mut acc, mut nbits) = (self.r.pos, self.r.acc, self.r.nbits);
        let mut op = self.produced;

        // Same arithmetic as `BitReader::refill`'s word path; leaves at
        // least 56 bits. `pos <= in_limit` at the head of each turn and
        // at most three refills per turn keep the load in bounds.
        macro_rules! refill {
            () => {
                acc |= u64::from_le_bytes(data[pos..pos + 8].try_into().unwrap()) << nbits;
                pos += ((63 - nbits) >> 3) as usize;
                nbits |= 56;
            };
        }
        macro_rules! consume {
            ($entry:expr) => {
                acc >>= $entry & 0xFF;
                nbits -= $entry & 0xFF;
            };
        }
        macro_rules! litlen {
            () => {
                tables.litlen.primary[acc as usize & 2047]
            };
        }
        macro_rules! literal {
            ($entry:expr) => {
                consume!($entry);
                out[op] = ($entry >> 16) as u8;
                op += 1;
            };
        }

        refill!();
        let mut entry = litlen!();
        let result = loop {
            // `entry` is the lookup of the bits at the front of `acc`,
            // of which there are at least 56.
            if pos > in_limit || op > out_limit {
                break Ok(false);
            }
            if entry & LITERAL != 0 {
                // Up to three literals (15 bits each) on one refill.
                literal!(entry);
                entry = litlen!();
                if entry & LITERAL != 0 {
                    literal!(entry);
                    entry = litlen!();
                    if entry & LITERAL != 0 {
                        literal!(entry);
                        refill!();
                        entry = litlen!();
                        continue;
                    }
                }
                // The lookup read only bits that were already there.
                refill!();
            }
            if entry & EXCEPTIONAL != 0 {
                if entry & SUBTABLE != 0 {
                    consume!(entry);
                    entry = tables.litlen.sub[(entry >> 16) as usize + (acc as usize & 15)];
                    if entry & LITERAL != 0 {
                        literal!(entry);
                        refill!();
                        entry = litlen!();
                        continue;
                    }
                }
                if entry & END_OF_BLOCK != 0 {
                    consume!(entry);
                    break Ok(true);
                }
                if entry & INVALID != 0 {
                    break Err(Error::Corrupt("invalid Huffman code"));
                }
            }
            // A length code with its extra bits takes at most 20 bits, a
            // distance code with its own at most 28.
            let len = base_plus_extra(entry, acc);
            consume!(entry);
            let mut dentry = tables.dist.primary[acc as usize & 255];
            if dentry & EXCEPTIONAL != 0 {
                if dentry & SUBTABLE != 0 {
                    consume!(dentry);
                    dentry = tables.dist.sub[(dentry >> 16) as usize + (acc as usize & 127)];
                }
                if dentry & INVALID != 0 {
                    break Err(Error::Corrupt(if tables.dist.empty {
                        "decode with empty Huffman table"
                    } else {
                        "invalid Huffman code"
                    }));
                }
            }
            let dist = base_plus_extra(dentry, acc);
            consume!(dentry);
            refill!();
            entry = litlen!();
            if dist > op {
                break Err(Error::Corrupt("match distance before start of output"));
            }
            copy_match(out, op, dist, len);
            op += len;
        };
        (self.r.pos, self.r.acc, self.r.nbits) = (pos, acc, nbits);
        self.produced = op;
        result
    }
}

/// Per overlap distance 1..=7: the multiplier that repeats a
/// `dist`-byte value across a 64-bit word.
const REPEAT: [u64; 8] = [
    0,
    0x0101_0101_0101_0101,
    0x0001_0001_0001_0001,
    0x0001_0000_0100_0001,
    0x0000_0001_0000_0001,
    0x0000_0100_0000_0001,
    0x0001_0000_0000_0001,
    0x0100_0000_0000_0001,
];

/// Copies `len` bytes from `dist` back to `op`, a word at a time; may
/// write up to 7 bytes past `op + len`, which must be allocated.
#[inline(always)]
fn copy_match(out: &mut [u8], op: usize, dist: usize, len: usize) {
    let src = op - dist;
    if dist >= 8 {
        // Each word read ends at or before where it is written.
        out.copy_within(src..src + 8, op);
        let mut i = 8;
        while i < len {
            out.copy_within(src + i..src + i + 8, op + i);
            i += 8;
        }
    } else {
        // The source overlaps its own copy: repeat the `dist`-byte
        // period across a word and lay it down in steps of the largest
        // multiple of the period a word holds, so the phases line up.
        let word = u64::from_le_bytes(out[src..src + 8].try_into().unwrap());
        let pattern = (word & ((1u64 << (8 * dist)) - 1)).wrapping_mul(REPEAT[dist]);
        let step = 8 - 8 % dist;
        let mut i = 0;
        while i < len {
            out[op + i..op + i + 8].copy_from_slice(&pattern.to_le_bytes());
            i += step;
        }
    }
}

/// Returns the fixed-Huffman tables of RFC 1951 §3.2.6 (built once).
fn fixed_tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = Tables::default();
        tables.litlen.build(&fixed_litlen_lengths(), litlen_entry).expect("fixed litlen table");
        tables.dist.build(&[5u8; 30], dist_entry).expect("fixed dist table");
        tables
    })
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

#[cfg(test)]
mod tests {
    use super::super::huffman::assign_codes;
    use super::*;
    use crate::bits::BitWriter;

    /// Builds a stream with a bit writer.
    fn stream(f: impl FnOnce(&mut BitWriter<'_>)) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = BitWriter::new(&mut out);
        f(&mut w);
        w.finish();
        out
    }

    /// Writes symbols of the fixed literal/length code.
    struct Fixed {
        lens: [u8; 288],
        codes: [u16; 288],
    }

    impl Fixed {
        fn new() -> Self {
            let lens = fixed_litlen_lengths();
            let mut codes = [0u16; 288];
            assign_codes(&lens, &mut codes);
            Fixed { lens, codes }
        }

        fn put(&self, w: &mut BitWriter<'_>, sym: usize) {
            w.write_bits(self.codes[sym] as u64, self.lens[sym] as u32);
        }

        fn put_dist(&self, w: &mut BitWriter<'_>, code: u32) {
            w.write_bits(reverse_bits(code, 5) as u64, 5);
        }
    }

    fn stored(w: &mut BitWriter<'_>, last: bool, payload: &[u8], nlen_xor: u16) {
        w.write_bits(last as u64, 1);
        w.write_bits(0, 2);
        w.align_to_byte();
        w.write_bytes(&(payload.len() as u16).to_le_bytes());
        w.write_bytes(&(!(payload.len() as u16) ^ nlen_xor).to_le_bytes());
        w.write_bytes(payload);
    }

    #[test]
    fn stored_block() {
        let enc = stream(|w| stored(w, true, b"persona", 0));
        assert_eq!(inflate(&enc).unwrap(), b"persona");
    }

    #[test]
    fn stored_block_bad_nlen() {
        let enc = stream(|w| stored(w, true, b"abc", 1));
        assert!(matches!(inflate(&enc), Err(Error::Corrupt(_))));
    }

    /// Fixed-Huffman block containing "abcabc..." with a match, written
    /// symbol by symbol.
    #[test]
    fn fixed_block_with_match() {
        let fixed = Fixed::new();
        let enc = stream(|w| {
            w.write_bits(1, 1); // BFINAL
            w.write_bits(1, 2); // BTYPE=01 fixed
            for &b in b"abc" {
                fixed.put(w, b as usize);
            }
            // Match: length 6 (code 260, no extra), distance 3 (code 2).
            fixed.put(w, 260);
            fixed.put_dist(w, 2);
            fixed.put(w, 256);
        });
        assert_eq!(inflate(&enc).unwrap(), b"abcabcabc");
    }

    #[test]
    fn reserved_block_type_rejected() {
        let enc = stream(|w| {
            w.write_bits(1, 1);
            w.write_bits(3, 2);
        });
        assert!(matches!(inflate(&enc), Err(Error::Corrupt(_))));
    }

    #[test]
    fn distance_too_far_rejected() {
        let fixed = Fixed::new();
        let enc = stream(|w| {
            w.write_bits(1, 1);
            w.write_bits(1, 2);
            fixed.put(w, b'x' as usize);
            // Length 3 at distance 4 with only 1 byte of history.
            fixed.put(w, 257);
            fixed.put_dist(w, 3);
            fixed.put(w, 256);
        });
        assert!(matches!(inflate(&enc), Err(Error::Corrupt(_))));
    }

    #[test]
    fn reserved_symbols_of_the_fixed_code_rejected() {
        let fixed = Fixed::new();
        for sym in [286usize, 287] {
            let enc = stream(|w| {
                w.write_bits(1, 1);
                w.write_bits(1, 2);
                fixed.put(w, sym);
                fixed.put(w, 256);
            });
            assert!(matches!(inflate(&enc), Err(Error::Corrupt(_))), "symbol {sym}");
        }
        // Distance codes 30 and 31 likewise.
        let enc = stream(|w| {
            w.write_bits(1, 1);
            w.write_bits(1, 2);
            fixed.put(w, b'x' as usize);
            fixed.put(w, 257);
            fixed.put_dist(w, 30);
            w.write_bits(0, 16);
        });
        assert!(matches!(inflate(&enc), Err(Error::Corrupt(_))));
    }

    #[test]
    fn truncated_stream() {
        assert!(matches!(inflate(&[]), Err(Error::UnexpectedEof)));
        assert!(matches!(inflate(&[0x01]), Err(Error::UnexpectedEof)));
    }

    #[test]
    fn empty_fixed_block() {
        let fixed = Fixed::new();
        let enc = stream(|w| {
            w.write_bits(1, 1);
            w.write_bits(1, 2);
            fixed.put(w, 256);
        });
        assert_eq!(inflate(&enc).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn multiple_blocks() {
        let enc = stream(|w| {
            stored(w, false, b"ab", 0);
            stored(w, true, b"cd", 0);
        });
        assert_eq!(inflate_from(&enc, 0).unwrap(), (b"abcd".to_vec(), enc.len()));
    }

    #[test]
    fn overlapping_copy_rle() {
        let fixed = Fixed::new();
        let enc = stream(|w| {
            w.write_bits(1, 1);
            w.write_bits(1, 2);
            fixed.put(w, b'z' as usize);
            // Length 10 (code 264, no extra) at distance 1: 'z' repeated.
            fixed.put(w, 264);
            fixed.put_dist(w, 0);
            fixed.put(w, 256);
        });
        assert_eq!(inflate(&enc).unwrap(), b"zzzzzzzzzzz");
    }

    #[test]
    fn consumed_count_stops_at_the_stream_end() {
        let mut enc = stream(|w| stored(w, true, b"xyz", 0));
        let stream_len = enc.len();
        enc.extend_from_slice(&[0xEE; 40]);
        assert_eq!(inflate_from(&enc, 3).unwrap(), (b"xyz".to_vec(), stream_len));
    }

    #[test]
    fn word_copy_handles_every_short_distance() {
        for dist in 1..=40usize {
            for len in [3usize, 7, 8, 9, 64, 258] {
                let mut out = vec![0u8; 64 + len + 7];
                for (i, b) in out[..64].iter_mut().enumerate() {
                    *b = i as u8 ^ 0xA5;
                }
                let mut expect = out[..64].to_vec();
                for i in 0..len {
                    expect.push(expect[64 - dist + i]);
                }
                copy_match(&mut out, 64, dist, len);
                assert_eq!(&out[..64 + len], &expect[..], "dist {dist} len {len}");
            }
        }
    }

    #[test]
    fn table_long_codes_and_gaps() {
        // One code of every length 1..=15 plus a second 15-bit code: a
        // complete code that needs subtables behind an 11-bit primary.
        let mut lengths: Vec<u8> = (1..=15).collect();
        lengths.push(15);
        let mut codes = vec![0u16; 16];
        assign_codes(&lengths, &mut codes);
        let mut table = Table::<2048>::default();
        table.build(&lengths, litlen_entry).unwrap();
        for (sym, (&len, &code)) in lengths.iter().zip(&codes).enumerate() {
            // Followed by ones, by zeros, and by nothing.
            for pad in [0u64, (1 << 20) - 1] {
                let bytes = stream(|w| {
                    w.write_bits(code as u64, len as u32);
                    w.write_bits(pad, 20);
                });
                let mut r = BitReader::new(&bytes);
                let entry = table.lookup(&mut r).unwrap();
                assert_eq!(entry, LITERAL | (sym as u32) << 16 | entry & 0xFFF, "symbol {sym}");
            }
        }
        assert!(Table::<2048>::default().build(&[1, 1, 1], litlen_entry).is_err());
        assert!(Table::<256>::default().build(&[1, 2, 2, 2], dist_entry).is_err());

        // A single two-bit code: incomplete but legal for distances.
        let mut table = Table::<256>::default();
        table.build(&[2], dist_entry).unwrap();
        let bytes = stream(|w| w.write_bits(0b00, 2));
        assert_eq!(table.lookup(&mut BitReader::new(&bytes)).unwrap() >> 16, 1);
        // Outside the assigned space: corrupt once 15 bits prove it,
        // truncated before.
        let bytes = stream(|w| w.write_bits(0xFFFF, 16));
        let got = table.lookup(&mut BitReader::new(&bytes));
        assert_eq!(got, Err(Error::Corrupt("invalid Huffman code")));
        let got = table.lookup(&mut BitReader::new(&bytes[..1]));
        assert_eq!(got, Err(Error::UnexpectedEof));

        let mut table = Table::<256>::default();
        table.build(&[0, 0, 0], dist_entry).unwrap();
        let got = table.lookup(&mut BitReader::new(&[0xFF, 0xFF]));
        assert_eq!(got, Err(Error::Corrupt("decode with empty Huffman table")));
    }
}
