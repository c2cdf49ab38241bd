//! The DEFLATE compressor: tokenize with LZ77, then emit each block as
//! whichever of stored / fixed-Huffman / dynamic-Huffman is smallest.
//!
//! All working memory — the matcher's table, one block of tokens, the
//! code tables — lives in one per-thread `Encoder` that every call on
//! the thread reuses, and the output is appended to the caller's vector.

use std::cell::RefCell;

use super::huffman::{assign_codes, limited_code_lengths};
use super::inflate::fixed_litlen_lengths;
use super::lz77::{Buckets, Token, TokenBlock};
use super::{
    CLEN_ORDER, DIST_EXTRA, LENGTH_BASE, LENGTH_CODE, LENGTH_EXTRA, MAX_CLEN_LEN, MAX_CODE_LEN,
    MAX_MATCH, MIN_MATCH, NUM_DIST, NUM_LITLEN,
};
use crate::bits::BitWriter;

/// Whether to compress at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressLevel {
    /// Stored blocks only (no compression).
    Store,
    /// A two-entry bucket per hash, greedy parsing: the one search there
    /// is. Used by AGD chunk compression and BGZF.
    Fast,
}

/// Longest input run the matcher's 32-bit positions are trusted with;
/// longer inputs are compressed as independent runs.
const MAX_RUN: usize = 1 << 30;

/// Most symbols the code-length sequence of a dynamic header can have.
const MAX_CLEN_SYMBOLS: usize = NUM_LITLEN + NUM_DIST;

/// Compresses `data` into a complete DEFLATE stream at
/// [`CompressLevel::Fast`].
pub fn deflate(data: &[u8]) -> Vec<u8> {
    deflate_level(data, CompressLevel::Fast)
}

/// Compresses `data` into a complete DEFLATE stream.
///
/// # Examples
///
/// ```
/// use persona_compress::deflate::{deflate_level, inflate, CompressLevel};
///
/// let data = vec![42u8; 1000];
/// let packed = deflate_level(&data, CompressLevel::Fast);
/// assert!(packed.len() < 50);
/// assert_eq!(inflate(&packed).unwrap(), data);
/// ```
pub fn deflate_level(data: &[u8], level: CompressLevel) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    deflate_into(&mut out, data, level);
    out
}

/// Compresses `data` into a complete DEFLATE stream appended to `out`.
pub(crate) fn deflate_into(out: &mut Vec<u8>, data: &[u8], level: CompressLevel) {
    let mut w = BitWriter::new(out);
    if level == CompressLevel::Store {
        emit_stored(&mut w, data, true);
    } else {
        ENCODER.with(|enc| {
            let enc = &mut *enc.borrow_mut();
            let mut rest = data;
            loop {
                let (run, tail) = rest.split_at(rest.len().min(MAX_RUN));
                enc.compress_run(&mut w, run, tail.is_empty());
                rest = tail;
                if rest.is_empty() {
                    break;
                }
            }
        });
    }
    w.finish();
}

thread_local! {
    /// Built on a thread's first compression, freed when it exits.
    static ENCODER: RefCell<Encoder> = RefCell::new(Encoder::default());
}

/// Everything a compression needs besides its input and output.
#[derive(Default)]
struct Encoder {
    matcher: Buckets,
    block: TokenBlock,
    codes: Codes,
}

impl Encoder {
    /// Compresses one run of input into a sequence of blocks.
    fn compress_run(&mut self, w: &mut BitWriter<'_>, run: &[u8], last_run: bool) {
        self.matcher.start(run.len());
        let mut pos = 0usize;
        loop {
            let next = self.matcher.tokenize(run, pos, &mut self.block);
            let last = next == run.len();
            self.codes.emit_block(w, &self.block, &run[pos..next], last && last_run);
            self.block.clear();
            pos = next;
            if last {
                return;
            }
        }
    }
}

/// One Huffman code: per-symbol lengths and LSB-first code values.
struct Code<const N: usize> {
    lens: [u8; N],
    codes: [u16; N],
}

impl<const N: usize> Default for Code<N> {
    fn default() -> Self {
        Code { lens: [0; N], codes: [0; N] }
    }
}

impl<const N: usize> Code<N> {
    /// Builds the length-limited code of `freqs` over the first
    /// `freqs.len()` symbols.
    fn build(&mut self, freqs: &[u32], max_len: usize) {
        self.lens.fill(0);
        limited_code_lengths(freqs, max_len, &mut self.lens[..freqs.len()]);
        assign_codes(&self.lens, &mut self.codes);
    }

    fn set_lengths(&mut self, lens: &[u8]) {
        self.lens.fill(0);
        self.lens[..lens.len()].copy_from_slice(lens);
        assign_codes(&self.lens, &mut self.codes);
    }

    /// Number of leading symbols that must be transmitted, at least `min`.
    fn used(&self, min: usize) -> usize {
        self.lens.iter().rposition(|&l| l != 0).map_or(min, |last| (last + 1).max(min))
    }

    #[inline(always)]
    fn bits(&self, sym: usize) -> (u64, u32) {
        (self.codes[sym] as u64, self.lens[sym] as u32)
    }
}

/// The code tables of the block being emitted.
#[derive(Default)]
struct Codes {
    litlen: Code<288>,
    dist: Code<NUM_DIST>,
    precode: Code<19>,
    /// The dynamic header's code-length sequence, run-length coded:
    /// `(precode symbol, extra-bits value)`.
    clen_syms: Vec<(u8, u8)>,
}

impl Codes {
    /// Emits one block in the cheapest of the three encodings.
    fn emit_block(&mut self, w: &mut BitWriter<'_>, block: &TokenBlock, raw: &[u8], last: bool) {
        let mut litlen_freq = block.litlen_freq;
        litlen_freq[256] += 1; // End-of-block symbol.
        self.litlen.build(&litlen_freq, MAX_CODE_LEN);
        self.dist.build(&block.dist_freq, MAX_CODE_LEN);
        let header_bits = self.plan_dynamic_header();
        let dynamic_bits = header_bits
            + body_bits(&litlen_freq, &block.dist_freq, &self.litlen.lens, &self.dist.lens);
        // Stored cost: align + 4-byte header per 65535-byte piece.
        let stored_bits = ((raw.len() / 65_535 + 1) * 5 * 8 + raw.len() * 8 + 7) as u64;

        // The block's own code is the optimal one for its body, so the
        // fixed code can only win by less than the dynamic header: cost
        // it only where that header is a noticeable part of the block.
        let mut fixed_bits = u64::MAX;
        if header_bits * 32 > dynamic_bits {
            fixed_bits =
                body_bits(&litlen_freq, &block.dist_freq, &fixed_litlen_lengths(), &FIXED_DIST);
        }

        if stored_bits <= dynamic_bits && stored_bits <= fixed_bits {
            emit_stored(w, raw, last);
            return;
        }
        w.reserve((3 + dynamic_bits.min(fixed_bits)).div_ceil(8) as usize);
        w.write_bits(last as u64, 1);
        if fixed_bits <= dynamic_bits {
            w.write_bits(1, 2);
            self.set_fixed();
        } else {
            w.write_bits(2, 2);
            self.emit_dynamic_header(w);
        }
        self.emit_tokens(w, block.tokens());
    }

    fn set_fixed(&mut self) {
        self.litlen.set_lengths(&fixed_litlen_lengths());
        self.dist.set_lengths(&FIXED_DIST);
    }

    /// Run-length codes the litlen + dist code lengths per RFC 1951
    /// §3.2.7 into `clen_syms`, builds the precode for them, and
    /// returns the size of the dynamic header in bits.
    fn plan_dynamic_header(&mut self) -> u64 {
        let (hlit, hdist) = (self.litlen.used(257), self.dist.used(1));
        let mut all = [0u8; MAX_CLEN_SYMBOLS];
        all[..hlit].copy_from_slice(&self.litlen.lens[..hlit]);
        all[hlit..hlit + hdist].copy_from_slice(&self.dist.lens[..hdist]);
        let all = &all[..hlit + hdist];

        self.clen_syms.clear();
        let mut freq = [0u32; 19];
        let mut push = |syms: &mut Vec<(u8, u8)>, sym: u8, extra: usize| {
            syms.push((sym, extra as u8));
            freq[sym as usize] += 1;
        };
        let mut i = 0usize;
        while i < all.len() {
            let v = all[i];
            let run = all[i..].iter().take_while(|&&l| l == v).count();
            let mut left = run;
            if v == 0 {
                while left >= 11 {
                    let take = left.min(138);
                    push(&mut self.clen_syms, 18, take - 11);
                    left -= take;
                }
                if left >= 3 {
                    push(&mut self.clen_syms, 17, left - 3);
                    left = 0;
                }
            } else {
                push(&mut self.clen_syms, v, 0);
                left -= 1;
                while left >= 3 {
                    let take = left.min(6);
                    push(&mut self.clen_syms, 16, take - 3);
                    left -= take;
                }
            }
            for _ in 0..left {
                push(&mut self.clen_syms, v, 0);
            }
            i += run;
        }

        self.precode.build(&freq, MAX_CLEN_LEN);
        let hclen = self.hclen();
        let coded: u64 =
            (0..19).map(|s| freq[s] as u64 * (self.precode.lens[s] + CLEN_EXTRA[s]) as u64).sum();
        5 + 5 + 4 + 3 * hclen as u64 + coded
    }

    /// Number of precode lengths transmitted, in the peculiar
    /// [`CLEN_ORDER`], at least 4.
    fn hclen(&self) -> usize {
        let last = CLEN_ORDER.iter().rposition(|&s| self.precode.lens[s] != 0);
        last.map_or(4, |last| (last + 1).max(4))
    }

    /// Writes the dynamic block header planned by
    /// [`plan_dynamic_header`](Self::plan_dynamic_header).
    fn emit_dynamic_header(&self, w: &mut BitWriter<'_>) {
        let hclen = self.hclen();
        w.write_bits((self.litlen.used(257) - 257) as u64, 5);
        w.write_bits((self.dist.used(1) - 1) as u64, 5);
        w.write_bits((hclen - 4) as u64, 4);
        for &sym in &CLEN_ORDER[..hclen] {
            w.write_bits(self.precode.lens[sym] as u64, 3);
        }
        for &(sym, extra) in &self.clen_syms {
            let (code, len) = self.precode.bits(sym as usize);
            w.write_bits(code | (extra as u64) << len, len + CLEN_EXTRA[sym as usize] as u32);
        }
    }

    /// Emits the token stream plus end-of-block under the current codes.
    fn emit_tokens(&self, w: &mut BitWriter<'_>, tokens: &[Token]) {
        // Per match length: the length symbol's code with its extra
        // bits appended, `bits << 5 | bit count`.
        let mut length_bits = [0u32; MAX_MATCH - MIN_MATCH + 1];
        for (k, packed) in length_bits.iter_mut().enumerate() {
            let lc = LENGTH_CODE[k] as usize;
            let (code, len) = self.litlen.bits(257 + lc);
            let extra = (k + MIN_MATCH - LENGTH_BASE[lc] as usize) as u32;
            *packed = (code as u32 | extra << len) << 5 | (len + LENGTH_EXTRA[lc] as u32);
        }
        for &t in tokens {
            if t.is_match() {
                let packed = length_bits[t.len_minus_min()];
                let (lbits, ln) = ((packed >> 5) as u64, packed & 31);
                let dc = t.dist_code();
                let (dcode, dlen) = self.dist.bits(dc);
                let extra = DIST_EXTRA[dc] as u32;
                let dbits = dcode | (((t.dist() - 1) as u64) & ((1 << extra) - 1)) << dlen;
                // At most (15 + 5) + (15 + 13) bits.
                w.write_bits(lbits | dbits << ln, ln + dlen + extra);
            } else {
                let (code, len) = self.litlen.bits(t.byte() as usize);
                w.write_bits(code, len);
            }
        }
        let (code, len) = self.litlen.bits(256);
        w.write_bits(code, len);
    }
}

/// Code lengths of the fixed distance code.
const FIXED_DIST: [u8; NUM_DIST] = [5; NUM_DIST];

/// Extra bits that follow each precode symbol.
const CLEN_EXTRA: [u8; 19] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 7];

/// Size in bits of a block's tokens and end-of-block under a code pair.
fn body_bits(
    litlen_freq: &[u32; NUM_LITLEN],
    dist_freq: &[u32; NUM_DIST],
    litlen_lens: &[u8; 288],
    dist_lens: &[u8; NUM_DIST],
) -> u64 {
    let mut bits = 0u64;
    for (sym, &f) in litlen_freq.iter().enumerate() {
        let extra = if sym >= 257 { LENGTH_EXTRA[sym - 257] } else { 0 };
        bits += f as u64 * (litlen_lens[sym] + extra) as u64;
    }
    for (sym, &f) in dist_freq.iter().enumerate() {
        bits += f as u64 * (dist_lens[sym] + DIST_EXTRA[sym]) as u64;
    }
    bits
}

/// Emits stored (type 0) blocks covering `raw`, splitting at 65535 bytes.
fn emit_stored(w: &mut BitWriter<'_>, raw: &[u8], last: bool) {
    let mut rest = raw;
    loop {
        let (piece, tail) = rest.split_at(rest.len().min(65_535));
        w.write_bits((last && tail.is_empty()) as u64, 1);
        w.write_bits(0, 2);
        w.align_to_byte();
        w.write_bytes(&(piece.len() as u16).to_le_bytes());
        w.write_bytes(&(!(piece.len() as u16)).to_le_bytes());
        w.write_bytes(piece);
        rest = tail;
        if rest.is_empty() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::inflate::inflate;
    use super::*;

    fn roundtrip(data: &[u8], level: CompressLevel) -> usize {
        let packed = deflate_level(data, level);
        assert_eq!(inflate(&packed).unwrap(), data, "level {level:?}");
        packed.len()
    }

    const LEVELS: [CompressLevel; 2] = [CompressLevel::Store, CompressLevel::Fast];

    #[test]
    fn empty_and_tiny() {
        for level in LEVELS {
            roundtrip(b"", level);
            roundtrip(b"x", level);
            roundtrip(b"ab", level);
            roundtrip(b"abc", level);
            roundtrip(b"abcd", level);
        }
    }

    #[test]
    fn compresses_repetitive_data() {
        let data = b"TATTAGGACCA".repeat(2000);
        let n = roundtrip(&data, CompressLevel::Fast);
        assert!(n < data.len() / 10, "{} of {}", n, data.len());
    }

    #[test]
    fn handles_incompressible_data() {
        // Pseudo-random bytes: should fall back near stored size.
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        for level in LEVELS {
            let n = roundtrip(&data, level);
            assert!(n <= data.len() + data.len() / 100 + 64, "{level:?}: {n}");
        }
    }

    #[test]
    fn store_level_is_stored() {
        let data = b"abcdef".repeat(10);
        let packed = deflate_level(&data, CompressLevel::Store);
        // 1 stored block: 5 bytes overhead.
        assert_eq!(packed.len(), data.len() + 5);
        assert_eq!(inflate(&packed).unwrap(), data);
        // Pieces of at most 65535 bytes, 5 bytes of header each.
        let big = vec![9u8; 65_535 * 2 + 1];
        assert_eq!(roundtrip(&big, CompressLevel::Store), big.len() + 15);
    }

    #[test]
    fn multi_block_inputs() {
        // Enough tokens to force several blocks.
        let mut data = Vec::new();
        for i in 0..300_000u32 {
            data.push((i % 251) as u8);
            if i % 97 == 0 {
                data.extend_from_slice(b"REPEATREPEAT");
            }
        }
        roundtrip(&data, CompressLevel::Fast);
    }

    #[test]
    fn genomic_like_text_ratio() {
        // 4-letter alphabet text should compress well below 3 bits/char.
        let mut x = 99u64;
        let data: Vec<u8> = (0..200_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                b"ACGT"[(x >> 60) as usize & 3]
            })
            .collect();
        let n = roundtrip(&data, CompressLevel::Fast);
        assert!((n as f64) < data.len() as f64 * 0.40, "ratio {}", n as f64 / data.len() as f64);
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        roundtrip(&data, CompressLevel::Fast);
    }

    #[test]
    fn appends_after_existing_output() {
        let data = b"appended appended appended";
        let mut out = b"prefix".to_vec();
        deflate_into(&mut out, data, CompressLevel::Fast);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(inflate(&out[6..]).unwrap(), data);
    }

    #[test]
    fn small_blocks_may_use_the_fixed_code() {
        // Two literals and an end-of-block: a dynamic header would cost
        // more than the whole fixed-coded block.
        let packed = deflate_level(b"hi", CompressLevel::Fast);
        assert_eq!(packed[0] & 0b111, 0b011, "final block, fixed code");
        assert_eq!(packed.len(), 4);
        assert_eq!(inflate(&packed).unwrap(), b"hi");
    }
}
