//! The FM-index: BWT + occurrence checkpoints + sampled positions.
//!
//! Supports backward search (`count`), interval extension (the primitive
//! under BWA-MEM's SMEM seeding) and `locate`. Everything one rank query
//! needs — the checkpointed counts, the [`OCC_BLOCK`] BWT symbols they
//! cover (2 bits each, as two bit planes) and the block's sampled-row
//! marks — shares one 64-byte cache line, so a backward-search step is
//! one (random) line fetch plus two masked popcounts, and both ends of
//! an interval are answered from the same line once the interval is
//! narrower than a block. The walk is still a chain of dependent,
//! data-addressed loads over a structure larger than L1: the "memory
//! bound … cache misses and DTLB misses" behaviour the paper measures
//! for BWA-MEM in Fig. 8, at the cost the hardware sets rather than the
//! cost of a byte scan.
//!
//! **The k-mer table.** The first steps of a backward search are the
//! dearest: the interval is wide, so its two ends sit in two different
//! lines. A table of the interval of every [`KMER`]-mer (`4^8` entries,
//! 512 KiB, built at load time by a depth-first walk of the 8-mer trie,
//! one `extend` per node) answers those steps with one load:
//! [`FmIndex::backward_match`] starts every walk with a lookup of the
//! last [`KMER`] bases when they are all `A`/`C`/`G`/`T` and the k-mer
//! occurs, and steps one base at a time from there (or from the start,
//! otherwise). An entry is the stepwise result by construction, and a
//! k-mer that occurs has every suffix occurring too, so the walk ends
//! where the stepwise one does and reports the same step count.
//!
//! **Finishing on the text.** Once the interval holds one row, every
//! further step only confirms one base of the match's single occurrence
//! with another dependent line fetch. The index therefore keeps the text
//! too, as 2-bit codes (`text_len / 4` bytes; BWA keeps its `.pac` for
//! the same reason), and [`FmIndex::backward_match`] leaves the BWT as
//! soon as its one row is sampled: the row's marks share its line, so
//! the sample costs no extra fetch, and it gives the occurrence's text
//! position. From there the walk compares read codes with the text
//! leftward, one code per logical step, and returns [`Hits::At`] that
//! position. The stepwise walk's rules carry over exactly: a read `N`
//! stops without a step, a mismatch is the failing step, reaching text
//! position 0 is a failing step (the BWT's sentinel), and contig
//! boundaries do not exist in either (the text is the contigs'
//! concatenation, genome `N`s stored as `A`).

use persona_seq::Genome;

use crate::bwt::{base_code, Bwt, ALPHABET, CODES, NOT_ACGT};
use crate::sa::suffix_array;

/// Rows per occurrence checkpoint (one cache line).
pub const OCC_BLOCK: usize = 128;
/// Text-position sampling rate for locate.
pub const SA_SAMPLE: usize = 32;
/// Bases resolved by one k-mer table lookup (module docs).
pub const KMER: usize = 8;

/// One cache line of the index: everything about [`OCC_BLOCK`] rows.
///
/// Symbols are stored as `code - 1` split into a low and a high bit
/// plane (row `r` of the block is bit `r % 64` of word `r / 64`). The
/// sentinel row is stored as an `A` and counted as one in `occ`; it is
/// handled out of band by [`FmIndex::rank_pair`] and [`FmIndex::lf`].
#[repr(C, align(64))]
#[derive(Clone, Copy, Default)]
struct Line {
    /// Occurrences of each symbol before this block.
    occ: [u32; 4],
    /// Low bit of each row's symbol.
    lo: [u64; 2],
    /// High bit of each row's symbol.
    hi: [u64; 2],
    /// Set for rows whose suffix position is a multiple of [`SA_SAMPLE`].
    marks: [u64; 2],
}

/// The lowest `bits` (0..=64) bits set.
#[inline(always)]
fn low_mask(bits: usize) -> u64 {
    if bits == 0 {
        0
    } else {
        u64::MAX >> (64 - bits)
    }
}

impl Line {
    /// Per 64-row word, the rows holding symbol `p` (`code - 1`).
    #[inline(always)]
    fn matches(&self, p: usize) -> [u64; 2] {
        let xl = if p & 1 != 0 { 0 } else { u64::MAX };
        let xh = if p & 2 != 0 { 0 } else { u64::MAX };
        [(self.lo[0] ^ xl) & (self.hi[0] ^ xh), (self.lo[1] ^ xl) & (self.hi[1] ^ xh)]
    }

    /// Occurrences of the symbol `m` was built for before row `off` of
    /// this block, `off` in `0..OCC_BLOCK`.
    #[inline(always)]
    fn rank(&self, p: usize, m: [u64; 2], off: usize) -> u32 {
        self.occ[p] + count_before(m, off)
    }
}

/// Set bits among the first `off` (`0..OCC_BLOCK`) rows of a block's
/// two 64-row words.
#[inline(always)]
fn count_before(words: [u64; 2], off: usize) -> u32 {
    (words[0] & low_mask(off.min(64))).count_ones()
        + (words[1] & low_mask(off.saturating_sub(64))).count_ones()
}

/// An FM-index over a genome's linear concatenation.
pub struct FmIndex {
    /// `rows / OCC_BLOCK + 1` lines, so row `rows` itself has a line.
    lines: Vec<Line>,
    /// Marked rows before each line.
    sample_rank: Vec<u32>,
    /// Text positions of the marked rows, in row order.
    samples: Vec<u32>,
    /// `c_array[c]` = rows whose suffix starts with a symbol below `c`.
    c_array: [u32; ALPHABET],
    /// The row whose BWT symbol is the sentinel (suffix position 0).
    sentinel_row: u32,
    /// BWT length, `text_len + 1`.
    rows: u32,
    /// Whether the CPU has the `popcnt` instruction.
    popcnt: bool,
    /// The interval of every [`KMER`]-mer, indexed by its 2-bit codes
    /// (`A` = 0 … `T` = 3) with the first base most significant; empty
    /// for a k-mer that does not occur.
    kmers: Vec<Interval>,
    /// The text as 2-bit codes (`code - 1`), four per byte, position
    /// `i` in bits `2 * (i % 4)..` of byte `i / 4`.
    text: Vec<u8>,
}

/// A half-open BWT row interval `[lo, hi)` representing all suffixes
/// prefixed by some query pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// First row.
    pub lo: u32,
    /// One-past-last row.
    pub hi: u32,
}

impl Interval {
    /// Number of matches in the interval.
    pub fn count(&self) -> u32 {
        self.hi - self.lo
    }

    /// Whether the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }
}

/// What [`FmIndex::backward_match`] found: the BWT rows of the match,
/// or, for a match finished on the text, the text position of its one
/// occurrence (what [`FmIndex::locate_row`] would give for its row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hits {
    /// The interval of the match's rows.
    Rows(Interval),
    /// The text position of the match's only occurrence.
    At(u32),
}

impl Hits {
    /// Number of occurrences.
    pub fn count(&self) -> u32 {
        match self {
            Hits::Rows(iv) => iv.count(),
            Hits::At(_) => 1,
        }
    }
}

impl FmIndex {
    /// Builds an FM-index over a genome's concatenated contigs.
    ///
    /// # Panics
    ///
    /// Panics if the genome exceeds `u32::MAX - 2` bases.
    pub fn build(genome: &Genome) -> Self {
        let text: Vec<u8> = genome.linear_iter().map(base_code).collect();
        Self::build_from_codes(text)
    }

    /// Builds an FM-index from raw text codes (1..=4).
    pub fn build_from_codes(text: Vec<u8>) -> Self {
        let sa = suffix_array(&text);
        let bwt = Bwt::from_sa(&text, &sa);
        let rows = bwt.len();

        let mut lines = vec![Line::default(); rows / OCC_BLOCK + 1];
        let mut sample_rank = Vec::with_capacity(lines.len());
        let mut samples = Vec::with_capacity(text.len() / SA_SAMPLE + 1);
        let mut counts = [0u32; 4];
        // `chunks` is one block short when the last row opens a block.
        let blocks = bwt.data.chunks(OCC_BLOCK).chain([&[][..]]);
        for (b, (line, block)) in lines.iter_mut().zip(blocks).enumerate() {
            line.occ = counts;
            sample_rank.push(samples.len() as u32);
            for (off, &c) in block.iter().enumerate() {
                let p = c.saturating_sub(1) as usize; // Sentinel packs as A.
                line.lo[off / 64] |= ((p & 1) as u64) << (off % 64);
                line.hi[off / 64] |= ((p >> 1) as u64) << (off % 64);
                counts[p] += 1;
                // Conceptual row r > 0 is suffix sa[r - 1]; row 0 is the
                // empty suffix at `text_len`, never sampled.
                let row = b * OCC_BLOCK + off;
                if row > 0 && (sa[row - 1] as usize).is_multiple_of(SA_SAMPLE) {
                    line.marks[off / 64] |= 1 << (off % 64);
                    samples.push(sa[row - 1]);
                }
            }
        }
        let mut packed = vec![0u8; text.len().div_ceil(4)];
        for (i, &c) in text.iter().enumerate() {
            packed[i / 4] |= (c - 1) << (2 * (i % 4));
        }
        let mut fm = FmIndex {
            lines,
            sample_rank,
            samples,
            c_array: std::array::from_fn(|c| bwt.c_array[c] as u32),
            sentinel_row: bwt.sentinel_row as u32,
            rows: rows as u32,
            popcnt: has_popcnt(),
            kmers: Vec::new(),
            text: packed,
        };
        let mut kmers = vec![Interval { lo: 0, hi: 0 }; 1 << (2 * KMER)];
        fm.fill_kmers(fm.full_interval(), 0, 0, &mut kmers);
        fm.kmers = kmers;
        fm
    }

    /// Fills the table entries below the trie node of the `depth`-base
    /// suffix `code` (2-bit codes, last base least significant) whose
    /// interval is `iv`. Absent k-mers keep their empty entry.
    fn fill_kmers(&self, iv: Interval, depth: usize, code: usize, table: &mut [Interval]) {
        if depth == KMER {
            table[code] = iv;
            return;
        }
        for c in 0..4u8 {
            let next = self.extend(c + 1, iv);
            if !next.is_empty() {
                self.fill_kmers(next, depth + 1, code | (c as usize) << (2 * depth), table);
            }
        }
    }

    /// Length of the indexed text.
    pub fn text_len(&self) -> usize {
        self.rows as usize - 1
    }

    /// Occurrences of code `c` in `bwt[..lo]` and in `bwt[..hi]`, for
    /// rows `lo <= hi <= rows`. One line fetch when both rows fall in
    /// the same block.
    #[inline(always)]
    fn rank_pair_body(&self, c: u8, lo: u32, hi: u32) -> (u32, u32) {
        debug_assert!(c >= 1 && (c as usize) < ALPHABET && lo <= hi && hi <= self.rows);
        let p = c as usize - 1;
        let (lo_line, hi_line) = (lo as usize / OCC_BLOCK, hi as usize / OCC_BLOCK);
        let line = &self.lines[lo_line];
        let m = line.matches(p);
        let at_lo = line.rank(p, m, lo as usize % OCC_BLOCK);
        let at_hi = if hi_line == lo_line {
            line.rank(p, m, hi as usize % OCC_BLOCK)
        } else {
            let line = &self.lines[hi_line];
            line.rank(p, line.matches(p), hi as usize % OCC_BLOCK)
        };
        // The sentinel was packed and counted as an A.
        let is_a = (p == 0) as u32;
        (
            at_lo - (is_a & (lo > self.sentinel_row) as u32),
            at_hi - (is_a & (hi > self.sentinel_row) as u32),
        )
    }

    /// [`Self::rank_pair_body`] compiled with the `popcnt` instruction.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    fn rank_pair_popcnt(&self, c: u8, lo: u32, hi: u32) -> (u32, u32) {
        self.rank_pair_body(c, lo, hi)
    }

    /// Rank of `c` at both ends of an interval.
    #[inline]
    fn rank_pair(&self, c: u8, lo: u32, hi: u32) -> (u32, u32) {
        #[cfg(target_arch = "x86_64")]
        if self.popcnt {
            // SAFETY: `popcnt` is only set by `has_popcnt`, i.e. after
            // `is_x86_feature_detected!("popcnt")` returned true on this
            // CPU; the function has no other precondition (all indexing
            // inside is bounds-checked).
            return unsafe { self.rank_pair_popcnt(c, lo, hi) };
        }
        self.rank_pair_body(c, lo, hi)
    }

    /// Occurrences of code `c` in `bwt[..row]`.
    #[inline]
    fn occ_rank(&self, c: u8, row: u32) -> u32 {
        self.rank_pair(c, row, row).0
    }

    /// The all-suffixes interval.
    pub fn full_interval(&self) -> Interval {
        Interval { lo: 0, hi: self.rows }
    }

    /// Extends a pattern interval by prepending code `c` (backward
    /// search step).
    #[inline]
    pub fn extend(&self, c: u8, iv: Interval) -> Interval {
        let base = self.c_array[c as usize];
        let (lo, hi) = self.rank_pair(c, iv.lo, iv.hi);
        Interval { lo: base + lo, hi: base + hi }
    }

    /// [`Self::extend`] with the rank inlined into the caller (which
    /// picks the `popcnt` codegen).
    #[inline(always)]
    fn extend_body(&self, c: u8, iv: Interval) -> Interval {
        let base = self.c_array[c as usize];
        let (lo, hi) = self.rank_pair_body(c, iv.lo, iv.hi);
        Interval { lo: base + lo, hi: base + hi }
    }

    /// Backward search from the end of `read[..end]` for as long as the
    /// suffix occurs: returns the hits of the longest occurring suffix
    /// `read[j..end]`, its start `j`, and the `extend` steps the walk
    /// stands for — one per base consumed, plus the failing one when a
    /// step comes up empty. An `N` ends the walk without a step; any
    /// other byte counts as an `A` (see [`base_code`]).
    ///
    /// The first [`KMER`] bases come from the k-mer table when they are
    /// all `A`/`C`/`G`/`T` and the k-mer occurs, and a match whose one
    /// row is sampled is finished on the text and returned as
    /// [`Hits::At`] (module docs). Both are invisible in `j` and the step
    /// count, which are the stepwise walk's.
    ///
    /// # Panics
    ///
    /// Panics if `end > read.len()`.
    pub fn backward_match(&self, read: &[u8], end: usize) -> (Hits, usize, u64) {
        #[cfg(target_arch = "x86_64")]
        if self.popcnt {
            // SAFETY: `popcnt` is only set by `has_popcnt`, i.e. after
            // `is_x86_feature_detected!("popcnt")` returned true on this
            // CPU; the function has no other precondition (all indexing
            // inside is bounds-checked).
            return unsafe { self.backward_match_popcnt(read, end) };
        }
        self.backward_match_body(read, end)
    }

    /// [`Self::backward_match_body`] compiled with the `popcnt`
    /// instruction: the whole walk is one unit, so every rank inlines.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    fn backward_match_popcnt(&self, read: &[u8], end: usize) -> (Hits, usize, u64) {
        self.backward_match_body(read, end)
    }

    #[inline(always)]
    fn backward_match_body(&self, read: &[u8], end: usize) -> (Hits, usize, u64) {
        let mut iv = self.full_interval();
        let (mut j, mut ops) = (end, 0u64);
        if let Some(kmer) = end.checked_sub(KMER).map(|at| &read[at..end]) {
            let (mut code, mut seen) = (0usize, 0u8);
            for &b in kmer {
                let c = CODES[b as usize];
                seen |= c;
                code = (code << 2) | ((c as usize - 1) & 3);
            }
            if seen & NOT_ACGT == 0 && !self.kmers[code].is_empty() {
                (iv, j, ops) = (self.kmers[code], end - KMER, KMER as u64);
            }
        }
        while j > 0 {
            if iv.count() == 1 {
                if let Some(pos) = self.sample(iv.lo) {
                    return self.finish_on_text(read, j, ops, pos);
                }
            }
            let b = read[j - 1];
            if b == b'N' {
                break;
            }
            ops += 1;
            let next = self.extend_body(base_code(b), iv);
            if next.is_empty() {
                break;
            }
            iv = next;
            j -= 1;
        }
        (Hits::Rows(iv), j, ops)
    }

    /// The rest of a walk whose match `read[j..]` occurs once, at text
    /// position `pos`: one step per read code compared with the text
    /// leftward, by the stepwise walk's rules (module docs).
    #[inline(always)]
    fn finish_on_text(
        &self,
        read: &[u8],
        mut j: usize,
        mut ops: u64,
        mut pos: u32,
    ) -> (Hits, usize, u64) {
        while j > 0 && read[j - 1] != b'N' {
            ops += 1;
            if pos == 0 || self.text_code(pos - 1) != base_code(read[j - 1]) {
                break;
            }
            pos -= 1;
            j -= 1;
        }
        (Hits::At(pos), j, ops)
    }

    /// The code (1..=4) at text position `i`.
    #[inline(always)]
    fn text_code(&self, i: u32) -> u8 {
        let i = i as usize;
        1 + ((self.text[i / 4] >> (2 * (i % 4))) & 3)
    }

    /// Backward-searches an ASCII pattern; returns the matching interval.
    ///
    /// Patterns containing `N` never match (mirrors exact seeding).
    pub fn search(&self, pattern: &[u8]) -> Interval {
        let mut iv = self.full_interval();
        for &b in pattern.iter().rev() {
            if !b.is_ascii_uppercase() || b == b'N' {
                return Interval { lo: 0, hi: 0 };
            }
            let c = base_code(b);
            iv = self.extend(c, iv);
            if iv.is_empty() {
                return iv;
            }
        }
        iv
    }

    /// Number of occurrences of `pattern` in the text.
    pub fn count(&self, pattern: &[u8]) -> u32 {
        self.search(pattern).count()
    }

    /// The BWT code at `row` (0 for the sentinel).
    #[inline]
    fn symbol(&self, row: u32) -> u8 {
        if row == self.sentinel_row {
            return 0;
        }
        let line = &self.lines[row as usize / OCC_BLOCK];
        let (w, bit) = (row as usize % OCC_BLOCK / 64, row % 64);
        1 + ((line.lo[w] >> bit) & 1) as u8 + 2 * ((line.hi[w] >> bit) & 1) as u8
    }

    /// One LF-mapping step: the row of the suffix one position earlier.
    #[inline]
    fn lf(&self, row: u32) -> Option<u32> {
        let c = self.symbol(row);
        if c == 0 {
            return None; // Reached the text start.
        }
        Some(self.c_array[c as usize] + self.occ_rank(c, row))
    }

    /// The text position of `row`'s suffix if the row is sampled.
    #[inline]
    fn sample(&self, row: u32) -> Option<u32> {
        let block = row as usize / OCC_BLOCK;
        let marks = &self.lines[block].marks;
        let off = row as usize % OCC_BLOCK;
        if (marks[off / 64] >> (off % 64)) & 1 == 0 {
            return None;
        }
        Some(self.samples[(self.sample_rank[block] + count_before(*marks, off)) as usize])
    }

    /// Resolves one BWT row to its text position.
    pub fn locate_row(&self, mut row: u32) -> u32 {
        let mut steps = 0u32;
        loop {
            if let Some(pos) = self.sample(row) {
                return pos + steps;
            }
            match self.lf(row) {
                Some(next) => {
                    row = next;
                    steps += 1;
                }
                // The sentinel row's suffix starts at position `steps`
                // ... i.e. walking hit text position 0.
                None => return steps,
            }
        }
    }

    /// Locates up to `limit` occurrences of the pattern interval.
    pub fn locate(&self, iv: Interval, limit: usize) -> Vec<u32> {
        (iv.lo..iv.hi).take(limit).map(|row| self.locate_row(row)).collect()
    }

    /// Index memory footprint in bytes: one 64-byte line per
    /// [`OCC_BLOCK`] rows, the sampled positions and their per-line
    /// rank, the k-mer table, and the 2-bit text.
    pub fn memory_bytes(&self) -> usize {
        self.lines.len() * std::mem::size_of::<Line>()
            + (self.sample_rank.len() + self.samples.len()) * 4
            + self.kmers.len() * std::mem::size_of::<Interval>()
            + self.text.len()
    }
}

/// Whether `count_ones` can be compiled to the `popcnt` instruction on
/// this CPU.
fn has_popcnt() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bwt::code_base;

    fn naive_count(text: &[u8], pattern: &[u8]) -> u32 {
        if pattern.is_empty() || pattern.len() > text.len() {
            return if pattern.is_empty() { text.len() as u32 + 1 } else { 0 };
        }
        text.windows(pattern.len()).filter(|w| *w == pattern).count() as u32
    }

    fn naive_positions(text: &[u8], pattern: &[u8]) -> Vec<u32> {
        text.windows(pattern.len())
            .enumerate()
            .filter(|(_, w)| *w == pattern)
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn build_from_ascii(s: &[u8]) -> FmIndex {
        FmIndex::build_from_codes(s.iter().map(|&b| base_code(b)).collect())
    }

    #[test]
    fn count_matches_naive() {
        let text = b"ACGTACGTTACGACGT";
        let fm = build_from_ascii(text);
        for pat in
            [&b"ACG"[..], b"ACGT", b"T", b"TT", b"GACG", b"CGTA", b"AAAA", b"ACGTACGTTACGACGT"]
        {
            assert_eq!(
                fm.count(pat),
                naive_count(text, pat),
                "pattern {:?}",
                std::str::from_utf8(pat)
            );
        }
    }

    #[test]
    fn count_on_genome() {
        let g = Genome::random_with_seed(3, &[("c", 20_000)]);
        let fm = FmIndex::build(&g);
        let text: Vec<u8> = g.linear_iter().collect();
        for start in (0..19_000).step_by(1717) {
            let pat = &text[start..start + 25];
            assert_eq!(fm.count(pat), naive_count(&text, pat));
        }
    }

    #[test]
    fn locate_finds_all_positions() {
        let text = b"ACGTACGTTACGACGTACGA";
        let fm = build_from_ascii(text);
        for pat in [&b"ACG"[..], b"CGT", b"A", b"GA"] {
            let iv = fm.search(pat);
            let mut got = fm.locate(iv, usize::MAX);
            got.sort();
            assert_eq!(got, naive_positions(text, pat), "pattern {:?}", std::str::from_utf8(pat));
        }
    }

    #[test]
    fn locate_on_larger_text() {
        let g = Genome::random_with_seed(9, &[("c", 8_000)]);
        let fm = FmIndex::build(&g);
        let text: Vec<u8> = g.linear_iter().collect();
        for start in (0..7_900).step_by(631) {
            let pat = &text[start..start + 30];
            let iv = fm.search(pat);
            let got = fm.locate(iv, usize::MAX);
            assert!(got.contains(&(start as u32)), "position {start} missing");
        }
    }

    #[test]
    fn absent_pattern_is_empty() {
        let fm = build_from_ascii(b"AAAACCCCGGGG");
        assert_eq!(fm.count(b"T"), 0);
        assert_eq!(fm.count(b"GA"), 0);
        assert!(fm.search(b"ACGN").is_empty(), "N must not match");
    }

    #[test]
    fn empty_pattern_matches_everything() {
        let fm = build_from_ascii(b"ACGT");
        assert_eq!(fm.count(b""), 5); // n + 1 rows.
    }

    #[test]
    fn extend_composes_like_search() {
        let fm = build_from_ascii(b"ACGTACGTT");
        // Search "GT" via two manual extensions: T then G.
        let iv = fm.extend(base_code(b'T'), fm.full_interval());
        let iv = fm.extend(base_code(b'G'), iv);
        assert_eq!(iv, fm.search(b"GT"));
        assert_eq!(iv.count(), 2);
    }

    #[test]
    fn locate_limit_respected() {
        let fm = build_from_ascii(&b"AC".repeat(100));
        let iv = fm.search(b"AC");
        assert_eq!(fm.locate(iv, 5).len(), 5);
    }

    #[test]
    fn repetitive_text_locate() {
        let text = b"ACGT".repeat(64);
        let fm = build_from_ascii(&text);
        let iv = fm.search(b"GTAC");
        let mut got = fm.locate(iv, usize::MAX);
        got.sort();
        assert_eq!(got, naive_positions(&text, b"GTAC"));
    }

    fn lcg_codes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 62) + 1) as u8
            })
            .collect()
    }

    /// `occ_rank` against a prefix count over the byte BWT, for every
    /// symbol and every row, on texts whose last row / sentinel row sit
    /// on, before and after the 64-row word and 128-row block edges.
    #[test]
    fn occ_rank_matches_naive_prefix_count() {
        let mut texts: Vec<Vec<u8>> = [0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 193, 1000]
            .iter()
            .map(|&len| lcg_codes(len as u64 + 5, len))
            .collect();
        // "C" + "A"·k: every A-run suffix sorts before the whole text,
        // which puts the sentinel on row k + 1.
        for k in [62usize, 63, 64, 126, 127, 128, 255] {
            let mut t = vec![2u8];
            t.extend(std::iter::repeat_n(1u8, k));
            texts.push(t);
        }
        let mut sentinel_rows = Vec::new();
        for text in texts {
            let bwt = Bwt::build(&text);
            let fm = FmIndex::build_from_codes(text.clone());
            assert_eq!(fm.text_len(), text.len());
            assert_eq!(fm.sentinel_row as usize, bwt.sentinel_row);
            sentinel_rows.push(bwt.sentinel_row);
            for c in 1..ALPHABET as u8 {
                for row in 0..=bwt.len() {
                    let naive = bwt.data[..row].iter().filter(|&&b| b == c).count() as u32;
                    assert_eq!(
                        fm.occ_rank(c, row as u32),
                        naive,
                        "len {} c {c} row {row}",
                        text.len()
                    );
                }
            }
            for row in 0..bwt.len() {
                assert_eq!(fm.symbol(row as u32), bwt.data[row], "len {} row {row}", text.len());
            }
        }
        for edge in [63, 64, 65, 127, 128, 129, 256] {
            assert!(sentinel_rows.contains(&edge), "no text put the sentinel on row {edge}");
        }
    }

    /// The walk `backward_match` replaced: one `extend` per base from
    /// the full interval, kept as its oracle.
    fn backward_match_stepwise(fm: &FmIndex, read: &[u8], end: usize) -> (Interval, usize, u64) {
        let mut iv = fm.full_interval();
        let (mut j, mut ops) = (end, 0u64);
        while j > 0 {
            let b = read[j - 1];
            if b == b'N' {
                break;
            }
            ops += 1;
            let next = fm.extend(base_code(b), iv);
            if next.is_empty() {
                break;
            }
            iv = next;
            j -= 1;
        }
        (iv, j, ops)
    }

    /// Every prefix end of `read` gives the stepwise walk's count, start
    /// and step count, and its interval or, for a walk finished on the
    /// text, the position `locate_row` gives its one row. Returns how
    /// many of the walks were finished on the text.
    fn assert_walks_match(fm: &FmIndex, read: &[u8]) -> usize {
        let mut on_text = 0;
        for end in 0..=read.len() {
            let (hits, j, ops) = fm.backward_match(read, end);
            let (iv, oracle_j, oracle_ops) = backward_match_stepwise(fm, read, end);
            let what = || format!("end {end} of {:?}", String::from_utf8_lossy(read));
            assert_eq!((hits.count(), j, ops), (iv.count(), oracle_j, oracle_ops), "{}", what());
            match hits {
                Hits::Rows(rows) => assert_eq!(rows, iv, "{}", what()),
                Hits::At(pos) => {
                    assert_eq!(pos, fm.locate_row(iv.lo), "{}", what());
                    on_text += 1;
                }
            }
        }
        on_text
    }

    /// How often each k-mer occurs in an `ACGT` text, indexed by its
    /// table code: one pass over the text's windows.
    fn kmer_counts(text: &[u8]) -> Vec<u32> {
        let mut counts = vec![0u32; 1 << (2 * KMER)];
        for window in text.windows(KMER) {
            let code = window.iter().fold(0, |code, &b| code << 2 | (base_code(b) - 1) as usize);
            counts[code] += 1;
        }
        counts
    }

    /// Each table entry is the interval of its k-mer, empty exactly
    /// when the k-mer does not occur: exhaustively on a text too short
    /// to hold most 8-mers, on a sample of a larger one.
    #[test]
    fn kmer_table_holds_every_kmer_interval() {
        for (len, step) in [(40usize, 1usize), (3_000, 1), (20_000, 97)] {
            let text: Vec<u8> =
                lcg_codes(len as u64 + 3, len).iter().map(|&c| code_base(c)).collect();
            let fm = build_from_ascii(&text);
            assert_eq!(fm.kmers.len(), 1 << (2 * KMER));
            let counts = kmer_counts(&text);
            // The one-pass counter is itself held to the naive scan on
            // the first few present and absent k-mers of every text.
            let mut spot = [4, 4];
            let mut present = 0;
            for code in (0..fm.kmers.len()).step_by(step) {
                let kmer: Vec<u8> =
                    (0..KMER).map(|i| b"ACGT"[code >> (2 * (KMER - 1 - i)) & 3]).collect();
                let left = &mut spot[usize::from(counts[code] > 0)];
                if *left > 0 {
                    *left -= 1;
                    assert_eq!(counts[code], naive_count(&text, &kmer), "{kmer:?}");
                }
                assert_eq!(fm.kmers[code].count(), counts[code], "{kmer:?}");
                if !fm.kmers[code].is_empty() {
                    assert_eq!(fm.kmers[code], fm.search(&kmer));
                    present += 1;
                }
            }
            assert!(present > 0 && present < fm.kmers.len().div_ceil(step), "len {len}");
        }
    }

    /// Table-driven walks against the stepwise oracle: reads shorter
    /// than a k-mer, an `N` (or a lowercase base or an `X`, which count
    /// as `A`) at every offset, k-mers absent from a tiny text, and
    /// reads sampled from the text with substitutions.
    #[test]
    fn backward_match_equals_stepwise_walk() {
        let mut on_text = 0;
        for len in [30usize, 2_000, 50_000] {
            let text: Vec<u8> =
                lcg_codes(len as u64 + 11, len).iter().map(|&c| code_base(c)).collect();
            let fm = build_from_ascii(&text);
            let mut x = len as u64;
            let mut next = |bound: usize| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 33) as usize) % bound
            };
            for short in 0..KMER {
                let at = next(len - short);
                on_text += assert_walks_match(&fm, &text[at..at + short]);
            }
            for _ in 0..40 {
                let rlen = 8 + next(len.min(60) - 8);
                let at = next(len - rlen + 1);
                let mut read = text[at..at + rlen].to_vec();
                on_text += assert_walks_match(&fm, &read);
                for _ in 0..next(4) {
                    let i = next(rlen);
                    read[i] = b"ACGT"[next(4)];
                }
                on_text += assert_walks_match(&fm, &read);
                for off in 0..rlen {
                    for odd in [b'N', b'a', b'X'] {
                        let mut spoiled = read.clone();
                        let last = spoiled.len() - 1 - off;
                        spoiled[last] = odd;
                        on_text += assert_walks_match(&fm, &spoiled);
                    }
                }
            }
            // Random reads: on the tiny text most of their 8-mers are
            // absent, so the walk falls back to stepping.
            for _ in 0..20 {
                let read: Vec<u8> = (0..next(40)).map(|_| b"ACGT"[next(4)]).collect();
                on_text += assert_walks_match(&fm, &read);
            }
        }
        assert!(on_text > 1_000, "only {on_text} walks finished on the text");
    }

    /// Texts built of tandem repeats (periods 1 to 7, runs long enough
    /// to hold many k-mers and sampled rows) between random stretches:
    /// matches stay ambiguous deep into a repeat and turn unique only
    /// at its flanks.
    #[test]
    fn backward_match_on_tandem_repeats() {
        let mut on_text = 0;
        for period in 1..=7usize {
            let unit = lcg_codes(period as u64 + 100, period);
            let mut codes = lcg_codes(period as u64 + 200, 150);
            codes.extend(unit.iter().cycle().take(120 + 17 * period));
            codes.extend(lcg_codes(period as u64 + 300, 150));
            codes.extend(unit.iter().cycle().take(40 + 3 * period));
            codes.extend(lcg_codes(period as u64 + 400, 90));
            let text: Vec<u8> = codes.iter().map(|&c| code_base(c)).collect();
            let fm = build_from_ascii(&text);
            for at in (0..text.len() - 70).step_by(9) {
                on_text += assert_walks_match(&fm, &text[at..at + 70]);
            }
        }
        assert!(on_text > 500, "only {on_text} walks finished on the text");
    }

    /// Several contigs: matches run across contig boundaries exactly as
    /// the BWT runs across them, and genome `N`s, stored as `A`, match a
    /// read's `A` (a read's `N` still stops the walk).
    #[test]
    fn backward_match_across_contigs_and_genome_ns() {
        let mut contigs: Vec<(String, Vec<u8>)> = [(1u64, 300usize), (2, 5), (3, 1_000), (4, 64)]
            .iter()
            .map(|&(seed, len)| {
                (
                    format!("c{seed}"),
                    lcg_codes(seed + 40, len).iter().map(|&c| code_base(c)).collect(),
                )
            })
            .collect();
        contigs[2].1[200..230].fill(b'N');
        contigs[2].1[500] = b'N';
        let genome = Genome::new(contigs);
        let fm = FmIndex::build(&genome);
        assert_eq!(fm.text_len() as u64, genome.total_len());
        let linear: Vec<u8> = genome.linear_iter().collect();
        let as_a: Vec<u8> = linear.iter().map(|&b| if b == b'N' { b'A' } else { b }).collect();
        let mut on_text = 0;
        // Windows around each contig start, and around the `N`s.
        for start in [300usize, 305, 1_305, 500, 530, 800] {
            for at in start.saturating_sub(60)..start + 10 {
                let at = at.min(linear.len() - 50);
                on_text += assert_walks_match(&fm, &as_a[at..at + 50]);
                on_text += assert_walks_match(&fm, &linear[at..at + 50]);
            }
        }
        assert!(on_text > 100, "only {on_text} walks finished on the text");
        // The `N` run is text 505..535: a read that spells it as `A`s
        // is finished on the text across it, to its own start.
        let read = &as_a[480..560];
        assert_eq!(fm.backward_match(read, read.len()), (Hits::At(480), 0, 80));
    }

    /// Matches that reach text position 0 cost one failing step when
    /// the read goes on, and none when it ends there, as the sentinel
    /// does in the stepwise walk.
    #[test]
    fn backward_match_reaching_text_start() {
        for len in [40usize, 3_000] {
            let text: Vec<u8> =
                lcg_codes(len as u64 + 7, len).iter().map(|&c| code_base(c)).collect();
            let fm = build_from_ascii(&text);
            let mut on_text = 0;
            for plen in [20usize, 33, 39] {
                on_text += assert_walks_match(&fm, &text[..plen]);
                for first in *b"ACGTN" {
                    let read = [&[first][..], &text[..plen]].concat();
                    on_text += assert_walks_match(&fm, &read);
                    let (hits, j, ops) = fm.backward_match(&read, read.len());
                    assert_eq!((hits, j), (Hits::At(0), 1), "len {len} plen {plen}");
                    assert_eq!(ops, plen as u64 + (first != b'N') as u64);
                }
            }
            assert!(on_text > 0, "len {len}");
        }
    }

    /// `extend`, `search` and `locate` against the naive oracles on
    /// texts spanning several blocks, including both ends of an interval
    /// in one block and in two.
    #[test]
    fn extend_search_locate_match_naive() {
        for len in [129usize, 193, 1000] {
            let text: Vec<u8> = lcg_codes(len as u64, len).iter().map(|&c| code_base(c)).collect();
            let fm = build_from_ascii(&text);
            for start in (0..len - 6).step_by(7) {
                for plen in 1..=6 {
                    let pat = &text[start..start + plen];
                    let iv = fm.search(pat);
                    assert_eq!(iv.count(), naive_count(&text, pat));
                    let mut got = fm.locate(iv, usize::MAX);
                    got.sort_unstable();
                    assert_eq!(got, naive_positions(&text, pat));
                    for b in *b"ACGT" {
                        let longer = [&[b][..], pat].concat();
                        let ext = fm.extend(base_code(b), iv);
                        assert_eq!(ext.count(), naive_count(&text, &longer), "{longer:?}");
                        assert_eq!(ext, fm.search(&longer));
                    }
                }
            }
        }
    }
}
