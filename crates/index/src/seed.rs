//! The SNAP-style hash seed index.
//!
//! Every position in the reference contributes one fixed-length seed
//! (if it contains no `N` and does not cross a contig boundary). Seeds
//! are 2-bit packed into a `u64` key; the index maps each distinct key
//! to its positions, in genome order, capped at `max_hits`. This is the
//! "multi-gigabyte reference index" shared by all aligner kernels
//! through a resource handle (paper Fig. 3: "Genome Index — Seed →
//! Ref. Loc").
//!
//! The map is one flat, open-addressed table of 64-byte lines (the
//! `#[repr(align(64))] Line` idiom of `fm.rs`), each holding five slots
//! of a key and a `u32`. A seed that kept exactly one position (most
//! 16-mers of a random reference do) holds that position in its slot;
//! any other holds where its list starts in a shared `positions` array,
//! length first, and is flagged in its key. A single multiplicative hash
//! picks a key's home line (the high half of `hash × lines`, Lemire's
//! multiply-shift range reduction, so the line count need not be a
//! power of two); a lookup compares the line's five keys at once and
//! moves on to the next line only when the home line is full without
//! the key. The table has 5/3 slots per seed position of the reference,
//! which bounds its load at 3/5 without counting keys first. That keeps
//! spills out of the home line — each a second, unprefetched miss — rare
//! (four-slot lines at load 3/4 made a read's seeding ~35 % slower) in
//! 20 MiB at 1 Mbp, where 16-byte slots in a power-of-two array take 32.
//! The hash is not keyed: the keys are the reference's own seeds and
//! lookups never insert, so reads cannot lengthen a probe.
//!
//! The index is built in two passes over the reference, count per key
//! and then fill, each prefetching the line it will probe a few seeds
//! ahead. [`SeedIndex::prefetch`] lets a caller issue a read's lookups
//! as a batch the same way, so their cache misses overlap instead of
//! chaining.

use persona_seq::dna::base_to_code;
use persona_seq::Genome;

/// Slots per line.
const LANES: usize = 5;

/// One cache line of the table. Lanes fill in order and are never
/// freed, so an empty lane ends every probe that reaches it.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Line {
    /// The seed key, [`LISTED`] set when `val` is a list start.
    keys: [u64; LANES],
    /// The seed's one position, or (if [`LISTED`]) the index in
    /// `positions` of its list's length, the list following it.
    vals: [u32; LANES],
}

impl Line {
    const EMPTY: Line = Line { keys: [EMPTY; LANES], vals: [0; LANES] };

    /// The lanes holding `key` (listed or not) or nothing, as a bit mask.
    #[inline(always)]
    fn key_or_empty(&self, key: u64) -> u32 {
        let mut mask = 0;
        for (lane, &k) in self.keys.iter().enumerate() {
            mask |= ((k & !LISTED == key) as u32 | (k == EMPTY) as u32) << lane;
        }
        mask
    }
}

/// The key of an unused slot. Packed seeds (≤ 31 bases) are below
/// `2^62`, so neither this nor any key with [`LISTED`] set is one.
const EMPTY: u64 = u64::MAX;
/// Flags a slot whose positions live in `positions`.
const LISTED: u64 = 1 << 63;
/// Fibonacci hashing: `key × 2^64/φ`, whose high bits scaled to the
/// table pick the home line.
const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// `val` of a single-position slot whose position is not written yet
/// (build only; positions stay below `u32::MAX`).
const UNSET: u32 = u32::MAX;

/// A hash index from fixed-length seeds to reference positions.
pub struct SeedIndex {
    seed_len: usize,
    /// The open-addressed table.
    lines: Vec<Line>,
    /// Position lists of the seeds that kept other than one position,
    /// each preceded by its length.
    positions: Vec<u32>,
    /// Seeds occurring more often than this were truncated.
    max_hits: u32,
    /// Number of occupied slots.
    distinct: usize,
    /// Number of seeds whose position lists were truncated.
    overflowed: usize,
}

impl SeedIndex {
    /// Default cap on positions stored per seed (mirrors SNAP's handling
    /// of overrepresented seeds in repetitive genomes).
    pub const DEFAULT_MAX_HITS: u32 = 300;

    /// Builds an index with the default hit cap.
    ///
    /// # Panics
    ///
    /// Panics if `seed_len` is 0 or > 31, if the genome exceeds
    /// `u32::MAX` bases, or if the multi-position lists with their
    /// length prefixes need more than `u32::MAX` entries.
    pub fn build(genome: &Genome, seed_len: usize) -> Self {
        Self::build_with_max_hits(genome, seed_len, Self::DEFAULT_MAX_HITS)
    }

    /// Builds an index, keeping at most `max_hits` positions per seed.
    pub fn build_with_max_hits(genome: &Genome, seed_len: usize, max_hits: u32) -> Self {
        assert!(seed_len > 0 && seed_len <= 31, "seed length must be in 1..=31");
        assert!(genome.total_len() <= u32::MAX as u64, "genome too large for u32 positions");

        // Every seed position adds at most one key, so over 5/3 slots per
        // position keep the load below 3/5 (and every probe finite).
        let seeds: usize =
            genome.contigs().iter().map(|c| (c.seq.len() + 1).saturating_sub(seed_len)).sum();
        let mut lines = vec![Line::EMPTY; seeds / 3 + 1];

        // Pass 1: count occurrences per key, in `val`.
        let mut distinct = 0usize;
        for_each_seed_ahead(genome, seed_len, &mut lines, |lines, key, _pos| {
            let (l, lane) = probe(lines, key);
            let line = &mut lines[l];
            if line.keys[lane] == EMPTY {
                line.keys[lane] = key;
                distinct += 1;
            }
            line.vals[lane] += 1;
        });

        // Cap the counts and lay out the lists in table order: a listed
        // seed's `val` becomes its ordinal in `starts`.
        let mut starts: Vec<u32> = Vec::new();
        let mut total = 0u32;
        let mut overflowed = 0usize;
        for line in lines.iter_mut() {
            for (key, val) in line.keys.iter_mut().zip(&mut line.vals) {
                if *key == EMPTY {
                    continue;
                }
                overflowed += (*val > max_hits) as usize;
                let kept = (*val).min(max_hits);
                if kept == 1 {
                    *val = UNSET;
                } else {
                    *key |= LISTED;
                    *val = starts.len() as u32;
                    starts.push(total);
                    // Length prefixes can push a genome near the `u32`
                    // position limit past `u32` list entries: refuse it
                    // rather than wrap.
                    total = total.checked_add(1 + kept).expect("seed lists exceed u32 indexing");
                }
            }
        }
        starts.push(total);
        let mut positions = vec![0u32; total as usize];
        for w in starts.windows(2) {
            positions[w[0] as usize] = w[1] - w[0] - 1;
        }

        // Pass 2: fill in genome order, so each seed keeps its first
        // positions.
        let mut cursors: Vec<u32> = starts.iter().map(|&s| s + 1).collect();
        for_each_seed_ahead(genome, seed_len, &mut lines, |lines, key, pos| {
            let (l, lane) = probe(lines, key);
            let line = &mut lines[l];
            let val = &mut line.vals[lane];
            if line.keys[lane] & LISTED != 0 {
                let m = *val as usize;
                if cursors[m] < starts[m + 1] {
                    positions[cursors[m] as usize] = pos;
                    cursors[m] += 1;
                }
            } else if *val == UNSET {
                *val = pos;
            }
        });
        for line in lines.iter_mut() {
            for (key, val) in line.keys.iter().zip(&mut line.vals) {
                if key & LISTED != 0 {
                    *val = starts[*val as usize];
                }
            }
        }

        SeedIndex { seed_len, lines, positions, max_hits, distinct, overflowed }
    }

    /// The seed length this index was built with.
    pub fn seed_len(&self) -> usize {
        self.seed_len
    }

    /// The per-seed position cap.
    pub fn max_hits(&self) -> u32 {
        self.max_hits
    }

    /// Number of distinct seeds whose lists were truncated by the cap.
    pub fn overflowed_seeds(&self) -> usize {
        self.overflowed
    }

    /// Number of distinct seeds in the index.
    pub fn distinct_seeds(&self) -> usize {
        self.distinct
    }

    /// Index memory footprint in bytes: the table plus the shared
    /// position lists.
    pub fn memory_bytes(&self) -> usize {
        self.lines.len() * std::mem::size_of::<Line>() + self.positions.len() * 4
    }

    /// Looks up the positions of `seed` (must be exactly `seed_len`
    /// ASCII bases; returns `None` on `N` or unknown characters too).
    pub fn lookup(&self, seed: &[u8]) -> Option<&[u32]> {
        let key = pack_seed(seed)?;
        self.lookup_key(key)
    }

    /// Looks up a pre-packed seed key.
    #[inline]
    pub fn lookup_key(&self, key: u64) -> Option<&[u32]> {
        if key >> 62 != 0 {
            return None; // Not a packed seed (and not a probe-able key).
        }
        let (l, lane) = probe(&self.lines, key);
        let line = &self.lines[l];
        let stored = line.keys[lane];
        if stored & !LISTED != key {
            return None;
        }
        if stored & LISTED == 0 {
            return Some(std::slice::from_ref(&line.vals[lane]));
        }
        let at = line.vals[lane] as usize;
        Some(&self.positions[at + 1..at + 1 + self.positions[at] as usize])
    }

    /// Asks the CPU to start loading the line `key` hashes to, so that a
    /// [`lookup_key`](Self::lookup_key) issued a little later finds it in
    /// cache. A pure hint: no effect on any result.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        prefetch_home(&self.lines, key);
    }

    /// Packs `seed` into a key if it is clean (correct length, no `N`).
    #[inline]
    pub fn pack(&self, seed: &[u8]) -> Option<u64> {
        if seed.len() != self.seed_len {
            return None;
        }
        pack_seed(seed)
    }
}

/// The line a key's probe sequence starts at.
#[inline(always)]
fn home(lines: usize, key: u64) -> usize {
    ((key.wrapping_mul(HASH_MUL) as u128 * lines as u128) >> 64) as usize
}

/// Hints the CPU to load `key`'s home line.
#[inline(always)]
fn prefetch_home(lines: &[Line], key: u64) {
    let l = home(lines.len(), key);
    debug_assert!(l < lines.len(), "home line {l} outside the table");
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` is an SSE instruction (x86-64 base ISA)
        // that never faults and reads nothing architecturally; the
        // address is still kept inside `lines` (`home` is below
        // `lines.len()`, asserted above), so the hint only ever names a
        // line of this table.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(lines.as_ptr().wrapping_add(l).cast()) };
    }
}

/// `(line, lane)` of the slot holding `key`, or of the empty slot that
/// ends its probe sequence. The table always has an empty slot (load
/// below 3/5), so this terminates.
#[inline(always)]
fn probe(lines: &[Line], key: u64) -> (usize, usize) {
    let mut l = home(lines.len(), key);
    loop {
        // Lanes fill in order: the lowest match is the key, or the first
        // empty lane when the key is absent.
        let mask = lines[l].key_or_empty(key);
        if mask != 0 {
            return (l, mask.trailing_zeros() as usize);
        }
        l += 1;
        if l == lines.len() {
            l = 0;
        }
    }
}

/// 2-bit packs an arbitrary-length seed (≤31 bases); `None` if any base
/// is not `A,C,G,T`. The invalid code (4) is OR-ed into a flag rather
/// than tested per base, so random bases cost no branch.
#[inline]
fn pack_seed(seed: &[u8]) -> Option<u64> {
    let mut key = 0u64;
    let mut codes = 0u8;
    for &b in seed {
        let code = base_to_code(b);
        codes |= code;
        key = (key << 2) | (code & 3) as u64;
    }
    (codes < 4).then_some(key)
}

/// Invokes `f(key, position)` for every clean seed in the genome.
fn for_each_seed(genome: &Genome, seed_len: usize, mut f: impl FnMut(u64, u32)) {
    let mask = (1u64 << (2 * seed_len)) - 1;
    for (ci, contig) in genome.contigs().iter().enumerate() {
        let seq = &contig.seq;
        if seq.len() < seed_len {
            continue;
        }
        let base_offset = genome.to_linear(ci, 0);
        let mut key = 0u64;
        let mut valid = 0usize; // Clean bases accumulated in `key`.
        for (i, &b) in seq.iter().enumerate() {
            let code = base_to_code(b);
            if code >= 4 {
                valid = 0;
                key = 0;
                continue;
            }
            key = ((key << 2) | code as u64) & mask;
            valid += 1;
            if valid >= seed_len {
                let pos = base_offset + (i + 1 - seed_len) as u64;
                f(key, pos as u32);
            }
        }
    }
}

/// [`for_each_seed`] for a build pass over `lines`: every seed's home
/// line is prefetched [`AHEAD`] seeds before `f(lines, key, position)`
/// runs on it, in genome order, so a pass keeps that many misses in
/// flight instead of one.
fn for_each_seed_ahead(
    genome: &Genome,
    seed_len: usize,
    lines: &mut [Line],
    mut f: impl FnMut(&mut [Line], u64, u32),
) {
    let mut ring = [(0u64, 0u32); AHEAD];
    let mut n = 0usize;
    for_each_seed(genome, seed_len, |key, pos| {
        prefetch_home(lines, key);
        let (k, p) = std::mem::replace(&mut ring[n % AHEAD], (key, pos));
        if n >= AHEAD {
            f(lines, k, p);
        }
        n += 1;
    });
    for i in n.saturating_sub(AHEAD)..n {
        let (k, p) = ring[i % AHEAD];
        f(lines, k, p);
    }
}

/// How far a build pass prefetches ahead of the seed it works on.
const AHEAD: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;

    fn genome() -> Genome {
        Genome::random_with_seed(7, &[("chr1", 30_000), ("chr2", 10_000)])
    }

    #[test]
    fn memory_bytes_counts_lines_and_positions() {
        let g = genome();
        let idx = SeedIndex::build(&g, 16);
        assert_eq!(std::mem::size_of::<Line>(), 64);
        assert_eq!(idx.memory_bytes(), idx.lines.len() * 64 + idx.positions.len() * 4);
        // Load below 3/5, and single-position seeds live in the table.
        assert!(idx.distinct_seeds() * 5 < idx.lines.len() * LANES * 3);
        assert!(idx.positions.len() < idx.distinct_seeds() / 4);
    }

    #[test]
    fn empty_genome_and_zero_cap() {
        let g = Genome::new(vec![("a".into(), b"ACG".to_vec())]);
        let idx = SeedIndex::build(&g, 16);
        assert_eq!(idx.distinct_seeds(), 0);
        assert!(idx.lookup(b"ACGTACGTACGTACGT").is_none());
        let g = Genome::new(vec![("a".into(), b"ACGTACGT".to_vec())]);
        let idx = SeedIndex::build_with_max_hits(&g, 4, 0);
        assert_eq!(idx.lookup(b"ACGT"), Some(&[][..]));
        assert_eq!(idx.overflowed_seeds(), 4);
    }

    #[test]
    fn finds_every_planted_position() {
        let g = genome();
        let idx = SeedIndex::build(&g, 16);
        for pos in (0..g.total_len() - 16).step_by(997) {
            if let Some(seed) = g.slice_linear(pos, 16) {
                let hits = idx.lookup(seed).unwrap_or_else(|| panic!("seed at {pos} missing"));
                assert!(hits.contains(&(pos as u32)), "position {pos} not in hits");
            }
        }
    }

    #[test]
    fn no_seed_crosses_contig_boundary() {
        let g = Genome::new(vec![
            ("a".into(), b"AAAAAAAACC".to_vec()),
            ("b".into(), b"GGTTTTTTTT".to_vec()),
        ]);
        let idx = SeedIndex::build(&g, 8);
        // The boundary-crossing 8-mer "AACCGGTT" must not be indexed at
        // position 6 (it spans contigs a and b).
        if let Some(hits) = idx.lookup(b"AACCGGTT") {
            assert!(!hits.contains(&6), "boundary seed indexed");
        }
    }

    #[test]
    fn lookup_rejects_bad_seeds() {
        let g = genome();
        let idx = SeedIndex::build(&g, 16);
        assert!(idx.lookup(b"ACGTNACGTACGTACG").is_none(), "N must not pack");
        assert!(idx.pack(b"ACG").is_none(), "wrong length");
    }

    #[test]
    fn skips_n_bases() {
        let g = Genome::new(vec![("a".into(), b"ACGTNACGTACGTACGT".to_vec())]);
        let idx = SeedIndex::build(&g, 4);
        // Seeds overlapping the N at position 4 are absent.
        let hits = idx.lookup(b"CGTA").unwrap();
        assert!(hits.contains(&(5 + 1)), "post-N seed missing");
        assert!(!hits.contains(&1), "seed spanning N (pos 1..5) was indexed");
    }

    #[test]
    fn max_hits_caps_repetitive_seeds() {
        let g = Genome::new(vec![("rep".into(), b"ACGT".repeat(1000))]);
        let idx = SeedIndex::build_with_max_hits(&g, 8, 10);
        let hits = idx.lookup(b"ACGTACGT").unwrap();
        assert_eq!(hits.len(), 10);
        assert!(idx.overflowed_seeds() > 0);
    }

    #[test]
    fn distinct_seed_count_sane() {
        let g = genome();
        let idx = SeedIndex::build(&g, 16);
        // Random 40 kb genome: most 16-mers distinct (planted repeats
        // reduce the count somewhat).
        assert!(idx.distinct_seeds() > 25_000, "distinct {}", idx.distinct_seeds());
        assert!(idx.memory_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "seed length")]
    fn zero_seed_len_panics() {
        SeedIndex::build(&genome(), 0);
    }
}
