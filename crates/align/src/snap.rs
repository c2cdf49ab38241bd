//! The SNAP-style aligner: hash-seed candidate selection + Landau-
//! Vishkin verification (Zaharia et al. 2011, integrated by Persona in
//! §4.3).
//!
//! Pipeline per read:
//! 1. sample fixed-length seeds at a stride across both strands and
//!    pack them; every seed's table line is prefetched before any is
//!    read, so a read's ~22 lookups overlap their cache misses instead of
//!    paying one after another (SNAP's own batching trick);
//! 2. look the seeds up in the [`SeedIndex`]; each hit votes for a
//!    candidate alignment location (`hit - seed_offset`). Votes are
//!    sorted and run-length counted on per-thread scratch, and the
//!    `max_candidates` with the most votes (ties: forward strand, then
//!    lower location) are kept by partial selection;
//! 3. visit candidates in that order, verifying with the banded
//!    Landau-Vishkin kernel under a shrinking edit budget;
//! 4. derive MAPQ from the best/second-best margin and tie count, and a
//!    CIGAR from a banded global traceback at the winning location.
//!
//! Steps 1–2 are timed as [`PhaseProfile::seed_time`], step 3 as
//! [`PhaseProfile::verify_time`]; the CIGAR of step 4 is in neither.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use persona_agd::results::{flags, AlignmentResult};
use persona_index::SeedIndex;
use persona_seq::dna::revcomp_into;
use persona_seq::Genome;

use crate::edit::landau_vishkin;
use crate::mapq::{mapq, MapqInput};
use crate::profile::PhaseProfile;
use crate::sw::banded_global_cigar;
use crate::Aligner;

/// SNAP-style aligner tuning.
#[derive(Debug, Clone, Copy)]
pub struct SnapParams {
    /// Number of seeds sampled per strand.
    pub max_seeds: usize,
    /// Maximum edit distance accepted (SNAP's `-d`; default suits 101 bp
    /// reads at ~2% error).
    pub max_k: u32,
    /// Maximum candidates verified per read.
    pub max_candidates: usize,
    /// Seeds with more index hits than this are ignored (repetitive).
    pub max_hits_per_seed: u32,
    /// Extra edit budget kept above the current best while searching for
    /// a second-best (for MAPQ).
    pub margin: u32,
}

impl Default for SnapParams {
    fn default() -> Self {
        SnapParams {
            max_seeds: 10,
            max_k: 12,
            max_candidates: 24,
            max_hits_per_seed: 200,
            margin: 3,
        }
    }
}

/// A candidate location with its strand: `reverse << 32 | location`, so
/// ordering the integers orders by `(reverse, location)`.
type Candidate = u64;

/// Per-thread buffers reused across reads.
#[derive(Default)]
struct Scratch {
    /// The read's reverse complement.
    rc: Vec<u8>,
    /// Packed key, read offset and strand of every clean seed.
    seeds: Vec<(u64, u32, bool)>,
    /// One entry per usable index hit.
    votes: Vec<Candidate>,
    /// `(votes, candidate)`, best first after [`SnapAligner::seed`].
    candidates: Vec<(u32, Candidate)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// The SNAP-style aligner. Shares the genome and index by `Arc`, exactly
/// like Persona's shared-resource design (Fig. 3).
pub struct SnapAligner {
    genome: Arc<Genome>,
    index: Arc<SeedIndex>,
    params: SnapParams,
}

impl SnapAligner {
    /// Creates an aligner over a prebuilt index.
    pub fn new(genome: Arc<Genome>, index: Arc<SeedIndex>, params: SnapParams) -> Self {
        SnapAligner { genome, index, params }
    }

    /// Seeding: fills `s.rc` and leaves the candidates to verify, best
    /// first, in `s.candidates`.
    fn seed(&self, bases: &[u8], s: &mut Scratch, prof: &mut PhaseProfile) {
        let Scratch { rc, seeds, votes, candidates } = s;
        revcomp_into(bases, rc);
        let seed_len = self.index.seed_len();
        // Pack every seed of both strands and prefetch its line ...
        seeds.clear();
        if bases.len() >= seed_len {
            let span = bases.len() - seed_len;
            let stride = (span / self.params.max_seeds.max(1)).max(1);
            for (reverse, strand) in [(false, bases), (true, &rc[..])] {
                for offset in (0..=span).step_by(stride) {
                    prof.index_ops += 1;
                    if let Some(key) = self.index.pack(&strand[offset..offset + seed_len]) {
                        self.index.prefetch(key);
                        seeds.push((key, offset as u32, reverse));
                    }
                }
            }
        }
        // ... then look them up: each hit of a not-too-repetitive seed
        // votes for the location the read would start at.
        votes.clear();
        for &(key, offset, reverse) in seeds.iter() {
            let Some(hits) = self.index.lookup_key(key) else { continue };
            if hits.len() as u32 <= self.params.max_hits_per_seed {
                let strand = (reverse as u64) << 32;
                votes.extend(
                    hits.iter()
                        .filter(|&&hit| hit >= offset)
                        .map(|&hit| strand | (hit - offset) as u64),
                );
            }
        }
        // Run-length count, then the most-voted first; ties by strand and
        // location for determinism.
        votes.sort_unstable();
        candidates.clear();
        candidates.extend(votes.chunk_by(|a, b| a == b).map(|run| (run.len() as u32, run[0])));
        let order = |a: &(u32, Candidate), b: &(u32, Candidate)| b.0.cmp(&a.0).then(a.1.cmp(&b.1));
        let keep = self.params.max_candidates;
        if candidates.len() > keep {
            candidates.select_nth_unstable_by(keep, order);
            candidates.truncate(keep);
        }
        candidates.sort_unstable_by(order);
    }

    /// Bench hook: the seeding phase alone, returning how many
    /// candidates it left for verification.
    #[doc(hidden)]
    pub fn seed_candidates(&self, bases: &[u8]) -> usize {
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            self.seed(bases, s, &mut PhaseProfile::default());
            s.candidates.len()
        })
    }

    /// Extracts the reference window for verification at `candidate`,
    /// truncated at the containing contig's end.
    fn ref_window(&self, candidate: u32, len: usize) -> Option<&[u8]> {
        let pos = candidate as u64;
        if pos >= self.genome.total_len() {
            return None;
        }
        let (c, off) = self.genome.from_linear(pos);
        let contig = &self.genome.contig(c).seq;
        let off = off as usize;
        let end = (off + len).min(contig.len());
        if end <= off {
            return None;
        }
        Some(&contig[off..end])
    }
}

impl Aligner for SnapAligner {
    fn align_read(&self, bases: &[u8], quals: &[u8]) -> AlignmentResult {
        let mut prof = PhaseProfile::default();
        self.align_read_profiled(bases, quals, &mut prof)
    }

    fn align_read_profiled(
        &self,
        bases: &[u8],
        _quals: &[u8],
        prof: &mut PhaseProfile,
    ) -> AlignmentResult {
        prof.reads += 1;
        let p = self.params;
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();

            // Phase 1: seeding.
            let seed_start = Instant::now();
            self.seed(bases, s, prof);
            prof.seed_time += seed_start.elapsed();

            // Phase 2: verification.
            let verify_start = Instant::now();
            let mut best: Option<(u32, bool, u32)> = None; // (dist, reverse, loc)
            let mut second: Option<u32> = None;
            let mut ties = 1u32;
            let mut budget = p.max_k;
            for &(_votes, candidate) in &s.candidates {
                let (reverse, loc) = (candidate >> 32 != 0, candidate as u32);
                prof.candidates += 1;
                let window_len = bases.len() + p.max_k as usize;
                let Some(text) = self.ref_window(loc, window_len) else { continue };
                let pattern: &[u8] = if reverse { &s.rc } else { bases };
                prof.dp_cells += (budget as u64 + 1) * (budget as u64 + 1);
                match landau_vishkin(text, pattern, budget) {
                    Some(dist) => match best {
                        None => {
                            best = Some((dist, reverse, loc));
                            budget = (dist + p.margin).min(p.max_k);
                        }
                        Some((bdist, brev, bloc)) => {
                            if dist < bdist {
                                second = Some(bdist);
                                ties = 1;
                                best = Some((dist, reverse, loc));
                                budget = (dist + p.margin).min(p.max_k);
                            } else if dist == bdist && (reverse, loc) != (brev, bloc) {
                                ties += 1;
                                second = Some(second.map_or(dist, |s| s.min(dist)));
                            } else if dist > bdist {
                                second = Some(second.map_or(dist, |s| s.min(dist)));
                            }
                        }
                    },
                    None => {}
                }
            }
            prof.verify_time += verify_start.elapsed();

            let Some((dist, reverse, loc)) = best else {
                return AlignmentResult::unmapped();
            };

            // CIGAR via banded traceback at the winning window.
            let window_len = bases.len() + p.max_k as usize;
            let text = self.ref_window(loc, window_len).expect("winning window vanished");
            let pattern: &[u8] = if reverse { &s.rc } else { bases };
            let band = (dist.max(1) as usize) + 1;
            let cigar =
                banded_global_cigar(text, pattern, band).map(|(_, c)| c).unwrap_or_default();

            let q = mapq(MapqInput { best: dist, second_best: second, ties, max_k: p.max_k });
            AlignmentResult {
                location: loc as i64,
                mate_location: -1,
                template_len: 0,
                flags: if reverse { flags::REVERSE } else { 0 },
                mapq: q,
                cigar,
            }
        })
    }

    fn name(&self) -> &'static str {
        "snap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_seq::read::Origin;
    use persona_seq::simulate::{ReadSimulator, SimParams};

    fn setup(seed: u64, len: usize) -> (Arc<Genome>, SnapAligner) {
        let genome = Arc::new(Genome::random_with_seed(seed, &[("chr1", len)]));
        let index = Arc::new(SeedIndex::build(&genome, 16));
        let aligner = SnapAligner::new(genome.clone(), index, SnapParams::default());
        (genome, aligner)
    }

    #[test]
    fn aligns_error_free_reads_exactly() {
        let (genome, aligner) = setup(21, 60_000);
        let mut sim = ReadSimulator::new(
            &genome,
            SimParams { error_rate: 0.0, seed: 9, ..SimParams::default() },
        );
        let mut correct = 0;
        let mut ambiguous = 0;
        let n = 200;
        for _ in 0..n {
            let read = sim.next_single();
            let origin = Origin::parse(&read.meta).unwrap();
            let result = aligner.align_read(&read.bases, &read.quals);
            assert!(!result.is_unmapped());
            let expected = genome.to_linear(origin.contig as usize, origin.pos) as i64;
            if result.location == expected && result.is_reverse() == origin.reverse {
                correct += 1;
            } else if result.mapq < 10 {
                // Reads from planted repeats legitimately map to another
                // copy; the aligner must flag them as ambiguous.
                ambiguous += 1;
            }
        }
        assert!(
            correct + ambiguous >= n * 97 / 100,
            "{correct} correct + {ambiguous} ambiguous of {n}"
        );
        assert!(correct >= n * 90 / 100, "only {correct}/{n} correct");
    }

    #[test]
    fn aligns_noisy_reads() {
        let (genome, aligner) = setup(22, 60_000);
        let mut sim = ReadSimulator::new(
            &genome,
            SimParams { error_rate: 0.02, seed: 10, ..SimParams::default() },
        );
        let mut correct = 0;
        let n = 200;
        for _ in 0..n {
            let read = sim.next_single();
            let origin = Origin::parse(&read.meta).unwrap();
            let result = aligner.align_read(&read.bases, &read.quals);
            let expected = genome.to_linear(origin.contig as usize, origin.pos) as i64;
            if !result.is_unmapped() && result.location == expected {
                correct += 1;
            }
        }
        assert!(correct >= n * 90 / 100, "only {correct}/{n} correct");
    }

    #[test]
    fn garbage_read_is_unmapped() {
        let (_, aligner) = setup(23, 30_000);
        // A read that exists nowhere: all-T with scattered As is very
        // unlikely in a random genome of this size.
        let junk = b"TTTTTTTTTTATTTTTTTTTTATTTTTTTTTTATTTTTTTTTTATTTTTTTTTTATTTTTTTTTTATTTTTTTTTTATTTTTTTTTTATTTTTTTTTTAT";
        let result = aligner.align_read(junk, &vec![b'I'; junk.len()]);
        assert!(result.is_unmapped());
    }

    #[test]
    fn repeat_reads_get_low_mapq() {
        // A genome with an exact two-copy duplication: reads from inside
        // the duplicated block have exactly two perfect placements.
        let base = Genome::random_with_seed(77, &[("chr1", 20_000)]);
        let mut seq = base.contig(0).seq.clone();
        let dup: Vec<u8> = seq[4_000..5_000].to_vec();
        seq.extend_from_slice(&dup);
        let genome = Arc::new(Genome::new(vec![("chr1".into(), seq)]));
        let index = Arc::new(SeedIndex::build(&genome, 16));
        let aligner = SnapAligner::new(genome.clone(), index, SnapParams::default());
        let read: Vec<u8> = genome.contig(0).seq[4_300..4_401].to_vec();
        let result = aligner.align_read(&read, &vec![b'I'; read.len()]);
        assert!(!result.is_unmapped());
        assert!(result.mapq <= 3, "repeat read mapq {}", result.mapq);
    }

    #[test]
    fn unique_reads_get_high_mapq() {
        let (genome, aligner) = setup(24, 60_000);
        let mut sim = ReadSimulator::new(
            &genome,
            SimParams { error_rate: 0.0, seed: 11, ..SimParams::default() },
        );
        let mut high = 0;
        for _ in 0..100 {
            let read = sim.next_single();
            let result = aligner.align_read(&read.bases, &read.quals);
            if result.mapq >= 30 {
                high += 1;
            }
        }
        assert!(high >= 85, "only {high}/100 high-mapq");
    }

    #[test]
    fn cigar_consumes_read() {
        let (genome, aligner) = setup(25, 40_000);
        let mut sim = ReadSimulator::new(
            &genome,
            SimParams { error_rate: 0.01, seed: 12, ..SimParams::default() },
        );
        for _ in 0..50 {
            let read = sim.next_single();
            let result = aligner.align_read(&read.bases, &read.quals);
            if !result.is_unmapped() {
                assert_eq!(result.query_len() as usize, read.bases.len());
            }
        }
    }

    #[test]
    fn profile_is_populated_and_core_bound() {
        let (genome, aligner) = setup(26, 50_000);
        let mut sim = ReadSimulator::new(
            &genome,
            SimParams { error_rate: 0.01, seed: 13, ..SimParams::default() },
        );
        let mut prof = PhaseProfile::default();
        for _ in 0..100 {
            let read = sim.next_single();
            aligner.align_read_profiled(&read.bases, &read.quals, &mut prof);
        }
        assert_eq!(prof.reads, 100);
        assert!(prof.index_ops > 0);
        assert!(prof.candidates > 0);
        assert!(prof.seed_time.as_nanos() > 0);
        assert!(prof.verify_time.as_nanos() > 0);
    }

    #[test]
    fn short_read_handled() {
        let (_, aligner) = setup(27, 30_000);
        // Shorter than the seed: must return unmapped, not panic.
        let result = aligner.align_read(b"ACGTACGT", b"IIIIIIII");
        assert!(result.is_unmapped());
    }
}
