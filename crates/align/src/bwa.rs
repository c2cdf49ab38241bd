//! The BWA-MEM-style aligner: FM-index exact-match seeding, seed
//! chaining, and local alignment of the read against a padded reference
//! window per chain (Li 2013, integrated by Persona in §4.3).
//!
//! Extension is not banded and does not start from the seed ends: each
//! chain's window (the read's span plus `extension_pad` bases either
//! side, clipped to the chain's contig) goes to [`smith_waterman`],
//! which first tries to prove the optimum ungapped
//! ([`crate::sw::smith_waterman_ungapped`]: one scan of the diagonals
//! long enough to beat any gapped score) and poses the full local DP
//! only when it cannot. Either way the result is the DP's, and
//! [`PhaseProfile::dp_cells`] counts the cells posed, window × read.
//!
//! The seeding phase walks the FM-index occurrence table — pointer-
//! chasing over a structure much larger than cache, which is what makes
//! this aligner *memory-bound* in the paper's Fig. 8 analysis, in
//! contrast to SNAP's arithmetic-bound verification. The two phases
//! are timed separately per strand ([`PhaseProfile::seed_time`]:
//! seeding, locate and chaining; [`PhaseProfile::verify_time`]:
//! extension), so that split is a measurement.
//!
//! Seeding restarts a backward search ([`FmIndex::backward_match`])
//! left of every match. The walk answers the first 8 bases of each
//! restart from the index's k-mer table, and once the match is unique
//! and its row sampled it finishes the match on the reference text and
//! returns the match's position ([`Hits::At`]), so chaining locates
//! only the seeds still held as BWT rows. Either way
//! [`PhaseProfile::index_ops`] counts logical steps: one per base the
//! walk consumed plus its failing step, and one per located occurrence.
//!
//! A read allocates nothing but its Smith-Waterman tracebacks and the
//! result it returns: the reverse complement, the seeds, the chains and
//! the candidate list live in a per-thread scratch reused across reads.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use persona_agd::results::{flags, AlignmentResult};
use persona_index::fm::{FmIndex, Hits};
use persona_seq::dna::revcomp_into;
use persona_seq::Genome;

use crate::mapq::{mapq, MapqInput};
use crate::profile::PhaseProfile;
use crate::sw::{smith_waterman, LocalAlignment, Scoring};
use crate::Aligner;

/// BWA-MEM-style tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct BwaParams {
    /// Minimum exact-match seed length (BWA-MEM's `-k`, default 19).
    pub min_seed_len: usize,
    /// Seeds with more reference occurrences than this are skipped.
    pub max_occ: usize,
    /// Maximum chains extended with Smith-Waterman.
    pub max_chains: usize,
    /// Reference padding around a chain during extension.
    pub extension_pad: usize,
    /// Alignment scoring.
    pub scoring: Scoring,
    /// Minimum accepted SW score, as a fraction of the perfect score.
    pub min_score_frac: f64,
}

impl Default for BwaParams {
    fn default() -> Self {
        BwaParams {
            min_seed_len: 19,
            max_occ: 64,
            max_chains: 10,
            extension_pad: 12,
            scoring: Scoring::default(),
            min_score_frac: 0.5,
        }
    }
}

/// A maximal-ish exact match seed.
#[derive(Debug, Clone, Copy)]
struct Seed {
    /// Query interval start (inclusive).
    qbeg: usize,
    /// Query interval end (exclusive).
    qend: usize,
    /// The match's BWT rows, or its one text position.
    hits: Hits,
}

/// A scored local alignment of one strand of the read.
struct Candidate {
    score: i32,
    location: i64,
    reverse: bool,
    local: LocalAlignment,
}

/// Per-thread buffers of [`BwaMemAligner::align_read_profiled`].
#[derive(Default)]
struct Scratch {
    /// The read's reverse complement.
    rc: Vec<u8>,
    seeds: Vec<Seed>,
    /// `(candidate location, seed bases)`.
    chains: Vec<(u32, u32)>,
    candidates: Vec<Candidate>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// The BWA-MEM-style aligner.
pub struct BwaMemAligner {
    genome: Arc<Genome>,
    fm: Arc<FmIndex>,
    params: BwaParams,
}

impl BwaMemAligner {
    /// Creates an aligner over a prebuilt FM-index of `genome`.
    ///
    /// # Panics
    ///
    /// Panics if the index's text is not as long as the genome: seed
    /// positions come from the index, windows from the genome.
    pub fn new(genome: Arc<Genome>, fm: Arc<FmIndex>, params: BwaParams) -> Self {
        assert_eq!(
            fm.text_len() as u64,
            genome.total_len(),
            "the FM-index was not built from this genome"
        );
        BwaMemAligner { genome, fm, params }
    }

    /// The aligner's parameters.
    pub fn params(&self) -> &BwaParams {
        &self.params
    }

    /// Finds SMEM-style seeds by repeated maximal backward extension
    /// from the right end of unexplored read suffixes, into `seeds`
    /// (cleared first).
    fn find_seeds(&self, read: &[u8], prof: &mut PhaseProfile, seeds: &mut Vec<Seed>) {
        seeds.clear();
        let mut end = read.len();
        while end >= self.params.min_seed_len {
            let (hits, j, ops) = self.fm.backward_match(read, end);
            prof.index_ops += ops;
            let len = end - j;
            if len >= self.params.min_seed_len {
                seeds.push(Seed { qbeg: j, qend: end, hits });
            }
            // Restart left of this match (skip at least one position).
            end = if j < end { j } else { end - 1 };
        }
    }

    /// Bench hook: the seeds of one strand, as `align_read` finds them.
    #[doc(hidden)]
    pub fn seed_count(&self, strand: &[u8]) -> usize {
        let mut seeds = Vec::new();
        self.find_seeds(strand, &mut PhaseProfile::default(), &mut seeds);
        seeds.len()
    }

    /// Aligns one strand, appending scored candidate alignments to
    /// `s.candidates`; `s.seeds` and `s.chains` are scratch.
    ///
    /// The two phases are timed where they happen: seeding, locate and
    /// chaining (the FM-index walks) into `seed_time`, Smith-Waterman
    /// extension into `verify_time`. A seed finished on the text has its
    /// position already; it still counts one index op, for the locate
    /// it stands for.
    fn align_strand(&self, read: &[u8], reverse: bool, prof: &mut PhaseProfile, s: &mut Scratch) {
        let seed_start = Instant::now();
        self.find_seeds(read, prof, &mut s.seeds);
        // Chain seeds by approximate read-start diagonal: one
        // (candidate location, seed bases) entry per located
        // occurrence, then entries of one location summed.
        let chains = &mut s.chains;
        chains.clear();
        for seed in &s.seeds {
            let occurrences = seed.hits.count();
            if occurrences as usize > self.params.max_occ {
                continue;
            }
            prof.index_ops += u64::from(occurrences);
            let mut chain = |pos: u32| {
                let cand = pos as i64 - seed.qbeg as i64;
                if cand >= 0 {
                    chains.push((cand as u32, (seed.qend - seed.qbeg) as u32));
                }
            };
            match seed.hits {
                Hits::At(pos) => chain(pos),
                Hits::Rows(iv) => (iv.lo..iv.hi).for_each(|row| chain(self.fm.locate_row(row))),
            }
        }
        chains.sort_unstable();
        chains.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        // Most seed bases first, then lowest location.
        chains.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        chains.truncate(self.params.max_chains);
        let verify_start = Instant::now();
        prof.seed_time += verify_start - seed_start;

        // Extend each chain with local SW.
        for &(cand, _seed_bases) in chains.iter() {
            prof.candidates += 1;
            if u64::from(cand) >= self.genome.total_len() {
                continue;
            }
            // The window is padded on the candidate's own contig: a
            // candidate near its start must not reach into the previous
            // contig's tail.
            let (c, off) = self.genome.from_linear(u64::from(cand));
            let pad = self.params.extension_pad;
            let off = (off as usize).saturating_sub(pad);
            let contig = &self.genome.contig(c).seq;
            let window_len = read.len() + 2 * pad;
            let end = (off + window_len).min(contig.len());
            if end <= off {
                continue;
            }
            let window = &contig[off..end];
            prof.dp_cells += (window.len() * read.len()) as u64;
            let local = smith_waterman(window, read, self.params.scoring);
            if local.score <= 0 {
                continue;
            }
            let location = self.genome.to_linear(c, (off + local.ref_start) as u64) as i64;
            s.candidates.push(Candidate { score: local.score, location, reverse, local });
        }
        prof.verify_time += verify_start.elapsed();
    }

    /// Estimated edit count implied by an SW score on a read of `qlen`.
    fn est_edits(&self, score: i32, qlen: usize) -> u32 {
        let sc = self.params.scoring;
        let perfect = qlen as i32 * sc.match_score;
        let per_edit = (sc.match_score - sc.mismatch).max(1);
        (((perfect - score).max(0)) / per_edit) as u32
    }
}

impl Aligner for BwaMemAligner {
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
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            s.candidates.clear();
            self.align_strand(bases, false, prof, s);
            let mut rc = std::mem::take(&mut s.rc);
            revcomp_into(bases, &mut rc);
            self.align_strand(&rc, true, prof, s);
            s.rc = rc;

            let all = &mut s.candidates;
            all.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(a.location.cmp(&b.location)));
            let min_score = (bases.len() as f64
                * self.params.scoring.match_score as f64
                * self.params.min_score_frac) as i32;
            let Some(best) = all.first() else {
                return AlignmentResult::unmapped();
            };
            if best.score < min_score {
                return AlignmentResult::unmapped();
            }
            let ties =
                all.iter().filter(|c| c.score == best.score && c.location != best.location).count()
                    as u32
                    + 1;
            let second = all
                .iter()
                .find(|c| c.score < best.score || c.location != best.location)
                .map(|c| self.est_edits(c.score, bases.len()));
            let q = mapq(MapqInput {
                best: self.est_edits(best.score, bases.len()),
                second_best: second,
                ties,
                max_k: (bases.len() / 8) as u32,
            });
            AlignmentResult {
                location: best.location,
                mate_location: -1,
                template_len: 0,
                flags: if best.reverse { flags::REVERSE } else { 0 },
                mapq: q,
                cigar: best.local.cigar_with_clips(bases.len()),
            }
        })
    }

    fn name(&self) -> &'static str {
        "bwa"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_agd::results::{CigarKind, CigarOp};
    use persona_seq::read::Origin;
    use persona_seq::simulate::{ReadSimulator, SimParams};

    fn setup(seed: u64, len: usize) -> (Arc<Genome>, BwaMemAligner) {
        let genome = Arc::new(Genome::random_with_seed(seed, &[("chr1", len)]));
        let fm = Arc::new(FmIndex::build(&genome));
        let aligner = BwaMemAligner::new(genome.clone(), fm, BwaParams::default());
        (genome, aligner)
    }

    #[test]
    fn aligns_error_free_reads() {
        let (genome, aligner) = setup(31, 40_000);
        let mut sim = ReadSimulator::new(
            &genome,
            SimParams { error_rate: 0.0, seed: 19, ..SimParams::default() },
        );
        let mut correct = 0;
        let mut ambiguous = 0;
        let n = 100;
        for _ in 0..n {
            let read = sim.next_single();
            let origin = Origin::parse(&read.meta).unwrap();
            let result = aligner.align_read(&read.bases, &read.quals);
            assert!(!result.is_unmapped());
            let expected = genome.to_linear(origin.contig as usize, origin.pos) as i64;
            if result.location == expected && result.is_reverse() == origin.reverse {
                correct += 1;
            } else if result.mapq < 10 {
                ambiguous += 1; // Repeat-copy placements must be low-MAPQ.
            }
        }
        assert!(correct + ambiguous >= n * 95 / 100, "{correct}+{ambiguous} of {n}");
        assert!(correct >= n * 88 / 100, "only {correct}/{n} correct");
    }

    #[test]
    fn aligns_noisy_reads() {
        let (genome, aligner) = setup(32, 40_000);
        let mut sim = ReadSimulator::new(
            &genome,
            SimParams { error_rate: 0.02, seed: 20, ..SimParams::default() },
        );
        let mut correct = 0;
        let mut ambiguous = 0;
        let n = 100;
        for _ in 0..n {
            let read = sim.next_single();
            let origin = Origin::parse(&read.meta).unwrap();
            let result = aligner.align_read(&read.bases, &read.quals);
            let expected = genome.to_linear(origin.contig as usize, origin.pos) as i64;
            if !result.is_unmapped() && (result.location - expected).abs() <= 2 {
                correct += 1;
            } else if !result.is_unmapped() && result.mapq < 10 {
                ambiguous += 1;
            }
        }
        assert!(correct + ambiguous >= n * 88 / 100, "{correct}+{ambiguous} of {n}");
        assert!(correct >= n * 80 / 100, "only {correct}/{n} correct");
    }

    /// Exact reads at the very start of a contig that is not the first
    /// one map there: the extension window must not be padded into the
    /// previous contig's tail.
    #[test]
    fn maps_reads_at_a_later_contig_start() {
        let genome = Arc::new(Genome::random_with_seed(37, &[("chr1", 20_000), ("chr2", 20_000)]));
        let fm = Arc::new(FmIndex::build(&genome));
        let aligner = BwaMemAligner::new(genome.clone(), fm, BwaParams::default());
        for off in [0usize, 1, 5, 11, 12, 40] {
            let read = &genome.contig(1).seq[off..off + 101];
            let result = aligner.align_read(read, &[b'I'; 101]);
            assert!(!result.is_unmapped(), "chr2 offset {off} unmapped");
            assert_eq!(result.location, genome.to_linear(1, off as u64) as i64, "offset {off}");
            assert!(!result.is_reverse());
            assert_eq!(result.cigar, vec![CigarOp { kind: CigarKind::Match, len: 101 }]);
        }
    }

    #[test]
    #[should_panic(expected = "the FM-index was not built from this genome")]
    fn rejects_an_index_of_another_genome() {
        let genome = Arc::new(Genome::random_with_seed(38, &[("chr1", 5_000)]));
        let other = Genome::random_with_seed(38, &[("chr1", 5_000), ("chr2", 10)]);
        BwaMemAligner::new(genome, Arc::new(FmIndex::build(&other)), BwaParams::default());
    }

    #[test]
    fn junk_read_unmapped() {
        let (_, aligner) = setup(33, 30_000);
        let junk = vec![b'N'; 101];
        let result = aligner.align_read(&junk, &vec![b'I'; 101]);
        assert!(result.is_unmapped());
    }

    #[test]
    fn profile_is_memory_heavy() {
        let (genome, aligner) = setup(34, 40_000);
        let mut sim = ReadSimulator::new(
            &genome,
            SimParams { error_rate: 0.01, seed: 21, ..SimParams::default() },
        );
        let mut prof = PhaseProfile::default();
        for _ in 0..50 {
            let read = sim.next_single();
            aligner.align_read_profiled(&read.bases, &read.quals, &mut prof);
        }
        assert!(prof.index_ops > 0);
        assert!(prof.seed_time.as_nanos() > 0);
    }

    #[test]
    fn cigar_consumes_read_when_mapped() {
        let (genome, aligner) = setup(35, 30_000);
        let mut sim = ReadSimulator::new(
            &genome,
            SimParams { error_rate: 0.01, seed: 22, ..SimParams::default() },
        );
        for _ in 0..30 {
            let read = sim.next_single();
            let result = aligner.align_read(&read.bases, &read.quals);
            if !result.is_unmapped() {
                assert_eq!(result.query_len() as usize, read.bases.len());
            }
        }
    }

    #[test]
    fn seeds_found_for_clean_reads() {
        let (genome, aligner) = setup(36, 30_000);
        let read: Vec<u8> = genome.contig(0).seq[1000..1101].to_vec();
        let mut prof = PhaseProfile::default();
        let mut seeds = Vec::new();
        aligner.find_seeds(&read, &mut prof, &mut seeds);
        assert!(!seeds.is_empty());
        // A clean read should produce one long SMEM covering it.
        assert!(seeds.iter().any(|s| s.qend - s.qbeg >= 50), "no long seed");
    }
}
