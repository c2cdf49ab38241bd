//! A wgsim-style read simulator.
//!
//! Samples reads (single- or paired-end) uniformly from a reference
//! genome, applies substitution sequencing errors at a configurable rate,
//! and records the true origin in the read metadata so that downstream
//! tests can score alignment accuracy exactly.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::dna::{revcomp_in_place, BASES};
use crate::genome::Genome;
use crate::quality::simulate_quality_string;
use crate::read::{Origin, Read, ReadPair};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimParams {
    /// Read length in bases (the paper's dataset: 101).
    pub read_len: usize,
    /// Per-base substitution error probability.
    pub error_rate: f64,
    /// Probability of sampling the reverse strand.
    pub revcomp_prob: f64,
    /// Mean paired-end insert size (fragment length).
    pub insert_mean: f64,
    /// Standard deviation of the insert size.
    pub insert_sd: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            read_len: 101,
            error_rate: 0.002,
            revcomp_prob: 0.5,
            insert_mean: 350.0,
            insert_sd: 35.0,
            seed: 0xC0FFEE,
        }
    }
}

/// Generates simulated reads from a genome.
pub struct ReadSimulator<'g> {
    genome: &'g Genome,
    params: SimParams,
    rng: StdRng,
    serial: u64,
    /// Contigs long enough to sample from, with cumulative weights.
    eligible: Vec<(usize, u64)>,
}

impl<'g> ReadSimulator<'g> {
    /// Creates a simulator over `genome`.
    ///
    /// # Panics
    ///
    /// Panics if no contig is at least `read_len` long.
    pub fn new(genome: &'g Genome, params: SimParams) -> Self {
        let mut eligible = Vec::new();
        let mut cum = 0u64;
        for (i, c) in genome.contigs().iter().enumerate() {
            if c.seq.len() >= params.read_len {
                cum += (c.seq.len() - params.read_len + 1) as u64;
                eligible.push((i, cum));
            }
        }
        assert!(!eligible.is_empty(), "no contig is >= read_len bases long");
        ReadSimulator {
            genome,
            params,
            rng: StdRng::seed_from_u64(params.seed),
            serial: 0,
            eligible,
        }
    }

    /// Total weight for uniform position sampling.
    fn total_weight(&self) -> u64 {
        self.eligible.last().map(|&(_, w)| w).unwrap()
    }

    /// Samples a (contig, start) uniformly over valid read positions.
    fn sample_position(&mut self, span: usize) -> (usize, u64) {
        loop {
            let w = self.rng.random_range(0..self.total_weight());
            let slot = self.eligible.partition_point(|&(_, cum)| cum <= w);
            let (contig, _cum) = self.eligible[slot];
            let prev = if slot == 0 { 0 } else { self.eligible[slot - 1].1 };
            let offset = w - prev;
            let contig_len = self.genome.contig(contig).seq.len();
            // Re-sample if a longer span (paired fragment) does not fit.
            if offset as usize + span <= contig_len {
                return (contig, offset);
            }
        }
    }

    /// Extracts bases, applies errors, builds the read.
    fn build_read(&mut self, contig: usize, start: u64, reverse: bool, mate: Option<u8>) -> Read {
        let len = self.params.read_len;
        let seq = &self.genome.contig(contig).seq;
        let mut bases = seq[start as usize..start as usize + len].to_vec();
        if reverse {
            revcomp_in_place(&mut bases);
        }
        // Substitution errors.
        for b in bases.iter_mut() {
            if self.rng.random::<f64>() < self.params.error_rate {
                let cur = *b;
                loop {
                    let alt = BASES[self.rng.random_range(0..4usize)];
                    if alt != cur {
                        *b = alt;
                        break;
                    }
                }
            }
        }
        let quals = simulate_quality_string(&mut self.rng, len);
        let origin = Origin { contig: contig as u32, pos: start, reverse, serial: self.serial };
        Read::new(origin.to_meta(mate), bases, quals)
    }

    /// Generates the next single-end read.
    pub fn next_single(&mut self) -> Read {
        let (contig, start) = self.sample_position(self.params.read_len);
        let reverse = self.rng.random::<f64>() < self.params.revcomp_prob;
        let read = self.build_read(contig, start, reverse, None);
        self.serial += 1;
        read
    }

    /// Generates the next read pair in FR orientation.
    ///
    /// Mate 1 is forward at the fragment start; mate 2 is
    /// reverse-complemented at the fragment end (or flipped as a whole
    /// with probability [`SimParams::revcomp_prob`]).
    pub fn next_pair(&mut self) -> ReadPair {
        let len = self.params.read_len;
        let insert = loop {
            // Normal-ish insert from the sum of uniforms (Irwin-Hall 3).
            let s: f64 = (0..3).map(|_| self.rng.random::<f64>()).sum::<f64>() / 3.0;
            let z = (s - 0.5) * (12f64 / 3f64).sqrt(); // Approx standard normal.
            let v = self.params.insert_mean + z * self.params.insert_sd;
            let v = v.round() as usize;
            if v >= 2 * len {
                break v;
            }
        };
        let (contig, start) = self.sample_position(insert);
        let flip = self.rng.random::<f64>() < self.params.revcomp_prob;
        let r1_pos = start;
        let r2_pos = start + insert as u64 - len as u64;
        let (r1, r2) = if !flip {
            let r1 = self.build_read(contig, r1_pos, false, Some(1));
            let r2 = self.build_read(contig, r2_pos, true, Some(2));
            (r1, r2)
        } else {
            let r1 = self.build_read(contig, r2_pos, true, Some(1));
            let r2 = self.build_read(contig, r1_pos, false, Some(2));
            (r1, r2)
        };
        self.serial += 1;
        ReadPair { r1, r2 }
    }

    /// Generates `n` single-end reads.
    pub fn take_single(&mut self, n: usize) -> Vec<Read> {
        (0..n).map(|_| self.next_single()).collect()
    }

    /// Generates `n` read pairs.
    pub fn take_pairs(&mut self, n: usize) -> Vec<ReadPair> {
        (0..n).map(|_| self.next_pair()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_genome() -> Genome {
        Genome::random_with_seed(123, &[("chr1", 50_000), ("chr2", 20_000)])
    }

    #[test]
    fn reads_have_correct_shape() {
        let g = small_genome();
        let mut sim = ReadSimulator::new(&g, SimParams::default());
        for _ in 0..100 {
            let r = sim.next_single();
            assert_eq!(r.bases.len(), 101);
            assert_eq!(r.quals.len(), 101);
            assert!(Origin::parse(&r.meta).is_some());
        }
    }

    #[test]
    fn zero_error_reads_match_reference_exactly() {
        let g = small_genome();
        let params = SimParams { error_rate: 0.0, ..SimParams::default() };
        let mut sim = ReadSimulator::new(&g, params);
        for _ in 0..200 {
            let r = sim.next_single();
            let o = Origin::parse(&r.meta).unwrap();
            let refseq =
                &g.contig(o.contig as usize).seq[o.pos as usize..o.pos as usize + r.bases.len()];
            let expected = if o.reverse { crate::dna::revcomp(refseq) } else { refseq.to_vec() };
            assert_eq!(r.bases, expected);
        }
    }

    #[test]
    fn error_rate_is_respected() {
        let g = small_genome();
        let params = SimParams { error_rate: 0.05, revcomp_prob: 0.0, ..SimParams::default() };
        let mut sim = ReadSimulator::new(&g, params);
        let mut mismatches = 0usize;
        let mut total = 0usize;
        for _ in 0..500 {
            let r = sim.next_single();
            let o = Origin::parse(&r.meta).unwrap();
            let refseq =
                &g.contig(o.contig as usize).seq[o.pos as usize..o.pos as usize + r.bases.len()];
            mismatches += r.bases.iter().zip(refseq).filter(|(a, b)| a != b).count();
            total += r.bases.len();
        }
        let rate = mismatches as f64 / total as f64;
        assert!((0.03..0.07).contains(&rate), "observed error rate {rate}");
    }

    #[test]
    fn pairs_are_fr_oriented_with_sane_insert() {
        let g = small_genome();
        let params = SimParams { error_rate: 0.0, ..SimParams::default() };
        let mut sim = ReadSimulator::new(&g, params);
        for _ in 0..100 {
            let pair = sim.next_pair();
            let o1 = Origin::parse(&pair.r1.meta).unwrap();
            let o2 = Origin::parse(&pair.r2.meta).unwrap();
            assert_eq!(o1.contig, o2.contig);
            assert_eq!(o1.serial, o2.serial);
            assert_ne!(o1.reverse, o2.reverse, "mates must be on opposite strands");
            let (fwd, rev) = if o1.reverse { (o2, o1) } else { (o1, o2) };
            assert!(fwd.pos <= rev.pos, "FR orientation violated");
            let insert = rev.pos + 101 - fwd.pos;
            assert!((202..=600).contains(&insert), "insert {insert}");
        }
    }

    #[test]
    fn both_strands_sampled() {
        let g = small_genome();
        let mut sim = ReadSimulator::new(&g, SimParams::default());
        let reads = sim.take_single(300);
        let rev = reads.iter().filter(|r| Origin::parse(&r.meta).unwrap().reverse).count();
        assert!((60..240).contains(&rev), "strand balance off: {rev}/300");
    }

    #[test]
    fn deterministic_with_seed() {
        let g = small_genome();
        let a: Vec<_> = ReadSimulator::new(&g, SimParams::default()).take_single(50);
        let b: Vec<_> = ReadSimulator::new(&g, SimParams::default()).take_single(50);
        assert_eq!(a, b);
    }

    #[test]
    fn serials_unique_and_dense() {
        let g = small_genome();
        let mut sim = ReadSimulator::new(&g, SimParams::default());
        let reads = sim.take_single(100);
        for (i, r) in reads.iter().enumerate() {
            assert_eq!(Origin::parse(&r.meta).unwrap().serial, i as u64);
        }
    }
}
