//! A wgsim-style read simulator.
//!
//! Samples single-end reads uniformly from a reference genome, applies
//! substitution sequencing errors at a configurable rate, and records
//! the true origin in the read metadata so that downstream tests can
//! score alignment accuracy exactly.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::dna::{revcomp_in_place, BASES};
use crate::genome::Genome;
use crate::quality::simulate_quality_string;
use crate::read::{Origin, Read};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimParams {
    /// Read length in bases (the paper's dataset: 101).
    pub read_len: usize,
    /// Per-base substitution error probability.
    pub error_rate: f64,
    /// Probability of sampling the reverse strand.
    pub revcomp_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams { read_len: 101, error_rate: 0.002, revcomp_prob: 0.5, seed: 0xC0FFEE }
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
    fn sample_position(&mut self) -> (usize, u64) {
        let w = self.rng.random_range(0..self.total_weight());
        let slot = self.eligible.partition_point(|&(_, cum)| cum <= w);
        let prev = if slot == 0 { 0 } else { self.eligible[slot - 1].1 };
        (self.eligible[slot].0, w - prev)
    }

    /// Extracts bases, applies errors, builds the read.
    fn build_read(&mut self, contig: usize, start: u64, reverse: bool) -> Read {
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
        Read::new(origin.to_meta(), bases, quals)
    }

    /// Generates the next single-end read.
    pub fn next_single(&mut self) -> Read {
        let (contig, start) = self.sample_position();
        let reverse = self.rng.random::<f64>() < self.params.revcomp_prob;
        let read = self.build_read(contig, start, reverse);
        self.serial += 1;
        read
    }

    /// Generates `n` single-end reads.
    pub fn take_single(&mut self, n: usize) -> Vec<Read> {
        (0..n).map(|_| self.next_single()).collect()
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
