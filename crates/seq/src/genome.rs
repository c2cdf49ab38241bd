//! Reference genome model and deterministic synthetic generation.
//!
//! Substitutes for hg19 in the paper's experiments: a genome is a list of
//! named contigs of `A,C,G,T` bytes. The generator plants tandem and
//! dispersed repeats so that aligner candidate selection and MAPQ logic
//! see realistic ambiguity.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A single reference sequence (chromosome / contig).
#[derive(Debug, Clone)]
pub struct Contig {
    /// Contig name, e.g. `chr1`.
    pub name: String,
    /// Uppercase `A,C,G,T` bases.
    pub seq: Vec<u8>,
}

/// A reference genome: an ordered list of contigs.
///
/// Positions are addressed either per-contig (`(contig_index, offset)`)
/// or as a global linear offset over the concatenation, which is what
/// the aligners index.
#[derive(Debug, Clone)]
pub struct Genome {
    contigs: Vec<Contig>,
    /// Cumulative start offset of each contig in the linear space.
    starts: Vec<u64>,
    total_len: u64,
}

impl Genome {
    /// Builds a genome from (name, sequence) pairs.
    ///
    /// # Panics
    ///
    /// Panics if any sequence contains characters outside `A,C,G,T,N`.
    pub fn new(contigs: Vec<(String, Vec<u8>)>) -> Self {
        let mut starts = Vec::with_capacity(contigs.len());
        let mut total = 0u64;
        for (name, seq) in &contigs {
            assert!(
                seq.iter().all(|&b| crate::dna::is_valid_base(b)),
                "contig {name} contains invalid bases"
            );
            starts.push(total);
            total += seq.len() as u64;
        }
        Genome {
            contigs: contigs.into_iter().map(|(name, seq)| Contig { name, seq }).collect(),
            starts,
            total_len: total,
        }
    }

    /// Generates a deterministic random genome.
    ///
    /// `spec` lists (contig name, length). About 5% of each contig is
    /// covered by repeated segments (copied from earlier in the contig)
    /// to create alignment ambiguity, and GC content is biased to ~41%
    /// (human-like).
    pub fn random_with_seed(seed: u64, spec: &[(&str, usize)]) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut contigs = Vec::with_capacity(spec.len());
        for &(name, len) in spec {
            let mut seq = Vec::with_capacity(len);
            while seq.len() < len {
                // Occasionally copy a repeat from earlier sequence. The
                // rate is per emitted segment (~375 bases each), tuned so
                // that roughly 5-10% of the genome is repeat-covered.
                if seq.len() > 2000 && rng.random_range(0..10_000) < 2 {
                    let rep_len = rng.random_range(150..600usize).min(len - seq.len());
                    let src = rng.random_range(0..seq.len() - rep_len.min(seq.len() - 1));
                    let copy: Vec<u8> = seq[src..src + rep_len].to_vec();
                    seq.extend_from_slice(&copy);
                } else {
                    // Human-like base composition: ~41% GC.
                    let r: f64 = rng.random();
                    let b = if r < 0.295 {
                        b'A'
                    } else if r < 0.590 {
                        b'T'
                    } else if r < 0.795 {
                        b'C'
                    } else {
                        b'G'
                    };
                    seq.push(b);
                }
            }
            seq.truncate(len);
            contigs.push((name.to_string(), seq));
        }
        Genome::new(contigs)
    }

    /// Number of contigs.
    pub fn num_contigs(&self) -> usize {
        self.contigs.len()
    }

    /// The contigs in order.
    pub fn contigs(&self) -> &[Contig] {
        &self.contigs
    }

    /// Total length across contigs.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// The contig at `idx`.
    pub fn contig(&self, idx: usize) -> &Contig {
        &self.contigs[idx]
    }

    /// Finds a contig index by name.
    pub fn contig_index(&self, name: &str) -> Option<usize> {
        self.contigs.iter().position(|c| c.name == name)
    }

    /// Converts a (contig, offset) pair to a global linear position.
    pub fn to_linear(&self, contig: usize, offset: u64) -> u64 {
        debug_assert!(offset <= self.contigs[contig].seq.len() as u64);
        self.starts[contig] + offset
    }

    /// Converts a global linear position back to (contig, offset).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= total_len()`.
    pub fn from_linear(&self, pos: u64) -> (usize, u64) {
        assert!(pos < self.total_len, "position {pos} out of range");
        let idx = match self.starts.binary_search(&pos) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (idx, pos - self.starts[idx])
    }

    /// Returns `len` bases at global linear position `pos`, or `None` if
    /// the range crosses a contig boundary or runs past the end.
    pub fn slice_linear(&self, pos: u64, len: usize) -> Option<&[u8]> {
        if pos >= self.total_len {
            return None;
        }
        let (c, off) = self.from_linear(pos);
        let seq = &self.contigs[c].seq;
        let off = off as usize;
        if off + len > seq.len() {
            return None;
        }
        Some(&seq[off..off + len])
    }

    /// Iterates over the concatenated sequence.
    pub fn linear_iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.contigs.iter().flat_map(|c| c.seq.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = Genome::random_with_seed(42, &[("chr1", 5000), ("chr2", 3000)]);
        let b = Genome::random_with_seed(42, &[("chr1", 5000), ("chr2", 3000)]);
        assert_eq!(a.contig(0).seq, b.contig(0).seq);
        assert_eq!(a.contig(1).seq, b.contig(1).seq);
        let c = Genome::random_with_seed(43, &[("chr1", 5000), ("chr2", 3000)]);
        assert_ne!(a.contig(0).seq, c.contig(0).seq);
    }

    #[test]
    fn lengths_and_names() {
        let g = Genome::random_with_seed(1, &[("chr1", 5000), ("chrM", 100)]);
        assert_eq!(g.num_contigs(), 2);
        assert_eq!(g.contig(0).seq.len(), 5000);
        assert_eq!(g.contig(1).seq.len(), 100);
        assert_eq!(g.total_len(), 5100);
        assert_eq!(g.contig_index("chrM"), Some(1));
        assert_eq!(g.contig_index("chrX"), None);
    }

    #[test]
    fn linear_mapping_roundtrip() {
        let g = Genome::random_with_seed(2, &[("a", 100), ("b", 50), ("c", 7)]);
        for pos in [0u64, 1, 99, 100, 149, 150, 156] {
            let (c, off) = g.from_linear(pos);
            assert_eq!(g.to_linear(c, off), pos);
        }
        assert_eq!(g.from_linear(0), (0, 0));
        assert_eq!(g.from_linear(100), (1, 0));
        assert_eq!(g.from_linear(156), (2, 6));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn linear_out_of_range_panics() {
        let g = Genome::random_with_seed(2, &[("a", 10)]);
        g.from_linear(10);
    }

    #[test]
    fn slice_linear_boundaries() {
        let g = Genome::new(vec![("a".into(), b"AAAA".to_vec()), ("b".into(), b"CCCC".to_vec())]);
        assert_eq!(g.slice_linear(0, 4), Some(&b"AAAA"[..]));
        assert_eq!(g.slice_linear(4, 4), Some(&b"CCCC"[..]));
        assert_eq!(g.slice_linear(2, 4), None); // Crosses boundary.
        assert_eq!(g.slice_linear(6, 4), None); // Past end.
        assert_eq!(g.slice_linear(8, 1), None); // Out of range.
    }

    #[test]
    fn gc_is_humanlike() {
        let g = Genome::random_with_seed(3, &[("chr1", 200_000)]);
        let seq = &g.contig(0).seq;
        let gc = seq.iter().filter(|&&b| b == b'G' || b == b'C').count() as f64 / seq.len() as f64;
        assert!((0.37..0.45).contains(&gc), "gc {gc}");
    }

    #[test]
    fn repeats_exist() {
        // The generator must plant exact repeats >= 150 bp.
        let g = Genome::random_with_seed(4, &[("chr1", 300_000)]);
        let seq = &g.contig(0).seq;
        // Look for any 40-mer appearing twice via a quick hash count.
        use std::collections::HashMap;
        let mut counts: HashMap<&[u8], u32> = HashMap::new();
        for w in seq.windows(40).step_by(7) {
            *counts.entry(w).or_default() += 1;
        }
        assert!(counts.values().any(|&c| c >= 2), "no repeats found");
    }

    #[test]
    #[should_panic(expected = "invalid bases")]
    fn rejects_invalid_bases() {
        Genome::new(vec![("bad".into(), b"ACGX".to_vec())]);
    }
}
