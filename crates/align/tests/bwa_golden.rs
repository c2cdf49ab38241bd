//! Golden digest of the BWA-MEM-style aligner's results column.
//!
//! Captured at the commit *before* the O(L) traceback, the dependency-
//! free Smith-Waterman forward pass and the one-cache-line FM rank
//! landed, so any kernel rewrite underneath the [`Aligner`] trait has to
//! reproduce location, flags, mapq and CIGAR of every read byte for
//! byte — and the exact work counts (`index_ops`, `dp_cells`,
//! `candidates`) the benchmark's per-layer ledger is built from.

use std::sync::Arc;

use persona_align::bwa::{BwaMemAligner, BwaParams};
use persona_align::profile::PhaseProfile;
use persona_align::{Aligner, Kernel};
use persona_index::FmIndex;
use persona_seq::simulate::{ReadSimulator, SimParams};
use persona_seq::Genome;

const READS: usize = 2_000;
const GOLDEN_DIGEST: u64 = 0x8456_7f7d_f096_06e3;
const GOLDEN_COUNTS: (u64, u64, u64) = (397_116, 35_095_582, 2_785);

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// 2,000 seeded 101 bp reads at 1 % substitutions; every third read
/// additionally carries a 1–4 base insertion or deletion.
fn reads(genome: &Genome) -> Vec<Vec<u8>> {
    let mut sim = ReadSimulator::new(
        genome,
        SimParams { error_rate: 0.01, seed: 77, ..SimParams::default() },
    );
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |bound: usize| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((x >> 33) as usize) % bound
    };
    (0..READS)
        .map(|k| {
            let mut bases = sim.next_single().bases;
            if k % 3 == 0 {
                let at = 15 + next(bases.len() - 30);
                let len = 1 + next(4);
                if next(2) == 0 {
                    bases.drain(at..at + len);
                } else {
                    for _ in 0..len {
                        bases.insert(at, b"ACGT"[next(4)]);
                    }
                }
            }
            bases
        })
        .collect()
}

#[test]
fn bwa_results_match_golden_digest_under_both_kernels() {
    let genome = Arc::new(Genome::random_with_seed(4242, &[("chr1", 200_000)]));
    let fm = Arc::new(FmIndex::build(&genome));
    let aligner = BwaMemAligner::new(genome.clone(), fm, BwaParams::default());
    let reads = reads(&genome);
    let resolved = Kernel::active();
    for kernel in [Kernel::Scalar, Kernel::Simd] {
        Kernel::set_active(kernel);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut prof = PhaseProfile::default();
        let (mut mapped, mut gapped) = (0usize, 0usize);
        for bases in &reads {
            let quals = vec![b'I'; bases.len()];
            let r = aligner.align_read_profiled(bases, &quals, &mut prof);
            fnv(&mut digest, &r.location.to_le_bytes());
            fnv(&mut digest, &r.flags.to_le_bytes());
            fnv(&mut digest, &[r.mapq]);
            for op in &r.cigar {
                fnv(&mut digest, &[op.kind.to_char() as u8]);
                fnv(&mut digest, &op.len.to_le_bytes());
            }
            fnv(&mut digest, &[0xff]);
            mapped += !r.is_unmapped() as usize;
            gapped += r.cigar.iter().any(|op| matches!(op.kind.to_char(), 'I' | 'D')) as usize;
        }
        // The digest only pins something if the inputs exercise it.
        assert!(mapped > READS * 9 / 10, "only {mapped} reads mapped");
        assert!(gapped > READS / 5, "only {gapped} gapped CIGARs");
        assert_eq!(
            (prof.index_ops, prof.dp_cells, prof.candidates),
            GOLDEN_COUNTS,
            "work counts moved under kernel {}",
            kernel.name()
        );
        assert_eq!(
            digest,
            GOLDEN_DIGEST,
            "results column moved under kernel {} (got {digest:#018x})",
            kernel.name()
        );
    }
    Kernel::set_active(resolved);
}

const LONG_GOLDEN_DIGEST: u64 = 0xf549_c16d_87e0_d890;
const LONG_GOLDEN_COUNTS: (u64, u64, u64) = (164_168, 28_508_355, 602);

/// 200 seeded reads each at 150 bp and 250 bp (1 % substitutions, every
/// third with a 1–4 base indel): a window of read length + 24 puts
/// `min(n, m)·match + match − mismatch` past 255 at the default scoring,
/// so the striped forward pass runs its 16-bit cells on every candidate.
fn long_reads(genome: &Genome) -> Vec<Vec<u8>> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |bound: usize| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((x >> 33) as usize) % bound
    };
    let mut out = Vec::new();
    for (read_len, seed) in [(150, 78), (250, 79)] {
        let mut sim = ReadSimulator::new(
            genome,
            SimParams { read_len, error_rate: 0.01, seed, ..SimParams::default() },
        );
        for k in 0..200 {
            let mut bases = sim.next_single().bases;
            if k % 3 == 0 {
                let at = 15 + next(bases.len() - 30);
                let len = 1 + next(4);
                if next(2) == 0 {
                    bases.drain(at..at + len);
                } else {
                    for _ in 0..len {
                        bases.insert(at, b"ACGT"[next(4)]);
                    }
                }
            }
            out.push(bases);
        }
    }
    out
}

#[test]
fn long_read_results_match_golden_digest_under_both_kernels() {
    let genome = Arc::new(Genome::random_with_seed(4242, &[("chr1", 200_000)]));
    let fm = Arc::new(FmIndex::build(&genome));
    let aligner = BwaMemAligner::new(genome.clone(), fm, BwaParams::default());
    let reads = long_reads(&genome);
    let resolved = Kernel::active();
    for kernel in [Kernel::Scalar, Kernel::Simd] {
        Kernel::set_active(kernel);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut prof = PhaseProfile::default();
        let (mut mapped, mut gapped) = (0usize, 0usize);
        for bases in &reads {
            let quals = vec![b'I'; bases.len()];
            let r = aligner.align_read_profiled(bases, &quals, &mut prof);
            fnv(&mut digest, &r.location.to_le_bytes());
            fnv(&mut digest, &r.flags.to_le_bytes());
            fnv(&mut digest, &[r.mapq]);
            for op in &r.cigar {
                fnv(&mut digest, &[op.kind.to_char() as u8]);
                fnv(&mut digest, &op.len.to_le_bytes());
            }
            fnv(&mut digest, &[0xff]);
            mapped += !r.is_unmapped() as usize;
            gapped += r.cigar.iter().any(|op| matches!(op.kind.to_char(), 'I' | 'D')) as usize;
        }
        assert!(mapped > reads.len() * 9 / 10, "only {mapped} reads mapped");
        assert!(gapped > reads.len() / 5, "only {gapped} gapped CIGARs");
        assert_eq!(
            (prof.index_ops, prof.dp_cells, prof.candidates),
            LONG_GOLDEN_COUNTS,
            "work counts moved under kernel {}",
            kernel.name()
        );
        assert_eq!(
            digest,
            LONG_GOLDEN_DIGEST,
            "results column moved under kernel {} (got {digest:#018x})",
            kernel.name()
        );
    }
    Kernel::set_active(resolved);
}
