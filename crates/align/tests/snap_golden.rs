//! Golden digest of the SNAP-style aligner's results column.
//!
//! Captured at the commit *before* the flat seed table, the table-driven
//! seed packer, the batched lookups, the run-length vote count and the
//! allocation-free banded CIGAR landed, so any rewrite underneath the
//! [`Aligner`] trait has to reproduce location, flags, mapq and CIGAR of
//! every read byte for byte — and the exact work counts (`index_ops`,
//! `dp_cells`, `candidates`) the benchmark's per-layer ledger is built
//! from.
//!
//! The reference is built to reach the corners: a planted three-copy
//! duplication (ties, low MAPQ), tandem repeats whose seeds land between
//! the aligner's `max_hits_per_seed` (200) and the index cap (300) and
//! above the cap, an `N` run, and a contig shorter than a read window.
//! The reads add `N`s, lengths below the seed length and overhangs past
//! a contig's end to the simulator's substitutions and indels.

use std::sync::Arc;

use persona_align::profile::PhaseProfile;
use persona_align::snap::{SnapAligner, SnapParams};
use persona_align::{Aligner, Kernel};
use persona_index::SeedIndex;
use persona_seq::dna::revcomp;
use persona_seq::simulate::{ReadSimulator, SimParams};
use persona_seq::Genome;

const SIMULATED: usize = 2_000;
const GOLDEN_DIGEST: u64 = 0x8a1e_b060_84ac_4d7d;
const GOLDEN_COUNTS: (u64, u64, u64) = (47_792, 435_043, 3_506);

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Tiny deterministic generator for the test's own choices.
fn rng(seed: u64) -> impl FnMut(usize) -> usize {
    let mut x = seed;
    move |bound: usize| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((x >> 33) as usize) % bound.max(1)
    }
}

/// Start and length of the tandem repeat blocks planted in `chr1`.
const TANDEM_AAC: (usize, usize) = (80_000, 750);
const TANDEM_AG: (usize, usize) = (81_000, 800);
const DUP: (usize, usize) = (20_000, 3_000);

fn genome() -> Genome {
    let base = Genome::random_with_seed(
        2121,
        &[("chr1", 150_000), ("chr2", 30_000), ("chrS", 5_000), ("chrT", 90)],
    );
    let mut chr1 = base.contig(0).seq.clone();
    // A three-copy duplication: reads from it have three exact placements.
    let dup = chr1[DUP.0..DUP.0 + DUP.1].to_vec();
    chr1[60_000..60_000 + DUP.1].copy_from_slice(&dup);
    chr1[110_000..110_000 + DUP.1].copy_from_slice(&dup);
    // Period-3 tandem: 3 distinct 16-mers with ~245 positions each (over
    // the aligner's 200, under the index's 300). Period 2: ~390 each,
    // truncated by the index cap.
    for (i, b) in chr1[TANDEM_AAC.0..TANDEM_AAC.0 + TANDEM_AAC.1].iter_mut().enumerate() {
        *b = b"AAC"[i % 3];
    }
    for (i, b) in chr1[TANDEM_AG.0..TANDEM_AG.0 + TANDEM_AG.1].iter_mut().enumerate() {
        *b = b"AG"[i % 2];
    }
    let mut chr2 = base.contig(1).seq.clone();
    chr2[10_000..10_050].fill(b'N');
    Genome::new(vec![
        ("chr1".into(), chr1),
        ("chr2".into(), chr2),
        ("chrS".into(), base.contig(2).seq.clone()),
        ("chrT".into(), base.contig(3).seq.clone()),
    ])
}

/// 2,000 seeded 101 bp reads at 1 % substitutions; every third carries a
/// 1–4 base insertion or deletion and every 23rd one to three `N`s. Then
/// the corner cases: reads from the repeat blocks, reads shorter than a
/// seed, and reads overhanging each contig's end on both strands.
fn reads(genome: &Genome) -> Vec<Vec<u8>> {
    let mut sim = ReadSimulator::new(
        genome,
        SimParams { error_rate: 0.01, seed: 91, ..SimParams::default() },
    );
    let mut next = rng(0x9e37_79b9_7f4a_7c15);
    let mut out: Vec<Vec<u8>> = (0..SIMULATED)
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
            if k % 23 == 5 {
                for _ in 0..1 + next(3) {
                    let at = next(bases.len());
                    bases[at] = b'N';
                }
            }
            bases
        })
        .collect();
    let chr1 = &genome.contig(0).seq;
    for block in [TANDEM_AAC, TANDEM_AG, DUP] {
        for _ in 0..40 {
            let at = block.0 - 50 + next(block.1);
            let mut bases = chr1[at..at + 101].to_vec();
            if next(4) == 0 {
                bases[next(101)] = b"ACGT"[next(4)];
            }
            out.push(if next(2) == 0 { bases } else { revcomp(&bases) });
        }
    }
    for len in 0..=17 {
        let at = next(chr1.len() - len);
        out.push(chr1[at..at + len].to_vec());
    }
    for contig in genome.contigs() {
        let seq = &contig.seq;
        for keep in [20, 45, 60, 90, 100] {
            let keep = keep.min(seq.len());
            let mut bases = seq[seq.len() - keep..].to_vec();
            bases.extend((keep..101).map(|_| b"ACGT"[next(4)]));
            out.push(revcomp(&bases));
            out.push(bases);
        }
    }
    out
}

#[test]
fn snap_results_match_golden_digest_under_both_kernels() {
    let genome = Arc::new(genome());
    let index = Arc::new(SeedIndex::build(&genome, 16));
    let params = SnapParams::default();
    // The repeat blocks must reach both caps, or the digest would not
    // pin the "too many hits" paths.
    let aac = &genome.contig(0).seq[TANDEM_AAC.0..TANDEM_AAC.0 + 16];
    let aac_hits = index.lookup(aac).expect("tandem seed indexed").len() as u32;
    assert!(aac_hits > params.max_hits_per_seed && aac_hits < index.max_hits(), "{aac_hits}");
    let ag = &genome.contig(0).seq[TANDEM_AG.0..TANDEM_AG.0 + 16];
    assert_eq!(index.lookup(ag).expect("tandem seed indexed").len() as u32, index.max_hits());
    assert!(index.overflowed_seeds() > 0);

    let aligner = SnapAligner::new(genome.clone(), index, params);
    let reads = reads(&genome);
    assert!(reads.len() > SIMULATED + 150);
    let resolved = Kernel::active();
    for kernel in [Kernel::Scalar, Kernel::Simd] {
        Kernel::set_active(kernel);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut prof = PhaseProfile::default();
        let (mut mapped, mut gapped, mut ambiguous) = (0usize, 0usize, 0usize);
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
            ambiguous += (!r.is_unmapped() && r.mapq <= 3) as usize;
        }
        // The digest only pins something if the inputs exercise it.
        assert!(mapped > reads.len() * 8 / 10, "only {mapped} reads mapped");
        assert!(mapped < reads.len(), "every read mapped");
        assert!(gapped > SIMULATED / 5, "only {gapped} gapped CIGARs");
        assert!(ambiguous > 40, "only {ambiguous} ambiguous placements");
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
