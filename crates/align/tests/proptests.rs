//! Property-based tests for the alignment kernels, including the
//! differential properties that hold the vectorized kernels and the
//! ungapped proof to the scalar references: identical distances,
//! scores, regions and CIGARs on every input, including
//! `max_k`-exceeded and all-soft-clip cases. Two tests fail if a
//! shortcut stops firing: the ungapped proof on true windows, and the
//! seeding walk's finish on the reference text.

use persona_align::bwa::BwaParams;
use persona_align::edit::{
    edit_distance_dp, landau_vishkin, landau_vishkin_bitparallel, landau_vishkin_scalar,
};
use persona_align::sw::{
    banded_global_cigar, smith_waterman, smith_waterman_scalar, smith_waterman_striped,
    smith_waterman_ungapped, Scoring,
};
use persona_index::bwt::base_code;
use persona_index::fm::{FmIndex, Hits, SA_SAMPLE};
use persona_seq::dna::revcomp;
use persona_seq::read::Origin;
use persona_seq::simulate::{ReadSimulator, SimParams};
use persona_seq::Genome;
use proptest::prelude::*;

fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')], len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Landau-Vishkin agrees with the textbook DP whenever the distance
    /// fits the budget, and correctly reports None otherwise.
    #[test]
    fn lv_matches_dp(
        text in dna(1..80),
        pattern in dna(1..60),
        k in 0u32..10,
    ) {
        let expected = edit_distance_dp(&text, &pattern);
        match landau_vishkin(&text, &pattern, k) {
            Some(d) => {
                prop_assert_eq!(d, expected);
                prop_assert!(d <= k);
            }
            None => prop_assert!(expected > k, "LV gave up at {expected} <= {k}"),
        }
    }

    /// LV is exact-zero on any text/prefix pair.
    #[test]
    fn lv_zero_on_exact_prefix(text in dna(10..120), cut in 1usize..9) {
        let plen = text.len() / cut.max(1);
        if plen > 0 {
            prop_assert_eq!(landau_vishkin(&text, &text[..plen], 3), Some(0));
        }
    }

    /// The banded global CIGAR always consumes the whole query, and its
    /// cost matches the DP distance when within the band.
    #[test]
    fn banded_cigar_consumes_query(
        reference in dna(20..100),
        pattern_len in 10usize..60,
        band in 1usize..8,
    ) {
        let plen = pattern_len.min(reference.len());
        let pattern = &reference[..plen];
        if let Some((cost, cigar)) = banded_global_cigar(&reference, pattern, band) {
            let qlen: u32 = cigar
                .iter()
                .filter(|op| op.kind.consumes_query())
                .map(|op| op.len)
                .sum();
            prop_assert_eq!(qlen as usize, plen);
            prop_assert_eq!(cost, 0, "exact prefix must cost 0");
        } else {
            prop_assert!(false, "exact prefix must fit any band");
        }
    }

    /// Smith-Waterman scores are non-negative, bounded by perfect match,
    /// and the reported regions are consistent with the CIGAR.
    #[test]
    fn sw_invariants(reference in dna(1..80), query in dna(1..60)) {
        let sc = Scoring::default();
        let a = smith_waterman(&reference, &query, sc);
        prop_assert!(a.score >= 0);
        prop_assert!(a.score <= query.len() as i32 * sc.match_score);
        prop_assert!(a.ref_start <= a.ref_end && a.ref_end <= reference.len());
        prop_assert!(a.query_start <= a.query_end && a.query_end <= query.len());
        let q_consumed: u32 =
            a.cigar.iter().filter(|op| op.kind.consumes_query()).map(|op| op.len).sum();
        let r_consumed: u32 =
            a.cigar.iter().filter(|op| op.kind.consumes_reference()).map(|op| op.len).sum();
        prop_assert_eq!(q_consumed as usize, a.query_end - a.query_start);
        prop_assert_eq!(r_consumed as usize, a.ref_end - a.ref_start);
    }

    /// A query equal to a slice of the reference scores a perfect local
    /// alignment covering the whole query.
    #[test]
    fn sw_finds_planted_substring(
        reference in dna(30..120),
        start_frac in 0.0f64..0.5,
        len_frac in 0.2f64..0.5,
    ) {
        let start = (reference.len() as f64 * start_frac) as usize;
        let len = ((reference.len() as f64 * len_frac) as usize).max(5);
        let end = (start + len).min(reference.len());
        let query = &reference[start..end];
        let sc = Scoring::default();
        let a = smith_waterman(&reference, query, sc);
        prop_assert_eq!(a.score, query.len() as i32 * sc.match_score);
        prop_assert_eq!(a.query_end - a.query_start, query.len());
    }

    /// The bit-parallel Landau-Vishkin returns exactly what the scalar
    /// kernel and the DP reference return — Some(distance) within
    /// budget, None beyond it — across the whole random input space.
    #[test]
    fn lv_bitparallel_matches_scalar_and_dp(
        text in dna(0..90),
        pattern in dna(0..70),
        k in 0u32..12,
    ) {
        let bit = landau_vishkin_bitparallel(&text, &pattern, k);
        prop_assert_eq!(bit, landau_vishkin_scalar(&text, &pattern, k));
        let expected = edit_distance_dp(&text, &pattern);
        if expected <= k {
            prop_assert_eq!(bit, Some(expected));
        } else {
            prop_assert_eq!(bit, None, "max_k exceeded must be None, dp {}", expected);
        }
    }

    /// Same differential property with patterns spanning multiple
    /// 64-bit words, exercising the inter-block carry chain.
    #[test]
    fn lv_bitparallel_matches_scalar_multiword(
        text in dna(100..220),
        pattern in dna(60..200),
        k in 0u32..16,
    ) {
        prop_assert_eq!(
            landau_vishkin_bitparallel(&text, &pattern, k),
            landau_vishkin_scalar(&text, &pattern, k)
        );
    }

    /// The striped Smith-Waterman is indistinguishable from the scalar
    /// kernel: same score, same aligned regions, same CIGAR.
    #[test]
    fn sw_striped_matches_scalar(reference in dna(1..120), query in dna(1..90)) {
        let sc = Scoring::default();
        if let Some(striped) = smith_waterman_striped(&reference, &query, sc) {
            let scalar = smith_waterman_scalar(&reference, &query, sc);
            prop_assert_eq!(striped, scalar);
        } else {
            // Only permissible off x86-64; these inputs satisfy every
            // guard otherwise.
            prop_assert!(!cfg!(target_arch = "x86_64"), "striped kernel refused valid input");
        }
    }

    /// All-soft-clip edge case: disjoint alphabets leave nothing to
    /// align, and both kernels must agree on the empty outcome.
    #[test]
    fn sw_striped_all_soft_clip(n in 1usize..90, m in 1usize..70) {
        let reference = vec![b'A'; n];
        let query = vec![b'T'; m];
        let sc = Scoring::default();
        let scalar = smith_waterman_scalar(&reference, &query, sc);
        prop_assert_eq!(scalar.score, 0);
        prop_assert!(scalar.cigar.is_empty());
        if let Some(striped) = smith_waterman_striped(&reference, &query, sc) {
            prop_assert_eq!(striped, scalar);
        }
    }

    /// The public dispatching entry points agree with the scalar
    /// references no matter which kernel is active.
    #[test]
    fn dispatchers_match_scalar(
        text in dna(1..100),
        pattern in dna(1..80),
        k in 0u32..10,
    ) {
        prop_assert_eq!(
            landau_vishkin(&text, &pattern, k),
            landau_vishkin_scalar(&text, &pattern, k)
        );
        let sc = Scoring::default();
        prop_assert_eq!(
            smith_waterman(&text, &pattern, sc),
            smith_waterman_scalar(&text, &pattern, sc)
        );
    }
}

/// The scorings the ungapped proof is held to: BWA-MEM's default ×2,
/// BWA-MEM's default, and one whose bound (`m − 2`) admits at most one
/// mismatch, at a query end.
const PROOF_SCORINGS: [Scoring; 3] = [
    Scoring { match_score: 2, mismatch: -8, gap_open: -12, gap_extend: -2 },
    Scoring { match_score: 1, mismatch: -4, gap_open: -6, gap_extend: -1 },
    Scoring { match_score: 1, mismatch: -1, gap_open: -2, gap_extend: -1 },
];

/// A window and a query the proof is likely to settle, shaped so that
/// the rebuilt alignment is easy to get wrong:
///
/// 0. a tandem repeat of period 1–6, so shifted diagonals tie and the
///    first maximal cell in scan order decides;
/// 1. substitutions within 6 bases of either query end, so the DP
///    clips there when the clip is cheaper than the mismatch;
/// 2. substitutions placed where the running score of the query's
///    diagonal falls to exactly 0 (`k·match + mismatch = 0`), or,
///    reversed, where a later stretch only climbs back to the earlier
///    maximum, which must stay the end;
/// 3. a window shorter than the query;
/// 4. `N` bases in window and query (equal bytes score a match).
fn proof_case(seed: u64, shape: usize, n: usize, m: usize, sc: Scoring) -> (Vec<u8>, Vec<u8>) {
    let mut x = seed | 1;
    let mut next = move |bound: usize| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((x >> 33) as usize) % bound.max(1)
    };
    let alphabet: &[u8] = if shape == 4 { b"ACGTN" } else { b"ACGT" };
    let mut reference: Vec<u8> = if shape == 0 {
        let unit: Vec<u8> = (0..1 + next(6)).map(|_| b"ACGT"[next(4)]).collect();
        unit.iter().copied().cycle().take(n).collect()
    } else {
        (0..n).map(|_| alphabet[next(alphabet.len())]).collect()
    };
    // The query: the window from a random offset (mostly one where it
    // fits), random past the window's end.
    let from = if next(4) == 0 { next(n) } else { next(n.saturating_sub(m) + 1) };
    let mut query: Vec<u8> =
        (0..m).map(|t| reference.get(from + t).copied().unwrap_or(b"ACGT"[next(4)])).collect();
    let substitute = |q: &mut [u8], at: usize, next: &mut dyn FnMut(usize) -> usize| {
        if at < q.len() {
            q[at] = alphabet[(alphabet.iter().position(|&b| b == q[at]).unwrap_or(0)
                + 1
                + next(alphabet.len() - 1))
                % alphabet.len()];
        }
    };
    match shape {
        0 | 4 => {
            if next(2) == 0 {
                let at = next(m);
                substitute(&mut query, at, &mut next);
            }
        }
        1 => {
            for _ in 0..1 + next(2) {
                let at = if next(2) == 0 { next(6) } else { m.saturating_sub(1 + next(6)) };
                substitute(&mut query, at, &mut next);
            }
        }
        2 => {
            // `k` matches then a mismatch bring the run back to 0.
            let k = (-sc.mismatch / sc.match_score.max(1)) as usize;
            let mut at = k;
            for _ in 0..1 + next(2) {
                substitute(&mut query, at, &mut next);
                at += k + 1;
            }
            if next(2) == 0 {
                query.reverse();
                reference.reverse();
            }
        }
        _ => {
            // Shape 3: the window is a slice of the query.
            let cut = next(m);
            let len = (1 + next(m)).min(m - cut);
            reference = query[cut..cut + len].to_vec();
            if next(2) == 0 {
                let at = next(len);
                substitute(&mut reference, at, &mut next);
            }
        }
    }
    (reference, query)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Whenever the ungapped proof answers, its answer is the scalar
    /// DP's: score, regions and CIGAR.
    #[test]
    fn ungapped_matches_scalar_when_it_fires(
        seed in any::<u64>(),
        shape in 0usize..5,
        n in 1usize..160,
        m in 1usize..130,
        scoring in 0usize..3,
    ) {
        let sc = PROOF_SCORINGS[scoring];
        let (reference, query) = proof_case(seed, shape, n, m, sc);
        if let Some(proved) = smith_waterman_ungapped(&reference, &query, sc) {
            prop_assert_eq!(proved, smith_waterman_scalar(&reference, &query, sc));
        }
    }

    /// On random DNA (almost never provable) the proof declines or
    /// agrees.
    #[test]
    fn ungapped_matches_scalar_on_random_pairs(reference in dna(1..80), query in dna(1..60)) {
        for sc in PROOF_SCORINGS {
            if let Some(proved) = smith_waterman_ungapped(&reference, &query, sc) {
                prop_assert_eq!(proved, smith_waterman_scalar(&reference, &query, sc));
            }
        }
    }
}

/// The differential property above is not vacuous: every shape, under
/// every scoring, has cases the proof settles, all equal to the DP.
#[test]
fn ungapped_fires_on_every_adversarial_shape() {
    for (k, sc) in PROOF_SCORINGS.into_iter().enumerate() {
        for shape in 0..5 {
            let mut fired = 0;
            for seed in 0..200u64 {
                let (n, m) = (20 + (seed as usize * 7) % 140, 10 + (seed as usize * 13) % 120);
                let (reference, query) = proof_case(seed, shape, n, m, sc);
                if let Some(proved) = smith_waterman_ungapped(&reference, &query, sc) {
                    assert_eq!(proved, smith_waterman_scalar(&reference, &query, sc));
                    fired += 1;
                }
            }
            // Under 1/−1 the zero-sum shape leaves a run of exactly the
            // bound, `m − 2`, which must decline.
            let want = if (k, shape) == (2, 2) { 0..=0 } else { 20..=200 };
            assert!(want.contains(&fired), "scoring {k} shape {shape}: fired {fired} of 200");
        }
    }
}

/// Scorings outside the proof's argument are declined, even on an
/// exact match the DP answers without a gap.
#[test]
fn ungapped_declines_degenerate_scorings() {
    let reference = b"TTGACCGTAGGCATCGATTACGGATCCAGTTGCAA";
    let query = &reference[5..30];
    let base = Scoring::default();
    assert!(smith_waterman_ungapped(reference, query, base).is_some());
    for sc in [
        Scoring { match_score: 0, ..base },
        Scoring { match_score: -1, ..base },
        Scoring { mismatch: 1, ..base },
        Scoring { gap_open: 1, ..base },
        Scoring { gap_extend: 1, ..base },
    ] {
        assert_eq!(smith_waterman_ungapped(reference, query, sc), None, "{sc:?}");
    }
    // Nothing to align: score 0.
    assert_eq!(smith_waterman_ungapped(b"", query, base), None);
    assert_eq!(smith_waterman_ungapped(b"AAAA", b"TTTT", base), None);
}

/// What the proof is for: simulated 101 bp reads at 0.5 % error against
/// their true extension windows (the read's span ± 12 bases, as
/// `bwa.rs` pads it). At least 85 % are settled without the DP, every
/// one as the DP would have.
#[test]
fn ungapped_settles_most_true_windows() {
    let genome = Genome::random_with_seed(91, &[("chr1", 100_000)]);
    let mut sim = ReadSimulator::new(
        &genome,
        SimParams { error_rate: 0.005, seed: 5, ..SimParams::default() },
    );
    let sc = Scoring::default();
    let (reads, mut settled) = (2_000, 0);
    for _ in 0..reads {
        let read = sim.next_single();
        let origin = Origin::parse(&read.meta).expect("simulated read");
        let contig = &genome.contig(origin.contig as usize).seq;
        let pos = origin.pos as usize;
        let window =
            &contig[pos.saturating_sub(12)..(pos + read.bases.len() + 12).min(contig.len())];
        let query = if origin.reverse { revcomp(&read.bases) } else { read.bases.clone() };
        if let Some(proved) = smith_waterman_ungapped(window, &query, sc) {
            assert_eq!(proved, smith_waterman_scalar(window, &query, sc));
            settled += 1;
        }
    }
    assert!(settled * 100 >= reads * 85, "settled {settled} of {reads}");
}

/// Logical steps of one seeding walk that the text answered: a walk
/// that returned `Hits::At(pos)` for `read[j..end]` left the BWT at the
/// first row, walking left, that was unique (the stepwise interval of
/// `read[i..end]` holds one row) and sampled (text position
/// `pos + i - j` a multiple of `SA_SAMPLE`); every step after is the
/// text's.
fn steps_on_text(fm: &FmIndex, read: &[u8], end: usize, j: usize, pos: u32, ops: u64) -> u64 {
    let mut iv = fm.full_interval();
    let mut i = end;
    while iv.count() > 1 {
        i -= 1;
        iv = fm.extend(base_code(read[i]), iv);
    }
    while !(pos as usize + i - j).is_multiple_of(SA_SAMPLE) {
        i -= 1;
    }
    ops - (end - i) as u64
}

/// What finishing a unique match on the text is for: simulated 101 bp
/// reads at 0.5 % error, both strands walked as `bwa.rs` seeds them
/// (a restart left of every match while `min_seed_len` bases remain).
/// At least 20 % of the logical steps are answered from the text, and
/// every position a walk returns holds its match.
#[test]
fn seeding_walks_finish_unique_matches_on_the_text() {
    let genome = Genome::random_with_seed(92, &[("chr1", 300_000)]);
    let fm = FmIndex::build(&genome);
    let text: Vec<u8> = genome.linear_iter().collect();
    let mut sim = ReadSimulator::new(
        &genome,
        SimParams { error_rate: 0.005, seed: 6, ..SimParams::default() },
    );
    let min_seed_len = BwaParams::default().min_seed_len;
    let (mut steps, mut on_text) = (0u64, 0u64);
    for _ in 0..2_000 {
        let read = sim.next_single();
        for strand in [read.bases.clone(), revcomp(&read.bases)] {
            let mut end = strand.len();
            while end >= min_seed_len {
                let (hits, j, ops) = fm.backward_match(&strand, end);
                steps += ops;
                if let Hits::At(pos) = hits {
                    assert_eq!(&text[pos as usize..][..end - j], &strand[j..end]);
                    on_text += steps_on_text(&fm, &strand, end, j, pos, ops);
                }
                end = if j < end { j } else { end - 1 };
            }
        }
    }
    assert!(on_text * 100 >= steps * 20, "{on_text} of {steps} steps answered from the text");
}
