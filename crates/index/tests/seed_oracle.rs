//! The flat seed table against the `HashMap` index it replaced.
//!
//! The oracle is the old builder, kept whole: its own `match`-based
//! rolling packer, a count map, a `(start, len)` map and a cursor map.
//! It lives here rather than beside the table so that `crates/index/src`
//! holds no `std::collections::HashMap` (CI greps for one).

use std::collections::HashMap;

use persona_index::SeedIndex;
use persona_seq::Genome;

/// The old per-base code: `A,C,G,T` → `0..4`, anything else → 4.
fn old_code(b: u8) -> u8 {
    match b {
        b'A' => 0,
        b'C' => 1,
        b'G' => 2,
        b'T' => 3,
        _ => 4,
    }
}

/// The old seed enumeration: `f(key, position)` for every clean seed.
fn for_each_seed(genome: &Genome, seed_len: usize, mut f: impl FnMut(u64, u32)) {
    let mask = if seed_len == 32 { u64::MAX } else { (1u64 << (2 * seed_len)) - 1 };
    for (ci, contig) in genome.contigs().iter().enumerate() {
        let seq = &contig.seq;
        if seq.len() < seed_len {
            continue;
        }
        let base_offset = genome.to_linear(ci, 0);
        let mut key = 0u64;
        let mut valid = 0usize;
        for (i, &b) in seq.iter().enumerate() {
            let code = old_code(b);
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

/// The old builder: seed key → positions (genome order, first
/// `max_hits` kept), and the number of truncated seeds.
fn oracle(genome: &Genome, seed_len: usize, max_hits: u32) -> (HashMap<u64, Vec<u32>>, usize) {
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for_each_seed(genome, seed_len, |key, _pos| {
        *counts.entry(key).or_insert(0) += 1;
    });
    let mut table: HashMap<u64, (u32, u32)> = HashMap::with_capacity(counts.len());
    let mut total = 0u32;
    let mut overflowed = 0usize;
    for (&key, &count) in &counts {
        let kept = count.min(max_hits);
        if count > max_hits {
            overflowed += 1;
        }
        table.insert(key, (total, kept));
        total += kept;
    }
    let mut positions = vec![0u32; total as usize];
    let mut cursors: HashMap<u64, u32> = counts;
    for c in cursors.values_mut() {
        *c = 0;
    }
    for_each_seed(genome, seed_len, |key, pos| {
        let (start, kept) = table[&key];
        let cur = cursors.get_mut(&key).expect("seed counted in pass 1");
        if *cur < kept {
            positions[(start + *cur) as usize] = pos;
            *cur += 1;
        }
    });
    let lists = table
        .into_iter()
        .map(|(key, (start, len))| {
            (key, positions[start as usize..(start + len) as usize].to_vec())
        })
        .collect();
    (lists, overflowed)
}

/// A multi-contig genome over a skewed alphabet (so short seeds repeat a
/// lot), with `N` runs, copied repeats and contigs shorter than a seed.
fn random_genome(seed: u64, contigs: usize, max_len: usize) -> Genome {
    let mut x = seed | 1;
    let mut next = move |bound: usize| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((x >> 33) as usize) % bound.max(1)
    };
    let specs = (0..contigs)
        .map(|c| {
            let len = next(max_len + 1);
            let mut seq: Vec<u8> = Vec::with_capacity(len);
            while seq.len() < len {
                match next(40) {
                    0 => seq.extend(std::iter::repeat_n(b'N', 1 + next(20))),
                    1 if seq.len() > 8 => {
                        let from = next(seq.len());
                        let n = 1 + next(seq.len() - from);
                        seq.extend_from_within(from..from + n);
                    }
                    _ => seq.push(b"AACGTTTA"[next(8)]),
                }
            }
            seq.truncate(len);
            (format!("c{c}"), seq)
        })
        .collect();
    Genome::new(specs)
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

    /// Every key's position list is the oracle's, in content and in
    /// order; keys the oracle lacks are absent; the counts agree.
    #[test]
    fn flat_table_matches_hashmap_oracle(
        seed in proptest::prelude::any::<u64>(),
        contigs in 1usize..5,
        max_len in 0usize..3_000,
        seed_len in 1usize..=31,
        cap in 0usize..3,
    ) {
        let max_hits = [1, 2, 300][cap];
        let genome = random_genome(seed, contigs, max_len);
        let idx = SeedIndex::build_with_max_hits(&genome, seed_len, max_hits);
        let (lists, overflowed) = oracle(&genome, seed_len, max_hits);
        proptest::prop_assert_eq!(idx.distinct_seeds(), lists.len());
        proptest::prop_assert_eq!(idx.overflowed_seeds(), overflowed);
        for (&key, list) in &lists {
            proptest::prop_assert_eq!(idx.lookup_key(key), Some(&list[..]), "key {:#x}", key);
        }
        let mask = (1u64 << (2 * seed_len)) - 1;
        let mut x = seed;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = x & mask;
            proptest::prop_assert_eq!(idx.lookup_key(key), lists.get(&key).map(|l| &l[..]));
        }
        // Never a packed seed: past the seed length, the table's unused
        // key and its flag bit.
        for key in [mask + 1, u64::MAX, u64::MAX >> 1, 1 << 63] {
            proptest::prop_assert_eq!(idx.lookup_key(key), None, "key {:#x}", key);
        }
    }
}
