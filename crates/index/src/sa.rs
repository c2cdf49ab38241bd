//! Suffix array construction: a counting sort on the first `k` symbols
//! followed by Larsson–Sadakane prefix doubling over the groups that
//! are still tied.
//!
//! The counting pass places every suffix in the bucket of its first
//! `k`-mer (`k` chosen so the bucket table stays near the text's size);
//! each doubling round then sorts only the still-unsorted groups by the
//! rank of the suffix `h` symbols further on, and `h` doubles. On a
//! random reference nearly every group is a singleton after one round,
//! so construction is close to linear; a homopolymer is the
//! `O(n log² n)` worst case. The suffix array of a text is unique, so
//! everything built on it (BWT, FM-index) is independent of the method.

/// Builds the suffix array of `text` (positions of sorted suffixes).
///
/// The text must not contain byte 0; a virtual sentinel smaller than
/// every byte is implied at the end (so the array has `text.len()`
/// entries, one per real suffix).
///
/// # Examples
///
/// ```
/// let sa = persona_index::sa::suffix_array(b"banana");
/// assert_eq!(sa, vec![5, 3, 1, 0, 4, 2]); // a, ana, anana, banana, na, nana
/// ```
pub fn suffix_array(text: &[u8]) -> Vec<u32> {
    let n = text.len();
    assert!(n <= u32::MAX as usize - 2, "text too large");
    if n == 0 {
        return Vec::new();
    }
    debug_assert!(!text.contains(&0), "text must not contain NUL");

    // Dense symbol codes 1..=sigma in byte order; 0 is the sentinel
    // (and the padding of suffixes shorter than `k`).
    let mut code = [0u32; 256];
    for &b in text {
        code[b as usize] = 1;
    }
    let mut sigma = 0u32;
    for c in code.iter_mut().filter(|c| **c != 0) {
        sigma += 1;
        *c = sigma;
    }
    let base = sigma as u64 + 1;
    // Longest k-mer whose bucket table is no larger than the text.
    let (mut k, mut buckets) = (1usize, base);
    while buckets * base <= (n as u64).max(256) {
        k += 1;
        buckets *= base;
    }
    let top = (buckets / base) as u32; // base^(k-1)
    let base = base as u32;

    // rank[i] first holds suffix i's k-mer key (right to left: drop the
    // last digit of the key one position on, prepend this symbol), then
    // its group number. A key with a padding digit belongs to exactly
    // one suffix, so tied suffixes are all at least `k` long.
    let mut rank = vec![0u32; n + 1];
    let mut starts = vec![0u32; buckets as usize + 1];
    for i in (0..n).rev() {
        let key = code[text[i] as usize] * top + rank[i + 1] / base;
        rank[i] = key;
        starts[key as usize + 1] += 1;
    }
    rank[n] = 0;
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut sa = vec![0u32; n];
    let mut cursor = starts.clone();
    for i in 0..n {
        let slot = &mut cursor[rank[i] as usize];
        sa[*slot as usize] = i as u32;
        *slot += 1;
    }
    // Group number = 1 + index of the group's first suffix; 0 stays the
    // sentinel's (the empty suffix at `n`), smaller than every other.
    for r in rank[..n].iter_mut() {
        *r = starts[*r as usize] + 1;
    }
    let mut todo: Vec<(u32, u32)> =
        starts.windows(2).filter(|w| w[1] - w[0] > 1).map(|w| (w[0], w[1])).collect();
    drop((starts, cursor));

    // Larsson–Sadakane refinement: suffixes in a group agree on their
    // first `h` symbols, so ordering them by the group of the suffix
    // `h` further on orders them by `2h` symbols. Ranks are rewritten
    // only after a whole group is keyed — a key may name a member of
    // the same group — and a rank refined early is still consistent
    // with the final order, so later groups may use it.
    let mut h = k;
    let mut keyed: Vec<(u32, u32)> = Vec::new();
    while !todo.is_empty() {
        let mut next = Vec::new();
        for &(s, e) in &todo {
            keyed.clear();
            keyed.extend(sa[s as usize..e as usize].iter().map(|&i| (rank[i as usize + h], i)));
            keyed.sort_unstable();
            let mut run = 0usize;
            for (w, &(key, i)) in keyed.iter().enumerate() {
                if key != keyed[run].0 {
                    if w - run > 1 {
                        next.push((s + run as u32, s + w as u32));
                    }
                    run = w;
                }
                sa[s as usize + w] = i;
                rank[i as usize] = s + run as u32 + 1;
            }
            if keyed.len() - run > 1 {
                next.push((s + run as u32, e));
            }
        }
        todo = next;
        h *= 2;
    }
    sa
}

/// Verifies that `sa` is the suffix array of `text` (test helper;
/// O(n² log n) worst case, intended for small inputs).
pub fn is_suffix_array(text: &[u8], sa: &[u32]) -> bool {
    if sa.len() != text.len() {
        return false;
    }
    let mut seen = vec![false; text.len()];
    for &i in sa {
        if (i as usize) >= text.len() || seen[i as usize] {
            return false;
        }
        seen[i as usize] = true;
    }
    sa.windows(2).all(|w| text[w[0] as usize..] < text[w[1] as usize..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cases() {
        assert_eq!(suffix_array(b""), Vec::<u32>::new());
        assert_eq!(suffix_array(b"a"), vec![0]);
        assert_eq!(suffix_array(b"aa"), vec![1, 0]);
        assert_eq!(suffix_array(b"ab"), vec![0, 1]);
        assert_eq!(suffix_array(b"ba"), vec![1, 0]);
    }

    #[test]
    fn known_banana() {
        assert_eq!(suffix_array(b"banana"), vec![5, 3, 1, 0, 4, 2]);
    }

    #[test]
    fn mississippi() {
        let sa = suffix_array(b"mississippi");
        assert!(is_suffix_array(b"mississippi", &sa));
    }

    #[test]
    fn repetitive_and_random_verify() {
        let cases: Vec<Vec<u8>> = vec![
            b"ACGT".repeat(50),
            b"AAAAAAAAAA".to_vec(),
            b"ACGTACGAACGTTACG".repeat(13),
            // The refinement path: one k-mer bucket holding (nearly)
            // every suffix, ties that survive several doublings.
            vec![b'A'; 3000],
            b"ACGGTCATTGCA".repeat(400),
            [b"TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTG".repeat(40), vec![b'T'; 700]].concat(),
            (1..=255u8).cycle().take(70_000).collect(),
            {
                let mut x = 1234u64;
                (0..2000)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        b"ACGT"[(x >> 62) as usize]
                    })
                    .collect()
            },
        ];
        for text in cases {
            let sa = suffix_array(&text);
            assert!(is_suffix_array(&text, &sa), "failed for len {}", text.len());
        }
    }

    #[test]
    fn detects_invalid_sa() {
        assert!(!is_suffix_array(b"banana", &[0, 1, 2, 3, 4, 5]));
        assert!(!is_suffix_array(b"banana", &[5, 3, 1, 0, 4]));
        assert!(!is_suffix_array(b"banana", &[5, 3, 1, 0, 4, 4]));
    }
}
