//! Canonical Huffman codes for the encoder: length-limited code lengths
//! from symbol frequencies, and code values from lengths.
//!
//! Lengths come from a sort, the in-place Moffat–Katajainen tree
//! construction, and — only when the tree is deeper than the limit — a
//! rebalancing of the per-length code counts until the Kraft sum is
//! exactly one again. Nothing is allocated; all scratch is on the stack.
//! The decoder's lookup tables live in [`mod@super::inflate`].

use super::MAX_CODE_LEN;

/// Largest alphabet the builder accepts (the literal/length alphabet,
/// including the two symbols only the fixed code uses).
pub const MAX_SYMBOLS: usize = 288;

/// Computes length-limited Huffman code lengths for the given symbol
/// frequencies, writing one length per symbol into `lens`.
///
/// Symbols with zero frequency get length 0. If only one symbol has a
/// nonzero frequency it is assigned length 1 (DEFLATE requires at least
/// one bit per coded symbol); that is the only incomplete code this
/// function produces. Ties are broken by symbol value, so the result
/// depends on `freqs` alone.
///
/// # Panics
///
/// Panics if `freqs.len() != lens.len()`, the alphabet has more than
/// [`MAX_SYMBOLS`] symbols, or its used symbols cannot fit in
/// `max_len`-bit codes.
pub fn limited_code_lengths(freqs: &[u32], max_len: usize, lens: &mut [u8]) {
    assert_eq!(freqs.len(), lens.len());
    assert!(freqs.len() <= MAX_SYMBOLS && max_len <= MAX_CODE_LEN);
    lens.fill(0);

    // Used symbols as `freq << 16 | symbol`, ascending: one key orders
    // by frequency, then by symbol.
    let mut nodes = [0u64; MAX_SYMBOLS];
    let mut n = 0usize;
    for (sym, &f) in freqs.iter().enumerate() {
        if f > 0 {
            nodes[n] = (f as u64) << 16 | sym as u64;
            n += 1;
        }
    }
    let nodes = &mut nodes[..n];
    if n <= 2 {
        for node in nodes.iter() {
            lens[(node & 0xFFFF) as usize] = 1;
        }
        return;
    }
    assert!((1usize << max_len) >= n, "alphabet of {n} does not fit in {max_len}-bit codes");
    nodes.sort_unstable();
    let mut syms = [0u16; MAX_SYMBOLS];
    for (s, node) in syms.iter_mut().zip(nodes.iter_mut()) {
        *s = (*node & 0xFFFF) as u16;
        *node >>= 16;
    }

    // Per-length code counts of the unlimited optimal code.
    moffat_katajainen(nodes);
    let mut counts = [0u32; 64];
    for &depth in nodes.iter() {
        // A leaf at depth d needs a total weight of at least Fib(d + 1);
        // 288 `u32` weights sum below 2^41 < Fib(61).
        counts[depth as usize] += 1;
    }

    // Fold everything deeper than the limit onto it, then repair the
    // Kraft sum (in units of 2^-max_len): each round shortens nothing,
    // it moves one code from the deepest shorter length down a level
    // and pairs it with one over-long code, which removes exactly one
    // unit of over-subscription.
    for depth in max_len + 1..64 {
        counts[max_len] += counts[depth];
        counts[depth] = 0;
    }
    let mut total: u64 = (1..=max_len).map(|l| (counts[l] as u64) << (max_len - l)).sum();
    while total > 1u64 << max_len {
        counts[max_len] -= 1;
        let l = (1..max_len).rev().find(|&l| counts[l] > 0).expect("a code shorter than the limit");
        counts[l] -= 1;
        counts[l + 1] += 2;
        total -= 1;
    }

    // `syms` is ascending by frequency: hand out the longest codes first.
    let mut next = 0usize;
    for len in (1..=max_len).rev() {
        for &sym in &syms[next..next + counts[len] as usize] {
            lens[sym as usize] = len as u8;
        }
        next += counts[len] as usize;
    }
    debug_assert_eq!(next, n);
}

/// Moffat & Katajainen's in-place minimum-redundancy code: on entry
/// `a` holds at least two weights in ascending order, on exit the code
/// length of each (so descending).
fn moffat_katajainen(a: &mut [u64]) {
    let n = a.len();
    debug_assert!(n >= 2);
    // Phase 1: pair the two lightest of {unmerged leaves, roots of
    // built subtrees}; a[next] becomes the new internal node's weight,
    // the consumed internal nodes are overwritten by their parent index.
    a[0] += a[1];
    let (mut root, mut leaf) = (0usize, 2usize);
    for next in 1..n - 1 {
        if leaf >= n || a[root] < a[leaf] {
            a[next] = a[root];
            a[root] = next as u64;
            root += 1;
        } else {
            a[next] = a[leaf];
            leaf += 1;
        }
        if leaf >= n || (root < next && a[root] < a[leaf]) {
            a[next] += a[root];
            a[root] = next as u64;
            root += 1;
        } else {
            a[next] += a[leaf];
            leaf += 1;
        }
    }
    // Phase 2: parent indices to internal-node depths.
    a[n - 2] = 0;
    for next in (0..n - 2).rev() {
        a[next] = a[a[next] as usize] + 1;
    }
    // Phase 3: internal-node depths to leaf depths, deepest last.
    let (mut avail, mut used, mut depth) = (1usize, 0usize, 0u64);
    let (mut root, mut next) = (n as isize - 2, n as isize - 1);
    while avail > 0 {
        while root >= 0 && a[root as usize] == depth {
            used += 1;
            root -= 1;
        }
        while avail > used {
            a[next as usize] = depth;
            next -= 1;
            avail -= 1;
        }
        avail = 2 * used;
        depth += 1;
        used = 0;
    }
}

/// Reverses the low `n` bits of `v`.
#[inline]
pub fn reverse_bits(v: u32, n: u32) -> u32 {
    v.reverse_bits() >> (32 - n)
}

/// Assigns canonical code values to `lens`, bit-reversed so they can be
/// written LSB-first, into `codes`.
pub fn assign_codes(lens: &[u8], codes: &mut [u16]) {
    debug_assert_eq!(lens.len(), codes.len());
    let mut counts = [0u32; MAX_CODE_LEN + 1];
    for &l in lens {
        counts[l as usize] += 1;
    }
    counts[0] = 0;
    let mut next_code = [0u32; MAX_CODE_LEN + 1];
    let mut code = 0u32;
    for len in 1..=MAX_CODE_LEN {
        code = (code + counts[len - 1]) << 1;
        next_code[len] = code;
    }
    for (c, &l) in codes.iter_mut().zip(lens) {
        if l != 0 {
            *c = reverse_bits(next_code[l as usize], l as u32) as u16;
            next_code[l as usize] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lengths(freqs: &[u32], max_len: usize) -> Vec<u8> {
        let mut lens = vec![0u8; freqs.len()];
        limited_code_lengths(freqs, max_len, &mut lens);
        lens
    }

    /// Kraft sum in units of 2^-15.
    fn kraft(lens: &[u8]) -> u32 {
        lens.iter().filter(|&&l| l > 0).map(|&l| 1u32 << (15 - l)).sum()
    }

    fn cost(freqs: &[u32], lens: &[u8]) -> u64 {
        freqs.iter().zip(lens).map(|(&f, &l)| f as u64 * l as u64).sum()
    }

    /// Optimal unlimited cost by the textbook two-queue merge.
    fn huffman_cost(freqs: &[u32]) -> u64 {
        let mut w: Vec<u64> = freqs.iter().filter(|&&f| f > 0).map(|&f| f as u64).collect();
        let mut total = 0;
        while w.len() > 1 {
            w.sort_unstable_by(|a, b| b.cmp(a));
            let merged = w.pop().unwrap() + w.pop().unwrap();
            total += merged;
            w.push(merged);
        }
        total
    }

    #[test]
    fn classic_example_is_optimal() {
        let freqs = [5u32, 9, 12, 13, 16, 45];
        let lens = lengths(&freqs, 15);
        assert_eq!(kraft(&lens), 1 << 15);
        assert_eq!(cost(&freqs, &lens), 224);
    }

    #[test]
    fn unlimited_lengths_are_optimal() {
        let mut x = 0x9E37_79B9u32;
        for n in [3usize, 7, 19, 30, 100, 286] {
            let freqs: Vec<u32> = (0..n)
                .map(|_| {
                    x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (x >> 20) % 1000
                })
                .collect();
            let lens = lengths(&freqs, 15);
            if lens.iter().all(|&l| l < 15) {
                assert_eq!(cost(&freqs, &lens), huffman_cost(&freqs), "n {n}");
            }
            assert_eq!(kraft(&lens), 1 << 15, "n {n}");
            assert!(freqs.iter().zip(&lens).all(|(&f, &l)| (f == 0) == (l == 0)));
        }
    }

    #[test]
    fn degenerate_histograms() {
        assert_eq!(lengths(&[], 15), Vec::<u8>::new());
        assert_eq!(lengths(&[0, 0], 15), [0, 0]);
        // One symbol: the only incomplete code.
        assert_eq!(lengths(&[0, 7], 15), [0, 1]);
        assert_eq!(lengths(&[3, 0, 5], 15), [1, 0, 1]);
        assert_eq!(lengths(&[3, 0, 5], 7), [1, 0, 1]);
    }

    #[test]
    fn fibonacci_weights_respect_the_limit() {
        let mut fib = vec![1u32, 1];
        while fib.len() < 40 {
            fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
        }
        for (n, limit) in [(40usize, 15usize), (32, 15), (19, 7), (19, 5), (16, 4)] {
            let lens = lengths(&fib[..n], limit);
            assert!(lens.iter().all(|&l| l >= 1 && l as usize <= limit), "n {n} limit {limit}");
            assert_eq!(kraft(&lens), 1 << 15, "n {n} limit {limit}");
            // Heavier symbols never get longer codes.
            assert!(lens.windows(2).all(|w| w[0] >= w[1]), "n {n} limit {limit}: {lens:?}");
        }
    }

    #[test]
    fn equal_weights_fill_the_alphabet() {
        let lens = lengths(&[7u32; 286], 15);
        assert_eq!(kraft(&lens), 1 << 15);
        assert!(lens.iter().all(|&l| l == 8 || l == 9));
        let lens = lengths(&[1u32; 19], 7);
        assert_eq!(kraft(&lens), 1 << 15);
        assert!(lens.iter().all(|&l| l == 4 || l == 5));
        // Exactly as many symbols as the limit can address.
        let lens = lengths(&[1u32; 16], 4);
        assert!(lens.iter().all(|&l| l == 4));
    }

    #[test]
    fn canonical_codes_are_prefix_free_and_ordered() {
        let freqs: Vec<u32> = (1..=60u32).map(|i| i * i % 47 + 1).collect();
        let lens = lengths(&freqs, 15);
        let mut codes = vec![0u16; lens.len()];
        assign_codes(&lens, &mut codes);
        // MSB-first values, left-aligned to 15 bits, must be strictly
        // increasing in (length, symbol) order and each code's range
        // must end where the next begins.
        let mut order: Vec<usize> = (0..lens.len()).collect();
        order.sort_by_key(|&s| (lens[s], s));
        let mut expect = 0u32;
        for s in order {
            let msb = reverse_bits(codes[s] as u32, lens[s] as u32);
            assert_eq!(msb << (15 - lens[s]), expect, "symbol {s}");
            expect += 1 << (15 - lens[s]);
        }
        assert_eq!(expect, 1 << 15);
    }
}
