//! Hash-chain LZ77 match finding for the DEFLATE compressor.
//!
//! One matcher serves every level: positions are hashed four bytes at a
//! time (one unaligned load) into `head`, collisions are chained through
//! a window-sized `prev` ring, and the parse is greedy or lazy depending
//! on [`MatcherParams`]. Three-byte matches are not looked for: on every
//! column this repository stores, taking them made the output larger
//! (their distance codes cost more than the literals they replace).
//!
//! The tables are sized once and reused by every call on a thread;
//! [`Matcher::reset`] clears the heads, and `prev` is only ever read
//! through a head written since, so what a thread compressed before
//! never shows in its output.

use super::{dist_code, LENGTH_CODE, MAX_MATCH, MIN_MATCH, NUM_DIST, NUM_LITLEN, WINDOW_SIZE};

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
const WINDOW_MASK: usize = WINDOW_SIZE - 1;

/// Shortest match the four-byte hash chains can find.
const MIN_CHAIN_MATCH: usize = 4;
/// Through a run of input without matches, every 2^this fruitless
/// searches widen the stride between searched positions by one, up to
/// [`MAX_STEP`]. Packed bases have a match worth taking every few
/// hundred bytes and would otherwise pay a cache-missing, mispredicted
/// chain walk at every one of them.
const MISSES_PER_STEP_LOG2: u32 = 5;
const MAX_STEP: usize = 8;

/// Capacity of a block in tokens. [`Matcher::tokenize`] stops
/// [`BLOCK_SLACK`] short of it, because one step of a lazy parse can
/// emit a run of literals (each deferral finds a longer match, so fewer
/// than [`MAX_MATCH`] of them) and the match that ends it.
const BLOCK_TOKENS: usize = 32 * 1024;
const BLOCK_SLACK: usize = MAX_MATCH + 2;

/// An LZ77 token: either a literal byte or a back-reference.
///
/// Packed into a `u32`: literals store the byte value; matches set bit
/// 31 and store `len - 3` in bits 20..28, the distance code in bits
/// 15..20 and `dist - 1` in bits 0..15.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token(u32);

impl Token {
    /// Creates a literal token.
    #[inline]
    pub fn literal(byte: u8) -> Self {
        Token(byte as u32)
    }

    /// Creates a match token for `len` in 3..=258 and `dist` in 1..=32768.
    #[inline]
    pub fn matching(len: usize, dist: usize) -> Self {
        debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
        debug_assert!((1..=WINDOW_SIZE).contains(&dist));
        Token(
            0x8000_0000
                | (((len - MIN_MATCH) as u32) << 20)
                | ((dist_code(dist) as u32) << 15)
                | ((dist - 1) as u32),
        )
    }

    /// Whether this token is a back-reference.
    #[inline]
    pub fn is_match(self) -> bool {
        self.0 & 0x8000_0000 != 0
    }

    /// The literal byte (only valid for literal tokens).
    #[inline]
    pub fn byte(self) -> u8 {
        debug_assert!(!self.is_match());
        self.0 as u8
    }

    /// The match length minus [`MIN_MATCH`] (only valid for match tokens).
    #[inline]
    pub fn len_minus_min(self) -> usize {
        debug_assert!(self.is_match());
        ((self.0 >> 20) & 0xFF) as usize
    }

    /// The match length (only valid for match tokens).
    #[inline]
    pub fn match_len(self) -> usize {
        self.len_minus_min() + MIN_MATCH
    }

    /// The distance code 0..=29 (only valid for match tokens).
    #[inline]
    pub fn dist_code(self) -> usize {
        debug_assert!(self.is_match());
        ((self.0 >> 15) & 0x1F) as usize
    }

    /// The match distance (only valid for match tokens).
    #[inline]
    pub fn dist(self) -> usize {
        debug_assert!(self.is_match());
        (self.0 & 0x7FFF) as usize + 1
    }
}

/// The tokens of one block with the symbol histogram its Huffman codes
/// are built from, accumulated as the tokens are pushed.
pub struct TokenBlock {
    tokens: Vec<Token>,
    /// Literal/length symbol counts (end-of-block not included).
    pub litlen_freq: [u32; NUM_LITLEN],
    /// Distance symbol counts.
    pub dist_freq: [u32; NUM_DIST],
}

impl TokenBlock {
    fn new() -> Self {
        TokenBlock {
            tokens: Vec::with_capacity(BLOCK_TOKENS),
            litlen_freq: [0; NUM_LITLEN],
            dist_freq: [0; NUM_DIST],
        }
    }

    /// The tokens pushed since the last [`clear`](Self::clear).
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// Empties the block for the next one.
    pub fn clear(&mut self) {
        self.tokens.clear();
        self.litlen_freq.fill(0);
        self.dist_freq.fill(0);
    }

    fn is_full(&self) -> bool {
        self.tokens.len() + BLOCK_SLACK > BLOCK_TOKENS
    }

    #[inline]
    fn push_literal(&mut self, byte: u8) {
        self.tokens.push(Token::literal(byte));
        self.litlen_freq[byte as usize] += 1;
    }

    #[inline]
    fn push_match(&mut self, len: usize, dist: usize) {
        let token = Token::matching(len, dist);
        self.tokens.push(token);
        self.litlen_freq[257 + LENGTH_CODE[len - MIN_MATCH] as usize] += 1;
        self.dist_freq[token.dist_code()] += 1;
    }
}

/// Tuning parameters for the matcher, one set per compression level.
#[derive(Debug, Clone, Copy)]
pub struct MatcherParams {
    /// Maximum hash-chain entries to examine per position.
    pub max_chain: u32,
    /// Match length at which the search (and a lazy deferral) stops.
    pub nice_len: usize,
    /// Defer a match while the next position has a longer one.
    pub lazy: bool,
    /// How many of the positions a match covers are entered into the
    /// hash chains (zlib's fast levels skip the inside of long matches).
    pub max_insert: usize,
}

#[inline(always)]
fn load32(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().unwrap())
}

#[inline(always)]
fn hash(word: u32) -> usize {
    (word.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, at most
/// `max`; both ranges must lie within `data`.
#[inline(always)]
fn match_length(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let (x, y) = (&data[a..a + max], &data[b..b + max]);
    let mut n = 0;
    while n + 8 <= max {
        let diff = u64::from_le_bytes(x[n..n + 8].try_into().unwrap())
            ^ u64::from_le_bytes(y[n..n + 8].try_into().unwrap());
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < max && x[n] == y[n] {
        n += 1;
    }
    n
}

/// The match finder's tables, reusable across inputs.
pub struct Matcher {
    /// Most recent position (plus one; 0 = none) per four-byte hash.
    head: Box<[u32; HASH_SIZE]>,
    /// For each position modulo the window, the previous position (plus
    /// one) with the same four-byte hash.
    prev: Box<[u32; WINDOW_SIZE]>,
    /// The block being filled.
    pub block: TokenBlock,
}

/// A zeroed table, built on the heap (these are too big to pass over
/// the stack of a small thread).
fn table<const N: usize>() -> Box<[u32; N]> {
    vec![0u32; N].into_boxed_slice().try_into().expect("length is N")
}

impl Default for Matcher {
    fn default() -> Self {
        Matcher { head: table(), prev: table(), block: TokenBlock::new() }
    }
}

impl Matcher {
    /// Forgets every position seen so far; call before each new input.
    pub fn reset(&mut self) {
        self.head.fill(0);
        self.block.clear();
    }

    /// Enters position `p`, where `word` starts, into the tables and
    /// returns the previous head of its hash chain.
    #[inline(always)]
    fn insert(&mut self, word: u32, p: usize) -> u32 {
        let h = hash(word);
        let cand = self.head[h];
        self.prev[p & WINDOW_MASK] = cand;
        self.head[h] = p as u32 + 1;
        cand
    }

    /// Finds the longest match for position `p` among at most
    /// `max_chain` earlier positions and enters `p` into the tables.
    /// Returns `(len, dist)`; `len < MIN_CHAIN_MATCH` means no match.
    #[inline(always)]
    fn find_and_insert(&mut self, data: &[u8], p: usize, params: &MatcherParams) -> (usize, usize) {
        let word = load32(data, p);
        // The search must read `prev` before `p` takes the ring slot of
        // the position one window back.
        let found = self.longest_match(data, p, word, self.head[hash(word)], params);
        self.insert(word, p);
        found
    }

    #[inline(always)]
    fn longest_match(
        &self,
        data: &[u8],
        p: usize,
        word: u32,
        mut cand: u32,
        params: &MatcherParams,
    ) -> (usize, usize) {
        let max_len = MAX_MATCH.min(data.len() - p);
        let nice_len = params.nice_len.min(max_len);
        // One comparison rejects both "no position" (0, which maps to a
        // distance of p + 1) and a position that left the window.
        let max_dist = p.min(WINDOW_SIZE) as u32;
        let (mut best_len, mut best_dist) = (MIN_CHAIN_MATCH - 1, 0);
        for _ in 0..params.max_chain {
            let dist = (p as u32 + 1).wrapping_sub(cand);
            if dist > max_dist {
                break;
            }
            let c = p - dist as usize;
            // `best_len < nice_len <= max_len` keeps both reads inside.
            if data[c + best_len] == data[p + best_len] && load32(data, c) == word {
                let len = MIN_CHAIN_MATCH
                    + match_length(
                        data,
                        c + MIN_CHAIN_MATCH,
                        p + MIN_CHAIN_MATCH,
                        max_len - MIN_CHAIN_MATCH,
                    );
                if len > best_len {
                    (best_len, best_dist) = (len, p - c);
                    if len >= nice_len {
                        break;
                    }
                }
            }
            cand = self.prev[c & WINDOW_MASK];
        }
        (best_len, best_dist)
    }

    /// Runs LZ77 over `data` from position `start`, pushing tokens into
    /// [`block`](Self::block) until it is full or the input ends, and
    /// returns the position reached. Tokens never straddle the return,
    /// so consecutive calls cover consecutive ranges of `data`.
    ///
    /// `data` must be shorter than 4 GiB and the same slice for every
    /// call since the last [`reset`](Self::reset).
    pub fn tokenize(&mut self, data: &[u8], start: usize, params: &MatcherParams) -> usize {
        debug_assert!(data.len() < u32::MAX as usize);
        let n = data.len();
        // Positions from here on have fewer than four bytes to hash.
        let hash_end = n.saturating_sub(MIN_CHAIN_MATCH - 1);
        let mut i = start;
        // Searches since the last match that found nothing.
        let mut misses = 0usize;
        while i < n && !self.block.is_full() {
            if i >= hash_end {
                self.block.push_literal(data[i]);
                i += 1;
                continue;
            }
            let (mut len, mut dist) = self.find_and_insert(data, i, params);
            if len < MIN_CHAIN_MATCH {
                // Where nothing has matched for a while nothing is
                // likely to: search (and index) only every `step`th
                // position until something does.
                misses += 1;
                let step = (1 + (misses >> MISSES_PER_STEP_LOG2)).min(MAX_STEP).min(n - i);
                for &byte in &data[i..i + step] {
                    self.block.push_literal(byte);
                }
                i += step;
                continue;
            }
            misses = 0;
            // Positions up to and including `inserted` are in the tables.
            let mut inserted = i;
            if params.lazy {
                while len < params.nice_len && i + 1 < hash_end {
                    let next = self.find_and_insert(data, i + 1, params);
                    inserted = i + 1;
                    if next.0 <= len {
                        break;
                    }
                    self.block.push_literal(data[i]);
                    i += 1;
                    (len, dist) = next;
                }
            }
            self.block.push_match(len, dist);
            let end = i + len;
            for k in inserted + 1..end.min(hash_end).min((i + 1).saturating_add(params.max_insert))
            {
                self.insert(load32(data, k), k);
            }
            i = end;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAST: MatcherParams =
        MatcherParams { max_chain: 8, nice_len: 32, lazy: false, max_insert: 8 };
    const LAZY: MatcherParams =
        MatcherParams { max_chain: 128, nice_len: 128, lazy: true, max_insert: usize::MAX };
    const DEEP: MatcherParams =
        MatcherParams { max_chain: 1024, nice_len: MAX_MATCH, lazy: true, max_insert: usize::MAX };

    fn tokens_of(m: &mut Matcher, data: &[u8], params: &MatcherParams) -> Vec<Token> {
        m.reset();
        let mut tokens = Vec::new();
        let mut pos = 0;
        loop {
            let next = m.tokenize(data, pos, params);
            tokens.extend_from_slice(m.block.tokens());
            m.block.clear();
            pos = next;
            if pos == data.len() {
                return tokens;
            }
        }
    }

    /// Reference semantics of the token format.
    fn detokenize(tokens: &[Token]) -> Vec<u8> {
        let mut out = Vec::new();
        for &t in tokens {
            if t.is_match() {
                let start = out.len() - t.dist();
                for k in 0..t.match_len() {
                    out.push(out[start + k]);
                }
            } else {
                out.push(t.byte());
            }
        }
        out
    }

    fn roundtrip(data: &[u8]) {
        let mut m = Matcher::default();
        for params in [&FAST, &LAZY, &DEEP] {
            assert_eq!(detokenize(&tokens_of(&mut m, data, params)), data, "{params:?}");
        }
    }

    #[test]
    fn token_packing() {
        let t = Token::literal(0xAB);
        assert!(!t.is_match());
        assert_eq!(t.byte(), 0xAB);
        for (len, dist) in [(3, 1), (258, 32768), (100, 5000), (4, 4), (17, 257)] {
            let t = Token::matching(len, dist);
            assert!(t.is_match());
            assert_eq!(t.match_len(), len);
            assert_eq!(t.dist(), dist);
            assert_eq!(t.dist_code(), dist_code(dist));
        }
    }

    #[test]
    fn tokenize_roundtrips() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
        roundtrip(b"abcd");
        roundtrip(b"abcabc");
        roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        roundtrip(b"abcabcabcabcabcabcabc");
        let mixed: Vec<u8> =
            (0..100_000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        roundtrip(&mixed);
        roundtrip(&b"ACGTACGTACGT".repeat(500));
    }

    #[test]
    fn finds_long_matches() {
        let data = b"0123456789".repeat(30);
        let tokens = tokens_of(&mut Matcher::default(), &data, &LAZY);
        let match_bytes: usize =
            tokens.iter().filter(|t| t.is_match()).map(|t| t.match_len()).sum();
        assert!(match_bytes > data.len() * 9 / 10, "only {match_bytes} of {} matched", data.len());
    }

    #[test]
    fn long_runs_capped_at_max_match() {
        let data = vec![7u8; 1000];
        let tokens = tokens_of(&mut Matcher::default(), &data, &DEEP);
        assert!(tokens.iter().filter(|t| t.is_match()).all(|t| t.match_len() <= MAX_MATCH));
        assert_eq!(detokenize(&tokens), data);
    }

    #[test]
    fn matches_reach_a_full_window_back_and_no_further() {
        // Two copies of a 40-byte phrase exactly one window apart, then
        // one byte further apart, separated by bytes that match nothing.
        let phrase: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        for gap in [WINDOW_SIZE, WINDOW_SIZE + 1] {
            let mut data = phrase.clone();
            data.extend((0..gap - phrase.len()).map(|i| 128 + (i % 2) as u8 + (i / 999) as u8));
            data.extend_from_slice(&phrase);
            let tokens = tokens_of(&mut Matcher::default(), &data, &DEEP);
            let reaches = tokens.iter().any(|t| t.is_match() && t.dist() == WINDOW_SIZE);
            assert_eq!(reaches, gap == WINDOW_SIZE, "gap {gap}");
            assert!(tokens.iter().all(|t| !t.is_match() || t.dist() <= WINDOW_SIZE));
            assert_eq!(detokenize(&tokens), data);
        }
    }

    #[test]
    fn reuse_does_not_leak_earlier_inputs() {
        let a: Vec<u8> = (0..50_000u32).map(|i| (i.wrapping_mul(2654435761) >> 15) as u8).collect();
        let b = b"the quick brown fox jumps over the lazy dog ".repeat(300);
        let fresh = tokens_of(&mut Matcher::default(), &b, &LAZY);
        let mut reused = Matcher::default();
        tokens_of(&mut reused, &a, &FAST);
        tokens_of(&mut reused, &b[..1234], &DEEP);
        assert_eq!(tokens_of(&mut reused, &b, &LAZY), fresh);
    }

    #[test]
    fn histogram_matches_tokens() {
        let data = b"abracadabra, abracadabra! ".repeat(100);
        let mut m = Matcher::default();
        m.reset();
        assert_eq!(m.tokenize(&data, 0, &LAZY), data.len());
        let mut litlen = [0u32; NUM_LITLEN];
        let mut dist = [0u32; NUM_DIST];
        for t in m.block.tokens() {
            if t.is_match() {
                litlen[257 + super::super::length_code(t.match_len())] += 1;
                dist[dist_code(t.dist())] += 1;
            } else {
                litlen[t.byte() as usize] += 1;
            }
        }
        assert_eq!(m.block.litlen_freq, litlen);
        assert_eq!(m.block.dist_freq, dist);
    }
}
