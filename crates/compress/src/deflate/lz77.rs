//! LZ77 match finding for the DEFLATE compressor.
//!
//! Positions are hashed four bytes at a time (one unaligned load), and
//! three-byte matches are not looked for: on every column this
//! repository stores, taking them made the output larger (their
//! distance codes cost more than the literals they replace).
//!
//! [`Buckets`] keeps the two most recent positions of each hash in one
//! 8-byte slot, after libdeflate's level-1 `ht_matchfinder`. Each
//! candidate is scored with one 8-byte XOR and a trailing-zero count;
//! only a full 8-byte hit is extended. Entering a position shifts its
//! slot, so there is no chain to walk and no chain of dependent loads.
//! The parse is greedy, and the block's token room is checked once per
//! stretch of input rather than once per token.
//!
//! The table is sized once per thread (256 KB) and reused by every call
//! on it, and is not cleared between inputs, yet what a thread
//! compressed before never shows in its output: each input's positions
//! are entered offset by a per-thread base that the input advances past
//! its length plus a window, so an entry of an earlier input lies more
//! than its own position behind any position of this one and fails the
//! distance check like an empty slot (0) does. The table is cleared
//! only when the base would wrap.

use super::{dist_code, LENGTH_CODE, MAX_MATCH, MIN_MATCH, NUM_DIST, NUM_LITLEN, WINDOW_SIZE};

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Shortest match a four-byte hash can find.
const MIN_HASH_MATCH: usize = 4;
/// Through a run of input without matches, every 2^this fruitless
/// searches widen the stride between searched positions by one, up to
/// [`MAX_STEP`]. Packed bases have a match worth taking every few
/// hundred bytes and would otherwise pay a cache-missing, mispredicted
/// probe at every one of them.
const MISSES_PER_STEP_LOG2: u32 = 5;
const MAX_STEP: usize = 8;

/// Capacity of a block in tokens. The search fills a block to
/// [`BLOCK_SLACK`] short of it and never past that mark. The mark is
/// where blocks are cut, and so decides every compressed byte the
/// pipeline writes (the stored columns and BAM files that the golden
/// digests pin); changing it changes them all.
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

impl Default for TokenBlock {
    fn default() -> Self {
        TokenBlock {
            tokens: Vec::with_capacity(BLOCK_TOKENS),
            litlen_freq: [0; NUM_LITLEN],
            dist_freq: [0; NUM_DIST],
        }
    }
}

impl TokenBlock {
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

    /// How many more tokens fit before the block counts as full.
    fn room(&self) -> usize {
        (BLOCK_TOKENS - BLOCK_SLACK).saturating_sub(self.tokens.len())
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

#[inline(always)]
fn load32(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().unwrap())
}

#[inline(always)]
fn load64(data: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(data[i..i + 8].try_into().unwrap())
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

/// How many of the eight bytes at `p` (whose value is `word`) the eight
/// bytes `dist` back repeat, or 0 where `dist` is 0, reaches before the
/// input or leaves the window — an empty slot and an entry of an
/// earlier input among them. Branch-free: which of the two entries
/// matches longer is what the parse cannot predict.
#[inline(always)]
fn prefix8(data: &[u8], p: usize, word: u64, dist: u32) -> usize {
    let ok = dist.wrapping_sub(1) < p.min(WINDOW_SIZE) as u32;
    // Compared with itself when out of range, and then masked to 0.
    let back = (dist & 0u32.wrapping_sub(ok as u32)) as usize;
    let same = (load64(data, p - back) ^ word).trailing_zeros() as usize / 8;
    same * ok as usize
}

/// Per four-byte hash, the two most recent positions entered.
pub struct Buckets {
    /// One slot per hash: the newer entry in the low half, the older in
    /// the high half. An entry is a position plus the `base` of its
    /// input.
    slots: Box<[u64; HASH_SIZE]>,
    /// What position 0 of the current input is entered as.
    base: u32,
    /// The next input's `base`: more than a window past every entry.
    next_base: u32,
}

impl Default for Buckets {
    fn default() -> Self {
        // Built on the heap: the table is too big to pass over the stack
        // of a small thread.
        let slots = vec![0; HASH_SIZE].into_boxed_slice().try_into().unwrap();
        // A base of at least 1 puts an empty slot (0) out of reach.
        Buckets { slots, base: 1, next_base: 1 }
    }
}

impl Buckets {
    /// Readies the table for a new input of `len` bytes, at most 1 GiB.
    pub fn start(&mut self, len: usize) {
        debug_assert!(len <= 1 << 30);
        let span = (len + WINDOW_SIZE) as u32;
        if self.next_base.checked_add(span).is_none() {
            self.slots.fill(0);
            self.next_base = 1;
        }
        self.base = self.next_base;
        self.next_base = self.base + span;
    }

    /// Enters position `p` of the current input, whose first four bytes
    /// are `word`, and returns the slot as it was.
    #[inline(always)]
    fn insert(&mut self, word: u32, p: usize) -> u64 {
        let slot = &mut self.slots[hash(word)];
        let old = *slot;
        *slot = old << 32 | (self.base + p as u32) as u64;
        old
    }

    /// The longer of the matches a slot's two entries give position
    /// `p`, whose first eight bytes are `word`, as `(len, dist)`; the
    /// nearer on a tie. `len < MIN_HASH_MATCH` means no match. `p`
    /// must have eight bytes of input.
    #[inline(always)]
    fn best_of(&self, data: &[u8], p: usize, word: u64, slot: u64) -> (usize, usize) {
        let here = self.base + p as u32;
        let (d0, d1) = (here.wrapping_sub(slot as u32), here.wrapping_sub((slot >> 32) as u32));
        let (l0, l1) = (prefix8(data, p, word, d0), prefix8(data, p, word, d1));
        if l0 < 8 && l1 < 8 {
            return if l1 > l0 { (l1, d1 as usize) } else { (l0, d0 as usize) };
        }
        // At least one full 8-byte hit: extend the hits.
        let max = MAX_MATCH.min(data.len() - p) - 8;
        let extend = |l: usize, d: u32| {
            if l < 8 {
                return l;
            }
            let c = p - d as usize;
            8 + match_length(data, c + 8, p + 8, max)
        };
        let (l0, l1) = (extend(l0, d0), extend(l1, d1));
        if l1 > l0 {
            (l1, d1 as usize)
        } else {
            (l0, d0 as usize)
        }
    }

    /// Runs LZ77 over `data` from position `start`, pushing tokens into
    /// `block` until it is full or the input ends, and returns the
    /// position reached. Tokens never straddle the return, so
    /// consecutive calls cover consecutive ranges of `data`.
    ///
    /// `data` must be the same slice for every call since
    /// [`start`](Self::start).
    pub fn tokenize(&mut self, data: &[u8], start: usize, block: &mut TokenBlock) -> usize {
        let n = data.len();
        // Positions from here on have fewer than eight bytes to compare
        // and are emitted as literals.
        let fast_end = n.saturating_sub(7);
        let mut i = start;
        // Searches since the last match that found nothing.
        let mut misses = 0usize;
        while i < fast_end {
            // Tokens start at distinct positions, so a stretch of `room`
            // positions cannot overfill the block.
            let room = block.room();
            if room == 0 {
                return i;
            }
            let stop = fast_end.min(i + room);
            while i < stop {
                let word = load64(data, i);
                let slot = self.insert(word as u32, i);
                let (len, dist) = self.best_of(data, i, word, slot);
                if len < MIN_HASH_MATCH {
                    // Where nothing has matched for a while nothing is
                    // likely to: search (and index) only every `step`th
                    // position until something does.
                    misses += 1;
                    let step = (1 + (misses >> MISSES_PER_STEP_LOG2)).min(MAX_STEP).min(stop - i);
                    for &byte in &data[i..i + step] {
                        block.push_literal(byte);
                    }
                    i += step;
                    continue;
                }
                misses = 0;
                block.push_match(len, dist);
                let end = i + len;
                for k in i + 1..end.min(fast_end) {
                    self.insert(load32(data, k), k);
                }
                i = end;
            }
        }
        let end = n.min(i + block.room());
        for &byte in &data[i..end] {
            block.push_literal(byte);
        }
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens_of(m: &mut Buckets, data: &[u8]) -> Vec<Token> {
        m.start(data.len());
        let mut block = TokenBlock::default();
        let mut tokens = Vec::new();
        let mut pos = 0;
        loop {
            let next = m.tokenize(data, pos, &mut block);
            tokens.extend_from_slice(block.tokens());
            block.clear();
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
        assert_eq!(detokenize(&tokens_of(&mut Buckets::default(), data)), data);
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
        let tokens = tokens_of(&mut Buckets::default(), &data);
        let match_bytes: usize =
            tokens.iter().filter(|t| t.is_match()).map(|t| t.match_len()).sum();
        assert!(match_bytes > data.len() * 9 / 10, "only {match_bytes} of {} matched", data.len());
    }

    #[test]
    fn long_runs_capped_at_max_match() {
        let data = vec![7u8; 1000];
        let tokens = tokens_of(&mut Buckets::default(), &data);
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
            let tokens = tokens_of(&mut Buckets::default(), &data);
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
        // `noise` is long enough that a search enters only every eighth
        // position of its end; `quiet` has the same end after a run that
        // keeps every position there entered. Each `echo` repeats 16
        // bytes of that end: a position `quiet` left in the table would
        // hand `echo` a match that its own table does not hold.
        let mut x = 1u64;
        let noise: Vec<u8> = (0..4_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        let mut quiet = vec![b'a'; 3_000];
        quiet.extend_from_slice(&noise[3_000..]);
        let echoes = (3_000..3_016).map(|q| [&noise[..], &noise[q..q + 16]].concat());
        let fresh = |data: &[u8]| tokens_of(&mut Buckets::default(), data);
        let mut reused = Buckets::default();
        // Inputs after themselves, after a shorter and after a longer one.
        for (earlier, data) in [(&a[..], &a[..]), (&b[..1234], &b), (&b, &b[7..])] {
            tokens_of(&mut reused, earlier);
            assert_eq!(tokens_of(&mut reused, data), fresh(data));
        }
        for echo in echoes {
            tokens_of(&mut reused, &quiet);
            assert_eq!(tokens_of(&mut reused, &echo), fresh(&echo));
        }
    }

    #[test]
    fn histogram_matches_tokens() {
        let data = b"abracadabra, abracadabra! ".repeat(100);
        let mut m = Buckets::default();
        let mut block = TokenBlock::default();
        m.start(data.len());
        assert_eq!(m.tokenize(&data, 0, &mut block), data.len());
        let mut litlen = [0u32; NUM_LITLEN];
        let mut dist = [0u32; NUM_DIST];
        for t in block.tokens() {
            if t.is_match() {
                litlen[257 + super::super::length_code(t.match_len())] += 1;
                dist[dist_code(t.dist())] += 1;
            } else {
                litlen[t.byte() as usize] += 1;
            }
        }
        assert_eq!(block.litlen_freq, litlen);
        assert_eq!(block.dist_freq, dist);
    }
}
