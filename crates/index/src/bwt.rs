//! The Burrows-Wheeler transform over a small DNA alphabet.
//!
//! Texts are *code* sequences: `0` is reserved for the (implicit)
//! sentinel, real symbols use `1..ALPHABET`. For DNA: A=1, C=2, G=3, T=4.

use crate::sa::suffix_array;

/// Alphabet size including the sentinel code 0.
pub const ALPHABET: usize = 5;

/// Set in [`CODES`] for every byte other than `A`, `C`, `G`, `T`.
pub(crate) const NOT_ACGT: u8 = 0x80;

/// Per ASCII byte: its BWT code in the low three bits (`N` and any
/// other byte degrade to `A`), plus [`NOT_ACGT`] unless it is one of
/// `A`, `C`, `G`, `T`.
pub(crate) const CODES: [u8; 256] = {
    let mut table = [1 | NOT_ACGT; 256];
    table[b'A' as usize] = 1;
    table[b'C' as usize] = 2;
    table[b'G' as usize] = 3;
    table[b'T' as usize] = 4;
    table
};

/// Maps an ASCII base to its BWT code (`N` degrades to `A`, mirroring
/// BWA's handling of ambiguous reference bases).
#[inline]
pub fn base_code(b: u8) -> u8 {
    CODES[b as usize] & 7
}

/// Maps a BWT code back to an ASCII base (0 maps to `$`).
#[inline]
pub fn code_base(c: u8) -> u8 {
    match c {
        1 => b'A',
        2 => b'C',
        3 => b'G',
        4 => b'T',
        _ => b'$',
    }
}

/// The BWT of `text` (codes `1..ALPHABET`), with the sentinel appended
/// conceptually. Output length is `text.len() + 1`; exactly one entry is
/// the sentinel code 0. One byte per symbol: this is the form the
/// transform is built and inverted in; [`crate::fm::FmIndex`] packs it
/// to 2 bits per symbol (sentinel out of band) and does not keep it.
#[derive(Debug, Clone)]
pub struct Bwt {
    /// The transformed text, as codes.
    pub data: Vec<u8>,
    /// Row whose BWT symbol is the sentinel: the row of the suffix at
    /// text position 0 (0 for the empty text).
    pub sentinel_row: usize,
    /// `c_array[c]` = number of symbols strictly smaller than `c` in
    /// `text + $`; `c_array[ALPHABET]` = total length.
    pub c_array: [u64; ALPHABET + 1],
}

impl Bwt {
    /// Builds the BWT from a text and its (sentinel-less) suffix array.
    ///
    /// # Panics
    ///
    /// Panics if the text contains code 0 or codes >= ALPHABET.
    pub fn from_sa(text: &[u8], sa: &[u32]) -> Self {
        assert_eq!(text.len(), sa.len());
        assert!(text.iter().all(|&c| c >= 1 && (c as usize) < ALPHABET), "invalid text codes");
        let n = text.len();
        let mut data = Vec::with_capacity(n + 1);
        let mut sentinel_row = 0usize;
        // Conceptual row 0 is the `$` suffix; its BWT char is the last
        // text symbol (or $ itself for the empty text).
        if n == 0 {
            data.push(0);
        } else {
            data.push(text[n - 1]);
            for (k, &i) in sa.iter().enumerate() {
                if i == 0 {
                    data.push(0);
                    sentinel_row = k + 1;
                } else {
                    data.push(text[i as usize - 1]);
                }
            }
        }
        let mut counts = [0u64; ALPHABET];
        for &c in &data {
            counts[c as usize] += 1;
        }
        let mut c_array = [0u64; ALPHABET + 1];
        for c in 0..ALPHABET {
            c_array[c + 1] = c_array[c] + counts[c];
        }
        Bwt { data, sentinel_row, c_array }
    }

    /// Builds the BWT of `text`, computing the suffix array internally.
    pub fn build(text: &[u8]) -> Self {
        assert!(text.iter().all(|&c| c >= 1 && (c as usize) < ALPHABET), "invalid text codes");
        let sa = suffix_array(text);
        Self::from_sa(text, &sa)
    }

    /// Length of the BWT (text length + 1).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the BWT is of the empty text.
    pub fn is_empty(&self) -> bool {
        self.data.len() <= 1
    }

    /// Inverts the transform, recovering the original text codes.
    pub fn invert(&self) -> Vec<u8> {
        let n = self.data.len();
        // occ_rank[i]: rank of data[i] among equal symbols in data[..=i].
        let mut occ_rank = vec![0u64; n];
        let mut counts = [0u64; ALPHABET];
        for (i, &c) in self.data.iter().enumerate() {
            occ_rank[i] = counts[c as usize];
            counts[c as usize] += 1;
        }
        // LF-walk from the sentinel row backwards through the text.
        let mut out = vec![0u8; n - 1];
        let mut row = 0usize; // Row 0 is the `$` suffix: its BWT char is text's last symbol.
        for slot in (0..n - 1).rev() {
            let c = self.data[row];
            debug_assert_ne!(c, 0, "hit sentinel early");
            out[slot] = c;
            row = (self.c_array[c as usize] + occ_rank[row]) as usize;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(s: &[u8]) -> Vec<u8> {
        s.iter().map(|&b| base_code(b)).collect()
    }

    #[test]
    fn empty_text() {
        let bwt = Bwt::build(&[]);
        assert_eq!(bwt.len(), 1);
        assert!(bwt.is_empty());
        assert_eq!(bwt.invert(), Vec::<u8>::new());
    }

    #[test]
    fn single_symbol() {
        let text = encode(b"A");
        let bwt = Bwt::build(&text);
        assert_eq!(bwt.invert(), text);
    }

    #[test]
    fn known_small_bwt() {
        // Text "ACGT": suffixes sorted with $ smallest.
        let text = encode(b"ACGT");
        let bwt = Bwt::build(&text);
        assert_eq!(bwt.invert(), text);
        // Exactly one sentinel in the BWT.
        assert_eq!(bwt.data.iter().filter(|&&c| c == 0).count(), 1);
    }

    #[test]
    fn inversion_roundtrip_various() {
        for s in [&b"ACGTACGTACGT"[..], b"AAAAAAA", b"GATTACA", b"TTTTGGGGCCCCAAAA"] {
            let text = encode(s);
            assert_eq!(Bwt::build(&text).invert(), text, "text {:?}", s);
        }
        // Longer pseudo-random text.
        let mut x = 42u64;
        let long: Vec<u8> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 62) + 1) as u8
            })
            .collect();
        assert_eq!(Bwt::build(&long).invert(), long);
    }

    #[test]
    fn c_array_is_cumulative() {
        let text = encode(b"ACCGGGTTTT");
        let bwt = Bwt::build(&text);
        // 1 sentinel, 1 A, 2 C, 3 G, 4 T.
        assert_eq!(bwt.c_array, [0, 1, 2, 4, 7, 11]);
    }

    #[test]
    fn n_degrades_to_a() {
        assert_eq!(base_code(b'N'), base_code(b'A'));
        assert_eq!(code_base(base_code(b'C')), b'C');
    }

    /// The table maps every byte as the `match` it replaced did.
    #[test]
    fn code_table_matches_the_match() {
        for b in 0..=255u8 {
            let (code, acgt) = match b {
                b'A' => (1, true),
                b'C' => (2, true),
                b'G' => (3, true),
                b'T' => (4, true),
                _ => (1, false),
            };
            assert_eq!(base_code(b), code, "byte {b:#04x}");
            assert_eq!(CODES[b as usize] & NOT_ACGT == 0, acgt, "byte {b:#04x}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid text codes")]
    fn rejects_sentinel_in_text() {
        Bwt::build(&[1, 0, 2]);
    }
}
