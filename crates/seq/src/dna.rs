//! DNA alphabet utilities: validation, complementing, 2-bit encoding.
//!
//! Reads use the 5-letter alphabet `A, C, G, T, N` (the paper §2.1: "the
//! bases (A,C,T,G or N, which is an ambiguous base)").

/// The four unambiguous bases in 2-bit code order.
pub const BASES: [u8; 4] = [b'A', b'C', b'G', b'T'];

/// Returns true if `b` is one of `A, C, G, T, N` (uppercase).
#[inline]
pub fn is_valid_base(b: u8) -> bool {
    matches!(b, b'A' | b'C' | b'G' | b'T' | b'N')
}

/// [`base_to_code`] as a table: `A,C,G,T` → `0..4`, every other byte → 4.
///
/// Bases of a read are random, so a `match` on them mispredicts about
/// once per base; a load does not.
const BASE_CODE: [u8; 256] = {
    let mut t = [4u8; 256];
    t[b'A' as usize] = 0;
    t[b'C' as usize] = 1;
    t[b'G' as usize] = 2;
    t[b'T' as usize] = 3;
    t
};

/// [`complement`] as a table; every byte but `A,C,G,T` maps to `N`.
const COMPLEMENT: [u8; 256] = {
    let mut t = [b'N'; 256];
    t[b'A' as usize] = b'T';
    t[b'C' as usize] = b'G';
    t[b'G' as usize] = b'C';
    t[b'T' as usize] = b'A';
    t
};

/// Returns the Watson-Crick complement, preserving `N`.
///
/// # Panics
///
/// Panics in debug builds if `b` is not a valid base.
#[inline]
pub fn complement(b: u8) -> u8 {
    debug_assert!(is_valid_base(b), "invalid base {b}");
    COMPLEMENT[b as usize]
}

/// Returns the reverse complement of a sequence.
///
/// # Examples
///
/// ```
/// assert_eq!(persona_seq::dna::revcomp(b"ACCGT"), b"ACGGT");
/// ```
pub fn revcomp(seq: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(seq.len());
    revcomp_into(seq, &mut out);
    out
}

/// Writes the reverse complement of `seq` into `out` (cleared first), so
/// a caller can keep one buffer across reads.
pub fn revcomp_into(seq: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.extend(seq.iter().rev().map(|&b| complement(b)));
}

/// Reverse-complements a sequence in place.
pub fn revcomp_in_place(seq: &mut [u8]) {
    seq.reverse();
    for b in seq.iter_mut() {
        *b = complement(*b);
    }
}

/// Maps `A,C,G,T` to `0..4`; `N` and anything else map to 4.
#[inline]
pub fn base_to_code(b: u8) -> u8 {
    BASE_CODE[b as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complement_is_involution() {
        for &b in &[b'A', b'C', b'G', b'T', b'N'] {
            assert_eq!(complement(complement(b)), b);
        }
    }

    #[test]
    fn revcomp_known() {
        assert_eq!(revcomp(b""), b"");
        assert_eq!(revcomp(b"A"), b"T");
        assert_eq!(revcomp(b"ACGT"), b"ACGT"); // Palindromic.
        assert_eq!(revcomp(b"AACGTN"), b"NACGTT");
    }

    #[test]
    fn revcomp_in_place_matches() {
        let mut s = b"GATTACA".to_vec();
        revcomp_in_place(&mut s);
        assert_eq!(s, revcomp(b"GATTACA"));
    }

    /// The tables reproduce the `match`es they replaced on every byte.
    #[test]
    fn tables_match_the_old_matches() {
        for b in 0..=255u8 {
            let code = match b {
                b'A' => 0,
                b'C' => 1,
                b'G' => 2,
                b'T' => 3,
                _ => 4,
            };
            assert_eq!(base_to_code(b), code, "byte {b}");
            let comp = match b {
                b'A' => b'T',
                b'C' => b'G',
                b'G' => b'C',
                b'T' => b'A',
                _ => b'N',
            };
            assert_eq!(COMPLEMENT[b as usize], comp, "byte {b}");
        }
    }

    #[test]
    fn revcomp_into_reuses_buffer() {
        let mut out = b"leftover bytes".to_vec();
        revcomp_into(b"AACGTN", &mut out);
        assert_eq!(out, b"NACGTT");
    }

    #[test]
    fn validity() {
        for b in [b'A', b'C', b'G', b'T', b'N'] {
            assert!(is_valid_base(b));
        }
        for b in [b'a', b'X', b'@', 0u8] {
            assert!(!is_valid_base(b));
        }
    }
}
