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

/// Maps codes `0..4` back to `A,C,G,T`; 4 maps to `N`.
#[inline]
pub fn code_to_base(c: u8) -> u8 {
    match c {
        0 => b'A',
        1 => b'C',
        2 => b'G',
        3 => b'T',
        _ => b'N',
    }
}

/// Packs up to 32 bases (no `N`) into a `u64`, 2 bits per base, first
/// base in the low bits.
///
/// # Panics
///
/// Panics if `seq.len() > 32` or if the sequence contains `N`.
pub fn pack_2bit(seq: &[u8]) -> u64 {
    assert!(seq.len() <= 32, "at most 32 bases per u64");
    let mut v = 0u64;
    for (i, &b) in seq.iter().enumerate() {
        let code = base_to_code(b);
        assert!(code < 4, "cannot 2-bit pack ambiguous base N");
        v |= (code as u64) << (2 * i);
    }
    v
}

/// Fraction of G/C bases in a sequence (0.0 for an empty sequence).
pub fn gc_content(seq: &[u8]) -> f64 {
    if seq.is_empty() {
        return 0.0;
    }
    let gc = seq.iter().filter(|&&b| b == b'G' || b == b'C').count();
    gc as f64 / seq.len() as f64
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
    fn code_roundtrip() {
        for &b in &BASES {
            assert_eq!(code_to_base(base_to_code(b)), b);
        }
        assert_eq!(code_to_base(base_to_code(b'N')), b'N');
    }

    #[test]
    fn pack_2bit_layout() {
        assert_eq!(pack_2bit(b""), 0);
        assert_eq!(pack_2bit(b"A"), 0);
        assert_eq!(pack_2bit(b"C"), 1);
        assert_eq!(pack_2bit(b"CA"), 1);
        assert_eq!(pack_2bit(b"AC"), 0b0100);
        assert_eq!(pack_2bit(b"ACGT"), 0b11_10_01_00);
    }

    #[test]
    #[should_panic(expected = "ambiguous")]
    fn pack_2bit_rejects_n() {
        pack_2bit(b"ACGN");
    }

    #[test]
    fn gc() {
        assert_eq!(gc_content(b""), 0.0);
        assert_eq!(gc_content(b"GGCC"), 1.0);
        assert_eq!(gc_content(b"AATT"), 0.0);
        assert!((gc_content(b"ACGT") - 0.5).abs() < 1e-12);
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
