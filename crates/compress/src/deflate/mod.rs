//! RFC 1951 DEFLATE, implemented from scratch.
//!
//! The inflater handles all three block types (stored, fixed Huffman,
//! dynamic Huffman) with table-driven decoding. The compressor finds
//! LZ77 matches in two-entry hash buckets and picks the cheapest of
//! stored / fixed / dynamic encoding per block, like zlib does.

pub mod compress;
pub mod huffman;
pub mod inflate;
pub mod lz77;

pub use compress::{deflate, deflate_level, CompressLevel};
pub use inflate::{inflate, inflate_from, inflate_with_capacity};

/// Number of literal/length symbols (0-255 literals, 256 EOB, 257-285 lengths).
pub const NUM_LITLEN: usize = 286;
/// Number of distance symbols.
pub const NUM_DIST: usize = 30;
/// Maximum Huffman code length for litlen/dist alphabets.
pub const MAX_CODE_LEN: usize = 15;
/// Maximum Huffman code length for the code-length alphabet.
pub const MAX_CLEN_LEN: usize = 7;
/// Maximum LZ77 match length.
pub const MAX_MATCH: usize = 258;
/// Minimum LZ77 match length.
pub const MIN_MATCH: usize = 3;
/// LZ77 window size.
pub const WINDOW_SIZE: usize = 32 * 1024;

/// Base match length for each length code 257..=285.
pub const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];

/// Extra bits for each length code 257..=285.
pub const LENGTH_EXTRA: [u8; 29] =
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0];

/// Base distance for each distance code 0..=29.
pub const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];

/// Extra bits for each distance code 0..=29.
pub const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Transmission order of code lengths for the code-length alphabet.
pub const CLEN_ORDER: [usize; 19] =
    [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

/// Length code index (0..=28) for each match length minus [`MIN_MATCH`].
pub const LENGTH_CODE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut code = 0;
    while code < 29 {
        let mut len = LENGTH_BASE[code] as usize;
        // Code 27 nominally reaches 258, which has its own code.
        while len < LENGTH_BASE[code] as usize + (1 << LENGTH_EXTRA[code]) && len <= MAX_MATCH {
            table[len - MIN_MATCH] = code as u8;
            len += 1;
        }
        code += 1;
    }
    table
};

/// Maps a match length (3..=258) to its length code index (0..=28).
#[inline]
pub fn length_code(len: usize) -> usize {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    LENGTH_CODE[len - MIN_MATCH] as usize
}

/// Maps a distance (1..=32768) to its distance code index (0..=29).
///
/// From code 2 on, a code is the position of `dist - 1`'s top bit,
/// doubled, plus the bit below it.
#[inline]
pub fn dist_code(dist: usize) -> usize {
    debug_assert!((1..=WINDOW_SIZE).contains(&dist));
    let d = (dist - 1) as u32;
    if d < 2 {
        return d as usize;
    }
    let top = 31 - d.leading_zeros();
    (2 * top + ((d >> (top - 1)) & 1)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_code_bounds() {
        assert_eq!(length_code(3), 0);
        assert_eq!(length_code(4), 1);
        assert_eq!(length_code(10), 7);
        assert_eq!(length_code(11), 8);
        assert_eq!(length_code(12), 8);
        assert_eq!(length_code(257), 27);
        assert_eq!(length_code(258), 28);
    }

    #[test]
    fn dist_code_bounds() {
        assert_eq!(dist_code(1), 0);
        assert_eq!(dist_code(4), 3);
        assert_eq!(dist_code(5), 4);
        assert_eq!(dist_code(6), 4);
        assert_eq!(dist_code(24577), 29);
        assert_eq!(dist_code(32768), 29);
    }

    #[test]
    fn every_length_maps_within_base_range() {
        for len in MIN_MATCH..=MAX_MATCH {
            let c = length_code(len);
            let lo = LENGTH_BASE[c] as usize;
            let hi = lo + ((1usize << LENGTH_EXTRA[c]) - 1);
            assert!(len >= lo && len <= hi.min(MAX_MATCH), "len {len} code {c}");
        }
    }

    #[test]
    fn every_dist_maps_within_base_range() {
        for dist in 1..=WINDOW_SIZE {
            let c = dist_code(dist);
            let lo = DIST_BASE[c] as usize;
            let hi = lo + ((1usize << DIST_EXTRA[c]) - 1);
            assert!(dist >= lo && dist <= hi, "dist {dist} code {c}");
        }
    }
}
