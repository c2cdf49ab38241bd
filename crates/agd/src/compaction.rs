//! Base compaction: 3 bits per base, 21 bases per 64-bit word.
//!
//! The paper (§3): "An additional optimization of base compaction is
//! applied to the base reads column, which stores base characters using
//! 3 bits each, with 21 bases in a 64-bit word."
//!
//! Each record's bases are packed independently into whole words so that
//! records remain independently addressable; the record's base count
//! comes from the chunk's relative index.

use crate::{Error, Result};

/// Bases per 64-bit word (21 × 3 bits = 63 bits used).
pub const BASES_PER_WORD: usize = 21;

/// Marks a byte that is not a base in [`BASE_CODE`].
const NOT_A_BASE: u8 = 0x80;

/// 3-bit code for each base character, [`NOT_A_BASE`] for anything else.
const BASE_CODE: [u8; 256] = {
    let mut table = [NOT_A_BASE; 256];
    table[b'A' as usize] = 0;
    table[b'C' as usize] = 1;
    table[b'G' as usize] = 2;
    table[b'T' as usize] = 3;
    table[b'N' as usize] = 4;
    table
};

/// Packs up to [`BASES_PER_WORD`] bases into a word. The second value
/// has [`NOT_A_BASE`] set if any byte was not a base.
#[inline(always)]
fn pack_word(group: &[u8]) -> (u64, u8) {
    let (mut word, mut seen) = (0u64, 0u8);
    for (i, &b) in group.iter().enumerate() {
        let code = BASE_CODE[b as usize];
        seen |= code;
        word |= ((code & 7) as u64) << (3 * i);
    }
    (word, seen)
}

/// Inverse of [`BASE_CODE`] for the valid codes `0..=4`.
const CODE_BASE: [u8; 8] = *b"ACGTN???";

/// Bit 0 of each of a word's [`BASES_PER_WORD`] 3-bit codes.
const CODE_LOW_BITS: u64 = 0o111_111_111_111_111_111_111;

/// Number of bytes the packed form of `n_bases` occupies.
#[inline]
pub fn packed_size(n_bases: usize) -> usize {
    n_bases.div_ceil(BASES_PER_WORD) * 8
}

/// Packs one record of bases, appending little-endian words to `out`.
///
/// Returns an error on characters outside `A,C,G,T,N`, naming the first
/// one, and leaves `out` as it was.
pub fn pack_record(bases: &[u8], out: &mut Vec<u8>) -> Result<()> {
    let start = out.len();
    out.reserve(packed_size(bases.len()));
    // Checked once for the whole record: the words of a bad record are
    // never used, so there is nothing to stop early for.
    let mut seen = 0u8;
    let mut groups = bases.chunks_exact(BASES_PER_WORD);
    for group in &mut groups {
        // A fixed-size group lets the 21 steps be unrolled.
        let group: &[u8; BASES_PER_WORD] = group.try_into().expect("chunks_exact");
        let (word, s) = pack_word(group);
        seen |= s;
        out.extend_from_slice(&word.to_le_bytes());
    }
    if !groups.remainder().is_empty() {
        let (word, s) = pack_word(groups.remainder());
        seen |= s;
        out.extend_from_slice(&word.to_le_bytes());
    }
    if seen & NOT_A_BASE != 0 {
        out.truncate(start);
        let bad = bases.iter().find(|&&b| BASE_CODE[b as usize] == NOT_A_BASE);
        let b = bad.expect("a byte set the marker");
        return Err(Error::Format(format!("cannot compact byte {b:#04x}")));
    }
    Ok(())
}

/// Unpacks one record of `n_bases` bases from `packed`, appending the
/// ASCII characters to `out`.
///
/// `packed` must be exactly [`packed_size`]`(n_bases)` bytes. Returns
/// an error naming the first code above 4 among the record's bases, and
/// leaves `out` as it was.
pub fn unpack_record(packed: &[u8], n_bases: usize, out: &mut Vec<u8>) -> Result<()> {
    if packed.len() != packed_size(n_bases) {
        return Err(Error::Format(format!(
            "packed record size {} does not match {} bases",
            packed.len(),
            n_bases
        )));
    }
    let start = out.len();
    out.reserve(n_bases);
    let mut remaining = n_bases;
    for wbytes in packed.chunks_exact(8) {
        let word = u64::from_le_bytes(wbytes.try_into().expect("chunks_exact(8)"));
        let take = remaining.min(BASES_PER_WORD);
        if let Err(e) = check_word(word, take) {
            out.truncate(start);
            return Err(e);
        }
        let mut bases = [0u8; BASES_PER_WORD];
        for (i, b) in bases.iter_mut().enumerate() {
            *b = CODE_BASE[(word >> (3 * i)) as usize & 7];
        }
        out.extend_from_slice(&bases[..take]);
        remaining -= take;
    }
    debug_assert_eq!(remaining, 0);
    Ok(())
}

/// Checks the first `take` codes of a packed word: a code above 4 has
/// bit 2 and one of bits 0, 1 set. Only the record's own codes count,
/// not the word's unused tail.
#[inline(always)]
fn check_word(word: u64, take: usize) -> Result<()> {
    let bad = (word >> 2) & (word | word >> 1) & CODE_LOW_BITS & ((1u64 << (3 * take)) - 1);
    if bad != 0 {
        let code = (word >> (bad.trailing_zeros() / 3 * 3)) & 7;
        return Err(Error::Format(format!("invalid 3-bit base code {code}")));
    }
    Ok(())
}

/// Brings a packed record of `n_bases` bases, in place, to the form
/// [`pack_record`] writes: checks every base code as [`unpack_record`]
/// does (with the same errors) and zeroes the bits no base uses — the
/// top bit of every word and the tail of the last. A canonical record
/// can be copied between chunks as stored bytes.
pub fn canonicalize_record(packed: &mut [u8], n_bases: usize) -> Result<()> {
    if packed.len() != packed_size(n_bases) {
        return Err(Error::Format(format!(
            "packed record size {} does not match {} bases",
            packed.len(),
            n_bases
        )));
    }
    let mut remaining = n_bases;
    for wbytes in packed.chunks_exact_mut(8) {
        let word = u64::from_le_bytes((&*wbytes).try_into().expect("chunks_exact_mut(8)"));
        let take = remaining.min(BASES_PER_WORD);
        check_word(word, take)?;
        wbytes.copy_from_slice(&(word & ((1u64 << (3 * take)) - 1)).to_le_bytes());
        remaining -= take;
    }
    Ok(())
}

/// Convenience: packs a record into a fresh vector.
pub fn pack(bases: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(packed_size(bases.len()));
    pack_record(bases, &mut out)?;
    Ok(out)
}

/// Convenience: unpacks a record into a fresh vector.
pub fn unpack(packed: &[u8], n_bases: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(n_bases);
    unpack_record(packed, n_bases, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-base `match` packer this module shipped before the
    /// table-driven one, kept as the oracle for its output and errors.
    fn pack_record_reference(bases: &[u8], out: &mut Vec<u8>) -> Result<()> {
        for group in bases.chunks(BASES_PER_WORD) {
            let mut word = 0u64;
            for (i, &b) in group.iter().enumerate() {
                let code = match b {
                    b'A' => 0,
                    b'C' => 1,
                    b'G' => 2,
                    b'T' => 3,
                    b'N' => 4,
                    _ => return Err(Error::Format(format!("cannot compact byte {b:#04x}"))),
                };
                word |= code << (3 * i);
            }
            out.extend_from_slice(&word.to_le_bytes());
        }
        Ok(())
    }

    /// The per-base `match` unpacker this module shipped before the
    /// table-driven one, kept as the oracle for its output and errors
    /// (it leaves the bases before a bad code in `out`).
    fn unpack_record_reference(packed: &[u8], n_bases: usize, out: &mut Vec<u8>) -> Result<()> {
        let mut remaining = n_bases;
        for wbytes in packed.chunks_exact(8) {
            let word = u64::from_le_bytes(wbytes.try_into().unwrap());
            let take = remaining.min(BASES_PER_WORD);
            for i in 0..take {
                out.push(match (word >> (3 * i)) & 0x7 {
                    0 => b'A',
                    1 => b'C',
                    2 => b'G',
                    3 => b'T',
                    4 => b'N',
                    code => return Err(Error::Format(format!("invalid 3-bit base code {code}"))),
                });
            }
            remaining -= take;
        }
        Ok(())
    }

    fn base_vec(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N')],
            0..max_len,
        )
    }

    proptest! {
        #[test]
        fn packs_bytes_identical_to_the_reference(bases in base_vec(300)) {
            let (mut got, mut want) = (vec![0xEE], vec![0xEE]);
            pack_record(&bases, &mut got).unwrap();
            pack_record_reference(&bases, &mut want).unwrap();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn rejects_like_the_reference(
            bases in base_vec(300),
            spoil in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        ) {
            let mut bases = bases;
            bases.push(b'A');
            for (at, byte) in spoil {
                let at = at % bases.len();
                bases[at] = byte;
            }
            let mut got = vec![0xEE];
            let want = pack_record_reference(&bases, &mut Vec::new());
            match (pack_record(&bases, &mut got), want) {
                (Ok(()), Ok(())) => {}
                (Err(got_err), Err(want_err)) => {
                    // Same first bad byte, and nothing left behind.
                    prop_assert_eq!(got_err.to_string(), want_err.to_string());
                    prop_assert_eq!(got, vec![0xEE]);
                }
                (got, want) => prop_assert!(false, "{:?} vs {:?}", got, want),
            }
        }
    }

    proptest! {
        #[test]
        fn unpacks_bytes_identical_to_the_reference(bases in base_vec(301)) {
            let packed = pack(&bases).unwrap();
            let (mut got, mut want) = (vec![0xEE], vec![0xEE]);
            unpack_record(&packed, bases.len(), &mut got).unwrap();
            unpack_record_reference(&packed, bases.len(), &mut want).unwrap();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(&got[1..], &bases[..]);
        }

        /// Codes 5–7 written at any of a word's 21 slots (or its unused
        /// top bit): the same error as the reference when the slot holds
        /// one of the record's bases, the same bases when it is past the
        /// record's end, and `out` untouched on error.
        #[test]
        fn rejects_bad_codes_like_the_reference(
            bases in base_vec(301),
            spoil in proptest::collection::vec((any::<usize>(), 0usize..22, 5u64..8), 1..4),
        ) {
            let mut packed = pack(&bases).unwrap();
            for (word, slot, code) in spoil {
                if packed.is_empty() {
                    break;
                }
                let at = word % (packed.len() / 8) * 8;
                let mut w = u64::from_le_bytes(packed[at..at + 8].try_into().unwrap());
                w = (w & !(7 << (3 * slot))) | code << (3 * slot);
                packed[at..at + 8].copy_from_slice(&w.to_le_bytes());
            }
            let mut got = vec![0xEE];
            let mut want = vec![0xEE];
            match (
                unpack_record(&packed, bases.len(), &mut got),
                unpack_record_reference(&packed, bases.len(), &mut want),
            ) {
                (Ok(()), Ok(())) => prop_assert_eq!(got, want),
                (Err(got_err), Err(want_err)) => {
                    prop_assert_eq!(got_err.to_string(), want_err.to_string());
                    prop_assert_eq!(got, vec![0xEE]);
                }
                (got, want) => prop_assert!(false, "{:?} vs {:?}", got, want),
            }
        }
    }

    proptest! {
        /// Garbage in the bits no base uses is cleared to what packing
        /// writes; a bad code anywhere in the record fails as unpacking
        /// fails.
        #[test]
        fn canonicalizes_to_the_packed_form(
            bases in base_vec(301),
            spoil in proptest::collection::vec((any::<usize>(), 0usize..22, 0u64..8), 0..4),
        ) {
            let clean = pack(&bases).unwrap();
            let mut packed = clean.clone();
            for (word, slot, code) in spoil {
                if packed.is_empty() {
                    break;
                }
                let at = word % (packed.len() / 8) * 8;
                let mut w = u64::from_le_bytes(packed[at..at + 8].try_into().unwrap());
                w = (w & !(7 << (3 * slot))) | code << (3 * slot);
                packed[at..at + 8].copy_from_slice(&w.to_le_bytes());
            }
            let unpacked = unpack(&packed, bases.len());
            let mut got = packed.clone();
            match (canonicalize_record(&mut got, bases.len()), unpacked) {
                (Ok(()), Ok(unpacked)) => prop_assert_eq!(pack(&unpacked).unwrap(), got),
                (Err(got_err), Err(want_err)) => {
                    prop_assert_eq!(got_err.to_string(), want_err.to_string())
                }
                (got, want) => prop_assert!(false, "{:?} vs {:?}", got, want),
            }
        }
    }

    #[test]
    fn canonicalize_zeroes_every_unused_bit() {
        for len in [1usize, 20, 21, 22, 42, 101] {
            let bases: Vec<u8> = (0..len).map(|i| b"ACGTN"[i % 5]).collect();
            let clean = pack(&bases).unwrap();
            let mut dirty = clean.clone();
            let mut remaining = len;
            for w in dirty.chunks_exact_mut(8) {
                let take = remaining.min(BASES_PER_WORD);
                let word = u64::from_le_bytes((&*w).try_into().unwrap()) | !0u64 << (3 * take);
                w.copy_from_slice(&word.to_le_bytes());
                remaining -= take;
            }
            assert_ne!(dirty, clean);
            canonicalize_record(&mut dirty, len).unwrap();
            assert_eq!(dirty, clean, "{len} bases");
        }
        assert!(canonicalize_record(&mut [0u8; 8], 22).is_err());
    }

    #[test]
    fn sizes() {
        assert_eq!(packed_size(0), 0);
        assert_eq!(packed_size(1), 8);
        assert_eq!(packed_size(21), 8);
        assert_eq!(packed_size(22), 16);
        assert_eq!(packed_size(42), 16);
        assert_eq!(packed_size(101), 40); // The paper's read length: 5 words.
    }

    #[test]
    fn roundtrip_all_lengths() {
        let alphabet = b"ACGTN";
        for len in 0..64 {
            let bases: Vec<u8> = (0..len).map(|i| alphabet[i % 5]).collect();
            let packed = pack(&bases).unwrap();
            assert_eq!(packed.len(), packed_size(len));
            assert_eq!(unpack(&packed, len).unwrap(), bases);
        }
    }

    #[test]
    fn compaction_ratio_at_paper_read_length() {
        // 101 ASCII bases = 101 bytes raw; compacted = 40 bytes.
        let bases = vec![b'A'; 101];
        let packed = pack(&bases).unwrap();
        assert_eq!(packed.len(), 40);
        assert!((packed.len() as f64) < 0.4 * bases.len() as f64);
    }

    #[test]
    fn rejects_invalid_characters() {
        assert!(pack(b"ACGU").is_err());
        assert!(pack(b"acgt").is_err());
        assert!(pack(&[0u8]).is_err());
    }

    #[test]
    fn rejects_wrong_packed_size() {
        let packed = pack(b"ACGT").unwrap();
        let mut out = Vec::new();
        assert!(unpack_record(&packed, 30, &mut out).is_err());
        assert!(unpack_record(&packed[..7], 4, &mut out).is_err());
    }

    #[test]
    fn rejects_invalid_code_in_word() {
        // Craft a word containing code 7.
        let word = 7u64.to_le_bytes();
        assert!(unpack(&word, 1).is_err());
    }

    #[test]
    fn multi_record_packing_is_independent() {
        let mut buf = Vec::new();
        pack_record(b"ACGT", &mut buf).unwrap();
        let first_len = buf.len();
        pack_record(b"TTTTTTTTTTTTTTTTTTTTTTTT", &mut buf).unwrap();
        let a = unpack(&buf[..first_len], 4).unwrap();
        let b = unpack(&buf[first_len..], 24).unwrap();
        assert_eq!(a, b"ACGT");
        assert_eq!(b, b"TTTTTTTTTTTTTTTTTTTTTTTT");
    }
}
