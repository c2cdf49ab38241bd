//! Base compaction: five bases per 12-bit group, two groups per three
//! bytes.
//!
//! The paper (§3) packs the base reads column "using 3 bits each, with
//! 21 bases in a 64-bit word", and then compresses the column like any
//! other. Five letters (`A`, `C`, `G`, `T`, `N`) need only log2(5) ≈ 2.32
//! bits, and the slack the 3-bit fields leave is nearly all that DEFLATE
//! then finds (about 1.23× on simulated reads), at the price of deflating
//! on every write and inflating on every read. Here the bases are
//! instead written as base-5 digits, five to a 12-bit group
//! (5⁵ = 3,125 ≤ 4,096): a 101-base read takes 32 bytes, less than
//! DEFLATE made of its 3-bit words, so the column is stored with no
//! codec at all.
//!
//! Layout of one record:
//!
//! - `A`, `C`, `G`, `T`, `N` are the digits 0–4;
//! - group `k` holds bases `5k..5k+5`, the first base in the least
//!   significant digit; a last group of `r < 5` bases is below `5^r`;
//! - two groups fill three bytes, the first group in the low 12 bits of
//!   the little-endian 24-bit value;
//! - after an odd number of groups, the last one takes two bytes and
//!   the top 4 bits of the second byte (the padding nibble) are zero.
//!
//! So a record of `n` bases takes [`packed_size`]`(n)` =
//! `(3·⌈n/5⌉ + 1) / 2` bytes. Each record is packed on its own, so
//! records stay independently addressable; the record's base count comes
//! from the chunk's relative index.

use crate::{Error, Result};

/// Bases per 12-bit group (5⁵ = 3,125 ≤ 2¹²).
pub const BASES_PER_GROUP: usize = 5;

/// Number of valid group values, 5⁵.
const GROUP_VALUES: u32 = 3_125;

/// `5^r`: the bound on a group of `r` bases.
const POW5: [u32; BASES_PER_GROUP + 1] = [1, 5, 25, 125, 625, 3_125];

/// Marks a byte that is not a base in [`BASE_DIGIT`].
const NOT_A_BASE: u8 = 0x80;

/// Base-5 digit of each base character, [`NOT_A_BASE`] for anything
/// else.
const BASE_DIGIT: [u8; 256] = {
    let mut table = [NOT_A_BASE; 256];
    table[b'A' as usize] = 0;
    table[b'C' as usize] = 1;
    table[b'G' as usize] = 2;
    table[b'T' as usize] = 3;
    table[b'N' as usize] = 4;
    table
};

/// Each digit as itself, [`NOT_A_BASE`] for anything else: the table
/// that packs records of digits.
const DIGIT_DIGIT: [u8; 256] = {
    let mut table = [NOT_A_BASE; 256];
    let mut d = 0;
    while d < 5 {
        table[d] = d as u8;
        d += 1;
    }
    table
};

/// The five symbols of every valid group value, each digit spelled by
/// `alphabet`, in entries of `W` bytes.
const fn group_table<const W: usize>(alphabet: [u8; 5]) -> [[u8; W]; GROUP_VALUES as usize] {
    let mut table = [[0u8; W]; GROUP_VALUES as usize];
    let mut value = 0;
    while value < GROUP_VALUES as usize {
        let (mut rest, mut i) = (value, 0);
        while i < BASES_PER_GROUP {
            table[value][i] = alphabet[rest % 5];
            rest /= 5;
            i += 1;
        }
        value += 1;
    }
    table
}

/// The five bases of every valid group value.
static GROUP_BASES: [[u8; BASES_PER_GROUP]; GROUP_VALUES as usize] = group_table(*b"ACGTN");

/// The five digits of every valid group value, padded to eight bytes so
/// that a group is copied with one 8-byte store.
static GROUP_DIGITS: [[u8; 8]; GROUP_VALUES as usize] = group_table([0, 1, 2, 3, 4]);

/// Packs up to [`BASES_PER_GROUP`] symbols into a group value, each
/// symbol's digit read from `digit_of`. The second value has
/// [`NOT_A_BASE`] set if any byte was not a symbol.
#[inline(always)]
fn pack_group(digit_of: &[u8; 256], group: &[u8]) -> (u32, u8) {
    let (mut value, mut seen) = (0u32, 0u8);
    for &b in group.iter().rev() {
        let digit = digit_of[b as usize];
        seen |= digit;
        value = value * 5 + u32::from(digit & 7);
    }
    (value, seen)
}

/// Number of bytes the packed form of `n_bases` occupies.
#[inline]
pub fn packed_size(n_bases: usize) -> usize {
    (3 * n_bases.div_ceil(BASES_PER_GROUP)).div_ceil(2)
}

/// Packs one record of bases, appending its groups to `out`.
///
/// Returns an error on characters outside `A,C,G,T,N`, naming the first
/// one, and leaves `out` as it was.
pub fn pack_record(bases: &[u8], out: &mut Vec<u8>) -> Result<()> {
    let start = out.len();
    if pack_with(&BASE_DIGIT, bases, out) & NOT_A_BASE != 0 {
        out.truncate(start);
        let bad = bases.iter().find(|&&b| BASE_DIGIT[b as usize] == NOT_A_BASE);
        let b = bad.expect("a byte set the marker");
        return Err(Error::Format(format!("cannot compact byte {b:#04x}")));
    }
    Ok(())
}

/// Packs one record of base digits (0–4, as [`unpack_digits`] writes
/// them), appending its groups to `out`: the groups [`pack_record`]
/// writes for the same bases.
///
/// # Panics
///
/// Panics if a byte is not a digit.
pub(crate) fn pack_digits(digits: &[u8], out: &mut Vec<u8>) {
    assert_eq!(pack_with(&DIGIT_DIGIT, digits, out) & NOT_A_BASE, 0, "base digits are 0-4");
}

/// Appends the groups of `symbols`, each symbol's digit read from
/// `digit_of`, and returns [`pack_group`]'s marker for the record.
#[inline(always)]
fn pack_with(digit_of: &[u8; 256], symbols: &[u8], out: &mut Vec<u8>) -> u8 {
    out.reserve(packed_size(symbols.len()));
    // Checked once for the whole record: the groups of a bad record are
    // never used, so there is nothing to stop early for.
    let mut seen = 0u8;
    let mut pairs = symbols.chunks_exact(2 * BASES_PER_GROUP);
    for pair in &mut pairs {
        // A fixed-size pair lets the ten steps be unrolled.
        seen |= pack_pair(digit_of, pair, out);
    }
    if !pairs.remainder().is_empty() {
        seen |= pack_pair(digit_of, pairs.remainder(), out);
    }
    seen
}

/// Appends up to two groups of symbols: three bytes, or two for five
/// symbols or fewer. Returns [`pack_group`]'s marker.
#[inline(always)]
fn pack_pair(digit_of: &[u8; 256], bases: &[u8], out: &mut Vec<u8>) -> u8 {
    let split = bases.len().min(BASES_PER_GROUP);
    let (lo, s0) = pack_group(digit_of, &bases[..split]);
    let (hi, s1) = pack_group(digit_of, &bases[split..]);
    let bytes = (lo | hi << 12).to_le_bytes();
    out.extend_from_slice(&bytes[..if bases.len() > BASES_PER_GROUP { 3 } else { 2 }]);
    s0 | s1
}

/// Unpacks one record of `n_bases` bases from `packed`, appending the
/// ASCII characters to `out`.
///
/// `packed` must be exactly [`packed_size`]`(n_bases)` bytes. Returns
/// an error naming the first group out of range for its bases (see
/// [`canonicalize_record`]), and leaves `out` as it was.
pub fn unpack_record(packed: &[u8], n_bases: usize, out: &mut Vec<u8>) -> Result<()> {
    check_size(packed, n_bases)?;
    let start = out.len();
    out.reserve(n_bases.next_multiple_of(BASES_PER_GROUP));
    match for_each_group(&GROUP_BASES, packed, n_bases, |bases| out.extend_from_slice(bases)) {
        Ok(()) => {
            // The last group wrote its five bases whatever it holds.
            out.truncate(start + n_bases);
            Ok(())
        }
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// [`unpack_record`], appending each base as its digit 0–4 (`A`, `C`,
/// `G`, `T`, `N`) instead of its character.
pub(crate) fn unpack_digits(packed: &[u8], n_bases: usize, out: &mut Vec<u8>) -> Result<()> {
    check_size(packed, n_bases)?;
    let start = out.len();
    // Each group stores eight bytes, the last three of which the next
    // group overwrites.
    out.resize(start + n_bases.next_multiple_of(BASES_PER_GROUP) + 3, 0);
    let mut at = start;
    let checked = for_each_group(&GROUP_DIGITS, packed, n_bases, |digits| {
        out[at..at + 8].copy_from_slice(digits);
        at += BASES_PER_GROUP;
    });
    out.truncate(if checked.is_ok() { start + n_bases } else { start });
    checked
}

/// Brings a packed record of `n_bases` bases, in place, to the form
/// [`pack_record`] writes: checks every group as [`unpack_record`] does
/// (with the same errors) and zeroes the padding nibble, the only bits
/// no base uses. A group is valid below 3,125, and a last group of
/// `r < 5` bases below `5^r`, so every other bit pattern is either a
/// base or an error. A canonical record can be copied between chunks as
/// stored bytes.
pub fn canonicalize_record(packed: &mut [u8], n_bases: usize) -> Result<()> {
    check_size(packed, n_bases)?;
    for_each_group(&GROUP_BASES, packed, n_bases, |_| {})?;
    if n_bases.div_ceil(BASES_PER_GROUP) % 2 == 1 {
        *packed.last_mut().expect("an odd group count takes two bytes") &= 0x0F;
    }
    Ok(())
}

fn check_size(packed: &[u8], n_bases: usize) -> Result<()> {
    if packed.len() != packed_size(n_bases) {
        return Err(Error::Format(format!(
            "packed record size {} does not match {} bases",
            packed.len(),
            n_bases
        )));
    }
    Ok(())
}

/// Passes the `table` entry of each group of a record of `n_bases`
/// bases to `emit`, in order (the last group's too), after checking each
/// group's range; on the first group out of range, returns its error.
/// `packed` is [`packed_size`]`(n_bases)` bytes.
#[inline(always)]
fn for_each_group<const W: usize>(
    table: &[[u8; W]; GROUP_VALUES as usize],
    packed: &[u8],
    n_bases: usize,
    mut emit: impl FnMut(&[u8; W]),
) -> Result<()> {
    let bases_of = |value: u32| table.get(value as usize).ok_or_else(|| bad_group(packed, n_bases));
    let mut pairs = packed.chunks_exact(3);
    for pair in &mut pairs {
        let word = u32::from(pair[0]) | u32::from(pair[1]) << 8 | u32::from(pair[2]) << 16;
        emit(bases_of(word & 0xFFF)?);
        emit(bases_of(word >> 12)?);
    }
    if let [lo, hi] = *pairs.remainder() {
        emit(bases_of(u32::from(lo) | u32::from(hi & 0x0F) << 8)?);
    }
    // A short last group was checked against 5⁵ above; its unused
    // digits must also be zero.
    let tail = n_bases % BASES_PER_GROUP;
    if tail != 0 && group_value(packed, n_bases / BASES_PER_GROUP) >= POW5[tail] {
        return Err(bad_group(packed, n_bases));
    }
    Ok(())
}

/// Value of group `k` of a packed record.
#[inline]
fn group_value(packed: &[u8], k: usize) -> u32 {
    let at = k / 2 * 3;
    if k.is_multiple_of(2) {
        u32::from(packed[at]) | u32::from(packed[at + 1] & 0x0F) << 8
    } else {
        u32::from(packed[at + 1] >> 4) | u32::from(packed[at + 2]) << 4
    }
}

/// The error for the first group of the record out of range for the
/// bases it holds.
#[cold]
fn bad_group(packed: &[u8], n_bases: usize) -> Error {
    for k in 0..n_bases.div_ceil(BASES_PER_GROUP) {
        let held = (n_bases - k * BASES_PER_GROUP).min(BASES_PER_GROUP);
        let value = group_value(packed, k);
        if value >= POW5[held] {
            return Error::Format(format!(
                "base group {k} holds {value}, out of range for {held} bases"
            ));
        }
    }
    unreachable!("a group is out of range")
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

    /// Base-5 digit of a base, one `match` per base: the oracle's
    /// alphabet.
    fn digit(b: u8) -> Result<u32> {
        match b {
            b'A' => Ok(0),
            b'C' => Ok(1),
            b'G' => Ok(2),
            b'T' => Ok(3),
            b'N' => Ok(4),
            _ => Err(Error::Format(format!("cannot compact byte {b:#04x}"))),
        }
    }

    /// The layout written one base at a time: each base's digit added
    /// at its power of five, each group's 12 bits at bit `12k` of the
    /// record's little-endian bit string.
    fn pack_record_reference(bases: &[u8], out: &mut Vec<u8>) -> Result<()> {
        let groups = bases.len().div_ceil(BASES_PER_GROUP);
        let mut bits = vec![0u8; packed_size(bases.len())];
        for k in 0..groups {
            let mut value = 0;
            for (i, &b) in bases[k * 5..].iter().take(5).enumerate() {
                value += digit(b)? * 5u32.pow(i as u32);
            }
            for bit in 0..12 {
                if value >> bit & 1 == 1 {
                    bits[(12 * k + bit) / 8] |= 1 << ((12 * k + bit) % 8);
                }
            }
        }
        out.extend_from_slice(&bits);
        Ok(())
    }

    /// The inverse of [`pack_record_reference`], one digit at a time;
    /// it leaves the bases before a bad group in `out` and ignores the
    /// padding nibble.
    fn unpack_record_reference(packed: &[u8], n_bases: usize, out: &mut Vec<u8>) -> Result<()> {
        for k in 0..n_bases.div_ceil(BASES_PER_GROUP) {
            let mut value = 0u32;
            for bit in 0..12 {
                value |= u32::from(packed[(12 * k + bit) / 8] >> ((12 * k + bit) % 8) & 1) << bit;
            }
            let held = (n_bases - 5 * k).min(5);
            if value >= 5u32.pow(held as u32) {
                return Err(Error::Format(format!(
                    "base group {k} holds {value}, out of range for {held} bases"
                )));
            }
            for _ in 0..held {
                out.push(b"ACGTN"[(value % 5) as usize]);
                value /= 5;
            }
        }
        Ok(())
    }

    fn base_vec(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(
            prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N')],
            0..max_len,
        )
    }

    /// Sets 12-bit group `k` of `packed` to `value` (the two bytes or
    /// nibbles it spans).
    fn set_group(packed: &mut [u8], k: usize, value: u32) {
        for bit in 0..12 {
            let (at, shift) = ((12 * k + bit) / 8, (12 * k + bit) % 8);
            packed[at] = packed[at] & !(1 << shift) | ((value >> bit & 1) as u8) << shift;
        }
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

        /// Any 12-bit value written at any group: the same error as the
        /// reference when the group is out of range for its bases, the
        /// same bases otherwise, and `out` untouched on error.
        #[test]
        fn rejects_bad_codes_like_the_reference(
            bases in base_vec(301),
            spoil in proptest::collection::vec((any::<usize>(), 0u32..4_096), 1..4),
        ) {
            let mut packed = pack(&bases).unwrap();
            let groups = bases.len().div_ceil(BASES_PER_GROUP);
            for (k, value) in spoil {
                if groups == 0 {
                    break;
                }
                set_group(&mut packed, k % groups, value);
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
        /// Garbage in the padding nibble is cleared to what packing
        /// writes; a bad group anywhere in the record fails as unpacking
        /// fails.
        #[test]
        fn canonicalizes_to_the_packed_form(
            bases in base_vec(301),
            spoil in proptest::collection::vec((any::<usize>(), 0u32..4_096), 0..3),
            nibble in 0u8..16,
        ) {
            let mut packed = pack(&bases).unwrap();
            let groups = bases.len().div_ceil(BASES_PER_GROUP);
            for (k, value) in spoil {
                if groups == 0 {
                    break;
                }
                set_group(&mut packed, k % groups, value);
            }
            if groups % 2 == 1 {
                *packed.last_mut().unwrap() |= nibble << 4;
            }
            let unpacked = unpack(&packed, bases.len());
            let mut got = packed.clone();
            match (canonicalize_record(&mut got, bases.len()), unpacked) {
                (Ok(()), Ok(unpacked)) => prop_assert_eq!(pack(&unpacked).unwrap(), got),
                (Err(got_err), Err(want_err)) => {
                    prop_assert_eq!(got_err.to_string(), want_err.to_string());
                    prop_assert_eq!(got, packed);
                }
                (got, want) => prop_assert!(false, "{:?} vs {:?}", got, want),
            }
        }
    }

    proptest! {
        /// Every length 0–64 (every `n mod 5`, both group parities) with
        /// `N` at one offset: pack, unpack and canonicalize agree with
        /// the oracle.
        #[test]
        fn every_short_length_with_n_anywhere(len in 0usize..65, n_at in any::<usize>(), seed in any::<u64>()) {
            let mut bases: Vec<u8> =
                (0..len).map(|i| b"ACGT"[(seed >> (2 * (i % 32)) & 3) as usize]).collect();
            if len > 0 {
                bases[n_at % len] = b'N';
            }
            let packed = pack(&bases).unwrap();
            let mut want = Vec::new();
            pack_record_reference(&bases, &mut want).unwrap();
            prop_assert_eq!(&packed, &want);
            prop_assert_eq!(packed.len(), packed_size(len));
            let mut plain = Vec::new();
            unpack_record_reference(&packed, len, &mut plain).unwrap();
            prop_assert_eq!(&unpack(&packed, len).unwrap(), &plain);
            prop_assert_eq!(&plain, &bases);
            let mut canonical = packed.clone();
            canonicalize_record(&mut canonical, len).unwrap();
            prop_assert_eq!(canonical, packed);
        }
    }

    #[test]
    fn n_at_every_offset() {
        for len in [1usize, 4, 5, 6, 10, 11, 101] {
            for at in 0..len {
                let mut bases = vec![b'T'; len];
                bases[at] = b'N';
                let packed = pack(&bases).unwrap();
                assert_eq!(unpack(&packed, len).unwrap(), bases, "{len} bases, N at {at}");
            }
        }
    }

    #[test]
    fn canonicalize_zeroes_every_unused_bit() {
        for len in [1usize, 5, 6, 10, 11, 15, 16, 101] {
            let bases: Vec<u8> = (0..len).map(|i| b"ACGTN"[i % 5]).collect();
            let clean = pack(&bases).unwrap();
            let mut dirty = clean.clone();
            let odd = len.div_ceil(5) % 2 == 1;
            if odd {
                *dirty.last_mut().unwrap() |= 0xF0;
                assert_ne!(dirty, clean);
            }
            canonicalize_record(&mut dirty, len).unwrap();
            assert_eq!(dirty, clean, "{len} bases");
        }
        assert!(canonicalize_record(&mut [0u8; 2], 6).is_err());
    }

    #[test]
    fn group_bounds_are_typed_errors() {
        // A full group at 3,125, and a one-base tail group at 5.
        let mut full = pack(b"ACGTN").unwrap();
        set_group(&mut full, 0, 3_124);
        assert_eq!(unpack(&full, 5).unwrap(), b"NNNNN");
        set_group(&mut full, 0, 3_125);
        let mut out = b"kept".to_vec();
        let err = unpack_record(&full, 5, &mut out).unwrap_err();
        assert!(matches!(&err, Error::Format(_)), "{err:?}");
        assert_eq!(
            err.to_string(),
            "format error: base group 0 holds 3125, out of range for 5 bases"
        );
        assert_eq!(out, b"kept");
        let mut tail = pack(b"ACGTNC").unwrap();
        set_group(&mut tail, 1, 5);
        let err = canonicalize_record(&mut tail.clone(), 6).unwrap_err();
        assert_eq!(err.to_string(), "format error: base group 1 holds 5, out of range for 1 bases");
        assert_eq!(unpack(&tail, 6).unwrap_err().to_string(), err.to_string());
    }

    #[test]
    fn sizes() {
        assert_eq!(packed_size(0), 0);
        assert_eq!(packed_size(1), 2);
        assert_eq!(packed_size(5), 2);
        assert_eq!(packed_size(6), 3);
        assert_eq!(packed_size(10), 3);
        assert_eq!(packed_size(11), 5);
        assert_eq!(packed_size(101), 32); // The paper's read length: 21 groups.
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
        // 101 ASCII bases = 101 bytes raw; compacted = 32 bytes.
        let bases = vec![b'A'; 101];
        let packed = pack(&bases).unwrap();
        assert_eq!(packed.len(), 32);
        assert!((packed.len() as f64) < 0.32 * bases.len() as f64);
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
        assert!(unpack_record(&packed[..1], 4, &mut out).is_err());
    }

    #[test]
    fn rejects_invalid_code_in_word() {
        // Craft a three-byte word whose first group is 4,095.
        assert!(unpack(&[0xFF, 0x0F, 0x00], 10).is_err());
        assert!(unpack(&[0x00, 0xF0, 0xFF], 10).is_err());
        assert_eq!(unpack(&[0x00, 0x00, 0x00], 10).unwrap(), b"AAAAAAAAAA");
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
