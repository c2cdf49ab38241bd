//! Property-based tests for the compression substrate. Every DEFLATE
//! stream they produce or invent is also decoded by the bit-at-a-time
//! reference inflater, which must agree with the production one.

mod reference;

use persona_compress::codec::Codec;
use persona_compress::crc32::{crc32, Crc32};
use persona_compress::deflate::{deflate_level, inflate_from, CompressLevel};
use persona_compress::{gzip, Error};
use proptest::prelude::*;

/// Inflates with both decoders, which must agree on the bytes and the
/// consumed count, or on the kind of error.
fn inflate(data: &[u8]) -> Result<Vec<u8>, Error> {
    let got = inflate_from(data, data.len() * 3);
    match (&got, &reference::inflate_from(data, 0)) {
        (Ok(got), Ok(want)) => assert!(got == want, "decoders disagree on the output"),
        (Err(got), Err(want)) => {
            assert_eq!(std::mem::discriminant(got), std::mem::discriminant(want), "{got} / {want}")
        }
        (got, want) => panic!("{:?} where the reference says {:?}", got.is_ok(), want.is_ok()),
    }
    got.map(|(bytes, _consumed)| bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deflate_roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        for level in [
            CompressLevel::Store,
            CompressLevel::Fast,
            CompressLevel::Default,
            CompressLevel::Best,
        ] {
            let packed = deflate_level(&data, level);
            prop_assert_eq!(&inflate(&packed).unwrap(), &data);
        }
    }

    #[test]
    fn deflate_roundtrip_lowentropy(
        data in proptest::collection::vec(prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')], 0..30_000),
    ) {
        let packed = deflate_level(&data, CompressLevel::Best);
        prop_assert_eq!(&inflate(&packed).unwrap(), &data);
    }

    #[test]
    fn deflate_roundtrip_repetitive(
        unit in proptest::collection::vec(any::<u8>(), 1..64),
        reps in 1usize..400,
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut data = unit.repeat(reps);
        data.extend_from_slice(&tail);
        let packed = deflate_level(&data, CompressLevel::Default);
        prop_assert_eq!(&inflate(&packed).unwrap(), &data);
    }

    #[test]
    fn gzip_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..10_000)) {
        prop_assert_eq!(&gzip::decompress(&gzip::compress(&data)).unwrap(), &data);
    }

    #[test]
    fn codec_roundtrip_all(data in proptest::collection::vec(any::<u8>(), 0..5_000)) {
        for codec in [Codec::None, Codec::Gzip] {
            prop_assert_eq!(&codec.decompress(&codec.compress(&data)).unwrap(), &data);
        }
    }

    #[test]
    fn crc32_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..4_096),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((data.len() as f64) * split_frac) as usize;
        let mut h = Crc32::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finish(), crc32(&data));
    }

    #[test]
    fn inflate_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..2_048)) {
        // Arbitrary bytes must either decode or error, never panic/hang.
        let _ = inflate(&data);
        let _ = gzip::decompress(&data);
    }

    #[test]
    fn deflate_corrupted_never_panics(
        data in proptest::collection::vec(any::<u8>(), 1..4_096),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let mut packed = deflate_level(&data, CompressLevel::Default);
        let idx = flip_byte % packed.len();
        packed[idx] ^= 1 << flip_bit;
        // Corrupted stream: decoded-to-something-else or error, no panic.
        let _ = inflate(&packed);
    }
}
