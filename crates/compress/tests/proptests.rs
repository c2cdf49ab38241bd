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
        for level in [CompressLevel::Store, CompressLevel::Fast] {
            let packed = deflate_level(&data, level);
            prop_assert_eq!(&inflate(&packed).unwrap(), &data);
        }
    }

    #[test]
    fn deflate_roundtrip_lowentropy(
        data in proptest::collection::vec(prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')], 0..30_000),
    ) {
        let packed = deflate_level(&data, CompressLevel::Fast);
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
        let packed = deflate_level(&data, CompressLevel::Fast);
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
        let mut packed = deflate_level(&data, CompressLevel::Fast);
        let idx = flip_byte % packed.len();
        packed[idx] ^= 1 << flip_bit;
        // Corrupted stream: decoded-to-something-else or error, no panic.
        let _ = inflate(&packed);
    }
}

/// Inputs at the edges of the `Fast` bucket search, built from a
/// phrase, a byte and a length: every length 0–16, a repeated phrase
/// followed by 0–8 bytes that do not repeat it (the last seven
/// positions have no eight bytes to compare), one BGZF block's worth of
/// phrase with a stray byte every 37, and runs longer than a match.
fn fast_edges(unit: &[u8], byte: u8, run: usize) -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = (0..=16).map(|len| unit.repeat(17)[..len].to_vec()).collect();
    for tail in 0..=8 {
        let mut data = unit.repeat(40);
        data.extend((0..tail).map(|k| byte ^ (k as u8 + 1).wrapping_mul(97)));
        inputs.push(data);
    }
    let block_len = 65_280;
    inputs.push(
        (0..block_len)
            .map(|k| if k % 37 == 0 { (k / 37) as u8 ^ byte } else { unit[k % unit.len()] })
            .collect(),
    );
    let mut runs = vec![byte; run];
    runs.extend_from_slice(unit);
    runs.extend(std::iter::repeat_n(byte, run + 1));
    inputs.push(runs);
    inputs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fast_edges_roundtrip_back_to_back(
        unit in proptest::collection::vec(any::<u8>(), 1..24),
        byte in any::<u8>(),
        run in 259usize..1_200,
    ) {
        let inputs = fast_edges(&unit, byte, run);
        let packed: Vec<Vec<u8>> =
            inputs.iter().map(|data| deflate_level(data, CompressLevel::Fast)).collect();
        for (data, packed) in inputs.iter().zip(&packed) {
            prop_assert_eq!(&inflate(packed).unwrap(), data);
        }
        // Back to back on this thread in the other order: the same bytes.
        for (data, packed) in inputs.iter().zip(&packed).rev() {
            prop_assert!(&deflate_level(data, CompressLevel::Fast) == packed, "{} bytes", data.len());
        }
    }
}
