//! Fast non-proptest sanity checks: gzip and deflate round-trip
//! identity on deterministic pseudo-random buffers across a spread of
//! sizes, entropy profiles, and compression levels. These run in
//! milliseconds and catch gross codec regressions even when the
//! heavier property suites are filtered out.

use persona_compress::deflate::{deflate_level, inflate, CompressLevel};
use persona_compress::gzip;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Buffer of `len` bytes drawn uniformly from `alphabet_size` symbols
/// (256 = arbitrary bytes, 4 = DNA-like low entropy).
fn random_buffer(rng: &mut StdRng, len: usize, alphabet_size: u16) -> Vec<u8> {
    (0..len).map(|_| (rng.random_range(0..alphabet_size as u32) & 0xFF) as u8).collect()
}

const LEVELS: [CompressLevel; 2] = [CompressLevel::Store, CompressLevel::Fast];

#[test]
fn deflate_roundtrip_identity() {
    let mut rng = StdRng::seed_from_u64(0xDEF1A7E);
    for &alphabet in &[4u16, 16, 256] {
        for &len in &[0usize, 1, 2, 63, 64, 65, 1_000, 40_000] {
            let data = random_buffer(&mut rng, len, alphabet);
            for level in LEVELS {
                let packed = deflate_level(&data, level);
                let unpacked = inflate(&packed).unwrap_or_else(|e| {
                    panic!("inflate failed (len={len}, alphabet={alphabet}, {level:?}): {e:?}")
                });
                assert_eq!(
                    unpacked, data,
                    "deflate round-trip mismatch (len={len}, alphabet={alphabet}, {level:?})"
                );
            }
        }
    }
}

#[test]
fn gzip_roundtrip_identity() {
    let mut rng = StdRng::seed_from_u64(0x6219);
    for &alphabet in &[4u16, 256] {
        for &len in &[0usize, 1, 100, 10_000] {
            let data = random_buffer(&mut rng, len, alphabet);
            let packed = gzip::compress(&data);
            let unpacked = gzip::decompress(&packed).unwrap_or_else(|e| {
                panic!("gzip decompress failed (len={len}, alphabet={alphabet}): {e:?}")
            });
            assert_eq!(unpacked, data, "gzip round-trip mismatch (len={len}, alphabet={alphabet})");
        }
    }
}

#[test]
fn gzip_roundtrip_repetitive_data() {
    // LZ77-friendly input: long repeats compress far below input size
    // and must still round-trip exactly.
    let unit = b"ACGTACGGTTCA";
    let data: Vec<u8> = unit.iter().copied().cycle().take(50_000).collect();
    let packed = gzip::compress(&data);
    assert!(packed.len() < data.len() / 4, "repetitive data should compress well");
    assert_eq!(gzip::decompress(&packed).unwrap(), data);
}

#[test]
fn compressed_streams_differ_from_input() {
    // Guards against a codec that "round-trips" by storing plaintext
    // under a copied header.
    let mut rng = StdRng::seed_from_u64(7);
    let data = random_buffer(&mut rng, 5_000, 4);
    let packed = deflate_level(&data, CompressLevel::Fast);
    assert_ne!(packed, data);
    assert!(packed.len() < data.len(), "low-entropy input must shrink");
}
