//! Phred quality scores and a simple Illumina-like quality model.

use rand::rngs::StdRng;
use rand::RngExt;

/// Phred+33 offset used by FASTQ/SAM ASCII encodings.
pub const PHRED_OFFSET: u8 = b'!';

/// Maximum sensible phred score for simulated data.
pub const MAX_PHRED: u8 = 41;

/// Encodes a phred score (0..=93) to its ASCII character.
#[inline]
pub fn encode(q: u8) -> u8 {
    debug_assert!(q <= 93);
    PHRED_OFFSET + q
}

/// Decodes an ASCII quality character to its phred score.
#[inline]
pub fn decode(c: u8) -> u8 {
    c.saturating_sub(PHRED_OFFSET)
}

/// Generates an Illumina-like quality string: high and flat early in the
/// read, degrading toward the 3' end, with local random-walk noise.
///
/// Returns ASCII (phred+33) bytes of length `len`.
pub fn simulate_quality_string(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut q: i32 = 37;
    for i in 0..len {
        // Positional decay: later cycles lose quality.
        let decay = (i as f64 / len.max(1) as f64) * 6.0;
        let step: i32 = rng.random_range(-2..=2);
        q = (q + step).clamp(2, MAX_PHRED as i32);
        let eff = ((q as f64) - decay).clamp(2.0, MAX_PHRED as f64) as u8;
        out.push(encode(eff));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn encode_decode_roundtrip() {
        for q in 0..=93u8 {
            assert_eq!(decode(encode(q)), q);
        }
    }

    #[test]
    fn simulated_quality_is_valid_and_decays() {
        let mut rng = StdRng::seed_from_u64(11);
        let quals = simulate_quality_string(&mut rng, 101);
        assert_eq!(quals.len(), 101);
        assert!(quals.iter().all(|&c| (PHRED_OFFSET..=encode(MAX_PHRED)).contains(&c)));
        // Average of the first 20 cycles should exceed the last 20.
        let head: f64 = quals[..20].iter().map(|&c| decode(c) as f64).sum::<f64>() / 20.0;
        let tail: f64 = quals[81..].iter().map(|&c| decode(c) as f64).sum::<f64>() / 20.0;
        assert!(head > tail, "head {head} <= tail {tail}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate_quality_string(&mut StdRng::seed_from_u64(5), 50);
        let b = simulate_quality_string(&mut StdRng::seed_from_u64(5), 50);
        assert_eq!(a, b);
    }
}
