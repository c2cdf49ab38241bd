//! IEEE CRC-32 (the polynomial used by gzip, zip and PNG).
//!
//! Two implementations of one function. On x86-64 CPUs with
//! `pclmulqdq` and SSE4.1 (detected once per process), inputs of 64
//! bytes or more fold four 128-bit lanes at a time with carry-less
//! multiplication and reduce the result with a Barrett step — the
//! method of Gopal et al., "Fast CRC Computation for Generic Polynomials
//! Using PCLMULQDQ Instruction" (Intel, 2009), about 0.05 ns/byte. The
//! last 0–15 bytes, short inputs and every other CPU go through
//! slicing-by-8 over eight 256-entry tables computed at compile time
//! (about 0.75 ns/byte), which also serves as the folding path's test
//! oracle. Both paths take and return the same running register, so
//! [`Crc32::update`] stays incremental across any split of the input.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Builds the 256-entry base table at compile time.
const fn base_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Builds the full 8-way slicing table at compile time.
const fn slicing_tables() -> [[u32; 256]; 8] {
    let base = base_table();
    let mut tables = [[0u32; 256]; 8];
    tables[0] = base;
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ base[(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = slicing_tables();

/// An incremental CRC-32 hasher.
///
/// # Examples
///
/// ```
/// use persona_compress::crc32::Crc32;
///
/// let mut h = Crc32::new();
/// h.update(b"123456789");
/// assert_eq!(h.finish(), 0xCBF4_3926);
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        let (folded, tail) = match fold_clmul(self.state, data) {
            Some(folded) => folded,
            None => (self.state, data),
        };
        self.state = update_table(folded, tail);
    }

    /// Returns the final CRC value for everything fed so far.
    ///
    /// The hasher may continue to be updated afterwards; `finish` does not
    /// consume or reset the state.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// Computes the CRC-32 of `data` in one call.
///
/// # Examples
///
/// ```
/// assert_eq!(persona_compress::crc32::crc32(b""), 0);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// Advances the running register `crc` over `data` by slicing-by-8.
///
/// Public only for the kernel benchmarks; use [`Crc32`].
#[doc(hidden)]
pub fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Advances the running register `crc` over `data` with the folding
/// path where it applies, the table elsewhere; `None` when this CPU has
/// no carry-less multiply.
///
/// Public only for the kernel benchmarks; use [`Crc32`].
#[doc(hidden)]
pub fn update_clmul(crc: u32, data: &[u8]) -> Option<u32> {
    clmul_available().then(|| match fold_clmul(crc, data) {
        Some((folded, tail)) => update_table(folded, tail),
        None => update_table(crc, data),
    })
}

/// Shortest input the folding path takes: one 64-byte block seeds the
/// four lanes.
const FOLD_MIN: usize = 64;

/// Folds the longest multiple-of-16 prefix of `data` into `crc` when the
/// input is long enough and the CPU can, returning the new register and
/// the unfolded tail (under 16 bytes) for the table.
#[inline]
fn fold_clmul(crc: u32, data: &[u8]) -> Option<(u32, &[u8])> {
    if data.len() < FOLD_MIN || !clmul_available() {
        return None;
    }
    let (body, tail) = data.split_at(data.len() & !15);
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `clmul_available` returned true, so this CPU executes
        // the `pclmulqdq` and `sse4.1` instructions the function is
        // compiled for; `body` is at least 64 bytes and a multiple of 16,
        // as it requires.
        Some((unsafe { x86::fold(crc, body) }, tail))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (crc, body, tail);
        None
    }
}

/// 0 = not yet detected, 1 = absent, 2 = present.
static CLMUL: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Whether this CPU has carry-less multiply and SSE4.1, detected once.
fn clmul_available() -> bool {
    use std::sync::atomic::Ordering;
    match CLMUL.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            #[cfg(target_arch = "x86_64")]
            let present = std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1");
            #[cfg(not(target_arch = "x86_64"))]
            let present = false;
            CLMUL.store(if present { 2 } else { 1 }, Ordering::Relaxed);
            present
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    // Folding constants for the reflected IEEE polynomial: x^(k) mod P
    // for the fold distances, bit-reflected and shifted left by one.
    /// Fold by 512 bits (four lanes ahead): x^(4·128+32), x^(4·128−32).
    const K1K2: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    /// Fold by 128 bits (one lane ahead): x^(128+32), x^(128−32).
    const K3K4: (i64, i64) = (0x1_7519_97d0, 0xccaa_009e);
    /// Fold 64 bits into 32: x^64 mod P.
    const K5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: P itself and μ = floor(x^64 / P), reflected.
    const POLY_MU: (i64, i64) = (0x1_db71_0641, 0x1_f701_1641);

    /// 16 bytes of `block` as one little-endian 128-bit lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lane(block: &[u8]) -> __m128i {
        let v = u128::from_le_bytes(*block.first_chunk().expect("a lane is 16 bytes"));
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// `x` carried 128 bits forward by the fold constants `k`, plus `y`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(x: __m128i, k: __m128i, y: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(hi, lo), y)
    }

    /// Advances the running register `crc` over `data`.
    ///
    /// Callers guarantee `data.len() >= 64` and a multiple of 16, and
    /// that the CPU supports `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= super::FOLD_MIN && data.len().is_multiple_of(16));
        let (first, mut rest) = data.split_at(64);
        let mut x1 = _mm_xor_si128(lane(&first[0..]), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = lane(&first[16..]);
        let mut x3 = lane(&first[32..]);
        let mut x4 = lane(&first[48..]);

        // Four lanes, each carried 512 bits forward per 64-byte block.
        let k = _mm_set_epi64x(K1K2.1, K1K2.0);
        while rest.len() >= 64 {
            x1 = fold_into(x1, k, lane(&rest[0..]));
            x2 = fold_into(x2, k, lane(&rest[16..]));
            x3 = fold_into(x3, k, lane(&rest[32..]));
            x4 = fold_into(x4, k, lane(&rest[48..]));
            rest = &rest[64..];
        }

        // The four lanes into one, then any 16-byte blocks left.
        let k = _mm_set_epi64x(K3K4.1, K3K4.0);
        x1 = fold_into(x1, k, x2);
        x1 = fold_into(x1, k, x3);
        x1 = fold_into(x1, k, x4);
        while rest.len() >= 16 {
            x1 = fold_into(x1, k, lane(rest));
            rest = &rest[16..];
        }
        debug_assert!(rest.is_empty());

        // 128 bits to 64.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let x2 = _mm_clmulepi64_si128(x1, k, 0x10);
        x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
        let k5 = _mm_set_epi64x(0, K5);
        let x2 = _mm_srli_si128(x1, 4);
        x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00), x2);

        // Barrett reduction to 32 bits.
        let pmu = _mm_set_epi64x(POLY_MU.1, POLY_MU.0);
        let t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), pmu, 0x10);
        let t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), pmu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x1, t), 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The register after `data`, bit by bit from the polynomial.
    fn bitwise(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        crc
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        // Long enough for the folding path.
        let fox = b"The quick brown fox jumps over the lazy dog".repeat(4);
        assert_eq!(!update_table(!0, &fox), !bitwise(!0, &fox));
        assert_eq!(crc32(&fox), !bitwise(!0, &fox));
        assert_eq!(crc32(&[0u8; 4096]), !bitwise(!0, &[0u8; 4096]));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        for split in [0, 1, 7, 8, 9, 63, 64, 65, 500, 999, 1000] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn unaligned_tails() {
        // Exercise every remainder length of the 8-byte slicing loop.
        for len in 0..64 {
            let data: Vec<u8> = (0..len as u32).map(|i| (i * 31 + 1) as u8).collect();
            assert_eq!(crc32(&data), !bitwise(!0, &data), "len {len}");
        }
    }

    /// Carry-less folding ≡ slicing-by-8 on every length to 1 KiB from
    /// every start offset in a 16-byte line, from arbitrary registers.
    #[test]
    fn clmul_matches_table_everywhere() {
        let Some(_) = update_clmul(!0, b"") else {
            eprintln!("no pclmulqdq/sse4.1 on this CPU: only the table path ran");
            return;
        };
        let data = noise(1024 + 16, 0x9E37_79B9_7F4A_7C15);
        for start in 0..16 {
            for len in 0..=1024 {
                let slice = &data[start..start + len];
                let seed = (start as u32).wrapping_mul(0x0101_0101) ^ len as u32;
                for crc in [!0u32, 0, seed] {
                    assert_eq!(
                        update_clmul(crc, slice),
                        Some(update_table(crc, slice)),
                        "start {start} len {len} crc {crc:#x}"
                    );
                }
            }
        }
    }

    /// Random incremental splits through the dispatching hasher agree
    /// with the table on the whole input, whichever path each piece took.
    #[test]
    fn random_splits_agree() {
        let data = noise(64 * 1024 + 77, 7);
        let expect = !update_table(!0, &data);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..64 {
            let mut h = Crc32::new();
            let mut at = 0usize;
            while at < data.len() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let step = match x % 4 {
                    0 => (x >> 8) as usize % 16,
                    1 => (x >> 8) as usize % 200,
                    2 => (x >> 8) as usize % 5000,
                    _ => (x >> 8) as usize % 40_000,
                };
                let end = (at + step).min(data.len());
                h.update(&data[at..end]);
                at = end;
            }
            assert_eq!(h.finish(), expect);
        }
    }
}
