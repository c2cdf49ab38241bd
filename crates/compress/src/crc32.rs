//! IEEE CRC-32 (the polynomial used by gzip, zip and PNG).
//!
//! Implemented by slicing-by-8 over eight 256-entry tables computed at
//! compile time, for reasonable throughput without any external
//! dependency.

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
        let mut crc = self.state;
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
        self.state = crc;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        for split in [0, 1, 7, 8, 9, 500, 999, 1000] {
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
            let mut bytewise = 0xFFFF_FFFFu32;
            for &b in &data {
                bytewise = (bytewise >> 8) ^ TABLES[0][((bytewise ^ b as u32) & 0xFF) as usize];
            }
            assert_eq!(crc32(&data), !bytewise, "len {len}");
        }
    }
}
