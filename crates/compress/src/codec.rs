//! Unified per-column codec selection, as AGD's manifest exposes it.
//!
//! The paper (§3): "The type of compression may be selected on a
//! column-by-column basis … This flexibility allows tradeoffs between
//! compressed file size and decompression time."

use crate::deflate::CompressLevel;
use crate::{gzip, range, Error, Result};

/// A compression scheme applicable to an AGD column chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Codec {
    /// No compression: fastest access, largest size.
    None,
    /// gzip (DEFLATE): the paper's default — "good compression without
    /// being too compute-intensive".
    #[default]
    Gzip,
    /// Order-1 range coder: denser but slower (the paper's LZMA slot).
    Range,
}

impl Codec {
    /// Stable on-disk identifier stored in AGD chunk headers.
    pub fn id(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::Gzip => 1,
            Codec::Range => 2,
        }
    }

    /// Parses an on-disk identifier.
    pub fn from_id(id: u8) -> Result<Self> {
        match id {
            0 => Ok(Codec::None),
            1 => Ok(Codec::Gzip),
            2 => Ok(Codec::Range),
            _ => Err(Error::BadHeader("unknown codec id")),
        }
    }

    /// Compresses a buffer with this codec at default effort.
    pub fn compress(self, data: &[u8]) -> Vec<u8> {
        match self {
            Codec::None => data.to_vec(),
            Codec::Gzip => gzip::compress(data),
            Codec::Range => range::compress(data),
        }
    }

    /// Compresses a buffer with an explicit effort level (only meaningful
    /// for [`Codec::Gzip`]).
    pub fn compress_level(self, data: &[u8], level: CompressLevel) -> Vec<u8> {
        match self {
            Codec::None => data.to_vec(),
            Codec::Gzip => gzip::compress_level(data, level),
            Codec::Range => range::compress(data),
        }
    }

    /// Decompresses a buffer previously produced by this codec.
    pub fn decompress(self, data: &[u8]) -> Result<Vec<u8>> {
        match self {
            Codec::None => Ok(data.to_vec()),
            Codec::Gzip => gzip::decompress(data),
            Codec::Range => range::decompress(data),
        }
    }

    /// [`decompress`](Self::decompress) for a caller that has the
    /// expected output length on record, so the output can be allocated
    /// once (only [`Codec::Gzip`] needs telling). The hint is not
    /// trusted: a wrong one costs time, and the caller still checks the
    /// length it gets.
    pub fn decompress_sized(self, data: &[u8], size_hint: usize) -> Result<Vec<u8>> {
        match self {
            Codec::Gzip => gzip::decompress_sized(data, size_hint),
            Codec::None | Codec::Range => self.decompress(data),
        }
    }

    /// The canonical lowercase name used in AGD manifests.
    pub fn name(self) -> &'static str {
        match self {
            Codec::None => "none",
            Codec::Gzip => "gzip",
            Codec::Range => "range",
        }
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Codec {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "none" => Ok(Codec::None),
            "gzip" => Ok(Codec::Gzip),
            "range" => Ok(Codec::Range),
            _ => Err(Error::BadHeader("unknown codec name")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        for codec in [Codec::None, Codec::Gzip, Codec::Range] {
            assert_eq!(Codec::from_id(codec.id()).unwrap(), codec);
            assert_eq!(codec.name().parse::<Codec>().unwrap(), codec);
        }
        assert!(Codec::from_id(99).is_err());
        assert!("lzma".parse::<Codec>().is_err());
    }

    #[test]
    fn all_codecs_roundtrip_data() {
        let data =
            b"AGCTTTTCATTCTGACTGCAACGGGCAATATGTCTCTGTGTGGATTAAAAAAAGAGTGTCTGATAGCAGC".repeat(20);
        for codec in [Codec::None, Codec::Gzip, Codec::Range] {
            let packed = codec.compress(&data);
            assert_eq!(codec.decompress(&packed).unwrap(), data, "{codec}");
        }
    }

    #[test]
    fn tradeoff_shape_matches_paper_claim() {
        // The paper motivates per-column codec choice (§3): a denser,
        // slower codec for some columns. Quality-score-like data (small
        // alphabet, strong local correlation, no long exact repeats) is
        // where the context model beats gzip's LZ77.
        let mut data = Vec::new();
        let mut x = 0x243F_6A88u64;
        let mut q: i32 = 38;
        for _ in 0..60_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let step = ((x >> 60) as i32 % 3) - 1;
            q = (q + step).clamp(2, 41);
            data.push(b'!' + q as u8);
        }
        let none = Codec::None.compress(&data).len();
        let gz = Codec::Gzip.compress(&data).len();
        let rc = Codec::Range.compress(&data).len();
        assert!(gz < none);
        assert!(rc < none);
        assert!(rc < gz, "range {rc} should beat gzip {gz} on quality-like data");
    }
}
