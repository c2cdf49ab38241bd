//! Unified per-column codec selection, as AGD's manifest exposes it.
//!
//! The paper (§3): "The type of compression may be selected on a
//! column-by-column basis … This flexibility allows tradeoffs between
//! compressed file size and decompression time."

use crate::deflate::CompressLevel;
use crate::{gzip, Error, Result};

/// A compression scheme applicable to an AGD column chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Codec {
    /// No compression: fastest access, largest size.
    None,
    /// gzip (DEFLATE): the paper's default — "good compression without
    /// being too compute-intensive".
    #[default]
    Gzip,
}

/// On-disk id of a retired codec (an order-1 range coder that nothing
/// wrote). The id and [`RETIRED_NAME`] stay reserved, so a chunk header
/// or a codec name naming it fails with [`Error::RetiredCodec`].
const RETIRED_ID: u8 = 2;
const RETIRED_NAME: &str = "range";

impl Codec {
    /// Stable on-disk identifier stored in AGD chunk headers.
    pub fn id(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::Gzip => 1,
        }
    }

    /// Parses an on-disk identifier.
    pub fn from_id(id: u8) -> Result<Self> {
        match id {
            0 => Ok(Codec::None),
            1 => Ok(Codec::Gzip),
            RETIRED_ID => Err(Error::RetiredCodec(RETIRED_NAME)),
            _ => Err(Error::BadHeader("unknown codec id")),
        }
    }

    /// Compresses a buffer with this codec at [`CompressLevel::Fast`].
    pub fn compress(self, data: &[u8]) -> Vec<u8> {
        self.compress_level(data, CompressLevel::Fast)
    }

    /// Compresses a buffer at an explicit level (only meaningful for
    /// [`Codec::Gzip`]).
    pub fn compress_level(self, data: &[u8], level: CompressLevel) -> Vec<u8> {
        match self {
            Codec::None => data.to_vec(),
            Codec::Gzip => gzip::compress_level(data, level),
        }
    }

    /// Decompresses a buffer previously produced by this codec.
    pub fn decompress(self, data: &[u8]) -> Result<Vec<u8>> {
        match self {
            Codec::None => Ok(data.to_vec()),
            Codec::Gzip => gzip::decompress(data),
        }
    }

    /// [`decompress`](Self::decompress) for a caller that has the
    /// expected output length on record, so the output can be allocated
    /// once (only [`Codec::Gzip`] needs telling). The hint is not
    /// trusted: a wrong one costs time, and the caller still checks the
    /// length it gets.
    pub fn decompress_sized(self, data: &[u8], size_hint: usize) -> Result<Vec<u8>> {
        match self {
            Codec::None => Ok(data.to_vec()),
            Codec::Gzip => gzip::decompress_sized(data, size_hint),
        }
    }

    /// The canonical lowercase name used in AGD manifests.
    pub fn name(self) -> &'static str {
        match self {
            Codec::None => "none",
            Codec::Gzip => "gzip",
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
            RETIRED_NAME => Err(Error::RetiredCodec(RETIRED_NAME)),
            _ => Err(Error::BadHeader("unknown codec name")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        for codec in [Codec::None, Codec::Gzip] {
            assert_eq!(Codec::from_id(codec.id()).unwrap(), codec);
            assert_eq!(codec.name().parse::<Codec>().unwrap(), codec);
        }
        assert!(Codec::from_id(99).is_err());
        assert!("lzma".parse::<Codec>().is_err());
    }

    #[test]
    fn retired_codec_is_a_typed_error() {
        assert_eq!(Codec::from_id(2), Err(Error::RetiredCodec("range")));
        assert_eq!("range".parse::<Codec>(), Err(Error::RetiredCodec("range")));
        assert!(Error::RetiredCodec("range").to_string().contains("\"range\" is retired"));
    }

    #[test]
    fn all_codecs_roundtrip_data() {
        let data =
            b"AGCTTTTCATTCTGACTGCAACGGGCAATATGTCTCTGTGTGGATTAAAAAAAGAGTGTCTGATAGCAGC".repeat(20);
        for codec in [Codec::None, Codec::Gzip] {
            let packed = codec.compress(&data);
            assert_eq!(codec.decompress(&packed).unwrap(), data, "{codec}");
        }
    }
}
