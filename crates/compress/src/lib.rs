//! From-scratch compression substrate for the Persona framework.
//!
//! The Persona paper (§3) compresses AGD column chunks with gzip and
//! mentions LZMA as an alternative per-column codec. This crate provides
//! the equivalent building blocks without external compression libraries:
//!
//! * [`crc32`] — IEEE CRC-32 (used by the gzip container, BGZF blocks,
//!   AGD chunk integrity checks and the job journal): carry-less-multiply
//!   folding on x86-64 CPUs that have it, slicing-by-8 elsewhere. Its
//!   folding kernel is the crate's only `unsafe` code.
//! * [`deflate`] — RFC 1951 DEFLATE: a full inflater and a compressor
//!   supporting stored, fixed-Huffman and dynamic-Huffman blocks over an
//!   LZ77 matcher that keeps two positions per hash bucket.
//! * [`gzip`] — RFC 1952 gzip member framing around DEFLATE.
//! * [`codec`] — a unified [`codec::Codec`] selector used by AGD to pick
//!   a compression scheme per column.
//!
//! # Examples
//!
//! ```
//! use persona_compress::codec::Codec;
//!
//! let data = b"ACGTACGTACGTACGTTTTTGGGGCCCC".repeat(16);
//! let packed = Codec::Gzip.compress(&data);
//! assert!(packed.len() < data.len());
//! let restored = Codec::Gzip.decompress(&packed).unwrap();
//! assert_eq!(restored, data);
//! ```

pub mod bits;
pub mod codec;
pub mod crc32;
pub mod deflate;
pub mod gzip;

/// Errors produced while decoding a compressed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The input ended before the stream was complete.
    UnexpectedEof,
    /// A container magic number or header field was invalid.
    BadHeader(&'static str),
    /// The compressed payload violated the format specification.
    Corrupt(&'static str),
    /// A checksum embedded in the stream did not match the decoded data.
    ChecksumMismatch { expected: u32, actual: u32 },
    /// A declared size did not match the decoded data.
    LengthMismatch { expected: u64, actual: u64 },
    /// A chunk or manifest names a codec this build no longer has.
    RetiredCodec(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnexpectedEof => write!(f, "unexpected end of compressed input"),
            Error::BadHeader(what) => write!(f, "bad header: {what}"),
            Error::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            Error::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch: expected {expected:#010x}, got {actual:#010x}")
            }
            Error::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            Error::RetiredCodec(name) => write!(f, "codec {name:?} is retired and cannot be read"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for decode operations in this crate.
pub type Result<T> = std::result::Result<T, Error>;
