//! The Aggregate Genomic Data (AGD) format — Persona's column-oriented,
//! chunked container for genomic datasets (paper §3).
//!
//! An AGD dataset is a relational table of records. Fields are stored as
//! *columns* (`bases`, `qual`, `metadata`, `results`, ...); each column
//! is split into large-granularity *chunks* stored as separate objects
//! (files). A JSON *manifest* indexes the columns, chunks and records,
//! and carries reference-genome metadata.
//!
//! Each chunk object holds a fixed header, a *relative index* (one entry
//! per record, summed to obtain offsets), and a compressed data block.
//! The `bases` column additionally applies *base compaction*: five bases
//! per 12-bit group, stored with no codec (see [`compaction`] for why
//! this departs from the paper's 21 bases per 64-bit word).
//!
//! ```text
//! manifest.json      test-0.bases  test-0.qual  test-0.metadata  test-0.results
//!                    ┌──────────┐
//!                    │ header   │
//!                    │ rel.index│
//!                    │ data     │ (block-compressed, per-column codec)
//!                    └──────────┘
//! ```
//!
//! # Examples
//!
//! Build a dataset in memory and read a column back:
//!
//! ```
//! use persona_agd::builder::DatasetWriter;
//! use persona_agd::chunk_io::MemStore;
//! use persona_agd::dataset::Dataset;
//!
//! let store = MemStore::new();
//! let mut w = DatasetWriter::new("test", 4).unwrap();
//! for i in 0..6u8 {
//!     w.append(
//!         &store,
//!         format!("read{i}").as_bytes(),
//!         b"ACGTACGT",
//!         b"IIIIIIII",
//!     ).unwrap();
//! }
//! let manifest = w.finish(&store).unwrap();
//! let ds = Dataset::new(manifest);
//! assert_eq!(ds.manifest().total_records, 6);
//! // A chunk as stored: bases packed five to 12 bits, two groups to
//! // three bytes.
//! let chunk = ds.read_column_chunk(&store, 0, "bases").unwrap();
//! assert_eq!(chunk.record(0).len(), 3);
//! let mut read = Vec::new();
//! chunk.append_plain(0, &mut read).unwrap();
//! assert_eq!(read, b"ACGTACGT");
//! ```

pub mod builder;
pub mod chunk;
pub mod chunk_io;
pub mod columns;
pub mod compaction;
pub mod consensus;
pub mod dataset;
pub mod manifest;
pub mod results;

pub use chunk::{ChunkData, ChunkHeader, RecordType};
pub use manifest::Manifest;

/// Errors arising from AGD encoding, decoding, or I/O.
#[derive(Debug)]
pub enum Error {
    /// Underlying storage failure.
    Io(std::io::Error),
    /// Compression layer failure.
    Compress(persona_compress::Error),
    /// The chunk or manifest violates the format.
    Format(String),
    /// The chunk names a record type that is no longer read (the
    /// name of its layout).
    RetiredRecordType(&'static str),
    /// Manifest JSON could not be parsed.
    Json(serde_json::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Compress(e) => write!(f, "compression error: {e}"),
            Error::Format(what) => write!(f, "format error: {what}"),
            Error::RetiredRecordType(name) => {
                write!(f, "record type {name:?} is retired and cannot be read")
            }
            Error::Json(e) => write!(f, "manifest error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<persona_compress::Error> for Error {
    fn from(e: persona_compress::Error) -> Self {
        Error::Compress(e)
    }
}

impl From<serde_json::Error> for Error {
    fn from(e: serde_json::Error) -> Self {
        Error::Json(e)
    }
}

/// Result alias for AGD operations.
pub type Result<T> = std::result::Result<T, Error>;

/// The paper's default chunk size in records (§5.2: "the AGD chunk size
/// is 100,000").
pub const DEFAULT_CHUNK_SIZE: usize = 100_000;
