//! Interoperability formats: FASTQ, SAM and BAM (paper §2.2), plus
//! conversions to and from AGD (paper §5.7).
//!
//! "Persona provides efficient utilities to export/import AGD to/from
//! existing formats (SAM/BAM/FASTQ)" — these are those utilities:
//!
//! * [`fastq`] — the sequencer text format ("FASTQ delimits reads by the
//!   @ character, which makes parsing nontrivial as @ is also an encoded
//!   quality score value").
//! * [`sam`] — the row-oriented Sequence Alignment Map text format.
//! * [`bam`] — its binary, BGZF-compressed form (built on this
//!   repository's own DEFLATE).
//! * [`convert`] — FASTQ→AGD import, AGD→FASTQ/SAM/BAM export.

pub mod bam;
pub mod convert;
pub mod fastq;
pub mod sam;

/// Errors from format parsing/writing.
#[derive(Debug)]
pub enum Error {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed input at a given record.
    Parse {
        /// Index of the offending record.
        record: u64,
        /// Human-readable description.
        what: String,
    },
    /// Compression-layer failure (BGZF).
    Compress(persona_compress::Error),
    /// A BGZF block that violates the container format.
    Bgzf {
        /// Byte offset of the block in the stream.
        offset: usize,
        /// What is wrong with it.
        kind: bam::BgzfError,
    },
    /// AGD-layer failure during conversion.
    Agd(persona_agd::Error),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Parse { record, what } => write!(f, "parse error at record {record}: {what}"),
            Error::Compress(e) => write!(f, "compression error: {e}"),
            Error::Bgzf { offset, kind } => write!(f, "bad BGZF block at byte {offset}: {kind}"),
            Error::Agd(e) => write!(f, "agd error: {e}"),
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

impl From<persona_agd::Error> for Error {
    fn from(e: persona_agd::Error) -> Self {
        Error::Agd(e)
    }
}

/// Result alias for format operations.
pub type Result<T> = std::result::Result<T, Error>;
