//! **Persona** — a high-performance bioinformatics framework.
//!
//! This crate is the top layer of the Persona reproduction (USENIX ATC
//! '17): it stitches the dataflow engine, the AGD format, the storage
//! models and the aligners into the subgraphs and pipelines the paper
//! describes (§4.1): "a set of dataflow operators that read, parse,
//! write, and operate on AGD chunks, and a thin library that stitches
//! these nodes together into optimized subgraphs for common I/O patterns
//! and bioinformatics functions".
//!
//! Pipelines:
//!
//! * [`pipeline::align`] — the input steps (read + decode), the process
//!   step (aligner subchunks over the shared executor, Fig. 4) and the
//!   output step (encode + write) of a bounded window of chunks.
//! * [`pipeline::sort`] — external merge sort over AGD chunks with
//!   temporary "superchunks" (§4.3).
//! * [`pipeline::dupmark`] — Samblaster-style duplicate marking over the
//!   `results` column only (§4.3, §5.6).
//! * [`pipeline::import`] / [`pipeline::export`] — FASTQ import and
//!   SAM/BAM export (§5.7).
//!
//! The [`manifest_server`] hands out chunk names to any number of
//! "servers" (§5.2), which is how multi-node runs are coordinated.
//!
//! The [`runtime`] module ties it together: a [`runtime::PersonaRuntime`]
//! owns the one shared executor every stage schedules compute on.
//!
//! The [`plan`] module is the composition surface: a [`plan::Plan`] is
//! a user-built, validated, serializable chain of [`plan::Stage`]s
//! typed by dataset state (FASTQ → encoded AGD → aligned → sorted →
//! dup-marked → SAM/BGZF), and [`plan::Plan::run`] executes any valid
//! composition with import‖align and dupmark‖export overlapped on the
//! same cores. [`plan::Plan::full`] is the paper's whole chain.
//!
//! The [`wire`] module is the network face of that composition surface:
//! a length-prefixed JSON framing layer, the [`wire::Message`]
//! vocabulary (`submit-job`, `status`, `wait`, `cancel`, `report`, and
//! their streamed replies), and a blocking [`wire::WireClient`]. The
//! accept loop (`WireServer`) lives in the `persona_server` crate; the
//! protocol itself is specified in `docs/PROTOCOL.md`.

pub mod caching;
pub mod config;
pub mod manifest_server;
pub mod pipeline;
pub mod plan;
pub mod runtime;
pub mod wire;

/// Errors from Persona pipelines.
#[derive(Debug)]
pub enum Error {
    /// AGD format or I/O failure.
    Agd(persona_agd::Error),
    /// A stage's task panicked on the shared executor (a kernel bug,
    /// such as an aligner that panics); carries the panic payload's
    /// text. The stage settled its other tasks before reporting it.
    TaskPanicked(String),
    /// Interchange format failure.
    Format(persona_formats::Error),
    /// Pipeline-level invariant violation.
    Pipeline(String),
    /// The job's cancellation token fired; the pipeline stopped
    /// scheduling work and unwound.
    Cancelled,
    /// A neighbouring stage of a fused group closed the chunk stream or
    /// ended without delivering its manifest. Always a symptom of that
    /// neighbour's own failure, never a root cause: the plan driver
    /// surfaces the neighbour's error instead.
    NeighbourClosed,
}

impl Error {
    /// Whether this error is a cooperative cancellation (not a failure).
    pub fn is_cancelled(&self) -> bool {
        matches!(self, Error::Cancelled)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Agd(e) => write!(f, "agd: {e}"),
            Error::TaskPanicked(what) => write!(f, "executor task panicked: {what}"),
            Error::Format(e) => write!(f, "format: {e}"),
            Error::Pipeline(what) => write!(f, "pipeline: {what}"),
            Error::Cancelled => write!(f, "job cancelled"),
            Error::NeighbourClosed => write!(f, "pipeline: a neighbouring stage closed the stream"),
        }
    }
}

impl std::error::Error for Error {}

impl From<persona_agd::Error> for Error {
    fn from(e: persona_agd::Error) -> Self {
        Error::Agd(e)
    }
}

impl From<persona_formats::Error> for Error {
    fn from(e: persona_formats::Error) -> Self {
        Error::Format(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Agd(persona_agd::Error::Io(e))
    }
}

/// Result alias for Persona operations.
pub type Result<T> = std::result::Result<T, Error>;
