//! Sequence substrate for the Persona framework.
//!
//! The paper evaluates on the hg19 reference and an Illumina whole-genome
//! read dataset (ERR174324: 223 million 101-bp single-end reads). Neither
//! is shippable in a test suite, so this crate provides the synthetic
//! equivalent: a deterministic reference-genome generator with GC bias
//! and repeat structure, and a wgsim-style read simulator that plants the
//! true origin of every read in its metadata so correctness (not just
//! throughput) is checkable end to end.
//!
//! # Examples
//!
//! ```
//! use persona_seq::genome::Genome;
//! use persona_seq::simulate::{ReadSimulator, SimParams};
//!
//! let genome = Genome::random_with_seed(7, &[("chr1", 10_000)]);
//! let mut sim = ReadSimulator::new(&genome, SimParams { read_len: 101, ..SimParams::default() });
//! let read = sim.next_single();
//! assert_eq!(read.bases.len(), 101);
//! ```

pub mod dna;
pub mod genome;
pub mod quality;
pub mod read;
pub mod simulate;

pub use genome::Genome;
pub use read::Read;
