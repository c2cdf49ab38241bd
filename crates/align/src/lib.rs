//! Read aligners for Persona: a SNAP-style hash-seed aligner and a
//! BWA-MEM-style FM-index aligner, plus the alignment kernels they share.
//!
//! Module map (paper §2.1, §4.3):
//!
//! * [`edit`] — Landau-Vishkin banded edit distance with early cutoff,
//!   SNAP's verification kernel ("short but frequent calls to a local
//!   alignment edit distance function", Fig. 8 discussion).
//! * [`sw`] — Smith-Waterman affine-gap local alignment with traceback
//!   (the classic "exact, dynamic programming algorithm" of §2.1; also
//!   BWA-MEM's extension kernel), which skips the DP when the optimum is
//!   provably ungapped.
//! * [`snap`] — seed / weigh candidates / verify-with-LV, as in Zaharia
//!   et al.'s SNAP.
//! * [`bwa`] — SMEM-style exact-match seeding on the FM-index, chaining,
//!   local SW of the read against a padded window per chain, after
//!   Li's BWA-MEM.
//! * [`mapq`] — mapping-quality estimation from best/second-best.
//! * [`profile`] — per-phase time/op counters that regenerate the Fig. 8
//!   workload analysis without hardware PMUs.
//!
//! # Examples
//!
//! ```
//! use persona_seq::{Genome, simulate::{ReadSimulator, SimParams}};
//! use persona_index::SeedIndex;
//! use persona_align::snap::{SnapAligner, SnapParams};
//! use persona_align::Aligner;
//! use std::sync::Arc;
//!
//! let genome = Arc::new(Genome::random_with_seed(5, &[("chr1", 50_000)]));
//! let index = Arc::new(SeedIndex::build(&genome, 16));
//! let aligner = SnapAligner::new(genome.clone(), index, SnapParams::default());
//! let mut sim = ReadSimulator::new(&genome, SimParams { seed: 1, ..Default::default() });
//! let read = sim.next_single();
//! let result = aligner.align_read(&read.bases, &read.quals);
//! assert!(!result.is_unmapped());
//! ```

pub mod bwa;
pub mod edit;
pub mod mapq;
pub mod profile;
pub mod snap;
pub mod sw;
mod sw_simd;

use std::sync::atomic::{AtomicU8, Ordering};

use persona_agd::results::AlignmentResult;

/// Which implementation family the alignment kernels run.
///
/// This is the single dispatch point for the hot kernels: the public
/// [`edit::landau_vishkin`] and [`sw::smith_waterman`] entry points
/// consult [`Kernel::active`] and route to either the portable scalar
/// code or the vectorized variants (Myers bit-parallel edit distance,
/// striped SSE2/AVX2 Smith-Waterman). Call sites in [`snap`] and
/// [`bwa`] never change.
///
/// The active kernel is resolved once, in this order:
///
/// 1. the `PERSONA_KERNEL` environment variable (`scalar` | `simd`),
/// 2. runtime CPU feature detection ([`Kernel::detect`]).
///
/// Benchmarks flip the kernel in-process with [`Kernel::set_active`] to
/// measure both variants in one run. Inputs a vectorized kernel cannot
/// handle exactly (non-ACGT bases, extreme scoring parameters) fall
/// back to scalar per call, so dispatch never changes results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable scalar reference implementations.
    Scalar,
    /// Bit-parallel / SIMD implementations with scalar fallback.
    Simd,
}

/// 0 = unresolved, 1 = scalar, 2 = simd.
static ACTIVE_KERNEL: AtomicU8 = AtomicU8::new(0);

impl Kernel {
    /// The best kernel this CPU supports. On x86-64 SSE2 is part of
    /// the base ISA, so SIMD is always available (AVX2 is picked up
    /// dynamically inside the kernels); elsewhere only scalar code
    /// exists.
    pub fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        {
            Kernel::Simd
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Kernel::Scalar
        }
    }

    /// The kernel the dispatching entry points currently route to.
    pub fn active() -> Kernel {
        match ACTIVE_KERNEL.load(Ordering::Relaxed) {
            1 => Kernel::Scalar,
            2 => Kernel::Simd,
            _ => {
                let resolved = match std::env::var("PERSONA_KERNEL").as_deref() {
                    Ok("scalar") => Kernel::Scalar,
                    Ok("simd") => Kernel::Simd,
                    _ => Kernel::detect(),
                };
                Kernel::set_active(resolved);
                resolved
            }
        }
    }

    /// Overrides the active kernel process-wide (benchmark sweeps).
    pub fn set_active(kernel: Kernel) {
        ACTIVE_KERNEL.store(
            match kernel {
                Kernel::Scalar => 1,
                Kernel::Simd => 2,
            },
            Ordering::Relaxed,
        );
    }

    /// Short name for reports ("scalar", "simd").
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Simd => "simd",
        }
    }

    /// The instruction set the SIMD Smith-Waterman would use right now
    /// ("avx2", "sse2", or "none" off x86-64) — recorded in benchmark
    /// datapoints so trajectories from different machines compare.
    pub fn simd_level() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                "avx2"
            } else {
                "sse2"
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            "none"
        }
    }
}

/// A single-read aligner, callable from many threads concurrently.
pub trait Aligner: Send + Sync {
    /// Aligns one read, returning a result (possibly unmapped).
    fn align_read(&self, bases: &[u8], quals: &[u8]) -> AlignmentResult;

    /// Aligns one read while accumulating phase-profile counters.
    fn align_read_profiled(
        &self,
        bases: &[u8],
        quals: &[u8],
        prof: &mut profile::PhaseProfile,
    ) -> AlignmentResult {
        let _ = prof;
        self.align_read(bases, quals)
    }

    /// Short human-readable name ("snap", "bwa").
    fn name(&self) -> &'static str;
}
