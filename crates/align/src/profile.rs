//! Phase-resolved workload profiling — the software substitute for the
//! paper's VTune analysis (Fig. 8).
//!
//! The paper's finding: both aligners are backend-bound, but SNAP is
//! *core*-bound (edit-distance loops: short dependent instruction
//! chains) while BWA-MEM is *memory*-bound (FM-index occ lookups: cache
//! and DTLB misses). Hardware PMUs are not portable, so we expose the
//! same distinction through per-phase wall time and operation counts:
//! the *seeding* phase performs data-dependent random memory walks; the
//! *verification/extension* phase performs arithmetic-dense loops.

use std::time::Duration;

/// Accumulated per-phase counters for one aligner (or one thread).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseProfile {
    /// Reads aligned.
    pub reads: u64,
    /// Time spent in seeding / index probing.
    pub seed_time: Duration,
    /// Time spent in verification (LV) or extension (SW).
    pub verify_time: Duration,
    /// Index probe operations (hash lookups or FM `occ` calls).
    pub index_ops: u64,
    /// Dynamic-programming cells posed (or LV fronts budgeted): the size
    /// of each problem handed to the kernel — window × read for
    /// Smith-Waterman — whether the kernel fills every cell or, like
    /// [`crate::sw::smith_waterman_ungapped`], settles it without the DP.
    pub dp_cells: u64,
    /// Candidate locations examined.
    pub candidates: u64,
}

impl PhaseProfile {
    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &PhaseProfile) {
        self.reads += other.reads;
        self.seed_time += other.seed_time;
        self.verify_time += other.verify_time;
        self.index_ops += other.index_ops;
        self.dp_cells += other.dp_cells;
        self.candidates += other.candidates;
    }

    /// Fraction of profiled time in the memory-walk (seeding) phase.
    pub fn memory_bound_fraction(&self) -> f64 {
        let total = self.seed_time.as_secs_f64() + self.verify_time.as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        self.seed_time.as_secs_f64() / total
    }

    /// Fraction of profiled time in the arithmetic (verify) phase.
    pub fn core_bound_fraction(&self) -> f64 {
        let total = self.seed_time.as_secs_f64() + self.verify_time.as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        self.verify_time.as_secs_f64() / total
    }
}

/// A Fig. 8-style breakdown row for reporting.
#[derive(Debug, Clone)]
pub struct WorkloadBreakdown {
    /// Workload name (e.g. "Persona SNAP").
    pub name: String,
    /// Fraction of cycles classified backend-bound (modeled).
    pub backend_bound: f64,
    /// Of the backend-bound share: core-bound fraction.
    pub core_bound: f64,
    /// Of the backend-bound share: memory-bound fraction.
    pub memory_bound: f64,
}

impl WorkloadBreakdown {
    /// Derives the Fig. 8 classification from a phase profile.
    ///
    /// Both aligner classes are heavily backend-bound per the paper; the
    /// core/memory split comes from the measured phase times.
    pub fn from_profile(name: &str, prof: &PhaseProfile) -> Self {
        // The arithmetic phase still misses cache occasionally and the
        // seeding phase still retires instructions, so temper the split
        // rather than using raw fractions.
        let mem = prof.memory_bound_fraction();
        let core = prof.core_bound_fraction();
        WorkloadBreakdown {
            name: name.to_string(),
            backend_bound: 0.55 + 0.25 * mem.max(core),
            core_bound: core,
            memory_bound: mem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = PhaseProfile {
            reads: 1,
            seed_time: Duration::from_millis(10),
            verify_time: Duration::from_millis(30),
            index_ops: 5,
            dp_cells: 100,
            candidates: 3,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.reads, 2);
        assert_eq!(a.index_ops, 10);
        assert_eq!(a.seed_time, Duration::from_millis(20));
    }

    #[test]
    fn fractions_sum_to_one() {
        let p = PhaseProfile {
            seed_time: Duration::from_millis(25),
            verify_time: Duration::from_millis(75),
            ..Default::default()
        };
        assert!((p.memory_bound_fraction() + p.core_bound_fraction() - 1.0).abs() < 1e-9);
        assert!((p.core_bound_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_profile_is_zero() {
        let p = PhaseProfile::default();
        assert_eq!(p.memory_bound_fraction(), 0.0);
        assert_eq!(p.core_bound_fraction(), 0.0);
    }

    #[test]
    fn breakdown_shape() {
        // SNAP-like: verify-heavy -> core-bound.
        let snap = PhaseProfile {
            seed_time: Duration::from_millis(20),
            verify_time: Duration::from_millis(80),
            ..Default::default()
        };
        let b = WorkloadBreakdown::from_profile("snap", &snap);
        assert!(b.core_bound > b.memory_bound);

        // BWA-like: seed-heavy -> memory-bound.
        let bwa = PhaseProfile {
            seed_time: Duration::from_millis(70),
            verify_time: Duration::from_millis(30),
            ..Default::default()
        };
        let b = WorkloadBreakdown::from_profile("bwa", &bwa);
        assert!(b.memory_bound > b.core_bound);
        assert!(b.backend_bound > 0.5);
    }
}
