//! Phase-resolved aligner counters: measured seed and verify/extend
//! time plus operation counts.
//!
//! The paper's Fig. 8 classifies both aligners with VTune's top-down
//! method: SNAP *core*-bound (edit-distance loops), BWA-MEM
//! *memory*-bound (FM-index occ lookups). That needs hardware PMUs, so
//! nothing here computes a top-down share. This module records what one
//! run can measure: the wall time of the *seeding* phase
//! (data-dependent memory walks) and of the *verification/extension*
//! phase (arithmetic-dense loops), and how many index probes, DP cells
//! and candidates each read cost.

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
    /// Index probe operations: SNAP's hash lookups, or BWA's logical
    /// FM-index steps — one per base a backward search consumes plus its
    /// failing step, whether the occurrence table or, for a match
    /// finished on the reference text, a text comparison answers it —
    /// and one per seed occurrence located.
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
}
