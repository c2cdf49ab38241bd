//! Pipeline configuration.
//!
//! Defaults follow the paper: the executor owns all remaining hardware
//! threads (§4.3), and work reaches it in fine-grain subchunks (Fig. 4).
//! Everything else — how many chunks a stage keeps in flight, how far a
//! fused producer may run ahead — is derived from the executor's thread
//! count ([`PersonaRuntime`](crate::runtime::PersonaRuntime)).

/// Tuning knobs for Persona pipelines on one server.
#[derive(Debug, Clone, Copy)]
pub struct PersonaConfig {
    /// Threads owned by the compute executor (the paper's best single-
    /// node configuration uses 47 aligner threads on a 48-thread box,
    /// leaving one for I/O).
    pub compute_threads: usize,
    /// Reads per executor subchunk task (Fig. 4: the fine-grain unit).
    pub subchunk_size: usize,
}

impl Default for PersonaConfig {
    fn default() -> Self {
        let hw = std::thread::available_parallelism().ok();
        PersonaConfig { compute_threads: compute_threads_for(hw), subchunk_size: 512 }
    }
}

/// Compute threads on a machine of `hw` hardware threads: all but one
/// (§4.3), and one when the count is unknown.
fn compute_threads_for(hw: Option<std::num::NonZeroUsize>) -> usize {
    hw.map_or(1, |n| (n.get() - 1).max(1))
}

impl PersonaConfig {
    /// A configuration sized for tests: few threads, tiny subchunks.
    pub fn small() -> Self {
        PersonaConfig { compute_threads: 2, subchunk_size: 64 }
    }

    /// Checks that the configuration can actually run a pipeline.
    ///
    /// A zero `compute_threads` (or zero subchunk size) would deadlock
    /// or panic deep inside a stage, so the runtime rejects it up front
    /// with a clear message.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let check = |n: usize, what: &str| {
            if n == 0 {
                Err(format!("{what} must be at least 1 (got 0)"))
            } else {
                Ok(())
            }
        };
        check(self.compute_threads, "compute_threads")?;
        check(self.subchunk_size, "subchunk_size")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_thread_count_falls_back_to_one() {
        let hw = |n| std::num::NonZeroUsize::new(n);
        assert_eq!(compute_threads_for(None), 1);
        assert_eq!(compute_threads_for(hw(1)), 1);
        assert_eq!(compute_threads_for(hw(2)), 1);
        assert_eq!(compute_threads_for(hw(8)), 7);
    }

    #[test]
    fn default_uses_most_threads() {
        let c = PersonaConfig::default();
        assert!(c.compute_threads >= 1);
        assert!(c.subchunk_size > 0);
    }

    #[test]
    fn validate_rejects_zero_compute_threads() {
        let c = PersonaConfig { compute_threads: 0, ..PersonaConfig::default() };
        let err = c.validate().unwrap_err();
        assert!(err.contains("compute_threads"), "{err}");
        assert!(PersonaConfig::default().validate().is_ok());
        assert!(PersonaConfig::small().validate().is_ok());
    }
}
