//! Utilization timelines for the paper's Fig. 5 (CPU utilization over
//! time under different storage configurations), sampled from the
//! executor's task-latency histogram: its sum is the busy time spent
//! inside node bodies, the "negligible framework overhead" fact of
//! §4 and §5.4.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use persona_telemetry::Histogram;

/// One sample of whole-executor utilization.
#[derive(Debug, Clone, Copy)]
pub struct UtilSample {
    /// Time since the run started.
    pub at: Duration,
    /// Busy worker-seconds per wall-second in the sampling interval,
    /// i.e. the average number of busy threads.
    pub busy_threads: f64,
}

/// A sampled utilization timeline for a run.
#[derive(Debug, Clone, Default)]
pub struct UtilizationTimeline {
    /// Samples in time order.
    pub samples: Vec<UtilSample>,
    /// Total workers (for normalizing to a percentage).
    pub total_workers: usize,
}

impl UtilizationTimeline {
    /// Utilization (0..=1) per sample, normalized by total workers.
    pub fn normalized(&self) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .map(|s| {
                (s.at.as_secs_f64(), (s.busy_threads / self.total_workers.max(1) as f64).min(1.0))
            })
            .collect()
    }

    /// Mean utilization over the run.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.normalized().iter().map(|&(_, u)| u).sum();
        sum / self.samples.len() as f64
    }
}

/// Runs `run` on the calling thread while a scoped thread samples the
/// growth of `busy`'s sum (nanoseconds, e.g. `executor.task_latency_ns`)
/// every `interval`, and returns `run`'s output with the timeline. The
/// last sample is taken when `run` returns (or unwinds), so the timeline
/// covers the whole run and is never empty.
pub fn sample_utilization<T>(
    busy: &Histogram,
    total_workers: usize,
    interval: Duration,
    run: impl FnOnce() -> T,
) -> (T, UtilizationTimeline) {
    let (done, finished) = mpsc::channel::<()>();
    let started = Instant::now();
    let (mut last_busy, mut last_t) = (busy.snapshot().sum, started);
    std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            let mut timeline = UtilizationTimeline { samples: Vec::new(), total_workers };
            loop {
                let stop = finished.recv_timeout(interval) == Err(RecvTimeoutError::Disconnected);
                let (now, sum) = (Instant::now(), busy.snapshot().sum);
                let dt = now.duration_since(last_t).as_nanos().max(1) as f64;
                let busy_threads = sum.saturating_sub(last_busy) as f64 / dt;
                timeline.samples.push(UtilSample { at: now - started, busy_threads });
                if stop {
                    return timeline;
                }
                (last_busy, last_t) = (sum, now);
            }
        });
        let out = run();
        drop(done);
        (out, sampler.join().expect("sampler panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_telemetry::MetricsRegistry;

    fn histogram() -> Histogram {
        MetricsRegistry::new().histogram("executor.task_latency_ns")
    }

    #[test]
    fn snapshot_reflects_counters() {
        let h = histogram();
        for ns in [10, 20, 30, 15, 25] {
            h.observe(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 100);
    }

    #[test]
    fn sampler_measures_busy_work() {
        let busy = histogram();
        let ((), timeline) = sample_utilization(&busy, 1, Duration::from_millis(10), || {
            // Simulate a worker that is ~100% busy for ~120 ms.
            let start = Instant::now();
            let mut last = Instant::now();
            while start.elapsed() < Duration::from_millis(120) {
                std::thread::sleep(Duration::from_millis(5));
                let now = Instant::now();
                busy.observe(now.duration_since(last).as_nanos() as u64);
                last = now;
            }
        });
        assert!(!timeline.samples.is_empty());
        let mean = timeline.mean();
        assert!(mean > 0.5, "mean utilization {mean}");
    }

    #[test]
    fn empty_timeline_mean_is_zero() {
        let t = UtilizationTimeline::default();
        assert_eq!(t.mean(), 0.0);
    }

    #[test]
    fn normalization_caps_at_one() {
        let t = UtilizationTimeline {
            samples: vec![UtilSample { at: Duration::from_secs(1), busy_threads: 10.0 }],
            total_workers: 4,
        };
        assert_eq!(t.normalized()[0].1, 1.0);
    }
}
