//! Per-node busy/idle accounting and utilization timelines.
//!
//! This instrumentation regenerates the paper's Fig. 5 (CPU utilization
//! over time under different storage configurations) and supports the
//! "negligible framework overhead" claim (§4, §5.4): busy time is work
//! done inside node bodies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared counters for one node (across its parallel workers).
#[derive(Debug, Default)]
pub struct NodeCounters {
    /// Items processed (node-defined unit, typically queue messages).
    pub items: AtomicU64,
    /// Nanoseconds spent in node code between blocking operations.
    pub busy_ns: AtomicU64,
}

/// Immutable snapshot of one node's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeSnapshot {
    /// Items processed so far.
    pub items: u64,
    /// Cumulative busy, nanoseconds.
    pub busy_ns: u64,
}

impl NodeCounters {
    /// Takes a snapshot.
    pub fn snapshot(&self) -> NodeSnapshot {
        NodeSnapshot {
            items: self.items.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

/// One sample of whole-graph utilization.
#[derive(Debug, Clone, Copy)]
pub struct UtilSample {
    /// Time since the run started.
    pub at: Duration,
    /// Busy worker-seconds per wall-second in the sampling interval,
    /// i.e. the average number of busy threads.
    pub busy_threads: f64,
}

/// A sampled utilization timeline for a graph run.
#[derive(Debug, Clone, Default)]
pub struct UtilizationTimeline {
    /// Samples in time order.
    pub samples: Vec<UtilSample>,
    /// Total workers in the graph (for normalizing to a percentage).
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

/// Samples aggregate busy_ns deltas from a set of node counters on a
/// fixed interval, on a background thread.
pub struct Sampler {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<UtilizationTimeline>>,
}

impl Sampler {
    /// Starts sampling `nodes` every `interval`.
    pub fn start(nodes: Vec<Arc<NodeCounters>>, total_workers: usize, interval: Duration) -> Self {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("df-sampler".to_string())
            .spawn(move || {
                let started = Instant::now();
                let mut timeline = UtilizationTimeline { samples: Vec::new(), total_workers };
                let mut last_busy = 0u64;
                let mut last_t = Instant::now();
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    let now = Instant::now();
                    let busy: u64 = nodes.iter().map(|n| n.busy_ns.load(Ordering::Relaxed)).sum();
                    let dt = now.duration_since(last_t).as_nanos() as f64;
                    if dt > 0.0 {
                        let d_busy = busy.saturating_sub(last_busy) as f64;
                        timeline
                            .samples
                            .push(UtilSample { at: started.elapsed(), busy_threads: d_busy / dt });
                    }
                    last_busy = busy;
                    last_t = now;
                }
                timeline
            })
            .expect("spawn sampler");
        Sampler { stop, handle: Some(handle) }
    }

    /// Stops sampling and returns the collected timeline.
    pub fn finish(mut self) -> UtilizationTimeline {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.take().expect("sampler already finished").join().expect("sampler panicked")
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let c = NodeCounters::default();
        c.items.fetch_add(5, Ordering::Relaxed);
        c.busy_ns.fetch_add(100, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.items, 5);
        assert_eq!(s.busy_ns, 100);
    }

    #[test]
    fn sampler_measures_busy_work() {
        let counters = Arc::new(NodeCounters::default());
        let sampler = Sampler::start(vec![counters.clone()], 1, Duration::from_millis(10));
        // Simulate a worker that is ~100% busy for ~120 ms.
        let start = Instant::now();
        let mut last = Instant::now();
        while start.elapsed() < Duration::from_millis(120) {
            std::thread::sleep(Duration::from_millis(5));
            let now = Instant::now();
            counters
                .busy_ns
                .fetch_add(now.duration_since(last).as_nanos() as u64, Ordering::Relaxed);
            last = now;
        }
        let timeline = sampler.finish();
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
