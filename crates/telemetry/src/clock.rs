//! Time sources for trace spans and bandwidth meters.
//!
//! [`JobTrace`](crate::JobTrace) timestamps spans and
//! `persona_store`'s token buckets meter bytes against this clock. On
//! wall-clock time a trace differs from run to run and every bandwidth
//! test sleeps for real; behind this trait production code runs on the
//! real clock while tests run on a manual clock whose "sleeps" advance
//! instantly and deterministically.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// A monotonic time source for traces and bandwidth meters.
pub trait Clock: Send + Sync {
    /// Time elapsed since the clock's epoch.
    fn now(&self) -> Duration;
    /// Blocks the caller (really or virtually) for `d`.
    fn sleep(&self, d: Duration);
}

/// The real monotonic clock; `sleep` is `std::thread::sleep`.
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// Creates a real clock with epoch = now.
    pub fn new() -> Arc<Self> {
        Arc::new(RealClock { epoch: Instant::now() })
    }
}

impl Clock for RealClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A virtual clock for tests: `sleep` advances time immediately instead
/// of blocking, so modeled transfer times become assertions on virtual
/// elapsed time rather than real waiting.
///
/// Concurrency caveat: each virtual sleep advances the one global
/// counter, so overlapping sleeps from multiple threads are *summed*
/// where real time would overlap them. Virtual elapsed time is
/// therefore an upper-ish bound that understates concurrency — write
/// multi-threaded assertions as lower bounds only, and don't compare
/// virtual bandwidth figures against real-clock ones.
#[derive(Default)]
pub struct ManualClock {
    now: Mutex<Duration>,
}

impl ManualClock {
    /// Creates a manual clock at time zero.
    pub fn new() -> Arc<Self> {
        Arc::new(ManualClock::default())
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        *self.now.lock() += d;
    }

    /// Virtual time elapsed since creation.
    pub fn elapsed(&self) -> Duration {
        *self.now.lock()
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        *self.now.lock()
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_advances() {
        let clock = RealClock::new();
        let t0 = clock.now();
        std::thread::sleep(Duration::from_millis(5));
        assert!(clock.now() > t0);
    }

    #[test]
    fn manual_clock_only_moves_when_told() {
        let clock = ManualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_secs(2));
        assert_eq!(clock.now(), Duration::from_secs(2));
        let t0 = Instant::now();
        clock.sleep(Duration::from_secs(3600)); // Returns instantly.
        assert!(t0.elapsed() < Duration::from_millis(100));
        assert_eq!(clock.elapsed(), Duration::from_secs(3602));
    }
}
