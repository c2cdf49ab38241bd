//! Blocking token buckets for bandwidth metering.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::clock::{Clock, RealClock};

struct Bucket {
    /// Bytes currently available.
    tokens: f64,
    /// Last refill timestamp (clock time).
    last: Duration,
}

/// A byte-rate token bucket. `consume(n)` blocks the caller until `n`
/// bytes of budget have accrued, which makes wall-clock time through the
/// store proportional to modeled bandwidth. Time comes from a [`Clock`],
/// so tests can virtualize the waiting.
#[derive(Clone)]
pub struct TokenBucket {
    inner: Arc<Mutex<Bucket>>,
    clock: Arc<dyn Clock>,
    rate: f64,
    burst: f64,
}

impl TokenBucket {
    /// Creates a bucket with `rate` bytes/second and a burst allowance
    /// of one `burst_window` worth of rate, on the real clock.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn new(rate: f64, burst_window: Duration) -> Self {
        Self::with_clock(rate, burst_window, RealClock::new())
    }

    /// Creates a bucket metering against an explicit clock.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn with_clock(rate: f64, burst_window: Duration, clock: Arc<dyn Clock>) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        let burst = (rate * burst_window.as_secs_f64()).max(1.0);
        TokenBucket {
            inner: Arc::new(Mutex::new(Bucket { tokens: burst, last: clock.now() })),
            clock,
            rate,
            burst,
        }
    }

    /// Creates a bucket with rate in bytes/second and a 50 ms burst.
    pub fn bytes_per_sec(rate: f64) -> Self {
        Self::new(rate, Duration::from_millis(50))
    }

    /// Like [`TokenBucket::bytes_per_sec`], on an explicit clock.
    pub fn bytes_per_sec_with(rate: f64, clock: Arc<dyn Clock>) -> Self {
        Self::with_clock(rate, Duration::from_millis(50), clock)
    }

    /// Consumes `n` bytes of budget, sleeping as needed.
    ///
    /// Uses a deficit model: the balance is debited immediately (it may
    /// go negative) and the caller sleeps until the debt would be repaid
    /// at the configured rate. Idle accumulation stays capped at the
    /// burst size, so quiet periods cannot bank unbounded credit.
    pub fn consume(&self, n: usize) {
        let wait = {
            let mut b = self.inner.lock();
            let now = self.clock.now();
            b.tokens =
                (b.tokens + now.saturating_sub(b.last).as_secs_f64() * self.rate).min(self.burst);
            b.last = now;
            b.tokens -= n as f64;
            if b.tokens >= 0.0 {
                return;
            }
            Duration::from_secs_f64(-b.tokens / self.rate)
        };
        self.clock.sleep(wait);
    }

    /// Non-blocking: consumes up to `n`, returning how much was granted.
    pub fn try_consume(&self, n: usize) -> usize {
        let mut b = self.inner.lock();
        let now = self.clock.now();
        b.tokens =
            (b.tokens + now.saturating_sub(b.last).as_secs_f64() * self.rate).min(self.burst);
        b.last = now;
        let granted = (n as f64).min(b.tokens.max(0.0));
        b.tokens -= granted;
        granted as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn enforces_rate() {
        // 1 MB/s; consuming 200 KB beyond the burst must take ~0.19 s of
        // (virtual) time: 10 ms of burst credit, 190 KB of debt.
        let clock = ManualClock::new();
        let bucket = TokenBucket::with_clock(1_000_000.0, Duration::from_millis(10), clock.clone());
        bucket.consume(200_000);
        let elapsed = clock.elapsed();
        assert!(elapsed >= Duration::from_millis(185), "elapsed {elapsed:?}");
        assert!(elapsed <= Duration::from_millis(195), "elapsed {elapsed:?}");
    }

    #[test]
    fn burst_passes_quickly() {
        let clock = ManualClock::new();
        let bucket =
            TokenBucket::with_clock(1_000_000.0, Duration::from_millis(100), clock.clone());
        bucket.consume(50_000); // Half the burst: no waiting at all.
        assert_eq!(clock.elapsed(), Duration::ZERO);
    }

    #[test]
    fn shared_across_threads() {
        let clock = ManualClock::new();
        let bucket = TokenBucket::with_clock(2_000_000.0, Duration::from_millis(10), clock.clone());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b = bucket.clone();
            handles.push(std::thread::spawn(move || b.consume(100_000)));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 400 KB at 2 MB/s ≈ 200 ms minus the 20 KB burst: at least the
        // deepest debt any consumer observed must have elapsed.
        let elapsed = clock.elapsed();
        assert!(elapsed >= Duration::from_millis(120), "elapsed {elapsed:?}");
    }

    #[test]
    fn try_consume_grants_partial() {
        let clock = ManualClock::new();
        let bucket = TokenBucket::with_clock(1000.0, Duration::from_millis(100), clock);
        let got = bucket.try_consume(1_000_000);
        assert!(got <= 101); // At most the burst.
        let got2 = bucket.try_consume(1_000_000);
        assert!(got2 <= 5);
    }

    #[test]
    fn real_clock_is_the_default() {
        let bucket = TokenBucket::bytes_per_sec(10_000_000.0);
        let start = std::time::Instant::now();
        bucket.consume(1000); // Within burst: returns immediately.
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = TokenBucket::bytes_per_sec(0.0);
    }
}
