//! A bandwidth-throttled store: an inner [`ChunkStore`] metered
//! through token buckets.

use std::io;
use std::sync::Arc;

use persona_agd::chunk_io::ChunkStore;
use persona_telemetry::clock::{Clock, RealClock};

use crate::bandwidth::TokenBucket;
use crate::stats::StoreStats;

/// A disk's bandwidth, as the caller chooses it.
#[derive(Debug, Clone, Copy)]
pub struct DiskConfig {
    /// Sequential read bandwidth, bytes/second.
    pub read_bw: f64,
    /// Sequential write bandwidth, bytes/second.
    pub write_bw: f64,
    /// Whether reads and writes share one head (single spindle).
    pub shared: bool,
}

/// A [`ChunkStore`] that meters an inner store through token buckets.
///
/// With `shared` disks, one bucket throttles both directions (reads and
/// writes compete); otherwise reads and writes are independent.
pub struct ThrottledStore<S: ChunkStore> {
    inner: S,
    read_bucket: TokenBucket,
    write_bucket: Option<TokenBucket>,
    stats: StoreStats,
}

impl<S: ChunkStore> ThrottledStore<S> {
    /// Wraps `inner` with the given disk model on the real clock.
    pub fn new(inner: S, config: DiskConfig) -> Self {
        Self::with_clock(inner, config, RealClock::new())
    }

    /// Wraps `inner` metering time against an explicit clock (tests use
    /// a manual clock so modeled transfers don't really sleep).
    pub fn with_clock(inner: S, config: DiskConfig, clock: Arc<dyn Clock>) -> Self {
        let read_bucket = TokenBucket::bytes_per_sec_with(config.read_bw, clock.clone());
        let write_bucket = if config.shared {
            None
        } else {
            Some(TokenBucket::bytes_per_sec_with(config.write_bw, clock))
        };
        ThrottledStore { inner, read_bucket, write_bucket, stats: StoreStats::new() }
    }

    /// The I/O counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }
}

impl<S: ChunkStore> ChunkStore for ThrottledStore<S> {
    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        let data = self.inner.get(name)?;
        self.read_bucket.consume(data.len());
        self.stats.record_read(data.len());
        Ok(data)
    }

    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        match &self.write_bucket {
            Some(b) => b.consume(data.len()),
            None => self.read_bucket.consume(data.len()),
        }
        self.stats.record_write(data.len());
        self.inner.put(name, data)
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        self.inner.delete(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_agd::chunk_io::MemStore;
    use persona_telemetry::clock::ManualClock;
    use std::time::Duration;

    #[test]
    fn throttled_reads_respect_bandwidth() {
        let clock = ManualClock::new();
        let store = ThrottledStore::with_clock(
            MemStore::new(),
            DiskConfig { read_bw: 1_000_000.0, write_bw: 1_000_000.0, shared: false },
            clock.clone(),
        );
        store.put("x", &vec![0u8; 200_000]).unwrap();
        let t0 = clock.elapsed();
        store.get("x").unwrap();
        store.get("x").unwrap();
        // ~400 KB at 1 MB/s minus the 50 KB burst: 350 ms of modeled
        // transfer time, deterministic on the virtual clock.
        let elapsed = clock.elapsed() - t0;
        assert!(elapsed >= Duration::from_millis(340), "elapsed {elapsed:?}");
        assert!(elapsed <= Duration::from_millis(360), "elapsed {elapsed:?}");
        let snap = store.stats().snapshot();
        assert_eq!(snap.bytes_read, 400_000);
        assert_eq!(snap.bytes_written, 200_000);
    }

    #[test]
    fn shared_disk_makes_writes_compete_with_reads() {
        let time_mixed_io = |shared: bool| {
            let clock = ManualClock::new();
            let store = ThrottledStore::with_clock(
                MemStore::new(),
                DiskConfig { read_bw: 2_000_000.0, write_bw: 2_000_000.0, shared },
                clock.clone(),
            );
            store.put("a", &vec![1u8; 100_000]).unwrap();
            let t0 = clock.elapsed();
            for _ in 0..3 {
                store.get("a").unwrap();
                store.put("b", &vec![2u8; 100_000]).unwrap();
            }
            clock.elapsed() - t0
        };
        let shared_time = time_mixed_io(true);
        let split_time = time_mixed_io(false);
        assert!(
            shared_time > split_time,
            "shared {shared_time:?} should be slower than split {split_time:?}"
        );
    }
}
