//! A bandwidth-throttled store: an inner [`ChunkStore`] metered
//! through token buckets.

use std::io;
use std::sync::Arc;

use persona_agd::chunk_io::ChunkStore;
use persona_telemetry::clock::{Clock, RealClock};

use crate::bandwidth::TokenBucket;

/// A [`ChunkStore`] that meters an inner store's reads and writes
/// through two independent token buckets.
pub struct ThrottledStore<S: ChunkStore> {
    inner: S,
    read_bucket: TokenBucket,
    write_bucket: TokenBucket,
}

impl<S: ChunkStore> ThrottledStore<S> {
    /// Wraps `inner` at `read_bw` and `write_bw` bytes/second on the
    /// real clock.
    pub fn new(inner: S, read_bw: f64, write_bw: f64) -> Self {
        Self::with_clock(inner, read_bw, write_bw, RealClock::new())
    }

    /// Wraps `inner` metering time against an explicit clock (tests use
    /// a manual clock so metered transfers don't really sleep).
    pub fn with_clock(inner: S, read_bw: f64, write_bw: f64, clock: Arc<dyn Clock>) -> Self {
        ThrottledStore {
            inner,
            read_bucket: TokenBucket::bytes_per_sec_with(read_bw, clock.clone()),
            write_bucket: TokenBucket::bytes_per_sec_with(write_bw, clock),
        }
    }
}

impl<S: ChunkStore> ChunkStore for ThrottledStore<S> {
    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        let data = self.inner.get(name)?;
        self.read_bucket.consume(data.len());
        Ok(data)
    }

    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.write_bucket.consume(data.len());
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
        let store =
            ThrottledStore::with_clock(MemStore::new(), 1_000_000.0, 1_000_000.0, clock.clone());
        store.put("x", &vec![0u8; 200_000]).unwrap();
        let t0 = clock.elapsed();
        store.get("x").unwrap();
        store.get("x").unwrap();
        // ~400 KB at 1 MB/s minus the 50 KB burst: 350 ms of metered
        // transfer time, deterministic on the virtual clock.
        let elapsed = clock.elapsed() - t0;
        assert!(elapsed >= Duration::from_millis(340), "elapsed {elapsed:?}");
        assert!(elapsed <= Duration::from_millis(360), "elapsed {elapsed:?}");
    }
}
