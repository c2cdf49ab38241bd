//! Byte and operation accounting for a throttled store.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe I/O counters.
#[derive(Debug, Default, Clone)]
pub struct StoreStats {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
}

/// A point-in-time snapshot of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Total bytes served by `get`.
    pub bytes_read: u64,
    /// Total bytes accepted by `put`.
    pub bytes_written: u64,
    /// Number of `get` calls.
    pub reads: u64,
    /// Number of `put` calls.
    pub writes: u64,
}

impl StoreStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a read of `n` bytes.
    pub fn record_read(&self, n: usize) {
        self.inner.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
        self.inner.reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a write of `n` bytes.
    pub fn record_write(&self, n: usize) {
        self.inner.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
        self.inner.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            bytes_read: self.inner.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.inner.bytes_written.load(Ordering::Relaxed),
            reads: self.inner.reads.load(Ordering::Relaxed),
            writes: self.inner.writes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let s = StoreStats::new();
        s.record_read(100);
        s.record_read(50);
        s.record_write(10);
        let snap = s.snapshot();
        assert_eq!(snap.bytes_read, 150);
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.bytes_written, 10);
        assert_eq!(snap.writes, 1);
    }

    #[test]
    fn clones_share_state() {
        let s = StoreStats::new();
        let s2 = s.clone();
        s2.record_write(7);
        assert_eq!(s.snapshot().bytes_written, 7);
    }
}
