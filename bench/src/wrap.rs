//! Bench-side wrappers over the program's public traits: they count
//! and time what crosses a layer boundary inside a real run, without
//! touching the program.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use persona_agd::chunk_io::ChunkStore;
use persona_agd::results::AlignmentResult;
use persona_align::profile::PhaseProfile;
use persona_align::Aligner;

use crate::catalog::Measured;
use crate::stats::ratio;

/// A `ChunkStore` that passes every call through and counts operations,
/// bytes and time spent in `put` / `get`.
pub struct CountingStore {
    inner: Arc<dyn ChunkStore>,
    put_ops: AtomicU64,
    get_ops: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    put_ns: AtomicU64,
    get_ns: AtomicU64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    pub put_ops: u64,
    pub get_ops: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub put_ns: u64,
    pub get_ns: u64,
}

impl StoreCounts {
    /// The `store.*` rows. Times are scaled by `delivered`, the share
    /// of CPU time delivered while the counts were taken.
    pub fn report(&self, delivered: f64, m: &mut Measured) {
        let (put_ns, get_ns) = (self.put_ns as f64 * delivered, self.get_ns as f64 * delivered);
        m.single("store.put_ops", self.put_ops as f64, "count");
        m.single("store.get_ops", self.get_ops as f64, "count");
        m.single("store.bytes_written", self.bytes_written as f64, "bytes");
        m.single("store.bytes_read", self.bytes_read as f64, "bytes");
        m.single("store.busy_s", (put_ns + get_ns) / 1e9, "s");
        m.single("store.put_ns_per_byte", ratio(put_ns, self.bytes_written as f64), "ns/byte");
        m.single("store.get_ns_per_byte", ratio(get_ns, self.bytes_read as f64), "ns/byte");
    }
}

impl CountingStore {
    pub fn new(inner: Arc<dyn ChunkStore>) -> Arc<CountingStore> {
        Arc::new(CountingStore {
            inner,
            put_ops: AtomicU64::new(0),
            get_ops: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            put_ns: AtomicU64::new(0),
            get_ns: AtomicU64::new(0),
        })
    }

    /// Reads the counters and sets them back to zero.
    pub fn take(&self) -> StoreCounts {
        StoreCounts {
            put_ops: self.put_ops.swap(0, Ordering::Relaxed),
            get_ops: self.get_ops.swap(0, Ordering::Relaxed),
            bytes_written: self.bytes_written.swap(0, Ordering::Relaxed),
            bytes_read: self.bytes_read.swap(0, Ordering::Relaxed),
            put_ns: self.put_ns.swap(0, Ordering::Relaxed),
            get_ns: self.get_ns.swap(0, Ordering::Relaxed),
        }
    }
}

impl ChunkStore for CountingStore {
    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        let t = Instant::now();
        let out = self.inner.get(name);
        self.get_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.get_ops.fetch_add(1, Ordering::Relaxed);
        if let Ok(bytes) = &out {
            self.bytes_read.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let out = self.inner.put(name, data);
        self.put_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.put_ops.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(data.len() as u64, Ordering::Relaxed);
        out
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

/// An `Aligner` that delegates to `align_read_profiled` and keeps the
/// wall time of every call.
pub struct TimingAligner {
    inner: Arc<dyn Aligner>,
    read_ns: Mutex<Vec<u32>>,
}

impl TimingAligner {
    pub fn new(inner: Arc<dyn Aligner>) -> Arc<TimingAligner> {
        Arc::new(TimingAligner { inner, read_ns: Mutex::new(Vec::new()) })
    }

    /// The per-read times recorded so far, leaving the log empty.
    pub fn take(&self) -> Vec<u32> {
        std::mem::take(&mut *self.read_ns.lock().expect("timing log poisoned"))
    }
}

impl Aligner for TimingAligner {
    fn align_read(&self, bases: &[u8], quals: &[u8]) -> AlignmentResult {
        self.align_read_profiled(bases, quals, &mut PhaseProfile::default())
    }

    fn align_read_profiled(
        &self,
        bases: &[u8],
        quals: &[u8],
        prof: &mut PhaseProfile,
    ) -> AlignmentResult {
        let t = Instant::now();
        let out = self.inner.align_read_profiled(bases, quals, prof);
        let ns = t.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        self.read_ns.lock().expect("timing log poisoned").push(ns);
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_agd::chunk_io::MemStore;

    #[test]
    fn counting_store_passes_bytes_through_unchanged() {
        let inner: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let store = CountingStore::new(inner.clone());
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        store.put("a.bases", &payload).unwrap();
        store.put("b.qual", b"xyz").unwrap();
        assert_eq!(inner.get("a.bases").unwrap(), payload, "the wrapped store holds the bytes");
        assert_eq!(store.get("a.bases").unwrap(), payload, "reads come back unchanged");
        assert!(store.get("missing").is_err());
        assert!(store.exists("b.qual"));
        let mut names = store.list().unwrap();
        names.sort();
        assert_eq!(names, ["a.bases", "b.qual"]);
        let counts = store.take();
        assert_eq!(
            (counts.put_ops, counts.get_ops, counts.bytes_written, counts.bytes_read),
            (2, 2, 10_003, 10_000)
        );
        store.delete("b.qual").unwrap();
        assert!(!inner.exists("b.qual"));
        assert_eq!(store.take(), StoreCounts::default(), "take resets; delete is not counted");
    }
}
