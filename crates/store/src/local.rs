//! Local-disk models: bandwidth-throttled stores and a writeback-cache
//! disk that reproduces the Fig. 5a read/write interference.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use persona_agd::chunk_io::ChunkStore;

use crate::bandwidth::TokenBucket;
use crate::clock::{Clock, RealClock};
use crate::stats::StoreStats;

/// Named disk configurations matching the paper's testbed (§5.1).
#[derive(Debug, Clone, Copy)]
pub struct DiskConfig {
    /// Sequential read bandwidth, bytes/second.
    pub read_bw: f64,
    /// Sequential write bandwidth, bytes/second.
    pub write_bw: f64,
    /// Whether reads and writes share one head (single spindle).
    pub shared: bool,
}

impl DiskConfig {
    /// One 7200 RPM SATA disk, scaled by `scale` (use small scales to
    /// keep experiment wall-clock short while preserving ratios).
    pub fn single_disk(scale: f64) -> Self {
        DiskConfig { read_bw: 160.0e6 * scale, write_bw: 150.0e6 * scale, shared: true }
    }

    /// A 6-disk hardware RAID0 array (the paper's configuration).
    pub fn raid0(scale: f64) -> Self {
        DiskConfig {
            read_bw: 6.0 * 160.0e6 * scale,
            write_bw: 6.0 * 150.0e6 * scale,
            shared: false,
        }
    }
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

/// A single-spindle disk with an OS-style writeback cache.
///
/// `put` lands in a bounded dirty buffer and returns immediately; a
/// background flusher drains the buffer through the *same* bandwidth
/// bucket that reads use, in bursts once the dirty ratio crosses a
/// threshold — reproducing the cyclical CPU-utilization dips the paper
/// shows for SNAP on a single disk (Fig. 5a): "during periods of
/// writeback, the application is unable to read input data fast enough
/// and threads go idle".
pub struct WritebackDisk<S: ChunkStore + 'static> {
    inner: Arc<S>,
    bucket: TokenBucket,
    state: Arc<WbState>,
    stats: StoreStats,
    flusher: Option<std::thread::JoinHandle<()>>,
}

struct WbState {
    dirty: Mutex<VecDeque<(String, Vec<u8>)>>,
    /// Entries the flusher has removed from `dirty` but not yet landed
    /// in the backing store (read-visible to avoid a lost-read window).
    in_flight: Mutex<std::collections::HashMap<String, Vec<u8>>>,
    dirty_bytes: AtomicU64,
    capacity: u64,
    /// Flush begins above this many dirty bytes, then drains fully.
    high_water: u64,
    cv: Condvar,
    shutdown: AtomicBool,
}

impl<S: ChunkStore + 'static> WritebackDisk<S> {
    /// Creates a writeback disk over `inner` with the given bandwidth
    /// and cache capacity, on the real clock.
    pub fn new(inner: S, config: DiskConfig, cache_capacity: u64) -> Self {
        Self::with_clock(inner, config, cache_capacity, RealClock::new())
    }

    /// Creates a writeback disk metering time against an explicit clock.
    pub fn with_clock(
        inner: S,
        config: DiskConfig,
        cache_capacity: u64,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let inner = Arc::new(inner);
        let bucket = TokenBucket::bytes_per_sec_with(config.read_bw, clock);
        let state = Arc::new(WbState {
            dirty: Mutex::new(VecDeque::new()),
            in_flight: Mutex::new(std::collections::HashMap::new()),
            dirty_bytes: AtomicU64::new(0),
            capacity: cache_capacity.max(1),
            high_water: (cache_capacity / 2).max(1),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let flusher = {
            let state = state.clone();
            let inner = inner.clone();
            let bucket = bucket.clone();
            std::thread::Builder::new()
                .name("writeback-flusher".to_string())
                .spawn(move || flusher_loop(state, inner, bucket))
                .expect("spawn flusher")
        };
        WritebackDisk { inner, bucket, state, stats: StoreStats::new(), flusher: Some(flusher) }
    }

    /// The I/O counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Blocks until all dirty data has reached the backing store.
    pub fn sync(&self) {
        let mut dirty = self.state.dirty.lock();
        while !dirty.is_empty() || self.state.dirty_bytes.load(Ordering::Relaxed) > 0 {
            self.state.cv.notify_all();
            self.state.cv.wait_for(&mut dirty, Duration::from_millis(10));
        }
    }

    /// Current dirty bytes (for tests and instrumentation).
    pub fn dirty_bytes(&self) -> u64 {
        self.state.dirty_bytes.load(Ordering::Relaxed)
    }
}

fn flusher_loop<S: ChunkStore>(state: Arc<WbState>, inner: Arc<S>, bucket: TokenBucket) {
    loop {
        // Wait until the high-water mark (burst flushing, like pdflush)
        // or shutdown.
        let batch: Vec<(String, Vec<u8>)> = {
            let mut dirty = state.dirty.lock();
            // Coalescing deadline, anchored to the *first dirty write*
            // of the current batch (so idle time never counts toward
            // it) and tracked explicitly (so notifications — e.g.
            // `sync` pinging every few ms — cannot keep resetting the
            // timeout and defer the flush indefinitely).
            let mut first_dirty: Option<std::time::Instant> = None;
            loop {
                if state.shutdown.load(Ordering::SeqCst) {
                    // Final drain.
                    break;
                }
                if state.dirty_bytes.load(Ordering::Relaxed) >= state.high_water {
                    break;
                }
                if dirty.is_empty() {
                    first_dirty = None;
                } else {
                    let since = first_dirty.get_or_insert_with(std::time::Instant::now);
                    // Periodic background flush of whatever is present.
                    if since.elapsed() >= Duration::from_millis(20) {
                        break;
                    }
                }
                let _ = state.cv.wait_for(&mut dirty, Duration::from_millis(20));
            }
            // Move the batch to the in-flight map *before* releasing the
            // dirty lock, so reads never observe a gap.
            let batch: Vec<(String, Vec<u8>)> = dirty.drain(..).collect();
            let mut in_flight = state.in_flight.lock();
            for (name, data) in &batch {
                in_flight.insert(name.clone(), data.clone());
            }
            batch
        };
        if batch.is_empty() {
            if state.shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        }
        for (name, data) in batch {
            // Writeback competes with reads for the single spindle.
            bucket.consume(data.len());
            let _ = inner.put(&name, &data);
            state.in_flight.lock().remove(&name);
            state.dirty_bytes.fetch_sub(data.len() as u64, Ordering::Relaxed);
            state.cv.notify_all();
        }
    }
}

impl<S: ChunkStore + 'static> ChunkStore for WritebackDisk<S> {
    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        // Serve from the dirty cache first (read-after-write coherence).
        {
            let dirty = self.state.dirty.lock();
            if let Some((_, data)) = dirty.iter().rev().find(|(n, _)| n == name) {
                let data = data.clone();
                self.stats.record_read(data.len());
                return Ok(data);
            }
        }
        if let Some(data) = self.state.in_flight.lock().get(name).cloned() {
            self.stats.record_read(data.len());
            return Ok(data);
        }
        let data = self.inner.get(name)?;
        self.bucket.consume(data.len());
        self.stats.record_read(data.len());
        Ok(data)
    }

    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut dirty = self.state.dirty.lock();
        // Block while the cache is full (memory pressure).
        while self.state.dirty_bytes.load(Ordering::Relaxed) + data.len() as u64
            > self.state.capacity
        {
            self.state.cv.notify_all();
            self.state.cv.wait_for(&mut dirty, Duration::from_millis(5));
        }
        dirty.push_back((name.to_string(), data.to_vec()));
        self.state.dirty_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.stats.record_write(data.len());
        self.state.cv.notify_all();
        Ok(())
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        let mut dirty = self.state.dirty.lock();
        dirty.retain(|(n, data)| {
            let keep = n != name;
            if !keep {
                self.state.dirty_bytes.fetch_sub(data.len() as u64, Ordering::Relaxed);
            }
            keep
        });
        drop(dirty);
        self.inner.delete(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = self.inner.list()?;
        let dirty = self.state.dirty.lock();
        for (n, _) in dirty.iter() {
            if !names.contains(n) {
                names.push(n.clone());
            }
        }
        Ok(names)
    }

    fn exists(&self, name: &str) -> bool {
        {
            let dirty = self.state.dirty.lock();
            if dirty.iter().any(|(n, _)| n == name) {
                return true;
            }
        }
        if self.state.in_flight.lock().contains_key(name) {
            return true;
        }
        self.inner.exists(name)
    }
}

impl<S: ChunkStore + 'static> Drop for WritebackDisk<S> {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.cv.notify_all();
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use persona_agd::chunk_io::MemStore;
    use std::time::Instant;

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

    #[test]
    fn writeback_put_is_fast_then_flushes() {
        let disk = WritebackDisk::new(
            MemStore::new(),
            DiskConfig { read_bw: 2_000_000.0, write_bw: 2_000_000.0, shared: true },
            10_000_000,
        );
        let start = Instant::now();
        for i in 0..10 {
            disk.put(&format!("o{i}"), &vec![0u8; 100_000]).unwrap();
        }
        // 1 MB buffered writes return almost immediately.
        assert!(start.elapsed() < Duration::from_millis(100), "{:?}", start.elapsed());
        assert!(disk.dirty_bytes() > 0);
        disk.sync();
        assert_eq!(disk.dirty_bytes(), 0);
        assert!(disk.inner.exists("o9"));
    }

    #[test]
    fn writeback_read_after_write_coherent() {
        let disk = WritebackDisk::new(
            MemStore::new(),
            DiskConfig { read_bw: 10_000_000.0, write_bw: 10_000_000.0, shared: true },
            1_000_000,
        );
        disk.put("k", b"fresh").unwrap();
        assert_eq!(disk.get("k").unwrap(), b"fresh");
        assert!(disk.exists("k"));
        disk.sync();
        assert_eq!(disk.get("k").unwrap(), b"fresh");
    }

    #[test]
    fn writeback_flush_charges_modeled_bandwidth() {
        let clock = ManualClock::new();
        let disk = WritebackDisk::with_clock(
            MemStore::new(),
            DiskConfig { read_bw: 500_000.0, write_bw: 500_000.0, shared: true },
            100_000, // Tiny cache: flushing must keep up with puts.
            clock.clone(),
        );
        for i in 0..6 {
            disk.put(&format!("o{i}"), &vec![0u8; 50_000]).unwrap();
        }
        disk.sync();
        // 300 KB through the 500 KB/s spindle minus the 25 KB burst:
        // at least ~550 ms of modeled (virtual) transfer time.
        let elapsed = clock.elapsed();
        assert!(elapsed >= Duration::from_millis(500), "elapsed {elapsed:?}");
        for i in 0..6 {
            assert!(disk.inner.exists(&format!("o{i}")));
        }
    }

    #[test]
    fn writeback_delete_and_list() {
        let disk = WritebackDisk::new(
            MemStore::new(),
            DiskConfig { read_bw: 10_000_000.0, write_bw: 10_000_000.0, shared: true },
            1_000_000,
        );
        disk.put("a", b"1").unwrap();
        disk.put("b", b"2").unwrap();
        disk.delete("a").unwrap();
        let names = disk.list().unwrap();
        assert!(names.contains(&"b".to_string()));
        assert!(!names.contains(&"a".to_string()));
    }
}
