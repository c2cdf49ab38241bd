//! The manifest server: a sharded message queue of chunk work items.
//!
//! Paper §5.2: "Within each server, the first stage in the graph fetches
//! a chunk name from the manifest server; the latter is implemented as a
//! simple message queue." Sharing one `ManifestServer` across several
//! per-server pipelines is what load-balances a multi-node run and, by
//! pull-based dispatch, avoids stragglers.
//!
//! A single mutex-protected queue becomes the bottleneck once many
//! pipelines (a multi-tenant service) fetch from the same server, so
//! the queue is **lock-sharded**: chunk tasks spread round-robin over N
//! independently locked shards, and `fetch` work-steals — it tries its
//! preferred shard first and then scans the others — so a burst of
//! consumers never serializes on one lock.
//!
//! Ordering contract: delivery is always exactly-once, and each shard
//! is FIFO. *Global* FIFO holds for a single-shard server and for
//! quiescent streams (all pushes complete before fetching starts, e.g.
//! a prefilled server drained by one consumer). While a producer races
//! a consumer across multiple shards, a task can be delivered a few
//! positions early — which is fine for every pipeline stage: chunks
//! carry their `chunk_idx`, and order-sensitive consumers (the SAM
//! export writer) already reassemble by index.
//!
//! Two construction modes exist:
//!
//! * [`ManifestServer::new`] — pre-filled from a manifest, for running a
//!   stage over a finished dataset. `fetch` drains the queue and then
//!   returns `None`.
//! * [`ManifestServer::streaming`] — fed incrementally through a
//!   [`ChunkFeeder`] by an upstream stage, which is how the fused
//!   pipeline chains stages: chunk names flow through this bounded
//!   queue while both stages share the compute executor. `fetch` blocks
//!   until a task arrives or the feeder is dropped.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use persona_agd::manifest::Manifest;
use persona_telemetry::{Counter, Gauge, MetricsRegistry};

/// Default shard count: enough lanes that a handful of concurrent
/// pipelines rarely collide, without scattering a small dataset too
/// thinly.
pub const DEFAULT_SHARDS: usize = 4;

/// One unit of dispatchable work: a chunk of a dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkTask {
    /// Chunk index in the manifest.
    pub chunk_idx: usize,
    /// Object-name stem (column objects are `{stem}.{column}`).
    pub stem: String,
    /// Records in the chunk.
    pub num_records: u32,
}

/// Registry handles published by a metered queue. The steal counter is
/// this subsystem's work-stealing signal: the executor never steals
/// (its lanes are priority tiers, not per-worker deques), so cross-
/// shard task theft here is where "steal counts" live.
struct QueueMetrics {
    /// `manifest.queue_occupancy`: queued-but-undispatched chunks.
    occupancy: Gauge,
    /// `manifest.steals`: fetches served from a non-preferred shard.
    steals: Counter,
}

impl QueueMetrics {
    fn register(telemetry: &MetricsRegistry) -> QueueMetrics {
        QueueMetrics {
            occupancy: telemetry.gauge("manifest.queue_occupancy"),
            steals: telemetry.counter("manifest.steals"),
        }
    }
}

/// The lock-sharded queue state shared by server handles and feeders.
struct Sharded {
    /// Independently locked task lanes.
    shards: Box<[Mutex<VecDeque<ChunkTask>>]>,
    /// Queued-but-undispatched tasks (a slot is reserved here *before*
    /// the task lands in a shard, so the bound is strict).
    len: AtomicUsize,
    /// Total capacity across all shards.
    capacity: usize,
    /// Closed: pushes fail, fetchers drain then see `None`.
    closed: AtomicBool,
    /// Live feeder handles; the queue closes when the last one drops.
    producers: AtomicUsize,
    /// Tasks ever enqueued.
    total: AtomicUsize,
    /// Round-robin tickets for shard selection.
    push_ticket: AtomicUsize,
    fetch_ticket: AtomicUsize,
    /// Sleep/wake coordination. Pushers insert into a shard *without*
    /// this lock, then take it briefly to notify, so a consumer that
    /// re-scans under the gate before sleeping can never miss an item.
    gate: Mutex<()>,
    not_empty: Condvar,
    not_full: Condvar,
    /// Registry handles, when the owning pipeline is metered.
    metrics: Option<QueueMetrics>,
}

impl Sharded {
    fn new(capacity: usize, shards: usize, telemetry: Option<&MetricsRegistry>) -> Arc<Self> {
        let shards = shards.max(1);
        Arc::new(Sharded {
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            len: AtomicUsize::new(0),
            capacity: capacity.max(1),
            closed: AtomicBool::new(false),
            producers: AtomicUsize::new(0),
            total: AtomicUsize::new(0),
            push_ticket: AtomicUsize::new(0),
            fetch_ticket: AtomicUsize::new(0),
            gate: Mutex::new(()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            metrics: telemetry.map(QueueMetrics::register),
        })
    }

    /// Blocking push; `false` once the queue is closed.
    fn push(&self, task: ChunkTask) -> bool {
        // Reserve a slot: CAS on `len` keeps the bound strict even
        // under concurrent pushers.
        loop {
            if self.closed.load(Ordering::SeqCst) {
                return false;
            }
            let cur = self.len.load(Ordering::SeqCst);
            if cur >= self.capacity {
                let mut gate = self.gate.lock();
                if self.closed.load(Ordering::SeqCst) {
                    return false;
                }
                if self.len.load(Ordering::SeqCst) >= self.capacity {
                    self.not_full.wait(&mut gate);
                }
                continue;
            }
            if self.len.compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
                break;
            }
        }
        let t = self.push_ticket.fetch_add(1, Ordering::Relaxed);
        self.shards[t % self.shards.len()].lock().push_back(task);
        self.total.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.occupancy.add(1);
        }
        // Notify under the gate: a consumer is either scanning (it will
        // find the task) or about to sleep holding the gate (this lock
        // acquisition serializes after its re-scan, so the notify
        // lands).
        let _gate = self.gate.lock();
        self.not_empty.notify_one();
        true
    }

    /// One work-stealing sweep: preferred shard first, then the rest.
    /// Decrements `len` on success; the *caller* must then call
    /// [`Sharded::notify_taken`] under the gate (this function must stay
    /// gate-free — `fetch` calls it while already holding the gate).
    fn try_steal(&self, ticket: usize) -> Option<ChunkTask> {
        let n = self.shards.len();
        for k in 0..n {
            let task = self.shards[(ticket + k) % n].lock().pop_front();
            if let Some(task) = task {
                self.len.fetch_sub(1, Ordering::SeqCst);
                if let Some(m) = &self.metrics {
                    m.occupancy.sub(1);
                    if k > 0 {
                        m.steals.inc();
                    }
                }
                return Some(task);
            }
        }
        None
    }

    /// Wakes whoever a successful take may unblock; the caller holds the
    /// gate. A producer may be waiting for room. And a task is popped
    /// before `len` drops, so on a closed queue a fetcher can see the
    /// shards empty but `len` not yet 0 and go to sleep; no push will
    /// ever wake it, so every fetcher re-checks for the end.
    fn notify_taken(&self) {
        self.not_full.notify_one();
        if self.closed.load(Ordering::SeqCst) {
            self.not_empty.notify_all();
        }
    }

    /// Blocking fetch; `None` once closed and drained.
    fn fetch(&self) -> Option<ChunkTask> {
        let ticket = self.fetch_ticket.fetch_add(1, Ordering::Relaxed);
        loop {
            if let Some(task) = self.try_steal(ticket) {
                let _gate = self.gate.lock();
                self.notify_taken();
                return Some(task);
            }
            let mut gate = self.gate.lock();
            // Re-scan under the gate: any pusher that inserted since
            // the lock-free sweep must still acquire the gate to
            // notify, so it cannot slip between this scan and the wait.
            if let Some(task) = self.try_steal(ticket) {
                self.notify_taken();
                return Some(task);
            }
            if self.closed.load(Ordering::SeqCst) && self.len.load(Ordering::SeqCst) == 0 {
                return None;
            }
            self.not_empty.wait(&mut gate);
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let _gate = self.gate.lock();
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// A shared pull-based queue of chunk tasks.
#[derive(Clone)]
pub struct ManifestServer {
    inner: Arc<Sharded>,
}

impl ManifestServer {
    /// Creates a server dispensing every chunk of `manifest`, in order,
    /// over [`DEFAULT_SHARDS`] shards.
    pub fn new(manifest: &Manifest) -> Self {
        Self::with_shards(manifest, DEFAULT_SHARDS)
    }

    /// [`ManifestServer::new`], publishing queue occupancy
    /// (`manifest.queue_occupancy`) and cross-shard steal counts
    /// (`manifest.steals`) into `telemetry` when given. The plan driver
    /// passes the runtime's registry here so every stage's dispatch
    /// queue shows up in one snapshot.
    pub fn new_metered(manifest: &Manifest, telemetry: Option<&MetricsRegistry>) -> Self {
        Self::build(manifest, DEFAULT_SHARDS, telemetry)
    }

    /// Creates a prefilled server with an explicit shard count.
    pub fn with_shards(manifest: &Manifest, shards: usize) -> Self {
        Self::build(manifest, shards, None)
    }

    fn build(manifest: &Manifest, shards: usize, telemetry: Option<&MetricsRegistry>) -> Self {
        let n = manifest.records.len();
        let inner = Sharded::new(n.max(1), shards, telemetry);
        for (i, e) in manifest.records.iter().enumerate() {
            let ok = inner.push(ChunkTask {
                chunk_idx: i,
                stem: e.path.clone(),
                num_records: e.num_records,
            });
            assert!(ok, "prefilled manifest queue cannot be closed");
        }
        // No feeder exists: close now so fetch drains the prefilled
        // tasks and then reports end-of-dataset.
        inner.close();
        ManifestServer { inner }
    }

    /// Creates an initially empty server together with the feeder that
    /// fills it. `capacity` bounds how many undispatched chunks may be
    /// queued (the fused pipeline's flow control between stages).
    pub fn streaming(capacity: usize) -> (ManifestServer, ChunkFeeder) {
        Self::streaming_with_shards(capacity, DEFAULT_SHARDS)
    }

    /// [`ManifestServer::streaming`], metered like
    /// [`ManifestServer::new_metered`].
    pub fn streaming_metered(
        capacity: usize,
        telemetry: Option<&MetricsRegistry>,
    ) -> (ManifestServer, ChunkFeeder) {
        let inner = Sharded::new(capacity, DEFAULT_SHARDS, telemetry);
        inner.producers.fetch_add(1, Ordering::SeqCst);
        (ManifestServer { inner: inner.clone() }, ChunkFeeder { inner })
    }

    /// [`ManifestServer::streaming`] with an explicit shard count.
    pub fn streaming_with_shards(capacity: usize, shards: usize) -> (ManifestServer, ChunkFeeder) {
        let inner = Sharded::new(capacity, shards, None);
        inner.producers.fetch_add(1, Ordering::SeqCst);
        (ManifestServer { inner: inner.clone() }, ChunkFeeder { inner })
    }

    /// Fetches the next chunk task; `None` once the dataset is drained.
    ///
    /// On a streaming server this blocks while the feeder is alive and
    /// the queue is empty. Each call work-steals: it tries a preferred
    /// shard (rotating per call) and then scans the remaining shards.
    pub fn fetch(&self) -> Option<ChunkTask> {
        self.inner.fetch()
    }

    /// Non-blocking fetch: returns a task only if one is queued right
    /// now. `None` means "momentarily empty" *or* end-of-dataset —
    /// callers that must distinguish the two fall back to the blocking
    /// [`ManifestServer::fetch`]. The streaming sort uses this to
    /// opportunistically batch whatever chunks upstream has already
    /// finished without ever waiting for a full batch.
    pub fn try_fetch(&self) -> Option<ChunkTask> {
        let ticket = self.inner.fetch_ticket.fetch_add(1, Ordering::Relaxed);
        let task = self.inner.try_steal(ticket)?;
        // `try_steal` is gate-free; the caller owes the notify (same
        // contract as the sweep inside `fetch`).
        let _gate = self.inner.gate.lock();
        self.inner.notify_taken();
        Some(task)
    }

    /// Chunks queued but not yet dispatched.
    pub fn remaining(&self) -> usize {
        self.inner.len.load(Ordering::SeqCst)
    }

    /// Number of lock shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Force-closes the queue: fetchers drain what is left and then see
    /// `None`, and feeder pushes fail. Used to cancel the upstream
    /// stage of a fused pair when the downstream stage dies.
    pub fn close(&self) {
        self.inner.close();
    }

    /// Total chunks ever enqueued (grows while a feeder is pushing).
    pub fn total(&self) -> usize {
        self.inner.total.load(Ordering::Relaxed)
    }
}

/// The producing end of a streaming [`ManifestServer`]. Dropping it
/// closes the queue, signalling end-of-dataset to every fetcher.
pub struct ChunkFeeder {
    inner: Arc<Sharded>,
}

impl ChunkFeeder {
    /// Enqueues one chunk task, blocking while the queue is at
    /// capacity. Returns `false` if the queue was force-closed.
    pub fn push(&self, task: ChunkTask) -> bool {
        self.inner.push(task)
    }
}

impl Clone for ChunkFeeder {
    /// Registers another producer: the stream closes only after every
    /// clone has been dropped.
    fn clone(&self) -> Self {
        self.inner.producers.fetch_add(1, Ordering::SeqCst);
        ChunkFeeder { inner: self.inner.clone() }
    }
}

impl Drop for ChunkFeeder {
    fn drop(&mut self) {
        if self.inner.producers.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.inner.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_agd::manifest::ChunkEntry;

    fn manifest(chunks: usize) -> Manifest {
        let mut m = Manifest::new("t");
        let mut first = 0u64;
        for i in 0..chunks {
            m.records.push(ChunkEntry {
                path: format!("t-{i}"),
                first_record: first,
                num_records: 10,
            });
            first += 10;
        }
        m.total_records = first;
        m
    }

    #[test]
    fn dispenses_in_order_then_empty() {
        let server = ManifestServer::new(&manifest(3));
        assert_eq!(server.total(), 3);
        assert_eq!(server.fetch().unwrap().stem, "t-0");
        assert_eq!(server.fetch().unwrap().stem, "t-1");
        assert_eq!(server.remaining(), 1);
        assert_eq!(server.fetch().unwrap().stem, "t-2");
        assert_eq!(server.fetch(), None);
    }

    #[test]
    fn single_consumer_fifo_across_any_shard_count() {
        for shards in [1, 2, 3, 7, 16] {
            let server = ManifestServer::with_shards(&manifest(40), shards);
            assert_eq!(server.shards(), shards);
            for i in 0..40 {
                assert_eq!(server.fetch().unwrap().chunk_idx, i, "{shards} shards");
            }
            assert_eq!(server.fetch(), None);
        }
    }

    #[test]
    fn shared_across_workers_no_duplicates() {
        let server = ManifestServer::new(&manifest(1000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = server.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(task) = s.fetch() {
                    got.push(task.chunk_idx);
                }
                got
            }));
        }
        let mut all: Vec<usize> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        all.sort();
        let expected: Vec<usize> = (0..1000).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn streaming_fetch_blocks_until_fed_then_drains() {
        // Multi-shard: a consumer racing the feeder still receives
        // every task exactly once (global FIFO is only promised for
        // one shard — see the module docs).
        let (server, feeder) = ManifestServer::streaming(4);
        let consumer = {
            let server = server.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(task) = server.fetch() {
                    got.push(task.chunk_idx);
                }
                got
            })
        };
        for i in 0..20 {
            assert!(feeder.push(ChunkTask {
                chunk_idx: i,
                stem: format!("s-{i}"),
                num_records: 5,
            }));
        }
        assert_eq!(server.total(), 20);
        drop(feeder); // End of dataset: consumer sees None and exits.
        let mut got = consumer.join().unwrap();
        got.sort();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn single_shard_streaming_is_strict_fifo_under_race() {
        let (server, feeder) = ManifestServer::streaming_with_shards(4, 1);
        let consumer = {
            let server = server.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(task) = server.fetch() {
                    got.push(task.chunk_idx);
                }
                got
            })
        };
        for i in 0..200 {
            assert!(feeder.push(ChunkTask {
                chunk_idx: i,
                stem: format!("s-{i}"),
                num_records: 5,
            }));
        }
        drop(feeder);
        assert_eq!(consumer.join().unwrap(), (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn streaming_capacity_applies_backpressure() {
        let (server, feeder) = ManifestServer::streaming(2);
        assert!(feeder.push(ChunkTask { chunk_idx: 0, stem: "a".into(), num_records: 1 }));
        assert!(feeder.push(ChunkTask { chunk_idx: 1, stem: "b".into(), num_records: 1 }));
        // A third push must block until a fetch frees a slot.
        let blocked = std::thread::spawn(move || {
            feeder.push(ChunkTask { chunk_idx: 2, stem: "c".into(), num_records: 1 })
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(server.remaining(), 2);
        assert_eq!(server.fetch().unwrap().stem, "a");
        assert!(blocked.join().unwrap());
        assert_eq!(server.fetch().unwrap().stem, "b");
        assert_eq!(server.fetch().unwrap().stem, "c");
    }

    #[test]
    fn try_fetch_never_blocks_and_frees_capacity() {
        let (server, feeder) = ManifestServer::streaming(2);
        // Empty stream: immediately None, no blocking.
        assert_eq!(server.try_fetch(), None);
        assert!(feeder.push(ChunkTask { chunk_idx: 0, stem: "a".into(), num_records: 1 }));
        assert!(feeder.push(ChunkTask { chunk_idx: 1, stem: "b".into(), num_records: 1 }));
        // A pusher blocked on the full queue is released by try_fetch.
        let blocked = std::thread::spawn(move || {
            feeder.push(ChunkTask { chunk_idx: 2, stem: "c".into(), num_records: 1 })
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(server.try_fetch().is_some());
        assert!(blocked.join().unwrap());
        assert!(server.try_fetch().is_some());
        assert!(server.try_fetch().is_some());
        // Drained but closed (feeder moved into the thread and dropped):
        // try_fetch still reports None without hanging.
        assert_eq!(server.try_fetch(), None);
        assert_eq!(server.fetch(), None);
    }

    #[test]
    fn push_after_close_returns_false() {
        let (server, feeder) = ManifestServer::streaming(4);
        assert!(feeder.push(ChunkTask { chunk_idx: 0, stem: "a".into(), num_records: 1 }));
        server.close();
        assert!(!feeder.push(ChunkTask { chunk_idx: 1, stem: "b".into(), num_records: 1 }));
        // Already-queued work is still drained before end-of-stream.
        assert_eq!(server.fetch().unwrap().stem, "a");
        assert_eq!(server.fetch(), None);
        assert_eq!(server.total(), 1);
    }

    #[test]
    fn close_unblocks_a_full_queue_pusher() {
        let (server, feeder) = ManifestServer::streaming(1);
        assert!(feeder.push(ChunkTask { chunk_idx: 0, stem: "a".into(), num_records: 1 }));
        let blocked = std::thread::spawn(move || {
            feeder.push(ChunkTask { chunk_idx: 1, stem: "b".into(), num_records: 1 })
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        server.close();
        assert!(!blocked.join().unwrap(), "pusher must fail, not hang, on close");
    }

    #[test]
    fn concurrent_feeders_and_fetchers_deliver_exactly_once() {
        // Multi-producer multi-consumer contention over few shards:
        // every task is delivered exactly once, totals stay consistent.
        let (server, feeder) = ManifestServer::streaming_with_shards(8, 2);
        let mut producers = Vec::new();
        for p in 0..4usize {
            let feeder = feeder.clone();
            producers.push(std::thread::spawn(move || {
                for i in 0..250usize {
                    assert!(feeder.push(ChunkTask {
                        chunk_idx: p * 1000 + i,
                        stem: format!("{p}-{i}"),
                        num_records: 1,
                    }));
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let server = server.clone();
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(t) = server.fetch() {
                    got.push(t.chunk_idx);
                }
                got
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(server.total(), 1000);
        drop(feeder);
        let mut all: Vec<usize> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort();
        let mut expected: Vec<usize> =
            (0..4).flat_map(|p| (0..250).map(move |i| p * 1000 + i)).collect();
        expected.sort();
        assert_eq!(all, expected);
        assert_eq!(server.remaining(), 0);
    }
}
