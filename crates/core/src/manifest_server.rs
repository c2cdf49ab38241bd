//! The manifest server: a message queue of chunk work items.
//!
//! Paper §5.2: "Within each server, the first stage in the graph fetches
//! a chunk name from the manifest server; the latter is implemented as a
//! simple message queue." Sharing one `ManifestServer` across several
//! per-server pipelines is what load-balances a multi-node run and, by
//! pull-based dispatch, avoids stragglers.
//!
//! The queue is a [`QueueHandle`]: bounded, one lock, and closed when
//! its last feeder drops. Delivery is exactly-once and globally FIFO
//! under any race of feeders and fetchers.
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
//!
//! Either mode publishes `manifest.queue_occupancy` into the registry it
//! is given: chunks queued but not yet dispatched.

use std::sync::Arc;

use persona_agd::manifest::Manifest;
use persona_dataflow::queue::Producer;
use persona_dataflow::QueueHandle;
use persona_telemetry::{Gauge, MetricsRegistry};

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

/// The queue and its occupancy gauge, shared by every server and feeder
/// handle. Dropped with the last of them, it takes whatever is still
/// queued off the gauge: a stage that fails leaves chunks behind, and
/// the registry outlives the job.
struct Metered {
    queue: QueueHandle<ChunkTask>,
    occupancy: Option<Gauge>,
}

impl Metered {
    fn publish(&self, delta: i64) {
        if let Some(gauge) = &self.occupancy {
            gauge.add(delta);
        }
    }
}

impl Drop for Metered {
    fn drop(&mut self) {
        self.publish(-(self.queue.len() as i64));
    }
}

/// A shared pull-based queue of chunk tasks.
#[derive(Clone)]
pub struct ManifestServer {
    inner: Arc<Metered>,
}

impl ManifestServer {
    fn with_capacity(capacity: usize, telemetry: Option<&MetricsRegistry>) -> Self {
        let occupancy = telemetry.map(|t| t.gauge("manifest.queue_occupancy"));
        let queue = QueueHandle::new("manifest", capacity);
        ManifestServer { inner: Arc::new(Metered { queue, occupancy }) }
    }

    /// Creates a server dispensing every chunk of `manifest`, in order,
    /// publishing its occupancy into `telemetry` when given. The plan
    /// driver passes the runtime's registry here so every stage's
    /// dispatch queue shows up in one snapshot.
    pub fn new(manifest: &Manifest, telemetry: Option<&MetricsRegistry>) -> Self {
        let server = Self::with_capacity(manifest.records.len(), telemetry);
        for (i, e) in manifest.records.iter().enumerate() {
            let ok = server.push(ChunkTask {
                chunk_idx: i,
                stem: e.path.clone(),
                num_records: e.num_records,
            });
            assert!(ok, "prefilled manifest queue cannot be closed");
        }
        // No feeder exists: close now so fetch drains the prefilled
        // tasks and then reports end-of-dataset.
        server.close();
        server
    }

    /// Creates an initially empty server together with the feeder that
    /// fills it. `capacity` bounds how many undispatched chunks may be
    /// queued (the fused pipeline's flow control between stages).
    pub fn streaming(
        capacity: usize,
        telemetry: Option<&MetricsRegistry>,
    ) -> (ManifestServer, ChunkFeeder) {
        let server = Self::with_capacity(capacity, telemetry);
        let _producer = server.inner.queue.producer();
        (server.clone(), ChunkFeeder { server, _producer })
    }

    /// Blocking push; `false` once the queue is closed.
    fn push(&self, task: ChunkTask) -> bool {
        let pushed = self.inner.queue.push(task).is_ok();
        if pushed {
            self.inner.publish(1);
        }
        pushed
    }

    /// Counts a fetched task off the occupancy gauge.
    fn taken(&self, task: Option<ChunkTask>) -> Option<ChunkTask> {
        if task.is_some() {
            self.inner.publish(-1);
        }
        task
    }

    /// Fetches the next chunk task; `None` once the dataset is drained.
    ///
    /// On a streaming server this blocks while the feeder is alive and
    /// the queue is empty.
    pub fn fetch(&self) -> Option<ChunkTask> {
        self.taken(self.inner.queue.pop())
    }

    /// Non-blocking fetch: returns a task only if one is queued right
    /// now. `None` means "momentarily empty" *or* end-of-dataset —
    /// callers that must distinguish the two fall back to the blocking
    /// [`ManifestServer::fetch`]. The streaming sort uses this to
    /// opportunistically batch whatever chunks upstream has already
    /// finished without ever waiting for a full batch.
    pub fn try_fetch(&self) -> Option<ChunkTask> {
        self.taken(self.inner.queue.try_pop())
    }

    /// Chunks queued but not yet dispatched.
    pub fn remaining(&self) -> usize {
        self.inner.queue.len()
    }

    /// Force-closes the queue: fetchers drain what is left and then see
    /// `None`, and feeder pushes fail. Used to cancel the upstream
    /// stage of a fused pair when the downstream stage dies.
    pub fn close(&self) {
        self.inner.queue.close();
    }

    /// Total chunks ever enqueued (grows while a feeder is pushing).
    pub fn total(&self) -> usize {
        self.inner.queue.stats().pushed as usize
    }
}

/// The producing end of a streaming [`ManifestServer`]. The queue
/// closes, signalling end-of-dataset to every fetcher, once the last
/// clone of the feeder drops.
pub struct ChunkFeeder {
    server: ManifestServer,
    /// Held for its drop, which releases this feeder's producer slot.
    _producer: Producer<ChunkTask>,
}

impl ChunkFeeder {
    /// Enqueues one chunk task, blocking while the queue is at
    /// capacity. Returns `false` if the queue was force-closed.
    pub fn push(&self, task: ChunkTask) -> bool {
        self.server.push(task)
    }
}

impl Clone for ChunkFeeder {
    /// Registers another producer: the stream closes only after every
    /// clone has been dropped.
    fn clone(&self) -> Self {
        ChunkFeeder { _producer: self.server.inner.queue.producer(), server: self.server.clone() }
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
        let server = ManifestServer::new(&manifest(3), None);
        assert_eq!(server.total(), 3);
        assert_eq!(server.fetch().unwrap().stem, "t-0");
        assert_eq!(server.fetch().unwrap().stem, "t-1");
        assert_eq!(server.remaining(), 1);
        assert_eq!(server.fetch().unwrap().stem, "t-2");
        assert_eq!(server.fetch(), None);
    }

    #[test]
    fn prefilled_single_consumer_is_fifo() {
        let server = ManifestServer::new(&manifest(40), None);
        for i in 0..40 {
            assert_eq!(server.fetch().unwrap().chunk_idx, i);
        }
        assert_eq!(server.fetch(), None);
    }

    #[test]
    fn shared_across_workers_no_duplicates() {
        let server = ManifestServer::new(&manifest(1000), None);
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
        // A consumer racing the feeder receives every task exactly once.
        let (server, feeder) = ManifestServer::streaming(4, None);
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
    fn streaming_is_strict_fifo_under_race() {
        let (server, feeder) = ManifestServer::streaming(4, None);
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
        let (server, feeder) = ManifestServer::streaming(2, None);
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
        let (server, feeder) = ManifestServer::streaming(2, None);
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
        let (server, feeder) = ManifestServer::streaming(4, None);
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
        let (server, feeder) = ManifestServer::streaming(1, None);
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
        // Multi-producer multi-consumer contention: every task is
        // delivered exactly once, totals stay consistent.
        let (server, feeder) = ManifestServer::streaming(8, None);
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

    #[test]
    fn dropping_the_last_handle_takes_queued_chunks_off_the_gauge() {
        let registry = MetricsRegistry::new();
        let occupancy = registry.gauge("manifest.queue_occupancy");
        let server = ManifestServer::new(&manifest(5), Some(&registry));
        let (stream, feeder) = ManifestServer::streaming(4, Some(&registry));
        assert!(feeder.push(ChunkTask { chunk_idx: 0, stem: "a".into(), num_records: 1 }));
        assert!(feeder.push(ChunkTask { chunk_idx: 1, stem: "b".into(), num_records: 1 }));
        assert_eq!(occupancy.value(), 7);
        server.fetch().unwrap();
        stream.try_fetch().unwrap();
        assert_eq!(occupancy.value(), 5);
        drop(server);
        assert_eq!(occupancy.value(), 1);
        // The feeder still holds the stream's queue.
        drop(stream);
        assert_eq!(occupancy.value(), 1);
        drop(feeder);
        assert_eq!(occupancy.value(), 0);
    }
}
