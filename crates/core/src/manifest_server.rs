//! The manifest server: a plan's edges, each one chunk queue and the
//! manifest of the dataset its chunks belong to.
//!
//! Paper §5.2: "Within each server, the first stage in the graph fetches
//! a chunk name from the manifest server; the latter is implemented as a
//! simple message queue." Every stage but import consumes an [`Edge`]: a
//! bounded [`QueueHandle`] of [`EdgeChunk`]s and the dataset's manifest.
//! Clones of an `Edge` share its queue, so stages (or servers) pulling
//! from one edge split its chunks between them: the pull-based dispatch
//! that load-balances a multi-node run and avoids stragglers. Delivery
//! is exactly-once and globally FIFO under any race.
//!
//! An edge is one of two things:
//!
//! * a dataset at rest ([`Edge::landed`]): the queue holds every chunk,
//!   in order, and is closed; the manifest is in hand;
//! * a live stream ([`Edge::streaming`]): an upstream stage pushes each
//!   chunk through the producing end, an [`EdgeOut`], once it is
//!   finished, with the stored form of the columns it holds, and
//!   delivers its manifest once that is final. The queue's capacity is
//!   the fused group's flow control. The stream ends once every clone of
//!   the `EdgeOut` has dropped.
//!
//! Only a live edge is metered: its chunks queued but not yet fetched
//! are on the `manifest.queue_occupancy` gauge of the registry it was
//! made with. The queue of a dataset at rest says nothing about how a
//! stage keeps up with its neighbour, and publishes nothing.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;

use parking_lot::Mutex;
use persona_agd::chunk::RawChunk;
use persona_agd::manifest::Manifest;
use persona_dataflow::queue::Producer;
use persona_dataflow::QueueHandle;
use persona_telemetry::{Gauge, MetricsRegistry};

use crate::{Error, Result};

/// One chunk on an edge: which chunk of its dataset it is, and the
/// stored form of the columns its producer holds for it. A chunk of a
/// dataset at rest carries nothing; its consumer reads every column
/// from the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeChunk {
    /// Chunk index in the manifest.
    pub chunk_idx: usize,
    /// Object-name stem (column objects are `{stem}.{column}`).
    pub stem: String,
    /// Records in the chunk.
    pub num_records: u32,
    /// `(column, records as stored)` for each column carried, each
    /// holding the chunk's records exactly as its object does.
    pub carried: Vec<(&'static str, Arc<RawChunk>)>,
}

impl EdgeChunk {
    /// Every chunk of `manifest`, in order, carrying no column.
    pub fn all(manifest: &Manifest) -> impl Iterator<Item = EdgeChunk> + '_ {
        manifest.records.iter().enumerate().map(|(chunk_idx, e)| EdgeChunk {
            chunk_idx,
            stem: e.path.clone(),
            num_records: e.num_records,
            carried: Vec::new(),
        })
    }

    /// The carried stored form of `column`, if its producer carried it.
    pub fn column(&self, column: &str) -> Option<&Arc<RawChunk>> {
        self.carried.iter().find(|(name, _)| *name == column).map(|(_, chunk)| chunk)
    }
}

/// A live edge's chunks on the `manifest.queue_occupancy` gauge.
/// Dropped with the last handle of its edge, it takes whatever is still
/// queued off the gauge: a stage that fails leaves chunks behind, and
/// the registry outlives the job.
struct Occupancy {
    gauge: Gauge,
    queue: QueueHandle<EdgeChunk>,
}

impl Drop for Occupancy {
    fn drop(&mut self) {
        self.gauge.add(-(self.queue.len() as i64));
    }
}

/// What a stage consumes: a queue of a dataset's chunks and the
/// dataset's manifest. Clones share both.
#[derive(Clone)]
pub struct Edge {
    chunks: QueueHandle<EdgeChunk>,
    /// `None` for a dataset at rest.
    occupancy: Option<Arc<Occupancy>>,
    /// In hand, or promised by the live producer.
    manifest: Arc<Mutex<std::result::Result<Manifest, Receiver<Manifest>>>>,
}

impl Edge {
    /// The dataset at rest `manifest` names: every chunk of it, in
    /// order, and the manifest.
    pub fn landed(manifest: Manifest) -> Edge {
        let chunks = QueueHandle::new("manifest", manifest.records.len());
        for chunk in EdgeChunk::all(&manifest) {
            let queued = chunks.push(chunk).is_ok();
            debug_assert!(queued, "a new queue is open and holds the whole dataset");
        }
        // No producer exists: close now so fetch drains the chunks and
        // then reports end-of-dataset.
        chunks.close();
        Edge { chunks, occupancy: None, manifest: Arc::new(Mutex::new(Ok(manifest))) }
    }

    /// A live edge of at most `capacity` unfetched chunks, metered into
    /// `telemetry`: its producing and its consuming end.
    pub fn streaming(capacity: usize, telemetry: &MetricsRegistry) -> (EdgeOut, Edge) {
        let chunks = QueueHandle::new("manifest", capacity);
        let gauge = telemetry.gauge("manifest.queue_occupancy");
        let occupancy = Arc::new(Occupancy { gauge, queue: chunks.clone() });
        let (manifest, promised) = mpsc::channel();
        let out = EdgeOut {
            _producer: chunks.producer(),
            chunks: chunks.clone(),
            occupancy: occupancy.clone(),
            manifest,
        };
        let manifest = Arc::new(Mutex::new(Err(promised)));
        (out, Edge { chunks, occupancy: Some(occupancy), manifest })
    }

    /// Counts a fetched chunk off a live edge's gauge.
    fn taken(&self, chunk: Option<EdgeChunk>) -> Option<EdgeChunk> {
        if let (Some(_), Some(occupancy)) = (&chunk, &self.occupancy) {
            occupancy.gauge.add(-1);
        }
        chunk
    }

    /// The next chunk; `None` once the stream has ended and is drained.
    /// Blocks while a live producer is still running and nothing is
    /// queued.
    pub fn fetch(&self) -> Option<EdgeChunk> {
        self.taken(self.chunks.pop())
    }

    /// The next chunk if one is queued right now. `None` means
    /// "momentarily empty" *or* the end of the stream; a caller that
    /// must tell the two apart falls back to the blocking
    /// [`Edge::fetch`]. The streaming sort uses this to batch whatever
    /// chunks upstream has already finished without waiting for more.
    pub fn try_fetch(&self) -> Option<EdgeChunk> {
        self.taken(self.chunks.try_pop())
    }

    /// Chunks queued but not yet fetched.
    pub fn remaining(&self) -> usize {
        self.chunks.len()
    }

    /// Force-closes the stream: fetchers drain what is left and then see
    /// `None`, and pushes fail. The plan driver closes both edges of a
    /// stage that fails, so its neighbours unwind.
    pub fn close(&self) {
        self.chunks.close();
    }

    /// The dataset's manifest, waiting for a live producer to deliver
    /// it; [`Error::NeighbourClosed`] if it ended without doing so. A
    /// consumer that drains the stream first never waits long: the
    /// stream only ends once its producer has finished.
    pub fn manifest(&self) -> Result<Manifest> {
        let mut manifest = self.manifest.lock();
        let kept = match &*manifest {
            Ok(kept) => kept.clone(),
            Err(promised) => promised.recv().map_err(|_| Error::NeighbourClosed)?,
        };
        *manifest = Ok(kept.clone());
        Ok(kept)
    }
}

/// The producing end of a live [`Edge`]. The stream ends, signalling
/// end-of-dataset to every fetcher, once the last clone drops.
pub struct EdgeOut {
    chunks: QueueHandle<EdgeChunk>,
    /// Held for its drop, which releases this end's producer slot.
    _producer: Producer<EdgeChunk>,
    occupancy: Arc<Occupancy>,
    manifest: Sender<Manifest>,
}

impl EdgeOut {
    /// Pushes a finished chunk, blocking while the queue is full. A
    /// consumer that closed the stream makes the producing stage fail
    /// with the derived [`Error::NeighbourClosed`].
    pub fn push(&self, chunk: EdgeChunk) -> Result<()> {
        self.chunks.push(chunk).map_err(|_| Error::NeighbourClosed)?;
        self.occupancy.gauge.add(1);
        Ok(())
    }

    /// Delivers the dataset's manifest. A consumer that already died is
    /// not the producer's failure.
    pub fn deliver(&self, manifest: &Manifest) {
        let _ = self.manifest.send(manifest.clone());
    }
}

impl Clone for EdgeOut {
    /// Registers another producer: the stream ends only after every
    /// clone has dropped.
    fn clone(&self) -> Self {
        EdgeOut {
            chunks: self.chunks.clone(),
            _producer: self.chunks.producer(),
            occupancy: self.occupancy.clone(),
            manifest: self.manifest.clone(),
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

    /// Chunk `chunk_idx` named `stem`, carrying nothing.
    fn chunk(chunk_idx: usize, stem: &str) -> EdgeChunk {
        EdgeChunk { chunk_idx, stem: stem.into(), num_records: 1, carried: Vec::new() }
    }

    fn streaming(capacity: usize) -> (EdgeOut, Edge) {
        Edge::streaming(capacity, &MetricsRegistry::new())
    }

    #[test]
    fn dispenses_in_order_then_empty() {
        let edge = Edge::landed(manifest(3));
        assert_eq!(edge.remaining(), 3);
        assert_eq!(edge.fetch().unwrap().stem, "t-0");
        assert_eq!(edge.fetch().unwrap().stem, "t-1");
        assert_eq!(edge.remaining(), 1);
        assert_eq!(edge.fetch().unwrap().stem, "t-2");
        assert_eq!(edge.fetch(), None);
        assert_eq!(edge.manifest().unwrap(), manifest(3));
    }

    #[test]
    fn prefilled_single_consumer_is_fifo() {
        let edge = Edge::landed(manifest(40));
        for i in 0..40 {
            assert_eq!(edge.fetch().unwrap().chunk_idx, i);
        }
        assert_eq!(edge.fetch(), None);
    }

    #[test]
    fn shared_across_workers_no_duplicates() {
        let edge = Edge::landed(manifest(1000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let edge = edge.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(chunk) = edge.fetch() {
                    got.push(chunk.chunk_idx);
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
        // A consumer racing the producer receives every chunk exactly
        // once.
        let (out, edge) = streaming(4);
        let consumer = {
            let edge = edge.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(chunk) = edge.fetch() {
                    got.push(chunk.chunk_idx);
                }
                got
            })
        };
        for i in 0..20 {
            assert!(out.push(chunk(i, &format!("s-{i}"))).is_ok());
        }
        drop(out); // End of dataset: consumer sees None and exits.
        let mut got = consumer.join().unwrap();
        got.sort();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert_eq!(edge.remaining(), 0);
    }

    #[test]
    fn streaming_is_strict_fifo_under_race() {
        let (out, edge) = streaming(4);
        let consumer = {
            let edge = edge.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(chunk) = edge.fetch() {
                    got.push(chunk.chunk_idx);
                }
                got
            })
        };
        for i in 0..200 {
            assert!(out.push(chunk(i, &format!("s-{i}"))).is_ok());
        }
        drop(out);
        assert_eq!(consumer.join().unwrap(), (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn streaming_capacity_applies_backpressure() {
        let (out, edge) = streaming(2);
        assert!(out.push(chunk(0, "a")).is_ok());
        assert!(out.push(chunk(1, "b")).is_ok());
        // A third push must block until a fetch frees a slot.
        let blocked = std::thread::spawn(move || out.push(chunk(2, "c")).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(edge.remaining(), 2);
        assert_eq!(edge.fetch().unwrap().stem, "a");
        assert!(blocked.join().unwrap());
        assert_eq!(edge.fetch().unwrap().stem, "b");
        assert_eq!(edge.fetch().unwrap().stem, "c");
    }

    #[test]
    fn try_fetch_never_blocks_and_frees_capacity() {
        let (out, edge) = streaming(2);
        // Empty stream: immediately None, no blocking.
        assert_eq!(edge.try_fetch(), None);
        assert!(out.push(chunk(0, "a")).is_ok());
        assert!(out.push(chunk(1, "b")).is_ok());
        // A pusher blocked on the full queue is released by try_fetch.
        let blocked = std::thread::spawn(move || out.push(chunk(2, "c")).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(edge.try_fetch().is_some());
        assert!(blocked.join().unwrap());
        assert!(edge.try_fetch().is_some());
        assert!(edge.try_fetch().is_some());
        // Drained and ended (the producer moved into the thread and
        // dropped): try_fetch still reports None without hanging.
        assert_eq!(edge.try_fetch(), None);
        assert_eq!(edge.fetch(), None);
    }

    #[test]
    fn push_after_close_returns_false() {
        let (out, edge) = streaming(4);
        assert!(out.push(chunk(0, "a")).is_ok());
        edge.close();
        assert!(matches!(out.push(chunk(1, "b")), Err(Error::NeighbourClosed)));
        // Already-queued work is still drained before end-of-stream.
        assert_eq!(edge.remaining(), 1);
        assert_eq!(edge.fetch().unwrap().stem, "a");
        assert_eq!(edge.fetch(), None);
    }

    #[test]
    fn close_unblocks_a_full_queue_pusher() {
        let (out, edge) = streaming(1);
        assert!(out.push(chunk(0, "a")).is_ok());
        let blocked = std::thread::spawn(move || out.push(chunk(1, "b")).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(30));
        edge.close();
        assert!(!blocked.join().unwrap(), "pusher must fail, not hang, on close");
    }

    #[test]
    fn concurrent_feeders_and_fetchers_deliver_exactly_once() {
        // Multi-producer multi-consumer contention: every chunk is
        // delivered exactly once, and nothing is left queued.
        let (out, edge) = streaming(8);
        let mut producers = Vec::new();
        for p in 0..4usize {
            let out = out.clone();
            producers.push(std::thread::spawn(move || {
                for i in 0..250usize {
                    assert!(out.push(chunk(p * 1000 + i, &format!("{p}-{i}"))).is_ok());
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let edge = edge.clone();
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(t) = edge.fetch() {
                    got.push(t.chunk_idx);
                }
                got
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        drop(out);
        let mut all: Vec<usize> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort();
        let mut expected: Vec<usize> =
            (0..4).flat_map(|p| (0..250).map(move |i| p * 1000 + i)).collect();
        expected.sort();
        assert_eq!(all, expected);
        assert_eq!(edge.remaining(), 0);
    }

    /// A live edge's queued chunks are on the gauge until fetched, and
    /// come off it when the edge's last handle drops; a dataset at rest
    /// publishes nothing.
    #[test]
    fn dropping_the_last_handle_takes_queued_chunks_off_the_gauge() {
        let registry = MetricsRegistry::new();
        let occupancy = registry.gauge("manifest.queue_occupancy");
        let landed = Edge::landed(manifest(5));
        let (first_out, first) = Edge::streaming(4, &registry);
        let (out, stream) = Edge::streaming(4, &registry);
        for k in 0..3 {
            assert!(first_out.push(chunk(k, "a")).is_ok());
        }
        assert!(out.push(chunk(0, "b")).is_ok());
        assert!(out.push(chunk(1, "c")).is_ok());
        assert_eq!(occupancy.value(), 5);
        landed.fetch().unwrap();
        first.fetch().unwrap();
        stream.try_fetch().unwrap();
        assert_eq!(occupancy.value(), 3);
        drop((landed, first));
        assert_eq!(occupancy.value(), 3);
        drop(first_out);
        assert_eq!(occupancy.value(), 1);
        // The producer still holds the stream's queue.
        drop(stream);
        assert_eq!(occupancy.value(), 1);
        drop(out);
        assert_eq!(occupancy.value(), 0);
    }
}
