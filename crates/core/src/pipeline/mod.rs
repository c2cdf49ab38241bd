//! Persona's optimized subgraphs and pipelines (paper §4.1-§4.4).
//!
//! Every stage schedules its compute — FASTQ encoding, chunk decode,
//! subchunk alignment, chunk sort/merge, duplicate re-encoding, SAM
//! formatting, gzip and BGZF compression — as fine-grain task batches on
//! the runtime's shared executor ([`crate::runtime::PersonaRuntime`])
//! through the [`StageExec`](crate::runtime::StageExec) the plan driver
//! hands it. No stage reads a clock for its report: the driver times
//! each stage once ([`crate::plan::StageRow`]).
//!
//! A stage owns no threads. Its *stage thread* (the plan driver's
//! caller, or one scoped thread per later stage of a fused group) is
//! the only thread of the stage that blocks: it fetches chunks, keeps a
//! bounded window of them in flight on the executor (sized from the
//! executor's thread count, in one place), moves each from one executor
//! step to the next, and does every push downstream once a chunk is
//! finished. Executor tasks never wait on a queue, channel or batch, and
//! never touch an [`EdgeOut`]: a task blocked on a full chunk queue
//! could hold the very worker that would drain it. A task that panics
//! fails its stage with [`Error::TaskPanicked`], after the stage has
//! settled every batch it still had in flight.
//!
//! # The stage contract
//!
//! Every stage function is crate-private and runs on the caller's
//! runtime; [`crate::plan::Plan::run`] is the only way to run one. Each
//! consumes one [`Edge`] (import, the head of the chain, consumes FASTQ
//! instead), and every stage but export can produce one through an
//! [`EdgeOut`]. An edge is one chunk queue and its dataset's manifest
//! ([`crate::manifest_server`]): every chunk of a dataset at rest with
//! its manifest in hand, or a live queue an upstream stage feeds with
//! the manifest promised; no stage asks which. Each chunk on a live edge brings the stored form ([`RawChunk`])
//! of every column its producer holds for it ([`EdgeChunk`]): import
//! carries the three read columns, align what it loaded or was handed
//! plus its `results`, the sort's write its four gathered columns. A
//! consumer reads from the store only the columns its chunk did not
//! bring (`raw_column`); there is one load path, whose source is the
//! edge or the store, and one chunk type: a stage reads a bases record
//! as ASCII one at a time ([`RawChunk::append_plain`]), never a whole
//! chunk unpacked.
//!
//! A producer pushes each chunk once its objects are durable in the
//! store, or once it is built when its state does not land (the plan
//! driver's landing rule: then it puts nothing), delivers its manifest
//! as soon as that is final (the sort, whose chunk boundaries are known
//! before it writes, before its first push; a consumer that needs the
//! manifest first, like export, waits for it), and closes the stream by
//! returning; a stage whose neighbour closes the stream early, or ends
//! without delivering the manifest, fails with
//! [`Error::NeighbourClosed`]. A `dupmark` directly after its `sort`
//! runs no stage at all: the sort marks duplicates as it writes, and
//! the plan driver wires the sort's output edge to the stage after the
//! `dupmark`. The plan driver ([`crate::plan::Plan::run`]) wires any
//! chain of stages through these two types alone.
//!
//! [`Edge`]: crate::manifest_server::Edge
//! [`EdgeOut`]: crate::manifest_server::EdgeOut

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use persona_agd::chunk::RawChunk;
use persona_agd::chunk_io::ChunkStore;
use persona_agd::columns;
use persona_agd::manifest::Manifest;
use persona_agd::results::AlignmentResult;

use crate::manifest_server::EdgeChunk;
use crate::runtime::Pending;
use crate::{Error, Result};

pub mod align;
pub mod dupmark;
pub mod export;
pub mod import;
pub mod sort;

/// What a stage puts in the store ([`crate::plan::Plan::run`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Landing {
    /// Nothing: chunks and manifest travel on the edge only.
    Nothing,
    /// Its chunks, not its manifest: a fused align lands their dataset.
    Chunks,
    /// Its chunks and its manifest.
    State,
}

/// Reads one column object of a chunk.
fn get_column(store: &dyn ChunkStore, stem: &str, column: &str) -> Result<Vec<u8>> {
    let name = Manifest::chunk_object_name(stem, column);
    Ok(store.get(&name).map_err(|e| std::io::Error::new(e.kind(), format!("read {name}: {e}")))?)
}

/// Fails unless a column of `chunk` holds the records its task says it
/// holds.
fn check_records(chunk: &EdgeChunk, column: &str, stored: usize) -> Result<()> {
    if stored != chunk.num_records as usize {
        let (stem, records) = (&chunk.stem, chunk.num_records);
        return Err(Error::Pipeline(format!(
            "chunk {stem}: {stored} {column} records on disk, {records} in manifest"
        )));
    }
    Ok(())
}

/// Column `column` of `chunk` as stored (bases packed): the form its
/// edge carried, else read back from the store.
pub(crate) fn raw_column(
    store: &dyn ChunkStore,
    chunk: &EdgeChunk,
    column: &str,
) -> Result<Arc<RawChunk>> {
    let raw = match chunk.column(column) {
        Some(carried) => carried.clone(),
        None => Arc::new(RawChunk::decode(&get_column(store, &chunk.stem, column)?)?),
    };
    check_records(chunk, column, raw.len())?;
    Ok(raw)
}

/// A chunk of one's own: `chunk` itself when nothing else holds it,
/// else a copy.
pub(crate) fn owned(chunk: Arc<RawChunk>) -> RawChunk {
    Arc::try_unwrap(chunk).unwrap_or_else(|shared| (*shared).clone())
}

/// One chunk's alignment results as a stored `results` chunk, each
/// record encoded straight into its data block.
pub(crate) fn encode_results(results: &[AlignmentResult]) -> RawChunk {
    let bytes = results.iter().map(AlignmentResult::wire_size).sum();
    let record_type = columns::coding(columns::RESULTS).record_type;
    let mut chunk = RawChunk::with_capacity(record_type, results.len(), bytes);
    for result in results {
        chunk.push_with(|out| result.encode_into(out));
    }
    chunk
}

/// The executor step one chunk of a stage is waiting on.
pub(crate) trait Step {
    /// Whether every task of the step has finished, without blocking.
    fn is_done(&self) -> bool;
    /// Waits for the step and drops its outputs (failure clean-up).
    fn settle(self);
}

impl<T> Step for Pending<T> {
    fn is_done(&self) -> bool {
        Pending::is_done(self)
    }

    fn settle(self) {
        let _ = self.wait();
    }
}

impl<M, S: Step> Step for (M, S) {
    fn is_done(&self) -> bool {
        self.1.is_done()
    }

    fn settle(self) {
        self.1.settle()
    }
}

/// Where one chunk stands after its stage moved it on.
pub(crate) enum Progress<S, D> {
    /// Waiting on its next executor step.
    Next(S),
    /// Finished: what the chunk handed back.
    Done(D),
}

/// The stage-thread loop of a chunk stage. `start` begins the next
/// chunk's first executor step — it may block for input only when
/// called with `true`, which happens when nothing is in flight, and
/// returns `None` at the end of the input (or, unblocked, when no chunk
/// is ready yet). At most `window` chunks are in flight. Each round
/// waits for the oldest chunk's step and hands every finished step to
/// `advance`, which collects its outputs and submits the chunk's next
/// step; `finish` receives the finished chunks in the order they
/// started. On any error, every chunk still in flight is settled before
/// the error returns, so no task of the stage outlives the call.
pub(crate) fn drive<S: Step, D>(
    window: usize,
    mut start: impl FnMut(bool) -> Result<Option<S>>,
    mut advance: impl FnMut(S) -> Result<Progress<S, D>>,
    mut finish: impl FnMut(D) -> Result<()>,
) -> Result<()> {
    let mut inflight: VecDeque<Option<Progress<S, D>>> = VecDeque::new();
    let result = (|| -> Result<()> {
        loop {
            while inflight.len() < window {
                match start(inflight.is_empty())? {
                    Some(step) => inflight.push_back(Some(Progress::Next(step))),
                    None if inflight.is_empty() => return Ok(()),
                    None => break,
                }
            }
            for (k, slot) in inflight.iter_mut().enumerate() {
                if matches!(slot, Some(Progress::Next(step)) if k == 0 || step.is_done()) {
                    if let Some(Progress::Next(step)) = slot.take() {
                        *slot = Some(advance(step)?);
                    }
                }
            }
            while let Some(Some(Progress::Done(_))) = inflight.front() {
                if let Some(Some(Progress::Done(done))) = inflight.pop_front() {
                    finish(done)?;
                }
            }
        }
    })();
    if result.is_err() {
        for slot in inflight.into_iter().flatten() {
            if let Progress::Next(step) = slot {
                step.settle();
            }
        }
    }
    result
}

/// `count / elapsed` in Hz, guarded against a ~0 elapsed window: empty
/// or instantaneous stages report a rate of 0.0 instead of NaN/inf,
/// which would otherwise poison aggregated service metrics.
pub fn rate_per_sec(count: f64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        count / secs
    } else {
        0.0
    }
}

/// Splits `0..n` into contiguous `(lo, hi)` ranges of at most `size`
/// elements — the fine-grain task unit stages fan out on the executor.
pub(crate) fn subchunk_ranges(n: usize, size: usize) -> Vec<(usize, usize)> {
    let size = size.max(1);
    let mut ranges = Vec::with_capacity(n / size + 1);
    let mut lo = 0usize;
    while lo < n {
        let hi = (lo + size).min(n);
        ranges.push((lo, hi));
        lo = hi;
    }
    ranges
}

/// Runs `stage` alone over `source` through [`crate::plan::Plan::run`]
/// on a small runtime over `store`: how the stages' unit tests drive a
/// stage. The one-stage plan starts from the state the stage typically
/// takes, is named after the source dataset and imports in chunks of 64.
#[cfg(test)]
pub(crate) fn run_stage(
    store: &std::sync::Arc<dyn ChunkStore>,
    stage: crate::plan::Stage,
    source: crate::plan::PlanSource,
    aligner: Option<std::sync::Arc<dyn persona_align::Aligner>>,
) -> Result<crate::plan::PlanReport> {
    use crate::plan::{Plan, PlanRequest, PlanSource};
    let name = match &source {
        PlanSource::Dataset(manifest) => manifest.name.clone(),
        PlanSource::Fastq(_) => "imp".into(),
    };
    let req = PlanRequest { name, source, chunk_size: 64, aligner, reference: vec![] };
    let config = crate::config::PersonaConfig::small();
    let rt = crate::runtime::PersonaRuntime::new(store.clone(), config)?;
    Plan::builder(stage.input_hint()).then(stage).build()?.run(&rt, req)
}

/// Rewrites every `bases` object of the landed dataset `manifest` as a
/// `RecordType::Text` chunk of the same reads: an input stored with
/// another record type than the column table gives.
#[cfg(test)]
pub(crate) fn store_bases_as_text(store: &dyn ChunkStore, manifest: &Manifest) {
    use persona_agd::chunk::{ChunkData, RecordType};
    use persona_compress::{codec::Codec, deflate::CompressLevel};
    for e in &manifest.records {
        let name = Manifest::chunk_object_name(&e.path, columns::BASES);
        let bases = ChunkData::decode(&store.get(&name).unwrap()).unwrap();
        let text = ChunkData { record_type: RecordType::Text, ..bases };
        store.put(&name, &text.encode(Codec::Gzip, CompressLevel::Fast).unwrap()).unwrap();
        let stored = RawChunk::decode(&store.get(&name).unwrap()).unwrap();
        assert_eq!(stored.record_type(), RecordType::Text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_per_sec_guards_zero_elapsed() {
        assert_eq!(rate_per_sec(100.0, Duration::ZERO), 0.0);
        assert_eq!(rate_per_sec(0.0, Duration::ZERO), 0.0);
        let r = rate_per_sec(100.0, Duration::from_secs(2));
        assert!((r - 50.0).abs() < 1e-9);
        assert!(rate_per_sec(1e12, Duration::from_nanos(1)).is_finite());
    }

    #[test]
    fn subchunk_ranges_cover_exactly_once() {
        assert_eq!(subchunk_ranges(0, 4), vec![]);
        assert_eq!(subchunk_ranges(3, 4), vec![(0, 3)]);
        assert_eq!(subchunk_ranges(8, 4), vec![(0, 4), (4, 8)]);
        assert_eq!(subchunk_ranges(9, 4), vec![(0, 4), (4, 8), (8, 9)]);
        assert_eq!(subchunk_ranges(5, 0), vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    }
}
