//! The alignment pipeline: Persona's flagship subgraph (paper Fig. 3).
//!
//! ```text
//! chunk stream ─► load ───────────────► align ──────────► store ───────────► (chunk feeder)
//!                 (carried, else get    (subchunk tasks)   (encode; gzip, put
//!                  + decode; unpack)                        when it lands)
//! ```
//!
//! The stage thread fetches chunks and keeps a bounded window of them
//! in flight, each moving through three executor steps: one load task,
//! one batch of subchunk align tasks (Fig. 4), one store task. Only the
//! `bases` and `qual` columns are loaded (§5.2: "we read only these two
//! columns of each chunk"), from the store unless the chunk carried
//! them; results are written as a new AGD column when the stage's state
//! lands. Each chunk goes on with the columns it brought, the two it
//! loaded and its `results`.
//! Splitting every chunk into subchunks on the shared executor means
//! chunk granularity never causes thread stragglers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use persona_agd::chunk::{ChunkData, RawChunk};
use persona_agd::columns;
use persona_agd::manifest::Manifest;
use persona_agd::results::AlignmentResult;
use persona_align::profile::PhaseProfile;
use persona_align::Aligner;

use crate::manifest_server::{Edge, EdgeChunk, EdgeOut};
use crate::pipeline::{
    drive, encode_results, raw_column, subchunk_ranges, Landing, Progress, StageReport, Step,
};
use crate::runtime::{Pending, PersonaRuntime};
use crate::Result;

/// Outcome of an alignment run.
#[derive(Debug)]
pub struct AlignReport {
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Reads aligned.
    pub reads: u64,
    /// Bases aligned (the paper's throughput unit).
    pub bases: u64,
    /// Reads that received a mapped location.
    pub mapped: u64,
    /// Chunks processed.
    pub chunks: u64,
    /// Merged aligner phase profile (Fig. 8 inputs).
    pub profile: PhaseProfile,
    /// The stage's share of shared-executor worker time.
    pub busy_fraction: f64,
    /// When the stage finished — paired with `SortReport::first_run_at`
    /// to assert a fused `align → sort` run actually overlapped.
    pub finished_at: Instant,
}

impl AlignReport {
    /// Megabases aligned per second (paper Fig. 6 unit); 0.0 for an
    /// empty or instantaneous run.
    pub fn mbases_per_sec(&self) -> f64 {
        crate::pipeline::rate_per_sec(self.bases as f64 / 1e6, self.elapsed)
    }
}

impl StageReport for AlignReport {
    fn elapsed(&self) -> Duration {
        self.elapsed
    }

    fn busy_fraction(&self) -> f64 {
        self.busy_fraction
    }
}

/// One chunk's input columns as stored, and its bases unpacked to the
/// ASCII the aligner reads. Qualities flow with the chunk as in the
/// paper; their stored records are the text itself.
struct Loaded {
    bases: Arc<RawChunk>,
    quals: Arc<RawChunk>,
    ascii: ChunkData,
}

/// The executor step one chunk of the align stage is waiting on.
enum AlignStep {
    Load(Pending<Result<Loaded>>),
    Align(Pending<(Vec<AlignmentResult>, PhaseProfile)>),
    Store(Pending<Result<Arc<RawChunk>>>),
}

impl Step for AlignStep {
    fn is_done(&self) -> bool {
        match self {
            AlignStep::Load(p) => p.is_done(),
            AlignStep::Align(p) => p.is_done(),
            AlignStep::Store(p) => p.is_done(),
        }
    }

    fn settle(self) {
        match self {
            AlignStep::Load(p) => p.settle(),
            AlignStep::Align(p) => p.settle(),
            AlignStep::Store(p) => p.settle(),
        }
    }
}

/// The align stage: aligns the chunks of `input`, each through a load
/// task, a batch of subchunk align tasks and a store task on the
/// runtime's executor (Fig. 4), then records the results column and
/// `reference` in the dataset's manifest, and persists the results and
/// the manifest when `landing` is [`Landing::State`]. With a live
/// input alignment overlaps whatever stage is feeding it; with `out`,
/// each chunk goes downstream once its results are encoded (and
/// durable, when they land), carrying its columns (how the incremental
/// sort starts while later chunks are still aligning, without reading
/// them back), the stream closes after the last chunk, and the
/// finalized manifest follows.
pub(crate) fn align(
    rt: &PersonaRuntime,
    input: Edge,
    aligner: Arc<dyn Aligner>,
    reference: &[(String, u64)],
    landing: Landing,
    out: Option<EdgeOut>,
) -> Result<(Manifest, AlignReport)> {
    let lands = landing == Landing::State;
    let timer = rt.stage_timer();
    let exec = rt.stage_exec(&timer);
    let subchunk = rt.config().subchunk_size.max(1);
    let trace = rt.trace();
    let mut profile = PhaseProfile::default();
    let (mut reads, mut bases, mut mapped, mut chunks) = (0u64, 0u64, 0u64, 0u64);
    drive(
        rt.chunk_window(),
        |block| {
            let Some(chunk) = (if block { input.fetch() } else { input.try_fetch() }) else {
                return Ok(None);
            };
            // Stop pulling new chunks once the job is cancelled.
            rt.check_cancelled()?;
            // The chunk span opens when the chunk is fetched off the
            // input edge and closes once its results are durable.
            if let Some(t) = trace {
                t.chunk_begin("align", chunk.chunk_idx as u64);
            }
            let (store, input) = (rt.store().clone(), chunk.clone());
            let load = exec.spawn_one(move || {
                let bases = raw_column(store.as_ref(), &input, columns::BASES)?;
                let quals = raw_column(store.as_ref(), &input, columns::QUAL)?;
                let ascii = bases.unpacked()?;
                Ok(Loaded { bases, quals, ascii })
            });
            Ok(Some((chunk, AlignStep::Load(load))))
        },
        |(mut chunk, step)| match step {
            AlignStep::Load(load) => {
                let Loaded { bases: packed, quals, ascii } = load.wait_one()?;
                for (column, raw) in [(columns::BASES, packed), (columns::QUAL, quals.clone())] {
                    if chunk.column(column).is_none() {
                        chunk.carried.push((column, raw));
                    }
                }
                let n = ascii.len();
                bases += (0..n).map(|i| ascii.record(i).len() as u64).sum::<u64>();
                let (aligner, reads) = (aligner.clone(), Arc::new((ascii, quals)));
                let align = exec.spawn(subchunk_ranges(n, subchunk), move |_, (lo, hi)| {
                    let (bases, quals) = &*reads;
                    let mut prof = PhaseProfile::default();
                    let results = (lo..hi)
                        .map(|i| {
                            aligner.align_read_profiled(bases.record(i), quals.record(i), &mut prof)
                        })
                        .collect();
                    (results, prof)
                });
                Ok(Progress::Next((chunk, AlignStep::Align(align))))
            }
            AlignStep::Align(align) => {
                let mut results = Vec::with_capacity(chunk.num_records as usize);
                for (part, prof) in align.wait()? {
                    results.extend(part);
                    profile.merge(&prof);
                }
                reads += results.len() as u64;
                mapped += results.iter().filter(|r| !r.is_unmapped()).count() as u64;
                let store = rt.store().clone();
                let name = Manifest::chunk_object_name(&chunk.stem, columns::RESULTS);
                let write = exec.spawn_one(move || {
                    let results = encode_results(&results);
                    if lands {
                        store.put(&name, &columns::encode_chunk(columns::RESULTS, &results))?;
                    }
                    Ok(Arc::new(results))
                });
                Ok(Progress::Next((chunk, AlignStep::Store(write))))
            }
            AlignStep::Store(write) => {
                chunk.carried.push((columns::RESULTS, write.wait_one()?));
                Ok(Progress::Done(chunk))
            }
        },
        |chunk: EdgeChunk| {
            // Pushed only once the results object is durable, if it
            // lands, with the columns the sort would otherwise read
            // straight back.
            let idx = chunk.chunk_idx as u64;
            if let Some(out) = &out {
                out.push(chunk)?;
            }
            chunks += 1;
            if let Some(t) = trace {
                t.chunk_end("align", idx);
            }
            Ok(())
        },
    )?;
    let stage = timer.finish();
    let report = AlignReport {
        elapsed: stage.elapsed,
        reads,
        bases,
        mapped,
        chunks,
        profile,
        busy_fraction: stage.busy_fraction(),
        finished_at: Instant::now(),
    };
    let mut manifest = input.manifest()?;
    columns::declare(&mut manifest, columns::RESULTS)?;
    persona_formats::convert::set_reference(&mut manifest, reference);
    if lands {
        rt.store()
            .put(&format!("{}.manifest.json", manifest.name), manifest.to_json()?.as_bytes())?;
    }
    if let Some(out) = out {
        out.deliver(&manifest);
    }
    Ok((manifest, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PersonaConfig;
    use crate::pipeline::run_stage;
    use crate::plan::{DataState, Plan, PlanRequest, PlanSource, Stage, StageRun};
    use crate::Error;
    use persona_agd::builder::DatasetWriter;
    use persona_agd::chunk_io::{ChunkStore, MemStore};
    use persona_agd::dataset::Dataset;
    use persona_align::snap::{SnapAligner, SnapParams};
    use persona_index::SeedIndex;
    use persona_seq::read::Origin;
    use persona_seq::simulate::{ReadSimulator, SimParams};
    use persona_seq::Genome;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn build_world(
        n_reads: usize,
        chunk_size: usize,
    ) -> (Arc<Genome>, Arc<dyn ChunkStore>, Manifest, Arc<dyn Aligner>) {
        let genome = Arc::new(Genome::random_with_seed(404, &[("chr1", 60_000)]));
        let mut sim = ReadSimulator::new(
            &genome,
            SimParams { error_rate: 0.005, seed: 40, ..SimParams::default() },
        );
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let mut w = DatasetWriter::new("t", chunk_size).unwrap();
        for _ in 0..n_reads {
            let r = sim.next_single();
            w.append(store.as_ref(), &r.meta, &r.bases, &r.quals).unwrap();
        }
        let manifest = w.finish(store.as_ref()).unwrap();
        let index = Arc::new(SeedIndex::build(&genome, 16));
        let aligner: Arc<dyn Aligner> =
            Arc::new(SnapAligner::new(genome.clone(), index, SnapParams::default()));
        (genome, store, manifest, aligner)
    }

    /// Aligns the landed dataset `manifest` through the one-stage align
    /// plan.
    fn align_landed(
        store: Arc<dyn ChunkStore>,
        manifest: &Manifest,
        aligner: Arc<dyn Aligner>,
    ) -> Result<(Manifest, AlignReport)> {
        let source = PlanSource::Dataset(manifest.clone());
        let mut report = run_stage(&store, Stage::Align, source, Some(aligner))?;
        match report.stages.pop() {
            Some(StageRun::Align(align)) => Ok((report.manifest.unwrap(), align)),
            other => panic!("expected an align report, got {other:?}"),
        }
    }

    #[test]
    fn aligns_whole_dataset_through_pipeline() {
        let (genome, store, manifest, aligner) = build_world(600, 100);
        let (manifest, report) = align_landed(store.clone(), &manifest, aligner).unwrap();
        assert_eq!(report.reads, 600);
        assert_eq!(report.chunks, 6);
        assert_eq!(report.bases, 600 * 101);
        assert!(report.mapped >= 590, "only {} mapped", report.mapped);

        // Verify results are readable and mostly correct.
        let ds = Dataset::new(manifest);
        let mut correct = 0usize;
        let mut total = 0usize;
        for c in 0..ds.num_chunks() {
            let results = ds.read_results_chunk(store.as_ref(), c).unwrap();
            let meta = ds.read_column_chunk(store.as_ref(), c, columns::METADATA).unwrap();
            for (i, r) in results.iter().enumerate() {
                let origin = Origin::parse(meta.record(i)).unwrap();
                let expected = genome.to_linear(origin.contig as usize, origin.pos) as i64;
                total += 1;
                if r.location == expected {
                    correct += 1;
                }
            }
        }
        assert_eq!(total, 600);
        assert!(correct >= 560, "only {correct}/600 correct");
    }

    #[test]
    fn results_preserve_record_order() {
        let (_genome, store, manifest, aligner) = build_world(250, 50);
        align_landed(store.clone(), &manifest, aligner.clone()).unwrap();
        // Re-align chunk 2 serially and compare against the pipeline's
        // stored output: order within the chunk must match exactly.
        let ds = Dataset::new(manifest.clone());
        let bases = ds.read_column_chunk(store.as_ref(), 2, columns::BASES).unwrap();
        let quals = ds.read_column_chunk(store.as_ref(), 2, columns::QUAL).unwrap();
        let obj = store.get(&format!("{}.results", manifest.records[2].path)).unwrap();
        let stored = ChunkData::decode(&obj).unwrap();
        for i in 0..bases.len() {
            let expect = aligner.align_read(bases.record(i), quals.record(i));
            let got = AlignmentResult::decode(stored.record(i)).unwrap();
            assert_eq!(got.location, expect.location, "record {i}");
        }
    }

    #[test]
    fn shared_manifest_server_splits_work() {
        let (_genome, store, manifest, aligner) = build_world(400, 50);
        let edge = Edge::landed(manifest.clone());
        let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
        // Two "servers" race on the same manifest queue, sharing one
        // runtime (and therefore one executor).
        let mut handles = Vec::new();
        for _ in 0..2 {
            let (rt, aligner, input) = (rt.clone(), aligner.clone(), edge.clone());
            handles.push(std::thread::spawn(move || {
                align(&rt, input, aligner, &[], Landing::State, None).unwrap().1.reads
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 400);
        assert_eq!(edge.remaining(), 0);
        // Every chunk's results object exists exactly once.
        for e in &manifest.records {
            assert!(store.exists(&format!("{}.results", e.path)));
        }
    }

    #[test]
    fn missing_column_fails_cleanly() {
        let (_genome, store, manifest, aligner) = build_world(100, 50);
        store.delete("t-1.bases").unwrap();
        assert!(align_landed(store, &manifest, aligner).is_err());
    }

    /// A column shorter than the manifest says fails the stage with a
    /// typed error naming the chunk, not a panic in an align task, and
    /// the dataset's manifest stays as it was.
    #[test]
    fn short_column_is_a_typed_error() {
        for column in [columns::BASES, columns::QUAL] {
            let (_genome, store, manifest, aligner) = build_world(100, 25);
            let name = Manifest::chunk_object_name("t-1", column);
            let chunk = ChunkData::decode(&store.get(&name).unwrap()).unwrap();
            store.put(&name, &columns::encode(column, chunk.iter().skip(1)).unwrap()).unwrap();
            let before = store.get("t.manifest.json").unwrap();
            let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
            let input = Edge::landed(manifest);
            let err = align(&rt, input, aligner, &[], Landing::State, None).unwrap_err();
            match err {
                Error::Pipeline(msg) => {
                    assert!(msg.contains("chunk t-1") && msg.contains(column), "{msg}")
                }
                other => panic!("{column}: expected a pipeline error, got {other:?}"),
            }
            assert_eq!(store.get("t.manifest.json").unwrap(), before, "{column}");
        }
    }

    #[test]
    fn empty_dataset_is_fine() {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let manifest = DatasetWriter::new("e", 10).unwrap().finish(store.as_ref()).unwrap();
        let genome = Arc::new(Genome::random_with_seed(1, &[("c", 30_000)]));
        let index = Arc::new(SeedIndex::build(&genome, 16));
        let aligner: Arc<dyn Aligner> =
            Arc::new(SnapAligner::new(genome.clone(), index, SnapParams::default()));
        let (_, report) = align_landed(store, &manifest, aligner).unwrap();
        assert_eq!(report.reads, 0);
    }

    /// Counts every read it is handed and panics on the 51st.
    struct BoomAligner {
        inner: Arc<dyn Aligner>,
        calls: AtomicUsize,
    }

    impl Aligner for BoomAligner {
        fn align_read(&self, bases: &[u8], quals: &[u8]) -> AlignmentResult {
            if self.calls.fetch_add(1, Ordering::SeqCst) == 50 {
                panic!("aligner boom");
            }
            self.inner.align_read(bases, quals)
        }

        fn name(&self) -> &'static str {
            "snap"
        }
    }

    /// A panicking aligner with align at the head of its group, where
    /// the stage runs on the caller's own thread: the plan fails with
    /// the panic's text, the caller does not unwind, and no align task
    /// of the failed stage runs after `run` has returned.
    #[test]
    fn aligner_panic_at_the_head_of_a_plan_is_an_error() {
        let (_genome, store, manifest, inner) = build_world(600, 50);
        let boom = Arc::new(BoomAligner { inner, calls: AtomicUsize::new(0) });
        let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
        let plan = Plan::builder(DataState::EncodedAgd).then(Stage::Align).build().unwrap();
        let req = PlanRequest {
            name: "t".into(),
            source: PlanSource::Dataset(manifest),
            chunk_size: 50,
            aligner: Some(boom.clone()),
            reference: vec![],
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.run(&rt, req)));
        let err = run.expect("the caller must not unwind").expect_err("the aligner panicked");
        assert!(err.to_string().contains("aligner boom"), "{err}");
        let calls = boom.calls.load(Ordering::SeqCst);
        // Once every worker has reached this barrier, every task queued
        // before it has finished.
        let threads = rt.executor().threads();
        let barrier = Arc::new(std::sync::Barrier::new(threads));
        rt.executor().map_batch(vec![(); threads], None, move |_, ()| {
            barrier.wait();
        });
        assert_eq!(boom.calls.load(Ordering::SeqCst), calls, "align tasks outlived the stage");
    }
}
