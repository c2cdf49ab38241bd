//! The alignment pipeline: Persona's flagship subgraph (paper Fig. 3).
//!
//! ```text
//! manifest server ─► reader(s) ─► parser(s) ─► aligner kernel(s) ─► writer(s)
//!      (names)        (I/O)      (decompress)   (executor, Fig.4)    (results)
//! ```
//!
//! Only the `bases` and `qual` columns are fetched (§5.2: "we read only
//! these two columns of each chunk"); results are written as a new AGD
//! column. Aligner kernels split each chunk into subchunks and feed the
//! shared executor so chunk granularity never causes thread stragglers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use persona_agd::chunk::{ChunkData, RecordType};
use persona_agd::chunk_io::ChunkStore;
use persona_agd::columns;
use persona_agd::manifest::Manifest;
use persona_agd::results::AlignmentResult;
use persona_align::profile::PhaseProfile;
use persona_align::Aligner;
use persona_compress::codec::Codec;
use persona_compress::deflate::CompressLevel;
use persona_dataflow::graph::{GraphBuilder, RunReport};
use persona_dataflow::DataflowError;

use crate::config::PersonaConfig;
use crate::manifest_server::{ChunkFeeder, ChunkTask, ManifestServer};
use crate::pipeline::{deliver, graph_error, split_out, Edge, EdgeOut, StageReport};
use crate::runtime::PersonaRuntime;
use crate::Result;

/// Inputs to [`align_dataset`].
pub struct AlignInputs<'a> {
    /// Chunk storage holding the dataset (and receiving results).
    pub store: Arc<dyn ChunkStore>,
    /// The dataset manifest.
    pub manifest: &'a Manifest,
    /// The aligner resource (shared, like Fig. 3's genome index).
    pub aligner: Arc<dyn Aligner>,
    /// Pipeline tuning.
    pub config: PersonaConfig,
}

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
    /// Dataflow node statistics and utilization timeline.
    pub run: RunReport,
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

/// Message carrying one chunk's raw column objects.
struct RawChunk {
    task: ChunkTask,
    bases_obj: Vec<u8>,
    qual_obj: Vec<u8>,
}

/// Message carrying one chunk's decoded columns.
struct ParsedChunk {
    task: ChunkTask,
    bases: Arc<ChunkData>,
    #[allow(dead_code)] // Qualities flow with the chunk as in the paper.
    quals: Arc<ChunkData>,
}

/// Message carrying one chunk's alignment results.
struct ResultChunk {
    task: ChunkTask,
    results: Vec<AlignmentResult>,
}

/// Aligns every read of a dataset, writing a `results` column, using a
/// private manifest server and a transient runtime. Returns the run
/// report; the manifest gains the results column (callers persist it
/// via [`finalize_manifest`]).
pub fn align_dataset(inputs: AlignInputs<'_>) -> Result<AlignReport> {
    let server = ManifestServer::new(inputs.manifest);
    align_with_server(inputs, &server)
}

/// Aligns chunks handed out by a (possibly shared) manifest server —
/// the multi-server deployment path (§5.2): each "server" runs this
/// function over the same `ManifestServer`.
pub fn align_with_server(inputs: AlignInputs<'_>, server: &ManifestServer) -> Result<AlignReport> {
    let rt = PersonaRuntime::new(inputs.store.clone(), inputs.config)?;
    align_chunks(&rt, server, inputs.aligner.clone(), None)
}

/// The align stage on a shared runtime: aligns the chunks of `input`,
/// then records the results column and `reference` in the dataset's
/// manifest and persists it ([`finalize_manifest`]). With a live input
/// alignment overlaps whatever stage is feeding it; with `out`, each
/// chunk is announced downstream once its results are durable (how the
/// incremental sort starts while later chunks are still aligning), and
/// the finalized manifest follows.
pub(crate) fn align_rt(
    rt: &PersonaRuntime,
    input: Edge,
    aligner: Arc<dyn Aligner>,
    reference: &[(String, u64)],
    out: Option<EdgeOut>,
) -> Result<(Manifest, AlignReport)> {
    let (results_out, promise) = split_out(out);
    let server = input.chunks(Some(rt.telemetry()));
    let report = align_chunks(rt, &server, aligner, results_out)?;
    let mut manifest = input.manifest()?;
    finalize_manifest(rt.store().as_ref(), &mut manifest, reference)?;
    deliver(promise, &manifest);
    Ok((manifest, report))
}

/// Aligns chunks from `server`: kernels split each chunk into subchunks
/// and submit them as tagged task batches on the runtime's executor
/// (Fig. 4). Each chunk's task is pushed into `results_out` after its
/// results column lands in the store; the feeder is dropped — closing
/// the downstream queue — when the stage completes (the graph run
/// consumes every node closure before returning).
fn align_chunks(
    rt: &PersonaRuntime,
    server: &ManifestServer,
    aligner: Arc<dyn Aligner>,
    results_out: Option<ChunkFeeder>,
) -> Result<AlignReport> {
    let cfg = *rt.config();
    let store = rt.store().clone();
    let executor = rt.executor().clone();
    let timer = rt.stage_timer();
    let reads_ctr = Arc::new(AtomicU64::new(0));
    let bases_ctr = Arc::new(AtomicU64::new(0));
    let mapped_ctr = Arc::new(AtomicU64::new(0));
    let chunks_ctr = Arc::new(AtomicU64::new(0));
    let profile = Arc::new(Mutex::new(PhaseProfile::default()));

    let mut g = GraphBuilder::new("align");
    if cfg.sample_ms > 0 {
        g.sample_every(Duration::from_millis(cfg.sample_ms));
    }
    g.track_external("executor", executor.counters(), executor.threads());

    let q_raw = g.queue::<RawChunk>("raw-chunks", cfg.capacity_for(cfg.parser_parallelism));
    let q_parsed = g.queue::<ParsedChunk>("parsed-chunks", cfg.capacity_for(cfg.aligner_kernels));
    let q_results =
        g.queue::<ResultChunk>("result-chunks", cfg.capacity_for(cfg.writer_parallelism));

    // Input subgraph: readers fetch chunk names from the manifest server
    // and pull the two needed column objects from storage.
    {
        let server = server.clone();
        let store = store.clone();
        let qr = q_raw.clone();
        let cancel = rt.job().map(|j| j.cancel_token().clone());
        let trace = rt.trace().cloned();
        g.node("reader", cfg.reader_parallelism, [q_raw.produces()], move |ctx| {
            while let Some(task) = server.fetch() {
                // Stop pulling new chunks once the job is cancelled.
                if cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                    return Err("job cancelled".into());
                }
                // The chunk span opens when the chunk is dispatched off
                // the manifest server and closes when its results land
                // (writer node below).
                if let Some(t) = &trace {
                    t.chunk_begin("align", task.chunk_idx as u64);
                }
                let bases_name = format!("{}.{}", task.stem, columns::BASES);
                let qual_name = format!("{}.{}", task.stem, columns::QUAL);
                let bases_obj = ctx
                    .wait_external(|| store.get(&bases_name))
                    .map_err(|e| format!("read {bases_name}: {e}"))?;
                let qual_obj = ctx
                    .wait_external(|| store.get(&qual_name))
                    .map_err(|e| format!("read {qual_name}: {e}"))?;
                ctx.add_items(1);
                ctx.push(&qr, RawChunk { task, bases_obj, qual_obj })?;
            }
            Ok(())
        });
    }

    // Parser: decompress + unpack into chunk objects.
    {
        let (qi, qo) = (q_raw.clone(), q_parsed.clone());
        g.node("parser", cfg.parser_parallelism, [q_parsed.produces()], move |ctx| {
            while let Some(raw) = ctx.pop(&qi) {
                let bases = ChunkData::decode(&raw.bases_obj).map_err(|e| e.to_string())?;
                let quals = ChunkData::decode(&raw.qual_obj).map_err(|e| e.to_string())?;
                if bases.len() != raw.task.num_records as usize {
                    return Err(format!(
                        "chunk {}: {} records on disk, {} in manifest",
                        raw.task.stem,
                        bases.len(),
                        raw.task.num_records
                    )
                    .into());
                }
                ctx.add_items(1);
                ctx.push(
                    &qo,
                    ParsedChunk { task: raw.task, bases: Arc::new(bases), quals: Arc::new(quals) },
                )?;
            }
            Ok(())
        });
    }

    // Process subgraph: aligner kernels split chunks into subchunks and
    // feed the shared executor (Fig. 4).
    {
        let (qi, qo) = (q_parsed.clone(), q_results.clone());
        let exec = rt.stage_exec(&timer);
        let aligner = aligner.clone();
        let (reads_ctr, bases_ctr, mapped_ctr, profile) =
            (reads_ctr.clone(), bases_ctr.clone(), mapped_ctr.clone(), profile.clone());
        let subchunk = cfg.subchunk_size.max(1);
        g.node("aligner", cfg.aligner_kernels, [q_results.produces()], move |ctx| {
            while let Some(parsed) = ctx.pop(&qi) {
                let n = parsed.bases.len();
                let slots: Arc<Mutex<Vec<(usize, Vec<AlignmentResult>)>>> =
                    Arc::new(Mutex::new(Vec::with_capacity(n / subchunk + 1)));
                let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
                for (lo, hi) in crate::pipeline::subchunk_ranges(n, subchunk) {
                    let bases = parsed.bases.clone();
                    let quals = parsed.quals.clone();
                    let aligner = aligner.clone();
                    let slots = slots.clone();
                    let profile = profile.clone();
                    tasks.push(Box::new(move || {
                        let mut out = Vec::with_capacity(hi - lo);
                        let mut prof = PhaseProfile::default();
                        for i in lo..hi {
                            out.push(aligner.align_read_profiled(
                                bases.record(i),
                                quals.record(i),
                                &mut prof,
                            ));
                        }
                        profile.lock().merge(&prof);
                        slots.lock().push((lo, out));
                    }));
                }
                let batch = exec.submit_batch(tasks);
                if ctx.wait_external(|| batch.wait_cancelled()) {
                    return Err("job cancelled".into());
                }

                let mut parts = match Arc::try_unwrap(slots) {
                    Ok(m) => m.into_inner(),
                    Err(_) => return Err("subchunk tasks still hold result slots".into()),
                };
                parts.sort_unstable_by_key(|(lo, _)| *lo);
                let mut results = Vec::with_capacity(n);
                for (_, part) in parts {
                    results.extend(part);
                }
                let total_bases: u64 = (0..n).map(|i| parsed.bases.record(i).len() as u64).sum();
                reads_ctr.fetch_add(n as u64, Ordering::Relaxed);
                bases_ctr.fetch_add(total_bases, Ordering::Relaxed);
                mapped_ctr.fetch_add(
                    results.iter().filter(|r| !r.is_unmapped()).count() as u64,
                    Ordering::Relaxed,
                );
                ctx.add_items(n as u64);
                ctx.push(&qo, ResultChunk { task: parsed.task, results })?;
            }
            Ok(())
        });
    }

    // Output subgraph: encode the results column, store it, then (when
    // fused with a downstream sort) announce the finished chunk.
    {
        let qi = q_results.clone();
        let store = store.clone();
        let chunks_ctr = chunks_ctr.clone();
        let trace = rt.trace().cloned();
        g.node("writer", cfg.writer_parallelism, [], move |ctx| {
            while let Some(chunk) = ctx.pop(&qi) {
                let encoded: Vec<Vec<u8>> = chunk.results.iter().map(|r| r.encode()).collect();
                let data = ChunkData::from_records(
                    RecordType::Results,
                    encoded.iter().map(|r| r.as_slice()),
                )
                .map_err(|e| e.to_string())?;
                let obj =
                    data.encode(Codec::Gzip, CompressLevel::Fast).map_err(|e| e.to_string())?;
                let name = format!("{}.{}", chunk.task.stem, columns::RESULTS);
                ctx.wait_external(|| store.put(&name, &obj))
                    .map_err(|e| format!("write {name}: {e}"))?;
                // Push only after the results object is durable: the
                // sort will read it straight back.
                if let Some(out) = &results_out {
                    if !ctx.wait_external(|| out.push(chunk.task.clone())) {
                        return Err(DataflowError::Canceled);
                    }
                }
                chunks_ctr.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = &trace {
                    t.chunk_end("align", chunk.task.chunk_idx as u64);
                }
                ctx.add_items(1);
            }
            Ok(())
        });
    }

    let run = g.run().map_err(|(e, _)| graph_error(rt, e))?;
    let busy_fraction = timer.finish().busy_fraction();
    let merged_profile = *profile.lock();
    Ok(AlignReport {
        elapsed: run.elapsed,
        reads: reads_ctr.load(Ordering::Relaxed),
        bases: bases_ctr.load(Ordering::Relaxed),
        mapped: mapped_ctr.load(Ordering::Relaxed),
        chunks: chunks_ctr.load(Ordering::Relaxed),
        run,
        profile: merged_profile,
        busy_fraction,
        finished_at: Instant::now(),
    })
}

/// Records the results column (and reference contigs) in the manifest
/// and persists it to the store.
pub fn finalize_manifest(
    store: &dyn ChunkStore,
    manifest: &mut Manifest,
    reference: &[(String, u64)],
) -> Result<()> {
    manifest.add_column(columns::RESULTS, Codec::Gzip)?;
    persona_formats::convert::set_reference(manifest, reference);
    store.put(&format!("{}.manifest.json", manifest.name), manifest.to_json()?.as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_agd::builder::DatasetWriter;
    use persona_agd::chunk_io::MemStore;
    use persona_agd::dataset::Dataset;
    use persona_align::snap::{SnapAligner, SnapParams};
    use persona_index::SeedIndex;
    use persona_seq::read::Origin;
    use persona_seq::simulate::{ReadSimulator, SimParams};
    use persona_seq::Genome;

    fn build_world(
        n_reads: usize,
        chunk_size: usize,
    ) -> (Arc<Genome>, Arc<MemStore>, Manifest, Arc<dyn Aligner>) {
        let genome = Arc::new(Genome::random_with_seed(404, &[("chr1", 60_000)]));
        let mut sim = ReadSimulator::new(
            &genome,
            SimParams { error_rate: 0.005, seed: 40, ..SimParams::default() },
        );
        let store = Arc::new(MemStore::new());
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

    #[test]
    fn aligns_whole_dataset_through_pipeline() {
        let (genome, store, mut manifest, aligner) = build_world(600, 100);
        let report = align_dataset(AlignInputs {
            store: store.clone(),
            manifest: &manifest,
            aligner,
            config: PersonaConfig::small(),
        })
        .unwrap();
        assert_eq!(report.reads, 600);
        assert_eq!(report.chunks, 6);
        assert_eq!(report.bases, 600 * 101);
        assert!(report.mapped >= 590, "only {} mapped", report.mapped);
        assert!(report.run.is_ok());

        finalize_manifest(
            store.as_ref(),
            &mut manifest,
            &[("chr1".to_string(), genome.total_len())],
        )
        .unwrap();

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
        align_dataset(AlignInputs {
            store: store.clone(),
            manifest: &manifest,
            aligner: aligner.clone(),
            config: PersonaConfig::small(),
        })
        .unwrap();
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
        let server = ManifestServer::new(&manifest);
        let store_dyn: Arc<dyn persona_agd::chunk_io::ChunkStore> = store.clone();
        let rt = PersonaRuntime::new(store_dyn, PersonaConfig::small()).unwrap();
        // Two "servers" race on the same manifest queue, sharing one
        // runtime (and therefore one executor).
        let mut handles = Vec::new();
        for _ in 0..2 {
            let rt = rt.clone();
            let server = server.clone();
            let aligner = aligner.clone();
            handles.push(std::thread::spawn(move || {
                align_chunks(&rt, &server, aligner, None).unwrap().reads
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 400);
        assert_eq!(server.remaining(), 0);
        // Every chunk's results object exists exactly once.
        for e in &manifest.records {
            assert!(store.exists(&format!("{}.results", e.path)));
        }
    }

    #[test]
    fn missing_column_fails_cleanly() {
        let (_genome, store, manifest, aligner) = build_world(100, 50);
        store.delete("t-1.bases").unwrap();
        let err = align_dataset(AlignInputs {
            store: store.clone(),
            manifest: &manifest,
            aligner,
            config: PersonaConfig::small(),
        });
        assert!(err.is_err());
    }

    #[test]
    fn empty_dataset_is_fine() {
        let store = Arc::new(MemStore::new());
        let manifest = DatasetWriter::new("e", 10).unwrap().finish(store.as_ref()).unwrap();
        let genome = Arc::new(Genome::random_with_seed(1, &[("c", 30_000)]));
        let index = Arc::new(SeedIndex::build(&genome, 16));
        let aligner: Arc<dyn Aligner> =
            Arc::new(SnapAligner::new(genome.clone(), index, SnapParams::default()));
        let report = align_dataset(AlignInputs {
            store,
            manifest: &manifest,
            aligner,
            config: PersonaConfig::small(),
        })
        .unwrap();
        assert_eq!(report.reads, 0);
    }
}
