//! FASTQ import (paper §5.7: "FASTQ is imported to AGD at 360 MB/s").
//!
//! The import pipeline parses FASTQ serially (framing is inherently
//! sequential) but encodes and compresses column chunks on the shared
//! executor, with a single writer landing objects in storage:
//!
//! ```text
//! parser ─► [read batches] ─► encoder(s) ─► writer ─► (chunk feeder)
//!                               │ executor: per-column encode tasks
//! ```

use std::io::BufRead;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use persona_agd::chunk::{ChunkData, RecordType};
use persona_agd::chunk_io::ChunkStore;
use persona_agd::columns;
use persona_agd::manifest::{ChunkEntry, Manifest};
use persona_compress::codec::Codec;
use persona_compress::deflate::CompressLevel;
use persona_dataflow::graph::GraphBuilder;
use persona_dataflow::DataflowError;
use persona_seq::Read;

use crate::config::PersonaConfig;
use crate::manifest_server::ChunkTask;
use crate::pipeline::{deliver, graph_error, split_out, EdgeOut, StageReport};
use crate::runtime::PersonaRuntime;
use crate::{Error, Result};

/// Outcome of an import run.
#[derive(Debug)]
pub struct ImportReport {
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Uncompressed FASTQ bytes consumed.
    pub input_bytes: u64,
    /// Reads imported.
    pub reads: u64,
    /// Chunks written.
    pub chunks: u64,
    /// The stage's share of shared-executor worker time.
    pub busy_fraction: f64,
}

impl ImportReport {
    /// Input megabytes per second (the §5.7 unit); 0.0 for an empty or
    /// instantaneous run.
    pub fn mb_per_sec(&self) -> f64 {
        crate::pipeline::rate_per_sec(self.input_bytes as f64 / 1e6, self.elapsed)
    }
}

impl StageReport for ImportReport {
    fn elapsed(&self) -> Duration {
        self.elapsed
    }

    fn busy_fraction(&self) -> f64 {
        self.busy_fraction
    }
}

struct Batch {
    idx: u64,
    reads: Vec<Read>,
}

struct EncodedChunk {
    idx: u64,
    num_records: u32,
    bases_obj: Vec<u8>,
    qual_obj: Vec<u8>,
    meta_obj: Vec<u8>,
}

/// Which read column an encode task produces.
#[derive(Clone, Copy)]
enum Column {
    Bases,
    Qual,
    Meta,
}

/// Imports FASTQ into a new AGD dataset named `name` on a transient
/// private runtime. Returns the manifest and throughput report.
pub fn import_fastq(
    input: impl BufRead + Send + 'static,
    store: &Arc<dyn ChunkStore>,
    name: &str,
    chunk_size: usize,
    config: &PersonaConfig,
) -> Result<(Manifest, ImportReport)> {
    let rt = PersonaRuntime::new(store.clone(), *config)?;
    import_fastq_rt(&rt, input, name, chunk_size, None)
}

/// Imports FASTQ on a shared runtime, encoding columns as executor task
/// batches. When `out` is given, every written chunk is also announced
/// on it (the stream ends when the import graph finishes) and the
/// manifest is delivered once it has landed.
pub(crate) fn import_fastq_rt(
    rt: &PersonaRuntime,
    input: impl BufRead + Send + 'static,
    name: &str,
    chunk_size: usize,
    out: Option<EdgeOut>,
) -> Result<(Manifest, ImportReport)> {
    let (feeder, promise) = split_out(out);
    if chunk_size == 0 {
        return Err(Error::Pipeline("chunk_size must be positive".into()));
    }
    let config = *rt.config();
    let mut manifest = Manifest::new(name);
    manifest.add_column(columns::BASES, Default::default())?;
    manifest.add_column(columns::QUAL, Default::default())?;
    manifest.add_column(columns::METADATA, Default::default())?;
    manifest.row_groups = vec![vec![
        columns::BASES.to_string(),
        columns::QUAL.to_string(),
        columns::METADATA.to_string(),
    ]];
    let bases_codec = manifest.column_codec(columns::BASES)?;
    let qual_codec = manifest.column_codec(columns::QUAL)?;
    let meta_codec = manifest.column_codec(columns::METADATA)?;

    let timer = rt.stage_timer();
    let input_bytes = Arc::new(AtomicU64::new(0));
    let reads_ctr = Arc::new(AtomicU64::new(0));
    let entries: Arc<Mutex<Vec<(u64, u32)>>> = Arc::new(Mutex::new(Vec::new()));

    // The FASTQ reader is consumed by one source node; wrap it so the
    // closure (Fn) can take it despite being called once per worker.
    let reader_cell = Arc::new(Mutex::new(Some(input)));

    let encoders = config.parser_parallelism.max(2);
    let mut g = GraphBuilder::new("import");
    g.track_external("executor", rt.executor().counters(), rt.executor().threads());
    let q_batches = g.queue::<Batch>("batches", config.capacity_for(encoders));
    let q_encoded = g.queue::<EncodedChunk>("encoded", config.capacity_for(1));

    {
        let qb = q_batches.clone();
        let reader_cell = reader_cell.clone();
        let input_bytes = input_bytes.clone();
        let reads_ctr = reads_ctr.clone();
        let cancel = rt.job().map(|j| j.cancel_token().clone());
        g.source("fastq-parser", [q_batches.produces()], move |ctx| {
            let mut input = reader_cell.lock().take().ok_or("parser ran twice")?;
            let mut reader = persona_formats::fastq::FastqReader::new(&mut input);
            let mut idx = 0u64;
            let mut batch = Vec::with_capacity(chunk_size);
            loop {
                // A cancelled job stops consuming input: downstream
                // batches drain (skipped by the executor) and the run
                // unwinds as Cancelled.
                if batch.is_empty() && cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                    return Err("job cancelled".into());
                }
                match reader.next() {
                    Ok(Some(read)) => {
                        // FASTQ framing: 4 lines ≈ meta + bases + quals + 3
                        // separators and newlines.
                        input_bytes.fetch_add(
                            (read.meta.len() + read.bases.len() + read.quals.len() + 7) as u64,
                            Ordering::Relaxed,
                        );
                        reads_ctr.fetch_add(1, Ordering::Relaxed);
                        batch.push(read);
                        if batch.len() >= chunk_size {
                            ctx.add_items(batch.len() as u64);
                            ctx.push(&qb, Batch { idx, reads: std::mem::take(&mut batch) })?;
                            idx += 1;
                            batch = Vec::with_capacity(chunk_size);
                        }
                    }
                    Ok(None) => break,
                    Err(e) => return Err(format!("fastq: {e}").into()),
                }
            }
            if !batch.is_empty() {
                ctx.add_items(batch.len() as u64);
                ctx.push(&qb, Batch { idx, reads: batch })?;
            }
            Ok(())
        });
    }

    // Encoder node: per-column encode+compress runs as a task batch on
    // the shared executor; the node itself only marshals the results.
    {
        let (qi, qo) = (q_batches.clone(), q_encoded.clone());
        let exec = rt.stage_exec(&timer);
        g.node("encoder", encoders, [q_encoded.produces()], move |ctx| {
            while let Some(batch) = ctx.pop(&qi) {
                let n = batch.reads.len() as u32;
                let reads = Arc::new(batch.reads);
                let jobs: Vec<(Column, RecordType, Codec)> = vec![
                    (Column::Bases, RecordType::CompactBases, bases_codec),
                    (Column::Qual, RecordType::Text, qual_codec),
                    (Column::Meta, RecordType::Text, meta_codec),
                ];
                let r = reads.clone();
                let mut objs = ctx
                    .wait_external(|| {
                        exec.map(jobs, move |_, (col, rtype, codec)| {
                            let records = r.iter().map(|read| match col {
                                Column::Bases => read.bases.as_slice(),
                                Column::Qual => read.quals.as_slice(),
                                Column::Meta => read.meta.as_slice(),
                            });
                            ChunkData::from_records(rtype, records)
                                .and_then(|chunk| chunk.encode(codec, CompressLevel::Fast))
                                .map_err(|e| e.to_string())
                        })
                    })
                    .map_err(|e| e.to_string())?;
                let meta_obj = objs.pop().expect("meta encode result")?;
                let qual_obj = objs.pop().expect("qual encode result")?;
                let bases_obj = objs.pop().expect("bases encode result")?;
                ctx.add_items(n as u64);
                ctx.push(
                    &qo,
                    EncodedChunk { idx: batch.idx, num_records: n, bases_obj, qual_obj, meta_obj },
                )?;
            }
            Ok(())
        });
    }

    {
        let qi = q_encoded.clone();
        let store = rt.store().clone();
        let name = name.to_string();
        let entries = entries.clone();
        g.node("writer", 1, [], move |ctx| {
            while let Some(chunk) = ctx.pop(&qi) {
                let stem = format!("{}-{}", name, chunk.idx);
                ctx.wait_external(|| -> std::io::Result<()> {
                    store.put(&format!("{stem}.{}", columns::BASES), &chunk.bases_obj)?;
                    store.put(&format!("{stem}.{}", columns::QUAL), &chunk.qual_obj)?;
                    store.put(&format!("{stem}.{}", columns::METADATA), &chunk.meta_obj)?;
                    Ok(())
                })
                .map_err(|e| format!("write chunk {}: {e}", chunk.idx))?;
                entries.lock().push((chunk.idx, chunk.num_records));
                if let Some(feeder) = &feeder {
                    let task = ChunkTask {
                        chunk_idx: chunk.idx as usize,
                        stem,
                        num_records: chunk.num_records,
                    };
                    if !ctx.wait_external(|| feeder.push(task)) {
                        return Err(DataflowError::Canceled);
                    }
                }
                ctx.add_items(1);
            }
            Ok(())
        });
    }

    let run = g.run().map_err(|(e, _)| graph_error(rt, e))?;
    let stage = timer.finish();

    // Assemble the manifest in chunk order.
    let mut entry_list = entries.lock().clone();
    entry_list.sort_unstable_by_key(|&(idx, _)| idx);
    let mut first = 0u64;
    for (idx, n) in &entry_list {
        manifest.records.push(ChunkEntry {
            path: format!("{name}-{idx}"),
            first_record: first,
            num_records: *n,
        });
        first += *n as u64;
    }
    manifest.total_records = first;
    manifest.validate()?;
    rt.store().put(&format!("{name}.manifest.json"), manifest.to_json()?.as_bytes())?;
    deliver(promise, &manifest);

    Ok((
        manifest,
        ImportReport {
            elapsed: run.elapsed,
            input_bytes: input_bytes.load(Ordering::Relaxed),
            reads: reads_ctr.load(Ordering::Relaxed),
            chunks: entry_list.len() as u64,
            busy_fraction: stage.busy_fraction(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_agd::chunk_io::MemStore;
    use persona_agd::dataset::Dataset;
    use persona_formats::fastq;
    use persona_seq::simulate::{ReadSimulator, SimParams};
    use persona_seq::Genome;

    fn fastq_bytes(n: usize) -> (Vec<u8>, Vec<Read>) {
        let genome = Genome::random_with_seed(66, &[("chr1", 30_000)]);
        let mut sim = ReadSimulator::new(&genome, SimParams { seed: 6, ..SimParams::default() });
        let reads = sim.take_single(n);
        (fastq::to_bytes(&reads), reads)
    }

    #[test]
    fn imports_and_preserves_order() {
        let (bytes, reads) = fastq_bytes(300);
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let (manifest, report) =
            import_fastq(std::io::Cursor::new(bytes), &store, "imp", 64, &PersonaConfig::small())
                .unwrap();
        assert_eq!(report.reads, 300);
        assert_eq!(report.chunks, 5);
        assert_eq!(manifest.total_records, 300);
        assert!(report.input_bytes > 0);
        assert!(report.busy_fraction > 0.0, "encoding must run on the executor");

        let ds = Dataset::new(manifest);
        let mut i = 0usize;
        for c in 0..ds.num_chunks() {
            let meta = ds.read_column_chunk(store.as_ref(), c, columns::METADATA).unwrap();
            let bases = ds.read_column_chunk(store.as_ref(), c, columns::BASES).unwrap();
            for r in 0..meta.len() {
                assert_eq!(meta.record(r), reads[i].meta.as_slice(), "record {i}");
                assert_eq!(bases.record(r), reads[i].bases.as_slice(), "record {i}");
                i += 1;
            }
        }
        assert_eq!(i, 300);
    }

    #[test]
    fn streams_chunk_tasks_to_a_feeder() {
        let (bytes, _) = fastq_bytes(250);
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
        let (out, edge) = crate::pipeline::Edge::streaming(4, rt.telemetry());
        let collector = {
            let server = edge.chunks(None);
            std::thread::spawn(move || {
                let mut stems = Vec::new();
                while let Some(task) = server.fetch() {
                    stems.push((task.chunk_idx, task.stem, task.num_records));
                }
                stems
            })
        };
        let (manifest, report) =
            import_fastq_rt(&rt, std::io::Cursor::new(bytes), "st", 100, Some(out)).unwrap();
        assert_eq!(edge.manifest().unwrap(), manifest);
        let mut got = collector.join().unwrap();
        got.sort();
        assert_eq!(got.len(), manifest.records.len());
        assert_eq!(report.chunks, got.len() as u64);
        for (i, (idx, stem, n)) in got.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(stem, &manifest.records[i].path);
            assert_eq!(*n, manifest.records[i].num_records);
        }
    }

    #[test]
    fn malformed_fastq_fails() {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let bad = b"@r1\nACGT\nOOPS\nIIII\n";
        let err = import_fastq(
            std::io::Cursor::new(&bad[..]),
            &store,
            "bad",
            10,
            &PersonaConfig::small(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn empty_input_empty_dataset() {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let (manifest, report) = import_fastq(
            std::io::Cursor::new(&b""[..]),
            &store,
            "empty",
            10,
            &PersonaConfig::small(),
        )
        .unwrap();
        assert_eq!(report.reads, 0);
        assert_eq!(manifest.total_records, 0);
    }
}
