//! SAM/BAM export (paper §4.4, §5.7).
//!
//! "Persona also implements an output subgraph for the common SAM/BAM
//! format for compatibility with tools that have not been integrated or
//! do not yet support AGD." SAM formatting runs as subchunk task
//! batches on the shared executor with an ordered single writer; BAM
//! compresses its BGZF blocks the same way.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use persona_agd::chunk_io::ChunkStore;
use persona_agd::columns;
use persona_agd::manifest::Manifest;
use persona_agd::results::AlignmentResult;
use persona_compress::deflate::CompressLevel;
use persona_dataflow::graph::GraphBuilder;
use persona_formats::bam::{bgzf_block, bgzf_block_ranges};
use persona_formats::sam::{RefMap, SamRecord};

use crate::config::PersonaConfig;
use crate::pipeline::{graph_error, Edge, StageReport};
use crate::runtime::PersonaRuntime;
use crate::Result;

/// Outcome of an export run.
#[derive(Debug)]
pub struct ExportReport {
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Records exported.
    pub records: u64,
    /// Output bytes produced.
    pub output_bytes: u64,
    /// The stage's share of shared-executor worker time.
    pub busy_fraction: f64,
}

impl ExportReport {
    /// Output megabytes per second (the §5.7 unit); 0.0 for an empty or
    /// instantaneous run.
    pub fn mb_per_sec(&self) -> f64 {
        crate::pipeline::rate_per_sec(self.output_bytes as f64 / 1e6, self.elapsed)
    }
}

impl StageReport for ExportReport {
    fn elapsed(&self) -> Duration {
        self.elapsed
    }

    fn busy_fraction(&self) -> f64 {
        self.busy_fraction
    }
}

struct FormattedChunk {
    idx: usize,
    text: Vec<u8>,
    records: u64,
}

/// Exports an aligned dataset as SAM text on a transient private
/// runtime.
pub fn export_sam(
    store: &Arc<dyn ChunkStore>,
    manifest: &Manifest,
    out: &mut (impl Write + Send),
    config: &PersonaConfig,
) -> Result<ExportReport> {
    let rt = PersonaRuntime::new(store.clone(), *config)?;
    export_sam_rt(&rt, Edge::Landed(manifest.clone()), out)
}

/// The export-sam stage on a shared runtime: formats the chunks of
/// `input` as SAM text. Formatting runs as subchunk task batches on the
/// executor; the writer reassembles chunks in dataset order. With a
/// live input this overlaps whatever stage is feeding it (duplicate
/// marking in the fused pipeline); the header needs the manifest up
/// front, which such a producer delivers before its first chunk.
pub(crate) fn export_sam_rt(
    rt: &PersonaRuntime,
    input: Edge,
    out: &mut (impl Write + Send),
) -> Result<ExportReport> {
    let server = input.chunks(Some(rt.telemetry()));
    let manifest = input.manifest()?;
    let config = *rt.config();
    let timer = rt.stage_timer();
    let refs = Arc::new(RefMap::new(&manifest.reference));
    let mut header = Vec::new();
    persona_formats::sam::write_header(
        &mut header,
        &refs,
        manifest.sort_order == persona_agd::manifest::SortOrder::Coordinate,
    )?;
    out.write_all(&header)?;

    let formatters = config.parser_parallelism.max(2);
    let records_total = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let bytes_total = Arc::new(std::sync::atomic::AtomicU64::new(header.len() as u64));

    let mut g = GraphBuilder::new("export-sam");
    g.track_external("executor", rt.executor().counters(), rt.executor().threads());
    let q_formatted = g.queue::<FormattedChunk>("formatted", config.capacity_for(1));

    {
        let store = rt.store().clone();
        let exec = rt.stage_exec(&timer);
        let refs = refs.clone();
        let qf = q_formatted.clone();
        let subchunk = config.subchunk_size.max(1);
        g.node("formatter", formatters, [q_formatted.produces()], move |ctx| {
            while let Some(task) = server.fetch() {
                // Stop pulling new chunks once the job is cancelled.
                if exec.is_cancelled() {
                    return Err("job cancelled".into());
                }
                let mut load =
                    |col: &str| -> std::result::Result<persona_agd::chunk::ChunkData, String> {
                        let raw = ctx.wait_external(|| ctx_get(&*store, &task.stem, col))?;
                        persona_agd::chunk::ChunkData::decode(&raw).map_err(|e| e.to_string())
                    };
                let meta = Arc::new(load(columns::METADATA)?);
                let bases = Arc::new(load(columns::BASES)?);
                let quals = Arc::new(load(columns::QUAL)?);
                let results = Arc::new(load(columns::RESULTS)?);
                let n = meta.len();
                // Format subchunks as parallel executor tasks, in order.
                let ranges = crate::pipeline::subchunk_ranges(n, subchunk);
                let (m, b, q, r, rf) =
                    (meta.clone(), bases.clone(), quals.clone(), results.clone(), refs.clone());
                let pieces = ctx
                    .wait_external(|| {
                        exec.map(ranges, move |_, (lo, hi)| {
                            let mut text = Vec::with_capacity((hi - lo) * 96);
                            for i in lo..hi {
                                let res = AlignmentResult::decode(r.record(i))
                                    .map_err(|e| e.to_string())?;
                                let rec = SamRecord::from_result(
                                    &rf,
                                    m.record(i),
                                    b.record(i),
                                    q.record(i),
                                    &res,
                                );
                                text.extend_from_slice(&rec.to_line(&rf));
                                text.push(b'\n');
                            }
                            Ok::<Vec<u8>, String>(text)
                        })
                    })
                    .map_err(|e| e.to_string())?;
                let mut text = Vec::new();
                for piece in pieces {
                    text.extend_from_slice(&piece?);
                }
                ctx.add_items(n as u64);
                ctx.push(&qf, FormattedChunk { idx: task.chunk_idx, text, records: n as u64 })?;
            }
            Ok(())
        });
    }

    // Ordered writer: reorders chunks by index before writing.
    let writer_out = Arc::new(parking_lot::Mutex::new(OutSink { buf: Vec::new() }));
    {
        let qf = q_formatted.clone();
        let writer_out = writer_out.clone();
        let records_total = records_total.clone();
        let bytes_total = bytes_total.clone();
        g.node("writer", 1, [], move |ctx| {
            let mut pending: std::collections::BTreeMap<usize, FormattedChunk> =
                std::collections::BTreeMap::new();
            let mut next = 0usize;
            while let Some(chunk) = ctx.pop(&qf) {
                pending.insert(chunk.idx, chunk);
                while let Some(c) = pending.remove(&next) {
                    bytes_total
                        .fetch_add(c.text.len() as u64, std::sync::atomic::Ordering::Relaxed);
                    records_total.fetch_add(c.records, std::sync::atomic::Ordering::Relaxed);
                    writer_out.lock().buf.extend_from_slice(&c.text);
                    ctx.add_items(1);
                    next += 1;
                }
            }
            if !pending.is_empty() {
                return Err("export writer finished with gaps in chunk order".into());
            }
            Ok(())
        });
    }

    let run = g.run().map_err(|(e, _)| graph_error(rt, e))?;
    let stage = timer.finish();
    let sink = writer_out.lock();
    out.write_all(&sink.buf)?;
    Ok(ExportReport {
        elapsed: run.elapsed,
        records: records_total.load(std::sync::atomic::Ordering::Relaxed),
        output_bytes: bytes_total.load(std::sync::atomic::Ordering::Relaxed),
        busy_fraction: stage.busy_fraction(),
    })
}

/// Exports an aligned dataset as BAM with single-threaded BGZF (the
/// compatibility path of §4.4).
pub fn export_bam(
    store: &Arc<dyn ChunkStore>,
    manifest: &Manifest,
    out: &mut impl Write,
    level: CompressLevel,
) -> Result<ExportReport> {
    let started = std::time::Instant::now();
    let ds = persona_agd::dataset::Dataset::new(manifest.clone());
    let mut counting = CountingWriter { inner: out, written: 0 };
    let n = persona_formats::convert::agd_to_bam(&ds, store.as_ref(), &mut counting, level)?;
    Ok(ExportReport {
        elapsed: started.elapsed(),
        records: n,
        output_bytes: counting.written,
        busy_fraction: 0.0,
    })
}

/// The export-bam stage on a shared runtime: writes the landed dataset
/// of `input` as BAM, independent BGZF blocks compressing as one
/// executor task batch (how `samtools -@` parallelizes BAM writing, on
/// Persona's scheduler).
pub(crate) fn export_bam_rt(
    rt: &PersonaRuntime,
    input: Edge,
    out: &mut impl Write,
    level: CompressLevel,
) -> Result<ExportReport> {
    let timer = rt.stage_timer();
    let ds = persona_agd::dataset::Dataset::new(input.manifest()?);
    let mut counting = CountingWriter { inner: out, written: 0 };
    let exec = rt.stage_exec(&timer);
    let n = persona_formats::convert::agd_to_bam_with(
        &ds,
        rt.store().as_ref(),
        &mut counting,
        level,
        move |payload, level| {
            // Share the payload; each task compresses one block range,
            // so nothing is copied before dispatch. Block boundaries
            // come from the format crate's single source of truth.
            let ranges = bgzf_block_ranges(payload.len());
            let payload = Arc::new(payload);
            match exec.map(ranges, move |_, (lo, hi)| bgzf_block(&payload[lo..hi], level)) {
                Ok(blocks) => blocks.concat(),
                // Cancelled mid-compress: emit nothing further; the
                // check below fails the export so the truncated BAM is
                // never reported as success.
                Err(_) => Vec::new(),
            }
        },
    )?;
    rt.check_cancelled()?;
    let stage = timer.finish();
    Ok(ExportReport {
        elapsed: stage.elapsed,
        records: n,
        output_bytes: counting.written,
        busy_fraction: stage.busy_fraction(),
    })
}

struct OutSink {
    buf: Vec<u8>,
}

struct CountingWriter<'a, W: Write> {
    inner: &'a mut W,
    written: u64,
}

impl<W: Write> Write for CountingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Fetches one column object, mapping errors to node error strings.
fn ctx_get(store: &dyn ChunkStore, stem: &str, col: &str) -> std::result::Result<Vec<u8>, String> {
    store
        .get(&Manifest::chunk_object_name(stem, col))
        .map_err(|e| format!("read {stem}.{col}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_agd::builder::{ColumnAppender, ColumnConfig, DatasetWriter};
    use persona_agd::chunk::RecordType;
    use persona_agd::chunk_io::MemStore;
    use persona_agd::results::{CigarKind, CigarOp};
    use persona_compress::codec::Codec;

    fn world(n: usize, chunk: usize) -> (Arc<dyn ChunkStore>, Manifest) {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let mut w = DatasetWriter::new("x", chunk).unwrap();
        for i in 0..n {
            let meta = format!("r{i:04}");
            let bases: Vec<u8> = (0..40).map(|j| b"ACGT"[(i + j) % 4]).collect();
            w.append(store.as_ref(), meta.as_bytes(), &bases, &vec![b'E'; 40]).unwrap();
        }
        let mut manifest = w.finish(store.as_ref()).unwrap();
        persona_formats::convert::set_reference(&mut manifest, &[("chr1".to_string(), 100_000)]);
        let cfg = ColumnConfig { codec: Codec::Gzip, record_type: RecordType::Results };
        let sizes: Vec<u32> = manifest.records.iter().map(|e| e.num_records).collect();
        let mut app =
            ColumnAppender::new(&mut manifest, columns::RESULTS, cfg, CompressLevel::Fast).unwrap();
        let mut k = 0i64;
        for &sz in &sizes {
            let recs: Vec<Vec<u8>> = (0..sz)
                .map(|_| {
                    let r = AlignmentResult {
                        location: (k * 13) % 90_000,
                        mate_location: -1,
                        template_len: 0,
                        flags: 0,
                        mapq: 42,
                        cigar: vec![CigarOp { kind: CigarKind::Match, len: 40 }],
                    };
                    k += 1;
                    r.encode()
                })
                .collect();
            app.append_chunk(store.as_ref(), recs.iter().map(|r| r.as_slice())).unwrap();
        }
        app.finish(store.as_ref()).unwrap();
        (store, manifest)
    }

    #[test]
    fn sam_export_is_ordered_and_complete() {
        let (store, manifest) = world(200, 32);
        let mut out = Vec::new();
        let report = export_sam(&store, &manifest, &mut out, &PersonaConfig::small()).unwrap();
        assert_eq!(report.records, 200);
        assert!(report.busy_fraction > 0.0, "formatting must run on the executor");
        let text = String::from_utf8(out).unwrap();
        let body: Vec<&str> = text.lines().filter(|l| !l.starts_with('@')).collect();
        assert_eq!(body.len(), 200);
        // Records appear in dataset order: qnames r0000, r0001, ...
        for (i, line) in body.iter().enumerate() {
            assert!(line.starts_with(&format!("r{i:04}\t")), "line {i}: {line}");
        }
        assert!(report.output_bytes as usize >= text.len());
    }

    #[test]
    fn bam_export_roundtrips() {
        let (store, manifest) = world(120, 50);
        let mut out = Vec::new();
        let report = export_bam(&store, &manifest, &mut out, CompressLevel::Fast).unwrap();
        assert_eq!(report.records, 120);
        assert_eq!(report.output_bytes as usize, out.len());
        let bam = persona_formats::bam::read_bam(&out).unwrap();
        assert_eq!(bam.records.len(), 120);
    }

    #[test]
    fn bam_export_on_runtime_matches_single_threaded() {
        let (store, manifest) = world(300, 64);
        let mut serial = Vec::new();
        export_bam(&store, &manifest, &mut serial, CompressLevel::Fast).unwrap();
        let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
        let mut parallel = Vec::new();
        let report =
            export_bam_rt(&rt, Edge::Landed(manifest.clone()), &mut parallel, CompressLevel::Fast)
                .unwrap();
        assert_eq!(report.records, 300);
        assert_eq!(serial, parallel, "executor BGZF must be byte-identical");
    }

    #[test]
    fn export_without_results_fails() {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let mut w = DatasetWriter::new("nores", 10).unwrap();
        w.append(store.as_ref(), b"m", b"ACGT", b"IIII").unwrap();
        let manifest = w.finish(store.as_ref()).unwrap();
        let mut out = Vec::new();
        assert!(export_sam(&store, &manifest, &mut out, &PersonaConfig::small()).is_err());
    }
}
