//! SAM/BAM export (paper §4.4, §5.7).
//!
//! "Persona also implements an output subgraph for the common SAM/BAM
//! format for compatibility with tools that have not been integrated or
//! do not yet support AGD." The SAM stage keeps a bounded window of
//! chunks in flight and writes them in dataset order; BAM compresses its
//! BGZF blocks as executor batches the same way:
//!
//! ```text
//! manifest server ─► load ───────────────────► format ─────────► stage thread: reorder ─► out
//!     (names)        (get + decode 4 columns)  (subchunk tasks)    (by chunk index)
//! ```

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use persona_agd::chunk::ChunkData;
use persona_agd::chunk_io::ChunkStore;
use persona_agd::columns;
use persona_agd::manifest::Manifest;
use persona_agd::results::AlignmentResult;
use persona_compress::deflate::CompressLevel;
use persona_formats::bam::{bgzf_block, bgzf_block_ranges};
use persona_formats::sam::{RefMap, SamRecord};

use crate::config::PersonaConfig;
use crate::pipeline::{drive, load_column, subchunk_ranges, Edge, Progress, StageReport, Step};
use crate::runtime::{Pending, PersonaRuntime};
use crate::{Error, Result};

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

/// The four decoded columns a SAM line is formatted from.
struct SamColumns {
    meta: ChunkData,
    bases: ChunkData,
    quals: ChunkData,
    results: ChunkData,
}

/// The executor step one chunk of the SAM export is waiting on.
enum SamStep {
    Load(Pending<Result<SamColumns>>),
    Format(Pending<Result<Vec<u8>>>),
}

impl Step for SamStep {
    fn is_done(&self) -> bool {
        match self {
            SamStep::Load(p) => p.is_done(),
            SamStep::Format(p) => p.is_done(),
        }
    }

    fn settle(self) {
        match self {
            SamStep::Load(p) => p.settle(),
            SamStep::Format(p) => p.settle(),
        }
    }
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
/// `input` as SAM text. Each chunk is loaded by one executor task and
/// formatted by a batch of subchunk tasks; the stage thread writes the
/// chunks in dataset order. With a live input this overlaps whatever
/// stage is feeding it (duplicate marking in the fused pipeline); the
/// header needs the manifest up front, which such a producer delivers
/// before its first chunk.
pub(crate) fn export_sam_rt(
    rt: &PersonaRuntime,
    input: Edge,
    out: &mut (impl Write + Send),
) -> Result<ExportReport> {
    let server = input.chunks(Some(rt.telemetry()));
    let manifest = input.manifest()?;
    let timer = rt.stage_timer();
    let exec = rt.stage_exec(&timer);
    let refs = Arc::new(RefMap::new(&manifest.reference));
    let mut header = Vec::new();
    persona_formats::sam::write_header(
        &mut header,
        &refs,
        manifest.sort_order == persona_agd::manifest::SortOrder::Coordinate,
    )?;
    out.write_all(&header)?;

    let subchunk = rt.config().subchunk_size.max(1);
    let (mut records, mut output_bytes) = (0u64, header.len() as u64);
    // Formatted chunks that arrived ahead of an earlier one, by index.
    let mut parked: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
    let mut next = 0usize;
    drive(
        rt.chunk_window(),
        |block| {
            let Some(task) = (if block { server.fetch() } else { server.try_fetch() }) else {
                return Ok(None);
            };
            // Stop pulling new chunks once the job is cancelled.
            rt.check_cancelled()?;
            let (store, stem) = (rt.store().clone(), task.stem);
            let load = exec.spawn_one(move || {
                let load = |column| load_column(store.as_ref(), &stem, column);
                Ok(SamColumns {
                    meta: load(columns::METADATA)?,
                    bases: load(columns::BASES)?,
                    quals: load(columns::QUAL)?,
                    results: load(columns::RESULTS)?,
                })
            });
            Ok(Some((task.chunk_idx, SamStep::Load(load))))
        },
        |(idx, step)| match step {
            SamStep::Load(load) => {
                let chunk = Arc::new(load.wait_one()?);
                records += chunk.meta.len() as u64;
                let refs = refs.clone();
                let format = exec.spawn(
                    subchunk_ranges(chunk.meta.len(), subchunk),
                    move |_, (lo, hi)| -> Result<Vec<u8>> {
                        let mut text = Vec::with_capacity((hi - lo) * 96);
                        for i in lo..hi {
                            let rec = SamRecord::from_result(
                                &refs,
                                chunk.meta.record(i),
                                chunk.bases.record(i),
                                chunk.quals.record(i),
                                &AlignmentResult::decode(chunk.results.record(i))?,
                            );
                            text.extend_from_slice(&rec.to_line(&refs));
                            text.push(b'\n');
                        }
                        Ok(text)
                    },
                );
                Ok(Progress::Next((idx, SamStep::Format(format))))
            }
            SamStep::Format(format) => {
                let text = format.wait()?.into_iter().collect::<Result<Vec<_>>>()?.concat();
                Ok(Progress::Done((idx, text)))
            }
        },
        |(idx, text)| {
            parked.insert(idx, text);
            while let Some(text) = parked.remove(&next) {
                output_bytes += text.len() as u64;
                out.write_all(&text)?;
                next += 1;
            }
            Ok(())
        },
    )?;
    if !parked.is_empty() {
        return Err(Error::Pipeline("export finished with gaps in chunk order".into()));
    }
    let stage = timer.finish();
    Ok(ExportReport {
        elapsed: stage.elapsed,
        records,
        output_bytes,
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
    let mut failed = None;
    let n = persona_formats::convert::agd_to_bam_with(
        &ds,
        rt.store().as_ref(),
        &mut counting,
        level,
        |payload, level| {
            // Share the payload; each task compresses one block range,
            // so nothing is copied before dispatch. Block boundaries
            // come from the format crate's single source of truth.
            let ranges = bgzf_block_ranges(payload.len());
            let payload = Arc::new(payload);
            match exec.map(ranges, move |_, (lo, hi)| bgzf_block(&payload[lo..hi], level)) {
                Ok(blocks) => blocks.concat(),
                // Cancelled or panicked mid-compress: emit nothing
                // further; the error fails the export below, so the
                // truncated BAM is never reported as success.
                Err(e) => {
                    failed = Some(e);
                    Vec::new()
                }
            }
        },
    )?;
    if let Some(e) = failed {
        return Err(e);
    }
    let stage = timer.finish();
    Ok(ExportReport {
        elapsed: stage.elapsed,
        records: n,
        output_bytes: counting.written,
        busy_fraction: stage.busy_fraction(),
    })
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
