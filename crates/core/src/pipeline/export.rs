//! SAM/BAM export (paper §4.4, §5.7).
//!
//! "Persona also implements an output subgraph for the common SAM/BAM
//! format for compatibility with tools that have not been integrated or
//! do not yet support AGD." Both stages keep a bounded window of chunks
//! in flight and write straight from the AGD columns — those a live
//! chunk carried, unpacked, else read from the store — into each
//! chunk's output buffer (`sam::write_line`, `bam::write_record`); the
//! stage thread puts the chunks back in dataset order. SAM formats a chunk as
//! subchunk tasks and writes the text out; BAM writes a chunk's records
//! in one task, cuts the ordered payload into BGZF blocks and compresses
//! each block as a task of its own, writing the blocks in order:
//!
//! ```text
//! chunk stream ─► load + format ──────────► stage thread: reorder ─► out (SAM)
//!                 (4 columns; subchunk       (by chunk index)
//!                  tasks for SAM, one        │
//!                  chunk task for BAM)       └─► cut 64 KiB blocks ─► bgzf tasks ─► out (BAM)
//! ```
//!
//! Memory is bounded by the window: at most `chunk_window` chunks in
//! flight or parked, and as many BGZF blocks in flight.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use persona_agd::chunk::ChunkData;
use persona_agd::chunk_io::ChunkStore;
use persona_agd::columns;
use persona_agd::manifest::Manifest;
use persona_compress::deflate::CompressLevel;
use persona_formats::bam::{self, bgzf_block, BGZF_BLOCK_SIZE, BGZF_EOF};
use persona_formats::convert::for_each_chunk_row;
use persona_formats::sam::{self, RefMap};

use crate::manifest_server::{Edge, EdgeChunk};
use crate::pipeline::{drive, load_column, subchunk_ranges, Progress, StageReport, Step};
use crate::runtime::{Pending, PersonaRuntime, StageExec};
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

/// The four decoded columns a chunk's records are written from.
struct Columns {
    meta: ChunkData,
    bases: ChunkData,
    quals: ChunkData,
    results: ChunkData,
}

impl Columns {
    /// The four columns of `chunk` decoded — carried, else read — each
    /// of which must hold the chunk's records.
    fn load(store: &dyn ChunkStore, mut chunk: EdgeChunk) -> Result<Columns> {
        let mut load = |column| load_column(store, &mut chunk, column);
        Ok(Columns {
            meta: load(columns::METADATA)?,
            bases: load(columns::BASES)?,
            quals: load(columns::QUAL)?,
            results: load(columns::RESULTS)?,
        })
    }

    fn len(&self) -> usize {
        self.meta.len()
    }

    /// The columns in the order [`for_each_chunk_row`] takes them.
    fn columns(&self) -> [&ChunkData; 4] {
        [&self.meta, &self.bases, &self.quals, &self.results]
    }

    /// Bytes of raw name, bases and qualities in records `lo..hi`: the
    /// variable part of their SAM or BAM form, to size a buffer once.
    fn raw_bytes(&self, lo: usize, hi: usize) -> usize {
        (lo..hi)
            .map(|i| {
                self.meta.record(i).len() + self.bases.record(i).len() + self.quals.record(i).len()
            })
            .sum()
    }
}

/// The executor step one chunk of the SAM export is waiting on.
enum SamStep {
    Load(Pending<Result<Columns>>),
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

/// The export-sam stage: formats the chunks of `input` as SAM text.
/// Each chunk is loaded by one executor task and formatted by a batch of
/// subchunk tasks; the stage thread writes the chunks in dataset order. With a live input this overlaps whatever
/// stage is feeding it (duplicate marking in the fused pipeline); the
/// header needs the manifest up front, which such a producer delivers
/// before its first chunk.
pub(crate) fn export_sam(
    rt: &PersonaRuntime,
    input: Edge,
    out: &mut (impl Write + Send),
) -> Result<ExportReport> {
    let manifest = input.manifest()?;
    let timer = rt.stage_timer();
    let exec = rt.stage_exec(&timer);
    let refs = Arc::new(RefMap::new(&manifest.reference));
    let mut header = Vec::new();
    sam::write_header(
        &mut header,
        &refs,
        manifest.sort_order == persona_agd::manifest::SortOrder::Coordinate,
    )?;
    out.write_all(&header)?;

    let subchunk = rt.config().subchunk_size.max(1);
    let (mut records, mut output_bytes) = (0u64, header.len() as u64);
    // Formatted chunks that arrived ahead of an earlier one, by index.
    let mut parked: BTreeMap<usize, Vec<Vec<u8>>> = BTreeMap::new();
    let mut next = 0usize;
    drive(
        rt.chunk_window(),
        |block| {
            let Some(chunk) = (if block { input.fetch() } else { input.try_fetch() }) else {
                return Ok(None);
            };
            // Stop pulling new chunks once the job is cancelled.
            rt.check_cancelled()?;
            let (store, idx) = (rt.store().clone(), chunk.chunk_idx);
            let load = exec.spawn_one(move || Columns::load(store.as_ref(), chunk));
            Ok(Some((idx, SamStep::Load(load))))
        },
        |(idx, step)| match step {
            SamStep::Load(load) => {
                let chunk = Arc::new(load.wait_one()?);
                records += chunk.len() as u64;
                let refs = refs.clone();
                let format = exec.spawn(
                    subchunk_ranges(chunk.len(), subchunk),
                    move |_, (lo, hi)| -> Result<Vec<u8>> {
                        let mut text = Vec::with_capacity(chunk.raw_bytes(lo, hi) + (hi - lo) * 64);
                        for_each_chunk_row(&refs, chunk.columns(), lo..hi, |row| {
                            sam::write_line(&mut text, &refs, row);
                            text.push(b'\n');
                            Ok(())
                        })?;
                        Ok(text)
                    },
                );
                Ok(Progress::Next((idx, SamStep::Format(format))))
            }
            SamStep::Format(format) => {
                let pieces = format.wait()?.into_iter().collect::<Result<Vec<_>>>()?;
                Ok(Progress::Done((idx, pieces)))
            }
        },
        |(idx, pieces)| {
            parked.insert(idx, pieces);
            while let Some(pieces) = parked.remove(&next) {
                for text in pieces {
                    output_bytes += text.len() as u64;
                    out.write_all(&text)?;
                }
                next += 1;
            }
            Ok(())
        },
    )?;
    check_complete(&parked, next, &manifest)?;
    let stage = timer.finish();
    Ok(ExportReport {
        elapsed: stage.elapsed,
        records,
        output_bytes,
        busy_fraction: stage.busy_fraction(),
    })
}

/// The export-bam stage (the compatibility path of §4.4): writes the
/// chunks of `input` as BAM. One executor task per chunk loads its four
/// columns and writes its BAM records; the stage thread appends the
/// chunks in dataset order to a payload that starts with the BAM header,
/// cuts it into BGZF blocks as they fill, and compresses each block as
/// an executor task (how `samtools -@` parallelizes BAM writing, on
/// Persona's scheduler). The blocks are exactly those of the whole
/// payload, so the file is byte-identical to a single-threaded write.
pub(crate) fn export_bam(
    rt: &PersonaRuntime,
    input: Edge,
    out: &mut impl Write,
    level: CompressLevel,
) -> Result<ExportReport> {
    let manifest = input.manifest()?;
    let timer = rt.stage_timer();
    let exec = rt.stage_exec(&timer);
    let refs = Arc::new(RefMap::new(&manifest.reference));
    let mut blocks = BgzfBlocks::new(exec.clone(), level, rt.chunk_window(), out);
    let mut header = Vec::new();
    bam::write_header(&mut header, &refs)?;
    blocks.append(&header)?;

    let mut records = 0u64;
    // Written chunks that arrived ahead of an earlier one, by index.
    let mut parked: BTreeMap<usize, (u64, Vec<u8>)> = BTreeMap::new();
    let mut next = 0usize;
    drive(
        rt.chunk_window(),
        |block| {
            let Some(chunk) = (if block { input.fetch() } else { input.try_fetch() }) else {
                return Ok(None);
            };
            rt.check_cancelled()?;
            let (store, idx, refs) = (rt.store().clone(), chunk.chunk_idx, refs.clone());
            let write = exec.spawn_one(move || {
                let chunk = Columns::load(store.as_ref(), chunk)?;
                let n = chunk.len();
                let mut bam = Vec::with_capacity(chunk.raw_bytes(0, n) + n * 48);
                for_each_chunk_row(&refs, chunk.columns(), 0..n, |row| {
                    bam::write_record(&mut bam, row);
                    Ok(())
                })?;
                Ok((n as u64, bam))
            });
            Ok(Some((idx, write)))
        },
        |(idx, write)| Ok(Progress::Done((idx, write.wait_one()?))),
        |(idx, chunk)| {
            parked.insert(idx, chunk);
            while let Some((n, bam)) = parked.remove(&next) {
                records += n;
                blocks.append(&bam)?;
                next += 1;
            }
            Ok(())
        },
    )?;
    check_complete(&parked, next, &manifest)?;
    let output_bytes = blocks.finish()?;
    let stage = timer.finish();
    Ok(ExportReport {
        elapsed: stage.elapsed,
        records,
        output_bytes,
        busy_fraction: stage.busy_fraction(),
    })
}

/// Fails unless the stream held every chunk of `manifest`, in order:
/// `next` chunks written, none left `parked`. A live producer that
/// stopped early closed its stream after delivering the manifest.
fn check_complete<T>(parked: &BTreeMap<usize, T>, next: usize, manifest: &Manifest) -> Result<()> {
    if !parked.is_empty() {
        return Err(Error::Pipeline("export finished with gaps in chunk order".into()));
    }
    if next != manifest.records.len() {
        return Err(Error::NeighbourClosed);
    }
    Ok(())
}

/// The BGZF side of export-bam, on the stage thread: fills one
/// [`BGZF_BLOCK_SIZE`] buffer at a time from the ordered payload (each
/// payload byte is copied once), compresses every full block as an
/// executor task, and writes finished blocks in order, waiting only
/// when more than `window` are in flight. Dropping it settles every
/// block still in flight, so no task of the stage outlives a failure.
struct BgzfBlocks<'w, W: Write> {
    exec: StageExec,
    level: CompressLevel,
    window: usize,
    filling: Vec<u8>,
    inflight: VecDeque<Pending<Result<Vec<u8>>>>,
    out: &'w mut W,
    written: u64,
}

impl<'w, W: Write> BgzfBlocks<'w, W> {
    fn new(exec: StageExec, level: CompressLevel, window: usize, out: &'w mut W) -> Self {
        BgzfBlocks {
            exec,
            level,
            window,
            filling: Vec::with_capacity(BGZF_BLOCK_SIZE),
            inflight: VecDeque::new(),
            out,
            written: 0,
        }
    }

    /// Appends the next payload bytes, submitting every block they fill.
    fn append(&mut self, mut bytes: &[u8]) -> Result<()> {
        while !bytes.is_empty() {
            let room = BGZF_BLOCK_SIZE - self.filling.len();
            let (now, later) = bytes.split_at(room.min(bytes.len()));
            self.filling.extend_from_slice(now);
            bytes = later;
            if self.filling.len() == BGZF_BLOCK_SIZE {
                let full =
                    std::mem::replace(&mut self.filling, Vec::with_capacity(BGZF_BLOCK_SIZE));
                self.submit(full)?;
            }
        }
        Ok(())
    }

    fn submit(&mut self, payload: Vec<u8>) -> Result<()> {
        let level = self.level;
        self.inflight.push_back(self.exec.spawn_one(move || Ok(bgzf_block(&payload, level))));
        self.drain(self.window)
    }

    /// Writes finished blocks from the front, waiting for the oldest
    /// while more than `keep` are in flight.
    fn drain(&mut self, keep: usize) -> Result<()> {
        while let Some(oldest) = self.inflight.front() {
            if self.inflight.len() <= keep && !oldest.is_done() {
                break;
            }
            let block = self.inflight.pop_front().expect("front exists").wait_one()?;
            self.out.write_all(&block)?;
            self.written += block.len() as u64;
        }
        Ok(())
    }

    /// Submits the last, partial block (the blocks are then exactly
    /// `bgzf_block_ranges` of the whole payload), writes every block and
    /// the EOF marker; returns the bytes written.
    fn finish(mut self) -> Result<u64> {
        if !self.filling.is_empty() {
            let last = std::mem::take(&mut self.filling);
            self.submit(last)?;
        }
        self.drain(0)?;
        self.out.write_all(&BGZF_EOF)?;
        Ok(self.written + BGZF_EOF.len() as u64)
    }
}

impl<W: Write> Drop for BgzfBlocks<'_, W> {
    fn drop(&mut self) {
        for block in self.inflight.drain(..) {
            block.settle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PersonaConfig;
    use crate::pipeline::run_stage;
    use crate::plan::{PlanSource, Stage, StageRun};
    use persona_agd::builder::{ColumnAppender, DatasetWriter};
    use persona_agd::chunk_io::MemStore;
    use persona_agd::manifest::Manifest;
    use persona_agd::results::{flags, AlignmentResult, CigarKind, CigarOp};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn world(n: usize, chunk: usize) -> (Arc<dyn ChunkStore>, Manifest) {
        world_of((0..n).map(|i| format!("r{i:04}").into_bytes()).collect(), chunk)
    }

    /// An aligned dataset of 40 bp reads named `names`, in chunks of
    /// `chunk`, on one 100 kbp contig; every third read is reverse.
    fn world_of(names: Vec<Vec<u8>>, chunk: usize) -> (Arc<dyn ChunkStore>, Manifest) {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let mut w = DatasetWriter::new("x", chunk).unwrap();
        for (i, meta) in names.iter().enumerate() {
            let bases: Vec<u8> = (0..40).map(|j| b"ACGT"[(i + j) % 4]).collect();
            w.append(store.as_ref(), meta, &bases, &[b'E'; 40]).unwrap();
        }
        let mut manifest = w.finish(store.as_ref()).unwrap();
        persona_formats::convert::set_reference(&mut manifest, &[("chr1".to_string(), 100_000)]);
        let sizes: Vec<u32> = manifest.records.iter().map(|e| e.num_records).collect();
        let mut app = ColumnAppender::new(&mut manifest, columns::RESULTS).unwrap();
        let mut k = 0i64;
        for &sz in &sizes {
            let recs: Vec<Vec<u8>> = (0..sz)
                .map(|_| {
                    let r = AlignmentResult {
                        location: (k * 13) % 90_000,
                        mate_location: -1,
                        template_len: 0,
                        flags: if k % 3 == 0 { flags::REVERSE } else { 0 },
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

    /// Exports the landed dataset `manifest` through the one-stage plan
    /// of `stage`, returning its report and output.
    fn export(
        store: &Arc<dyn ChunkStore>,
        manifest: &Manifest,
        stage: Stage,
    ) -> Result<(ExportReport, Vec<u8>)> {
        let mut report = run_stage(store, stage, PlanSource::Dataset(manifest.clone()), None)?;
        match (report.stages.pop(), report.sam.or(report.bam)) {
            (Some(StageRun::ExportSam(r) | StageRun::ExportBam(r)), Some(out)) => Ok((r, out)),
            (other, _) => panic!("expected an export report, got {other:?}"),
        }
    }

    /// The single-threaded reference export of the format crate.
    fn reference_bam(store: &Arc<dyn ChunkStore>, manifest: &Manifest) -> Vec<u8> {
        let ds = persona_agd::dataset::Dataset::new(manifest.clone());
        let mut out = Vec::new();
        persona_formats::convert::agd_to_bam(&ds, store.as_ref(), &mut out, CompressLevel::Fast)
            .unwrap();
        out
    }

    /// Runs the stage with `threads` executor threads and checks it
    /// against the reference export.
    fn assert_streams_like_the_reference(
        store: &Arc<dyn ChunkStore>,
        manifest: &Manifest,
        threads: usize,
    ) {
        let config = PersonaConfig { compute_threads: threads, subchunk_size: 64 };
        let rt = PersonaRuntime::new(store.clone(), config).unwrap();
        let mut out = Vec::new();
        let report =
            export_bam(&rt, Edge::landed(manifest.clone()), &mut out, CompressLevel::Fast).unwrap();
        assert_eq!(report.records, manifest.total_records);
        assert_eq!(report.output_bytes as usize, out.len());
        assert!(out == reference_bam(store, manifest), "{threads} threads");
    }

    /// Payload bytes (header + records) of a `world_of(names, _)` BAM.
    fn payload_len(names: &[Vec<u8>]) -> usize {
        let refs = RefMap::new(&[persona_agd::manifest::RefContig {
            name: "chr1".into(),
            length: 100_000,
        }]);
        let mut header = Vec::new();
        bam::write_header(&mut header, &refs).unwrap();
        // Fixed part, name + NUL, one CIGAR op, 20 packed bases, 40 quals.
        header.len() + names.iter().map(|n| 4 + 32 + n.len() + 1 + 4 + 20 + 40).sum::<usize>()
    }

    #[test]
    fn sam_export_is_ordered_and_complete() {
        let (store, manifest) = world(200, 32);
        let (report, out) = export(&store, &manifest, Stage::ExportSam).unwrap();
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
        let (report, out) = export(&store, &manifest, Stage::ExportBam).unwrap();
        assert_eq!(report.records, 120);
        assert_eq!(report.output_bytes as usize, out.len());
        let bam = persona_formats::bam::read_bam(&out).unwrap();
        assert_eq!(bam.records.len(), 120);
    }

    #[test]
    fn bam_export_on_runtime_matches_single_threaded() {
        let (store, manifest) = world(300, 64);
        for threads in [1, 2] {
            assert_streams_like_the_reference(&store, &manifest, threads);
        }
    }

    #[test]
    fn bam_export_of_tiny_datasets_matches_the_reference() {
        let empty = world(0, 10);
        let single = world(1, 10);
        let one_per_chunk = world(37, 1);
        for (store, manifest) in [empty, single, one_per_chunk] {
            for threads in [1, 2] {
                assert_streams_like_the_reference(&store, &manifest, threads);
            }
        }
    }

    /// Payloads ending exactly on a block boundary, one byte before and
    /// one after it; records straddle every boundary on the way.
    #[test]
    fn bam_export_at_block_boundaries_matches_the_reference() {
        for k in [1usize, 2] {
            for delta in [-1i64, 0, 1] {
                let target = (k * BGZF_BLOCK_SIZE) as i64 + delta;
                let mut names: Vec<Vec<u8>> = Vec::new();
                while payload_len(&names) as i64 + 106 <= target - 106 {
                    names.push(format!("r{:04}", names.len()).into_bytes());
                }
                // Pad the last name so the payload ends at `target`.
                let pad = (target - payload_len(&names) as i64 - 101) as usize;
                names.push(vec![b'p'; pad]);
                assert_eq!(payload_len(&names) as i64, target);
                // Every boundary inside the payload cuts a record.
                for edge in (1..=k).map(|b| b * BGZF_BLOCK_SIZE).filter(|&e| (e as i64) < target) {
                    let straddled = (1..=names.len()).any(|n| {
                        let (lo, hi) = (payload_len(&names[..n - 1]), payload_len(&names[..n]));
                        lo < edge && edge < hi
                    });
                    assert!(straddled, "k {k} delta {delta}: no record straddles {edge}");
                }
                let (store, manifest) = world_of(names, 97);
                for threads in [1, 2] {
                    assert_streams_like_the_reference(&store, &manifest, threads);
                }
            }
        }
    }

    /// A chunk whose `.qual` object is gone fails the stage with an
    /// error: the caller does not unwind, and no task of the stage runs
    /// after it has returned.
    #[test]
    fn bam_export_with_a_missing_column_fails_and_settles() {
        struct CountingStore {
            inner: MemStore,
            gets: AtomicUsize,
        }
        impl ChunkStore for CountingStore {
            fn get(&self, name: &str) -> std::io::Result<Vec<u8>> {
                // Slow enough that a task left running outlives the
                // stage by far more than the test takes to look.
                std::thread::sleep(Duration::from_millis(2));
                self.gets.fetch_add(1, Ordering::SeqCst);
                self.inner.get(name)
            }
            fn put(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
                self.inner.put(name, data)
            }
            fn delete(&self, name: &str) -> std::io::Result<()> {
                self.inner.delete(name)
            }
            fn list(&self) -> std::io::Result<Vec<String>> {
                self.inner.list()
            }
        }
        let (source, manifest) = world(2000, 20);
        let store = Arc::new(CountingStore { inner: MemStore::new(), gets: AtomicUsize::new(0) });
        for name in source.list().unwrap() {
            store.put(&name, &source.get(&name).unwrap()).unwrap();
        }
        store
            .delete(&Manifest::chunk_object_name(&manifest.records[3].path, columns::QUAL))
            .unwrap();
        let dyn_store: Arc<dyn ChunkStore> = store.clone();
        let rt = PersonaRuntime::new(dyn_store, PersonaConfig::small()).unwrap();
        let mut out = Vec::new();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            export_bam(&rt, Edge::landed(manifest.clone()), &mut out, CompressLevel::Fast)
        }));
        let err = run.expect("the caller must not unwind").expect_err("a column is missing");
        assert!(err.to_string().contains(".qual"), "{err}");
        let gets = store.gets.load(Ordering::SeqCst);
        // Once every worker has reached this barrier, every task queued
        // before it has finished.
        let threads = rt.executor().threads();
        let barrier = Arc::new(std::sync::Barrier::new(threads));
        rt.executor().map_batch(vec![(); threads], None, move |_, ()| {
            barrier.wait();
        });
        assert_eq!(store.gets.load(Ordering::SeqCst), gets, "export tasks outlived the stage");
    }

    #[test]
    fn export_without_results_fails() {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let mut w = DatasetWriter::new("nores", 10).unwrap();
        w.append(store.as_ref(), b"m", b"ACGT", b"IIII").unwrap();
        let manifest = w.finish(store.as_ref()).unwrap();
        assert!(export(&store, &manifest, Stage::ExportSam).is_err());
    }

    /// A chunk whose manifest entry counts more records than its columns
    /// store fails both exports with the typed error, instead of
    /// writing fewer records than the manifest holds.
    #[test]
    fn record_count_short_of_the_manifest_is_a_typed_error() {
        let (store, mut manifest) = world(50, 20);
        manifest.records.last_mut().unwrap().num_records += 1;
        manifest.total_records += 1;
        for stage in [Stage::ExportSam, Stage::ExportBam] {
            match export(&store, &manifest, stage) {
                Err(Error::Pipeline(msg)) => assert_eq!(
                    msg, "chunk x-2: 10 metadata records on disk, 11 in manifest",
                    "{stage}"
                ),
                Err(other) => panic!("{stage}: expected a pipeline error, got {other}"),
                Ok((report, _)) => panic!("{stage}: exported {} records", report.records),
            }
        }
    }
}
