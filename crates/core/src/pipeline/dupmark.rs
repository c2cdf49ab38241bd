//! Duplicate marking (paper §4.3, §5.6).
//!
//! "Duplicate marking is a process of marking reads that map to the
//! exact same location on the reference genome … Persona duplicate
//! marking uses an efficient hashing technique based on the approach
//! used by Samblaster", with one columnar twist the paper calls out in
//! §5.6: "Persona also uses less I/O since only the results column needs
//! to be read/written from the AGD dataset."
//!
//! The signature scan itself is a sequential hash pass (duplicates can
//! span chunks), but chunk decode and the re-encode+write of changed
//! chunks run as tagged task batches on the shared executor, and each
//! finished chunk can be streamed to a downstream stage (SAM export in
//! the fused pipeline) while later chunks are still being rewritten.

use std::collections::{HashSet, VecDeque};
use std::time::Duration;

use persona_agd::columns;
use persona_agd::manifest::Manifest;
use persona_agd::results::{flags, AlignmentResult, CigarKind};

use crate::manifest_server::ChunkTask;
use crate::pipeline::{
    deliver, encode_results, load_column, split_out, Edge, EdgeOut, StageReport, Step,
};
use crate::runtime::{Pending, PersonaRuntime};
use crate::{Error, Result};

/// Outcome of a duplicate-marking run.
#[derive(Debug)]
pub struct DupmarkReport {
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Records examined.
    pub reads: u64,
    /// Records newly marked as duplicates.
    pub duplicates: u64,
    /// The stage's share of shared-executor worker time.
    pub busy_fraction: f64,
}

impl DupmarkReport {
    /// Reads processed per second (the §5.6 comparison unit); 0.0 for
    /// an empty or instantaneous run.
    pub fn reads_per_sec(&self) -> f64 {
        crate::pipeline::rate_per_sec(self.reads as f64, self.elapsed)
    }
}

impl StageReport for DupmarkReport {
    fn elapsed(&self) -> Duration {
        self.elapsed
    }

    fn busy_fraction(&self) -> f64 {
        self.busy_fraction
    }
}

/// The Samblaster-style signature of one alignment: unclipped 5'
/// position + orientation (+ mate signature bits for pairs).
fn signature(r: &AlignmentResult) -> Option<(i64, bool, i64)> {
    if r.is_unmapped() {
        return None;
    }
    let leading_clip = r
        .cigar
        .first()
        .filter(|op| op.kind == CigarKind::SoftClip)
        .map(|op| op.len as i64)
        .unwrap_or(0);
    let trailing_clip = r
        .cigar
        .last()
        .filter(|op| op.kind == CigarKind::SoftClip)
        .map(|op| op.len as i64)
        .unwrap_or(0);
    // Unclipped 5' coordinate: forward reads use start - leading clip;
    // reverse reads use end + trailing clip (their 5' end is the right).
    let pos = if r.is_reverse() {
        r.location + r.reference_span() as i64 + trailing_clip
    } else {
        r.location - leading_clip
    };
    // Pairs additionally key on the mate's position so only whole-
    // fragment duplicates collapse.
    let mate = if r.flags & flags::PAIRED != 0 { r.mate_location } else { -2 };
    Some((pos, r.is_reverse(), mate))
}

/// The dupmark stage: marks duplicates in the landed dataset of `input`
/// in place (no other column is touched; the scan is sequential in chunk
/// order, so nothing streams *into* it) and returns the dataset's
/// unchanged manifest.
///
/// When `out` is given, the manifest is delivered up front and every
/// chunk is announced as soon as its final results are durable in the
/// store — unchanged chunks right after the scan, rewritten chunks once
/// their executor write task lands — so a downstream consumer can
/// overlap with the tail of the marking pass.
pub(crate) fn mark_duplicates(
    rt: &PersonaRuntime,
    input: Edge,
    out: Option<EdgeOut>,
) -> Result<(Manifest, DupmarkReport)> {
    let manifest = input.manifest()?;
    let (feeder, promise) = split_out(out);
    deliver(promise, &manifest);
    let timer = rt.stage_timer();
    let store = rt.store();
    let exec = rt.stage_exec(&timer);
    let mut seen: HashSet<(i64, bool, i64)> = HashSet::new();
    let mut duplicates = 0u64;
    let mut reads = 0u64;

    let n = manifest.records.len();
    // Bounded lookahead: only this many chunks are decoded (or being
    // rewritten) at once, so memory stays O(window), not O(dataset),
    // while the executor still sees parallel work.
    let window = rt.chunk_window();
    let mut write_err: Option<Error> = None;

    let mut decodes: VecDeque<Pending<Result<Vec<AlignmentResult>>>> = VecDeque::new();
    let mut next_decode = 0usize;
    // Chunks scanned but whose rewrite (if any) may still be in flight,
    // in chunk order; drained to the feeder as their writes land.
    let mut inflight: VecDeque<(usize, Option<Pending<Result<()>>>)> = VecDeque::new();
    // Executor tasks never touch the feeder themselves — a blocked
    // chunk-queue push on an executor thread could starve the very
    // downstream tasks that would drain it.
    let mut drain_one = |inflight: &mut VecDeque<(usize, Option<Pending<Result<()>>>)>| {
        if let Some((idx, write)) = inflight.pop_front() {
            if let Some(Err(e)) = write.map(Pending::wait_one) {
                write_err.get_or_insert(e);
            }
            // Once any rewrite has failed, stop handing chunks
            // downstream: the contract is that a pushed chunk's final
            // results are durable, and the run is about to error out.
            if write_err.is_some() {
                return;
            }
            if let Some(feeder) = &feeder {
                feeder.push(ChunkTask {
                    chunk_idx: idx,
                    stem: manifest.records[idx].path.clone(),
                    num_records: manifest.records[idx].num_records,
                });
            }
        }
    };

    // Sequential signature scan (chunk order defines which record of a
    // duplicate set keeps its flag clear), with decode running `window`
    // chunks ahead on the executor and rewrites of changed chunks
    // trailing behind on it.
    for idx in 0..n {
        while next_decode < n && next_decode < idx + window {
            let entry = &manifest.records[next_decode];
            let (store, stem, records) = (store.clone(), entry.path.clone(), entry.num_records);
            decodes.push_back(exec.spawn_one(move || {
                let chunk = load_column(store.as_ref(), &stem, columns::RESULTS, records)?;
                let mut results = Vec::with_capacity(chunk.len());
                for rec in chunk.iter() {
                    results.push(AlignmentResult::decode(rec)?);
                }
                Ok(results)
            }));
            next_decode += 1;
        }
        // A decode skipped by the job's cancel token unwinds as
        // Cancelled, like a failed one.
        let decoded = decodes.pop_front().expect("decode scheduled ahead of scan").wait_one();
        let mut results = match decoded {
            Ok(r) => r,
            Err(e) => {
                // Settle in-flight rewrites AND lookahead decodes before
                // reporting failure, so no stray executor task touches
                // the store after this function has returned an error.
                inflight.into_iter().filter_map(|(_, write)| write).for_each(Step::settle);
                decodes.into_iter().for_each(Step::settle);
                return Err(e);
            }
        };
        reads += results.len() as u64;

        let mut changed = false;
        for r in results.iter_mut() {
            if let Some(sig) = signature(r) {
                if !seen.insert(sig) && !r.is_duplicate() {
                    r.flags |= flags::DUPLICATE;
                    duplicates += 1;
                    changed = true;
                }
            }
        }
        let write = changed.then(|| {
            let name = Manifest::chunk_object_name(&manifest.records[idx].path, columns::RESULTS);
            let store = store.clone();
            exec.spawn_one(move || {
                store.put(&name, &encode_results(&results)?)?;
                Ok(())
            })
        });
        inflight.push_back((idx, write));
        // Stream finished chunks downstream in order, each once its
        // final results are durable, keeping at most `window` rewrites
        // (and their record buffers) alive.
        while inflight.len() > window {
            drain_one(&mut inflight);
        }
    }
    while !inflight.is_empty() {
        drain_one(&mut inflight);
    }
    drop(feeder); // Closes the downstream chunk stream.
    if let Some(e) = write_err {
        return Err(e);
    }
    // A rewrite skipped by cancellation leaves stale results in the
    // store; the run must not report success.
    rt.check_cancelled()?;

    let stage = timer.finish();
    let report = DupmarkReport {
        elapsed: stage.elapsed,
        reads,
        duplicates,
        busy_fraction: stage.busy_fraction(),
    };
    Ok((manifest, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PersonaConfig;
    use crate::pipeline::run_stage;
    use crate::plan::{PlanSource, Stage, StageRun};
    use persona_agd::builder::{ColumnAppender, DatasetWriter};
    use persona_agd::chunk_io::{ChunkStore, MemStore};
    use persona_agd::dataset::Dataset;
    use persona_agd::results::CigarOp;
    use std::sync::Arc;

    fn result(loc: i64, reverse: bool) -> AlignmentResult {
        AlignmentResult {
            location: loc,
            mate_location: -1,
            template_len: 0,
            flags: if reverse { flags::REVERSE } else { 0 },
            mapq: 60,
            cigar: vec![CigarOp { kind: CigarKind::Match, len: 50 }],
        }
    }

    fn world(results: Vec<AlignmentResult>, chunk: usize) -> (Arc<dyn ChunkStore>, Manifest) {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let mut w = DatasetWriter::new("d", chunk).unwrap();
        for i in 0..results.len() {
            let meta = format!("r{i}");
            w.append(store.as_ref(), meta.as_bytes(), b"ACGTACGT", b"IIIIIIII").unwrap();
        }
        let mut manifest = w.finish(store.as_ref()).unwrap();
        let sizes: Vec<u32> = manifest.records.iter().map(|e| e.num_records).collect();
        let mut app = ColumnAppender::new(&mut manifest, columns::RESULTS).unwrap();
        let mut k = 0usize;
        for &sz in &sizes {
            let recs: Vec<Vec<u8>> = (0..sz)
                .map(|_| {
                    let r = results[k].encode();
                    k += 1;
                    r
                })
                .collect();
            app.append_chunk(store.as_ref(), recs.iter().map(|r| r.as_slice())).unwrap();
        }
        app.finish(store.as_ref()).unwrap();
        (store, manifest)
    }

    /// Marks duplicates in the landed dataset `manifest` through the
    /// one-stage dupmark plan.
    fn mark(store: &Arc<dyn ChunkStore>, manifest: &Manifest) -> Result<DupmarkReport> {
        let source = PlanSource::Dataset(manifest.clone());
        match run_stage(store, Stage::Dupmark, source, None)?.stages.pop() {
            Some(StageRun::Dupmark(report)) => Ok(report),
            other => panic!("expected a dupmark report, got {other:?}"),
        }
    }

    fn flags_of(store: &Arc<dyn ChunkStore>, m: &Manifest) -> Vec<bool> {
        let ds = Dataset::new(m.clone());
        let mut out = Vec::new();
        for c in 0..ds.num_chunks() {
            for r in ds.read_results_chunk(store.as_ref(), c).unwrap() {
                out.push(r.is_duplicate());
            }
        }
        out
    }

    #[test]
    fn marks_exact_position_duplicates() {
        let results = vec![
            result(100, false),
            result(200, false),
            result(100, false), // Duplicate of record 0.
            result(100, true),  // Same position, other strand: not a dup.
            result(100, false), // Another duplicate.
        ];
        let (store, manifest) = world(results, 3);
        let report = mark(&store, &manifest).unwrap();
        assert_eq!(report.reads, 5);
        assert_eq!(report.duplicates, 2);
        assert_eq!(flags_of(&store, &manifest), vec![false, false, true, false, true]);
    }

    #[test]
    fn soft_clips_do_not_hide_duplicates() {
        // Same fragment, one copy soft-clipped at the 5' end: unclipped
        // positions agree -> duplicate.
        let clean = result(100, false);
        let mut clipped = result(103, false);
        clipped.cigar = vec![
            CigarOp { kind: CigarKind::SoftClip, len: 3 },
            CigarOp { kind: CigarKind::Match, len: 47 },
        ];
        let (store, manifest) = world(vec![clean, clipped], 10);
        let report = mark(&store, &manifest).unwrap();
        assert_eq!(report.duplicates, 1);
        assert_eq!(flags_of(&store, &manifest), vec![false, true]);
    }

    #[test]
    fn reverse_reads_key_on_unclipped_end() {
        // Two reverse reads whose 3'-start differs but whose 5' (right)
        // unclipped ends coincide are duplicates.
        let a = result(100, true); // Span 50: 5' end at 150.
        let mut b = result(110, true); // Span 40 -> end 150.
        b.cigar = vec![CigarOp { kind: CigarKind::Match, len: 40 }];
        let (store, manifest) = world(vec![a, b], 10);
        let report = mark(&store, &manifest).unwrap();
        assert_eq!(report.duplicates, 1);
    }

    #[test]
    fn unmapped_reads_never_marked() {
        let results = vec![AlignmentResult::unmapped(), AlignmentResult::unmapped()];
        let (store, manifest) = world(results, 10);
        let report = mark(&store, &manifest).unwrap();
        assert_eq!(report.duplicates, 0);
    }

    #[test]
    fn paired_reads_require_matching_mate() {
        let mut a = result(100, false);
        a.flags |= flags::PAIRED;
        a.mate_location = 400;
        let mut b = result(100, false);
        b.flags |= flags::PAIRED;
        b.mate_location = 500; // Different fragment.
        let mut c = result(100, false);
        c.flags |= flags::PAIRED;
        c.mate_location = 400; // True duplicate of a.
        let (store, manifest) = world(vec![a, b, c], 10);
        let report = mark(&store, &manifest).unwrap();
        assert_eq!(report.duplicates, 1);
        assert_eq!(flags_of(&store, &manifest), vec![false, false, true]);
    }

    #[test]
    fn idempotent() {
        let results = vec![result(1, false), result(1, false), result(1, false)];
        let (store, manifest) = world(results, 10);
        let first = mark(&store, &manifest).unwrap();
        assert_eq!(first.duplicates, 2);
        let second = mark(&store, &manifest).unwrap();
        assert_eq!(second.duplicates, 0, "re-run must not re-mark");
        assert_eq!(flags_of(&store, &manifest), vec![false, true, true]);
    }

    #[test]
    fn spans_chunk_boundaries() {
        // Duplicates in different chunks must still be found.
        let results: Vec<AlignmentResult> = (0..20).map(|i| result(i as i64 % 4, false)).collect();
        let (store, manifest) = world(results, 5);
        let report = mark(&store, &manifest).unwrap();
        assert_eq!(report.duplicates, 16); // 4 firsts, 16 dups.
    }

    #[test]
    fn streams_every_chunk_exactly_once() {
        let results: Vec<AlignmentResult> = (0..30).map(|i| result(i as i64 % 6, false)).collect();
        let (store, manifest) = world(results, 5);
        let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
        let (out, edge) = Edge::streaming(4, rt.telemetry());
        let collector = {
            let server = edge.chunks(None);
            std::thread::spawn(move || {
                let mut idxs = Vec::new();
                while let Some(task) = server.fetch() {
                    idxs.push(task.chunk_idx);
                }
                idxs
            })
        };
        let (_, report) = mark_duplicates(&rt, Edge::Landed(manifest.clone()), Some(out)).unwrap();
        assert_eq!(report.duplicates, 24);
        assert_eq!(edge.manifest().unwrap(), manifest);
        let mut idxs = collector.join().unwrap();
        idxs.sort();
        assert_eq!(idxs, (0..manifest.records.len()).collect::<Vec<_>>());
    }

    /// A chunk whose manifest entry counts more records than its
    /// `results` column stores fails the stage with the typed error.
    #[test]
    fn record_count_short_of_the_manifest_is_a_typed_error() {
        let results: Vec<AlignmentResult> = (0..8).map(|i| result(i, false)).collect();
        let (store, mut manifest) = world(results, 3);
        manifest.records.last_mut().unwrap().num_records += 1;
        manifest.total_records += 1;
        match mark(&store, &manifest) {
            Err(Error::Pipeline(msg)) => {
                assert_eq!(msg, "chunk d-2: 2 results records on disk, 3 in manifest", "{msg}")
            }
            other => panic!("expected a pipeline error, got {other:?}"),
        }
    }
}
