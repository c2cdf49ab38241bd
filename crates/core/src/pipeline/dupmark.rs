//! Duplicate marking (paper §4.3, §5.6).
//!
//! "Duplicate marking is a process of marking reads that map to the
//! exact same location on the reference genome … Persona duplicate
//! marking uses an efficient hashing technique based on the approach
//! used by Samblaster", with one columnar twist the paper calls out in
//! §5.6: "Persona also uses less I/O since only the results column needs
//! to be read/written from the AGD dataset."
//!
//! A record is a duplicate when an earlier record of the dataset has its
//! Samblaster signature: unclipped 5′ position, orientation and, for a
//! pair, the mate's location. The first record of a signature keeps its
//! flag clear, a record already marked still counts as seen, no flag is
//! ever cleared, and only newly marked records count.
//!
//! **Marking is windowed.** A mapped record's unclipped 5′ end lies its
//! *5′ offset* away from its location: the leading soft clip of a
//! forward read, the reference span plus the trailing clip of a reverse
//! one. Two records of one signature therefore lie within `D`, the
//! dataset's largest 5′ offset, of each other, and a chunk's duplicates
//! are decided by its own records plus its *halo*: the earlier records
//! located at or above its first mapped location minus `D`. One
//! executor task marks one chunk holding just that (`Marker`); no
//! state spans the dataset.
//!
//! **Marking rides the sort's write.** When `dupmark` directly follows
//! `sort` in a plan, the two share a fused group, the sort's
//! output-chunk tasks mark each chunk before they encode its `results`
//! (the halo is co-ranked out of the sort's runs, see
//! [`crate::pipeline::sort`]), and the dupmark runs no stage: the plan
//! driver wires the sort's output edge to the stage after it and
//! reports the sort's count as the dupmark's, with no wall and no busy
//! time of its own. This stage runs only over a dataset at rest — a
//! `sorted>dupmark…` plan, a job recovered after its sort landed, a
//! cache hit that ends at `sort` — where it runs the same kernel in two
//! parallel passes over `results`: the first reads each chunk's
//! `Extent`, the second marks each chunk with the earlier chunks that
//! reach within `D` of it read as its halo, and rewrites in place only
//! the chunks that changed, a window of chunks at a time so that no
//! chunk is read while it is rewritten. That pass assumes no order: on
//! a coordinate-sorted dataset a chunk's halo is the few chunks just
//! before it.

use std::collections::HashSet;
use std::ops::RangeInclusive;
use std::sync::Arc;

use persona_agd::chunk::RawChunk;
use persona_agd::columns;
use persona_agd::manifest::Manifest;
use persona_agd::results::{flags, AlignmentResult, CigarKind, CigarOp};

use crate::manifest_server::{Edge, EdgeChunk, EdgeOut};
use crate::pipeline::{owned, raw_column, subchunk_ranges};
use crate::runtime::{PersonaRuntime, StageExec};
use crate::Result;

/// Outcome of a duplicate-marking run.
#[derive(Debug)]
pub struct DupmarkReport {
    /// Records examined.
    pub reads: u64,
    /// Records newly marked as duplicates.
    pub duplicates: u64,
}

/// The Samblaster-style signature of one alignment: unclipped 5'
/// position, orientation, and the mate's location for a pair (-2
/// otherwise, so only whole-fragment duplicates collapse).
type Signature = (i64, bool, i64);

/// How far a mapped record's unclipped 5′ end lies from its location:
/// the leading soft clip of a forward read (its 5′ end is the left),
/// the reference span plus the trailing soft clip of a reverse read.
pub(crate) fn five_prime_offset(r: &AlignmentResult) -> i64 {
    let clip = |op: Option<&CigarOp>| {
        op.filter(|op| op.kind == CigarKind::SoftClip).map_or(0, |op| op.len as i64)
    };
    match r.is_reverse() {
        true => r.reference_span() as i64 + clip(r.cigar.last()),
        false => clip(r.cigar.first()),
    }
}

/// The signature of `r`; `None` for an unmapped read.
fn signature(r: &AlignmentResult) -> Option<Signature> {
    if r.is_unmapped() {
        return None;
    }
    let pos = match r.is_reverse() {
        true => r.location + five_prime_offset(r),
        false => r.location - five_prime_offset(r),
    };
    let mate = if r.flags & flags::PAIRED != 0 { r.mate_location } else { -2 };
    Some((pos, r.is_reverse(), mate))
}

/// The lowest location an earlier record sharing a signature with a
/// record at `location` or above can have, given the dataset's largest
/// 5′ offset `reach`: where a halo starts.
pub(crate) fn halo_floor(location: i64, reach: i64) -> i64 {
    location - reach
}

/// Where a results chunk's mapped records lie.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent {
    /// The lowest location.
    pub(crate) first: i64,
    /// The highest location.
    pub(crate) last: i64,
    /// The largest 5′ offset.
    pub(crate) reach: i64,
}

impl Extent {
    /// The extent of `chunk`'s mapped records; `None` when it has none.
    pub(crate) fn of(chunk: &RawChunk) -> Result<Option<Extent>> {
        let mut r = AlignmentResult::unmapped();
        let mut extent: Option<Extent> = None;
        for i in 0..chunk.len() {
            r.decode_into(chunk.record(i))?;
            if r.is_unmapped() {
                continue;
            }
            let (at, reach) = (r.location, five_prime_offset(&r));
            extent = Some(match extent {
                None => Extent { first: at, last: at, reach },
                Some(e) => Extent {
                    first: e.first.min(at),
                    last: e.last.max(at),
                    reach: e.reach.max(reach),
                },
            });
        }
        Ok(extent)
    }
}

/// The marking kernel of one chunk: the signatures seen so far, read
/// off stored `results` records through one reused
/// [`AlignmentResult`], so no record allocates.
pub(crate) struct Marker {
    seen: HashSet<Signature>,
    result: AlignmentResult,
}

impl Marker {
    pub(crate) fn new() -> Marker {
        Marker { seen: HashSet::new(), result: AlignmentResult::unmapped() }
    }

    /// Counts `record`, a record earlier in the dataset than the chunk
    /// being marked, as seen when it is mapped within `window`.
    pub(crate) fn see(&mut self, record: &[u8], window: &RangeInclusive<i64>) -> Result<()> {
        self.result.decode_into(record)?;
        if let Some(sig) =
            signature(&self.result).filter(|_| window.contains(&self.result.location))
        {
            self.seen.insert(sig);
        }
        Ok(())
    }

    /// Marks, in order, every record of `chunk` whose signature was
    /// seen before it, by setting `DUPLICATE` in its stored flags, and
    /// returns how many it newly marked.
    pub(crate) fn mark(&mut self, chunk: &mut RawChunk) -> Result<u64> {
        let mut marked = 0;
        for i in 0..chunk.len() {
            self.result.decode_into(chunk.record(i))?;
            let Some(sig) = signature(&self.result) else { continue };
            if !self.seen.insert(sig) && !self.result.is_duplicate() {
                let set = self.result.flags | flags::DUPLICATE;
                chunk.record_mut(i)[AlignmentResult::FLAGS_AT].copy_from_slice(&set.to_le_bytes());
                marked += 1;
            }
        }
        Ok(marked)
    }
}

/// The dupmark stage over the dataset at rest `input` holds: marks its
/// duplicates in place (no other column is touched) and returns its
/// unchanged manifest.
///
/// When `out` is given, the manifest is delivered up front and every
/// chunk is announced, in order, once its final results are durable in
/// the store, so a downstream consumer overlaps with the marking pass.
pub(crate) fn mark_duplicates(
    rt: &PersonaRuntime,
    exec: &StageExec,
    input: Edge,
    out: Option<EdgeOut>,
) -> Result<(Manifest, DupmarkReport)> {
    let manifest = input.manifest()?;
    if let Some(out) = &out {
        out.deliver(&manifest);
    }
    let store = rt.store().clone();
    let chunks: Arc<Vec<EdgeChunk>> = Arc::new(std::iter::from_fn(|| input.fetch()).collect());

    // Pass 1: every chunk's extent, and from them the dataset's reach.
    let extents: Arc<Vec<Option<Extent>>> = {
        let (store, chunks) = (store.clone(), chunks.clone());
        exec.map((0..chunks.len()).collect(), move |_, k| {
            Extent::of(&*raw_column(store.as_ref(), &chunks[k], columns::RESULTS)?)
        })?
        .into_iter()
        .collect::<Result<_>>()
        .map(Arc::new)?
    };
    let reach = extents.iter().flatten().map(|e| e.reach).max().unwrap_or(0);
    // The highest mapped location up to each chunk: a chunk's look-back
    // for its halo stops where this falls below the halo's floor.
    let highest: Vec<i64> = extents
        .iter()
        .scan(i64::MIN, |hi, e| {
            *hi = e.map_or(*hi, |e| (*hi).max(e.last));
            Some(*hi)
        })
        .collect();

    let halo_of = |k: usize| -> Vec<usize> {
        let Some(own) = extents[k] else { return Vec::new() };
        let floor = halo_floor(own.first, reach);
        (0..k)
            .rev()
            .take_while(|&j| highest[j] >= floor)
            .filter(|&j| extents[j].is_some_and(|e| e.last >= floor && e.first <= own.last + reach))
            .collect()
    };

    // Pass 2, in waves of a chunk window: one task per chunk marks it
    // against its halo chunks and encodes it when it changed. A wave's
    // rewrites start once all of its reads are done, and a later wave
    // reads a chunk only after its rewrite has landed, so no chunk is
    // read as a halo while it is being rewritten.
    let mut duplicates = 0u64;
    for (lo, hi) in subchunk_ranges(chunks.len(), rt.chunk_window()) {
        rt.check_cancelled()?;
        let work: Vec<(usize, Vec<usize>)> = (lo..hi).map(|k| (k, halo_of(k))).collect();
        let marked = {
            let (store, chunks, extents) = (store.clone(), chunks.clone(), extents.clone());
            exec.map(work, move |_, (k, halo)| -> Result<(u64, Option<Vec<u8>>)> {
                let Some(own) = extents[k] else { return Ok((0, None)) };
                let window = halo_floor(own.first, reach)..=own.last + reach;
                let load = |j: usize| raw_column(store.as_ref(), &chunks[j], columns::RESULTS);
                let mut marker = Marker::new();
                for j in halo {
                    let chunk = load(j)?;
                    for i in 0..chunk.len() {
                        marker.see(chunk.record(i), &window)?;
                    }
                }
                let mut results = owned(load(k)?);
                let marked = marker.mark(&mut results)?;
                let encoded = columns::encode_chunk(columns::RESULTS, &results);
                Ok((marked, (marked > 0).then_some(encoded)))
            })?
        };
        let marked = marked.into_iter().collect::<Result<Vec<_>>>()?;
        let mut rewrites = Vec::new();
        for (k, (n, encoded)) in (lo..hi).zip(marked) {
            duplicates += n;
            if let Some(encoded) = encoded {
                rewrites.push((
                    Manifest::chunk_object_name(&chunks[k].stem, columns::RESULTS),
                    encoded,
                ));
            }
        }
        let store = store.clone();
        exec.map(rewrites, move |_, (name, encoded)| store.put(&name, &encoded))?
            .into_iter()
            .collect::<std::io::Result<()>>()?;
        if let Some(out) = &out {
            for chunk in &chunks[lo..hi] {
                out.push(chunk.clone())?;
            }
        }
    }
    // Closes the downstream chunk stream.
    drop(out);
    // A rewrite skipped by cancellation leaves stale results in the
    // store; the run must not report success.
    rt.check_cancelled()?;

    let reads = chunks.iter().map(|chunk| chunk.num_records as u64).sum();
    let report = DupmarkReport { reads, duplicates };
    Ok((manifest, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PersonaConfig;
    use crate::pipeline::run_stage;
    use crate::plan::{
        DataState, Plan, PlanReport, PlanRequest, PlanSource, Stage, StageRow, StageRun,
    };
    use crate::Error;
    use persona_agd::builder::{ColumnAppender, DatasetWriter};
    use persona_agd::chunk_io::{ChunkStore, MemStore};
    use persona_agd::dataset::Dataset;
    use proptest::prelude::any;
    use std::time::Duration;

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
        let manifest = world_in(&store, results, chunk);
        (store, manifest)
    }

    /// Lands `results` as dataset `d` in chunks of `chunk` in `store`.
    fn world_in(
        store: &Arc<dyn ChunkStore>,
        results: Vec<AlignmentResult>,
        chunk: usize,
    ) -> Manifest {
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
        manifest
    }

    /// Marks duplicates in the landed dataset `manifest` through the
    /// one-stage dupmark plan.
    fn mark(store: &Arc<dyn ChunkStore>, manifest: &Manifest) -> Result<DupmarkReport> {
        let source = PlanSource::Dataset(manifest.clone());
        match run_stage(store, Stage::Dupmark, source, None)?.stages.pop() {
            Some(StageRow { run: StageRun::Dupmark(report), .. }) => Ok(report),
            other => panic!("expected a dupmark report, got {other:?}"),
        }
    }

    fn results_of(store: &Arc<dyn ChunkStore>, m: &Manifest) -> Vec<AlignmentResult> {
        let ds = Dataset::new(m.clone());
        let mut out = Vec::new();
        for c in 0..ds.num_chunks() {
            out.extend(ds.read_results_chunk(store.as_ref(), c).unwrap());
        }
        out
    }

    fn flags_of(store: &Arc<dyn ChunkStore>, m: &Manifest) -> Vec<bool> {
        results_of(store, m).iter().map(AlignmentResult::is_duplicate).collect()
    }

    /// Runs `input>stages` over the dataset `manifest` as request
    /// `name`, so its sort lands `{name}.sorted`.
    fn run_plan(
        rt: &PersonaRuntime,
        input: DataState,
        stages: &[Stage],
        manifest: &Manifest,
        name: &str,
    ) -> PlanReport {
        let plan = stages.iter().fold(Plan::builder(input), |b, &s| b.then(s)).build().unwrap();
        let source = PlanSource::Dataset(manifest.clone());
        let req = PlanRequest {
            name: name.into(),
            source,
            chunk_size: 64,
            aligner: None,
            reference: vec![],
        };
        plan.run(rt, req).unwrap()
    }

    fn dupmark_of(report: &PlanReport) -> &DupmarkReport {
        match report.stage(Stage::Dupmark) {
            Some(StageRun::Dupmark(report)) => report,
            other => panic!("expected a dupmark report, got {other:?}"),
        }
    }

    /// The sequential scan the windowed marking replaced, kept as its
    /// oracle: one `HashSet` of every signature seen, in dataset order.
    /// Returns how many records it newly marked.
    fn oracle(results: &mut [AlignmentResult]) -> u64 {
        let mut seen = HashSet::new();
        let mut duplicates = 0;
        for r in results.iter_mut() {
            if let Some(sig) = signature(r) {
                if !seen.insert(sig) && !r.is_duplicate() {
                    r.flags |= flags::DUPLICATE;
                    duplicates += 1;
                }
            }
        }
        duplicates
    }

    /// A record drawn as `(5′ position, kind, lead, body, deletion,
    /// trail, mate)`. Kind 0 is unmapped, kind 1 unmapped but placed at
    /// a coordinate; otherwise odd kinds are reverse, kinds 4k+2 and
    /// 4k+3 paired (mate at `50·mate`), and kinds 10 and 11 already
    /// marked. The CIGAR is an optional 5-base leading clip, an
    /// optional `10M` followed by an optional `40D5M` (which carries a
    /// reverse read's 5′ offset past its length), and an optional
    /// 5-base trailing clip; a read may have an empty CIGAR, whose 5′
    /// offset is 0. The location is derived from the 5′ position, so
    /// signatures collide often, and the few offsets make pairs exactly
    /// the dataset's largest offset apart common.
    fn drawn((pos, kind, lead, body, deletion, trail, mate): Draw) -> AlignmentResult {
        if kind < 2 {
            return AlignmentResult {
                location: if kind == 0 { -1 } else { pos },
                ..AlignmentResult::unmapped()
            };
        }
        let op = |kind, len| CigarOp { kind, len };
        let mut cigar = Vec::new();
        if lead {
            cigar.push(op(CigarKind::SoftClip, 5));
        }
        if body {
            cigar.push(op(CigarKind::Match, 10));
            if deletion {
                cigar.extend([op(CigarKind::Del, 40), op(CigarKind::Match, 5)]);
            }
        }
        if trail {
            cigar.push(op(CigarKind::SoftClip, 5));
        }
        let mut flags = 0;
        if kind % 2 == 1 {
            flags |= flags::REVERSE;
        }
        if kind % 4 >= 2 {
            flags |= flags::PAIRED;
        }
        if kind >= 10 {
            flags |= flags::DUPLICATE;
        }
        let mut r = AlignmentResult {
            location: 0,
            mate_location: if kind % 4 >= 2 { 50 * mate } else { -1 },
            template_len: 0,
            flags,
            mapq: 60,
            cigar,
        };
        let offset = five_prime_offset(&r);
        r.location = if r.is_reverse() { pos - offset } else { pos + offset };
        r
    }

    type Draw = (i64, u8, bool, bool, bool, bool, i64);

    proptest::proptest! {
        /// Windowed marking ≡ the sequential oracle, flags and counts,
        /// through both entry points: the sort's write in an
        /// `aligned>sort,dupmark` plan, and the landed path of
        /// `sorted>dupmark` (over the sorted dataset, and over the
        /// unsorted one in its own order).
        #[test]
        fn windowed_marking_matches_the_sequential_scan(
            draws in proptest::collection::vec(
                (100i64..108, 0u8..12, any::<bool>(), any::<bool>(), any::<bool>(),
                    any::<bool>(), 0i64..2),
                0..40,
            ),
            chunk in 1usize..6,
        ) {
            let results: Vec<AlignmentResult> = draws.into_iter().map(drawn).collect();
            let (store, manifest) = world(results.clone(), chunk);
            let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();

            let plain = run_plan(&rt, DataState::Aligned, &[Stage::Sort], &manifest, "plain");
            let plain = plain.sorted.unwrap();
            let mut want = results_of(&store, &plain);
            let duplicates = oracle(&mut want);

            let stages = [Stage::Sort, Stage::Dupmark];
            let folded = run_plan(&rt, DataState::Aligned, &stages, &manifest, "fold");
            proptest::prop_assert_eq!(dupmark_of(&folded).duplicates, duplicates);
            proptest::prop_assert_eq!(dupmark_of(&folded).reads, want.len() as u64);
            proptest::prop_assert_eq!(&results_of(&store, folded.sorted.as_ref().unwrap()), &want);

            let landed = run_plan(&rt, DataState::Sorted, &[Stage::Dupmark], &plain, "plain");
            proptest::prop_assert_eq!(dupmark_of(&landed).duplicates, duplicates);
            proptest::prop_assert_eq!(&results_of(&store, &plain), &want);

            let mut want = results;
            let duplicates = oracle(&mut want);
            proptest::prop_assert_eq!(mark(&store, &manifest).unwrap().duplicates, duplicates);
            proptest::prop_assert_eq!(&results_of(&store, &manifest), &want);
        }
    }

    /// A dupmark fused to its sort runs no stage: its row has no wall and
    /// no busy time, the sort's reads, and the count the landed pass
    /// finds over the same sorted records.
    #[test]
    fn a_folded_dupmark_reports_the_sorts_count_and_no_time() {
        let results: Vec<AlignmentResult> =
            (0..60).map(|i| result((i * 7) % 25, i % 3 == 0)).collect();
        let (store, manifest) = world(results, 7);
        let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
        let plain = run_plan(&rt, DataState::Aligned, &[Stage::Sort], &manifest, "plain");
        let sorted = plain.sorted.as_ref().unwrap();
        let landed = run_plan(&rt, DataState::Sorted, &[Stage::Dupmark], sorted, "plain");
        let want = dupmark_of(&landed).duplicates;
        assert!(want > 0, "the dataset has duplicates");
        for export in [Stage::ExportSam, Stage::ExportBam] {
            let stages = [Stage::Sort, Stage::Dupmark, export];
            let folded = run_plan(&rt, DataState::Aligned, &stages, &manifest, "fold");
            let Some(StageRun::Sort(sort)) = folded.stage(Stage::Sort) else { unreachable!() };
            let report = dupmark_of(&folded);
            let row = folded.row(Stage::Dupmark).unwrap();
            assert_eq!(row.elapsed, Duration::ZERO, "{export}");
            assert_eq!(row.busy_fraction, 0.0, "{export}");
            assert_eq!(report.reads, sort.records, "{export}");
            assert_eq!(report.duplicates, want, "{export}");
        }
    }

    /// A duplicate exactly `D` past its original, in the next chunk, is
    /// still inside the halo on both paths: a forward read clipped by
    /// the largest leading clip, and a reverse read whose deletion sets
    /// `D` past its length behind one with an empty CIGAR.
    #[test]
    fn the_halo_reaches_exactly_the_largest_offset() {
        let cigar = |ops: &[(CigarKind, u32)]| -> Vec<CigarOp> {
            ops.iter().map(|&(kind, len)| CigarOp { kind, len }).collect()
        };
        let forward = vec![
            AlignmentResult { cigar: cigar(&[(CigarKind::Match, 50)]), ..result(100, false) },
            AlignmentResult {
                cigar: cigar(&[(CigarKind::SoftClip, 20), (CigarKind::Match, 30)]),
                ..result(120, false)
            },
        ];
        let long = [(CigarKind::Match, 30), (CigarKind::Del, 40), (CigarKind::Match, 30)];
        let reverse = vec![
            AlignmentResult { cigar: cigar(&long), ..result(100, true) },
            AlignmentResult { cigar: Vec::new(), ..result(200, true) },
        ];
        for results in [forward, reverse] {
            let (store, manifest) = world(results, 1);
            let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
            let stages = [Stage::Sort, Stage::Dupmark];
            let folded = run_plan(&rt, DataState::Aligned, &stages, &manifest, "fold");
            assert_eq!(dupmark_of(&folded).duplicates, 1);
            assert_eq!(flags_of(&store, folded.sorted.as_ref().unwrap()), vec![false, true]);
            assert_eq!(mark(&store, &manifest).unwrap().duplicates, 1);
            assert_eq!(flags_of(&store, &manifest), vec![false, true]);
        }
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

    /// A store on which reading an object while a put is rewriting it
    /// fails, as a torn read of a file-backed store would: each put
    /// holds its object for a moment.
    struct TearingStore {
        inner: MemStore,
        writing: std::sync::Mutex<HashSet<String>>,
    }

    impl ChunkStore for TearingStore {
        fn get(&self, name: &str) -> std::io::Result<Vec<u8>> {
            if self.writing.lock().unwrap().contains(name) {
                return Err(std::io::Error::other(format!("read {name} while it is rewritten")));
            }
            self.inner.get(name)
        }

        fn put(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
            self.writing.lock().unwrap().insert(name.to_string());
            std::thread::sleep(Duration::from_millis(2));
            let put = self.inner.put(name, data);
            self.writing.lock().unwrap().remove(name);
            put
        }

        fn delete(&self, name: &str) -> std::io::Result<()> {
            self.inner.delete(name)
        }

        fn list(&self) -> std::io::Result<Vec<String>> {
            self.inner.list()
        }
    }

    /// Over a landed dataset a chunk is read as a later chunk's halo,
    /// and rewritten when it changed: never both at once.
    #[test]
    fn no_chunk_is_read_while_it_is_rewritten() {
        let store: Arc<dyn ChunkStore> =
            Arc::new(TearingStore { inner: MemStore::new(), writing: Default::default() });
        // Sorted, four copies of each location: most chunks change, and
        // every chunk's halo is the chunk before it.
        let results: Vec<AlignmentResult> = (0..90).map(|i| result(i / 4, false)).collect();
        let manifest = world_in(&store, results, 3);
        let report = mark(&store, &manifest).unwrap();
        assert_eq!(report.duplicates, 67);
    }

    #[test]
    fn streams_every_chunk_exactly_once() {
        let results: Vec<AlignmentResult> = (0..30).map(|i| result(i as i64 % 6, false)).collect();
        let (store, manifest) = world(results, 5);
        let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
        let (out, edge) = Edge::streaming(4, rt.telemetry());
        let collector = {
            let edge = edge.clone();
            std::thread::spawn(move || {
                let mut idxs = Vec::new();
                while let Some(chunk) = edge.fetch() {
                    idxs.push(chunk.chunk_idx);
                }
                idxs
            })
        };
        let input = Edge::landed(manifest.clone());
        let (_, report) = mark_duplicates(&rt, &rt.stage_exec(), input, Some(out)).unwrap();
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
