//! Full-dataset external merge sort (paper §4.3).
//!
//! "The sort implementation is a simple external merge sort, where
//! several chunks at a time are sorted and merged into temporary file
//! 'superchunks'. A final merge stage merges superchunks into the final
//! sorted dataset."
//!
//! Sorting an AGD dataset reorders *all* row-grouped columns by the key
//! (aligned location or read metadata). Unlike row-oriented SAM/BAM
//! sorting, records never need re-parsing: columns are permuted as
//! opaque byte slices, with only the key column decoded. A sorted run
//! is its keys plus, per column, [`RawChunk`] blocks of 1,024 records
//! holding the records as the data block stores them — bases stay
//! packed base-5 groups, never unpacked to ASCII and packed again.
//! Loading a chunk copies each column once, in sorted order; a fold
//! copies the slices it merges into new blocks. No step allocates per
//! record.
//!
//! The sort is **incremental**: it pulls chunks from its input
//! [`Edge`] and folds sorted runs into superchunks as chunks arrive, so
//! when the edge is fed by a live upstream stage (the fused `align →
//! sort` pipeline), run loading and superchunk merging overlap alignment
//! instead of waiting behind a barrier. Chunks may arrive in *any*
//! order: every record carries a `(key, chunk, position)` composite, so
//! the merged output is the unique global order whatever the arrival
//! interleaving — byte identical to sorting the finished dataset in one
//! shot ([`sort_dataset`], the same code over a landed dataset).
//!
//! **The final merge is the write.** Because the composite keys are
//! unique, the record at global rank *r* is well defined, and a binary
//! search over the keys finds where every run must be cut so that the
//! cuts hold exactly the first *r* records (co-ranking: Merge Path,
//! Odeh et al., IPDPS 2012, generalised from two runs to k). Output
//! chunk *k* holds ranks `k·chunk_size ..`, so it is one independent
//! task: co-rank its two ends, merge the slices between, gather each
//! column, encode, put. Chunk boundaries are the serial merge's, so the
//! bytes are too.
//!
//! **Duplicate marking rides the write.** When a plan's `dupmark`
//! directly follows its sort, each output chunk task also marks its
//! chunk's duplicates before it encodes `results`
//! ([`crate::pipeline::dupmark`]): it co-ranks the key `(L − D, 0)`,
//! where `L` is the chunk's first mapped location and `D` the largest
//! 5′ offset of any run (each run keeps its own, taken as its records
//! are decoded), reads the earlier records from that cut to its own
//! first cut as its halo, and patches the flags of its duplicates in
//! the gathered arena. Nothing is read back or written twice.
//!
//! **The write is a producer.** Chunks arriving on a live edge bring
//! their columns as stored, so the sort reads only the columns they did
//! not carry. Its output chunk boundaries are known before it writes,
//! so it delivers its manifest first; then each output chunk, once its
//! puts are done, goes downstream in order with its four gathered
//! columns, and a fused export reads nothing back. The count of
//! duplicates it marked is the folded dupmark's report.
//!
//! Every compute phase — per-chunk load+sort, superchunk folds, output
//! chunk merge+mark+encode+write — runs as tagged task batches on the
//! runtime's shared executor; the sort stage owns no threads of its own.

use std::sync::Arc;

use persona_agd::chunk::{RawChunk, RecordType};
use persona_agd::chunk_io::ChunkStore;
use persona_agd::columns::{self, coding};
use persona_agd::manifest::{ChunkEntry, Manifest, SortOrder};
use persona_agd::results::AlignmentResult;

use crate::config::PersonaConfig;
use crate::manifest_server::{Edge, EdgeChunk, EdgeOut};
use crate::pipeline::dupmark::{self, Extent, Marker};
use crate::pipeline::{drive, owned, raw_column, Progress};
use crate::runtime::{PersonaRuntime, StageExec};
use crate::{Error, Result};

/// The sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortKey {
    /// By aligned reference location (requires a `results` column).
    Coordinate,
    /// By read metadata (query name).
    QueryName,
}

/// Outcome of a sort run.
#[derive(Debug)]
pub struct SortReport {
    /// Records sorted.
    pub records: u64,
    /// Number of first-phase sorted runs.
    pub runs: usize,
    /// Number of intermediate superchunk merges (0 if the final merge
    /// alone sufficed).
    pub superchunks: usize,
    /// Records the write newly marked as duplicates: 0 unless the plan's
    /// `dupmark` directly follows the sort, which then runs no stage of
    /// its own and reports this count.
    pub duplicates: u64,
}

/// The columns a run carries, in arena order: metadata, bases and
/// qualities, then results when the dataset has them.
const COLUMNS: [&str; 4] = [columns::METADATA, columns::BASES, columns::QUAL, columns::RESULTS];
/// The columns of a dataset's runs.
fn run_columns(has_results: bool) -> &'static [&'static str] {
    &COLUMNS[..if has_results { 4 } else { 3 }]
}

/// Arena of the metadata column, a query-name sort's key.
const META: usize = 0;
/// Arena of the results column, a coordinate sort's key.
const RESULTS: usize = 3;

/// Records per block of a gathered run's column: the unit in which the
/// write lets go of records no output chunk still reads. Unit tests use
/// 3, so that their small runs span many blocks.
const BLOCK: usize = if cfg!(test) { 3 } else { 1024 };

/// One column of a run: its records as stored bytes, in blocks of
/// `per` records (the last may hold fewer). A gathered run's blocks
/// hold [`BLOCK`] records; a chunk being loaded is one block.
#[derive(Clone)]
#[cfg_attr(test, derive(Debug, PartialEq))]
struct Blocks {
    per: usize,
    /// `None` once the write has released the block.
    blocks: Vec<Option<Arc<RawChunk>>>,
}

impl Blocks {
    /// `chunk` as the one block of a column.
    fn whole(chunk: RawChunk) -> Blocks {
        let per = chunk.len().max(BLOCK);
        let blocks = if chunk.is_empty() { Vec::new() } else { vec![Some(Arc::new(chunk))] };
        Blocks { per, blocks }
    }

    /// The block holding record `i`, and its position there.
    ///
    /// # Panics
    ///
    /// Panics if the block was released.
    #[inline]
    fn at(&self, i: usize) -> (&RawChunk, usize) {
        let block = self.blocks[i / self.per].as_deref().expect("released records are never read");
        (block, i % self.per)
    }

    /// Record `i` as stored.
    #[inline]
    fn record(&self, i: usize) -> &[u8] {
        let (block, i) = self.at(i);
        block.record(i)
    }

    /// Releases every block that holds only records below `i`.
    fn release_below(&mut self, i: usize) {
        for block in &mut self.blocks[..i / self.per] {
            *block = None;
        }
    }
}

/// One sorted run: its records' sort keys, and every column's records
/// in sorted order as stored bytes, in blocks. A run costs O(columns)
/// allocations per [`BLOCK`] records, and a clone of it shares them.
#[derive(Clone)]
#[cfg_attr(test, derive(Debug, PartialEq))]
struct Run {
    /// The tie per record. It embeds the record's global origin —
    /// `(chunk index << 32) | position in chunk` — which makes the
    /// composite `(key, tie)` unique across the dataset, so every merge
    /// order and every arrival order produce the same output: records
    /// of equal key come out in (chunk, position) order. Both
    /// components are u32-bounded (chunk counts and
    /// `ChunkEntry::num_records` are `u32`), so the packing cannot
    /// collide.
    ties: Arc<Vec<u64>>,
    /// The aligned location per record in a coordinate sort; empty in a
    /// query-name sort, whose key is the record's metadata.
    locations: Arc<Vec<i64>>,
    /// One column per [`COLUMNS`] entry, in that order.
    columns: Vec<Blocks>,
    /// The largest 5′ offset of a mapped record in a coordinate sort
    /// ([`dupmark::five_prime_offset`]); 0 in a query-name sort.
    reach: i64,
}

/// One executor task of the run phase.
enum Work {
    /// Merge a group of runs into a superchunk.
    Fold(Vec<Run>),
    /// Load a chunk and sort it into a run.
    Load(EdgeChunk),
}

/// A sort key, borrowed from its run: either a location or a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key<'a> {
    Location(i64),
    Name(&'a [u8]),
}

impl Run {
    fn len(&self) -> usize {
        self.ties.len()
    }

    /// The composite key of record `i`.
    #[inline]
    fn key(&self, i: usize) -> (Key<'_>, u64) {
        let key = match self.locations.get(i) {
            Some(&location) => Key::Location(location),
            None => Key::Name(self.columns[META].record(i)),
        };
        (key, self.ties[i])
    }

    /// How many records sort below `key`.
    fn count_below(&self, key: (Key<'_>, u64)) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Sorts a dataset into a new dataset `out_name` on a transient private
/// runtime, returning the new manifest. The one stage function public
/// outside the crate: a plan's sort stage sorts by coordinate only, so a
/// query-name sort has no plan to run in.
pub fn sort_dataset(
    store: &Arc<dyn ChunkStore>,
    manifest: &Manifest,
    key: SortKey,
    out_name: &str,
    config: &PersonaConfig,
) -> Result<(Manifest, SortReport)> {
    let has_results = manifest.has_column(columns::RESULTS);
    if key == SortKey::Coordinate && !has_results {
        return Err(Error::Pipeline("coordinate sort requires a results column".into()));
    }
    let rt = PersonaRuntime::new(store.clone(), *config)?;
    let input = Edge::landed(manifest.clone());
    sort(&rt, &rt.stage_exec(), input, key, out_name, has_results, false, None)
}

/// The sort stage: sorts the chunk stream of `input` into the dataset
/// `out_name`, merging incrementally — each batch of arrived chunks is
/// loaded and sorted on the executor, and full groups of runs fold into
/// superchunks *while upstream is still producing*. The output dataset is independent of arrival order: runs
/// merge on globally unique `(key, origin)` composite keys, where the
/// origin tie-break encodes (chunk index, position in chunk). Unmapped
/// records (location -1) sort first, matching the convention that they
/// carry no coordinate.
///
/// The input has a `results` column when `has_results`, which a
/// coordinate sort needs (a plan checks it before it runs). The write
/// phase codes each column as `persona_agd::columns` says and takes
/// chunk sizing and reference contigs from the input's manifest; a live
/// upstream delivers it after its last chunk, by which point every
/// chunk has been merged. With `dupmark` (a coordinate sort only) it
/// also marks duplicates, and reports how many. With `out`, the output
/// manifest is delivered before the first output chunk, and each chunk
/// goes downstream with its columns once it is durable.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sort(
    rt: &PersonaRuntime,
    exec: &StageExec,
    input: Edge,
    key: SortKey,
    out_name: &str,
    has_results: bool,
    dupmark: bool,
    out: Option<EdgeOut>,
) -> Result<(Manifest, SortReport)> {
    debug_assert!(has_results || key == SortKey::QueryName, "a coordinate sort reads results");
    debug_assert!(
        !dupmark || key == SortKey::Coordinate,
        "duplicates are marked in coordinate order"
    );
    let fanin = 8usize;
    let trace = rt.trace();
    let store = rt.store().clone();

    // Chunk-level runs awaiting a superchunk merge, the superchunk tier
    // itself (also folded when it grows past the fan-in), and the groups
    // due for a fold. A fold is one executor task; it runs in the same
    // batch as the next chunks' loads, so it keeps a worker busy
    // instead of holding the others idle.
    let mut pending: Vec<Run> = Vec::new();
    let mut merged: Vec<Run> = Vec::new();
    let mut due: Vec<Vec<Run>> = Vec::new();
    let mut n_runs = 0usize;
    let mut superchunks = 0usize;

    let run_batch = |folds: Vec<Vec<Run>>, loads: Vec<EdgeChunk>| -> Result<Vec<Run>> {
        let store = store.clone();
        let work = folds.into_iter().map(Work::Fold).chain(loads.into_iter().map(Work::Load));
        exec.map(work.collect(), move |_, work| match work {
            Work::Fold(group) => Ok(fold(group)),
            Work::Load(chunk) => load_sorted_run(store.as_ref(), chunk, key, has_results),
        })?
        .into_iter()
        .collect()
    };

    loop {
        rt.check_cancelled()?;
        // Block for one task unless a fold is due, then drain whatever
        // else upstream has already finished (up to one merge group)
        // without waiting.
        let first = if due.is_empty() { input.fetch() } else { input.try_fetch() };
        if first.is_none() && due.is_empty() {
            break;
        }
        let mut batch: Vec<EdgeChunk> = first.into_iter().collect();
        while !batch.is_empty() && batch.len() < fanin {
            match input.try_fetch() {
                Some(task) => batch.push(task),
                None => break,
            }
        }
        n_runs += batch.len();
        // A chunk's span runs from its fetch off the input edge to its
        // sorted run being loaded.
        let loading: Vec<u64> = batch.iter().map(|chunk| chunk.chunk_idx as u64).collect();
        if let Some(t) = trace {
            loading.iter().for_each(|&idx| t.chunk_begin("sort", idx));
        }
        let folds = std::mem::take(&mut due);
        let n_folds = folds.len();
        let mut runs = run_batch(folds, batch)?;
        if let Some(t) = trace {
            loading.iter().for_each(|&idx| t.chunk_end("sort", idx));
        }
        pending.extend(runs.split_off(n_folds));
        merged.append(&mut runs);
        // Eagerly fold full groups into superchunks while upstream is
        // still producing — the overlap this stage exists for.
        if merged.len() >= fanin {
            superchunks += 1;
            due.push(std::mem::take(&mut merged));
        }
        while pending.len() >= fanin {
            superchunks += 1;
            due.push(pending.drain(..fanin).collect());
        }
    }
    rt.check_cancelled()?;

    // Leftover chunk runs: when the superchunk phase engaged at all,
    // fold them into one more superchunk so the final merge only sees
    // peers; on a small dataset they go straight to the final merge.
    if !pending.is_empty() && !merged.is_empty() {
        superchunks += 1;
        merged.extend(run_batch(vec![std::mem::take(&mut pending)], Vec::new())?);
    } else {
        merged.append(&mut pending);
    }
    let records = merged.iter().map(|r| r.len() as u64).sum();

    let src = input.manifest()?;
    let (out_manifest, duplicates) =
        write_sorted_dataset(rt, exec, out_name, &src, merged, key, has_results, dupmark, out)?;
    Ok((out_manifest, SortReport { records, runs: n_runs, superchunks, duplicates }))
}

/// Loads one chunk's columns — carried, else read — and sorts them by
/// `(key, origin)`: the columns are copied once, in sorted order, into
/// the run's arenas.
fn load_sorted_run(
    store: &dyn ChunkStore,
    chunk: EdgeChunk,
    key: SortKey,
    has_results: bool,
) -> Result<Run> {
    let n = chunk.num_records as usize;
    let mut loaded = Vec::with_capacity(COLUMNS.len());
    for &column in run_columns(has_results) {
        let raw = raw_column(store, &chunk, column)?;
        loaded.push(stored_as(raw, coding(column).record_type)?);
    }
    let mut reach = 0;
    let locations = match key {
        SortKey::Coordinate => {
            let mut result = AlignmentResult::unmapped();
            let results = &loaded[RESULTS];
            (0..n)
                .map(|i| {
                    result.decode_into(results.record(i))?;
                    if !result.is_unmapped() {
                        reach = reach.max(dupmark::five_prime_offset(&result));
                    }
                    Ok(result.location)
                })
                .collect::<Result<Vec<i64>>>()?
        }
        SortKey::QueryName => Vec::new(),
    };
    let origin = (chunk.chunk_idx as u64) << 32;
    let ties = Arc::new((0..n).map(|i| origin | i as u64).collect());
    let columns = loaded.into_iter().map(Blocks::whole).collect();
    let chunk = Run { ties, locations: Arc::new(locations), columns, reach };
    // Within a chunk the tie grows with the position, so `(key,
    // position)` is the composite order: a total order, in which equal
    // keys stay in chunk position order, as the old stable sort did.
    let order: Vec<(usize, usize)> = match key {
        SortKey::Coordinate => {
            let mut keyed: Vec<(i64, usize)> = chunk.locations.iter().copied().zip(0..).collect();
            keyed.sort_unstable();
            keyed.into_iter().map(|(_, i)| (0, i)).collect()
        }
        SortKey::QueryName => {
            let meta = &chunk.columns[META];
            let mut order: Vec<(usize, usize)> = (0..n).map(|i| (0, i)).collect();
            order.sort_unstable_by(|&(_, a), &(_, b)| {
                meta.record(a).cmp(meta.record(b)).then(a.cmp(&b))
            });
            order
        }
    };
    Ok(gather(std::slice::from_ref(&chunk), &order))
}

/// `chunk` with the record type the sort writes for its column, as a
/// chunk of the sort's own. A dataset may store a column as another
/// type (bases as text, say); such a chunk is built again from its
/// records as plain bytes.
fn stored_as(chunk: Arc<RawChunk>, record_type: RecordType) -> Result<RawChunk> {
    if chunk.record_type() == record_type {
        return Ok(owned(chunk));
    }
    let (mut plain, mut ends) = (Vec::new(), vec![0]);
    for i in 0..chunk.len() {
        chunk.append_plain(i, &mut plain)?;
        ends.push(plain.len());
    }
    Ok(RawChunk::from_records(record_type, ends.windows(2).map(|w| &plain[w[0]..w[1]]))?)
}

/// Co-ranking (Merge Path, Odeh et al., generalised from two runs to
/// k): the cut in every run such that the cuts sum to `rank` and every
/// record left of a cut sorts below every record right of any cut —
/// the first `rank` records of the merged order. Composite keys are
/// unique, so the cuts are too. Each round takes the middle record of
/// the widest undecided range as a pivot and counts the records below
/// it in every run; that count says which side of the cut the pivot is
/// on, and halves the range.
fn co_rank(runs: &[Run], rank: usize) -> Vec<usize> {
    let mut lo = vec![0usize; runs.len()];
    let mut hi: Vec<usize> = runs.iter().map(Run::len).collect();
    debug_assert!(rank <= hi.iter().sum::<usize>());
    let mut below = vec![0usize; runs.len()];
    while let Some(p) = (0..runs.len()).filter(|&r| lo[r] < hi[r]).max_by_key(|&r| hi[r] - lo[r]) {
        let mid = lo[p] + (hi[p] - lo[p]) / 2;
        let pivot = runs[p].key(mid);
        for (r, run) in runs.iter().enumerate() {
            below[r] = if r == p { mid } else { run.count_below(pivot) };
        }
        if below.iter().sum::<usize>() < rank {
            // The pivot is among the first `rank`, with all below it.
            below[p] += 1;
            lo.iter_mut().zip(&below).for_each(|(lo, &b)| *lo = (*lo).max(b));
        } else {
            hi.iter_mut().zip(&below).for_each(|(hi, &b)| *hi = (*hi).min(b));
        }
    }
    lo
}

/// K-way merges records `from[r]..to[r]` of every run `r`, returning
/// `(run, record)` pairs in sorted order. Because keys carry a globally
/// unique `(chunk, position)` tie, the result is the same whatever
/// grouping or arrival order produced `runs` — records of equal sort
/// key always come out in chunk order, then position order.
fn merge_order(runs: &[Run], from: &[usize], to: &[usize]) -> Vec<(usize, usize)> {
    use std::cmp::Reverse;
    use std::collections::binary_heap::{BinaryHeap, PeekMut};
    let total = from.iter().zip(to).map(|(f, t)| t - f).sum();
    let mut order = Vec::with_capacity(total);
    let mut heads = from.to_vec();
    // A min-heap of each run's next record. The run index is a
    // deterministic fallback for synthetic runs with duplicated ties;
    // real ties are unique.
    let mut heap: BinaryHeap<_> = (0..runs.len())
        .filter(|&r| heads[r] < to[r])
        .map(|r| Reverse((runs[r].key(heads[r]), r)))
        .collect();
    while let Some(mut top) = heap.peek_mut() {
        let r = top.0 .1;
        order.push((r, heads[r]));
        heads[r] += 1;
        if heads[r] < to[r] {
            top.0 = (runs[r].key(heads[r]), r);
        } else {
            PeekMut::pop(top);
        }
    }
    order
}

/// Copies the records `order` names into a new chunk of column
/// `column`: one copy of their stored bytes.
fn gather_column(runs: &[Run], column: usize, order: &[(usize, usize)]) -> RawChunk {
    let column_of = |r: usize| &runs[r].columns[column];
    let bytes = order.iter().map(|&(r, i)| column_of(r).record(i).len()).sum();
    let record_type = coding(COLUMNS[column]).record_type;
    let mut out = RawChunk::with_capacity(record_type, order.len(), bytes);
    for &(r, i) in order {
        let (block, i) = column_of(r).at(i);
        out.push_from(block, i);
    }
    out
}

/// The run of the records `order` names, in that order.
fn gather(runs: &[Run], order: &[(usize, usize)]) -> Run {
    let located = runs.iter().any(|r| !r.locations.is_empty());
    let column = |c| Blocks {
        per: BLOCK,
        blocks: order
            .chunks(BLOCK)
            .map(|part| Some(Arc::new(gather_column(runs, c, part))))
            .collect(),
    };
    Run {
        ties: Arc::new(order.iter().map(|&(r, i)| runs[r].ties[i]).collect()),
        locations: Arc::new(match located {
            true => order.iter().map(|&(r, i)| runs[r].locations[i]).collect(),
            false => Vec::new(),
        }),
        columns: (0..runs[0].columns.len()).map(column).collect(),
        reach: runs.iter().map(|r| r.reach).max().unwrap_or(0),
    }
}

/// Merges whole runs into one: a superchunk.
fn fold(mut runs: Vec<Run>) -> Run {
    if runs.iter().filter(|r| r.len() > 0).count() <= 1 {
        let keep = runs.iter().position(|r| r.len() > 0).unwrap_or(0);
        return runs.swap_remove(keep);
    }
    let to: Vec<usize> = runs.iter().map(Run::len).collect();
    gather(&runs, &merge_order(&runs, &vec![0; runs.len()], &to))
}

/// Marks the duplicates of an output chunk whose gathered `results`
/// begin at the cuts `from`: its halo is every earlier record located
/// at or above the chunk's first mapped location minus `reach`, which
/// co-ranking that key cuts out of each run. Returns how many records
/// it newly marked.
fn mark_output_chunk(
    runs: &[Run],
    from: &[usize],
    results: &mut RawChunk,
    reach: i64,
) -> Result<u64> {
    let Some(own) = Extent::of(results)? else { return Ok(0) };
    let floor = dupmark::halo_floor(own.first, reach);
    let mut marker = Marker::new();
    for (run, &cut) in runs.iter().zip(from) {
        for i in run.count_below((Key::Location(floor), 0)).min(cut)..cut {
            marker.see(run.columns[RESULTS].record(i), &(floor..=own.last))?;
        }
    }
    marker.mark(results)
}

/// Releases the blocks of `runs` that no output chunk from the cuts
/// `from` on reads. Every such chunk's records, and the halo its
/// duplicates are marked against, lie at or above the halo floor of
/// the first record at the cuts, so nothing located below that floor
/// is read again. A query-name run has no locations, and its keys are
/// its records, so it keeps them all.
fn release_read(runs: &mut [Run], from: &[usize], reach: i64) {
    let next = runs.iter().zip(from).filter_map(|(run, &cut)| run.locations.get(cut)).min();
    let Some(&first) = next else { return };
    let floor = (Key::Location(dupmark::halo_floor(first, reach)), 0);
    for run in runs {
        let cut = run.count_below(floor);
        for column in &mut run.columns {
            column.release_below(cut);
        }
    }
}

/// Writes the merged runs as a fresh AGD dataset, returning its manifest
/// and how many records it marked as duplicates. Each output chunk is
/// one executor task, handed the cuts its first and last record make in
/// every run (co-ranked on the stage thread): it merges the slices
/// between, then gathers, encodes and puts each column — marking the
/// duplicates of `results` first when `dupmark`. Chunk
/// boundaries are the serial merge's, so the bytes are too. Records no
/// later chunk reads are released as the write moves on. The manifest
/// is known before the first task and goes out on `out` first; each
/// chunk follows, in order, with its columns once its puts are done.
#[allow(clippy::too_many_arguments)]
fn write_sorted_dataset(
    rt: &PersonaRuntime,
    exec: &StageExec,
    out_name: &str,
    src: &Manifest,
    mut runs: Vec<Run>,
    key: SortKey,
    has_results: bool,
    dupmark: bool,
    out: Option<EdgeOut>,
) -> Result<(Manifest, u64)> {
    let chunk_size = src
        .records
        .first()
        .map(|e| e.num_records as usize)
        .unwrap_or(persona_agd::DEFAULT_CHUNK_SIZE)
        .max(1);

    let mut manifest = Manifest::new(out_name);
    for &column in columns::READ_COLUMNS.iter().chain(has_results.then_some(&columns::RESULTS)) {
        columns::declare(&mut manifest, column)?;
    }
    manifest.reference = src.reference.clone();
    manifest.sort_order = match key {
        SortKey::Coordinate => SortOrder::Coordinate,
        SortKey::QueryName => SortOrder::QueryName,
    };
    manifest.row_groups = src.row_groups.clone();
    let n = runs.iter().map(Run::len).sum();
    let ranges = crate::pipeline::subchunk_ranges(n, chunk_size);
    for (k, &(lo, hi)) in ranges.iter().enumerate() {
        manifest.records.push(ChunkEntry {
            path: format!("{out_name}-{k}"),
            first_record: lo as u64,
            num_records: (hi - lo) as u32,
        });
    }
    manifest.total_records = n as u64;
    manifest.validate()?;
    if let Some(out) = &out {
        out.deliver(&manifest);
    }

    let reach = runs.iter().map(|r| r.reach).max().unwrap_or(0);
    let mut next = manifest.records.iter().zip(&ranges).enumerate();
    let mut from = vec![0; runs.len()];
    let mut duplicates = 0;
    drive(
        rt.chunk_window(),
        |_| {
            let Some((k, (entry, &(_, hi)))) = next.next() else { return Ok(None) };
            rt.check_cancelled()?;
            let to = co_rank(&runs, hi);
            release_read(&mut runs, &from, reach);
            let from = std::mem::replace(&mut from, to.clone());
            let (runs, store, stem) =
                (Arc::new(runs.clone()), rt.store().clone(), entry.path.clone());
            let num_records = entry.num_records;
            let write = exec.spawn_one(move || {
                let order = merge_order(&runs, &from, &to);
                let mut marked = 0;
                let mut carried: Vec<(&str, Arc<RawChunk>)> = Vec::with_capacity(COLUMNS.len());
                // Results first: the bases are coded against the places
                // they give the reads.
                for (c, &column) in run_columns(has_results).iter().enumerate().rev() {
                    let mut chunk = gather_column(&runs, c, &order);
                    if dupmark && c == RESULTS {
                        marked = mark_output_chunk(&runs, &from, &mut chunk, reach)?;
                    }
                    let encoded = match carried.first() {
                        Some((columns::RESULTS, results)) if column == columns::BASES => {
                            columns::encode_placed_bases(&chunk, results)
                        }
                        _ => columns::encode_chunk(column, &chunk),
                    };
                    store.put(&Manifest::chunk_object_name(&stem, column), &encoded)?;
                    carried.push((column, Arc::new(chunk)));
                }
                Ok((EdgeChunk { chunk_idx: k, stem, num_records, carried }, marked))
            });
            Ok(Some(write))
        },
        |write| write.wait_one().map(Progress::Done),
        |(chunk, marked)| {
            duplicates += marked;
            match &out {
                Some(out) => out.push(chunk),
                None => Ok(()),
            }
        },
    )?;
    rt.store().put(&format!("{out_name}.manifest.json"), manifest.to_json()?.as_bytes())?;
    Ok((manifest, duplicates))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DataState, Plan, PlanRequest, PlanSource, Stage, StageRow, StageRun};
    use crate::runtime::JobContext;
    use persona_agd::builder::{ColumnAppender, DatasetWriter};
    use persona_agd::chunk::ChunkData;
    use persona_agd::chunk_io::MemStore;
    use persona_agd::dataset::Dataset;
    use persona_agd::results::flags;
    use persona_dataflow::Priority;
    use persona_telemetry::{JobTrace, TracePhase};

    /// Builds an unsorted aligned dataset with known (shuffled) keys.
    fn world(n: usize, chunk: usize) -> (Arc<dyn ChunkStore>, Manifest) {
        let store = Arc::new(MemStore::new());
        let mut w = DatasetWriter::new("u", chunk).unwrap();
        // Locations are a deterministic shuffle of 0..n.
        let locs: Vec<u64> = (0..n as u64).map(|i| (i * 7919) % n as u64).collect();
        for i in 0..locs.len() {
            let meta = format!("read-{:06}", (n - i) % n);
            let bases: Vec<u8> = (0..24).map(|j| b"ACGT"[(i + j) % 4]).collect();
            w.append(store.as_ref(), meta.as_bytes(), &bases, &vec![b'F'; 24]).unwrap();
        }
        let mut manifest = w.finish(store.as_ref()).unwrap();
        let sizes: Vec<u32> = manifest.records.iter().map(|e| e.num_records).collect();
        let mut app = ColumnAppender::new(&mut manifest, columns::RESULTS).unwrap();
        let mut k = 0usize;
        for &sz in &sizes {
            let recs: Vec<Vec<u8>> = (0..sz)
                .map(|_| {
                    let r = AlignmentResult {
                        location: locs[k] as i64,
                        mate_location: -1,
                        template_len: 0,
                        flags: if k % 9 == 0 { flags::REVERSE } else { 0 },
                        mapq: 60,
                        cigar: vec![],
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

    fn locations_of(store: &Arc<dyn ChunkStore>, m: &Manifest) -> Vec<i64> {
        let ds = Dataset::new(m.clone());
        let mut locs = Vec::new();
        for c in 0..ds.num_chunks() {
            for r in ds.read_results_chunk(store.as_ref(), c).unwrap() {
                locs.push(r.location);
            }
        }
        locs
    }

    fn metas_of(store: &Arc<dyn ChunkStore>, m: &Manifest) -> Vec<Vec<u8>> {
        let ds = Dataset::new(m.clone());
        let mut out = Vec::new();
        for c in 0..ds.num_chunks() {
            let meta = ds.read_column_chunk(store.as_ref(), c, columns::METADATA).unwrap();
            out.extend((0..meta.len()).map(|i| meta.record(i).to_vec()));
        }
        out
    }

    /// A runtime over `store` whose job records into the returned trace.
    fn traced(store: &Arc<dyn ChunkStore>) -> (Arc<PersonaRuntime>, Arc<JobTrace>) {
        let trace = JobTrace::real();
        let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
        (rt.for_job(JobContext::new(Priority::Normal).with_trace(trace.clone())), trace)
    }

    /// How many chunks `trace` saw the sort load into a sorted run.
    fn loaded_runs(trace: &JobTrace) -> usize {
        let events = trace.events();
        events.iter().filter(|e| e.name == "sort.chunk" && e.phase == TracePhase::End).count()
    }

    #[test]
    fn coordinate_sort_orders_dataset() {
        let (store, manifest) = world(500, 64);
        let (rt, trace) = traced(&store);
        let plan = Plan::builder(DataState::Aligned).then(Stage::Sort).build().unwrap();
        let source = PlanSource::Dataset(manifest.clone());
        let req = PlanRequest {
            name: "s".into(),
            source,
            chunk_size: 64,
            aligner: None,
            reference: vec![],
        };
        let mut plan_report = plan.run(&rt, req).unwrap();
        let Some(StageRow { run: StageRun::Sort(report), busy_fraction, .. }) =
            plan_report.stages.pop()
        else {
            unreachable!("a sort plan reports its sort")
        };
        let sorted = plan_report.sorted.unwrap();
        assert_eq!(report.records, 500);
        assert_eq!(report.runs, manifest.records.len());
        assert!(busy_fraction > 0.0, "sort compute must run on the executor");
        assert!(loaded_runs(&trace) > 0, "a non-empty sort loads at least one run");
        assert_eq!(sorted.sort_order, SortOrder::Coordinate);
        assert_eq!(sorted.total_records, 500);
        let locs = locations_of(&store, &sorted);
        assert!(locs.windows(2).all(|w| w[0] <= w[1]), "not sorted");
        // All original locations survive.
        let mut expected: Vec<i64> = (0..500).map(|i| ((i * 7919) % 500) as i64).collect();
        expected.sort();
        assert_eq!(locs, expected);
    }

    #[test]
    fn columns_stay_row_aligned_after_sort() {
        let (store, manifest) = world(300, 50);
        let (sorted, _) =
            sort_dataset(&store, &manifest, SortKey::Coordinate, "s2", &PersonaConfig::small())
                .unwrap();
        // For every record, metadata still identifies the original row:
        // rebuild the original mapping meta -> location and verify.
        let src = Dataset::new(manifest.clone());
        let mut truth = std::collections::HashMap::new();
        for c in 0..src.num_chunks() {
            let meta = src.read_column_chunk(store.as_ref(), c, columns::METADATA).unwrap();
            let res = src.read_results_chunk(store.as_ref(), c).unwrap();
            for i in 0..meta.len() {
                truth.insert(meta.record(i).to_vec(), res[i].location);
            }
        }
        let out = Dataset::new(sorted);
        for c in 0..out.num_chunks() {
            let meta = out.read_column_chunk(store.as_ref(), c, columns::METADATA).unwrap();
            let res = out.read_results_chunk(store.as_ref(), c).unwrap();
            for i in 0..meta.len() {
                assert_eq!(truth[&meta.record(i).to_vec()], res[i].location, "row torn apart");
            }
        }
    }

    #[test]
    fn queryname_sort() {
        let (store, manifest) = world(200, 32);
        let (sorted, _) =
            sort_dataset(&store, &manifest, SortKey::QueryName, "q", &PersonaConfig::small())
                .unwrap();
        assert_eq!(sorted.sort_order, SortOrder::QueryName);
        let ds = Dataset::new(sorted);
        let mut names: Vec<Vec<u8>> = Vec::new();
        for c in 0..ds.num_chunks() {
            let meta = ds.read_column_chunk(store.as_ref(), c, columns::METADATA).unwrap();
            names.extend((0..meta.len()).map(|i| meta.record(i).to_vec()));
        }
        assert!(names.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn superchunk_phase_engages_on_many_chunks() {
        // 20 chunks > fanin 8 -> at least one superchunk round.
        let (store, manifest) = world(400, 20);
        let (_, report) =
            sort_dataset(&store, &manifest, SortKey::Coordinate, "sc", &PersonaConfig::small())
                .unwrap();
        assert_eq!(report.runs, 20);
        assert!(report.superchunks >= 3, "superchunks {}", report.superchunks);
        let (store2, manifest2) = world(400, 20);
        let (sorted2, _) =
            sort_dataset(&store2, &manifest2, SortKey::Coordinate, "sc2", &PersonaConfig::small())
                .unwrap();
        let locs = locations_of(&store2, &sorted2);
        assert!(locs.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Streaming the chunks in *reverse* order through a fed server must
    /// produce the identical dataset as the one-shot prefilled sort:
    /// the (key, chunk, position) composite makes the output order
    /// arrival-independent.
    #[test]
    fn streamed_out_of_order_arrival_matches_one_shot_sort() {
        let (store, manifest) = world(300, 30);
        let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
        let landed = Edge::landed(manifest.clone());
        let (oneshot, ..) =
            sort(&rt, &rt.stage_exec(), landed, SortKey::Coordinate, "ref", true, false, None)
                .unwrap();

        let (out, edge) = Edge::streaming(4, rt.telemetry());
        let mut chunks: Vec<EdgeChunk> = EdgeChunk::all(&manifest).collect();
        chunks.reverse();
        let src = manifest.clone();
        let producer = std::thread::spawn(move || {
            for chunk in chunks {
                out.push(chunk).unwrap();
            }
            out.deliver(&src);
        });
        let (streamed, report) =
            sort(&rt, &rt.stage_exec(), edge, SortKey::Coordinate, "str", true, false, None)
                .unwrap();
        producer.join().unwrap();
        assert_eq!(report.records, 300);
        assert_eq!(report.runs, 10);
        assert_eq!(locations_of(&store, &streamed), locations_of(&store, &oneshot));
        assert_eq!(metas_of(&store, &streamed), metas_of(&store, &oneshot));
    }

    /// The record-at-a-time runs and heap merge the sort used before
    /// its runs became columnar, kept as the oracle for [`co_rank`],
    /// [`merge_order`] and [`fold`].
    mod oracle {
        /// A sort key: either a location or a name.
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
        pub enum Key {
            Location(i64),
            Name(Vec<u8>),
        }

        /// All columns of one run, as parallel record arrays.
        #[derive(Debug, Clone, Default)]
        pub struct Run {
            pub keys: Vec<(Key, u64)>,
            pub meta: Vec<Vec<u8>>,
            pub bases: Vec<Vec<u8>>,
            pub quals: Vec<Vec<u8>>,
            pub results: Vec<Vec<u8>>,
        }

        impl Run {
            fn len(&self) -> usize {
                self.keys.len()
            }
        }

        /// K-way merges sorted runs into one.
        pub fn merge_runs(mut runs: Vec<Run>) -> Run {
            runs.retain(|r| r.len() > 0);
            if runs.len() == 1 {
                return runs.pop().unwrap();
            }
            let total: usize = runs.iter().map(|r| r.len()).sum();
            let mut out = Run {
                keys: Vec::with_capacity(total),
                meta: Vec::with_capacity(total),
                bases: Vec::with_capacity(total),
                quals: Vec::with_capacity(total),
                results: Vec::with_capacity(total),
            };
            let has_results = runs.iter().any(|r| !r.results.is_empty());
            let mut cursors = vec![0usize; runs.len()];
            // Binary heap of ((key, tie), run) — invert ordering for a
            // min-heap. The run index is a deterministic fallback for
            // synthetic runs with duplicated ties; real ties are unique.
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            let mut heap: BinaryHeap<Reverse<((Key, u64), usize)>> = BinaryHeap::new();
            for (r, run) in runs.iter().enumerate() {
                if run.len() > 0 {
                    heap.push(Reverse((run.keys[0].clone(), r)));
                }
            }
            while let Some(Reverse((_, r))) = heap.pop() {
                let i = cursors[r];
                let run = &mut runs[r];
                out.keys.push(run.keys[i].clone());
                out.meta.push(std::mem::take(&mut run.meta[i]));
                out.bases.push(std::mem::take(&mut run.bases[i]));
                out.quals.push(std::mem::take(&mut run.quals[i]));
                if has_results && !run.results.is_empty() {
                    out.results.push(std::mem::take(&mut run.results[i]));
                }
                cursors[r] += 1;
                if cursors[r] < run.len() {
                    heap.push(Reverse((run.keys[cursors[r]].clone(), r)));
                }
            }
            out
        }
    }

    /// The columnar form of an oracle run, in blocks as a gather makes
    /// them. A name-keyed run's metadata must be its names.
    fn columnar(run: &oracle::Run) -> Run {
        let whole = one_block(run);
        gather(std::slice::from_ref(&whole), &(0..whole.len()).map(|i| (0, i)).collect::<Vec<_>>())
    }

    /// An oracle run with each column as one block.
    fn one_block(run: &oracle::Run) -> Run {
        let column = |c: usize, records: &[Vec<u8>]| {
            RawChunk::from_records(
                coding(COLUMNS[c]).record_type,
                records.iter().map(|r| r.as_slice()),
            )
            .unwrap()
        };
        Run {
            ties: Arc::new(run.keys.iter().map(|k| k.1).collect()),
            locations: Arc::new(
                run.keys
                    .iter()
                    .filter_map(|k| match k.0 {
                        oracle::Key::Location(location) => Some(location),
                        oracle::Key::Name(_) => None,
                    })
                    .collect(),
            ),
            columns: vec![
                Blocks::whole(column(0, &run.meta)),
                Blocks::whole(column(1, &run.bases)),
                Blocks::whole(column(2, &run.quals)),
                Blocks::whole(column(3, &run.results)),
            ],
            reach: 0,
        }
    }

    /// A run of `n` records sharing one location key, with metadata
    /// identifying `(run, record)` so merge order is observable. Ties
    /// embed the run index, as real chunk loads embed the chunk index.
    fn tagged_run(run_idx: usize, n: usize, loc: i64) -> oracle::Run {
        let mut r = oracle::Run::default();
        for i in 0..n {
            r.keys.push((oracle::Key::Location(loc), ((run_idx as u64) << 32) | i as u64));
            r.meta.push(format!("run{run_idx}-rec{i}").into_bytes());
            r.bases.push(vec![b'A'; 4]);
            r.quals.push(vec![b'F'; 4]);
            r.results.push(vec![run_idx as u8]);
        }
        r
    }

    /// Contract pinned before the incremental-merge rewrite and carried
    /// through it: within equal sort keys, merged output is in origin
    /// order — run (chunk) index, then record position — and since the
    /// tie now encodes the origin, that holds for *any* arrival order
    /// of the runs.
    #[test]
    fn merge_runs_is_stable_within_equal_keys() {
        // Three runs, all records sharing key Location(7), plus a
        // smaller key in the last run that must still come out first.
        let make_late = || {
            let mut late = tagged_run(2, 3, 7);
            late.keys.insert(0, (oracle::Key::Location(3), (2u64 << 32) | 10));
            late.meta.insert(0, b"run2-early".to_vec());
            late.bases.insert(0, vec![b'A'; 4]);
            late.quals.insert(0, vec![b'F'; 4]);
            late.results.insert(0, vec![2]);
            late
        };
        let expected = vec![
            "run2-early",
            "run0-rec0",
            "run0-rec1",
            "run1-rec0",
            "run1-rec1",
            "run1-rec2",
            "run2-rec0",
            "run2-rec1",
            "run2-rec2",
        ];
        let merged_order = |runs: Vec<oracle::Run>| -> Vec<String> {
            let merged = fold(runs.iter().map(columnar).collect());
            assert_eq!(merged, columnar(&oracle::merge_runs(runs)));
            let meta = &merged.columns[META];
            (0..merged.len()).map(|i| String::from_utf8(meta.record(i).to_vec()).unwrap()).collect()
        };
        let order = merged_order(vec![tagged_run(0, 2, 7), tagged_run(1, 3, 7), make_late()]);
        assert_eq!(order, expected);
        // Scrambled arrival (the incremental sort's reality): same
        // output, because the ties carry the origin.
        let order = merged_order(vec![make_late(), tagged_run(1, 3, 7), tagged_run(0, 2, 7)]);
        assert_eq!(order, expected);
    }

    /// Sorted oracle runs from generated `(key, size)` draws, keyed by
    /// location (unmapped included) or by name. Keys take four values,
    /// so most are equal and only the ties tell them apart; run `r`
    /// holds chunk `9 - r`, as if chunks arrived in reverse.
    fn oracle_runs(draws: &[Vec<(u8, u8)>], by_name: bool) -> Vec<oracle::Run> {
        let mut runs = Vec::new();
        for (r, records) in draws.iter().enumerate() {
            let origin = ((9 - r) as u64) << 32;
            let mut keyed: Vec<((oracle::Key, u64), u8)> = records
                .iter()
                .enumerate()
                .map(|(i, &(k, size))| {
                    let key = match by_name {
                        true => oracle::Key::Name(vec![b'n', b'0' + k]),
                        false => oracle::Key::Location(k as i64 - 1),
                    };
                    ((key, origin | i as u64), size)
                })
                .collect();
            keyed.sort();
            let mut run = oracle::Run::default();
            for ((key, tie), size) in keyed {
                run.meta.push(match &key {
                    oracle::Key::Name(name) => name.clone(),
                    oracle::Key::Location(_) => format!("m{tie:x}").into_bytes(),
                });
                let n = size as usize * 9;
                run.bases.push((0..n).map(|j| b"ACGTN"[(j + tie as usize) % 5]).collect());
                run.quals.push(vec![b'!' + size; size as usize]);
                run.results.push(tie.to_le_bytes()[..size as usize].to_vec());
                run.keys.push((key, tie));
            }
            runs.push(run);
        }
        runs
    }

    proptest::proptest! {
        /// Co-ranking cuts every run at every global rank so that the
        /// cuts sum to the rank and split the records cleanly, and the
        /// chunk-wise merge between cuts is the oracle's merge.
        #[test]
        fn co_ranked_chunks_merge_like_the_oracle(
            draws in proptest::collection::vec(
                proptest::collection::vec((0u8..4, 0u8..5), 0..25),
                0..10,
            ),
            by_name in proptest::prelude::any::<bool>(),
            chunk in 1usize..40,
        ) {
            let oracles = oracle_runs(&draws, by_name);
            let runs: Vec<Run> = oracles.iter().map(columnar).collect();
            let total: usize = runs.iter().map(Run::len).sum();
            for rank in 0..=total {
                let cuts = co_rank(&runs, rank);
                proptest::prop_assert_eq!(cuts.iter().sum::<usize>(), rank);
                let cut = runs.iter().zip(&cuts);
                let left = cut.clone().filter(|&(_, &c)| c > 0).map(|(run, &c)| run.key(c - 1));
                let right = cut.filter(|&(run, &c)| c < run.len()).map(|(run, &c)| run.key(c));
                if let (Some(l), Some(r)) = (left.max(), right.min()) {
                    proptest::prop_assert!(l < r, "rank {}: {:?} !< {:?}", rank, l, r);
                }
            }
            if !runs.is_empty() {
                let want = columnar(&oracle::merge_runs(oracles));
                let mut order = Vec::new();
                for (lo, hi) in crate::pipeline::subchunk_ranges(total, chunk) {
                    order.extend(merge_order(&runs, &co_rank(&runs, lo), &co_rank(&runs, hi)));
                }
                proptest::prop_assert_eq!(&gather(&runs, &order), &want);
                proptest::prop_assert_eq!(&fold(runs), &want);
            }
        }
    }

    /// A column stored with another record type than the sort writes
    /// (here bases as text) sorts to the same bytes: the sort writes
    /// each column with its own type, whatever the input used.
    #[test]
    fn column_stored_as_another_type_sorts_alike() {
        let (store, manifest) = world(120, 16);
        let config = PersonaConfig::small();
        sort_dataset(&store, &manifest, SortKey::Coordinate, "want", &config).unwrap();
        crate::pipeline::store_bases_as_text(store.as_ref(), &manifest);
        let (sorted, _) =
            sort_dataset(&store, &manifest, SortKey::Coordinate, "got", &config).unwrap();
        for (k, e) in sorted.records.iter().enumerate() {
            for column in COLUMNS {
                let got = store.get(&Manifest::chunk_object_name(&e.path, column)).unwrap();
                let want = store.get(&format!("want-{k}.{column}")).unwrap();
                assert_eq!(got, want, "chunk {k} {column}");
            }
        }
    }

    /// A column shorter than the manifest says fails the sort with a
    /// typed error naming the chunk, not a panic in a load task, and no
    /// sorted manifest is written.
    #[test]
    fn short_column_is_a_typed_error() {
        for column in [columns::METADATA, columns::BASES, columns::QUAL, columns::RESULTS] {
            let (store, manifest) = world(100, 10);
            let name = Manifest::chunk_object_name("u-3", column);
            let chunk = ChunkData::decode(&store.get(&name).unwrap()).unwrap();
            store.put(&name, &columns::encode(column, chunk.iter().skip(1)).unwrap()).unwrap();
            let config = PersonaConfig::small();
            match sort_dataset(&store, &manifest, SortKey::Coordinate, "s", &config) {
                Err(Error::Pipeline(msg)) => {
                    assert!(msg.contains("chunk u-3") && msg.contains(column), "{msg}")
                }
                other => panic!("{column}: expected a pipeline error, got {other:?}"),
            }
            assert!(!store.exists("s.manifest.json"), "{column}");
        }
    }

    #[test]
    fn coordinate_sort_without_results_errors() {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let mut w = DatasetWriter::new("nr", 10).unwrap();
        w.append(store.as_ref(), b"m", b"ACGT", b"IIII").unwrap();
        let manifest = w.finish(store.as_ref()).unwrap();
        assert!(sort_dataset(&store, &manifest, SortKey::Coordinate, "x", &PersonaConfig::small())
            .is_err());
        // Query-name sort still works without results.
        let (sorted, _) =
            sort_dataset(&store, &manifest, SortKey::QueryName, "y", &PersonaConfig::small())
                .unwrap();
        assert_eq!(sorted.total_records, 1);
    }

    #[test]
    fn empty_dataset_sorts_to_empty() {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let manifest = DatasetWriter::new("e", 10).unwrap().finish(store.as_ref()).unwrap();
        let (rt, trace) = traced(&store);
        let input = Edge::landed(manifest);
        let (sorted, report) =
            sort(&rt, &rt.stage_exec(), input, SortKey::QueryName, "se", false, false, None)
                .unwrap();
        assert_eq!(report.records, 0);
        assert_eq!(loaded_runs(&trace), 0);
        assert_eq!(sorted.total_records, 0);
    }
}
