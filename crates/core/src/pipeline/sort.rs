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
//! opaque byte slices, with only the key column decoded.
//!
//! The sort is **incremental**: it pulls chunk tasks from its input
//! edge's [`ManifestServer`](crate::manifest_server::ManifestServer)
//! and folds sorted runs into superchunks as chunks arrive, so when the
//! edge is fed by a live upstream stage (the fused `align → sort`
//! pipeline), run loading and superchunk merging overlap alignment
//! instead of waiting behind a barrier. Chunks may arrive in *any*
//! order: every record carries a `(key, chunk, position)` composite, so
//! the merged output is the unique global order whatever the arrival
//! interleaving — byte identical to sorting the finished dataset in one
//! shot ([`sort_dataset`], the same code over a landed dataset).
//!
//! Every compute phase — per-chunk load+sort, superchunk merges, output
//! chunk encode+write — runs as tagged task batches on the runtime's
//! shared executor; the sort stage owns no threads of its own.

use std::sync::Arc;
use std::time::{Duration, Instant};

use persona_agd::chunk::{ChunkData, RecordType};
use persona_agd::chunk_io::ChunkStore;
use persona_agd::columns;
use persona_agd::manifest::{ChunkEntry, Manifest, SortOrder};
use persona_agd::results::AlignmentResult;
use persona_compress::codec::Codec;
use persona_compress::deflate::CompressLevel;

use crate::config::PersonaConfig;
use crate::manifest_server::ChunkTask;
use crate::pipeline::{load_column, Edge, StageReport};
use crate::runtime::PersonaRuntime;
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
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Records sorted.
    pub records: u64,
    /// Number of first-phase sorted runs.
    pub runs: usize,
    /// Number of intermediate superchunk merges (0 if the final merge
    /// alone sufficed).
    pub superchunks: usize,
    /// When the first sorted run was ready — on a fused `align → sort`
    /// run this lands while upstream is still aligning, which is how
    /// tests assert the stages actually overlapped.
    pub first_run_at: Option<Instant>,
    /// The stage's share of shared-executor worker time.
    pub busy_fraction: f64,
}

impl StageReport for SortReport {
    fn elapsed(&self) -> Duration {
        self.elapsed
    }

    fn busy_fraction(&self) -> f64 {
        self.busy_fraction
    }
}

/// All columns of one loaded (or merged) run, as parallel record arrays.
struct Run {
    /// `(key, tie)` per record. The tie embeds the record's global
    /// origin — `(chunk index << 32) | position in chunk` — which makes
    /// the composite unique across the dataset, so every merge order
    /// and every arrival order produce the same output: records of
    /// equal key come out in (chunk, position) order. Both components
    /// are u32-bounded (chunk counts and `ChunkEntry::num_records` are
    /// `u32`), so the packing cannot collide.
    keys: Vec<(Key, u64)>,
    meta: Vec<Vec<u8>>,
    bases: Vec<Vec<u8>>,
    quals: Vec<Vec<u8>>,
    results: Vec<Vec<u8>>,
}

/// A sort key: either a location or a name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Location(i64),
    Name(Vec<u8>),
}

impl Run {
    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Sorts a dataset into a new dataset `out_name` on a transient private
/// runtime, returning the new manifest.
pub fn sort_dataset(
    store: &Arc<dyn ChunkStore>,
    manifest: &Manifest,
    key: SortKey,
    out_name: &str,
    config: &PersonaConfig,
) -> Result<(Manifest, SortReport)> {
    let rt = PersonaRuntime::new(store.clone(), *config)?;
    sort_rt(&rt, Edge::Landed(manifest.clone()), key, out_name)
}

/// The sort stage on a shared runtime: sorts the chunk stream of
/// `input` into the dataset `out_name`, merging incrementally — each
/// batch of arrived chunks is loaded and sorted on the executor, and
/// full groups of runs fold into superchunks *while upstream is still
/// producing*. The output dataset is independent of arrival order: runs
/// merge on globally unique `(key, origin)` composite keys, where the
/// origin tie-break encodes (chunk index, position in chunk). Unmapped
/// records (location -1) sort first, matching the convention that they
/// carry no coordinate.
///
/// The write phase takes column codecs, chunk sizing and reference
/// contigs from the input's manifest; a live upstream delivers it after
/// its last chunk, by which point every chunk has been merged.
pub(crate) fn sort_rt(
    rt: &PersonaRuntime,
    input: Edge,
    key: SortKey,
    out_name: &str,
) -> Result<(Manifest, SortReport)> {
    // Chunks streamed by a live upstream carry the results column that
    // upstream is landing (only an align stage streams into a sort).
    let has_results = match &input {
        Edge::Landed(manifest) => manifest.has_column(columns::RESULTS),
        Edge::Live(..) => true,
    };
    if key == SortKey::Coordinate && !has_results {
        return Err(Error::Pipeline("coordinate sort requires a results column".into()));
    }
    // Unmetered: a sort over a landed dataset publishes no `manifest.*`
    // telemetry.
    let server = input.chunks(None);
    let timer = rt.stage_timer();
    let exec = rt.stage_exec(&timer);
    let fanin = 8usize;
    let store = rt.store().clone();

    // Chunk-level runs awaiting a superchunk merge, and the superchunk
    // tier itself (also folded when it grows past the fan-in).
    let mut pending: Vec<Run> = Vec::new();
    let mut merged: Vec<Run> = Vec::new();
    let mut n_runs = 0usize;
    let mut superchunks = 0usize;
    let mut first_run_at: Option<Instant> = None;

    let fold = |exec: &crate::runtime::StageExec, group: Vec<Run>| -> Result<Run> {
        Ok(exec.map(vec![group], |_, g| merge_runs(g))?.pop().expect("merge result"))
    };

    loop {
        rt.check_cancelled()?;
        // Block for one task, then drain whatever else upstream has
        // already finished (up to one merge group) without waiting.
        let Some(first) = server.fetch() else { break };
        let mut batch = vec![first];
        while batch.len() < fanin {
            match server.try_fetch() {
                Some(task) => batch.push(task),
                None => break,
            }
        }
        n_runs += batch.len();
        let loaded: Vec<Run> = {
            let store = store.clone();
            exec.map(batch, move |_, task| {
                load_sorted_run(store.as_ref(), &task, key, has_results)
            })?
            .into_iter()
            .collect::<Result<_>>()?
        };
        first_run_at.get_or_insert_with(Instant::now);
        pending.extend(loaded);
        // Eagerly fold full groups into superchunks while upstream is
        // still producing — the overlap this stage exists for.
        while pending.len() >= fanin {
            let group: Vec<Run> = pending.drain(..fanin).collect();
            superchunks += 1;
            merged.push(fold(&exec, group)?);
            if merged.len() >= fanin {
                let group: Vec<Run> = merged.drain(..).collect();
                superchunks += 1;
                merged.push(fold(&exec, group)?);
            }
        }
    }
    rt.check_cancelled()?;

    // Leftover chunk runs: when the superchunk phase engaged at all,
    // fold them into one more superchunk so the final merge only sees
    // peers; on a small dataset they go straight to the final merge.
    if !pending.is_empty() && !merged.is_empty() {
        superchunks += 1;
        let group = std::mem::take(&mut pending);
        merged.push(fold(&exec, group)?);
    } else {
        merged.append(&mut pending);
    }
    let final_run = fold(&exec, merged)?;
    let records = final_run.len() as u64;

    let src = input.manifest()?;
    let out_manifest =
        write_sorted_dataset(rt, &timer, out_name, &src, final_run, key, has_results)?;

    let stage = timer.finish();
    Ok((
        out_manifest,
        SortReport {
            elapsed: stage.elapsed,
            records,
            runs: n_runs,
            superchunks,
            first_run_at,
            busy_fraction: stage.busy_fraction(),
        },
    ))
}

impl Default for Run {
    fn default() -> Self {
        Run {
            keys: Vec::new(),
            meta: Vec::new(),
            bases: Vec::new(),
            quals: Vec::new(),
            results: Vec::new(),
        }
    }
}

/// Loads one chunk's columns and sorts them by `(key, origin)`.
fn load_sorted_run(
    store: &dyn ChunkStore,
    task: &ChunkTask,
    key: SortKey,
    has_results: bool,
) -> Result<Run> {
    let load = |column| load_column(store, &task.stem, column);
    let meta = load(columns::METADATA)?;
    let bases = load(columns::BASES)?;
    let quals = load(columns::QUAL)?;
    let results = if has_results { Some(load(columns::RESULTS)?) } else { None };

    let n = meta.len();
    if n != task.num_records as usize {
        return Err(Error::Pipeline(format!(
            "chunk {}: {} records on disk, {} in manifest",
            task.stem, n, task.num_records
        )));
    }
    let origin = (task.chunk_idx as u64) << 32;
    let mut keys: Vec<(Key, u64)> = Vec::with_capacity(n);
    for i in 0..n {
        let k = match key {
            SortKey::Coordinate => {
                let r = AlignmentResult::decode(
                    results.as_ref().expect("results checked above").record(i),
                )?;
                Key::Location(r.location)
            }
            SortKey::QueryName => Key::Name(meta.record(i).to_vec()),
        };
        keys.push((k, origin | i as u64));
    }
    let mut order: Vec<usize> = (0..n).collect();
    // The tie component is unique, so this is a total order (and equal
    // keys stay in chunk position order, as the old stable sort did).
    order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));

    Ok(Run {
        keys: order.iter().map(|&i| keys[i].clone()).collect(),
        meta: order.iter().map(|&i| meta.record(i).to_vec()).collect(),
        bases: order.iter().map(|&i| bases.record(i).to_vec()).collect(),
        quals: order.iter().map(|&i| quals.record(i).to_vec()).collect(),
        results: match results {
            Some(r) => order.iter().map(|&i| r.record(i).to_vec()).collect(),
            None => Vec::new(),
        },
    })
}

/// K-way merges sorted runs into one. Because keys carry a globally
/// unique `(chunk, position)` tie, the result is the same whatever
/// grouping or arrival order produced `runs` — records of equal sort
/// key always come out in chunk order, then position order.
fn merge_runs(mut runs: Vec<Run>) -> Run {
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
    // Binary heap of ((key, tie), run) — invert ordering for a min-heap.
    // The run index is a deterministic fallback for synthetic runs with
    // duplicated ties; real ties are unique.
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

/// Writes the merged run as a fresh AGD dataset, one executor task per
/// output chunk.
fn write_sorted_dataset(
    rt: &PersonaRuntime,
    timer: &crate::runtime::StageTimer,
    out_name: &str,
    src: &Manifest,
    run: Run,
    key: SortKey,
    has_results: bool,
) -> Result<Manifest> {
    let chunk_size = src
        .records
        .first()
        .map(|e| e.num_records as usize)
        .unwrap_or(persona_agd::DEFAULT_CHUNK_SIZE)
        .max(1);

    let mut manifest = Manifest::new(out_name);
    manifest.add_column(columns::BASES, src.column_codec(columns::BASES)?)?;
    manifest.add_column(columns::QUAL, src.column_codec(columns::QUAL)?)?;
    manifest.add_column(columns::METADATA, src.column_codec(columns::METADATA)?)?;
    if has_results {
        manifest.add_column(columns::RESULTS, Codec::Gzip)?;
    }
    manifest.reference = src.reference.clone();
    manifest.sort_order = match key {
        SortKey::Coordinate => SortOrder::Coordinate,
        SortKey::QueryName => SortOrder::QueryName,
    };
    manifest.row_groups = src.row_groups.clone();

    let n = run.len();
    let ranges = crate::pipeline::subchunk_ranges(n, chunk_size);
    {
        let columns_spec: Vec<(&'static str, RecordType, Codec)> = {
            let mut v = vec![
                (columns::METADATA, RecordType::Text, manifest.column_codec(columns::METADATA)?),
                (columns::BASES, RecordType::CompactBases, manifest.column_codec(columns::BASES)?),
                (columns::QUAL, RecordType::Text, manifest.column_codec(columns::QUAL)?),
            ];
            if has_results {
                v.push((
                    columns::RESULTS,
                    RecordType::Results,
                    manifest.column_codec(columns::RESULTS)?,
                ));
            }
            v
        };
        let run = Arc::new(run);
        let store = rt.store().clone();
        let out_name = out_name.to_string();
        rt.stage_exec(timer)
            .map(ranges.clone(), move |k, (lo, hi)| -> Result<()> {
                let stem = format!("{out_name}-{k}");
                for &(col, rtype, codec) in &columns_spec {
                    let records: &[Vec<u8>] = match col {
                        columns::METADATA => &run.meta,
                        columns::BASES => &run.bases,
                        columns::QUAL => &run.quals,
                        _ => &run.results,
                    };
                    let data = ChunkData::from_records(
                        rtype,
                        records[lo..hi].iter().map(|r| r.as_slice()),
                    )?;
                    let obj = data.encode(codec, CompressLevel::Fast)?;
                    store.put(&Manifest::chunk_object_name(&stem, col), &obj)?;
                }
                Ok(())
            })?
            .into_iter()
            .collect::<Result<Vec<()>>>()?;
    }
    let mut first = 0u64;
    for (k, &(lo, hi)) in ranges.iter().enumerate() {
        manifest.records.push(ChunkEntry {
            path: format!("{out_name}-{k}"),
            first_record: first,
            num_records: (hi - lo) as u32,
        });
        first += (hi - lo) as u64;
    }
    manifest.total_records = first;
    manifest.validate()?;
    rt.store().put(&format!("{out_name}.manifest.json"), manifest.to_json()?.as_bytes())?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_agd::builder::{ColumnAppender, ColumnConfig, DatasetWriter};
    use persona_agd::chunk_io::MemStore;
    use persona_agd::dataset::Dataset;
    use persona_agd::results::flags;

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
        let cfg = ColumnConfig { codec: Codec::Gzip, record_type: RecordType::Results };
        let sizes: Vec<u32> = manifest.records.iter().map(|e| e.num_records).collect();
        let mut app =
            ColumnAppender::new(&mut manifest, columns::RESULTS, cfg, CompressLevel::Fast).unwrap();
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
            out.extend(meta.iter().map(|r| r.to_vec()));
        }
        out
    }

    #[test]
    fn coordinate_sort_orders_dataset() {
        let (store, manifest) = world(500, 64);
        let (sorted, report) =
            sort_dataset(&store, &manifest, SortKey::Coordinate, "s", &PersonaConfig::small())
                .unwrap();
        assert_eq!(report.records, 500);
        assert_eq!(report.runs, manifest.records.len());
        assert!(report.busy_fraction > 0.0, "sort compute must run on the executor");
        assert!(report.first_run_at.is_some(), "a non-empty sort loads at least one run");
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
            names.extend(meta.iter().map(|r| r.to_vec()));
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
        let (oneshot, _) =
            sort_rt(&rt, Edge::Landed(manifest.clone()), SortKey::Coordinate, "ref").unwrap();

        let (out, edge) = Edge::streaming(4, rt.telemetry());
        let (feeder, promise) = (out.chunks, out.manifest);
        let tasks: Vec<ChunkTask> = manifest
            .records
            .iter()
            .enumerate()
            .rev()
            .map(|(i, e)| ChunkTask {
                chunk_idx: i,
                stem: e.path.clone(),
                num_records: e.num_records,
            })
            .collect();
        let src = manifest.clone();
        let producer = std::thread::spawn(move || {
            for t in tasks {
                assert!(feeder.push(t));
            }
            promise.send(src).unwrap();
        });
        let (streamed, report) = sort_rt(&rt, edge, SortKey::Coordinate, "str").unwrap();
        producer.join().unwrap();
        assert_eq!(report.records, 300);
        assert_eq!(report.runs, 10);
        assert_eq!(locations_of(&store, &streamed), locations_of(&store, &oneshot));
        assert_eq!(metas_of(&store, &streamed), metas_of(&store, &oneshot));
    }

    /// A run of `n` records sharing one location key, with metadata
    /// identifying `(run, record)` so merge order is observable. Ties
    /// embed the run index, as real chunk loads embed the chunk index.
    fn tagged_run(run_idx: usize, n: usize, loc: i64) -> Run {
        let mut r = Run::default();
        for i in 0..n {
            r.keys.push((Key::Location(loc), ((run_idx as u64) << 32) | i as u64));
            r.meta.push(format!("run{run_idx}-rec{i}").into_bytes());
            r.bases.push(vec![b'A'; 4]);
            r.quals.push(vec![b'F'; 4]);
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
            late.keys.insert(0, (Key::Location(3), (2u64 << 32) | 10));
            late.meta.insert(0, b"run2-early".to_vec());
            late.bases.insert(0, vec![b'A'; 4]);
            late.quals.insert(0, vec![b'F'; 4]);
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
        let merged = merge_runs(vec![tagged_run(0, 2, 7), tagged_run(1, 3, 7), make_late()]);
        let order: Vec<String> =
            merged.meta.iter().map(|m| String::from_utf8(m.clone()).unwrap()).collect();
        assert_eq!(order, expected);
        // Scrambled arrival (the incremental sort's reality): same
        // output, because the ties carry the origin.
        let merged = merge_runs(vec![make_late(), tagged_run(1, 3, 7), tagged_run(0, 2, 7)]);
        let order: Vec<String> =
            merged.meta.iter().map(|m| String::from_utf8(m.clone()).unwrap()).collect();
        assert_eq!(order, expected);
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
        let (sorted, report) =
            sort_dataset(&store, &manifest, SortKey::QueryName, "se", &PersonaConfig::small())
                .unwrap();
        assert_eq!(report.records, 0);
        assert_eq!(report.first_run_at, None);
        assert_eq!(sorted.total_records, 0);
    }
}
