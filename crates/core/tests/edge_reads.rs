//! Chunks travel on a fused group's edges with the columns their
//! producer holds, so a stage reads from the store only the columns its
//! edge did not bring, and a group lands only the dataset states someone
//! can read back. A store that records every `get` and `put` shows which
//! objects each plan reads back and which it leaves behind.

mod common;

use std::sync::{Arc, Mutex};

use common::World;
use persona::caching::{Digest, ResultCache};
use persona::config::PersonaConfig;
use persona::plan::{DataState, Plan, PlanReport, PlanSource, Stage};
use persona::runtime::{JobContext, PersonaRuntime};
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::columns;
use persona_agd::manifest::Manifest;
use persona_dataflow::Priority;

/// A [`MemStore`] that records the name of every object it is asked for
/// and of every object it is handed.
#[derive(Default)]
struct CountingStore {
    inner: MemStore,
    gets: Mutex<Vec<String>>,
    puts: Mutex<Vec<String>>,
}

impl ChunkStore for CountingStore {
    fn get(&self, name: &str) -> std::io::Result<Vec<u8>> {
        self.gets.lock().unwrap().push(name.to_string());
        self.inner.get(name)
    }

    fn put(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
        self.puts.lock().unwrap().push(name.to_string());
        self.inner.put(name, data)
    }

    fn delete(&self, name: &str) -> std::io::Result<()> {
        self.inner.delete(name)
    }

    fn list(&self) -> std::io::Result<Vec<String>> {
        self.inner.list()
    }
}

/// Runs `input>stages` cold, from the FASTQ or from a dataset landed in
/// `input` state first, and returns the sorted names of the objects the
/// plan itself read, with the manifest it started from.
fn gets_of(w: &World, input: DataState, stages: &[Stage]) -> (Vec<String>, Option<Manifest>) {
    let store = Arc::new(CountingStore::default());
    let dyn_store: Arc<dyn ChunkStore> = store.clone();
    let plan = stages.iter().fold(Plan::builder(input), |b, &s| b.then(s)).build().unwrap();
    assert_eq!(plan.fusion_groups(), vec![0..stages.len()], "{plan:?} is one fused group");
    let landed = (input != DataState::Fastq).then(|| w.land(&dyn_store, input));
    store.gets.lock().unwrap().clear();
    let source = match &landed {
        Some(manifest) => PlanSource::Dataset(manifest.clone()),
        None => PlanSource::fastq_bytes(w.fastq.clone()),
    };
    let rt = PersonaRuntime::new(dyn_store, PersonaConfig::small()).unwrap();
    plan.run(&rt, w.request(source)).unwrap();
    let mut gets = store.gets.lock().unwrap().clone();
    gets.sort();
    (gets, landed)
}

/// Runs `plan` over the FASTQ on `store` as `job` and returns its report
/// and the sorted names of the objects it put, one per put.
fn puts_of(
    w: &World,
    store: &Arc<CountingStore>,
    plan: &Plan,
    job: JobContext,
) -> (PlanReport, Vec<String>) {
    store.puts.lock().unwrap().clear();
    let dyn_store: Arc<dyn ChunkStore> = store.clone();
    let rt = PersonaRuntime::new(dyn_store, PersonaConfig::small()).unwrap().for_job(job);
    let report = plan.run(&rt, w.request(PlanSource::fastq_bytes(w.fastq.clone()))).unwrap();
    let mut puts = store.puts.lock().unwrap().clone();
    puts.sort();
    (report, puts)
}

/// Every object of the landed dataset `manifest`: its chunks' four
/// columns and its manifest, sorted.
fn dataset_objects(manifest: &Manifest) -> Vec<String> {
    let all = [columns::BASES, columns::QUAL, columns::METADATA, columns::RESULTS];
    let mut names = objects(manifest, &all);
    names.push(format!("{}.manifest.json", manifest.name));
    names.sort();
    names
}

/// `fastq_to_bam`'s plan, one fused group.
fn fastq_to_bam() -> Plan {
    let stages = [Stage::Import, Stage::Align, Stage::Sort, Stage::Dupmark, Stage::ExportBam];
    stages.iter().fold(Plan::builder(DataState::Fastq), |b, &s| b.then(s)).build().unwrap()
}

/// Every `{stem}.{column}` of `manifest` for `wanted`, sorted.
fn objects(manifest: &Manifest, wanted: &[&str]) -> Vec<String> {
    let mut names: Vec<String> = manifest
        .records
        .iter()
        .flat_map(|e| wanted.iter().map(|c| Manifest::chunk_object_name(&e.path, c)))
        .collect();
    names.sort();
    names
}

#[test]
fn a_cold_fastq_to_bam_run_reads_nothing_back() {
    let w = World::new();
    let stages = [Stage::Import, Stage::Align, Stage::Sort, Stage::Dupmark, Stage::ExportBam];
    let (gets, _) = gets_of(&w, DataState::Fastq, &stages);
    assert!(gets.is_empty(), "read back {gets:?}");
}

#[test]
fn from_aligned_reads_each_input_column_once_and_no_sorted_chunk() {
    let w = World::new();
    let plan = Plan::from_aligned();
    let (gets, landed) = gets_of(&w, plan.input(), plan.stages());
    let columns = [columns::BASES, columns::QUAL, columns::METADATA, columns::RESULTS];
    assert_eq!(gets, objects(&landed.unwrap(), &columns));
    assert!(gets.iter().all(|name| !name.starts_with("g.sorted-")), "{gets:?}");
}

#[test]
fn align_then_sort_reads_the_read_columns_align_and_sort_need() {
    let w = World::new();
    let (gets, landed) = gets_of(&w, DataState::EncodedAgd, &[Stage::Align, Stage::Sort]);
    // Align loads bases and qualities; the sort reads the metadata no
    // stage before it held, and takes everything else off its edge.
    let columns = [columns::BASES, columns::QUAL, columns::METADATA];
    assert_eq!(gets, objects(&landed.unwrap(), &columns));
}

/// Without a cache a FASTQ plan through `dupmark` lands the sorted
/// dataset alone: four columns per sorted chunk and one manifest (29
/// objects at these sizes, 41 at the benchmark's), no unsorted chunk
/// and no `g.manifest.json`; the observer hears `sort` and `dupmark`.
#[test]
fn an_uncached_fused_run_lands_only_its_sorted_dataset() {
    let w = World::new();
    for plan in [fastq_to_bam(), Plan::full()] {
        let heard = Arc::new(Mutex::new(Vec::new()));
        let observer = {
            let heard = heard.clone();
            move |stage: Stage, manifest: &Manifest| {
                heard.lock().unwrap().push((stage, manifest.name.clone()))
            }
        };
        let job = JobContext::new(Priority::Normal).with_observer(Arc::new(observer));
        let store = Arc::new(CountingStore::default());
        let (report, puts) = puts_of(&w, &store, &plan, job);
        let sorted = report.sorted.clone().unwrap();
        assert_eq!(puts, dataset_objects(&sorted), "{plan:?}");
        assert_eq!(puts.len(), 4 * sorted.records.len() + 1, "{plan:?}");
        assert!(report.manifest.is_none(), "{plan:?}: names objects that were never put");
        let heard = heard.lock().unwrap().clone();
        let sorted_name = "g.sorted".to_string();
        assert_eq!(heard, [(Stage::Sort, sorted_name.clone()), (Stage::Dupmark, sorted_name)]);
    }
}

/// With a cache the same run also lands the aligned dataset the cache
/// registers, and a later `import-align` job on that cache reuses it
/// whole: it puts nothing, and the dataset is byte-identical to a cold
/// `import-align` run's.
#[test]
fn a_cached_fused_run_lands_the_align_prefix_a_later_job_reuses() {
    let w = World::new();
    let cache = Arc::new(ResultCache::new(16));
    let job =
        || JobContext::new(Priority::Normal).with_cache(cache.clone(), Digest::of_bytes(&w.fastq));
    let store = Arc::new(CountingStore::default());
    let (report, puts) = puts_of(&w, &store, &fastq_to_bam(), job());
    let aligned = report.manifest.clone().expect("the cache registers align, so it lands");
    let mut expect = dataset_objects(&aligned);
    expect.extend(dataset_objects(report.sorted.as_ref().unwrap()));
    expect.sort();
    assert_eq!(puts, expect);

    let (warm, warm_puts) = puts_of(&w, &store, &Plan::import_align(), job());
    assert_eq!(warm.cache.elided, 2);
    assert!(warm_puts.is_empty(), "a full hit puts nothing: {warm_puts:?}");
    assert_eq!(warm.manifest.as_ref(), Some(&aligned));

    let cold_store = Arc::new(CountingStore::default());
    let (cold, _) =
        puts_of(&w, &cold_store, &Plan::import_align(), JobContext::new(Priority::Normal));
    assert_eq!(cold.manifest.as_ref(), Some(&aligned));
    for name in dataset_objects(&aligned) {
        assert!(store.inner.get(&name).unwrap() == cold_store.inner.get(&name).unwrap(), "{name}");
    }
}

/// An uncached `import‖align` group lands the aligned dataset with one
/// manifest put: import's chunks are part of it, import's manifest is
/// not.
#[test]
fn an_uncached_import_align_group_puts_one_manifest() {
    let w = World::new();
    let store = Arc::new(CountingStore::default());
    let job = JobContext::new(Priority::Normal);
    let (report, puts) = puts_of(&w, &store, &Plan::import_align(), job);
    assert_eq!(puts, dataset_objects(&report.manifest.unwrap()));
    assert_eq!(puts.iter().filter(|name| name.ends_with(".manifest.json")).count(), 1);
}
