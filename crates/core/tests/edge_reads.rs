//! Chunks travel on a fused group's edges with the columns their
//! producer holds, so a stage reads from the store only the columns its
//! edge did not bring. A store that records every `get` shows which
//! objects each plan reads back.

mod common;

use std::sync::{Arc, Mutex};

use common::World;
use persona::config::PersonaConfig;
use persona::plan::{DataState, Plan, PlanSource, Stage};
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::columns;
use persona_agd::manifest::Manifest;

/// A [`MemStore`] that records the name of every object it is asked for.
#[derive(Default)]
struct CountingStore {
    inner: MemStore,
    gets: Mutex<Vec<String>>,
}

impl ChunkStore for CountingStore {
    fn get(&self, name: &str) -> std::io::Result<Vec<u8>> {
        self.gets.lock().unwrap().push(name.to_string());
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
