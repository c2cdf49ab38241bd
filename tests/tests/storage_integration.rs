//! Integration of pipelines with the modeled storage subsystems: the
//! Table 1 / Fig. 5 mechanics at test scale.

use std::sync::Arc;

use persona::config::PersonaConfig;
use persona::pipeline::align::AlignReport;
use persona::plan::{Stage, StageRun};
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::columns::{BASES, QUAL};
use persona_agd::dataset::Dataset;
use persona_agd::manifest::Manifest;
use persona_integration_tests::common::Fixture;
use persona_store::local::{DiskConfig, ThrottledStore};
use persona_telemetry::clock::ManualClock;

/// Aligns the landed dataset `manifest` in `store` through the
/// one-stage align plan.
fn align(fx: &Fixture, store: Arc<dyn ChunkStore>, manifest: &Manifest) -> AlignReport {
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    match fx.run_stage(&rt, Stage::Align, manifest).unwrap().stages.pop().map(|row| row.run) {
        Some(StageRun::Align(report)) => report,
        other => panic!("expected an align report, got {other:?}"),
    }
}

#[test]
fn align_through_throttled_disk() {
    let fx = Fixture::new(2001, 300);
    let disk = Arc::new(ThrottledStore::with_clock(
        MemStore::new(),
        DiskConfig { read_bw: 50e6, write_bw: 50e6, shared: false },
        ManualClock::new(),
    ));
    let manifest = fx.write_dataset(disk.as_ref(), "thr", 100);
    let stats0 = disk.stats().snapshot();
    let store: Arc<dyn ChunkStore> = disk.clone();
    let report = align(&fx, store, &manifest);
    assert_eq!(report.reads, 300);
    let read_delta = disk.stats().snapshot().bytes_read - stats0.bytes_read;
    // Alignment reads the bases and qual objects exactly once and never
    // metadata.
    let bases_qual: u64 = manifest
        .records
        .iter()
        .map(|e| {
            disk.get(&format!("{}.bases", e.path)).unwrap().len() as u64
                + disk.get(&format!("{}.qual", e.path)).unwrap().len() as u64
        })
        .sum();
    assert_eq!(read_delta, bases_qual);
    // The same sum as `Dataset::column_bytes`, which `table1` prints.
    let dataset = Dataset::open(disk.as_ref(), "thr").unwrap();
    let column_bytes = dataset.column_bytes(disk.as_ref(), BASES).unwrap()
        + dataset.column_bytes(disk.as_ref(), QUAL).unwrap();
    assert_eq!(bases_qual, column_bytes);
}
