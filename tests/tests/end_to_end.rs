//! End-to-end integration: FASTQ → AGD → align → sort → dupmark → SAM,
//! the paper's whole processing chain on planted-origin data.

use std::sync::Arc;

use persona::config::PersonaConfig;
use persona::plan::{Plan, PlanReport, Stage, StageRun};
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::dataset::Dataset;
use persona_formats::fastq;
use persona_integration_tests::common::Fixture;
use persona_seq::read::Origin;

/// A runtime over a fresh in-memory store.
fn runtime() -> (Arc<dyn ChunkStore>, Arc<PersonaRuntime>) {
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    (store.clone(), PersonaRuntime::new(store, PersonaConfig::small()).unwrap())
}

/// The report of the one stage `report` ran.
fn only(report: &PlanReport) -> &StageRun {
    assert_eq!(report.stages.len(), 1);
    &report.stages[0].run
}

#[test]
fn whole_genome_processing_chain() {
    let fx = Fixture::new(1001, 1_500);
    let (store, rt) = runtime();

    // FASTQ import.
    let imported = Plan::import_only().run(&rt, fx.fastq_request("e2e", 250)).unwrap();
    let manifest = imported.manifest.clone().unwrap();
    assert_eq!(only(&imported).records(), 1_500);
    assert_eq!(manifest.records.len(), 6);

    // Align.
    let aligned = fx.run_stage(&rt, Stage::Align, &manifest).unwrap();
    let StageRun::Align(align_rep) = only(&aligned) else { unreachable!() };
    assert_eq!(align_rep.reads, 1_500);
    assert!(align_rep.mapped as f64 >= 1_500.0 * 0.98, "mapped {}", align_rep.mapped);
    let manifest = aligned.manifest.clone().unwrap();

    // Accuracy against planted origins.
    let ds = Dataset::new(manifest.clone());
    let mut correct = 0u64;
    for c in 0..ds.num_chunks() {
        let results = ds.read_results_chunk(store.as_ref(), c).unwrap();
        let meta = ds.read_column_chunk(store.as_ref(), c, "metadata").unwrap();
        for (i, r) in results.iter().enumerate() {
            let origin = Origin::parse(meta.record(i)).unwrap();
            let expected = fx.genome.to_linear(origin.contig as usize, origin.pos) as i64;
            if r.location == expected {
                correct += 1;
            }
        }
    }
    assert!(correct >= 1_350, "only {correct}/1500 at the true position");

    // Coordinate sort.
    let sorted = fx.run_stage(&rt, Stage::Sort, &manifest).unwrap();
    assert_eq!(only(&sorted).records(), 1_500);
    let sorted = sorted.sorted.unwrap();
    assert_eq!(sorted.name, "e2e.sorted");
    let ds_sorted = Dataset::new(sorted.clone());
    let mut last = i64::MIN;
    for c in 0..ds_sorted.num_chunks() {
        for r in ds_sorted.read_results_chunk(store.as_ref(), c).unwrap() {
            assert!(r.location >= last, "sort violated");
            last = r.location;
        }
    }

    // Duplicate marking (simulated reads rarely collide; just verify it
    // runs and is idempotent).
    let rep1 = fx.run_stage(&rt, Stage::Dupmark, &sorted).unwrap();
    let rep2 = fx.run_stage(&rt, Stage::Dupmark, &sorted).unwrap();
    let (StageRun::Dupmark(rep1), StageRun::Dupmark(rep2)) = (only(&rep1), only(&rep2)) else {
        unreachable!()
    };
    assert_eq!(rep1.reads, 1_500);
    assert_eq!(rep2.duplicates, 0, "dupmark must be idempotent");

    // SAM and BAM export.
    let sam_rep = fx.run_stage(&rt, Stage::ExportSam, &sorted).unwrap();
    assert_eq!(only(&sam_rep).records(), 1_500);
    let sam = sam_rep.sam.unwrap();
    let body = sam.split(|&b| b == b'\n').filter(|l| !l.is_empty() && l[0] != b'@').count();
    assert_eq!(body, 1_500);

    let bam_rep = fx.run_stage(&rt, Stage::ExportBam, &sorted).unwrap();
    assert_eq!(only(&bam_rep).records(), 1_500);
    let parsed = persona_formats::bam::read_bam(bam_rep.bam.as_deref().unwrap()).unwrap();
    assert_eq!(parsed.records.len(), 1_500);
    // BAM positions are sorted too (same dataset order).
    let positions: Vec<(Option<u32>, i64)> =
        parsed.records.iter().map(|r| (r.rname, r.pos)).collect();
    let mut expected = positions.clone();
    expected.sort();
    assert_eq!(positions, expected);
}

#[test]
fn failure_injection_truncated_chunk() {
    let fx = Fixture::new(1005, 300);
    let (store, rt) = runtime();
    let manifest = fx.write_dataset(store.as_ref(), "fi", 100);
    // Truncate a chunk object mid-payload.
    let name = format!("{}.bases", manifest.records[1].path);
    let data = store.get(&name).unwrap();
    store.put(&name, &data[..data.len() / 2]).unwrap();
    let err = fx.run_stage(&rt, Stage::Align, &manifest);
    assert!(err.is_err(), "truncated chunk must fail the run");
}

#[test]
fn failure_injection_corrupt_payload_crc() {
    let fx = Fixture::new(1007, 200);
    let (store, rt) = runtime();
    let manifest = fx.write_dataset(store.as_ref(), "crc", 100);
    let name = format!("{}.qual", manifest.records[0].path);
    let mut data = store.get(&name).unwrap();
    let n = data.len();
    data[n - 3] ^= 0x55;
    store.put(&name, &data).unwrap();
    let err = fx.run_stage(&rt, Stage::Align, &manifest);
    assert!(err.is_err(), "CRC mismatch must fail the run");
}

#[test]
fn fastq_roundtrip_through_agd_is_lossless() {
    let fx = Fixture::new(1009, 400);
    let (store, rt) = runtime();
    let original = fastq::to_bytes(&fx.reads);
    let manifest = Plan::import_only().run(&rt, fx.fastq_request("rt", 64)).unwrap().manifest;
    let manifest = manifest.unwrap();
    let ds = Dataset::new(manifest);
    let mut out = Vec::new();
    persona_formats::convert::agd_to_fastq(&ds, store.as_ref(), &mut out).unwrap();
    assert_eq!(fastq::from_bytes(&out).unwrap(), fastq::from_bytes(&original).unwrap());
}
