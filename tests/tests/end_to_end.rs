//! End-to-end integration: FASTQ → AGD → align → sort → dupmark → SAM,
//! the paper's whole processing chain on planted-origin data.

use std::sync::Arc;

use persona::config::PersonaConfig;
use persona::pipeline::align::{align_dataset, finalize_manifest, AlignInputs};
use persona::pipeline::dupmark::mark_duplicates;
use persona::pipeline::export::{export_bam, export_sam};
use persona::pipeline::import::import_fastq;
use persona::pipeline::sort::{sort_dataset, SortKey};
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::dataset::Dataset;
use persona_compress::deflate::CompressLevel;
use persona_formats::fastq;
use persona_integration_tests::common::Fixture;
use persona_seq::read::Origin;

#[test]
fn whole_genome_processing_chain() {
    let fx = Fixture::new(1001, 1_500);
    let config = PersonaConfig::small();
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());

    // FASTQ import.
    let fastq_bytes = fastq::to_bytes(&fx.reads);
    let (mut manifest, import_rep) =
        import_fastq(std::io::Cursor::new(fastq_bytes), &store, "e2e", 250, &config).unwrap();
    assert_eq!(import_rep.reads, 1_500);
    assert_eq!(manifest.records.len(), 6);

    // Align.
    let align_rep = align_dataset(AlignInputs {
        store: store.clone(),
        manifest: &manifest,
        aligner: fx.aligner.clone(),
        config,
    })
    .unwrap();
    assert_eq!(align_rep.reads, 1_500);
    assert!(align_rep.mapped as f64 >= 1_500.0 * 0.98, "mapped {}", align_rep.mapped);
    finalize_manifest(store.as_ref(), &mut manifest, &fx.reference).unwrap();

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
    let (sorted, sort_rep) =
        sort_dataset(&store, &manifest, SortKey::Coordinate, "e2e.sorted", &config).unwrap();
    assert_eq!(sort_rep.records, 1_500);
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
    let rep1 = mark_duplicates(&store, &sorted).unwrap();
    let rep2 = mark_duplicates(&store, &sorted).unwrap();
    assert_eq!(rep1.reads, 1_500);
    assert_eq!(rep2.duplicates, 0, "dupmark must be idempotent");

    // SAM and BAM export.
    let mut sam = Vec::new();
    let sam_rep = export_sam(&store, &sorted, &mut sam, &config).unwrap();
    assert_eq!(sam_rep.records, 1_500);
    let body = sam.split(|&b| b == b'\n').filter(|l| !l.is_empty() && l[0] != b'@').count();
    assert_eq!(body, 1_500);

    let mut bam = Vec::new();
    let bam_rep = export_bam(&store, &sorted, &mut bam, CompressLevel::Fast).unwrap();
    assert_eq!(bam_rep.records, 1_500);
    let parsed = persona_formats::bam::read_bam(&bam).unwrap();
    assert_eq!(parsed.records.len(), 1_500);
    // BAM positions are sorted too (same dataset order).
    let positions: Vec<(Option<u32>, i64)> =
        parsed.records.iter().map(|r| (r.rname, r.pos)).collect();
    let mut expected = positions.clone();
    expected.sort();
    assert_eq!(positions, expected);
}

#[test]
fn multi_server_alignment_partitions_work() {
    let fx = Fixture::new(1003, 800);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let manifest = fx.write_dataset(store.as_ref(), "ms", 100);
    let server = persona::manifest_server::ManifestServer::new(&manifest, None);

    // Three "servers" share one manifest queue (the paper's multi-node
    // deployment, §5.2).
    let total: u64 = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..3 {
            let store = store.clone();
            let manifest = &manifest;
            let server = &server;
            let aligner = fx.aligner.clone();
            handles.push(s.spawn(move || {
                persona::pipeline::align::align_with_server(
                    AlignInputs { store, manifest, aligner, config: PersonaConfig::small() },
                    server,
                )
                .unwrap()
                .reads
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(total, 800);
    for e in &manifest.records {
        assert!(store.exists(&format!("{}.results", e.path)), "missing results for {}", e.path);
    }
}

#[test]
fn failure_injection_truncated_chunk() {
    let fx = Fixture::new(1005, 300);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let manifest = fx.write_dataset(store.as_ref(), "fi", 100);
    // Truncate a chunk object mid-payload.
    let name = format!("{}.bases", manifest.records[1].path);
    let data = store.get(&name).unwrap();
    store.put(&name, &data[..data.len() / 2]).unwrap();
    let err = align_dataset(AlignInputs {
        store: store.clone(),
        manifest: &manifest,
        aligner: fx.aligner.clone(),
        config: PersonaConfig::small(),
    });
    assert!(err.is_err(), "truncated chunk must fail the run");
}

#[test]
fn failure_injection_corrupt_payload_crc() {
    let fx = Fixture::new(1007, 200);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let manifest = fx.write_dataset(store.as_ref(), "crc", 100);
    let name = format!("{}.qual", manifest.records[0].path);
    let mut data = store.get(&name).unwrap();
    let n = data.len();
    data[n - 3] ^= 0x55;
    store.put(&name, &data).unwrap();
    let err = align_dataset(AlignInputs {
        store: store.clone(),
        manifest: &manifest,
        aligner: fx.aligner.clone(),
        config: PersonaConfig::small(),
    });
    assert!(err.is_err(), "CRC mismatch must fail the run");
}

#[test]
fn fastq_roundtrip_through_agd_is_lossless() {
    let fx = Fixture::new(1009, 400);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let original = fastq::to_bytes(&fx.reads);
    let (manifest, _) = import_fastq(
        std::io::Cursor::new(original.clone()),
        &store,
        "rt",
        64,
        &PersonaConfig::small(),
    )
    .unwrap();
    let ds = Dataset::new(manifest);
    let mut out = Vec::new();
    persona_formats::convert::agd_to_fastq(&ds, store.as_ref(), &mut out).unwrap();
    assert_eq!(fastq::from_bytes(&out).unwrap(), fastq::from_bytes(&original).unwrap());
}
