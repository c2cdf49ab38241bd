//! The fused end-to-end runtime: `Plan::full().run` chains import →
//! align → sort → dupmark → export on one shared executor, overlapping stages
//! through bounded chunk queues. Scheduling must never change results:
//! the fused output is byte-identical to running the stages separately.

use std::sync::Arc;

use persona::caching::{Digest, ResultCache};
use persona::config::PersonaConfig;
use persona::plan::{Plan, PlanRequest, PlanSource, Stage};
use persona::runtime::{JobContext, PersonaRuntime};
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_dataflow::Priority;
use persona_integration_tests::common::Fixture;

/// Runs the five stages one at a time, each as a one-stage plan, and
/// returns (sorted manifest JSON, aligned manifest JSON, SAM text).
fn run_stages_separately(fx: &Fixture, name: &str, chunk: usize) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
    let imported = Plan::import_only().run(&rt, fx.fastq_request(name, chunk)).unwrap();
    let aligned = fx.run_stage(&rt, Stage::Align, &imported.manifest.unwrap()).unwrap();
    let sorted = fx.run_stage(&rt, Stage::Sort, &aligned.manifest.unwrap()).unwrap();
    let sorted = sorted.sorted.unwrap();
    fx.run_stage(&rt, Stage::Dupmark, &sorted).unwrap();
    let sam = fx.run_stage(&rt, Stage::ExportSam, &sorted).unwrap().sam.unwrap();
    (
        store.get(&format!("{name}.sorted.manifest.json")).unwrap(),
        store.get(&format!("{name}.manifest.json")).unwrap(),
        sam,
    )
}

/// The fused run matches the stage-by-stage run at every executor
/// width, with and without a result cache. The alignment kernel is
/// whichever `PERSONA_KERNEL` selects (CI runs this file once per
/// dispatch arm); it is process-global, so this test never switches it.
#[test]
fn fused_pipeline_is_byte_identical_to_separate_stages() {
    let fx = Fixture::new(3001, 900);
    let (sep_sorted_manifest, sep_manifest, sep_sam) = run_stages_separately(&fx, "fp", 150);
    let digest = Digest::of_bytes(&persona_formats::fastq::to_bytes(&fx.reads));

    for threads in [1, 2, 4, 8] {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let config = PersonaConfig { compute_threads: threads, ..PersonaConfig::small() };
        let cached = threads % 2 == 0;
        let mut job = JobContext::new(Priority::Normal);
        if cached {
            job = job.with_cache(Arc::new(ResultCache::new(4)), digest);
        }
        let rt = PersonaRuntime::new(store.clone(), config).unwrap().for_job(job);
        let report = Plan::full().run(&rt, fx.fastq_request("fp", 150)).unwrap();
        let fused_sam = report.sam.as_deref().expect("full plan exports SAM");

        // Same record counts through every stage.
        assert_eq!(report.stages.iter().map(|row| row.run.records()).collect::<Vec<_>>(), [900; 5]);

        // Byte-identical outputs: the exported SAM and the persisted
        // manifests match the stage-by-stage run exactly. The unsorted
        // aligned dataset lands only when the job's cache registers it.
        assert_eq!(
            fused_sam, sep_sam,
            "fused SAM differs from separate stages at {threads} threads"
        );
        let aligned = store.get("fp.manifest.json").ok();
        assert_eq!(aligned, cached.then(|| sep_manifest.clone()), "{threads} threads");
        assert_eq!(
            store.get("fp.sorted.manifest.json").unwrap(),
            sep_sorted_manifest,
            "{threads} threads"
        );

        // Every stage reports a sane executor share, and the
        // compute-heavy stages actually used the shared executor.
        for (stage, elapsed, busy) in report.stage_rows() {
            assert!(busy.is_finite() && (0.0..=1.0).contains(&busy), "{stage}: busy {busy}");
            assert!(elapsed <= report.elapsed, "{stage}: elapsed {elapsed:?}");
        }
        for stage in [Stage::Align, Stage::Sort] {
            let busy = report.row(stage).unwrap().busy_fraction;
            assert!(busy > 0.0, "{stage} must run on the executor at {threads} threads");
        }
    }
}

#[test]
fn two_pipelines_share_one_runtime() {
    let fx = Arc::new(Fixture::new(3003, 400));
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();

    let mut handles = Vec::new();
    for k in 0..2 {
        let rt = rt.clone();
        let fx = fx.clone();
        handles.push(std::thread::spawn(move || {
            let mut report =
                Plan::full().run(&rt, fx.fastq_request(&format!("twin{k}"), 100)).unwrap();
            let sam = report.sam.take().expect("full plan exports SAM");
            (report, sam)
        }));
    }
    let outputs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (report, sam) in &outputs {
        assert_eq!(report.stage(Stage::ExportSam).unwrap().records(), 400);
        let body = sam.split(|&b| b == b'\n').filter(|l| !l.is_empty() && l[0] != b'@').count();
        assert_eq!(body, 400);
    }
    // Same input, same aligner: both concurrent pipelines agree.
    assert_eq!(outputs[0].1, outputs[1].1);
}

#[test]
fn fused_pipeline_rejects_invalid_config() {
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let bad = PersonaConfig { compute_threads: 0, ..PersonaConfig::small() };
    let err = PersonaRuntime::new(store, bad).err().expect("zero compute_threads must fail");
    assert!(format!("{err}").contains("compute_threads"), "{err}");
}

#[test]
fn fused_pipeline_surfaces_import_errors() {
    let fx = Fixture::new(3005, 10);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let bad_fastq = b"@r1\nACGT\nBROKEN\nIIII\n".to_vec();
    let err = Plan::full().run(
        &rt,
        PlanRequest { source: PlanSource::fastq_bytes(bad_fastq), ..fx.fastq_request("bad", 10) },
    );
    assert!(err.is_err(), "malformed FASTQ must fail the fused pipeline");
}
