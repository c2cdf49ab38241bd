//! Composable plans vs the classic fixed stage chain: every preset
//! (and a custom composition) must produce byte-identical output to
//! running its stages separately — scheduling and composition never
//! change results.

use std::sync::Arc;

use persona::config::PersonaConfig;
use persona::plan::{DataState, Plan, PlanRequest, PlanSource, Stage};
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::results::AlignmentResult;
use persona_align::Aligner;
use persona_formats::fastq;
use persona_integration_tests::common::{Fixture, Gate};

const CHUNK: usize = 150;

fn runtime(store: &Arc<dyn ChunkStore>) -> Arc<PersonaRuntime> {
    PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap()
}

fn request(fx: &Fixture, name: &str, source: PlanSource) -> PlanRequest {
    PlanRequest {
        name: name.to_string(),
        source,
        chunk_size: CHUNK,
        aligner: Some(fx.aligner.clone()),
        reference: fx.reference.clone(),
    }
}

#[test]
fn no_dupmark_plan_matches_separate_stages_without_dupmark() {
    let fx = Fixture::new(8002, 500);
    let fastq_bytes = fastq::to_bytes(&fx.reads);

    // Reference: import → align → sort → export, stage by stage.
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = runtime(&store);
    let imported = Plan::import_only()
        .run(&rt, request(&fx, "nd", PlanSource::fastq_bytes(fastq_bytes.clone())))
        .unwrap();
    let aligned = fx.run_stage(&rt, Stage::Align, &imported.manifest.unwrap()).unwrap();
    let sorted = fx.run_stage(&rt, Stage::Sort, &aligned.manifest.unwrap()).unwrap();
    let expect_sam =
        fx.run_stage(&rt, Stage::ExportSam, &sorted.sorted.unwrap()).unwrap().sam.unwrap();

    let plan_store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let report = Plan::no_dupmark()
        .run(&runtime(&plan_store), request(&fx, "nd", PlanSource::fastq_bytes(fastq_bytes)))
        .unwrap();
    assert_eq!(report.sam.as_deref().unwrap(), &expect_sam[..]);
    assert!(report.stage(Stage::Dupmark).is_none());
}

#[test]
fn from_aligned_plan_matches_the_tail_of_a_full_run() {
    let fx = Fixture::new(8003, 500);
    let fastq_bytes = fastq::to_bytes(&fx.reads);

    // Full plan on one store.
    let store_full: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let full = Plan::full()
        .run(
            &runtime(&store_full),
            request(&fx, "fa", PlanSource::fastq_bytes(fastq_bytes.clone())),
        )
        .unwrap();

    // Import+align on another store, then the from-aligned tail over
    // the landed dataset.
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = runtime(&store);
    let head = Plan::import_align()
        .run(&rt, request(&fx, "fa", PlanSource::fastq_bytes(fastq_bytes)))
        .unwrap();
    assert!(head.sam.is_none());
    let aligned = head.manifest.clone().unwrap();
    let tail =
        Plan::from_aligned().run(&rt, request(&fx, "fa", PlanSource::Dataset(aligned))).unwrap();
    assert_eq!(
        tail.sam.as_deref().unwrap(),
        full.sam.as_deref().unwrap(),
        "import-align + from-aligned must equal the one-shot full plan"
    );
    assert!(tail.manifest.is_none(), "dataset-source plans return no new primary manifest");
    assert_eq!(tail.final_manifest().unwrap().name, "fa.sorted");
}

#[test]
fn custom_bam_plan_matches_direct_bam_export() {
    let fx = Fixture::new(8004, 400);
    let fastq_bytes = fastq::to_bytes(&fx.reads);

    // A custom composition no preset covers: align an existing encoded
    // dataset and export BAM without sorting.
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = runtime(&store);
    let landed = Plan::import_only()
        .run(&rt, request(&fx, "cb", PlanSource::fastq_bytes(fastq_bytes)))
        .unwrap();
    let plan = Plan::builder(DataState::EncodedAgd)
        .then(Stage::Align)
        .then(Stage::ExportBam)
        .build()
        .unwrap();
    let report = plan
        .run(&rt, request(&fx, "cb", PlanSource::Dataset(landed.manifest.clone().unwrap())))
        .unwrap();
    let bam = report.bam.as_deref().unwrap();

    // Reference: the one-stage BAM export of the same (now aligned)
    // dataset.
    let aligned = report.manifest.clone().unwrap();
    let expect = fx.run_stage(&rt, Stage::ExportBam, &aligned).unwrap().bam.unwrap();
    assert_eq!(bam, &expect[..], "plan BAM must match direct export");
    let parsed = persona_formats::bam::read_bam(bam).unwrap();
    assert_eq!(parsed.records.len(), 400);
}

/// An aligner that opens `held` at its first read and holds every read
/// until the test opens `release`: a chunk is then provably in align.
struct HoldAligner {
    inner: Arc<dyn Aligner>,
    held: Arc<Gate>,
    release: Arc<Gate>,
}

impl Aligner for HoldAligner {
    fn align_read(&self, bases: &[u8], quals: &[u8]) -> AlignmentResult {
        self.held.open();
        self.release.wait_open();
        self.inner.align_read(bases, quals)
    }

    fn name(&self) -> &'static str {
        "hold"
    }
}

/// A token fired while align holds a chunk unwinds the whole plan as
/// `Cancelled`.
#[test]
fn plan_runs_cancel_mid_flight() {
    use persona::runtime::JobContext;
    use persona_dataflow::Priority;

    let fx = Fixture::new(8005, 400);
    let fastq_bytes = fastq::to_bytes(&fx.reads);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = runtime(&store);
    let job = JobContext::new(Priority::Normal);
    let token = job.cancel_token().clone();
    let jrt = rt.for_job(job);
    let (held, release) = (Gate::new(), Gate::new());
    let mut req = request(&fx, "cx", PlanSource::fastq_bytes(fastq_bytes));
    let hold =
        HoldAligner { inner: fx.aligner.clone(), held: held.clone(), release: release.clone() };
    req.aligner = Some(Arc::new(hold));
    // Cancel once align holds a chunk, then let the chunk go.
    let canceller = std::thread::spawn(move || {
        held.wait_open();
        token.cancel();
        release.open();
    });
    let res = Plan::full().run(&jrt, req);
    canceller.join().unwrap();
    match res {
        Err(e) => assert!(e.is_cancelled(), "cancelled run must surface Cancelled, got {e}"),
        Ok(report) => panic!("a run cancelled mid-flight completed ({} reads)", report.reads()),
    }
}

#[test]
fn reference_import_writes_the_import_stage_bytes() {
    // `fastq_to_agd` and the import stage code every column from the
    // one `persona_agd::columns` table, so over the same reads and chunk
    // size they store the same objects, manifest included.
    let fx = Fixture::new(8006, 400);
    let fastq_bytes = fastq::to_bytes(&fx.reads);
    let reference = MemStore::new();
    persona_formats::convert::fastq_to_agd(
        std::io::Cursor::new(&fastq_bytes),
        &reference,
        "ri",
        CHUNK,
    )
    .unwrap();
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    Plan::import_only()
        .run(&runtime(&store), request(&fx, "ri", PlanSource::fastq_bytes(fastq_bytes)))
        .unwrap();

    let mut names = reference.list().unwrap();
    names.sort();
    let mut stored = store.list().unwrap();
    stored.sort();
    assert_eq!(stored, names);
    assert_eq!(names.len(), 3 * 400usize.div_ceil(CHUNK) + 1);
    for name in &names {
        assert!(store.get(name).unwrap() == reference.get(name).unwrap(), "{name} differs");
    }
}
