//! Integration tests for the fused `align → sort` pipeline: the
//! incremental sort must start merging while alignment is still
//! running (no sort barrier), and fused plans must produce output
//! byte-identical to running the stages separately.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use persona::config::PersonaConfig;
use persona::plan::{DataState, Plan, PlanRequest, PlanSource, Stage};
use persona::runtime::{JobContext, PersonaRuntime};
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::results::AlignmentResult;
use persona_align::snap::{SnapAligner, SnapParams};
use persona_align::Aligner;
use persona_dataflow::Priority;
use persona_index::SeedIndex;
use persona_seq::simulate::{ReadSimulator, SimParams};
use persona_seq::{Genome, Read};
use persona_telemetry::{JobTrace, TracePhase};

/// How long the test waits on an event before it fails.
const DEADLINE: Duration = Duration::from_secs(20);

struct World {
    aligner: Arc<dyn Aligner>,
    reads: Vec<Read>,
    fastq: Vec<u8>,
    reference: Vec<(String, u64)>,
}

fn world(n_reads: usize) -> World {
    let genome = Arc::new(Genome::random_with_seed(7171, &[("chr1", 50_000)]));
    let mut sim = ReadSimulator::new(
        &genome,
        SimParams { error_rate: 0.005, seed: 71, ..SimParams::default() },
    );
    let reads = sim.take_single(n_reads);
    let index = Arc::new(SeedIndex::build(&genome, 16));
    let aligner: Arc<dyn Aligner> =
        Arc::new(SnapAligner::new(genome.clone(), index, SnapParams::default()));
    let reference = genome.contigs().iter().map(|c| (c.name.clone(), c.seq.len() as u64)).collect();
    let fastq = persona_formats::fastq::to_bytes(&reads);
    World { aligner, reads, fastq, reference }
}

fn request(w: &World, name: &str, source: PlanSource, chunk_size: usize) -> PlanRequest {
    PlanRequest {
        name: name.into(),
        source,
        chunk_size,
        aligner: Some(w.aligner.clone()),
        reference: w.reference.clone(),
    }
}

fn runtime() -> Arc<PersonaRuntime> {
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    PersonaRuntime::new(store, PersonaConfig::small()).unwrap()
}

/// Whether `trace` holds the end of a `sort.chunk` span: the sort has
/// loaded a sorted run.
fn sort_loaded_a_run(trace: &JobTrace) -> bool {
    trace.events().iter().any(|e| e.name == "sort.chunk" && e.phase == TracePhase::End)
}

/// The chunk events `trace` holds, for a failure message.
fn observed(trace: &JobTrace) -> String {
    let events = trace.events();
    let chunks = events.iter().filter_map(|e| Some((e.name.as_str(), e.chunk?, e.phase)));
    format!("{:?}", chunks.collect::<Vec<_>>())
}

/// An aligner that holds one read until the job's trace shows the sort
/// loaded a run, or [`DEADLINE`] passes; every other read aligns
/// straight away, so only the held read's task waits and the sort's
/// loads keep a worker.
struct HoldRead {
    inner: Arc<dyn Aligner>,
    /// The bases of the held read.
    held: Vec<u8>,
    trace: Arc<JobTrace>,
    /// What the trace held when the deadline passed, if it did.
    missed: Mutex<Option<String>>,
}

impl Aligner for HoldRead {
    fn align_read(&self, bases: &[u8], quals: &[u8]) -> AlignmentResult {
        if bases == self.held {
            let deadline = Instant::now() + DEADLINE;
            while !sort_loaded_a_run(&self.trace) {
                if Instant::now() >= deadline {
                    *self.missed.lock().unwrap() = Some(observed(&self.trace));
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        self.inner.align_read(bases, quals)
    }

    fn name(&self) -> &'static str {
        "hold-read"
    }
}

/// The tentpole assertion: on a fused `align → sort` run over many
/// chunks, the sort loads a run while align still holds a read of its
/// last chunk — the sort does not start after the last aligned chunk.
/// The aligner holds that read until the trace shows a loaded run, so
/// the test waits on the event itself rather than on a clock.
#[test]
fn incremental_sort_overlaps_alignment() {
    let w = world(300); // chunk_size 25 -> 12 chunks
    let rt = runtime();
    let encoded = Plan::import_only()
        .run(&rt, request(&w, "d", PlanSource::fastq_bytes(w.fastq.clone()), 25))
        .unwrap()
        .manifest
        .unwrap();

    let trace = JobTrace::real();
    let hold = Arc::new(HoldRead {
        inner: w.aligner.clone(),
        held: w.reads.last().unwrap().bases.clone(),
        trace: trace.clone(),
        missed: Mutex::new(None),
    });
    let plan =
        Plan::builder(DataState::EncodedAgd).then(Stage::Align).then(Stage::Sort).build().unwrap();
    let mut req = request(&w, "d", PlanSource::Dataset(encoded), 25);
    req.aligner = Some(hold.clone());
    let job = rt.for_job(JobContext::new(Priority::Normal).with_trace(trace.clone()));
    // On its own thread, so a sort that waits for align's end fails the
    // test instead of hanging it.
    let (done, result) = mpsc::channel();
    let runner = std::thread::spawn(move || done.send(plan.run(&job, req)).unwrap());
    let report = match result.recv_timeout(3 * DEADLINE) {
        Ok(report) => report.unwrap(),
        Err(_) => panic!("the plan did not finish; the trace holds {}", observed(&trace)),
    };
    runner.join().unwrap();
    if let Some(seen) = hold.missed.lock().unwrap().take() {
        panic!("align's last chunk waited {DEADLINE:?} for the sort to load a run: {seen}");
    }

    // And the fused output is a correctly sorted dataset.
    let sorted = report.sorted.expect("plan sorted");
    assert_eq!(sorted.total_records, 300);
    let ds = persona_agd::dataset::Dataset::new(sorted);
    let mut locs = Vec::new();
    for c in 0..ds.num_chunks() {
        for r in ds.read_results_chunk(rt.store().as_ref(), c).unwrap() {
            locs.push(r.location);
        }
    }
    assert_eq!(locs.len(), 300);
    assert!(locs.windows(2).all(|p| p[0] <= p[1]), "fused sort output not sorted");
}

/// The fused `import → align → sort → export` chain produces SAM bytes
/// identical to running every stage separately (only the scheduling
/// differs).
#[test]
fn fused_triple_matches_stage_by_stage_output() {
    let w = world(200);

    // Fused: no_dupmark = import → align → sort → export-sam, where the
    // first three stages run as one overlapped triple.
    let fused_rt = runtime();
    let fused = Plan::no_dupmark()
        .run(&fused_rt, request(&w, "x", PlanSource::fastq_bytes(w.fastq.clone()), 25))
        .unwrap();
    assert_eq!(fused.stages.len(), 4);
    let fused_sam = fused.sam.clone().expect("plan exports SAM");

    // Unfused: one single-stage plan at a time, so no fusion can engage.
    let rt = runtime();
    let encoded = Plan::import_only()
        .run(&rt, request(&w, "x", PlanSource::fastq_bytes(w.fastq.clone()), 25))
        .unwrap()
        .manifest
        .unwrap();
    let aligned = Plan::builder(DataState::EncodedAgd)
        .then(Stage::Align)
        .build()
        .unwrap()
        .run(&rt, request(&w, "x", PlanSource::Dataset(encoded), 25))
        .unwrap()
        .manifest
        .unwrap();
    let sorted = Plan::builder(DataState::Aligned)
        .then(Stage::Sort)
        .build()
        .unwrap()
        .run(&rt, request(&w, "x", PlanSource::Dataset(aligned), 25))
        .unwrap()
        .sorted
        .unwrap();
    let sam = Plan::builder(DataState::Sorted)
        .then(Stage::ExportSam)
        .build()
        .unwrap()
        .run(&rt, request(&w, "x", PlanSource::Dataset(sorted), 25))
        .unwrap()
        .sam
        .unwrap();

    assert_eq!(fused_sam, sam, "fused and stage-by-stage SAM outputs differ");
}
