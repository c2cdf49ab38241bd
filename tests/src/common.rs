//! Shared fixtures for cross-crate integration tests.

use std::sync::Arc;
use std::time::{Duration, Instant};

use persona::plan::{Plan, PlanReport, PlanRequest, PlanSource, Stage};
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::ChunkStore;
use persona_agd::manifest::Manifest;
use persona_agd::results::AlignmentResult;
use persona_align::snap::{SnapAligner, SnapParams};
use persona_align::Aligner;
use persona_index::SeedIndex;
use persona_seq::simulate::{ReadSimulator, SimParams};
use persona_seq::{Genome, Read};

/// A deterministic end-to-end fixture.
pub struct Fixture {
    /// Reference genome.
    pub genome: Arc<Genome>,
    /// Simulated reads.
    pub reads: Vec<Read>,
    /// SNAP-style aligner over the genome.
    pub aligner: Arc<dyn Aligner>,
    /// (name, length) per contig.
    pub reference: Vec<(String, u64)>,
}

impl Fixture {
    /// Builds a fixture with `n_reads` reads over a 100 kb genome.
    pub fn new(seed: u64, n_reads: usize) -> Fixture {
        let genome =
            Arc::new(Genome::random_with_seed(seed, &[("chr1", 80_000), ("chr2", 20_000)]));
        let mut sim = ReadSimulator::new(
            &genome,
            SimParams { error_rate: 0.005, seed: seed ^ 99, ..SimParams::default() },
        );
        let reads = sim.take_single(n_reads);
        let index = Arc::new(SeedIndex::build(&genome, 16));
        let aligner: Arc<dyn Aligner> =
            Arc::new(SnapAligner::new(genome.clone(), index, SnapParams::default()));
        let reference =
            genome.contigs().iter().map(|c| (c.name.clone(), c.seq.len() as u64)).collect();
        Fixture { genome, reads, aligner, reference }
    }

    /// A plan request over the fixture's reads as FASTQ, with its
    /// aligner and reference.
    pub fn fastq_request(&self, name: &str, chunk_size: usize) -> PlanRequest {
        PlanRequest {
            name: name.to_string(),
            source: PlanSource::fastq_bytes(persona_formats::fastq::to_bytes(&self.reads)),
            chunk_size,
            aligner: Some(self.aligner.clone()),
            reference: self.reference.clone(),
        }
    }

    /// Runs `stage` alone over the landed dataset `manifest` through
    /// `Plan::run`: the one-stage plan from the state the stage
    /// typically takes, named after the dataset (so a sort writes
    /// `{name}.sorted`), with the fixture's aligner and reference. One
    /// such run per stage is the staged oracle a fused plan is held to.
    pub fn run_stage(
        &self,
        rt: &PersonaRuntime,
        stage: Stage,
        manifest: &Manifest,
    ) -> persona::Result<PlanReport> {
        let req = PlanRequest {
            name: manifest.name.clone(),
            source: PlanSource::Dataset(manifest.clone()),
            chunk_size: 0,
            aligner: Some(self.aligner.clone()),
            reference: self.reference.clone(),
        };
        Plan::builder(stage.input_hint()).then(stage).build()?.run(rt, req)
    }

    /// Writes the reads to a store as an AGD dataset.
    pub fn write_dataset(&self, store: &dyn ChunkStore, name: &str, chunk_size: usize) -> Manifest {
        let mut w = persona_agd::builder::DatasetWriter::new(name, chunk_size).unwrap();
        for r in &self.reads {
            w.append(store, &r.meta, &r.bases, &r.quals).unwrap();
        }
        w.finish(store).unwrap()
    }
}

/// An aligner that sleeps per read — makes job runtime controllable so
/// scheduling/cancellation behavior is observable.
pub struct SlowAligner {
    /// The aligner that does the work.
    pub inner: Arc<dyn Aligner>,
    /// Sleep per read.
    pub delay: Duration,
}

impl Aligner for SlowAligner {
    fn align_read(&self, bases: &[u8], quals: &[u8]) -> AlignmentResult {
        std::thread::sleep(self.delay);
        self.inner.align_read(bases, quals)
    }

    fn name(&self) -> &'static str {
        "slow"
    }
}

/// A gate the test opens once it has issued a cancel: alignment blocks
/// here, so the proof that cancellation cut the job short is the
/// `Cancelled` outcome itself — most of the job's batches provably
/// never ran — with no wall-clock assertion to flake on a loaded box.
pub struct Gate {
    open: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

impl Gate {
    /// A closed gate.
    pub fn new() -> Arc<Gate> {
        Arc::new(Gate { open: std::sync::Mutex::new(false), cv: std::sync::Condvar::new() })
    }

    /// Opens the gate for good.
    pub fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// Blocks until the gate opens.
    pub fn wait_open(&self) {
        let guard = self.open.lock().unwrap();
        // Bounded so a broken test fails instead of hanging the suite.
        let (_guard, timeout) =
            self.cv.wait_timeout_while(guard, Duration::from_secs(20), |open| !*open).unwrap();
        assert!(!timeout.timed_out(), "gate never opened");
    }
}

/// An aligner whose `align_read` blocks until the test opens the gate.
pub struct GateAligner {
    /// The aligner that does the work.
    pub inner: Arc<dyn Aligner>,
    /// The gate every read waits on.
    pub gate: Arc<Gate>,
}

impl Aligner for GateAligner {
    fn align_read(&self, bases: &[u8], quals: &[u8]) -> AlignmentResult {
        self.gate.wait_open();
        self.inner.align_read(bases, quals)
    }

    fn name(&self) -> &'static str {
        "gated"
    }
}

/// Polls `cond` until it holds, failing the test after 20 s.
pub fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}
