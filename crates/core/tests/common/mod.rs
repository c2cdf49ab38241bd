//! The fixture the plan-driver suites share: a small genome, reads with
//! duplicates (so dupmark rewrites chunks), and every request as
//! dataset `g` in chunks of [`CHUNK`].

use std::sync::Arc;

use persona::config::PersonaConfig;
use persona::plan::{DataState, Plan, PlanRequest, PlanSource, Stage};
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::ChunkStore;
use persona_agd::manifest::Manifest;
use persona_align::snap::{SnapAligner, SnapParams};
use persona_align::Aligner;
use persona_index::SeedIndex;
use persona_seq::simulate::{ReadSimulator, SimParams};
use persona_seq::Genome;

pub const CHUNK: usize = 20;

pub struct World {
    pub fastq: Vec<u8>,
    pub aligner: Arc<dyn Aligner>,
    pub reference: Vec<(String, u64)>,
}

impl World {
    pub fn new() -> World {
        let genome = Arc::new(Genome::random_with_seed(733, &[("chr1", 20_000)]));
        let mut sim = ReadSimulator::new(
            &genome,
            SimParams { error_rate: 0.004, seed: 37, ..SimParams::default() },
        );
        let mut reads = sim.take_single(100);
        let dupes: Vec<_> = reads.iter().take(40).cloned().collect();
        reads.extend(dupes);
        let index = Arc::new(SeedIndex::build(&genome, 16));
        let aligner: Arc<dyn Aligner> =
            Arc::new(SnapAligner::new(genome.clone(), index, SnapParams::default()));
        let reference =
            genome.contigs().iter().map(|c| (c.name.clone(), c.seq.len() as u64)).collect();
        World { fastq: persona_formats::fastq::to_bytes(&reads), aligner, reference }
    }

    pub fn request(&self, source: PlanSource) -> PlanRequest {
        PlanRequest {
            name: "g".into(),
            source,
            chunk_size: CHUNK,
            aligner: Some(self.aligner.clone()),
            reference: self.reference.clone(),
        }
    }

    /// Lands a dataset in `state` in `store`, on a runtime of its own so
    /// the plan under test starts from a clean metrics registry.
    pub fn land(&self, store: &Arc<dyn ChunkStore>, state: DataState) -> Manifest {
        let through = Stage::ALL.iter().position(|s| s.output() == state).unwrap();
        let plan =
            Stage::ALL[..=through].iter().fold(Plan::builder(DataState::Fastq), |b, &s| b.then(s));
        let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
        let source = PlanSource::fastq_bytes(self.fastq.clone());
        let report = plan.build().unwrap().run(&rt, self.request(source)).unwrap();
        report.final_manifest().unwrap().clone()
    }
}
