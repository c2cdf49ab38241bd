//! `manifest.queue_occupancy` counts chunks queued but not yet
//! dispatched. A stage that fails leaves chunks in its queue; once the
//! queue's last handle drops they must come off the gauge, or the one
//! registry a long-running service shares climbs with every failed job.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use common::World;
use persona::config::PersonaConfig;
use persona::plan::{DataState, Plan, PlanRequest, PlanSource, Stage};
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::results::AlignmentResult;
use persona_align::Aligner;

/// An aligner that panics on its 11th read, early in the first chunk.
struct BoomAligner {
    inner: Arc<dyn Aligner>,
    left: AtomicUsize,
}

impl Aligner for BoomAligner {
    fn align_read(&self, bases: &[u8], quals: &[u8]) -> AlignmentResult {
        if self.left.fetch_sub(1, Ordering::SeqCst) == 0 {
            panic!("aligner boom");
        }
        self.inner.align_read(bases, quals)
    }

    fn name(&self) -> &'static str {
        "snap"
    }
}

/// Runs `stages` from `input` with the failing aligner and returns the
/// occupancy gauge the run left behind in its runtime's registry.
fn occupancy_after_failure(w: &World, input: DataState, stages: &[Stage]) -> Option<i64> {
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let source = match input {
        DataState::Fastq => PlanSource::fastq_bytes(w.fastq.clone()),
        state => PlanSource::Dataset(w.land(&store, state)),
    };
    let plan = stages.iter().fold(Plan::builder(input), |b, &s| b.then(s)).build().unwrap();
    assert_eq!(plan.fusion_groups(), vec![0..stages.len()], "{plan:?} is one fused group");
    let aligner = Arc::new(BoomAligner { inner: w.aligner.clone(), left: AtomicUsize::new(10) });
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let req = PlanRequest { aligner: Some(aligner), ..w.request(source) };
    let err = plan.run(&rt, req).expect_err("the aligner panics");
    assert!(err.to_string().contains("aligner boom"), "{stages:?}: {err}");
    rt.telemetry().snapshot().gauge("manifest.queue_occupancy")
}

#[test]
fn a_failed_stage_leaves_no_chunks_on_the_occupancy_gauge() {
    let w = World::new();
    for (input, stages) in [
        (DataState::EncodedAgd, &[Stage::Align][..]),
        (DataState::Fastq, &[Stage::Import, Stage::Align][..]),
    ] {
        let occupancy = occupancy_after_failure(&w, input, stages);
        assert!(matches!(occupancy, None | Some(0)), "{stages:?}: gauge reads {occupancy:?}");
    }
}
