//! Trace determinism: the same plan, run twice on a `ManualClock`,
//! must dump byte-identical Chrome trace JSON — the canonical sort in
//! `to_chrome_json` erases executor thread interleaving, and a fixed
//! clock erases wall-time. This is the contract that makes traced
//! pipeline tests reproducible.

use std::sync::Arc;

use persona::config::PersonaConfig;
use persona::plan::{Plan, PlanRequest, PlanSource};
use persona::runtime::{JobContext, PersonaRuntime};
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_align::snap::{SnapAligner, SnapParams};
use persona_align::Aligner;
use persona_dataflow::Priority;
use persona_index::SeedIndex;
use persona_seq::simulate::{ReadSimulator, SimParams};
use persona_seq::Genome;
use persona_telemetry::clock::ManualClock;
use persona_telemetry::JobTrace;

fn traced_run(plan: &Plan) -> String {
    let genome = Arc::new(Genome::random_with_seed(411, &[("chr1", 20_000)]));
    let mut sim = ReadSimulator::new(
        &genome,
        SimParams { error_rate: 0.004, seed: 23, ..SimParams::default() },
    );
    let reads = sim.take_single(60);
    let index = Arc::new(SeedIndex::build(&genome, 16));
    let aligner: Arc<dyn Aligner> =
        Arc::new(SnapAligner::new(genome.clone(), index, SnapParams::default()));
    let reference: Vec<(String, u64)> =
        genome.contigs().iter().map(|c| (c.name.clone(), c.seq.len() as u64)).collect();

    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::default()).expect("runtime");
    // A manual clock that is never advanced: every event timestamps at
    // zero, so the canonical (ts, name, chunk, phase) sort is the only
    // order the dump can have.
    let trace = JobTrace::new(ManualClock::new());
    let rt = rt.for_job(JobContext::new(Priority::Normal).with_trace(trace.clone()));
    plan.run(
        &rt,
        PlanRequest {
            name: "traced".into(),
            source: PlanSource::fastq_bytes(persona_formats::fastq::to_bytes(&reads)),
            chunk_size: 20,
            aligner: Some(aligner),
            reference,
        },
    )
    .expect("traced plan run");
    trace.to_chrome_json(1)
}

#[test]
fn same_plan_twice_dumps_identical_trace_json() {
    let plan = Plan::full();
    let a = traced_run(&plan);
    let b = traced_run(&plan);
    assert!(!a.is_empty());
    assert!(a.contains("\"traceEvents\""), "{a}");
    // Every stage of the full plan shows up as a span row.
    for stage in ["import", "align", "sort", "dupmark"] {
        assert!(a.contains(&format!("\"name\":\"{stage}\"")), "missing {stage} span: {a}");
    }
    // Chunk rows carry their chunk index as args.
    assert!(a.contains("\"args\":{\"chunk\":0}"), "{a}");
    assert_eq!(a, b, "manual-clock trace dumps must be byte-identical");
}
