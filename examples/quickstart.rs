//! Quickstart: build a dataset, align it with Persona, inspect results.
//!
//! Run: `cargo run -p persona-examples --release --example quickstart`

use persona::config::PersonaConfig;
use persona::pipeline::rate_per_sec;
use persona::plan::{DataState, Plan, PlanRequest, PlanSource, Stage, StageRow, StageRun};
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::dataset::Dataset;
use persona_examples::DemoWorld;
use persona_seq::read::Origin;
use std::sync::Arc;

fn main() {
    // 1. A synthetic world: reference genome + simulated reads (the
    //    stand-in for a sequencer's FASTQ output).
    let world = DemoWorld::new(2_000);
    println!("genome: {} contigs, {} bases", world.genome.num_contigs(), world.genome.total_len());
    println!("reads:  {} x {} bp", world.reads.len(), world.reads[0].bases.len());

    // 2. Write the reads as an AGD dataset (bases/qual/metadata columns).
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let manifest = world.write_dataset(store.as_ref(), "demo", 500);
    println!("AGD:    {} chunks of ≤500 records", manifest.records.len());

    // 3. Align through the Persona pipeline (readers → parsers →
    //    aligner kernels on a shared executor → writers): a one-stage
    //    plan, run on a runtime that owns the executor.
    let rt = PersonaRuntime::new(store.clone(), PersonaConfig::default()).expect("runtime");
    let plan = Plan::builder(DataState::EncodedAgd).then(Stage::Align).build().expect("plan");
    let request = PlanRequest {
        name: "demo".into(),
        source: PlanSource::Dataset(manifest),
        chunk_size: 500,
        aligner: Some(world.aligner.clone()),
        reference: world.reference.clone(),
    };
    let run = plan.run(&rt, request).expect("alignment");
    let Some(StageRow { run: StageRun::Align(report), elapsed, .. }) = run.row(Stage::Align) else {
        unreachable!("an align plan reports its align stage")
    };
    println!(
        "aligned {} reads ({} Mbases) in {:.2}s -> {:.1} Mbases/s, {:.1}% mapped",
        report.reads,
        report.bases / 1_000_000,
        elapsed.as_secs_f64(),
        rate_per_sec(report.bases as f64 / 1e6, *elapsed),
        100.0 * report.mapped as f64 / report.reads as f64
    );

    // 4. Check accuracy against the planted origins.
    let ds = Dataset::new(run.manifest.clone().expect("the aligned dataset"));
    let mut correct = 0u64;
    for c in 0..ds.num_chunks() {
        let results = ds.read_results_chunk(store.as_ref(), c).expect("results");
        let meta = ds.read_column_chunk(store.as_ref(), c, "metadata").expect("meta");
        for (i, r) in results.iter().enumerate() {
            let origin = Origin::parse(meta.record(i)).expect("origin");
            let expected = world.genome.to_linear(origin.contig as usize, origin.pos) as i64;
            if r.location == expected {
                correct += 1;
            }
        }
    }
    println!(
        "accuracy: {correct}/{} reads at their true position ({:.1}%)",
        report.reads,
        100.0 * correct as f64 / report.reads as f64
    );
}
