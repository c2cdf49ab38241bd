//! Columnar sort + duplicate marking vs the row-oriented baselines on
//! the same data (Table 2 / §5.6 in miniature).
//!
//! Run: `cargo run -p persona-examples --release --example sort_dedup`

use std::sync::Arc;
use std::time::Instant;

use persona::config::PersonaConfig;
use persona::pipeline::rate_per_sec;
use persona::plan::{Plan, PlanReport, PlanRequest, PlanSource, Stage, StageRow, StageRun};
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::manifest::Manifest;
use persona_baseline::samblaster::mark_duplicates_sam;
use persona_baseline::sort::{picard_sort, samtools_sort};
use persona_examples::DemoWorld;

fn main() {
    let world = DemoWorld::new(6_000);
    let config = PersonaConfig::default();
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store.clone(), config).expect("runtime");
    // Every step is a one-stage plan over a landed dataset, all on one
    // runtime.
    let run = |stage: Stage, manifest: &Manifest| -> PlanReport {
        let plan = Plan::builder(stage.input_hint()).then(stage).build().expect("plan");
        let request = PlanRequest {
            name: manifest.name.clone(),
            source: PlanSource::Dataset(manifest.clone()),
            chunk_size: 1_000,
            aligner: Some(world.aligner.clone()),
            reference: world.reference.clone(),
        };
        plan.run(&rt, request).unwrap_or_else(|e| panic!("{stage}: {e}"))
    };
    let written = world.write_dataset(store.as_ref(), "sd", 1_000);
    let manifest = run(Stage::Align, &written).manifest.expect("aligned dataset");

    // Row-oriented copies for the baselines.
    let bam = run(Stage::ExportBam, &manifest).bam.expect("bam");
    let sam = run(Stage::ExportSam, &manifest).sam.expect("sam");
    let refs = persona_formats::sam::RefMap::new(&manifest.reference);

    println!("--- sorting {} records ---", manifest.total_records);
    let t = Instant::now();
    let sorted = run(Stage::Sort, &manifest).sorted.expect("sorted dataset");
    let persona_t = t.elapsed();
    println!("Persona columnar sort: {persona_t:?}");

    let t = Instant::now();
    samtools_sort(&bam, config.compute_threads).expect("samtools");
    println!(
        "samtools-like BAM sort: {:?} ({:.2}x)",
        t.elapsed(),
        t.elapsed().as_secs_f64() / persona_t.as_secs_f64()
    );

    let t = Instant::now();
    picard_sort(&bam).expect("picard");
    println!(
        "Picard-like BAM sort:   {:?} ({:.2}x)",
        t.elapsed(),
        t.elapsed().as_secs_f64() / persona_t.as_secs_f64()
    );

    println!("\n--- duplicate marking ---");
    let t = Instant::now();
    let marked = run(Stage::Dupmark, &sorted);
    let Some(StageRow { run: StageRun::Dupmark(rep), elapsed, .. }) = marked.row(Stage::Dupmark)
    else {
        unreachable!("a dupmark plan reports its dupmark stage")
    };
    println!(
        "Persona (results column): {:?} -> {} dups at {:.0} reads/s",
        t.elapsed(),
        rep.duplicates,
        rate_per_sec(rep.reads as f64, *elapsed)
    );
    let t = Instant::now();
    let (_, base_rep) = mark_duplicates_sam(&sam, &refs).expect("samblaster");
    println!(
        "Samblaster-like (SAM):    {:?} -> {} dups at {:.0} reads/s",
        t.elapsed(),
        base_rep.duplicates,
        base_rep.reads_per_sec()
    );
}
