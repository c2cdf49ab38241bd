//! §5.6 — duplicate marking: Persona (results column only) vs the
//! Samblaster-style SAM-stream baseline, both over the same
//! coordinate-sorted dataset (a plan marks duplicates only once sorted).
//!
//! Run: `cargo run -p persona-bench --release --bin dupmark`

use persona::pipeline::rate_per_sec;
use persona::plan::{Stage, StageRow, StageRun};
use persona_baseline::samblaster::mark_duplicates_sam;
use persona_bench::{mem_runtime, print_header, scale, World};

fn main() {
    let sc = scale();
    let world = World::build((400_000.0 * sc) as usize, (60_000.0 * sc) as usize, 29);
    let rt = mem_runtime();
    let aligned = world.write_aligned_agd(&rt, "dm", 5_000);
    let sorted = world.run_stage(&rt, Stage::Sort, &aligned, None).sorted.expect("sorted dataset");

    // SAM stream of the sorted dataset for the baseline (excluded from
    // its timing).
    let sam = world.run_stage(&rt, Stage::ExportSam, &sorted, None).sam.expect("SAM");
    let refs = persona_formats::sam::RefMap::new(&sorted.reference);

    let baseline = mark_duplicates_sam(&sam, &refs).unwrap().1;
    let marked = world.run_stage(&rt, Stage::Dupmark, &sorted, None);
    let Some(StageRow { run: StageRun::Dupmark(persona_rep), elapsed, .. }) =
        marked.row(Stage::Dupmark)
    else {
        unreachable!("a dupmark plan reports its dupmark stage")
    };
    let persona_rate = rate_per_sec(persona_rep.reads as f64, *elapsed);

    print_header(
        "§5.6: Duplicate marking throughput",
        &["tool", "reads", "dups", "reads/s", "paper reads/s"],
    );
    println!(
        "Samblaster (SAM stream)\t{}\t{}\t{:.0}\t364,963",
        baseline.reads,
        baseline.duplicates,
        baseline.reads_per_sec()
    );
    println!(
        "Persona (results column)\t{}\t{}\t{:.0}\t1,360,000",
        persona_rep.reads, persona_rep.duplicates, persona_rate
    );
    println!(
        "\nspeedup: {:.2}x (paper: ~3.7x); duplicate counts agree: {}",
        persona_rate / baseline.reads_per_sec(),
        baseline.duplicates == persona_rep.duplicates
    );
}
