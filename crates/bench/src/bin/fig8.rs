//! Fig. 8 — workload analysis: phase-resolved profiles of both aligners
//! (core-bound vs memory-bound) next to SPEC reference anchors.
//!
//! Run: `cargo run -p persona-bench --release --bin fig8`

use persona_align::profile::PhaseProfile;
use persona_align::Aligner;
use persona_bench::{print_header, scale, World};
use persona_cluster::fig8::{spec_reference_rows, Fig8Row};

fn main() {
    let sc = scale();
    let world = World::build((300_000.0 * sc) as usize, (8_000.0 * sc) as usize, 37);
    let snap = world.snap_aligner();
    let bwa_world = World::build((120_000.0 * sc) as usize, (3_000.0 * sc) as usize, 38);
    let bwa = bwa_world.bwa_aligner();

    let profile_of = |world: &World, aligner: &std::sync::Arc<dyn Aligner>| -> PhaseProfile {
        let mut prof = PhaseProfile::default();
        for r in &world.reads {
            std::hint::black_box(aligner.align_read_profiled(&r.bases, &r.quals, &mut prof));
        }
        prof
    };

    let snap_prof = profile_of(&world, &snap);
    let bwa_prof = profile_of(&bwa_world, &bwa);

    print_header(
        "Fig. 8: workload analysis (backend-bound split)",
        &["workload", "backend-bound", "core-bound", "memory-bound"],
    );
    let mut rows = vec![
        Fig8Row::from_profile("Persona SNAP", &snap_prof),
        Fig8Row::from_profile("Persona BWA-MEM", &bwa_prof),
    ];
    rows.extend(spec_reference_rows());
    for row in &rows {
        println!(
            "{}\t{:.0}%\t{:.0}%\t{:.0}%",
            row.name,
            row.backend_bound * 100.0,
            row.core_bound * 100.0,
            row.memory_bound * 100.0
        );
    }

    // Microseconds and per-read nanoseconds, so the split still reads
    // at CI's small scale, where a phase takes well under a millisecond.
    let split = |prof: &PhaseProfile, second: &str| {
        let per_read = |d: std::time::Duration| d.as_nanos() as f64 / prof.reads.max(1) as f64;
        format!(
            "seed {} us / {second} {} us ({:.0} / {:.0} ns per read, {} reads)",
            prof.seed_time.as_micros(),
            prof.verify_time.as_micros(),
            per_read(prof.seed_time),
            per_read(prof.verify_time),
            prof.reads
        )
    };
    println!("\nphase detail:");
    println!(
        "  SNAP: {}, {} index probes, {} candidates",
        split(&snap_prof, "verify"),
        snap_prof.index_ops,
        snap_prof.candidates
    );
    println!(
        "  BWA:  {}, {} FM-index ops, {} chains",
        split(&bwa_prof, "extend"),
        bwa_prof.index_ops,
        bwa_prof.candidates
    );
    println!("\npaper finding: both backend-bound; SNAP core-bound (edit-distance ALU chains),");
    println!("BWA memory-bound (FM-index occ walks: cache and DTLB misses).");
    println!("\nNOTE (scale artifact): both phase times are measured (timers around seeding +");
    println!("locate + chaining and around extension), but at this synthetic scale the FM-index");
    println!("(0.64 bytes/base) sits in L2, where the paper's multi-GB hg19 index misses to");
    println!("DRAM on every occ step: the seed share printed here is a lower bound on the");
    println!("memory-bound share at genome scale (docs/PERFORMANCE.md, section 1).");
}
