//! Fig. 8 — workload analysis: the measured seed and verify/extend
//! split of both aligners. The paper's top-down backend-bound shares
//! need hardware PMUs and are not reproduced.
//!
//! Run: `cargo run -p persona-bench --release --bin fig8`

use persona_align::profile::PhaseProfile;
use persona_align::Aligner;
use persona_bench::{scale, World};

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
    println!("\nFig. 8: phase detail (measured)");
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
    println!("\npaper finding (VTune top-down, not reproduced): SNAP core-bound (edit-distance");
    println!("ALU chains), BWA memory-bound (FM-index occ walks: cache and DTLB misses).");
    println!("\nNOTE (scale artifact): both phase times are measured (timers around seeding +");
    println!("locate + chaining and around extension), but at this synthetic scale the FM-index");
    println!("(0.64 bytes/base, plus 0.25 for the 2-bit text the seeding walk finishes unique");
    println!("matches on) sits in L2, where the paper's multi-GB hg19 index misses to");
    println!("DRAM on every occ step: the seed share printed here is a lower bound on the");
    println!("memory-bound share at genome scale (docs/PERFORMANCE.md, section 1).");
}
