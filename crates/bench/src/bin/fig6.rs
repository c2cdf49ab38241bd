//! Fig. 6 — alignment-rate scaling across threads: standalone vs
//! Persona, SNAP and BWA.
//!
//! Measured from 1 thread up to the machine's hardware threads
//! ([`persona_bench::thread_points`]); the paper's 48-thread curve past
//! that is not reproduced.
//!
//! Run: `cargo run -p persona-bench --release --bin fig6`

use std::sync::Arc;
use std::time::Instant;

use persona::config::PersonaConfig;
use persona::pipeline::rate_per_sec;
use persona::plan::{Stage, StageRow, StageRun};
use persona::runtime::PersonaRuntime;
use persona_align::Aligner;
use persona_bench::{mem_store, print_header, scale, thread_points, World};

/// Measures raw aligner throughput with `threads` ad-hoc threads
/// (standalone style: static batch split).
fn measure_standalone(world: &World, aligner: &Arc<dyn Aligner>, threads: usize) -> f64 {
    let t0 = Instant::now();
    let chunk = world.reads.len().div_ceil(threads);
    std::thread::scope(|s| {
        for part in world.reads.chunks(chunk) {
            let aligner = aligner.clone();
            s.spawn(move || {
                for r in part {
                    std::hint::black_box(aligner.align_read(&r.bases, &r.quals));
                }
            });
        }
    });
    world.total_bases() as f64 / 1e6 / t0.elapsed().as_secs_f64()
}

/// Measures Persona pipeline throughput with `threads` executor threads.
fn measure_persona(world: &World, aligner: &Arc<dyn Aligner>, threads: usize) -> f64 {
    let config = PersonaConfig { compute_threads: threads, ..PersonaConfig::default() };
    let rt = PersonaRuntime::new(mem_store(), config).unwrap();
    let manifest = world.write_agd(rt.store().as_ref(), "f6", 2_000);
    let aligned = world.run_stage(&rt, Stage::Align, &manifest, Some(aligner));
    let Some(StageRow { run: StageRun::Align(report), elapsed, .. }) = aligned.row(Stage::Align)
    else {
        unreachable!("an align plan reports its align stage")
    };
    rate_per_sec(report.bases as f64 / 1e6, *elapsed)
}

fn main() {
    let sc = scale();
    let world = World::build((400_000.0 * sc) as usize, (20_000.0 * sc) as usize, 17);
    let snap = world.snap_aligner();
    let bwa_world = World::build((150_000.0 * sc) as usize, (6_000.0 * sc) as usize, 18);
    let bwa = bwa_world.bwa_aligner();

    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8);
    print_header(
        "Fig. 6 (measured): alignment rate vs threads (Mbases/s)",
        &["threads", "SNAP", "Persona SNAP", "BWA", "Persona BWA"],
    );
    for t in thread_points(hw) {
        let s_sa = measure_standalone(&world, &snap, t);
        let s_pe = measure_persona(&world, &snap, t);
        let b_sa = measure_standalone(&bwa_world, &bwa, t);
        let b_pe = measure_persona(&bwa_world, &bwa, t);
        println!("{t}\t{s_sa:.1}\t{s_pe:.1}\t{b_sa:.1}\t{b_pe:.1}");
    }
}
