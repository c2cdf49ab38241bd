//! Fig. 7 — cluster scaling: aligned gigabases/second vs node count,
//! with the Ceph saturation knee near 60 nodes.
//!
//! "Actual" points (≤32 nodes) and the "Simulation" line (to 100) both
//! come from the DES, which is first validated against a real single-
//! machine run (the same methodology the paper uses past its 32
//! physical servers).
//!
//! Run: `cargo run -p persona-bench --release --bin fig7`

use persona::plan::{Stage, StageRow, StageRun};
use persona_bench::{mem_runtime, print_header, scale, World};
use persona_cluster::des::{simulate, SimParams};

fn main() {
    let sc = scale();

    // Calibration: one real single-machine Persona run gives the
    // honest per-node alignment rate for this hardware.
    let world = World::build((400_000.0 * sc) as usize, (20_000.0 * sc) as usize, 19);
    let rt = mem_runtime();
    let manifest = world.write_agd(rt.store().as_ref(), "cal", 2_000);
    let aligned = world.run_stage(&rt, Stage::Align, &manifest, Some(&world.snap_aligner()));
    let Some(StageRow { run: StageRun::Align(report), elapsed, .. }) = aligned.row(Stage::Align)
    else {
        unreachable!("an align plan reports its align stage")
    };
    let measured_rate = report.bases as f64 / elapsed.as_secs_f64();
    println!(
        "calibration: this machine aligns {:.1} Mbases/s through the full pipeline",
        measured_rate / 1e6
    );
    println!("paper single node: 45.45 Mbases/s (validated by DES single-node test)\n");

    // DES validation at 1 node with the measured rate.
    let mut p1 = SimParams::paper(1);
    p1.node_rate_bases = measured_rate;
    p1.total_chunks = (manifest.records.len() as u64).max(1);
    p1.chunk_reads = manifest.records.first().map(|e| e.num_records as u64).unwrap_or(1);
    p1.chunk_in_bytes = 1.0e6; // Scaled dataset chunk size.
    p1.chunk_out_bytes = 0.3e6;
    p1.startup_s = 0.0;
    let sim1 = simulate(p1);
    println!(
        "DES validation: simulated single node {:.2}s vs measured {:.2}s ({:+.1}%)",
        sim1.completion_s,
        elapsed.as_secs_f64(),
        (sim1.completion_s / elapsed.as_secs_f64() - 1.0) * 100.0
    );

    // Paper-parameter sweep.
    print_header(
        "Fig. 7: Gigabases aligned / second",
        &["nodes", "Gbases/s", "genome time (s)", "series"],
    );
    for nodes in [1usize, 2, 4, 8, 12, 16, 20, 24, 28, 32] {
        let r = simulate(SimParams::paper(nodes));
        println!("{nodes}\t{:.3}\t{:.1}\tActual", r.gbases_per_sec, r.completion_s);
    }
    for nodes in [40usize, 50, 60, 70, 80, 90, 100] {
        let r = simulate(SimParams::paper(nodes));
        println!("{nodes}\t{:.3}\t{:.1}\tSimulation", r.gbases_per_sec, r.completion_s);
    }
    let r32 = simulate(SimParams::paper(32));
    println!(
        "\npaper @32 nodes: 1.353 Gbases/s, 16.7 s | model @32: {:.3} Gbases/s, {:.1} s",
        r32.gbases_per_sec, r32.completion_s
    );
    println!("paper: storage sustains ~60 nodes; beyond that, result-write bandwidth limits.");
}
