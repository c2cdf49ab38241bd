//! Cluster what-if exploration with the discrete-event simulator:
//! sweep node counts and storage configurations (Fig. 7 style).
//!
//! Run: `cargo run -p persona-examples --release --example cluster_sim`

use persona_cluster::des::{simulate, SimParams};
use persona_cluster::tco::{AlignmentEconomics, ClusterCosts};

fn main() {
    println!("Persona cluster simulator — paper parameters (§5.1/§5.2)\n");
    println!(
        "{:<8}{:>12}{:>16}{:>14}{:>14}",
        "nodes", "Gbases/s", "genome time(s)", "CPU util", "write util"
    );
    for nodes in [1usize, 4, 8, 16, 32, 48, 60, 80, 100] {
        let r = simulate(SimParams::paper(nodes));
        println!(
            "{:<8}{:>12.3}{:>16.1}{:>13.0}%{:>13.0}%",
            nodes,
            r.gbases_per_sec,
            r.completion_s,
            r.compute_utilization * 100.0,
            r.storage_write_utilization * 100.0
        );
    }

    println!("\nWhat if the Ceph cluster doubled its write bandwidth?");
    println!("{:<8}{:>12}{:>16}", "nodes", "Gbases/s", "genome time(s)");
    for nodes in [60usize, 80, 100] {
        let mut p = SimParams::paper(nodes);
        p.storage_write_bw *= 2.0;
        let r = simulate(p);
        println!("{:<8}{:>12.3}{:>16.1}", nodes, r.gbases_per_sec, r.completion_s);
    }

    println!("\nWhat if chunks were 10x smaller (1.01 Mbases each)?");
    for nodes in [32usize, 100] {
        let mut p = SimParams::paper(nodes);
        p.chunk_reads /= 10;
        p.total_chunks *= 10;
        p.chunk_in_bytes /= 10.0;
        p.chunk_out_bytes /= 10.0;
        let r = simulate(p);
        println!("  {nodes} nodes: {:.3} Gbases/s ({:.1}s)", r.gbases_per_sec, r.completion_s);
    }

    // Tie throughput to cost (Table 3).
    let r32 = simulate(SimParams::paper(32));
    let costs = ClusterCosts::paper();
    let per_day = 86_400.0 / r32.completion_s;
    let econ = AlignmentEconomics { alignments_per_day: per_day, years: 5.0 };
    println!(
        "\nAt 32 nodes: {:.0} genomes/day -> {:.1}¢ per alignment at the Table 3 TCO",
        per_day,
        econ.cost_per_alignment(costs.tco_5yr()) * 100.0
    );
}
