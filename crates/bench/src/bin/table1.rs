//! Table 1 — single-server dataset alignment time: standalone SNAP
//! (gzipped FASTQ → SAM) vs Persona (AGD), under a single disk and
//! RAID0; plus data read/written. The paper's Ceph "Network" row needs
//! a storage cluster and is not reproduced.
//!
//! Run: `cargo run -p persona-bench --release --bin table1`

use std::sync::Arc;
use std::time::Instant;

use persona::config::PersonaConfig;
use persona::plan::Stage;
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_baseline::standalone::{run_standalone, write_gzipped_fastq};
use persona_bench::{print_header, scale, World};
use persona_store::local::{DiskConfig, WritebackDisk};

fn main() {
    let sc = scale();
    // Scaled workload: the paper's dataset is 223 M reads / 18 GB; ours
    // is sized to finish in seconds while keeping the I/O:compute ratio
    // in the single-disk regime comparable.
    let world = World::build((600_000.0 * sc) as usize, (30_000.0 * sc) as usize, 11);
    let aligner = world.snap_aligner();

    // Storage bandwidth scale chosen so the single-disk config is
    // I/O-bound for the row-oriented baseline, as in the paper.
    let bw_scale = 0.004 * sc;

    print_header(
        "Table 1: Dataset Alignment Time, Single Server",
        &["config", "SNAP (s)", "Persona AGD (s)", "speedup", "paper speedup"],
    );

    let mut agd_read = 0u64;
    let mut agd_written = 0u64;
    let mut snap_read = 0u64;
    let mut snap_written = 0u64;

    for (name, disk, paper_speedup) in [
        ("Disk(Single)", DiskConfig::single_disk(bw_scale), 1.63),
        ("Disk(RAID)", DiskConfig::raid0(bw_scale), 0.99),
    ] {
        // --- Standalone: gz FASTQ in, SAM out, through writeback disk.
        let disk_store = Arc::new(WritebackDisk::new(MemStore::new(), disk, 64 << 20));
        write_gzipped_fastq(disk_store.as_ref(), "in.fastq.gz", &world.reads).unwrap();
        let dyn_store: Arc<dyn ChunkStore> = disk_store.clone();
        let t0 = Instant::now();
        let rep = run_standalone(
            &dyn_store,
            "in.fastq.gz",
            "out.sam",
            &world.reference,
            &aligner,
            PersonaConfig::default().compute_threads,
        )
        .unwrap();
        disk_store.sync();
        let snap_time = t0.elapsed().as_secs_f64();
        snap_read = rep.input_bytes;
        snap_written = rep.output_bytes;

        // --- Persona: AGD in, results column out, same disk model.
        let disk_store = Arc::new(WritebackDisk::new(MemStore::new(), disk, 64 << 20));
        world.write_agd(disk_store.as_ref(), "ds", 2_000);
        let dyn_store: Arc<dyn ChunkStore> = disk_store.clone();
        let manifest = persona_agd::dataset::Dataset::open(disk_store.as_ref(), "ds")
            .unwrap()
            .manifest()
            .clone();
        let rt = PersonaRuntime::new(dyn_store, PersonaConfig::default()).unwrap();
        let stats_before = disk_store.stats().snapshot();
        let t0 = Instant::now();
        world.run_stage(&rt, Stage::Align, &manifest, Some(&aligner));
        disk_store.sync();
        let persona_time = t0.elapsed().as_secs_f64();
        let stats = disk_store.stats().snapshot();
        agd_read = stats.bytes_read - stats_before.bytes_read;
        agd_written = stats.bytes_written - stats_before.bytes_written;

        println!(
            "{name}\t{snap_time:.2}\t{persona_time:.2}\t{:.2}x\t{paper_speedup}x",
            snap_time / persona_time
        );
    }

    print_header(
        "Table 1 (cont.): I/O volume",
        &["metric", "SNAP", "Persona AGD", "ratio", "paper ratio"],
    );
    println!(
        "Data Read\t{:.1} MB\t{:.1} MB\t{:.2}x\t1.2x",
        snap_read as f64 / 1e6,
        agd_read as f64 / 1e6,
        snap_read as f64 / agd_read.max(1) as f64
    );
    println!(
        "Data Written\t{:.1} MB\t{:.1} MB\t{:.2}x\t16.75x",
        snap_written as f64 / 1e6,
        agd_written as f64 / 1e6,
        snap_written as f64 / agd_written.max(1) as f64
    );

    // §5.2 sanity: chunk sizing math at the paper's parameters.
    println!("\n[§5.2 sanity] paper chunk = 100,000 reads of 101 bp:");
    println!(
        "  bases column/chunk ≈ {:.2} MB compacted (paper: ~3.5 MB incl. index+gzip)",
        (persona_agd::compaction::packed_size(101) * 100_000) as f64 / 1e6
    );
    println!("  223,000,000 reads / 100,000 = {} chunks (paper: 2231)", 223_000_000u64 / 100_000);
}
