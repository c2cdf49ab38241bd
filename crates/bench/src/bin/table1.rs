//! Table 1 — single-server dataset alignment time: standalone SNAP
//! (gzipped FASTQ → SAM) vs Persona (AGD → `results` column), both on a
//! local `DirStore` (the store `bench/` runs on); plus data
//! read/written. The paper's single-disk, RAID0 and Ceph rows need
//! those storage systems and are not reproduced
//! (`docs/REPRODUCTION.md`).
//!
//! Run: `cargo run -p persona-bench --release --bin table1`

use std::time::Instant;

use persona::config::PersonaConfig;
use persona::plan::Stage;
use persona::runtime::PersonaRuntime;
use persona_agd::columns::{BASES, QUAL, RESULTS};
use persona_agd::dataset::Dataset;
use persona_bench::{median_of_runs, print_header, scale, TempStore, World, RUNS};

fn main() {
    let sc = scale();
    let world = World::build((600_000.0 * sc) as usize, (30_000.0 * sc) as usize, 11);
    let aligner = world.snap_aligner();
    let threads = PersonaConfig::default().compute_threads;

    // Standalone: gz FASTQ in, SAM out; each run on a fresh store.
    let (mut snap_read, mut snap_written) = (0, 0);
    let snap_time = median_of_runs(|| {
        let rep = world.run_standalone(&aligner, threads);
        (snap_read, snap_written) = (rep.input_bytes, rep.output_bytes);
        rep.elapsed.as_secs_f64()
    });

    // Persona: AGD in (bases and qual read), results column out.
    let (mut agd_read, mut agd_written) = (0, 0);
    let persona_time = median_of_runs(|| {
        let temp = TempStore::new("table1-agd");
        let store = temp.store.as_ref();
        let manifest = world.write_agd(store, "ds", 2_000);
        let rt = PersonaRuntime::new(temp.store.clone(), PersonaConfig::default()).unwrap();
        let t0 = Instant::now();
        let report = world.run_stage(&rt, Stage::Align, &manifest, Some(&aligner));
        let elapsed = t0.elapsed().as_secs_f64();
        let input = Dataset::new(manifest);
        let aligned = Dataset::new(report.manifest.expect("align lands a dataset"));
        agd_read =
            input.column_bytes(store, BASES).unwrap() + input.column_bytes(store, QUAL).unwrap();
        agd_written = aligned.column_bytes(store, RESULTS).unwrap();
        elapsed
    });

    print_header(
        "Table 1: Dataset Alignment Time, Single Server",
        &["store", "SNAP (s)", "Persona AGD (s)", "speedup", "paper speedup"],
    );
    println!(
        "DirStore\t{snap_time:.2}\t{persona_time:.2}\t{:.2}x\t1.63x single disk, 0.99x RAID0",
        snap_time / persona_time
    );
    println!("({threads} compute thread(s); median of {RUNS} runs each)");

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
}
