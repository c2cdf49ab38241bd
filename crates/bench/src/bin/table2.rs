//! Table 2 — single-server sort time: Persona (columnar AGD sort) vs
//! samtools-like (multithreaded BAM), samtools w/ SAM→BAM conversion,
//! and Picard-like (single-threaded BAM).
//!
//! Run: `cargo run -p persona-bench --release --bin table2`

use std::time::Instant;

use persona::config::PersonaConfig;
use persona::plan::Stage;
use persona_baseline::sort::{picard_sort, sam_to_bam, samtools_sort};
use persona_bench::{mem_runtime, print_header, scale, World};

fn main() {
    let sc = scale();
    let world = World::build((400_000.0 * sc) as usize, (40_000.0 * sc) as usize, 23);
    let rt = mem_runtime();
    let manifest = world.write_aligned_agd(&rt, "t2", 4_000);

    // Materialize the same data as BAM and SAM for the baselines.
    let bam = world.run_stage(&rt, Stage::ExportBam, &manifest, None).bam.expect("BAM");
    let sam = world.run_stage(&rt, Stage::ExportSam, &manifest, None).sam.expect("SAM");
    println!(
        "dataset: {} reads | BAM {:.1} MB | SAM {:.1} MB",
        manifest.total_records,
        bam.len() as f64 / 1e6,
        sam.len() as f64 / 1e6
    );

    let threads = PersonaConfig::default().compute_threads;

    // Persona columnar sort.
    let t0 = Instant::now();
    let sorted = world.run_stage(&rt, Stage::Sort, &manifest, None);
    let persona_s = t0.elapsed().as_secs_f64();
    assert_eq!(sorted.reads(), manifest.total_records);

    // samtools-like BAM sort.
    let t0 = Instant::now();
    let (_out, rep2) = samtools_sort(&bam, threads).unwrap();
    let samtools_s = t0.elapsed().as_secs_f64();
    assert_eq!(rep2.records, manifest.total_records);

    // samtools w/ conversion: SAM → BAM first.
    let refs = persona_formats::sam::RefMap::new(&manifest.reference);
    let t0 = Instant::now();
    let converted = sam_to_bam(&sam, &refs).unwrap();
    let (_out, _) = samtools_sort(&converted, threads).unwrap();
    let conversion_s = t0.elapsed().as_secs_f64();

    // Picard-like single-threaded sort.
    let t0 = Instant::now();
    let (_out, _) = picard_sort(&bam).unwrap();
    let picard_s = t0.elapsed().as_secs_f64();

    print_header(
        "Table 2: Dataset Sort Time, Single Server",
        &["tool", "time (s)", "slowdown vs Persona", "paper slowdown"],
    );
    println!("Persona\t{persona_s:.2}\t1.00x\t1.0x");
    println!("Samtools\t{samtools_s:.2}\t{:.2}x\t1.54x", samtools_s / persona_s);
    println!("Samtools w/ conversion\t{conversion_s:.2}\t{:.2}x\t2.32x", conversion_s / persona_s);
    println!("Picard\t{picard_s:.2}\t{:.2}x\t5.15x", picard_s / persona_s);
    println!(
        "\npaper absolute: Persona 556 s, Samtools 856 s, w/ conversion 1289 s, Picard 2866 s"
    );
}
