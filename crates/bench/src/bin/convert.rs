//! §5.7 — conversion throughput: FASTQ→AGD import and AGD→BAM export.
//!
//! The FASTQ is imported, aligned (BAM export needs alignment results)
//! and exported as BAM: import and align run as two plans, so the import
//! row times import alone rather than import paced by a fused align,
//! and the export row exports that same dataset.
//!
//! Run: `cargo run -p persona-bench --release --bin convert`

use persona::pipeline::rate_per_sec;
use persona::plan::{Plan, PlanRequest, PlanSource, Stage, StageRow, StageRun};
use persona_bench::{mem_runtime, print_header, scale, World};
use persona_formats::fastq;

fn main() {
    let sc = scale();
    let world = World::build((400_000.0 * sc) as usize, (60_000.0 * sc) as usize, 31);
    let rt = mem_runtime();

    let request = PlanRequest {
        name: "cv".into(),
        source: PlanSource::fastq_bytes(fastq::to_bytes(&world.reads)),
        chunk_size: 5_000,
        aligner: None,
        reference: vec![],
    };
    let imported = Plan::import_only().run(&rt, request).unwrap();
    let Some(StageRow { run: StageRun::Import(import_rep), elapsed: import_s, .. }) =
        imported.row(Stage::Import)
    else {
        unreachable!("an import plan reports its import stage")
    };
    let imported = imported.manifest.as_ref().expect("import lands a dataset");
    let aligned = world.run_stage(&rt, Stage::Align, imported, Some(&world.snap_aligner()));
    let exported = world.run_stage(&rt, Stage::ExportBam, aligned.manifest.as_ref().unwrap(), None);
    let Some(StageRow { run: StageRun::ExportBam(export_rep), elapsed: export_s, .. }) =
        exported.row(Stage::ExportBam)
    else {
        unreachable!("an export-bam plan reports its export stage")
    };

    print_header(
        "§5.7: Conversion throughput",
        &["direction", "bytes", "time (s)", "MB/s", "paper MB/s"],
    );
    println!(
        "FASTQ -> AGD\t{:.1} MB\t{:.2}\t{:.1}\t360",
        import_rep.input_bytes as f64 / 1e6,
        import_s.as_secs_f64(),
        rate_per_sec(import_rep.input_bytes as f64 / 1e6, *import_s)
    );
    println!(
        "AGD -> BAM\t{:.1} MB\t{:.2}\t{:.1}\t82",
        export_rep.output_bytes as f64 / 1e6,
        export_s.as_secs_f64(),
        rate_per_sec(export_rep.output_bytes as f64 / 1e6, *export_s)
    );
    println!("\npaper shape: import is several times faster than BAM export (BGZF recompression).");
}
