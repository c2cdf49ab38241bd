//! The paper's end-to-end flow as a composable pipeline plan: by
//! default the full chain — FASTQ import → align → coordinate sort →
//! duplicate marking → SAM export — with all stages scheduling compute
//! on one shared executor and overlapped as one fused group, each chunk
//! carrying its columns from stage to stage (the Fig. 4 scenario). `--plan` swaps in a partial plan so perf
//! runs can target exactly the stages they care about.
//!
//! Run: `cargo run -p persona-examples --release --example full_pipeline -- \
//!          [n_reads] [--threads N] [--plan <full|import-only|import-align|no-dupmark|from-aligned>]`
//!
//! `--threads N` sizes the compute executor explicitly; without it the
//! default `PersonaConfig` (all hardware threads but one) applies.

use std::sync::Arc;

use persona::config::PersonaConfig;
use persona::plan::{DataState, Plan, PlanReport, PlanRequest, PlanSource, StageRun, PRESET_NAMES};
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_examples::DemoWorld;
use persona_formats::fastq;

fn stage_detail(run: &StageRun) -> String {
    match run {
        StageRun::Import(r) => format!("{:.1} MB/s in", r.mb_per_sec()),
        StageRun::Align(r) => format!(
            "{:.1} Mbases/s, {:.1}% mapped",
            r.mbases_per_sec(),
            100.0 * r.mapped as f64 / r.reads.max(1) as f64
        ),
        StageRun::Sort(r) => format!("{} records, {} runs", r.records, r.runs),
        // Every preset sorts right before it marks, so marking ran in
        // the sort's write and this stage only handed chunks on.
        StageRun::Dupmark(r) => format!("{} dups, marked in the sort's write", r.duplicates),
        StageRun::ExportSam(r) | StageRun::ExportBam(r) => {
            format!("{:.1} MB/s out", r.mb_per_sec())
        }
    }
}

fn main() {
    let mut n_reads: usize = 4_000;
    let mut threads: Option<usize> = None;
    let mut plan_name = "full".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let v = args.next().expect("--threads needs a value");
                threads = Some(v.parse().expect("--threads must be a number"));
            }
            "--plan" => plan_name = args.next().expect("--plan needs a value"),
            other => n_reads = other.parse().expect("n_reads must be a number"),
        }
    }
    let plan = Plan::preset(&plan_name).unwrap_or_else(|| {
        panic!("unknown plan `{plan_name}` (one of {})", PRESET_NAMES.join(", "))
    });
    let world = DemoWorld::new(n_reads);
    let mut config = PersonaConfig::default();
    if let Some(t) = threads {
        config.compute_threads = t;
    }
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, config).expect("runtime");

    // Stage 0: the "sequencer output".
    let fastq_bytes = fastq::to_bytes(&world.reads);
    let input_mb = fastq_bytes.len() as f64 / 1e6;
    println!(
        "input: {input_mb:.1} MB FASTQ ({n_reads} reads), {} executor threads",
        rt.executor().threads()
    );
    println!("plan:  {}", plan.describe());

    // A plan that starts from an aligned dataset needs one landed
    // first; that preparation is not part of the measured run.
    let source = if plan.input() == DataState::Fastq {
        PlanSource::fastq_bytes(fastq_bytes)
    } else {
        let head = Plan::import_align()
            .run(
                &rt,
                PlanRequest {
                    name: "run".into(),
                    source: PlanSource::fastq_bytes(fastq_bytes),
                    chunk_size: 500,
                    aligner: Some(world.aligner.clone()),
                    reference: world.reference.clone(),
                },
            )
            .expect("prepare aligned dataset");
        println!("prep:  aligned dataset landed ({} reads)", head.reads());
        PlanSource::Dataset(head.manifest.expect("import-align lands a dataset"))
    };

    let report: PlanReport = plan
        .run(
            &rt,
            PlanRequest {
                name: "run".into(),
                source,
                chunk_size: 500,
                aligner: Some(world.aligner.clone()),
                reference: world.reference.clone(),
            },
        )
        .expect("pipeline plan");

    println!("\nstage       elapsed     busy%   throughput");
    for run in &report.stages {
        let (stage, elapsed, busy) =
            (run.stage().name(), run.report().elapsed(), run.report().busy_fraction());
        println!(
            "{stage:<11} {:>7.2}s   {:>5.1}   {}",
            elapsed.as_secs_f64(),
            busy * 100.0,
            stage_detail(run)
        );
    }
    println!(
        "\nend to end: {:.2}s for {:.1} MB ({:.1} MB/s)",
        report.elapsed.as_secs_f64(),
        input_mb,
        input_mb / report.elapsed.as_secs_f64(),
    );

    if let Some(sam) = &report.sam {
        println!("SAM out: {:.1} MB", sam.len() as f64 / 1e6);
        let header_lines =
            sam.split(|&b| b == b'\n').take_while(|l| l.first() == Some(&b'@')).count();
        println!("\nSAM preview ({header_lines} header lines):");
        for line in String::from_utf8_lossy(sam).lines().take(6) {
            let short: String = line.chars().take(100).collect();
            println!("  {short}");
        }
    } else if let Some(m) = report.final_manifest() {
        println!(
            "dataset out: `{}` ({} records, {} chunks)",
            m.name,
            m.total_records,
            m.records.len()
        );
    }
}
