//! Fused end-to-end runtime benchmark: `Plan::full().run` (all five
//! stages on one shared executor, with import‖align‖sort fused into one
//! overlapped triple and dupmark‖export overlapped) vs the same five
//! stages run back to back, each on a private runtime.
//!
//! The paper's Fig. 4 argument is that one executor owning all compute
//! threads keeps the cores busy across concurrent kernels; the fused
//! run should therefore match or beat the sequential run while
//! producing byte-identical output.
//!
//! Besides the headline comparison, the bench sweeps the fused
//! pipeline across `compute_threads` ∈ {1, 2, 4, 8} for both alignment
//! kernel variants (scalar and SIMD/bit-parallel), so one run yields a
//! scaling trajectory instead of a single point. Every sweep datapoint
//! re-asserts SAM byte-identity against the sequential baseline.
//!
//! Run: `cargo run -p persona-bench --release --bin fused`
//!
//! Besides the human-readable tables, the run emits a machine-readable
//! `BENCH_fused.json` (reads/s, per-stage busy fractions, and the
//! sweep) into the current directory — or into `--out-dir <dir>` /
//! `$PERSONA_BENCH_OUT_DIR` — which CI uploads to extend the bench
//! trajectory.

use std::sync::Arc;
use std::time::Instant;

use persona::config::PersonaConfig;
use persona::pipeline::align::{align_dataset, finalize_manifest, AlignInputs};
use persona::pipeline::dupmark::mark_duplicates;
use persona::pipeline::export::export_sam;
use persona::pipeline::import::import_fastq;
use persona::pipeline::sort::{sort_dataset, SortKey};
use persona::plan::{Plan, PlanReport, PlanRequest, PlanSource, Stage};
use persona::runtime::{JobContext, PersonaRuntime};
use persona_agd::chunk_io::ChunkStore;
use persona_align::{Aligner, Kernel};
use persona_bench::{mem_store, print_header, scale, write_bench_json, BenchError, World};
use persona_dataflow::Priority;
use persona_formats::fastq;
use persona_telemetry::JobTrace;

/// Thread counts the fused pipeline is swept across.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One fused-pipeline sweep datapoint.
struct SweepPoint {
    kernel: Kernel,
    threads: usize,
    elapsed_s: f64,
    reads_per_sec: f64,
}

fn main() {
    if let Err(e) = run() {
        eprintln!("fused bench failed: {e}");
        std::process::exit(1);
    }
}
/// Runs the full plan over `fastq_bytes` as dataset `seq` on `rt`.
fn run_full(
    rt: &PersonaRuntime,
    fastq_bytes: &[u8],
    chunk: usize,
    aligner: &Arc<dyn Aligner>,
    reference: &[(String, u64)],
) -> Result<PlanReport, BenchError> {
    Ok(Plan::full().run(
        rt,
        PlanRequest {
            name: "seq".into(),
            source: PlanSource::fastq_bytes(fastq_bytes.to_vec()),
            chunk_size: chunk,
            aligner: Some(aligner.clone()),
            reference: reference.to_vec(),
        },
    )?)
}

/// Runs the fused pipeline once on `threads` compute threads with the
/// given kernel variant active and returns (elapsed seconds, SAM).
fn fused_run(
    fastq_bytes: &[u8],
    aligner: &Arc<dyn Aligner>,
    chunk: usize,
    reference: &[(String, u64)],
    kernel: Kernel,
    threads: usize,
) -> Result<(f64, Vec<u8>), BenchError> {
    Kernel::set_active(kernel);
    let config = PersonaConfig { compute_threads: threads, ..PersonaConfig::default() };
    let store: Arc<dyn ChunkStore> = mem_store();
    let rt = PersonaRuntime::new(store, config)?;
    let t0 = Instant::now();
    let report = run_full(&rt, fastq_bytes, chunk, aligner, reference)?;
    Ok((t0.elapsed().as_secs_f64(), report.sam.expect("full plan exports SAM")))
}

/// Runs the fused pipeline once with the shared metrics registry
/// toggled; when telemetry is on, a job trace is attached too, so the
/// run pays the full observability price (metric publishes + span
/// events). Returns elapsed seconds.
fn telemetry_run(
    fastq_bytes: &[u8],
    aligner: &Arc<dyn Aligner>,
    chunk: usize,
    reference: &[(String, u64)],
    config: PersonaConfig,
    telemetry_on: bool,
) -> Result<f64, BenchError> {
    let store: Arc<dyn ChunkStore> = mem_store();
    let rt = PersonaRuntime::new(store, config)?;
    rt.telemetry().set_enabled(telemetry_on);
    let rt = if telemetry_on {
        rt.for_job(JobContext::new(Priority::Normal).with_trace(JobTrace::real()))
    } else {
        rt
    };
    let t0 = Instant::now();
    run_full(&rt, fastq_bytes, chunk, aligner, reference)?;
    Ok(t0.elapsed().as_secs_f64())
}

fn run() -> Result<(), BenchError> {
    let sc = scale();
    let world = World::build((300_000.0 * sc) as usize, (30_000.0 * sc) as usize, 31);
    let aligner = world.snap_aligner();
    let config = PersonaConfig::default();
    let default_kernel = Kernel::active();
    let fastq_bytes = fastq::to_bytes(&world.reads);
    let input_mb = fastq_bytes.len() as f64 / 1e6;
    let chunk = 2_000;
    println!(
        "dataset: {} reads | {:.1} MB FASTQ | {} compute threads | kernel {} (simd level {})",
        world.reads.len(),
        input_mb,
        config.compute_threads,
        default_kernel.name(),
        Kernel::simd_level()
    );

    // Sequential: five stages back to back, each on a private runtime.
    let store = mem_store();
    let t0 = Instant::now();
    let (mut manifest, _) =
        import_fastq(std::io::Cursor::new(fastq_bytes.clone()), &store, "seq", chunk, &config)?;
    align_dataset(AlignInputs {
        store: store.clone(),
        manifest: &manifest,
        aligner: aligner.clone(),
        config,
    })?;
    finalize_manifest(store.as_ref(), &mut manifest, &world.reference)?;
    let (sorted, _) = sort_dataset(&store, &manifest, SortKey::Coordinate, "seq.sorted", &config)?;
    mark_duplicates(&store, &sorted)?;
    let mut seq_sam = Vec::new();
    export_sam(&store, &sorted, &mut seq_sam, &config)?;
    let sequential_s = t0.elapsed().as_secs_f64();

    // Fused headline run: one shared runtime at the default thread
    // count, stages overlapped through bounded chunk queues.
    let fused_store: Arc<dyn ChunkStore> = mem_store();
    let rt = PersonaRuntime::new(fused_store, config)?;
    let t0 = Instant::now();
    let report = run_full(&rt, &fastq_bytes, chunk, &aligner, &world.reference)?;
    let fused_s = t0.elapsed().as_secs_f64();
    assert_eq!(report.sam.as_deref(), Some(&seq_sam[..]), "fused output must be byte-identical");
    let reads = report.reads();
    let exported = report.stage(Stage::ExportSam).map_or(0, |s| s.records());

    print_header(
        "Fused end-to-end pipeline (shared executor)",
        &["stage", "elapsed (s)", "executor busy %"],
    );
    for (stage, elapsed, busy) in report.stage_rows() {
        println!("{stage}\t{:.2}\t{:.1}", elapsed.as_secs_f64(), busy * 100.0);
    }
    println!(
        "\nsequential stages: {sequential_s:.2} s | fused: {fused_s:.2} s ({:.2}x) | {:.1} MB/s end to end",
        sequential_s / fused_s,
        input_mb / fused_s
    );
    println!("records: {reads} in = {exported} out (byte-identical SAM)");

    // Thread × kernel sweep: the multi-thread trajectory for both
    // kernel variants, every point checked against the baseline SAM.
    print_header(
        "Fused pipeline sweep (kernel x compute threads)",
        &["kernel", "threads", "elapsed (s)", "reads/s"],
    );
    let mut sweep = Vec::new();
    for kernel in [Kernel::Scalar, Kernel::Simd] {
        for threads in THREAD_SWEEP {
            let (elapsed_s, sam) =
                fused_run(&fastq_bytes, &aligner, chunk, &world.reference, kernel, threads)?;
            assert_eq!(
                sam,
                seq_sam,
                "fused SAM diverged at kernel={} threads={threads}",
                kernel.name()
            );
            let reads_per_sec =
                if elapsed_s > 0.0 { world.reads.len() as f64 / elapsed_s } else { 0.0 };
            println!("{}\t{threads}\t{elapsed_s:.2}\t{reads_per_sec:.0}", kernel.name());
            sweep.push(SweepPoint { kernel, threads, elapsed_s, reads_per_sec });
        }
    }
    Kernel::set_active(default_kernel);

    // Telemetry overhead: the same fused run with the metrics registry
    // disabled vs enabled (trace spans attached). The observability
    // target is <3% throughput regression with telemetry on; both
    // datapoints land in BENCH_fused.json so the trajectory tracks it.
    let tele_off_s = telemetry_run(&fastq_bytes, &aligner, chunk, &world.reference, config, false)?;
    let tele_on_s = telemetry_run(&fastq_bytes, &aligner, chunk, &world.reference, config, true)?;
    let tele_off_rps = if tele_off_s > 0.0 { reads as f64 / tele_off_s } else { 0.0 };
    let tele_on_rps = if tele_on_s > 0.0 { reads as f64 / tele_on_s } else { 0.0 };
    let tele_overhead_pct =
        if tele_off_s > 0.0 { (tele_on_s / tele_off_s - 1.0) * 100.0 } else { 0.0 };
    println!(
        "\ntelemetry off: {tele_off_rps:.0} reads/s | on (metrics + trace): {tele_on_rps:.0} reads/s \
         ({tele_overhead_pct:+.2}% elapsed overhead)"
    );

    // Partial-plan datapoint: the skip-dupmark fast path through the
    // composable plan API, so the bench trajectory covers partial
    // pipelines too.
    let nd_store: Arc<dyn ChunkStore> = mem_store();
    let nd_rt = PersonaRuntime::new(nd_store, config)?;
    let t0 = Instant::now();
    let nd_report = Plan::no_dupmark().run(
        &nd_rt,
        PlanRequest {
            name: "nd".into(),
            source: PlanSource::fastq_bytes(fastq_bytes),
            chunk_size: chunk,
            aligner: Some(aligner),
            reference: world.reference.clone(),
        },
    )?;
    let no_dupmark_s = t0.elapsed().as_secs_f64();
    let nd_reads = nd_report.reads();
    println!("no-dupmark plan ({}): {no_dupmark_s:.2} s", nd_report.plan.describe());

    // Machine-readable result for the CI bench trajectory.
    let reads_per_sec = if fused_s > 0.0 { reads as f64 / fused_s } else { 0.0 };
    let stage_json = |rows: Vec<(&'static str, std::time::Duration, f64)>| -> String {
        rows.into_iter()
            .map(|(stage, elapsed, busy)| {
                format!(
                    "{{\"stage\":\"{stage}\",\"elapsed_s\":{:.6},\"busy_fraction\":{:.6}}}",
                    elapsed.as_secs_f64(),
                    busy
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let sweep_json = sweep
        .iter()
        .map(|p| {
            format!(
                "{{\"kernel\":\"{}\",\"simd_level\":\"{}\",\"threads\":{},\
                 \"elapsed_s\":{:.6},\"reads_per_sec\":{:.1}}}",
                p.kernel.name(),
                Kernel::simd_level(),
                p.threads,
                p.elapsed_s,
                p.reads_per_sec
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let nd_reads_per_sec = if no_dupmark_s > 0.0 { nd_reads as f64 / no_dupmark_s } else { 0.0 };
    let fields = format!(
        "\"reads\":{},\"input_mb\":{input_mb:.3},\
         \"sequential_s\":{sequential_s:.6},\"fused_s\":{fused_s:.6},\
         \"speedup\":{:.4},\"reads_per_sec\":{reads_per_sec:.1},\
         \"compute_threads\":{},\"kernel\":\"{}\",\"simd_level\":\"{}\",\
         \"stages\":[{}],\"sweep\":[{sweep_json}],\
         \"telemetry\":{{\"off_s\":{tele_off_s:.6},\"on_s\":{tele_on_s:.6},\
         \"off_reads_per_sec\":{tele_off_rps:.1},\"on_reads_per_sec\":{tele_on_rps:.1},\
         \"overhead_pct\":{tele_overhead_pct:.3}}},\
         \"no_dupmark\":{{\"plan\":\"no-dupmark\",\"elapsed_s\":{no_dupmark_s:.6},\
         \"reads_per_sec\":{nd_reads_per_sec:.1},\"stages\":[{}]}}",
        reads,
        if fused_s > 0.0 { sequential_s / fused_s } else { 0.0 },
        config.compute_threads,
        default_kernel.name(),
        Kernel::simd_level(),
        stage_json(report.stage_rows()),
        stage_json(nd_report.stage_rows())
    );
    let path = write_bench_json("BENCH_fused.json", "fused", &fields)?;
    println!("wrote {}", path.display());
    Ok(())
}
