//! Fig. 5 — CPU utilization: standalone SNAP vs Persona, both reading
//! and writing a local `DirStore` (the store `bench/` runs on). The
//! paper's single-disk and RAID0 panels need those disks and are not
//! reproduced (`docs/REPRODUCTION.md`).
//!
//! Run: `cargo run -p persona-bench --release --bin fig5`
//!
//! Exits non-zero when the Persona timeline is empty or its mean is 0:
//! the sampler read no busy time, so the figure would show nothing.

use std::time::{Duration, Instant};

use persona::config::PersonaConfig;
use persona::plan::{DataState, Plan, PlanRequest, PlanSource, Stage};
use persona::runtime::PersonaRuntime;
use persona_bench::metrics::sample_utilization;
use persona_bench::{median_of_runs, print_header, scale, TempStore, World};

fn main() {
    let sc = scale();
    let world = World::build((500_000.0 * sc) as usize, (25_000.0 * sc) as usize, 13);
    let aligner = world.snap_aligner();
    let threads = PersonaConfig::default().compute_threads;

    // Persona run: the align-only plan, its executor's busy time (the
    // task-latency histogram's sum) sampled into a utilization timeline.
    let temp = TempStore::new("fig5-agd");
    let manifest = world.write_agd(temp.store.as_ref(), "ds", 2_000);
    let rt = PersonaRuntime::new(temp.store.clone(), PersonaConfig::default()).unwrap();
    let busy = rt.telemetry().histogram("executor.task_latency_ns");
    let plan = Plan::builder(DataState::EncodedAgd).then(Stage::Align).build().unwrap();
    let request = PlanRequest {
        name: "ds".into(),
        source: PlanSource::Dataset(manifest),
        chunk_size: 2_000,
        aligner: Some(aligner.clone()),
        reference: world.reference.clone(),
    };
    let interval = Duration::from_millis(20);
    let (report, timeline) =
        sample_utilization(&busy, rt.executor().threads(), interval, || plan.run(&rt, request));
    report.unwrap();

    print_header("Fig. 5 — Persona (AGD) CPU utilization", &["t (s)", "utilization"]);
    for (t, u) in timeline.normalized() {
        println!("{t:.2}\t{:.0}%", u * 100.0);
    }
    println!("mean {:.0}%  (paper: Persona CPU-bound & steady)", timeline.mean() * 100.0);
    if timeline.samples.is_empty() || timeline.mean() == 0.0 {
        eprintln!("fig5: the utilization timeline is empty or reads 0");
        std::process::exit(1);
    }

    // Standalone run: its threads expose no busy time, so report the
    // aggregate — the same alignment with no I/O, on one thread, over
    // the run's wall on `threads` threads, each the median of RUNS.
    let (mut read, mut written) = (0, 0);
    let wall = median_of_runs(|| {
        let rep = world.run_standalone(&aligner, threads);
        (read, written) = (rep.input_bytes, rep.output_bytes);
        rep.elapsed.as_secs_f64()
    });
    let compute = median_of_runs(|| {
        let t0 = Instant::now();
        for r in &world.reads {
            std::hint::black_box(aligner.align_read(&r.bases, &r.quals));
        }
        t0.elapsed().as_secs_f64()
    });
    let util = (compute / (wall * threads as f64)).min(1.0);
    println!(
        "\nStandalone SNAP: wall {wall:.2}s on {threads} thread(s), compute {compute:.2}s on one → mean utilization ≈ {:.0}%",
        util * 100.0
    );
    println!("  I/O: read {:.1} MB, wrote {:.1} MB (SAM)", read as f64 / 1e6, written as f64 / 1e6);
}
