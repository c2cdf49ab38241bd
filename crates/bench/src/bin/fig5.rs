//! Fig. 5 — CPU-utilization timelines: standalone SNAP vs Persona on a
//! single disk (writeback interference) and on RAID0.
//!
//! Run: `cargo run -p persona-bench --release --bin fig5`
//!
//! Exits non-zero when a Persona timeline is empty or its mean is 0: the
//! sampler read no busy time, so the figure would show nothing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use persona::config::PersonaConfig;
use persona::plan::{DataState, Plan, PlanRequest, PlanSource, Stage};
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_baseline::standalone::{run_standalone, write_gzipped_fastq};
use persona_bench::metrics::sample_utilization;
use persona_bench::{print_header, scale, World};
use persona_store::local::{DiskConfig, WritebackDisk};

fn main() {
    let sc = scale();
    let world = World::build((500_000.0 * sc) as usize, (25_000.0 * sc) as usize, 13);
    let aligner = world.snap_aligner();
    let bw_scale = 0.003 * sc;

    for (label, disk) in [
        ("(a) Single Disk", DiskConfig::single_disk(bw_scale)),
        ("(b) RAID0", DiskConfig::raid0(bw_scale)),
    ] {
        // Persona run: the align-only plan on a runtime of its own, its
        // executor's busy time (the task-latency histogram's sum)
        // sampled into a utilization timeline.
        let disk_store = Arc::new(WritebackDisk::new(MemStore::new(), disk, 48 << 20));
        let manifest = world.write_agd(disk_store.as_ref(), "ds", 2_000);
        let dyn_store: Arc<dyn ChunkStore> = disk_store.clone();
        let rt = PersonaRuntime::new(dyn_store, PersonaConfig::default()).unwrap();
        let busy = rt.telemetry().histogram("executor.task_latency_ns");
        let plan = Plan::builder(DataState::EncodedAgd).then(Stage::Align).build().unwrap();
        let request = PlanRequest {
            name: "ds".into(),
            source: PlanSource::Dataset(manifest),
            chunk_size: 2_000,
            aligner: Some(aligner.clone()),
            reference: world.reference.clone(),
        };
        let interval = Duration::from_millis(100);
        let (report, timeline) =
            sample_utilization(&busy, rt.executor().threads(), interval, || plan.run(&rt, request));
        report.unwrap();
        disk_store.sync();

        print_header(
            &format!("Fig. 5 {label} — Persona (AGD) CPU utilization"),
            &["t (s)", "utilization"],
        );
        for (t, u) in timeline.normalized() {
            println!("{t:.1}\t{:.0}%", u * 100.0);
        }
        println!(
            "mean {:.0}%  (paper: Persona CPU-bound & steady in both configs)",
            timeline.mean() * 100.0
        );
        if timeline.samples.is_empty() || timeline.mean() == 0.0 {
            eprintln!("fig5 {label}: the utilization timeline is empty or reads 0");
            std::process::exit(1);
        }

        // Standalone run: sample utilization by polling a side-channel —
        // approximate via coarse phases (read/align/write interleave is
        // inside run_standalone), so report aggregate utilization:
        // busy ≈ align time; wall includes I/O stalls.
        let disk_store = Arc::new(WritebackDisk::new(MemStore::new(), disk, 48 << 20));
        write_gzipped_fastq(disk_store.as_ref(), "in.gz", &world.reads).unwrap();
        let dyn_store: Arc<dyn ChunkStore> = disk_store.clone();
        let threads = PersonaConfig::default().compute_threads;
        let t0 = Instant::now();
        let rep =
            run_standalone(&dyn_store, "in.gz", "out.sam", &world.reference, &aligner, threads)
                .unwrap();
        disk_store.sync();
        let wall = t0.elapsed().as_secs_f64();
        // Compute-only reference: the same alignment with no I/O at all.
        let t0 = Instant::now();
        for r in &world.reads {
            std::hint::black_box(aligner.align_read(&r.bases, &r.quals));
        }
        let pure_compute = t0.elapsed().as_secs_f64();
        let util = (pure_compute / wall).min(1.0);
        println!(
            "\nStandalone SNAP {label}: wall {wall:.2}s, compute {pure_compute:.2}s → mean utilization ≈ {:.0}%",
            util * 100.0
        );
        println!(
            "  (paper Fig. 5a: SNAP shows cyclical writeback stalls on a single disk; 5b: both ~100% on RAID0)"
        );
        println!(
            "  I/O: read {:.1} MB, wrote {:.1} MB (SAM)",
            rep.input_bytes as f64 / 1e6,
            rep.output_bytes as f64 / 1e6
        );
    }
}
