//! A fused group runs on the executor's workers and one stage thread
//! per stage that runs, nothing else: stages own no threads of their
//! own, and a dupmark fused to its sort runs none. One test in its own
//! binary, so nothing else the harness runs adds threads.

#[allow(dead_code)] // `World::land` serves the other plan suites.
mod common;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::World;
use persona::config::PersonaConfig;
use persona::plan::{DataState, Plan, PlanSource, Stage};
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::{ChunkStore, MemStore};

/// The process's current thread count.
fn threads_now() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Runs `plan` from the FASTQ on a fresh runtime and returns the peak
/// thread count sampled during the run.
fn peak_threads(w: &World, config: PersonaConfig, plan: &Plan) -> usize {
    assert_eq!(plan.fusion_groups(), vec![0..plan.stages().len()], "{plan:?} is one fused group");
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, config).unwrap();
    let (stop, peak) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicUsize::new(0)));
    let sampler = {
        let (stop, peak) = (stop.clone(), peak.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                peak.fetch_max(threads_now(), Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    let report = plan.run(&rt, w.request(PlanSource::fastq_bytes(w.fastq.clone()))).unwrap();
    stop.store(true, Ordering::SeqCst);
    sampler.join().unwrap();
    assert_eq!(report.stages.len(), plan.stages().len());
    peak.load(Ordering::SeqCst)
}

/// One test for both groups: tests running in parallel in this binary
/// would inflate the count.
#[test]
fn fused_import_align_sort_uses_executor_and_stage_threads_only() {
    let w = World::new();
    let config = PersonaConfig { compute_threads: 2, ..PersonaConfig::default() };
    let plan = |stages: &[Stage]| {
        stages.iter().fold(Plan::builder(DataState::Fastq), |b, &s| b.then(s)).build().unwrap()
    };
    for plan in [
        plan(&[Stage::Import, Stage::Align, Stage::Sort]),
        plan(&[Stage::Import, Stage::Align, Stage::Sort, Stage::Dupmark, Stage::ExportBam]),
    ] {
        let peak = peak_threads(&w, config, &plan);
        // One stage thread per stage but a dupmark right after its sort,
        // plus the harness's main thread, this test's thread and the
        // sampler.
        let folded = plan.stages().windows(2).filter(|w| w == &[Stage::Sort, Stage::Dupmark]);
        let bound = config.compute_threads + plan.stages().len() - folded.count() + 3;
        assert!(peak <= bound, "{plan:?}: {peak} threads at peak, more than {bound}");
    }
}
