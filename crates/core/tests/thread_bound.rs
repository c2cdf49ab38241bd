//! A fused group runs on the executor's workers and one stage thread
//! per stage, nothing else: stages own no threads of their own. One test
//! in its own binary, so nothing else the harness runs adds threads.

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

#[test]
fn fused_import_align_sort_uses_executor_and_stage_threads_only() {
    let w = World::new();
    let config = PersonaConfig { compute_threads: 2, ..PersonaConfig::default() };
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, config).unwrap();
    let plan = Plan::builder(DataState::Fastq)
        .then(Stage::Import)
        .then(Stage::Align)
        .then(Stage::Sort)
        .build()
        .unwrap();
    assert_eq!(plan.fusion_groups(), vec![0..3], "{plan:?} is one fused group");

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
    assert_eq!(report.stages.len(), 3);

    // The harness's main thread, this test's thread and the sampler.
    let bound = config.compute_threads + plan.stages().len() + 3;
    let peak = peak.load(Ordering::SeqCst);
    assert!(peak <= bound, "{peak} threads at peak, more than {bound}");
}
