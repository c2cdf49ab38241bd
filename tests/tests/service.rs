//! The multi-tenant job service: many concurrent jobs on one shared
//! `PersonaRuntime` must produce byte-identical output to sequential
//! `Plan::full` runs, cancellation must actually stop a job and free
//! its fair-share slot, and a light tenant must not starve behind a
//! heavy tenant's backlog.

use std::sync::Arc;
use std::time::Duration;

use persona::config::PersonaConfig;
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::results::AlignmentResult;
use persona_align::Aligner;
use persona_dataflow::Priority;
use persona_formats::fastq;
use persona_integration_tests::common::{wait_for, Fixture, Gate, GateAligner, SlowAligner};
use persona_server::{
    JobInput, JobOutcome, JobSpec, JobStatus, PersonaService, Plan, ServiceConfig, TenantConfig,
};

fn spec(fx: &Fixture, name: &str, tenant: &str, aligner: Arc<dyn Aligner>) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        tenant: tenant.to_string(),
        priority: Priority::Normal,
        plan: Plan::full(),
        input: JobInput::Fastq(fastq::to_bytes(&fx.reads)),
        chunk_size: 100,
        aligner: Some(aligner),
        reference: fx.reference.clone(),
    }
}

/// The sequential reference: one full-plan run on a private runtime.
fn sequential_sam(fx: &Fixture, name: &str) -> Vec<u8> {
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    Plan::full().run(&rt, fx.fastq_request(name, 100)).unwrap().sam.expect("full plan exports SAM")
}

#[test]
fn concurrent_jobs_across_tenants_match_sequential_runs() {
    let fx_a = Fixture::new(7001, 500);
    let fx_b = Fixture::new(7002, 400);
    let ref_a = sequential_sam(&fx_a, "ref-a");
    let ref_b = sequential_sam(&fx_b, "ref-b");

    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let service = PersonaService::new(
        rt,
        ServiceConfig { max_concurrent_jobs: 4, ..ServiceConfig::default() },
    );

    // Four concurrent jobs, two tenants, two distinct datasets.
    let jobs = [
        ("lab-a", "job-a1", &fx_a, &ref_a),
        ("lab-a", "job-a2", &fx_b, &ref_b),
        ("lab-b", "job-b1", &fx_a, &ref_a),
        ("lab-b", "job-b2", &fx_b, &ref_b),
    ];
    let handles: Vec<_> = jobs
        .iter()
        .map(|(tenant, name, fx, _)| {
            service.submit(spec(fx, name, tenant, fx.aligner.clone())).unwrap()
        })
        .collect();

    for (handle, (tenant, name, _, reference_sam)) in handles.iter().zip(&jobs) {
        let outcome = handle.wait();
        let out = match &*outcome {
            JobOutcome::Completed(out) => out,
            other => panic!("{name}: expected completion, got {other:?}"),
        };
        assert_eq!(
            out.sam, **reference_sam,
            "{name} ({tenant}): concurrent SAM differs from the sequential run"
        );
        assert_eq!(out.report.stage_rows().len(), 5, "full plan reports all five stages");
        assert_eq!(handle.status(), JobStatus::Completed);
    }

    // Per-tenant accounting adds up and rates stay finite.
    let report = service.report();
    for tenant in ["lab-a", "lab-b"] {
        let t = report.tenant(tenant).unwrap();
        assert_eq!(t.submitted, 2, "{tenant}");
        assert_eq!(t.completed, 2, "{tenant}");
        assert_eq!(t.reads, 900, "{tenant}");
        assert!(t.reads_per_sec().is_finite());
        let busy = report.busy_fraction(tenant);
        assert!((0.0..=1.0).contains(&busy), "{tenant}: busy {busy}");
        assert!(busy > 0.0, "{tenant} must have used the shared executor");
    }
    assert_eq!(report.jobs_finished(), 4);
}

#[test]
fn cancelled_job_stops_and_frees_its_slot() {
    let fx = Fixture::new(7003, 2_000);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let service = PersonaService::new(
        rt,
        ServiceConfig { max_concurrent_jobs: 1, ..ServiceConfig::default() },
    );

    // Alignment blocks at the gate, so the cancel below provably lands
    // while the job has barely started.
    let gate = Gate::new();
    let gated: Arc<dyn Aligner> =
        Arc::new(GateAligner { inner: fx.aligner.clone(), gate: gate.clone() });
    let victim = service.submit(spec(&fx, "victim", "lab-a", gated)).unwrap();
    wait_for(|| victim.status() == JobStatus::Running, "victim to dispatch");

    victim.cancel();
    gate.open();
    let outcome = victim.wait();
    // Cooperative cancellation must cut the job short: queued batches
    // are dropped and no stage schedules new ones, so the outcome is
    // `Cancelled` — had the job run on, it would have completed.
    assert!(matches!(*outcome, JobOutcome::Cancelled), "got {outcome:?}");
    assert_eq!(victim.status(), JobStatus::Cancelled);

    // The slot is free: a small job for another tenant runs to
    // completion on the same (single-slot) service.
    let small = Fixture::new(7004, 200);
    let follow = service.submit(spec(&small, "follow", "lab-b", small.aligner.clone())).unwrap();
    let outcome = follow.wait();
    assert!(outcome.output().is_some(), "follow-up job must complete, got {outcome:?}");

    let report = service.report();
    assert_eq!(report.tenant("lab-a").unwrap().cancelled, 1);
    assert_eq!(report.tenant("lab-b").unwrap().completed, 1);
}

#[test]
fn cancelling_a_queued_job_resolves_immediately() {
    let fx = Fixture::new(7005, 800);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let service = PersonaService::new(
        rt,
        ServiceConfig { max_concurrent_jobs: 1, ..ServiceConfig::default() },
    );
    let slow: Arc<dyn Aligner> =
        Arc::new(SlowAligner { inner: fx.aligner.clone(), delay: Duration::from_millis(2) });
    let running = service.submit(spec(&fx, "running", "t", slow)).unwrap();
    let queued = service.submit(spec(&fx, "queued", "t", fx.aligner.clone())).unwrap();
    wait_for(|| running.status() == JobStatus::Running, "first job to dispatch");
    assert_eq!(queued.status(), JobStatus::Queued);
    queued.cancel();
    // Resolves without ever dispatching — no need to wait for the
    // running job.
    assert!(matches!(*queued.wait(), JobOutcome::Cancelled));
    running.cancel();
    running.wait();
}

#[test]
fn fair_share_lets_a_light_tenant_through_a_heavy_backlog() {
    let fx = Fixture::new(7006, 150);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let service = PersonaService::new(
        rt,
        ServiceConfig { max_concurrent_jobs: 1, ..ServiceConfig::default() },
    );
    service.set_tenant(
        "heavy",
        TenantConfig { weight: 1, max_in_flight: 1, ..TenantConfig::default() },
    );
    service.set_tenant(
        "light",
        TenantConfig { weight: 1, max_in_flight: 1, ..TenantConfig::default() },
    );

    // Heavy floods the service first: 6 jobs × ~(150 reads × 2 ms).
    let slow: Arc<dyn Aligner> =
        Arc::new(SlowAligner { inner: fx.aligner.clone(), delay: Duration::from_millis(2) });
    let heavy: Vec<_> = (0..6)
        .map(|i| service.submit(spec(&fx, &format!("heavy-{i}"), "heavy", slow.clone())).unwrap())
        .collect();
    let light = service.submit(spec(&fx, "light-0", "light", fx.aligner.clone())).unwrap();

    let outcome = light.wait();
    assert!(outcome.output().is_some(), "light job must complete, got {outcome:?}");
    // Weighted round-robin dispatched the light job ahead of heavy's
    // backlog: when it finishes, heavy still has queued jobs.
    let still_queued = heavy.iter().filter(|h| h.status() == JobStatus::Queued).count();
    assert!(
        still_queued >= 3,
        "light tenant waited out the heavy backlog ({still_queued} heavy jobs left)"
    );

    for h in &heavy {
        assert!(h.wait().output().is_some());
    }
    let report = service.report();
    assert_eq!(report.tenant("heavy").unwrap().completed, 6);
    assert_eq!(report.tenant("light").unwrap().completed, 1);
    // The light tenant's queue wait must be far below draining the
    // whole heavy backlog.
    let light_wait = report.tenant("light").unwrap().queue_wait;
    let heavy_run = report.tenant("heavy").unwrap().run_time;
    assert!(
        light_wait < heavy_run,
        "light queue wait {light_wait:?} vs heavy total run {heavy_run:?}"
    );
}

#[test]
fn import_align_plan_lands_an_aligned_dataset() {
    let fx = Fixture::new(7007, 300);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
    let service = PersonaService::new(rt, ServiceConfig::default());
    let mut s = spec(&fx, "ingest", "lab-a", fx.aligner.clone());
    s.plan = Plan::import_align();
    let handle = service.submit(s).unwrap();
    let outcome = handle.wait();
    let out = outcome.output().expect("ingest job completes");
    assert!(out.sam.is_empty(), "import-align produces no SAM");
    assert_eq!(out.reads, 300);
    let manifest = out.manifest.as_ref().expect("import-align lands a dataset");
    assert!(manifest.has_column(persona_agd::columns::RESULTS));
    // The aligned dataset is durable in the shared store.
    assert!(store.get("ingest.manifest.json").is_ok());
    for e in &manifest.records {
        assert!(store.get(&format!("{}.results", e.path)).is_ok());
    }
    // The report covers exactly the two stages that ran.
    let rows = out.report.stage_rows();
    assert_eq!(
        rows.iter().map(|(s, _, _)| *s).collect::<Vec<_>>(),
        vec!["import", "align"],
        "per-plan report must list exactly the stages that ran"
    );
}

/// The issue's new scenarios, end to end through the service: an
/// import-only ingest, then post-alignment processing (sort → dupmark
/// → export) over the previously landed aligned dataset, and a
/// skip-dupmark fast path — with the from-aligned SAM byte-identical
/// to a one-shot full plan over the same reads.
#[test]
fn partial_plans_compose_across_jobs() {
    let fx = Fixture::new(7009, 400);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
    let service = PersonaService::new(rt, ServiceConfig::default());

    // Reference: the one-shot full plan.
    let full = service.submit(spec(&fx, "whole", "lab", fx.aligner.clone())).unwrap();
    let full_out = full.wait();
    let full_out = full_out.output().expect("full job completes");

    // Scenario 1: import-only ingest lands an encoded dataset.
    let mut s = spec(&fx, "landed", "lab", fx.aligner.clone());
    s.plan = Plan::import_only();
    s.aligner = None; // No align stage -> no aligner needed.
    let ingest = service.submit(s).unwrap();
    let ingest_out = ingest.wait();
    let ingest_out = ingest_out.output().expect("import-only job completes");
    let landed = ingest_out.manifest.as_ref().expect("import lands a dataset").clone();
    assert!(!landed.has_column(persona_agd::columns::RESULTS));
    assert_eq!(ingest_out.reads, 400);
    assert!(ingest_out.sam.is_empty() && ingest_out.bam.is_empty());

    // Scenario 2: align the landed dataset in a separate job
    // (align-from-existing-AGD).
    let align_job = service
        .submit(JobSpec {
            name: "landed".into(),
            tenant: "lab".into(),
            priority: Priority::Normal,
            plan: Plan::builder(persona_server::DataState::EncodedAgd)
                .then(persona_server::Stage::Align)
                .build()
                .unwrap(),
            input: JobInput::Dataset(landed),
            chunk_size: 100,
            aligner: Some(fx.aligner.clone()),
            reference: fx.reference.clone(),
        })
        .unwrap();
    let align_out = align_job.wait();
    let align_out = align_out.output().expect("align job completes");
    let aligned = align_out.manifest.as_ref().expect("align updates the manifest").clone();
    assert!(aligned.has_column(persona_agd::columns::RESULTS));

    // Scenario 3: sort → dupmark → export over the aligned dataset.
    // Byte-identical to the one-shot full plan over the same reads.
    let later = service
        .submit(JobSpec {
            name: "landed".into(),
            tenant: "lab".into(),
            priority: Priority::Normal,
            plan: Plan::from_aligned(),
            input: JobInput::Dataset(aligned.clone()),
            chunk_size: 100,
            aligner: None,
            reference: fx.reference.clone(),
        })
        .unwrap();
    let later_out = later.wait();
    let later_out = later_out.output().expect("from-aligned job completes");
    assert_eq!(
        later_out.sam, full_out.sam,
        "stitched import-only → align → from-aligned must equal the one-shot full plan"
    );
    assert_eq!(later_out.reads, 400);
    assert_eq!(
        later_out.report.stage_rows().iter().map(|(s, _, _)| *s).collect::<Vec<_>>(),
        vec!["sort", "dupmark", "export-sam"]
    );

    // Scenario 4: the skip-dupmark fast path still sorts and exports.
    let mut s = spec(&fx, "fast", "lab", fx.aligner.clone());
    s.plan = Plan::no_dupmark();
    let fast = service.submit(s).unwrap();
    let fast_out = fast.wait();
    let fast_out = fast_out.output().expect("no-dupmark job completes");
    let body =
        |sam: &[u8]| sam.split(|&b| b == b'\n').filter(|l| !l.is_empty() && l[0] != b'@').count();
    assert_eq!(body(&fast_out.sam), 400);
    assert!(
        fast_out.report.stage_rows().iter().all(|(s, _, _)| *s != "dupmark"),
        "no-dupmark plan must not run dupmark"
    );
    // The fast path never sets the 0x400 duplicate flag.
    for line in String::from_utf8_lossy(&fast_out.sam).lines().filter(|l| !l.starts_with('@')) {
        let flags: u32 = line.split('\t').nth(1).expect("FLAG field").parse().unwrap();
        assert_eq!(flags & 0x400, 0, "skip-dupmark plan must not mark duplicates: {line}");
    }
}

/// A serialized plan round-trips through JSON and a job submitted from
/// the deserialized plan is byte-identical to the preset run — the
/// wire-protocol contract.
#[test]
fn deserialized_plan_job_matches_preset_job() {
    let fx = Fixture::new(7010, 300);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let service = PersonaService::new(rt, ServiceConfig::default());

    let preset = service.submit(spec(&fx, "preset", "lab", fx.aligner.clone())).unwrap();
    let json = Plan::full().to_json().unwrap();
    let wire_plan = Plan::from_json(&json).unwrap();
    assert_eq!(wire_plan, Plan::full());
    let mut s = spec(&fx, "wire", "lab", fx.aligner.clone());
    s.plan = wire_plan;
    let wire = service.submit(s).unwrap();

    let preset_out = preset.wait();
    let wire_out = wire.wait();
    assert_eq!(
        wire_out.output().expect("wire job completes").sam,
        preset_out.output().expect("preset job completes").sam,
        "a job from a deserialized plan must be byte-identical to the preset run"
    );
}

/// Cancellation must stop a *partial* plan mid-flight too, not just
/// the full chain.
#[test]
fn cancel_stops_a_partial_plan_mid_flight() {
    let fx = Fixture::new(7011, 2_000);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let service = PersonaService::new(
        rt,
        ServiceConfig { max_concurrent_jobs: 1, ..ServiceConfig::default() },
    );
    let gate = Gate::new();
    let gated: Arc<dyn Aligner> =
        Arc::new(GateAligner { inner: fx.aligner.clone(), gate: gate.clone() });
    let mut s = spec(&fx, "ingest", "lab", gated);
    s.plan = Plan::import_align();
    let victim = service.submit(s).unwrap();
    wait_for(|| victim.status() == JobStatus::Running, "victim to dispatch");
    // Cancel lands while alignment is blocked at the gate; `Cancelled`
    // after the gate opens proves the partial plan stopped mid-flight.
    victim.cancel();
    gate.open();
    let outcome = victim.wait();
    assert!(matches!(*outcome, JobOutcome::Cancelled), "got {outcome:?}");
}

/// Submit-time plan/spec coherence: mismatched input or a missing
/// aligner is rejected before the job ever queues.
#[test]
fn submit_rejects_plan_spec_mismatches() {
    let fx = Fixture::new(7012, 50);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let service = PersonaService::new(rt, ServiceConfig::default());

    // Dataset input with a FASTQ plan.
    let mut s = spec(&fx, "m1", "t", fx.aligner.clone());
    s.input = JobInput::Dataset(persona_agd::manifest::Manifest::new("d"));
    assert!(service.submit(s).is_err());
    // FASTQ input with a dataset plan.
    let mut s = spec(&fx, "m2", "t", fx.aligner.clone());
    s.plan = Plan::from_aligned();
    assert!(service.submit(s).is_err());
    // Align plan without an aligner.
    let mut s = spec(&fx, "m3", "t", fx.aligner.clone());
    s.aligner = None;
    assert!(service.submit(s).is_err());
    // From-aligned plan over a manifest with no results column: the
    // shared Plan::check_dataset_input rejects it at admission, not
    // after the job waited out the queue.
    let mut s = spec(&fx, "m4", "t", fx.aligner.clone());
    s.plan = Plan::from_aligned();
    s.input = JobInput::Dataset(persona_agd::manifest::Manifest::new("d"));
    s.aligner = None;
    assert!(service.submit(s).is_err());
}

#[test]
fn submit_validates_specs_and_shutdown_cancels_queued_jobs() {
    let fx = Fixture::new(7008, 100);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let mut service = PersonaService::new(
        rt,
        ServiceConfig { max_concurrent_jobs: 1, ..ServiceConfig::default() },
    );
    let mut bad = spec(&fx, "", "t", fx.aligner.clone());
    assert!(service.submit(bad).is_err(), "empty name must be rejected");
    bad = spec(&fx, "x", "", fx.aligner.clone());
    assert!(service.submit(bad).is_err(), "empty tenant must be rejected");
    bad = spec(&fx, "x", "t", fx.aligner.clone());
    bad.chunk_size = 0;
    assert!(service.submit(bad).is_err(), "zero chunk_size must be rejected");

    let slow: Arc<dyn Aligner> =
        Arc::new(SlowAligner { inner: fx.aligner.clone(), delay: Duration::from_millis(2) });
    let running = service.submit(spec(&fx, "r", "t", slow)).unwrap();
    let queued = service.submit(spec(&fx, "q", "t", fx.aligner.clone())).unwrap();
    wait_for(|| running.status() == JobStatus::Running, "first job to dispatch");
    running.cancel();
    service.shutdown();
    // Shutdown resolved the queued job and joined the running one.
    assert!(matches!(*queued.wait(), JobOutcome::Cancelled));
    assert_ne!(running.status(), JobStatus::Running);
    assert!(service.submit(spec(&fx, "late", "t", fx.aligner.clone())).is_err());
}

/// Jobs run on a fixed pool of `max_concurrent_jobs` runner threads,
/// never on a thread of their own: every job's completion watcher fires
/// on the runner that ran it, so twelve jobs on a two-slot service see
/// at most two threads.
#[test]
fn jobs_run_on_a_fixed_pool_of_runners() {
    let fx = Fixture::new(7010, 60);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let service = PersonaService::new(
        rt,
        ServiceConfig { max_concurrent_jobs: 2, ..ServiceConfig::default() },
    );
    // Nothing finishes before every watcher is registered.
    let gate = Gate::new();
    let gated: Arc<dyn Aligner> =
        Arc::new(GateAligner { inner: fx.aligner.clone(), gate: gate.clone() });
    let (tx, rx) = std::sync::mpsc::channel();
    let handles: Vec<_> = (0..12)
        .map(|k| {
            let handle =
                service.submit(spec(&fx, &format!("pool-{k}"), "t", gated.clone())).unwrap();
            let tx = tx.clone();
            handle.on_done(move |_| {
                let _ = tx.send(std::thread::current().id());
            });
            handle
        })
        .collect();
    gate.open();
    let threads: std::collections::HashSet<_> =
        (0..12).map(|_| rx.recv_timeout(Duration::from_secs(20)).unwrap()).collect();
    for handle in &handles {
        let outcome = handle.wait();
        assert!(outcome.output().is_some(), "{} must complete, got {outcome:?}", handle.name());
    }
    assert!(threads.len() <= 2, "12 jobs ran on {} threads, not on a pool of 2", threads.len());
}

/// An aligner whose every read panics: its job fails inside align.
struct BoomAligner;

impl Aligner for BoomAligner {
    fn align_read(&self, _: &[u8], _: &[u8]) -> AlignmentResult {
        panic!("boom")
    }

    fn name(&self) -> &'static str {
        "boom"
    }
}

/// A job that does not complete is still charged for the executor time
/// its stages ran: one fails inside align, another is cancelled after
/// dispatch while align waits at a gate.
#[test]
fn jobs_that_do_not_complete_are_charged_their_busy_time() {
    let fx = Fixture::new(7013, 400);
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let service = PersonaService::new(
        rt,
        ServiceConfig { max_concurrent_jobs: 1, ..ServiceConfig::default() },
    );
    let tasks_run =
        || service.metrics().histogram("executor.task_latency_ns").map_or(0, |h| h.count);

    let failed = service.submit(spec(&fx, "boom", "lab-failed", Arc::new(BoomAligner))).unwrap();
    let outcome = failed.wait();
    assert!(matches!(&*outcome, JobOutcome::Failed(e) if e.contains("boom")), "got {outcome:?}");

    let gate = Gate::new();
    let gated: Arc<dyn Aligner> =
        Arc::new(GateAligner { inner: fx.aligner.clone(), gate: gate.clone() });
    let before = tasks_run();
    let victim = service.submit(spec(&fx, "victim", "lab-cancelled", gated)).unwrap();
    // Import's first task has run (align's are held at the gate).
    wait_for(|| tasks_run() > before, "the victim to run a task");
    victim.cancel();
    gate.open();
    let outcome = victim.wait();
    assert!(matches!(*outcome, JobOutcome::Cancelled), "got {outcome:?}");

    let report = service.report();
    for tenant in ["lab-failed", "lab-cancelled"] {
        let t = report.tenant(tenant).unwrap();
        assert_eq!((t.completed, t.dispatched), (0, 1), "{tenant}");
        assert!(t.busy > Duration::ZERO, "{tenant} was charged no busy time");
        assert!(report.busy_fraction(tenant) > 0.0, "{tenant}");
    }
}
