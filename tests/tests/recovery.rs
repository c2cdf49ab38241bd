//! Crash recovery end to end: a durable service rebuilt from its
//! write-ahead journal must never re-run completed jobs, must re-queue
//! jobs the crash left waiting, and must resume a job interrupted
//! mid-plan at its last journaled stage with byte-identical output to
//! an uninterrupted run.
//!
//! The "crash" here is a *journal snapshot*: with `FsyncPolicy::Always`
//! every acknowledged transition is on disk the moment the call
//! returns, so copying the journal file at time T and recovering from
//! the copy is exactly what a service killed at T would see (minus the
//! records it never got to write — which is the point). The chunk
//! store is shared across incarnations the way a real deployment's
//! durable store would be.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use persona::config::PersonaConfig;
use persona::plan::{DataState, Stage};
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::results::AlignmentResult;
use persona_align::Aligner;
use persona_dataflow::Priority;
use persona_formats::fastq;
use persona_integration_tests::common::{wait_for, Fixture, Gate, GateAligner};
use persona_server::journal::{FsyncPolicy, Journal, JournalConfig, JournalRecord, TerminalStatus};
use persona_server::service::JOB_RETAIN;
use persona_server::{
    JobInput, JobSpec, JobStatus, PersonaService, Plan, RecoverOptions, ServiceConfig,
};

/// A fresh `persona-recovery-<pid>-<tag>` directory, removed on drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> TmpDir {
        let dir =
            std::env::temp_dir().join(format!("persona-recovery-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable_opts(fx: &Fixture) -> RecoverOptions {
    RecoverOptions {
        aligner: Some(fx.aligner.clone()),
        journal: JournalConfig { fsync: FsyncPolicy::Always, compact_threshold: 0 },
    }
}

fn service_over(store: &Arc<dyn ChunkStore>, wal: &PathBuf, fx: &Fixture) -> PersonaService {
    let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
    PersonaService::recover(rt, ServiceConfig::default(), wal, durable_opts(fx)).unwrap()
}

fn spec(fx: &Fixture, name: &str) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        tenant: "lab".to_string(),
        priority: Priority::Normal,
        plan: Plan::full(),
        input: JobInput::Fastq(fastq::to_bytes(&fx.reads)),
        chunk_size: 64,
        aligner: Some(fx.aligner.clone()),
        reference: fx.reference.clone(),
    }
}

/// An aligner that sleeps per read, keeping a job in flight long
/// enough to snapshot the journal while it runs.
struct SlowAligner {
    inner: Arc<dyn Aligner>,
    delay: Duration,
}

impl Aligner for SlowAligner {
    fn align_read(&self, bases: &[u8], quals: &[u8]) -> AlignmentResult {
        std::thread::sleep(self.delay);
        self.inner.align_read(bases, quals)
    }

    fn name(&self) -> &'static str {
        "slow"
    }
}

/// Kill the service with one job completed and another still
/// unfinished: recovery must resolve the first from the journal
/// without re-running it and run the second to completion.
#[test]
fn completed_jobs_stay_done_and_unfinished_jobs_survive() {
    let fx = Fixture::new(11, 150);
    let tmp = TmpDir::new("survive");
    let dir = tmp.0.clone();
    let wal = dir.join("service.wal");
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());

    let (alpha_id, beta_id, alpha_sam) = {
        let service = service_over(&store, &wal, &fx);
        let alpha = service.submit(spec(&fx, "alpha")).unwrap();
        let outcome = alpha.wait();
        let output = outcome.output().expect("alpha completes");
        let alpha_sam = output.sam.clone();
        assert!(!alpha_sam.is_empty());

        // Beta dispatches but cannot finish before the snapshot: the
        // slow aligner holds it in flight for many seconds.
        let mut slow = spec(&fx, "beta");
        slow.aligner = Some(Arc::new(SlowAligner {
            inner: fx.aligner.clone(),
            delay: Duration::from_millis(40),
        }));
        let beta = service.submit(slow).unwrap();

        // The crash image: everything journaled up to this instant.
        // fsync=Always means beta's submission is durably on disk.
        std::fs::copy(&wal, dir.join("crash.wal")).unwrap();
        assert_ne!(beta.status(), JobStatus::Completed, "beta must not outrun the snapshot");

        beta.cancel();
        (alpha.id(), beta.id(), alpha_sam)
        // Dropping the service joins the cancelled runner.
    };

    let crash_wal = dir.join("crash.wal");
    let service = service_over(&store, &crash_wal, &fx);
    let recovered = service.recovered_jobs();
    assert_eq!(recovered.len(), 2);
    let alpha = recovered.iter().find(|h| h.id() == alpha_id).unwrap();
    let beta = recovered.iter().find(|h| h.id() == beta_id).unwrap();

    // Completed before the crash ⇒ pre-resolved, never re-admitted:
    // terminal immediately, with the journaled final manifest.
    assert_eq!(alpha.status(), JobStatus::Completed);
    let alpha_outcome = alpha.wait();
    let alpha_recovered = alpha_outcome.output().expect("alpha stays completed");
    assert!(alpha_recovered.manifest.is_some(), "journaled manifest survives");
    // Exported bytes died with the process, but exports are pure
    // functions of the durable final dataset: recovery re-materializes
    // them from the catalog, byte-identical to the pre-crash output.
    assert_eq!(alpha_recovered.sam, alpha_sam, "recovered completed job re-exports the same bytes");
    assert!(alpha_recovered.reads > 0, "reads re-derive from the final manifest");

    // Unfinished at the crash ⇒ re-admitted and runs to completion,
    // byte-identical to an uninterrupted run.
    let beta_outcome = beta.wait();
    let beta_output = beta_outcome.output().expect("beta re-runs to completion");
    assert_eq!(beta_output.sam, alpha_sam, "same input, same plan, same bytes");

    // Only beta executed in this incarnation.
    let report = service.report();
    let lab = report.tenants.iter().find(|t| t.tenant == "lab").unwrap();
    assert_eq!(lab.completed, 1, "alpha must not re-run after recovery");

    // The id watermark replays too: new ids never collide with
    // recovered ones.
    let gamma = service.submit(spec(&fx, "gamma")).unwrap();
    assert!(gamma.id() > alpha_id.max(beta_id));
    gamma.cancel();
}

/// Truncate the journal at every stage boundary of a completed run:
/// recovery resumes from exactly that stage (or re-runs from scratch
/// when nothing landed) and the final SAM is byte-identical every
/// time.
#[test]
fn mid_plan_resume_is_byte_identical_at_every_stage_boundary() {
    let fx = Fixture::new(23, 150);
    let tmp = TmpDir::new("resume");
    let dir = tmp.0.clone();
    let wal = dir.join("service.wal");
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());

    let reference_sam = {
        let service = service_over(&store, &wal, &fx);
        let handle = service.submit(spec(&fx, "sample")).unwrap();
        let outcome = handle.wait();
        let sam = outcome.output().expect("uninterrupted run completes").sam.clone();
        assert!(!sam.is_empty());
        sam
    };

    // Every prefix ending right after `started` or a `stage-completed`
    // record is a legal crash image strictly mid-plan.
    let full = Journal::read(&wal).unwrap();
    let bytes = std::fs::read(&wal).unwrap();
    let boundaries: Vec<(usize, String)> = full
        .records
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match r {
            JournalRecord::Started { .. } => Some((i, "started".to_string())),
            JournalRecord::StageCompleted { stage, .. } => Some((i, stage.name().to_string())),
            _ => None,
        })
        .collect();
    // Full plan, one fused group, no cache ⇒ only the sorted dataset
    // lands: the job journals `sort`, then `dupmark` (export stages
    // land no dataset state).
    assert_eq!(
        boundaries.iter().map(|(_, name)| name.as_str()).collect::<Vec<_>>(),
        vec!["started", "sort", "dupmark"],
    );

    for (index, label) in boundaries {
        let end = full.offsets.get(index + 1).copied().unwrap_or(full.good_len) as usize;
        let crash_wal = dir.join(format!("crash-{label}.wal"));
        std::fs::write(&crash_wal, &bytes[..end]).unwrap();

        let service = service_over(&store, &crash_wal, &fx);
        let recovered = service.recovered_jobs();
        assert_eq!(recovered.len(), 1, "cut after {label}");
        let outcome = recovered[0].wait();
        let output = outcome
            .output()
            .unwrap_or_else(|| panic!("resume after `{label}` must complete: {outcome:?}"));
        assert_eq!(
            output.sam, reference_sam,
            "resume after `{label}` must be byte-identical to the uninterrupted run"
        );
    }
}

/// The dataset catalog is journaled: a completed job's landed dataset
/// is submittable by manifest after a clean restart, and the journal
/// compacts without losing it.
#[test]
fn dataset_catalog_survives_restart_and_compaction() {
    let fx = Fixture::new(37, 150);
    let tmp = TmpDir::new("catalog");
    let dir = tmp.0.clone();
    let wal = dir.join("service.wal");
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());

    let reference_sam = {
        let service = service_over(&store, &wal, &fx);
        let handle = service.submit(spec(&fx, "sample")).unwrap();
        let outcome = handle.wait();
        let sam = outcome.output().expect("run completes").sam.clone();
        assert!(service.dataset("sample").is_some(), "completion registers the dataset");
        sam
    };

    // Restart; the catalog must come back from the journal alone.
    let service = service_over(&store, &wal, &fx);
    let manifest = service.dataset("sample").expect("catalog survives the restart");

    // The recovered manifest is live: export the dup-marked sorted
    // dataset it names and compare against the original export.
    let export = Plan::builder(DataState::Sorted).then(Stage::ExportSam).build().unwrap();
    let handle = service
        .submit(JobSpec {
            name: "re-export".into(),
            tenant: "lab".into(),
            priority: Priority::Normal,
            plan: export,
            input: JobInput::Dataset(manifest),
            chunk_size: 64,
            aligner: None,
            reference: fx.reference.clone(),
        })
        .unwrap();
    let outcome = handle.wait();
    let output = outcome.output().expect("re-export completes");
    assert_eq!(output.sam, reference_sam, "journaled manifest names the same dataset");

    // Compaction folds the log down without losing the catalog.
    drop(service);
    let len_before = std::fs::metadata(&wal).unwrap().len();
    {
        let mut journal =
            Journal::open(&wal, JournalConfig { fsync: FsyncPolicy::Always, compact_threshold: 0 })
                .unwrap();
        journal.compact().unwrap();
    }
    assert!(std::fs::metadata(&wal).unwrap().len() < len_before);
    let service = service_over(&store, &wal, &fx);
    assert!(service.dataset("sample").is_some(), "catalog survives compaction");
    assert!(service.dataset("re-export").is_none(), "dataset-input plans land no new dataset");
}

/// Every terminal path journals `finished` before the handle resolves,
/// so a crash can never re-run a job whose outcome a client saw. Each
/// queued job's completion watcher reads the log from inside the
/// resolution and reports whether its `finished` record is there: one
/// job is cancelled in the queue, the other drained by shutdown.
#[test]
fn finished_is_journaled_before_the_handle_resolves() {
    let fx = Fixture::new(13, 100);
    let tmp = TmpDir::new("finished-first");
    let dir = tmp.0.clone();
    let wal = dir.join("service.wal");
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let config = ServiceConfig { max_concurrent_jobs: 1, ..ServiceConfig::default() };
    let service = PersonaService::recover(rt, config, &wal, durable_opts(&fx)).unwrap();

    // The gated job holds the only slot, so the next two stay queued.
    let gate = Gate::new();
    let mut held = spec(&fx, "held");
    held.aligner = Some(Arc::new(GateAligner { inner: fx.aligner.clone(), gate: gate.clone() }));
    let held = service.submit(held).unwrap();
    wait_for(|| held.status() == JobStatus::Running, "the gated job to take the slot");

    let (tx, rx) = std::sync::mpsc::channel();
    let queued: Vec<_> = ["cancelled", "drained"]
        .into_iter()
        .map(|name| {
            let handle = service.submit(spec(&fx, name)).unwrap();
            let (tx, wal, id) = (tx.clone(), wal.clone(), handle.id());
            handle.on_done(move |_| {
                let log = Journal::read(&wal).unwrap();
                let journaled = log
                    .records
                    .iter()
                    .any(|r| matches!(r, JournalRecord::Finished { job_id, .. } if *job_id == id));
                let _ = tx.send((id, journaled));
            });
            handle
        })
        .collect();
    assert!(queued.iter().all(|h| h.status() == JobStatus::Queued));

    queued[0].cancel();
    let cancelled = rx.recv_timeout(Duration::from_secs(20)).unwrap();
    assert_eq!(cancelled, (queued[0].id(), true), "a queued cancel resolved before `finished`");

    // Shutdown drains the queue, then waits for the held job, so it
    // runs on a helper thread until the drained job has resolved.
    std::thread::scope(|s| {
        s.spawn(|| service.stop());
        let drained = rx.recv_timeout(Duration::from_secs(20));
        gate.open();
        assert_eq!(
            drained.unwrap(),
            (queued[1].id(), true),
            "a job drained at shutdown resolved before `finished`"
        );
    });
    assert_eq!(held.status(), JobStatus::Completed);
}

/// Names recur across finished jobs, and a later job's objects replace
/// an earlier one's. After a restart, the older of two completed jobs
/// of one name must not serve the newer one's exported bytes as its
/// own: only the newest re-exports, the older gets empty bytes.
#[test]
fn an_older_job_of_a_recurring_name_does_not_serve_the_newer_ones_bytes() {
    let fx = Fixture::new(43, 150);
    let tmp = TmpDir::new("recurring-name");
    let wal = tmp.0.join("service.wal");
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());

    let (older, newer) = {
        let service = service_over(&store, &wal, &fx);
        let run = |reads: &[persona_seq::Read]| {
            let mut job = spec(&fx, "sample");
            job.input = JobInput::Fastq(fastq::to_bytes(reads));
            let handle = service.submit(job).unwrap();
            let outcome = handle.wait();
            let sam = outcome.output().expect("job completes").sam.clone();
            (handle.id(), sam)
        };
        let older = run(&fx.reads[..75]);
        let newer = run(&fx.reads[75..]);
        assert_ne!(older.1, newer.1, "different inputs export different bytes");
        (older, newer)
    };

    let service = service_over(&store, &wal, &fx);
    let sam_of = |id: u64| {
        let outcome = service.job(id).expect("recovered job is retained").wait();
        outcome.output().expect("recovered job stays completed").sam.clone()
    };
    assert_eq!(sam_of(newer.0), newer.1, "the newest job of the name re-exports its bytes");
    let older_sam = sam_of(older.0);
    assert_ne!(older_sam, newer.1, "the older job serves the newer job's bytes");
    assert!(older_sam.is_empty(), "the older job's objects are gone, so it has no bytes");
}

/// `register_dataset` journals the catalog entry and `sync_journal`
/// forces the batch window to disk: a crash right after them recovers
/// the entry.
#[test]
fn a_registered_dataset_survives_a_crash_after_sync_journal() {
    let fx = Fixture::new(47, 100);
    let tmp = TmpDir::new("register");
    let wal = tmp.0.join("service.wal");
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let manifest = fx.write_dataset(&*store, "landed", 64);
    let batched = |fx: &Fixture| RecoverOptions {
        aligner: Some(fx.aligner.clone()),
        journal: JournalConfig { fsync: FsyncPolicy::Batch(1_000), compact_threshold: 0 },
    };

    let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
    let service =
        PersonaService::recover(rt, ServiceConfig::default(), &wal, batched(&fx)).unwrap();
    service.register_dataset("landed", manifest.clone()).unwrap();
    service.sync_journal().unwrap();
    let crash_wal = tmp.0.join("crash.wal");
    std::fs::copy(&wal, &crash_wal).unwrap();
    drop(service);

    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let recovered =
        PersonaService::recover(rt, ServiceConfig::default(), &crash_wal, batched(&fx)).unwrap();
    assert_eq!(recovered.dataset("landed"), Some(manifest));
}

/// A bare `finished` record for a cancelled job.
fn cancelled(job_id: u64) -> JournalRecord {
    JournalRecord::Finished {
        job_id,
        name: format!("j{job_id}"),
        tenant: "lab".into(),
        status: TerminalStatus::Cancelled,
        error: None,
        plan: None,
        manifest: None,
    }
}

/// Recovery rebuilds only the jobs the retention rule keeps: of
/// `JOB_RETAIN + 2` finished jobs, the newest `JOB_RETAIN`.
#[test]
fn recovery_rebuilds_only_the_newest_job_retain_terminal_jobs() {
    let fx = Fixture::new(53, 10);
    let tmp = TmpDir::new("retain");
    let wal = tmp.0.join("service.wal");
    let mut journal =
        Journal::open(&wal, JournalConfig { fsync: FsyncPolicy::Never, compact_threshold: 0 })
            .unwrap();
    let finished = (JOB_RETAIN + 2) as u64;
    for job_id in 1..=finished {
        journal.append(&cancelled(job_id)).unwrap();
    }
    journal.sync().unwrap();
    drop(journal);

    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let service = service_over(&store, &wal, &fx);
    let recovered = service.recovered_jobs();
    assert_eq!(recovered.len(), JOB_RETAIN);
    assert_eq!(recovered[0].id(), 3);
    assert!(service.job(1).is_none());
    assert!(service.job(2).is_none());
    assert_eq!(service.job(finished).map(|h| h.status()), Some(JobStatus::Cancelled));
}

/// The registry forgets ended jobs in the order they ended, and so
/// does a restart: of `JOB_RETAIN + 1` jobs where job 2 ended before
/// job 1, recovery forgets job 2, as the running service did.
#[test]
fn eviction_order_survives_a_restart() {
    let fx = Fixture::new(59, 10);
    let tmp = TmpDir::new("end-order");
    let wal = tmp.0.join("service.wal");
    let mut journal =
        Journal::open(&wal, JournalConfig { fsync: FsyncPolicy::Never, compact_threshold: 0 })
            .unwrap();
    let last = (JOB_RETAIN + 1) as u64;
    for job_id in [2, 1].into_iter().chain(3..=last) {
        journal.append(&cancelled(job_id)).unwrap();
    }
    journal.sync().unwrap();
    drop(journal);

    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let service = service_over(&store, &wal, &fx);
    assert!(service.job(2).is_none(), "the earliest-ended job is kept after the restart");
    assert_eq!(service.job(1).map(|h| h.status()), Some(JobStatus::Cancelled));
    assert_eq!(service.recovered_jobs().len(), JOB_RETAIN);
}

/// Compaction keeps what recovery needs to re-export a completed job:
/// recovered from the compacted journal, it serves the same SAM as
/// from the uncompacted one.
#[test]
fn a_completed_job_re_exports_after_compaction() {
    let fx = Fixture::new(37, 150);
    let tmp = TmpDir::new("re-export");
    let wal = tmp.0.join("service.wal");
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let recovered_sam = |id: u64| {
        let service = service_over(&store, &wal, &fx);
        let outcome = service.job(id).expect("the completed job is retained").wait();
        outcome.output().expect("the job stays completed").sam.clone()
    };

    let (id, sam) = {
        let service = service_over(&store, &wal, &fx);
        let handle = service.submit(spec(&fx, "sample")).unwrap();
        let outcome = handle.wait();
        (handle.id(), outcome.output().expect("the job completes").sam.clone())
    };
    assert!(!sam.is_empty());
    assert_eq!(recovered_sam(id), sam, "re-export from the uncompacted journal");

    Journal::open(&wal, JournalConfig { fsync: FsyncPolicy::Always, compact_threshold: 0 })
        .unwrap()
        .compact()
        .unwrap();
    let compacted = recovered_sam(id);
    assert_eq!(compacted.len(), sam.len(), "SAM bytes re-exported from the compacted journal");
    assert_eq!(compacted, sam);
}
