//! Kill-and-restart crash recovery: a durable job service is killed
//! mid-plan (a real `abort()`, not a clean shutdown) and a fresh
//! process recovers from the write-ahead journal, resumes the job at
//! its last journaled stage, and produces output byte-identical to an
//! uninterrupted run.
//!
//! The example re-executes itself as the victim: the parent spawns a
//! child (`PERSONA_RECOVERY_CHILD=<dir>`) that starts a durable
//! service over an on-disk chunk store, submits a full pipeline, and
//! calls `std::process::abort()` the moment the journal records the
//! `sort` stage landing. The parent then recovers a new service from
//! the same directory and verifies the resumed job's SAM against a
//! reference run that was never interrupted. Last it compacts the
//! journal, recovers once more, and checks that the completed job
//! re-exports the same SAM from its dataset in the on-disk store.
//!
//! Run: `cargo run -p persona-examples --release --example recovery [n_reads]`

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use persona::config::PersonaConfig;
use persona::plan::Stage;
use persona::runtime::PersonaRuntime;
use persona_agd::chunk_io::{ChunkStore, DirStore, MemStore};
use persona_dataflow::Priority;
use persona_examples::DemoWorld;
use persona_formats::fastq;
use persona_server::journal::{FsyncPolicy, Journal, JournalConfig, JournalRecord};
use persona_server::{JobInput, JobSpec, PersonaService, Plan, RecoverOptions, ServiceConfig};

const CHILD_ENV: &str = "PERSONA_RECOVERY_CHILD";
const READS_ENV: &str = "PERSONA_RECOVERY_READS";
const JOB_NAME: &str = "crash-sample";
const CHUNK_SIZE: usize = 400;

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("service.wal")
}

fn durable_service(dir: &Path, world: &DemoWorld) -> PersonaService {
    let store: Arc<dyn ChunkStore> =
        Arc::new(DirStore::open(dir.join("store")).expect("open chunk store"));
    let rt = PersonaRuntime::new(store, PersonaConfig::default()).expect("runtime");
    PersonaService::recover(
        rt,
        ServiceConfig::default(),
        wal_path(dir),
        RecoverOptions {
            aligner: Some(world.aligner.clone()),
            // Every acknowledged transition must hit the disk before
            // the abort can happen — the whole point of the demo.
            journal: JournalConfig { fsync: FsyncPolicy::Always, compact_threshold: 0 },
        },
    )
    .expect("recover service")
}

fn spec(world: &DemoWorld) -> JobSpec {
    JobSpec {
        name: JOB_NAME.to_string(),
        tenant: "lab".to_string(),
        priority: Priority::Normal,
        plan: Plan::full(),
        input: JobInput::Fastq(fastq::to_bytes(&world.reads)),
        chunk_size: CHUNK_SIZE,
        aligner: Some(world.aligner.clone()),
        reference: world.reference.clone(),
    }
}

/// The victim: submit the pipeline, then die the instant the journal
/// shows the `sort` stage landed — strictly mid-plan, dupmark and
/// export still ahead.
fn child(dir: &Path, world: &DemoWorld) -> ! {
    let service = durable_service(dir, world);
    let handle = service.submit(spec(world)).expect("submit");
    eprintln!(
        "[child] submitted job {} ({} reads), waiting for sort...",
        handle.id(),
        world.reads.len()
    );
    loop {
        let replayed = Journal::read(wal_path(dir)).expect("read own journal");
        let sorted = replayed
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::StageCompleted { stage: Stage::Sort, .. }));
        if sorted {
            eprintln!("[child] sort journaled — aborting mid-plan");
            std::process::abort();
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn main() {
    let n_reads: usize = std::env::var(READS_ENV)
        .ok()
        .or_else(|| std::env::args().nth(1))
        .map(|a| a.parse().expect("n_reads must be a number"))
        .unwrap_or(4_000);
    let world = DemoWorld::new(n_reads);

    if let Ok(dir) = std::env::var(CHILD_ENV) {
        child(Path::new(&dir), &world);
    }

    // The uninterrupted reference: same world, same plan, in-memory.
    let reference_sam = {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let rt = PersonaRuntime::new(store, PersonaConfig::default()).expect("runtime");
        let service = PersonaService::new(rt, ServiceConfig::default());
        let outcome = service.submit(spec(&world)).expect("submit reference").wait();
        outcome.output().expect("reference run completes").sam.clone()
    };
    println!("reference run: {} bytes of SAM", reference_sam.len());

    let dir = std::env::temp_dir().join(format!("persona-recovery-demo-{}", std::process::id()));
    let exe = std::env::current_exe().expect("current exe");

    // Kill a child mid-plan. Retried in the (unlikely) event the job
    // outruns the kill signal entirely.
    let mut crashed = false;
    for attempt in 1..=3 {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work dir");
        let status = std::process::Command::new(&exe)
            .env(CHILD_ENV, &dir)
            .env(READS_ENV, n_reads.to_string())
            .status()
            .expect("spawn child");
        assert!(!status.success(), "child is supposed to die, got {status:?}");
        let replayed = Journal::read(wal_path(&dir)).expect("read crash journal");
        let finished = replayed.records.iter().any(|r| matches!(r, JournalRecord::Finished { .. }));
        let stages: Vec<&str> = replayed
            .records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::StageCompleted { stage, .. } => Some(stage.name()),
                _ => None,
            })
            .collect();
        if !finished && stages.contains(&"sort") {
            println!(
                "child killed mid-plan (attempt {attempt}): journal holds {} records, stages {:?}",
                replayed.records.len(),
                stages
            );
            crashed = true;
            break;
        }
        eprintln!("attempt {attempt}: job outran the abort; retrying");
    }
    assert!(crashed, "could not catch the child mid-plan in 3 attempts");

    // A new process recovers the same directory: the job resumes at
    // the journaled sort manifest — import and align never re-run.
    let service = durable_service(&dir, &world);
    let recovered = service.recovered_jobs();
    assert_eq!(recovered.len(), 1, "journal knows exactly the one job");
    let handle = &recovered[0];
    println!("recovered job {} ({}), resuming...", handle.id(), handle.name());
    let outcome = handle.wait();
    let output = outcome.output().expect("resumed job completes");
    assert_eq!(
        output.sam, reference_sam,
        "resumed output must be byte-identical to the uninterrupted run"
    );
    println!(
        "resumed job completed: {} bytes of SAM, byte-identical to the uninterrupted run",
        output.sam.len()
    );
    let job_id = handle.id();
    drop(recovered);
    drop(service);

    // The compacted journal keeps the completed job's `finished` record
    // alone; it names the plan and the final dataset, so a service
    // recovered from it re-exports the same bytes.
    let config = JournalConfig { fsync: FsyncPolicy::Always, compact_threshold: 0 };
    Journal::open(wal_path(&dir), config).expect("open journal").compact().expect("compact");
    let service = durable_service(&dir, &world);
    let outcome = service.job(job_id).expect("the completed job is kept").wait();
    let sam = &outcome.output().expect("the job stays completed").sam;
    assert_eq!(sam, &reference_sam, "re-export after compaction must be byte-identical");
    println!(
        "after compaction: job {job_id} re-exports {} bytes of SAM, byte-identical",
        sam.len()
    );
    drop(service);

    let _ = std::fs::remove_dir_all(&dir);
}
