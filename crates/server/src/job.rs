//! Job lifecycle: specs, states, outcomes and the client handle.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use persona::plan::{Plan, PlanReport};
use persona_agd::manifest::Manifest;
use persona_align::Aligner;
use persona_dataflow::{CancelToken, Priority};
use persona_telemetry::JobTrace;

/// What a job consumes, matched against its plan's input state at
/// submit time.
pub enum JobInput {
    /// Raw FASTQ bytes (plans whose input state is
    /// [`persona::plan::DataState::Fastq`]).
    Fastq(Vec<u8>),
    /// An existing AGD dataset in the service's shared store (plans
    /// starting from an encoded/aligned/sorted dataset).
    Dataset(Manifest),
}

/// A client's job submission: the input, the composed stage plan, and
/// who is asking at what priority.
pub struct JobSpec {
    /// Dataset name; object names in the shared store are derived from
    /// it, so it must be unique among live jobs.
    pub name: String,
    /// The submitting tenant (fair-share accounting unit).
    pub tenant: String,
    /// Executor dispatch priority for every batch of this job.
    pub priority: Priority,
    /// The composed stage plan to run (see [`Plan::builder`] and the
    /// presets; a serialized plan deserializes straight into this).
    pub plan: Plan,
    /// The input; must match `plan.input()`.
    pub input: JobInput,
    /// Records per AGD chunk (FASTQ inputs only).
    pub chunk_size: usize,
    /// The aligner resource (shared across jobs is fine and typical);
    /// required iff the plan contains an align stage.
    pub aligner: Option<Arc<dyn Aligner>>,
    /// `(contig, length)` reference metadata recorded at alignment.
    pub reference: Vec<(String, u64)>,
}

pub use persona::wire::WireJobStatus as JobStatus;

/// What a finished job produced. Output fields are per-plan: each is
/// populated exactly when the plan contains the stage that produces
/// it, never by plan-shape special cases.
#[derive(Debug)]
pub struct JobOutput {
    /// Exported SAM text; non-empty iff the plan ran an `export-sam`
    /// stage (duplicate-marked when the plan also ran `dupmark`).
    pub sam: Vec<u8>,
    /// Exported BGZF BAM; non-empty iff the plan ran `export-bam`.
    pub bam: Vec<u8>,
    /// Manifest of the plan's final dataset state (sorted if the plan
    /// sorted, else the imported/aligned dataset; a job resumed after a
    /// restart, the dataset it resumed from when its plan suffix lands
    /// none). `None` for plans over an existing dataset that produced
    /// no new one — the caller already holds the input manifest.
    pub manifest: Option<Manifest>,
    /// Per-stage reports for exactly the stages that ran, in plan
    /// order. Exported payloads are *moved out* of this report into
    /// [`JobOutput::sam`] / [`JobOutput::bam`], so `report.sam` and
    /// `report.bam` are always `None` here — read the bytes from the
    /// output, the timings from the report.
    pub report: PlanReport,
    /// Reads processed.
    pub reads: u64,
    /// Time spent queued before dispatch.
    pub queue_wait: Duration,
    /// Wall-clock run time (dispatch to completion).
    pub elapsed: Duration,
}

/// Terminal state of a job.
#[derive(Debug)]
pub enum JobOutcome {
    /// The job ran to completion.
    Completed(JobOutput),
    /// The job failed; the message describes the first error.
    Failed(String),
    /// The job was cancelled before completing.
    Cancelled,
}

impl JobOutcome {
    /// The output, if the job completed.
    pub fn output(&self) -> Option<&JobOutput> {
        match self {
            JobOutcome::Completed(out) => Some(out),
            _ => None,
        }
    }

    /// The matching terminal status.
    pub fn status(&self) -> JobStatus {
        match self {
            JobOutcome::Completed(_) => JobStatus::Completed,
            JobOutcome::Failed(_) => JobStatus::Failed,
            JobOutcome::Cancelled => JobStatus::Cancelled,
        }
    }
}

/// The parts of a spec the runner consumes when the job dispatches.
pub(crate) struct JobPayload {
    pub plan: Plan,
    pub input: JobInput,
    pub chunk_size: usize,
    pub aligner: Option<Arc<dyn Aligner>>,
    pub reference: Vec<(String, u64)>,
    /// A resumed job's dataset from before the restart: its final
    /// manifest when the plan suffix lands no newer one.
    pub landed: Option<Manifest>,
}

pub(crate) enum JobState {
    Queued,
    Running,
    Done(Arc<JobOutcome>),
}

/// A one-shot completion callback (see [`JobHandle::on_done`]).
type Watcher = Box<dyn FnOnce(Arc<JobOutcome>) + Send>;

/// One admitted job, shared between the handle, the scheduler and the
/// runner.
pub(crate) struct Job {
    pub id: u64,
    pub name: String,
    pub tenant: String,
    pub priority: Priority,
    pub cancel: CancelToken,
    pub submitted: Instant,
    pub state: Mutex<JobState>,
    pub done_cv: Condvar,
    pub payload: Mutex<Option<JobPayload>>,
    /// The job's span recorder, set by its runner before the job is
    /// seen running; unset for a job that never dispatched.
    pub trace: OnceLock<Arc<JobTrace>>,
    /// Completion callbacks, fired exactly once by [`Job::finish`].
    pub watchers: Mutex<Vec<Watcher>>,
}

impl Job {
    /// A queued job. `payload` is `None` for a job that never runs: a
    /// recovered one that is finished at once, or a scheduler test's.
    pub fn new(
        id: u64,
        name: String,
        tenant: String,
        priority: Priority,
        payload: Option<JobPayload>,
    ) -> Arc<Job> {
        Arc::new(Job {
            id,
            name,
            tenant,
            priority,
            cancel: CancelToken::new(),
            submitted: Instant::now(),
            state: Mutex::new(JobState::Queued),
            done_cv: Condvar::new(),
            payload: Mutex::new(payload),
            trace: OnceLock::new(),
            watchers: Mutex::new(Vec::new()),
        })
    }

    pub fn status(&self) -> JobStatus {
        match &*self.state.lock() {
            JobState::Queued => JobStatus::Queued,
            JobState::Running => JobStatus::Running,
            JobState::Done(outcome) => outcome.status(),
        }
    }

    /// Moves the job to its terminal state, wakes every waiter and
    /// fires every registered completion watcher; a no-op if it was
    /// already finished.
    pub fn finish(&self, outcome: JobOutcome) {
        let outcome = Arc::new(outcome);
        let mut state = self.state.lock();
        if matches!(*state, JobState::Done(_)) {
            return;
        }
        *state = JobState::Done(outcome.clone());
        drop(state);
        self.done_cv.notify_all();
        // Watchers registered after this drain saw `Done` under the
        // state lock and fired immediately (see `add_watcher`), so
        // every watcher runs exactly once.
        let watchers = std::mem::take(&mut *self.watchers.lock());
        for watcher in watchers {
            watcher(outcome.clone());
        }
    }

    /// Registers a completion callback. If the job is already
    /// terminal the callback fires immediately on the calling thread;
    /// otherwise it fires on whichever thread calls [`Job::finish`].
    /// The watcher list is pushed under the state lock so a
    /// concurrently finishing job cannot miss the registration.
    pub fn add_watcher(&self, watcher: impl FnOnce(Arc<JobOutcome>) + Send + 'static) {
        let state = self.state.lock();
        if let JobState::Done(outcome) = &*state {
            let outcome = outcome.clone();
            drop(state);
            watcher(outcome);
            return;
        }
        // Still holding the state lock: `finish` cannot have swapped
        // the state yet, so it has not drained the watcher list.
        self.watchers.lock().push(Box::new(watcher));
    }

    pub fn wait(&self) -> Arc<JobOutcome> {
        let mut state = self.state.lock();
        loop {
            if let JobState::Done(outcome) = &*state {
                return outcome.clone();
            }
            self.done_cv.wait(&mut state);
        }
    }
}

/// The client's handle to a submitted job.
#[derive(Clone)]
pub struct JobHandle {
    pub(crate) job: Arc<Job>,
    pub(crate) service: std::sync::Weak<crate::service::Shared>,
}

impl JobHandle {
    /// Service-assigned job id.
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// The job's dataset name.
    pub fn name(&self) -> &str {
        &self.job.name
    }

    /// The submitting tenant.
    pub fn tenant(&self) -> &str {
        &self.job.tenant
    }

    /// Current lifecycle state.
    pub fn status(&self) -> JobStatus {
        self.job.status()
    }

    /// Blocks until the job reaches a terminal state.
    pub fn wait(&self) -> Arc<JobOutcome> {
        self.job.wait()
    }

    /// Registers a completion callback instead of blocking: fires
    /// immediately (on this thread) if the job is already terminal,
    /// otherwise exactly once from the thread that finishes the job.
    /// This is how event-driven callers (the wire front end's
    /// readiness loop) follow jobs without parking a thread per wait.
    pub fn on_done(&self, watcher: impl FnOnce(Arc<JobOutcome>) + Send + 'static) {
        self.job.add_watcher(watcher);
    }

    /// Requests cancellation. A queued job resolves to
    /// [`JobOutcome::Cancelled`] immediately and frees its queue slot;
    /// a running job stops scheduling new executor batches (its queued
    /// batches are dropped unrun) and resolves as soon as its in-flight
    /// tasks drain. Idempotent; a no-op on finished jobs.
    pub fn cancel(&self) {
        self.job.cancel.cancel();
        if let Some(service) = self.service.upgrade() {
            service.cancel_queued(&self.job);
        }
    }
}
