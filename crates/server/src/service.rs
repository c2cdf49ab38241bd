//! The multi-tenant job service: a fixed pool of job runners over one
//! shared [`PersonaRuntime`].
//!
//! [`PersonaService::submit`] validates a [`JobSpec`] (plan/input
//! coherence, through the same `Plan` helpers `Plan::run` uses) and
//! enqueues it with the `FairScheduler`. `max_concurrent_jobs`
//! long-lived runner threads each take the next job the scheduler
//! grants and execute its plan on the shared runtime; no thread is
//! started per job. However a job ends — run to its end, cancelled in
//! the queue or before it started, drained at shutdown, refused at
//! recovery — it ends through one path that journals the outcome,
//! tallies it and only then resolves the caller's [`JobHandle`].
//! Every job the service creates is kept in one registry, under one
//! retention rule ([`JOB_RETAIN`]).
//! Each tenant's totals (job counts, reads, queue wait, run time and
//! busy time, the sum of its jobs' stage busy) live in its one record
//! in the scheduler, which [`PersonaService::report`] reads. Both the
//! in-process API and the TCP front end ([`crate::wire::WireServer`])
//! go through this same `submit` path, which is what makes their
//! outputs byte-identical.
//!
//! # Durability
//!
//! A service opened with [`PersonaService::recover`] journals every
//! lifecycle transition through a [`crate::journal::Journal`]
//! *before* acting on it — submission (with the full spec), dispatch,
//! each stage that lands durable dataset state, and the terminal
//! outcome — so a crashed service rebuilds from replay: completed
//! jobs are never re-admitted, queued jobs re-enter the fair-share
//! scheduler in submission order under their original tenant, and a
//! job interrupted mid-plan resumes at its last journaled stage by
//! running the plan suffix against the journaled intermediate
//! manifest. Job ids are preserved across recovery, so a wire client
//! reconnecting after a restart resolves `status`/`wait` on the ids
//! it already holds. `docs/DURABILITY.md` specifies the record
//! format and the recovery invariants.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use persona::plan::{Plan, PlanReport, PlanRequest, PlanSource, Stage};
use persona::runtime::{JobContext, PersonaRuntime};
use persona::{Error, Result};
use persona_agd::chunk_io::check_object_name;
use persona_agd::manifest::Manifest;
use persona_align::Aligner;
use persona_cache::{CacheEvent, CacheStats, Digest, ResultCache};
use persona_dataflow::Priority;
use persona_telemetry::{JobTrace, MetricsSnapshot};

use crate::job::{Job, JobHandle, JobInput, JobOutcome, JobOutput, JobPayload, JobSpec, JobState};
pub use crate::journal::JOB_RETAIN;
use crate::journal::{
    JobRecord, Journal, JournalConfig, JournalRecord, RecordedInput, RecordedSpec, Retained,
    TerminalStatus,
};
use crate::report::ServiceReport;
use crate::scheduler::{FairScheduler, TenantConfig};

/// Service-level knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Jobs running concurrently on the shared runtime. More jobs in
    /// flight means more overlap feeding the executor, at the cost of
    /// per-job memory; the executor itself is always fully shared.
    pub max_concurrent_jobs: usize,
    /// Config applied to tenants that were not explicitly registered.
    pub default_tenant: TenantConfig,
    /// Result-cache capacity in entries; `0` disables the cache. When
    /// enabled, jobs consult the content-addressed result cache before
    /// executing and register every durably-landed stage output, so a
    /// resubmitted plan sharing a prefix with earlier work runs only
    /// its uncached suffix (see `docs/CACHING.md`). Per-tenant opt-out
    /// via [`TenantConfig::cache_opt_out`].
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_concurrent_jobs: 4,
            default_tenant: TenantConfig::default(),
            cache_capacity: 0,
        }
    }
}

impl ServiceConfig {
    /// The default config with the result cache enabled at `capacity`.
    pub fn with_cache(capacity: usize) -> ServiceConfig {
        ServiceConfig { cache_capacity: capacity, ..ServiceConfig::default() }
    }
}

pub(crate) struct Shared {
    rt: Arc<PersonaRuntime>,
    sched: Mutex<FairScheduler>,
    /// Wakes idle runners: new work, a freed slot, or shutdown.
    work_cv: Condvar,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    started: Instant,
    /// The write-ahead journal, when the service is durable
    /// ([`PersonaService::recover`]); `None` for a purely in-memory
    /// service.
    journal: Option<Mutex<Journal>>,
    /// Dataset catalog: name → manifest. Journaled through the WAL, so
    /// dataset-input submissions survive restarts.
    catalog: Mutex<HashMap<String, Manifest>>,
    /// Every job the service answers for: the live ones and the
    /// [`JOB_RETAIN`] that ended last.
    registry: Mutex<Retained<Arc<Job>>>,
    /// The plan-aware result cache, when enabled
    /// ([`ServiceConfig::cache_capacity`] > 0). Mutations mirror into
    /// the journal through the cache's listener, so warm entries
    /// survive [`PersonaService::recover`].
    cache: Option<Arc<ResultCache>>,
}

impl Shared {
    fn create(
        rt: Arc<PersonaRuntime>,
        config: &ServiceConfig,
        journal: Option<Journal>,
        catalog: HashMap<String, Manifest>,
        next_id: u64,
    ) -> Arc<Shared> {
        let mut sched = FairScheduler::new(config.max_concurrent_jobs, config.default_tenant);
        sched.set_telemetry(rt.telemetry().clone());
        let journal = journal.map(|mut j| {
            j.set_telemetry(rt.telemetry());
            j
        });
        let cache =
            (config.cache_capacity > 0).then(|| Arc::new(ResultCache::new(config.cache_capacity)));
        let shared = Arc::new(Shared {
            rt,
            sched: Mutex::new(sched),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(next_id),
            started: Instant::now(),
            journal: journal.map(Mutex::new),
            catalog: Mutex::new(catalog),
            registry: Mutex::new(Retained::default()),
            cache,
        });
        // Mirror every cache mutation into the journal (best-effort,
        // like other non-write-ahead records): an insert that outlives
        // the process rewarms on recovery, an evicted or invalidated
        // key is forgotten there too.
        if let Some(cache) = &shared.cache {
            let weak = Arc::downgrade(&shared);
            cache.set_listener(move |event| {
                if let Some(shared) = weak.upgrade() {
                    let record = match event {
                        CacheEvent::Inserted { key, entry } => {
                            JournalRecord::CacheInsert { key: key.clone(), entry: entry.clone() }
                        }
                        CacheEvent::Evicted { key, .. } => {
                            JournalRecord::CacheEvict { key: key.clone() }
                        }
                    };
                    shared.journal_note(&record);
                }
            });
        }
        shared
    }

    /// The cache a job of `tenant` should use: the service cache,
    /// unless it is disabled or the tenant opted out.
    fn cache_for(&self, tenant: &str) -> Option<Arc<ResultCache>> {
        let cache = self.cache.as_ref()?;
        if self.sched.lock().tenant_config(tenant).cache_opt_out {
            return None;
        }
        Some(Arc::clone(cache))
    }

    /// Adds a job the service just created to the registry.
    fn register(&self, job: &Arc<Job>) {
        self.registry.lock().by_id.insert(job.id, job.clone());
    }

    /// Resolves a still-queued job as cancelled (called from
    /// [`JobHandle::cancel`]). Running jobs are handled by their
    /// runner when the cooperative cancellation unwinds; their queued
    /// executor batches are purged eagerly so a low-priority job's
    /// tasks don't wait out sustained higher-priority load just to be
    /// skipped.
    pub(crate) fn cancel_queued(&self, job: &Arc<Job>) {
        let removed = self.sched.lock().remove_queued(job);
        if removed {
            self.resolve(job, JobOutcome::Cancelled);
        } else {
            self.rt.executor().drain_cancelled();
        }
    }

    /// Counts `job` as submitted and queues it for the runners. A job
    /// admitted once shutdown has begun resolves as cancelled instead:
    /// the flag is read under the scheduler lock that [`PersonaService::stop`]
    /// sets it under, so a job is either queued before `stop` drains the
    /// queue or sees the flag, and never waits in a queue no one drains.
    fn admit(&self, job: &Arc<Job>) {
        let mut sched = self.sched.lock();
        sched.totals(&job.tenant).submitted += 1;
        if self.shutdown.load(Ordering::SeqCst) {
            drop(sched);
            return self.resolve(job, JobOutcome::Cancelled);
        }
        sched.enqueue(job.clone());
        self.work_cv.notify_all();
    }

    /// Ends `job`; every terminal path goes through here. In order: a
    /// completed job's final manifest is journaled as a `dataset` and
    /// then cataloged under the job name, `finished` is journaled (with
    /// a completed job's plan and final manifest), the
    /// tenant's totals grow, the handle resolves and the job's slot is
    /// freed — so a client never observes an outcome the journal does
    /// not hold. The registry counts the job as ended just before it
    /// resolves. The caller owns the job alone (it took it off the
    /// queue, or ran it), so a job resolves once.
    fn resolve(&self, job: &Job, outcome: JobOutcome) {
        // A job that never ran still holds its input.
        drop(job.payload.lock().take());
        let (status, error) = match &outcome {
            JobOutcome::Completed(output) => {
                if let Some(manifest) = &output.manifest {
                    let name = job.name.clone();
                    let record = JournalRecord::Dataset { name, manifest: manifest.clone() };
                    if self.journal_append(&record).is_ok() {
                        self.catalog.lock().insert(job.name.clone(), manifest.clone());
                    }
                }
                (TerminalStatus::Completed, None)
            }
            JobOutcome::Failed(msg) => (TerminalStatus::Failed, Some(msg.clone())),
            JobOutcome::Cancelled => (TerminalStatus::Cancelled, None),
        };
        self.journal_note(&JournalRecord::Finished {
            job_id: job.id,
            name: job.name.clone(),
            tenant: job.tenant.clone(),
            status,
            error,
            plan: outcome.output().map(|output| output.report.plan.clone()),
            manifest: outcome.output().and_then(|output| output.manifest.clone()),
        });
        {
            let mut sched = self.sched.lock();
            let totals = sched.totals(&job.tenant);
            match status {
                TerminalStatus::Completed => totals.completed += 1,
                TerminalStatus::Failed => totals.failed += 1,
                TerminalStatus::Cancelled => totals.cancelled += 1,
            }
            totals.reads += outcome.output().map_or(0, |output| output.reads);
        }
        self.registry.lock().end(job.id);
        job.finish(outcome);
        self.sched.lock().job_finished(job);
        self.work_cv.notify_all();
    }

    /// Appends to the journal, when one is configured. Write-ahead
    /// call sites propagate the error (the action must not happen if
    /// its record cannot land); everything else goes through
    /// [`Shared::journal_note`].
    fn journal_append(&self, record: &JournalRecord) -> Result<()> {
        match &self.journal {
            Some(journal) => journal.lock().append(record),
            None => Ok(()),
        }
    }

    /// Best-effort journaling: a failed append must not take down the
    /// job that caused it, and replay degrades gracefully — a lost
    /// stage record means a longer resume, a lost terminal record
    /// means one idempotent re-run.
    fn journal_note(&self, record: &JournalRecord) {
        let _ = self.journal_append(record);
    }
}

/// A multi-tenant job service over one shared [`PersonaRuntime`].
///
/// Every job it creates, submitted or recovered, is in one registry
/// under the [`JOB_RETAIN`] rule; a caller's [`JobHandle`] keeps its
/// job whatever the registry forgets.
///
/// Dropping the service stops admitting work, cancels queued jobs, and
/// joins all in-flight jobs.
pub struct PersonaService {
    shared: Arc<Shared>,
    /// The job runners, `max_concurrent_jobs` of them.
    runners: Mutex<Vec<JoinHandle<()>>>,
    /// The id watermark [`PersonaService::recover`] replayed: the
    /// retained jobs below it are the recovered ones.
    recovered_below: u64,
    /// Makes [`PersonaService::submit`] stop the service between its
    /// journal append and the admission: the race a concurrent `stop`
    /// can win.
    #[cfg(test)]
    stop_before_admit: AtomicBool,
}

/// How [`PersonaService::recover`] rebuilds jobs the journal left
/// unfinished.
#[derive(Default)]
pub struct RecoverOptions {
    /// The aligner handed to recovered plans that contain an align
    /// stage. An aligner is a process resource (index memory, kernel
    /// state) and cannot be journaled, so recovery re-injects it; a
    /// recovered job whose plan aligns fails at re-admission if this
    /// is `None`.
    pub aligner: Option<Arc<dyn Aligner>>,
    /// Journal knobs for the recovered service.
    pub journal: JournalConfig,
}

impl PersonaService {
    /// Starts an in-memory service over `rt` (no journal; a crash
    /// loses all job state). See [`PersonaService::recover`] for the
    /// durable variant.
    pub fn new(rt: Arc<PersonaRuntime>, config: ServiceConfig) -> PersonaService {
        let shared = Shared::create(rt, &config, None, HashMap::new(), 1);
        let runners = Mutex::new(spawn_runners(&shared, config.max_concurrent_jobs));
        PersonaService {
            shared,
            runners,
            recovered_below: 0,
            #[cfg(test)]
            stop_before_admit: AtomicBool::new(false),
        }
    }

    /// Opens (or creates) the write-ahead journal at `path`, replays
    /// it, and starts a durable service continuing exactly where the
    /// journaled one stopped:
    ///
    /// - **Terminal jobs are never re-admitted.** The [`JOB_RETAIN`]
    ///   the journal keeps resolve from their `finished` records and
    ///   enter the registry in the order they ended (see
    ///   [`PersonaService::recovered_jobs`]). A completed job keeps its
    ///   journaled final manifest; the completed job of a name that
    ///   ended last re-creates its exported bytes from that dataset, an
    ///   earlier one gets none (the later job's objects replaced its
    ///   own). Stage timings did not survive the crash and come back
    ///   empty.
    /// - **Queued jobs re-enter the scheduler** in submission order
    ///   under their original tenant, priority and id.
    /// - **Jobs interrupted mid-plan resume at the last journaled
    ///   stage**: the plan suffix after it is rebuilt against the
    ///   journaled intermediate manifest, so already-landed stages
    ///   never re-run. Store writes are create-or-replace, which
    ///   makes the resumed suffix idempotent with the crashed run.
    /// - **Job ids are preserved** (the id watermark replays too), so
    ///   wire clients reconnecting after a restart resolve
    ///   `status`/`wait` on ids they already hold.
    ///
    /// On a fresh `path` this is simply how a durable service starts.
    pub fn recover(
        rt: Arc<PersonaRuntime>,
        config: ServiceConfig,
        path: impl Into<PathBuf>,
        opts: RecoverOptions,
    ) -> Result<PersonaService> {
        let journal = Journal::open(path, opts.journal)?;
        let state = journal.state().clone();
        let catalog = state.datasets().map(|(name, m)| (name.to_string(), m.clone())).collect();
        let shared = Shared::create(rt, &config, Some(journal), catalog, state.next_id());
        // Rewarm the result cache from the journaled entries: a hit
        // that landed before the crash is a hit after it. The rewarm
        // goes through the normal insert path, so over-capacity
        // replays LRU-trim themselves and re-journal consistently.
        if let Some(cache) = &shared.cache {
            for (key, entry) in state.cache_entries() {
                cache.insert(key.clone(), entry.clone());
            }
        }
        // Ended jobs enter the registry in the order they ended, so it
        // forgets them as the crashed service would have; they journal
        // and tally nothing. A later job of a name replaced an earlier
        // one's objects, so only the last completed one re-exports.
        let completed = |job: &&JobRecord| {
            matches!(
                job.terminal,
                Some(JournalRecord::Finished { status: TerminalStatus::Completed, .. })
            )
        };
        let newest: HashMap<&str, u64> =
            state.ended().filter(completed).map(|job| (job.name.as_str(), job.id)).collect();
        for record in state.ended() {
            let job = replayed_job(record, None, &shared);
            let newest = newest.get(record.name.as_str()) == Some(&record.id);
            job.finish(recovered_outcome(record, newest, &shared));
            shared.registry.lock().end(job.id);
        }
        for record in state.jobs() {
            if let Some(spec) = &record.spec {
                requeue_job(record, spec, &shared, &opts);
            }
        }
        let runners = Mutex::new(spawn_runners(&shared, config.max_concurrent_jobs));
        Ok(PersonaService {
            shared,
            runners,
            recovered_below: state.next_id(),
            #[cfg(test)]
            stop_before_admit: AtomicBool::new(false),
        })
    }

    /// The jobs the journal knew about at recovery that the registry
    /// still holds, in submission order — terminal ones pre-resolved,
    /// unfinished ones re-queued (a resumed job's handle behaves
    /// exactly like a fresh one: `status`, `wait`, `cancel`). Empty for
    /// [`PersonaService::new`] services.
    pub fn recovered_jobs(&self) -> Vec<JobHandle> {
        let mut jobs = self.jobs();
        jobs.retain(|handle| handle.id() < self.recovered_below);
        jobs
    }

    /// The job with service id `id`, while the registry holds it: live,
    /// or among the [`JOB_RETAIN`] terminal jobs that ended last.
    pub fn job(&self, id: u64) -> Option<JobHandle> {
        let job = self.shared.registry.lock().by_id.get(&id).cloned()?;
        Some(JobHandle { job, service: Arc::downgrade(&self.shared) })
    }

    /// Every job the registry holds, in id (= submission) order.
    pub fn jobs(&self) -> Vec<JobHandle> {
        let registry = self.shared.registry.lock();
        let handle =
            |job: &Arc<Job>| JobHandle { job: job.clone(), service: Arc::downgrade(&self.shared) };
        registry.by_id.values().map(handle).collect()
    }

    /// Registers `manifest` in the dataset catalog under `name`,
    /// journaling the entry (write-ahead) so dataset-input submissions
    /// against it survive restarts. Re-registering a name replaces it.
    pub fn register_dataset(&self, name: &str, manifest: Manifest) -> Result<()> {
        self.shared.journal_append(&JournalRecord::Dataset {
            name: name.to_string(),
            manifest: manifest.clone(),
        })?;
        self.shared.catalog.lock().insert(name.to_string(), manifest);
        Ok(())
    }

    /// Looks up a catalog dataset. Completed jobs that landed a final
    /// manifest register it automatically under the job name.
    pub fn dataset(&self, name: &str) -> Option<Manifest> {
        self.shared.catalog.lock().get(name).cloned()
    }

    /// Forces any batched journal appends to disk (a no-op for
    /// in-memory services and under [`crate::journal::FsyncPolicy::Always`]).
    pub fn sync_journal(&self) -> Result<()> {
        match &self.shared.journal {
            Some(journal) => journal.lock().sync(),
            None => Ok(()),
        }
    }

    /// Registers (or re-configures) a tenant's weight and in-flight
    /// bound. Tenants submit without registration too, at the default
    /// config.
    pub fn set_tenant(&self, name: &str, config: TenantConfig) {
        self.shared.sched.lock().set_tenant(name, config);
    }

    /// Admits a job. Returns its handle; the job starts when the
    /// fair-share scheduler grants it a slot.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(Error::Pipeline("service is shut down".into()));
        }
        if spec.name.is_empty() {
            return Err(Error::Pipeline("job name must not be empty".into()));
        }
        if spec.tenant.is_empty() {
            return Err(Error::Pipeline("tenant must not be empty".into()));
        }
        // Object names derive from the job name and a dataset input.
        check_object_name(&spec.name)?;
        if let JobInput::Dataset(m) = &spec.input {
            let mut names = std::iter::once(&m.name).chain(m.records.iter().map(|e| &e.path));
            names.try_for_each(|name| check_object_name(name))?;
        }
        // Plan/spec coherence is checked at admission — through the
        // same Plan helpers Plan::run uses, so admission-time and
        // run-time validation cannot drift — and a mismatched
        // submission fails the caller immediately instead of failing
        // the job after it waited out the queue.
        match &spec.input {
            JobInput::Fastq(_) => spec.plan.check_fastq_input(spec.chunk_size)?,
            JobInput::Dataset(manifest) => spec.plan.check_dataset_input(manifest)?,
        }
        spec.plan.check_resources(spec.aligner.is_some())?;
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        // Write-ahead: the submission is journaled (spec and all)
        // before the job exists anywhere else, so an admitted job can
        // always be rebuilt. A failed append fails the submission.
        if self.shared.journal.is_some() {
            self.shared.journal_append(&JournalRecord::Submitted {
                job_id: id,
                name: spec.name.clone(),
                tenant: spec.tenant.clone(),
                priority: spec.priority,
                plan: spec.plan.clone(),
                input: match &spec.input {
                    JobInput::Fastq(bytes) => RecordedInput::Fastq(bytes.clone()),
                    JobInput::Dataset(manifest) => RecordedInput::Dataset(manifest.clone()),
                },
                chunk_size: spec.chunk_size,
                reference: spec.reference.clone(),
            })?;
        }
        let JobSpec { name, tenant, priority, plan, input, chunk_size, aligner, reference } = spec;
        let payload = JobPayload { plan, input, chunk_size, aligner, reference, landed: None };
        let job = Job::new(id, name, tenant, priority, Some(payload));
        self.shared.register(&job);
        #[cfg(test)]
        if self.stop_before_admit.load(Ordering::SeqCst) {
            self.stop();
        }
        self.shared.admit(&job);
        Ok(JobHandle { job, service: Arc::downgrade(&self.shared) })
    }

    /// The runtime this service schedules onto.
    pub fn runtime(&self) -> &Arc<PersonaRuntime> {
        &self.shared.rt
    }

    /// A point-in-time snapshot of the shared metrics registry — every
    /// subsystem's counters, gauges and latency histograms.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.rt.telemetry().snapshot()
    }

    /// Counters and occupancy of the result cache;
    /// [`CacheStats::disabled`] (all zeros, `enabled: false`) when the
    /// service runs without one.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.as_ref().map(|c| c.stats()).unwrap_or_else(CacheStats::disabled)
    }

    /// The service's result cache, when enabled.
    pub fn cache(&self) -> Option<&Arc<ResultCache>> {
        self.shared.cache.as_ref()
    }

    /// The Chrome-`trace_event` JSON dump of a job's spans: valid (and
    /// partial) while the job runs, complete after it finishes. `None`
    /// for a job that never dispatched in this process or that the
    /// registry no longer holds (see [`JOB_RETAIN`]).
    pub fn trace_json(&self, job_id: u64) -> Option<String> {
        Some(self.job(job_id)?.job.trace.get()?.to_chrome_json(job_id))
    }

    /// A point-in-time service report: per-tenant throughput, queue
    /// wait, queued and running jobs and terminal-state counts, in
    /// tenant registration order.
    pub fn report(&self) -> ServiceReport {
        ServiceReport {
            tenants: self.shared.sched.lock().report(),
            elapsed: self.shared.started.elapsed(),
            workers: self.shared.rt.executor().threads(),
        }
    }

    /// Stops the service: no new admissions, queued jobs resolve as
    /// cancelled, in-flight jobs run to completion (cancel them first
    /// for a fast stop). Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.stop();
    }

    /// [`PersonaService::shutdown`] through a shared reference, for
    /// owners that hold the service behind an `Arc`-like wrapper (the
    /// wire front end). Identical semantics, equally idempotent.
    pub fn stop(&self) {
        let drained = {
            let mut sched = self.shared.sched.lock();
            if self.shared.shutdown.swap(true, Ordering::SeqCst) {
                return;
            }
            self.shared.work_cv.notify_all();
            sched.drain()
        };
        for job in drained {
            self.shared.resolve(&job, JobOutcome::Cancelled);
        }
        let runners = std::mem::take(&mut *self.runners.lock());
        for runner in runners {
            let _ = runner.join();
        }
        // A clean stop leaves nothing in the fsync batch window.
        if let Some(journal) = &self.shared.journal {
            let _ = journal.lock().sync();
        }
    }
}

impl Drop for PersonaService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts the pool of `count` job runners.
fn spawn_runners(shared: &Arc<Shared>, count: usize) -> Vec<JoinHandle<()>> {
    (0..count)
        .map(|k| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("persona-runner-{k}"))
                .spawn(move || runner_loop(shared))
                .expect("spawn job runner")
        })
        .collect()
}

/// A job rebuilt from its journal record, in the registry; `payload`
/// is `None` when it will never run.
fn replayed_job(rec: &JobRecord, payload: Option<JobPayload>, shared: &Shared) -> Arc<Job> {
    let priority = rec.spec.as_ref().map_or(Priority::Normal, |s| s.priority);
    let job = Job::new(rec.id, rec.name.clone(), rec.tenant.clone(), priority, payload);
    shared.register(&job);
    job
}

/// The outcome a journal-replayed ended job resolves with, from its
/// `finished` record. `newest`: no completed job of its name ended
/// after it, so the objects it landed are still its own.
fn recovered_outcome(rec: &JobRecord, newest: bool, shared: &Arc<Shared>) -> JobOutcome {
    let Some(JournalRecord::Finished { status, error, plan, manifest, .. }) = &rec.terminal else {
        unreachable!("an ended job holds its `finished` record");
    };
    let plan = match (status, plan) {
        (TerminalStatus::Cancelled, _) => return JobOutcome::Cancelled,
        (TerminalStatus::Failed, _) => {
            let error = error.as_deref().unwrap_or("job failed before the restart");
            return JobOutcome::Failed(error.into());
        }
        (TerminalStatus::Completed, None) => {
            return JobOutcome::Failed("completed before the restart; no plan journaled".into());
        }
        (TerminalStatus::Completed, Some(plan)) => plan.clone(),
    };
    // Exported bytes died with the process, but exports are pure
    // functions of the final dataset: re-run the plan's trailing exports
    // over it. Stage timings did not survive and come back empty.
    let exported = newest.then(|| rematerialize_exports(shared, &rec.name, &plan, manifest));
    let mut exported = exported.flatten();
    JobOutcome::Completed(JobOutput {
        sam: exported.as_mut().and_then(|r| r.sam.take()).unwrap_or_default(),
        bam: exported.as_mut().and_then(|r| r.bam.take()).unwrap_or_default(),
        reads: manifest.as_ref().map_or(0, |m| m.total_records),
        manifest: manifest.clone(),
        report: PlanReport::empty(plan),
        queue_wait: Duration::ZERO,
        elapsed: Duration::ZERO,
    })
}

/// Re-runs a recovered completed job's trailing export stages (the
/// whole plan, when it lands no dataset) over its final dataset, so
/// the recovered handle serves the same exported bytes the crashed
/// process did. Exports are deterministic over the dataset and need no
/// aligner, which is what makes this safe at recovery time.
/// Best-effort: any gap (no manifest, no export stages, export error)
/// is `None`, so the job gets empty bytes, never a failed recovery.
fn rematerialize_exports(
    shared: &Arc<Shared>,
    name: &str,
    plan: &Plan,
    manifest: &Option<Manifest>,
) -> Option<PlanReport> {
    let exports = match plan.stages().iter().rposition(|s| s.is_durable()) {
        Some(last_durable) => plan.suffix_plan(last_durable + 1)?,
        None => plan.clone(),
    };
    let request = PlanRequest {
        name: name.to_string(),
        source: PlanSource::Dataset(manifest.clone()?),
        // Exports read the dataset's chunks as they are.
        chunk_size: 0,
        aligner: None,
        reference: Vec::new(),
    };
    exports.run(&shared.rt, request).ok()
}

/// Re-admits a journal-replayed job the crashed service never
/// finished, resuming at the last journaled stage when one landed.
/// Counted as submitted in this incarnation, whether it is re-admitted
/// or fails re-admission; no `Submitted` is re-journaled — the record
/// that replayed it is already in the log.
fn requeue_job(rec: &JobRecord, spec: &RecordedSpec, shared: &Arc<Shared>, opts: &RecoverOptions) {
    let fail = |msg: String| {
        let job = replayed_job(rec, None, shared);
        shared.sched.lock().totals(&job.tenant).submitted += 1;
        shared.resolve(&job, JobOutcome::Failed(msg));
    };
    // Resume after the furthest journaled stage when the plan has
    // stages left past it; otherwise (nothing journaled, or only the
    // final stage's export work remained — exports land no dataset
    // state to restart from) re-run the whole plan. Store writes are
    // create-or-replace, so overlap with the crashed run is safe.
    let resumed = rec
        .resume_point()
        .and_then(|(at, manifest)| Some((spec.plan.suffix_plan(at + 1)?, manifest.clone())));
    let original_input = || match &spec.input {
        RecordedInput::Fastq(bytes) => JobInput::Fastq(bytes.clone()),
        RecordedInput::Dataset(m) => JobInput::Dataset(m.clone()),
    };
    let (plan, input, landed) = match resumed {
        Some((plan, m)) => (plan, JobInput::Dataset(m.clone()), Some(m)),
        None => (spec.plan.clone(), original_input(), None),
    };
    let aligner = plan.contains(Stage::Align).then(|| opts.aligner.clone()).flatten();
    let admitted = match &input {
        JobInput::Fastq(_) => plan.check_fastq_input(spec.chunk_size),
        JobInput::Dataset(manifest) => plan.check_dataset_input(manifest),
    }
    .and_then(|()| plan.check_resources(aligner.is_some()));
    if let Err(e) = admitted {
        return fail(format!("cannot re-admit recovered job: {e}"));
    }
    let payload = JobPayload {
        plan,
        input,
        chunk_size: spec.chunk_size,
        aligner,
        reference: spec.reference.clone(),
        landed,
    };
    let job = replayed_job(rec, Some(payload), shared);
    shared.admit(&job);
}

/// One runner of the pool: runs each job the scheduler grants it to
/// its end, one at a time, until shutdown.
fn runner_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut sched = shared.sched.lock();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = sched.next() {
                    break job;
                }
                shared.work_cv.wait(&mut sched);
            }
        };
        // A job cancelled between admission and dispatch never runs;
        // its slot frees immediately.
        if job.cancel.is_cancelled() {
            shared.resolve(&job, JobOutcome::Cancelled);
        } else {
            run_job(&shared, &job);
        }
    }
}

/// Executes one dispatched job on the shared runtime and resolves its
/// handle. Every dispatched job is traced: the plan driver records
/// stage spans and align and the sort record chunk spans into its trace.
fn run_job(shared: &Arc<Shared>, job: &Arc<Job>) {
    let dispatched = Instant::now();
    let queue_wait = dispatched.duration_since(job.submitted);
    // Everything a client may ask about a running job exists before
    // `running` becomes observable: its span recorder (fetchable live
    // via `trace_json` / the wire protocol) and its admission wait,
    // observed at grant on the scheduler's behalf (the scheduler
    // itself is clock-free).
    let trace = JobTrace::real();
    let _ = job.trace.set(trace.clone());
    shared
        .rt
        .telemetry()
        .histogram("scheduler.admission_wait_ns")
        .observe(queue_wait.as_nanos() as u64);
    *job.state.lock() = JobState::Running;
    shared.journal_note(&JournalRecord::Started { job_id: job.id });
    let started = Instant::now();

    let payload = job.payload.lock().take().expect("dispatched job has its payload");
    let landed = payload.landed;
    // Content digest of the job's input — half of every cache key. The
    // digest is of what the client submitted (FASTQ bytes or dataset
    // manifest), computed before the input moves into the plan source.
    let input_digest = match &payload.input {
        JobInput::Fastq(bytes) => Digest::of_bytes(bytes),
        JobInput::Dataset(manifest) => Digest::of_manifest(manifest),
    };
    let source = match payload.input {
        JobInput::Fastq(bytes) => PlanSource::fastq_bytes(bytes),
        JobInput::Dataset(manifest) => PlanSource::Dataset(manifest),
    };
    let request = PlanRequest {
        name: job.name.clone(),
        source,
        chunk_size: payload.chunk_size,
        aligner: payload.aligner,
        reference: payload.reference,
    };
    // Each stage that lands durable dataset state is journaled with
    // the manifest it landed — the resume point a recovered service
    // rebuilds the plan suffix from.
    let journal_stage = {
        let (shared, job_id) = (shared.clone(), job.id);
        move |stage: Stage, manifest: &Manifest| {
            shared.journal_note(&JournalRecord::StageCompleted {
                job_id,
                stage,
                manifest: manifest.clone(),
            });
        }
    };
    let mut ctx = JobContext::with_cancel(job.priority, job.cancel.clone())
        .with_trace(trace)
        .with_observer(Arc::new(journal_stage));
    // With a cache the run consults it, executes only the uncached plan
    // suffix, and registers what it lands; the observer still fires for
    // exactly the stages that execute.
    if let Some(cache) = shared.cache_for(&job.tenant) {
        ctx = ctx.with_cache(cache, input_digest);
    }
    let result = payload.plan.run(&shared.rt.for_job(ctx.clone()), request);
    let elapsed = started.elapsed();

    let outcome = match result {
        Ok(mut report) => {
            // Cache-elided stages produced no per-stage rows; a fully
            // cached plan reports its reads from the final manifest.
            let reads = match report.reads() {
                0 => report.final_manifest().map(|m| m.total_records).unwrap_or(0),
                n => n,
            };
            let sam = report.sam.take().unwrap_or_default();
            let bam = report.bam.take().unwrap_or_default();
            let manifest = report.final_manifest().cloned().or(landed);
            JobOutcome::Completed(JobOutput {
                sam,
                bam,
                manifest,
                report,
                reads,
                queue_wait,
                elapsed,
            })
        }
        // Any error after the token fired is the cancellation
        // unwinding, whatever stage happened to surface it.
        Err(_) if job.cancel.is_cancelled() => JobOutcome::Cancelled,
        Err(e) if e.is_cancelled() => JobOutcome::Cancelled,
        Err(e) => JobOutcome::Failed(e.to_string()),
    };
    {
        let mut sched = shared.sched.lock();
        let totals = sched.totals(&job.tenant);
        totals.dispatched += 1;
        totals.busy += ctx.busy();
        totals.queue_wait += queue_wait;
        totals.run_time += elapsed;
    }
    shared.resolve(job, outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobStatus;
    use persona::config::PersonaConfig;
    use persona_agd::chunk_io::MemStore;
    use persona_agd::results::AlignmentResult;

    fn durable(wal: &std::path::Path) -> PersonaService {
        let rt = PersonaRuntime::new(Arc::new(MemStore::new()), PersonaConfig::small()).unwrap();
        PersonaService::recover(rt, ServiceConfig::default(), wal, RecoverOptions::default())
            .unwrap()
    }

    /// A submit that journaled `submitted` and then lost the race with
    /// `stop()` resolves as cancelled with `finished` journaled, so the
    /// next `recover` does not run it again.
    #[test]
    fn a_submit_that_loses_the_race_with_stop_resolves_cancelled() {
        let dir = std::env::temp_dir().join(format!("persona-submit-stop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("service.wal");
        let service = durable(&wal);
        service.stop_before_admit.store(true, Ordering::SeqCst);
        let handle = service
            .submit(JobSpec {
                name: "late".into(),
                tenant: "t".into(),
                priority: Priority::Normal,
                plan: Plan::import_only(),
                input: JobInput::Fastq(b"@r\nACGT\n+\nIIII\n".to_vec()),
                chunk_size: 10,
                aligner: None,
                reference: vec![],
            })
            .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        handle.on_done(move |outcome| {
            let _ = tx.send(matches!(*outcome, JobOutcome::Cancelled));
        });
        let cancelled = rx.recv_timeout(Duration::from_secs(20));
        assert_eq!(cancelled, Ok(true), "the handle never resolved as cancelled");
        drop(service);

        let recovered = durable(&wal);
        let jobs = recovered.recovered_jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].status(), JobStatus::Cancelled, "recover re-ran the job");
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A tenant whose jobs all resolved without ever being queued is
    /// still reported, with its counts: a recovered job that fails
    /// re-admission (an align plan, and no aligner to re-inject) and a
    /// submit that lost the race with `stop`.
    #[test]
    fn tenants_whose_jobs_never_queued_are_reported() {
        let dir = std::env::temp_dir().join(format!("persona-never-queued-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("service.wal");
        let fastq = b"@r\nACGT\n+\nIIII\n".to_vec();
        let mut journal = Journal::open(&wal, JournalConfig::default()).unwrap();
        let submitted = JournalRecord::Submitted {
            job_id: 1,
            name: "orphan".into(),
            tenant: "recovered".into(),
            priority: Priority::Normal,
            plan: Plan::import_align(),
            input: RecordedInput::Fastq(fastq.clone()),
            chunk_size: 10,
            reference: vec![],
        };
        journal.append(&submitted).unwrap();
        journal.sync().unwrap();
        drop(journal);

        let service = durable(&wal);
        assert_eq!(service.recovered_jobs()[0].status(), JobStatus::Failed);
        service.stop_before_admit.store(true, Ordering::SeqCst);
        let late = service
            .submit(JobSpec {
                name: "late".into(),
                tenant: "late".into(),
                priority: Priority::Normal,
                plan: Plan::import_only(),
                input: JobInput::Fastq(fastq),
                chunk_size: 10,
                aligner: None,
                reference: vec![],
            })
            .unwrap();
        assert!(matches!(*late.wait(), JobOutcome::Cancelled));

        let report = service.report();
        let recovered = report.tenant("recovered").expect("the recovered job's tenant");
        assert_eq!((recovered.submitted, recovered.failed, recovered.dispatched), (1, 1, 0));
        let late = report.tenant("late").expect("the late submit's tenant");
        assert_eq!((late.submitted, late.cancelled, late.dispatched), (1, 1, 0));
        assert_eq!(report.jobs_finished(), 2);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An aligner whose reads wait until the test opens it.
    #[derive(Default)]
    struct HeldAligner {
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl HeldAligner {
        fn open(&self) {
            *self.open.lock() = true;
            self.cv.notify_all();
        }
    }

    impl Aligner for HeldAligner {
        fn align_read(&self, _bases: &[u8], _quals: &[u8]) -> AlignmentResult {
            let mut open = self.open.lock();
            while !*open {
                let waited = self.cv.wait_for(&mut open, Duration::from_secs(20));
                assert!(*open || !waited.timed_out(), "the held aligner never opened");
            }
            AlignmentResult::unmapped()
        }

        fn name(&self) -> &'static str {
            "held"
        }
    }

    fn tiny_job(name: &str, aligner: Option<Arc<dyn Aligner>>) -> JobSpec {
        JobSpec {
            name: name.into(),
            tenant: "t".into(),
            priority: Priority::Normal,
            plan: if aligner.is_some() { Plan::import_align() } else { Plan::import_only() },
            input: JobInput::Fastq(b"@r\nACGT\n+\nIIII\n".to_vec()),
            chunk_size: 10,
            aligner,
            reference: vec![],
        }
    }

    /// The registry keeps every live job, however many jobs it holds,
    /// and forgets terminal jobs in the order they ended, not in id
    /// order; a trace answers exactly for the retained jobs that
    /// dispatched.
    #[test]
    fn the_registry_keeps_live_jobs_and_forgets_the_earliest_ended() {
        let rt = PersonaRuntime::new(Arc::new(MemStore::new()), PersonaConfig::small()).unwrap();
        let config = ServiceConfig { max_concurrent_jobs: 1, ..ServiceConfig::default() };
        let service = PersonaService::new(rt, config);
        let traced = |service: &PersonaService| -> Vec<u64> {
            let last = service.jobs().last().map_or(0, |h| h.id());
            (1..=last).filter(|&id| service.trace_json(id).is_some()).collect()
        };

        let first = service.submit(tiny_job("first", None)).unwrap();
        assert_eq!(first.wait().status(), JobStatus::Completed);
        let aligner = Arc::new(HeldAligner::default());
        let held = service.submit(tiny_job("held", Some(aligner.clone()))).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while held.status() != JobStatus::Running {
            assert!(Instant::now() < deadline, "the held job never dispatched");
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = service.submit(tiny_job("queued", None)).unwrap();
        let cancelled: Vec<u64> = (0..JOB_RETAIN)
            .map(|i| {
                let handle = service.submit(tiny_job(&format!("c{i}"), None)).unwrap();
                handle.cancel();
                handle.id()
            })
            .collect();

        // JOB_RETAIN + 1 jobs have ended: the first to end is gone, and
        // both live jobs stay on top of the JOB_RETAIN terminal ones.
        assert!(service.job(first.id()).is_none());
        assert!(service.trace_json(first.id()).is_none());
        assert_eq!(service.jobs().len(), JOB_RETAIN + 2);
        assert_eq!(service.job(held.id()).map(|h| h.status()), Some(JobStatus::Running));
        assert_eq!(service.job(queued.id()).map(|h| h.status()), Some(JobStatus::Queued));
        assert_eq!(traced(&service), vec![held.id()]);

        // The held and queued jobs have smaller ids than every cancelled
        // one but end after them: their ends forget the two cancelled
        // jobs that ended first.
        aligner.open();
        assert_eq!(held.wait().status(), JobStatus::Completed);
        assert_eq!(queued.wait().status(), JobStatus::Completed);
        assert!(service.job(cancelled[0]).is_none());
        assert!(service.job(cancelled[1]).is_none());
        assert_eq!(service.job(cancelled[2]).map(|h| h.status()), Some(JobStatus::Cancelled));
        assert_eq!(service.jobs().len(), JOB_RETAIN);
        assert_eq!(service.jobs()[0].id(), held.id(), "the registry is in id order");
        assert_eq!(traced(&service), vec![held.id(), queued.id()]);
    }
}
