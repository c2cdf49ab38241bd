//! The Persona runtime: one executor owns every compute thread, and all
//! pipeline stages schedule their compute on it (paper §4.3, Fig. 4).
//!
//! The paper's core scheduling claim is that concurrent kernels share a
//! single thread-owning executor so "all cores in the system are kept
//! running continuously doing meaningful work" — chunk-granular stage
//! threads would create stragglers, and per-stage thread pools would
//! fight each other for cores. [`PersonaRuntime`] is that arrangement
//! reified: it owns the shared [`Executor`], the [`ChunkStore`] and the
//! [`PersonaConfig`], and every stage (`import`, `align`, `sort`,
//! `dupmark`, `export`) submits fine-grain task batches to it instead of
//! spawning private workers.
//!
//! [`Plan::run`](crate::plan::Plan::run) chains any valid composition
//! of stages end to end. Stages that can overlap are connected by
//! bounded chunk queues (live [`Edge`](crate::manifest_server::Edge)s):
//! alignment consumes chunks while import is still encoding later ones,
//! and SAM formatting consumes chunks as the sort's write marks and
//! writes them — the Fig. 4 scenario of multiple kernels feeding one
//! executor at once.

use std::sync::Arc;
use std::time::{Duration, Instant};

use persona_agd::chunk_io::ChunkStore;
use persona_agd::manifest::Manifest;
use persona_dataflow::metrics::NodeCounters;
use persona_dataflow::{CancelToken, Executor, MapBatch, Priority, SubmitOpts};
use persona_telemetry::{JobTrace, MetricsRegistry};

use crate::caching::{Digest, ResultCache};
use crate::config::PersonaConfig;
use crate::plan::Stage;
use crate::{Error, Result};

/// Per-job execution context: the cancellation token, dispatch
/// priority, job-level counter attribution, span recorder and the two
/// plan-run hooks (stage-landing observer, result cache) a multi-tenant
/// service threads through every stage of one job's pipeline.
#[derive(Clone, Default)]
pub struct JobContext {
    cancel: CancelToken,
    priority: Priority,
    counters: Arc<NodeCounters>,
    trace: Option<Arc<JobTrace>>,
    observer: Option<Arc<dyn Fn(Stage, &Manifest) + Send + Sync>>,
    cache: Option<(Arc<ResultCache>, Digest)>,
}

impl JobContext {
    /// A context at the given priority with a fresh cancel token.
    pub fn new(priority: Priority) -> Self {
        JobContext::with_cancel(priority, CancelToken::new())
    }

    /// A context reusing an externally held cancel token (so the owner
    /// can cancel the job after handing the context to a runtime).
    pub fn with_cancel(priority: Priority, cancel: CancelToken) -> Self {
        JobContext { cancel, priority, ..JobContext::default() }
    }

    /// Attaches a stage-landing observer: [`Plan::run`] calls it, in
    /// plan order, with each stage that landed durable dataset state in
    /// the runtime's store and the manifest it landed (see there for
    /// which stages announce). A durable job service journals these as
    /// its crash-recovery resume points.
    ///
    /// [`Plan::run`]: crate::plan::Plan::run
    pub fn with_observer(mut self, observer: Arc<dyn Fn(Stage, &Manifest) + Send + Sync>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Runs the job's plan through a result cache:
    /// [`Plan::run`](crate::plan::Plan::run) looks up the longest cached
    /// prefix of the plan over `input_digest` (the content digest of
    /// what the job consumes), executes only the uncached suffix, and
    /// registers every stage output it lands (see [`crate::caching`]).
    pub fn with_cache(mut self, cache: Arc<ResultCache>, input_digest: Digest) -> Self {
        self.cache = Some((cache, input_digest));
        self
    }

    /// Attaches a span recorder: the plan driver records stage spans
    /// and the chunk loops record chunk spans against it. Tracing is
    /// opt-in per job; an untraced context records nothing.
    pub fn with_trace(mut self, trace: Arc<JobTrace>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The job's span recorder, when tracing is on.
    pub fn trace(&self) -> Option<&Arc<JobTrace>> {
        self.trace.as_ref()
    }

    /// Announces one landed stage to the observer, if any.
    pub(crate) fn observe(&self, stage: Stage, manifest: &Manifest) {
        if let Some(observer) = &self.observer {
            observer(stage, manifest);
        }
    }

    /// The job's result cache and input digest, when caching is on.
    pub(crate) fn cache(&self) -> Option<&(Arc<ResultCache>, Digest)> {
        self.cache.as_ref()
    }

    /// The job's cancellation token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The job's executor counters: busy time and task counts across
    /// every stage this job ran (the service's per-tenant accounting).
    pub fn counters(&self) -> &Arc<NodeCounters> {
        &self.counters
    }
}

/// The shared execution context for Persona pipelines on one server.
pub struct PersonaRuntime {
    executor: Arc<Executor>,
    store: Arc<dyn ChunkStore>,
    config: PersonaConfig,
    job: Option<JobContext>,
}

impl PersonaRuntime {
    /// Creates a runtime owning `config.compute_threads` executor
    /// threads over `store`. Rejects configurations that could not run
    /// a pipeline (e.g. `compute_threads == 0`).
    pub fn new(store: Arc<dyn ChunkStore>, config: PersonaConfig) -> Result<Arc<Self>> {
        config.validate().map_err(Error::Pipeline)?;
        let executor = Arc::new(Executor::new(config.compute_threads));
        Ok(Arc::new(PersonaRuntime { executor, store, config, job: None }))
    }

    /// A view of this runtime bound to one job: same executor, store
    /// and config, but every stage batch submitted through the view
    /// carries the job's priority, cancel token and counters. This is
    /// how a service multiplexes many jobs onto one runtime.
    pub fn for_job(self: &Arc<Self>, job: JobContext) -> Arc<PersonaRuntime> {
        Arc::new(PersonaRuntime {
            executor: self.executor.clone(),
            store: self.store.clone(),
            config: self.config,
            job: Some(job),
        })
    }

    /// The job context, when this runtime view is bound to one.
    pub fn job(&self) -> Option<&JobContext> {
        self.job.as_ref()
    }

    /// Whether the bound job (if any) has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.job.as_ref().is_some_and(|j| j.cancel.is_cancelled())
    }

    /// Errors with [`Error::Cancelled`] once the bound job's token has
    /// fired. Stages call this between chunks so a cancelled job stops
    /// scheduling new batches promptly.
    pub fn check_cancelled(&self) -> Result<()> {
        if self.is_cancelled() {
            Err(Error::Cancelled)
        } else {
            Ok(())
        }
    }

    /// The shared compute executor.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.executor
    }

    /// The process-wide metrics registry (owned by the executor; every
    /// subsystem this runtime drives publishes into it).
    pub fn telemetry(&self) -> &Arc<MetricsRegistry> {
        self.executor.telemetry()
    }

    /// The bound job's span recorder, when this view is bound to a
    /// traced job. Stage and chunk code records through this.
    pub fn trace(&self) -> Option<&Arc<JobTrace>> {
        self.job.as_ref().and_then(|j| j.trace())
    }

    /// The chunk store all stages read and write.
    pub fn store(&self) -> &Arc<dyn ChunkStore> {
        &self.store
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PersonaConfig {
        &self.config
    }

    /// How many chunks a stage keeps in flight on the executor, and how
    /// many finished chunks a fused producer may queue ahead of its
    /// consumer: enough that every worker has work while the stage
    /// thread waits on its oldest chunk, and the bound on a stage's
    /// memory (§4.5).
    pub(crate) fn chunk_window(&self) -> usize {
        self.executor.threads() * 2 + 2
    }

    /// Starts a per-stage measurement window. Tasks submitted with the
    /// timer's tag are attributed to this stage, so its busy fraction is
    /// meaningful even while other stages share the executor.
    pub fn stage_timer(&self) -> StageTimer {
        StageTimer {
            counters: Arc::new(NodeCounters::default()),
            workers: self.executor.threads(),
            started: Instant::now(),
        }
    }

    /// A cloneable submission handle for one stage of this runtime's
    /// current job: batches submitted through it carry the stage tag
    /// (from `timer`) *and* the job's priority/cancel/counters. Stages
    /// submit through this instead of a bare executor handle.
    pub fn stage_exec(&self, timer: &StageTimer) -> StageExec {
        StageExec { executor: self.executor.clone(), tag: timer.tag(), job: self.job.clone() }
    }
}

/// A stage's handle onto the shared executor, carrying both stage-level
/// attribution and the owning job's dispatch options.
#[derive(Clone)]
pub struct StageExec {
    executor: Arc<Executor>,
    tag: Arc<NodeCounters>,
    job: Option<JobContext>,
}

impl StageExec {
    fn opts(&self) -> SubmitOpts {
        SubmitOpts {
            tag: Some(self.tag.clone()),
            job_tag: self.job.as_ref().map(|j| j.counters.clone()),
            priority: self.job.as_ref().map(|j| j.priority).unwrap_or_default(),
            cancel: self.job.as_ref().map(|j| j.cancel.clone()),
        }
    }

    /// Whether the owning job has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.job.as_ref().is_some_and(|j| j.cancel.is_cancelled())
    }

    /// Fans `items` out on the executor as one batch and returns at
    /// once; the stage collects the outputs with [`Pending::wait`].
    pub fn spawn<In, Out, F>(&self, items: Vec<In>, f: F) -> Pending<Out>
    where
        In: Send + 'static,
        Out: Send + 'static,
        F: Fn(usize, In) -> Out + Send + Sync + 'static,
    {
        Pending(self.executor.spawn_map(items, self.opts(), f))
    }

    /// Submits a single fallible task; the stage collects its output
    /// with [`Pending::wait_one`].
    pub fn spawn_one<T: Send + 'static>(
        &self,
        task: impl FnOnce() -> Result<T> + Send + 'static,
    ) -> Pending<Result<T>> {
        self.spawn(vec![task], |_, task| task())
    }

    /// [`StageExec::spawn`], then [`Pending::wait`].
    pub fn map<In, Out, F>(&self, items: Vec<In>, f: F) -> Result<Vec<Out>>
    where
        In: Send + 'static,
        Out: Send + 'static,
        F: Fn(usize, In) -> Out + Send + Sync + 'static,
    {
        self.spawn(items, f).wait()
    }
}

/// A batch a stage submitted through [`StageExec::spawn`] and has not
/// collected yet.
pub struct Pending<T>(MapBatch<T>);

impl<T> Pending<T> {
    /// Whether every task has finished, without blocking.
    pub fn is_done(&self) -> bool {
        self.0.is_done()
    }

    /// Blocks until every task has finished and returns the outputs in
    /// item order. A task the job's cancellation skipped makes this
    /// [`Error::Cancelled`]; a task that panicked makes it
    /// [`Error::TaskPanicked`] with the payload's text — the panic never
    /// unwinds the waiting stage thread.
    pub fn wait(self) -> Result<Vec<T>> {
        match self.0.join() {
            Ok(Some(outputs)) => Ok(outputs),
            Ok(None) => Err(Error::Cancelled),
            Err(payload) => Err(Error::TaskPanicked(
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into()),
            )),
        }
    }
}

impl<T> Pending<Result<T>> {
    /// [`Pending::wait`] for a [`StageExec::spawn_one`] task: its output.
    pub fn wait_one(self) -> Result<T> {
        self.wait()?.pop().expect("spawn_one submits one task")
    }
}

/// Measures one stage's use of the shared executor.
pub struct StageTimer {
    counters: Arc<NodeCounters>,
    workers: usize,
    started: Instant,
}

/// What a stage did with the executor during its window.
#[derive(Debug, Clone, Copy)]
pub struct StageStats {
    /// Wall-clock duration of the stage.
    pub elapsed: Duration,
    /// Fraction of total executor worker time this stage's tasks used,
    /// or `None` when the window was degenerate (zero wall clock or
    /// zero workers) and the share is mathematically undefined. A
    /// `None` with a non-zero [`StageStats::tasks`] means tasks ran
    /// but the window could not attribute worker time to them —
    /// distinct from a measured 0.0.
    pub busy: Option<f64>,
    /// Executor tasks the stage ran.
    pub tasks: u64,
}

impl StageStats {
    /// The busy share as a plain number: the measured fraction, or a
    /// NaN-guarded 0.0 when the window was degenerate. Aggregations
    /// that cannot represent "unmeasured" use this.
    pub fn busy_fraction(&self) -> f64 {
        self.busy.unwrap_or(0.0)
    }
}

impl StageTimer {
    /// The counter set to pass as the tag of this stage's batches.
    pub fn tag(&self) -> Arc<NodeCounters> {
        self.counters.clone()
    }

    /// Closes the window and computes the stage's executor share.
    ///
    /// A ~0 wall-clock window (empty or instantaneous stage) yields an
    /// undefined share, reported as `busy: None` rather than a
    /// fabricated 0.0 — callers that need a number get a NaN-guarded
    /// 0.0 from [`StageStats::busy_fraction`], so tiny jobs still
    /// cannot poison aggregated service metrics.
    pub fn finish(&self) -> StageStats {
        let elapsed = self.started.elapsed();
        let snap = self.counters.snapshot();
        let denom = elapsed.as_nanos() as f64 * self.workers as f64;
        let busy = (denom > 0.0).then(|| (snap.busy_ns as f64 / denom).min(1.0));
        StageStats { elapsed, busy, tasks: snap.items }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_agd::chunk_io::MemStore;

    fn runtime() -> Arc<PersonaRuntime> {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        PersonaRuntime::new(store, PersonaConfig::small()).unwrap()
    }

    #[test]
    fn stage_timer_zero_window_reports_zero_not_nan() {
        // A timer finished immediately (or with no tasks) must report a
        // finite busy fraction of 0.0, whatever the wall clock did.
        let rt = runtime();
        let timer = rt.stage_timer();
        let stats = timer.finish();
        assert!(stats.busy_fraction().is_finite(), "busy {}", stats.busy_fraction());
        assert_eq!(stats.busy_fraction(), 0.0);
        assert_eq!(stats.tasks, 0);
        // Explicitly exercise the zero-denominator branch: tasks ran
        // (busy time was recorded) but the window cannot attribute a
        // share. That must surface as `None` — not a fabricated 0.0
        // that looks like a measured idle stage — while the numeric
        // accessor still NaN-guards to 0.0 for aggregation.
        let degenerate = StageTimer {
            counters: Arc::new(NodeCounters::default()),
            workers: 0,
            started: Instant::now(),
        };
        degenerate.counters.busy_ns.store(1_000_000, std::sync::atomic::Ordering::Relaxed);
        let stats = degenerate.finish();
        assert_eq!(stats.busy, None, "degenerate window has no defined share");
        assert_eq!(stats.busy_fraction(), 0.0);
    }

    #[test]
    fn job_view_shares_executor_and_carries_cancel() {
        let rt = runtime();
        let job = JobContext::new(Priority::High);
        let token = job.cancel_token().clone();
        let view = rt.for_job(job);
        assert!(Arc::ptr_eq(view.executor(), rt.executor()));
        assert!(view.check_cancelled().is_ok());
        assert!(rt.job().is_none() && view.job().is_some());
        token.cancel();
        assert!(view.is_cancelled());
        assert!(matches!(view.check_cancelled(), Err(Error::Cancelled)));
        // The base runtime is unaffected.
        assert!(!rt.is_cancelled());
    }

    #[test]
    fn stage_exec_attributes_to_stage_and_job() {
        let rt = runtime();
        let job = JobContext::new(Priority::Normal);
        let counters = job.counters().clone();
        let view = rt.for_job(job);
        let timer = view.stage_timer();
        let exec = view.stage_exec(&timer);
        let out = exec.map((0..50u64).collect(), |i, v| {
            assert_eq!(i as u64, v);
            v + 1
        });
        assert_eq!(out.unwrap(), (1..=50).collect::<Vec<u64>>());
        assert_eq!(timer.tag().snapshot().items, 50);
        assert_eq!(counters.snapshot().items, 50);
    }

    #[test]
    fn stage_exec_turns_a_task_panic_into_an_error() {
        let rt = runtime();
        let timer = rt.stage_timer();
        let exec = rt.stage_exec(&timer);
        let res = exec.map((0..8u64).collect(), |_, v| {
            if v == 5 {
                panic!("task {v} boom");
            }
            v
        });
        assert!(matches!(&res, Err(Error::TaskPanicked(what)) if what == "task 5 boom"), "{res:?}");
        // The stage thread is intact and the executor keeps serving it.
        assert_eq!(exec.map(vec![1u64, 2], |_, v| v * 2).unwrap(), vec![2, 4]);
    }

    #[test]
    fn cancelled_stage_exec_map_returns_cancelled() {
        let rt = runtime();
        let job = JobContext::new(Priority::Normal);
        job.cancel_token().cancel();
        let view = rt.for_job(job);
        let timer = view.stage_timer();
        let exec = view.stage_exec(&timer);
        assert!(exec.is_cancelled());
        let res = exec.map((0..100u64).collect(), |_, v| v);
        assert!(matches!(res, Err(Error::Cancelled)));
    }
}
