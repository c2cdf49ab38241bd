//! The shared executor resource (paper §4.3, Fig. 4).
//!
//! Compute-intense kernels (aligners) cannot efficiently share threads
//! through ad-hoc per-kernel pools: AGD chunks are sized for storage,
//! not for load balance, so chunk-granular tasks create thread-level
//! stragglers. Instead, a single executor *owns all compute threads* and
//! exposes a fine-grain task queue. Kernels split a chunk into subchunks,
//! submit them as a batch, and block until the batch's completion latch
//! fires. Multiple kernels feed the same executor concurrently, which is
//! exactly how "all cores in the system are kept running continuously".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use persona_telemetry::{Gauge, Histogram, MetricsRegistry};

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A shared cancellation flag: set once, observed by every queued task
/// submitted with it. Cancelling is cooperative — tasks already running
/// finish, but queued tasks carrying a cancelled token are skipped (the
/// closure is dropped without running) so a cancelled job stops
/// consuming executor time as soon as its pending batches drain.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Dispatch priority of a submitted batch. Workers always drain
/// higher-priority tasks first; within a priority level dispatch is
/// FIFO. Fairness *across* equal-priority jobs is the scheduler's
/// problem (weighted round-robin admission), not the executor's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Background work (drained only when nothing else is queued).
    Low,
    /// The default service level.
    #[default]
    Normal,
    /// Latency-sensitive work, dispatched ahead of everything else.
    High,
}

impl Priority {
    /// Number of distinct priority levels.
    pub const LEVELS: usize = 3;

    /// The lane index of this priority (0 = lowest).
    pub fn level(self) -> usize {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    /// Lane names in level order, as used in metric names
    /// (`executor.queue_depth.<lane>`).
    pub const LANE_NAMES: [&'static str; Priority::LEVELS] = ["low", "normal", "high"];
}

/// Per-batch submission options: busy-time attribution, dispatch
/// priority, and a cooperative cancellation token.
#[derive(Clone, Default)]
pub struct SubmitOpts {
    /// The cell every task of the batch adds its run time to, in
    /// nanoseconds: a stage's busy time.
    pub busy: Option<Arc<AtomicU64>>,
    /// Dispatch priority.
    pub priority: Priority,
    /// When set and cancelled, still-queued tasks of the batch are
    /// dropped without running.
    pub cancel: Option<CancelToken>,
}

/// Completion latch for one submitted batch.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload from any task of the batch, handed to the
    /// waiter by [`MapBatch::join`].
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Set when any task of the batch was skipped due to cancellation.
    skipped: AtomicBool,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch {
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panic: Mutex::new(None),
            skipped: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        let mut rem = self.remaining.lock();
        *rem -= 1;
        if *rem == 0 {
            drop(rem);
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut rem = self.remaining.lock();
        while *rem > 0 {
            self.done.wait(&mut rem);
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock() == 0
    }
}

/// A submitted [`Executor::spawn_map`]: one batch whose tasks each fill
/// one output slot.
pub struct MapBatch<Out> {
    latch: Arc<Latch>,
    slots: Arc<Mutex<Vec<Option<Out>>>>,
}

impl<Out> MapBatch<Out> {
    /// Whether every task has finished (run, skipped or panicked),
    /// without blocking.
    pub fn is_done(&self) -> bool {
        self.latch.is_done()
    }

    /// Blocks until every task has finished, without unwinding: the
    /// outputs in item order, `Ok(None)` when the cancellation token
    /// skipped a task (the output would have holes), or the first task
    /// panic's payload, like [`std::thread::JoinHandle::join`].
    pub fn join(self) -> std::thread::Result<Option<Vec<Out>>> {
        self.latch.wait();
        if let Some(payload) = self.latch.panic.lock().take() {
            return Err(payload);
        }
        if self.latch.skipped.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let mut slots = self.slots.lock();
        Ok(Some(slots.iter_mut().map(|s| s.take().expect("map_batch slot unfilled")).collect()))
    }
}

/// One queued task plus its completion latch and attribution/dispatch
/// options.
struct QueuedTask {
    task: Task,
    latch: Arc<Latch>,
    busy: Option<Arc<AtomicU64>>,
    cancel: Option<CancelToken>,
}

/// The task queue: one FIFO lane per priority level; workers drain the
/// highest non-empty lane first.
#[derive(Default)]
struct PrioQueue {
    lanes: [std::collections::VecDeque<QueuedTask>; Priority::LEVELS],
}

impl PrioQueue {
    fn push(&mut self, priority: Priority, t: QueuedTask) {
        self.lanes[priority.level()].push_back(t);
    }

    /// Pops the highest-priority queued task, with its lane index.
    fn pop(&mut self) -> Option<(QueuedTask, usize)> {
        self.lanes
            .iter_mut()
            .enumerate()
            .rev()
            .find_map(|(lane, q)| q.pop_front().map(|t| (t, lane)))
    }
}

struct ExecShared {
    queue: Mutex<PrioQueue>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Published registry metrics: queued tasks per priority lane and
    /// the per-task run-time distribution, whose count and sum are the
    /// executor's task and busy totals (see `docs/OBSERVABILITY.md`).
    lane_depth: [Gauge; Priority::LEVELS],
    task_latency: Histogram,
}

/// A thread-owning executor with a fine-grain task queue.
pub struct Executor {
    shared: Arc<ExecShared>,
    workers: Vec<JoinHandle<()>>,
    telemetry: Arc<MetricsRegistry>,
}

impl Executor {
    /// Spawns an executor owning `threads` worker threads, publishing
    /// into a fresh private metrics registry (see
    /// [`Executor::with_telemetry`] to share one).
    ///
    /// A zero thread count is clamped to one: an executor without
    /// workers would deadlock every batch, so the nearest valid
    /// configuration is used instead.
    pub fn new(threads: usize) -> Self {
        Executor::with_telemetry(threads, Arc::new(MetricsRegistry::new()))
    }

    /// [`Executor::new`] publishing into `telemetry`: queue depth per
    /// priority lane (`executor.queue_depth.<lane>`) and the per-task
    /// latency distribution (`executor.task_latency_ns`). The runtime
    /// passes its shared registry here so executor metrics land next
    /// to every other subsystem's.
    pub fn with_telemetry(threads: usize, telemetry: Arc<MetricsRegistry>) -> Self {
        let threads = threads.max(1);
        let lane_depth = std::array::from_fn(|lane| {
            telemetry.gauge(&format!("executor.queue_depth.{}", Priority::LANE_NAMES[lane]))
        });
        let shared = Arc::new(ExecShared {
            queue: Mutex::new(PrioQueue::default()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            lane_depth,
            task_latency: telemetry.histogram("executor.task_latency_ns"),
        });
        let workers = (0..threads)
            .map(|i| {
                let sh = shared.clone();
                std::thread::Builder::new()
                    .name(format!("executor-{i}"))
                    .spawn(move || worker_loop(sh))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { shared, workers, telemetry }
    }

    /// The metrics registry this executor publishes into. The runtime
    /// hands this same registry to every other subsystem so one
    /// snapshot covers the whole process.
    pub fn telemetry(&self) -> &Arc<MetricsRegistry> {
        &self.telemetry
    }

    /// Runs `f` over every item of `items` on the executor and returns
    /// the outputs in item order, blocking the calling thread until the
    /// whole batch is done: [`Executor::spawn_map`] joined at once,
    /// with a task panic resumed on the caller.
    pub fn map_batch<In, Out, F>(
        &self,
        items: Vec<In>,
        busy: Option<Arc<AtomicU64>>,
        f: F,
    ) -> Vec<Out>
    where
        In: Send + 'static,
        Out: Send + 'static,
        F: Fn(usize, In) -> Out + Send + Sync + 'static,
    {
        match self.spawn_map(items, SubmitOpts { busy, ..SubmitOpts::default() }, f).join() {
            Ok(outputs) => outputs.expect("map_batch without a cancel token cannot be cancelled"),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Submits `f` over every item of `items` as one batch and returns
    /// without waiting, for a caller that keeps several batches in
    /// flight. Every submission to the executor goes through here. The
    /// options carry busy-time attribution, priority, and cooperative
    /// cancellation: if the cancel token
    /// fires while tasks are still queued, those tasks are dropped
    /// without running (the batch still completes, and
    /// [`MapBatch::join`] reports the skip).
    pub fn spawn_map<In, Out, F>(&self, items: Vec<In>, opts: SubmitOpts, f: F) -> MapBatch<Out>
    where
        In: Send + 'static,
        Out: Send + 'static,
        F: Fn(usize, In) -> Out + Send + Sync + 'static,
    {
        let n = items.len();
        let f = Arc::new(f);
        let slots: Arc<Mutex<Vec<Option<Out>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let tasks: Vec<Task> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let f = f.clone();
                let slots = slots.clone();
                Box::new(move || {
                    let out = f(i, item);
                    slots.lock()[i] = Some(out);
                }) as Task
            })
            .collect();
        MapBatch { latch: self.submit(tasks, opts), slots }
    }

    /// Queues `tasks` under `opts` and returns the batch's latch. An
    /// empty batch completes immediately.
    fn submit(&self, tasks: Vec<Task>, opts: SubmitOpts) -> Arc<Latch> {
        let latch = Arc::new(Latch::new(tasks.len()));
        // An already-cancelled batch never enters the queue: it
        // completes (as skipped) immediately, so post-cancel
        // submissions can't pile up in a lane that sustained
        // higher-priority load would never drain.
        if opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            let n = tasks.len();
            drop(tasks);
            if n > 0 {
                latch.skipped.store(true, Ordering::SeqCst);
                for _ in 0..n {
                    latch.count_down();
                }
            }
            return latch;
        }
        if !tasks.is_empty() {
            let n = tasks.len();
            let mut q = self.shared.queue.lock();
            for t in tasks {
                q.push(
                    opts.priority,
                    QueuedTask {
                        task: t,
                        latch: latch.clone(),
                        busy: opts.busy.clone(),
                        cancel: opts.cancel.clone(),
                    },
                );
            }
            drop(q);
            self.shared.lane_depth[opts.priority.level()].add(n as i64);
            self.shared.available.notify_all();
        }
        latch
    }

    /// Removes every queued task whose cancel token has fired,
    /// completing their batches as skipped, and returns how many were
    /// purged. Workers also skip cancelled tasks at pop time, but a
    /// cancelled low-priority batch could otherwise wait out sustained
    /// higher-priority load before being reached — a canceller (e.g. a
    /// job service) calls this to resolve such batches immediately.
    pub fn drain_cancelled(&self) -> usize {
        let mut purged: Vec<Arc<Latch>> = Vec::new();
        {
            let mut q = self.shared.queue.lock();
            for (lane, tasks) in q.lanes.iter_mut().enumerate() {
                let before = purged.len();
                tasks.retain_mut(|t| {
                    if t.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                        purged.push(t.latch.clone());
                        false
                    } else {
                        true
                    }
                });
                let removed = purged.len() - before;
                if removed > 0 {
                    self.shared.lane_depth[lane].sub(removed as i64);
                }
            }
        }
        for latch in &purged {
            latch.skipped.store(true, Ordering::SeqCst);
            latch.count_down();
        }
        purged.len()
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Set under the queue lock: an idle worker checks the flag and
        // parks while holding it, so the flag cannot land between its
        // check and its wait, where the wake-up below would be lost and
        // the join would hang.
        let queue = self.shared.queue.lock();
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(queue);
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: Arc<ExecShared>) {
    loop {
        let mut q = shared.queue.lock();
        let (task, lane) = loop {
            if let Some(t) = q.pop() {
                break t;
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            shared.available.wait(&mut q);
        };
        drop(q);
        shared.lane_depth[lane].sub(1);
        let QueuedTask { task, latch, busy, cancel } = task;
        // Cooperative cancellation: a queued task whose token fired is
        // dropped without running. The latch still counts down (or its
        // waiter would hang), and the skip is recorded so map-style
        // callers know the output is incomplete.
        if cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            drop(task);
            latch.skipped.store(true, Ordering::SeqCst);
            latch.count_down();
            continue;
        }
        let start = Instant::now();
        // Contain panics: the latch must always count down (or waiters
        // hang forever) and the worker thread must survive for the
        // executor's lifetime. The payload is handed to MapBatch::join.
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
            let mut slot = latch.panic.lock();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let ran = start.elapsed().as_nanos() as u64;
        shared.task_latency.observe(ran);
        if let Some(busy) = busy {
            busy.fetch_add(ran, Ordering::Relaxed);
        }
        latch.count_down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// `n` copies of one task, each mapped over a unit item.
    fn units(n: usize) -> Vec<()> {
        vec![(); n]
    }

    /// The executor's totals: tasks run (`count`) and their busy
    /// nanoseconds (`sum`).
    fn totals(ex: &Executor) -> persona_telemetry::HistogramSnapshot {
        ex.telemetry().histogram("executor.task_latency_ns").snapshot()
    }

    #[test]
    fn runs_all_tasks() {
        let ex = Executor::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        ex.spawn_map(units(100), SubmitOpts::default(), move |_, ()| {
            c.fetch_add(1, Ordering::SeqCst);
        })
        .join()
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(totals(&ex).count, 100);
    }

    #[test]
    fn empty_batch_completes() {
        let ex = Executor::new(1);
        let out = ex.spawn_map(units(0), SubmitOpts::default(), |_, ()| ()).join().unwrap();
        assert_eq!(out, Some(Vec::new()));
    }

    #[test]
    fn multiple_concurrent_batches_from_multiple_kernels() {
        // The Fig. 4 scenario: several "aligner kernels" feed one
        // executor simultaneously and each waits for its own chunk.
        let ex = Arc::new(Executor::new(3));
        let mut handles = Vec::new();
        for k in 0..5 {
            let ex = ex.clone();
            handles.push(std::thread::spawn(move || {
                let sum = Arc::new(AtomicUsize::new(0));
                let s = sum.clone();
                ex.spawn_map((0..50).collect(), SubmitOpts::default(), move |_, i: usize| {
                    s.fetch_add(k * 100 + i, Ordering::SeqCst);
                })
                .join()
                .unwrap();
                sum.load(Ordering::SeqCst)
            }));
        }
        for (k, h) in handles.into_iter().enumerate() {
            let expected: usize = (0..50).map(|i| k * 100 + i).sum();
            assert_eq!(h.join().unwrap(), expected);
        }
    }

    #[test]
    fn tasks_actually_parallelize() {
        let ex = Executor::new(4);
        let start = Instant::now();
        ex.spawn_map(units(8), SubmitOpts::default(), |_, ()| {
            std::thread::sleep(std::time::Duration::from_millis(50));
        })
        .join()
        .unwrap();
        let elapsed = start.elapsed();
        // 8 × 50 ms on 4 threads ≈ 100 ms; serial would be 400 ms.
        assert!(elapsed < std::time::Duration::from_millis(300), "elapsed {elapsed:?}");
        assert!(totals(&ex).sum >= 8 * 45_000_000);
    }

    #[test]
    fn drop_joins_cleanly_with_pending_work_done() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let ex = Executor::new(2);
            let c = counter.clone();
            ex.spawn_map(units(1), SubmitOpts::default(), move |_, ()| {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .join()
            .unwrap();
        } // Drop here must not hang.
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn drop_right_after_spawn_never_misses_a_parking_worker() {
        // Workers that have just started are often between checking the
        // shutdown flag and parking: a drop racing them must still wake
        // every one, or its join hangs.
        let (done, progress) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for i in 0..2_000 {
                drop(Executor::new(2));
                let _ = done.send(i);
            }
        });
        let mut dropped = 0;
        loop {
            match progress.recv_timeout(std::time::Duration::from_secs(10)) {
                Ok(i) => dropped = i + 1,
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                Err(_) => panic!("Executor::drop hung after {dropped} drops"),
            }
        }
        assert_eq!(dropped, 2_000);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let ex = Executor::new(0);
        assert_eq!(ex.threads(), 1);
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        ex.spawn_map(units(1), SubmitOpts::default(), move |_, ()| {
            c.fetch_add(1, Ordering::SeqCst);
        })
        .join()
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn map_batch_preserves_item_order() {
        let ex = Executor::new(4);
        let out = ex.map_batch((0..200u64).collect(), None, |i, v| {
            assert_eq!(i as u64, v);
            v * 3
        });
        assert_eq!(out, (0..200u64).map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_task_propagates_to_waiter_and_spares_the_worker() {
        let ex = Executor::new(1);
        fn boom(_: usize, _: ()) {
            panic!("task boom")
        }
        let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ex.map_batch(units(1), None, boom);
        }));
        assert!(bad.is_err());
        // `join` hands the payload back instead of unwinding.
        let payload = ex.spawn_map(units(1), SubmitOpts::default(), boom).join().unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task boom"));
        // The (single) worker survived and keeps running new tasks.
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        ex.spawn_map(units(1), SubmitOpts::default(), move |_, ()| {
            c.fetch_add(1, Ordering::SeqCst);
        })
        .join()
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn high_priority_batches_dispatch_first() {
        // One worker, blocked by a gate task; everything queued behind
        // it is dispatched strictly by priority, not submission order.
        let ex = Executor::new(1);
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock();
        let g = gate.clone();
        let blocker = ex.spawn_map(units(1), SubmitOpts::default(), move |_, ()| {
            drop(g.lock());
        });
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let mut batches = Vec::new();
        for (name, prio) in
            [("low", Priority::Low), ("normal", Priority::Normal), ("high", Priority::High)]
        {
            let order = order.clone();
            batches.push(ex.spawn_map(
                units(1),
                SubmitOpts { priority: prio, ..SubmitOpts::default() },
                move |_, ()| order.lock().push(name),
            ));
        }
        drop(held); // Open the gate: the worker drains by priority.
        blocker.join().unwrap();
        for b in batches {
            b.join().unwrap();
        }
        assert_eq!(*order.lock(), vec!["high", "normal", "low"]);
    }

    #[test]
    fn cancelled_batch_skips_queued_tasks() {
        let ex = Executor::new(1);
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock();
        let g = gate.clone();
        let blocker = ex.spawn_map(units(1), SubmitOpts::default(), move |_, ()| {
            drop(g.lock());
        });
        let token = CancelToken::new();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = ran.clone();
        let batch = ex.spawn_map(
            units(10),
            SubmitOpts { cancel: Some(token.clone()), ..SubmitOpts::default() },
            move |_, ()| {
                r.fetch_add(1, Ordering::SeqCst);
            },
        );
        token.cancel();
        drop(held);
        blocker.join().unwrap();
        assert_eq!(batch.join().unwrap(), None, "skip must be reported");
        assert_eq!(ran.load(Ordering::SeqCst), 0, "no queued task may run after cancel");
    }

    #[test]
    fn drain_cancelled_resolves_buried_low_priority_batch() {
        // One worker pinned by a gate task; a Low-priority batch sits
        // behind a High-priority backlog. Cancelling + draining must
        // resolve the Low batch without any lane reaching it.
        let ex = Executor::new(1);
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock();
        let g = gate.clone();
        let blocker = ex.spawn_map(units(1), SubmitOpts::default(), move |_, ()| {
            drop(g.lock());
        });
        let high_batch = ex.spawn_map(
            units(8),
            SubmitOpts { priority: Priority::High, ..SubmitOpts::default() },
            |_, ()| {},
        );
        let token = CancelToken::new();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = ran.clone();
        let low_batch = ex.spawn_map(
            units(4),
            SubmitOpts {
                priority: Priority::Low,
                cancel: Some(token.clone()),
                ..SubmitOpts::default()
            },
            move |_, ()| {
                r.fetch_add(1, Ordering::SeqCst);
            },
        );
        token.cancel();
        assert_eq!(ex.drain_cancelled(), 4, "all queued low tasks purge");
        // The low batch resolves even though the worker is still gated.
        assert_eq!(low_batch.join().unwrap(), None);
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        drop(held);
        blocker.join().unwrap();
        high_batch.join().unwrap();
        // A batch submitted after cancellation never queues at all.
        let post = ex.spawn_map(
            units(1),
            SubmitOpts { cancel: Some(token), ..SubmitOpts::default() },
            |_, ()| panic!("must not run"),
        );
        assert_eq!(post.join().unwrap(), None);
    }

    #[test]
    fn spawn_map_reports_cancellation() {
        let ex = Executor::new(2);
        let token = CancelToken::new();
        // Uncancelled: identical to map_batch.
        let out = ex
            .spawn_map(
                vec![1u64, 2, 3],
                SubmitOpts { cancel: Some(token.clone()), ..SubmitOpts::default() },
                |_, v| v * 2,
            )
            .join()
            .unwrap();
        assert_eq!(out, Some(vec![2, 4, 6]));
        // Cancelled before submission: every task skips, no output.
        token.cancel();
        let res = ex
            .spawn_map(
                (0..64u64).collect(),
                SubmitOpts { cancel: Some(token.clone()), ..SubmitOpts::default() },
                |_, v| v,
            )
            .join()
            .unwrap();
        assert_eq!(res, None);
    }

    #[test]
    fn busy_cell_gets_what_the_histogram_got() {
        let ex = Executor::new(2);
        let busy = Arc::new(AtomicU64::new(0));
        ex.spawn_map(
            units(6),
            SubmitOpts { busy: Some(busy.clone()), ..SubmitOpts::default() },
            |_, ()| std::thread::sleep(std::time::Duration::from_millis(2)),
        )
        .join()
        .unwrap();
        assert_eq!(totals(&ex).count, 6);
        assert!(busy.load(Ordering::Relaxed) > 0);
        assert_eq!(busy.load(Ordering::Relaxed), totals(&ex).sum);
    }

    #[test]
    fn tagged_batches_attribute_busy_time_per_stage() {
        let ex = Executor::new(2);
        let busy_a = Arc::new(AtomicU64::new(0));
        let busy_b = Arc::new(AtomicU64::new(0));
        let work = |ms: u64, busy: &Arc<AtomicU64>| {
            ex.spawn_map(
                units(4),
                SubmitOpts { busy: Some(busy.clone()), ..SubmitOpts::default() },
                move |_, ()| std::thread::sleep(std::time::Duration::from_millis(ms)),
            )
        };
        let a = work(20, &busy_a);
        let b = work(5, &busy_b);
        a.join().unwrap();
        b.join().unwrap();
        let (a, b) = (busy_a.load(Ordering::Relaxed), busy_b.load(Ordering::Relaxed));
        assert!(a >= 4 * 20_000_000 && b >= 4 * 5_000_000, "{a}, {b}");
        assert!(a > b, "{a} <= {b}");
        // The executor's histogram saw everything, and nothing else.
        assert_eq!(totals(&ex).count, 8);
        assert_eq!(totals(&ex).sum, a + b);
    }
}
