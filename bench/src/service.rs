//! `service_mixed`: a durable `PersonaService` behind a `WireServer`
//! on loopback, driven closed-loop by two protocol-v2 connections.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use persona::plan::{Plan, PlanRequest, PlanSource};
use persona::runtime::PersonaRuntime;
use persona::wire::{
    Message, OutputStream, SubmitInput, WireClient, WireInput, WireJobStatus, WireSubmit,
};
use persona_agd::chunk_io::{ChunkStore, DirStore, MemStore};
use persona_agd::manifest::Manifest;
use persona_align::Aligner;
use persona_cache::Digest;
use persona_dataflow::Priority;
use persona_server::{
    JobInput, JobSpec, JobStatus, PersonaService, RecoverOptions, ServiceConfig, WireServer,
    WireServerConfig,
};

use crate::catalog::{Measured, END_TO_END, PER_LAYER};
use crate::inputs::{self, Sizes, SplitMix, Stopwatch, World};
use crate::span::{ChromeTrace, Span, Spans};
use crate::stats::{median, Metric};
use crate::wrap::CountingStore;
use crate::{micro, Outcome, Res, RunArgs};

/// Closed-loop connections (one thread each): callers of a batch
/// service wait for their result before sending the next job.
pub const CLIENTS: usize = 2;
const CACHE_ENTRIES: usize = 64;
const STATUS_POLL: Duration = Duration::from_millis(2);
const TENANT: &str = "bench";

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// `full` on FASTQ the server has never seen.
    FullCold,
    /// `import-align` on fresh FASTQ.
    ImportAlign,
    /// `full` on the FASTQ of a completed `import-align`: a cache hit.
    FullWarm,
    /// `import-only` on fresh FASTQ: the write-only class.
    ImportOnly,
}

impl Class {
    const ALL: [Class; 4] =
        [Class::FullCold, Class::FullWarm, Class::ImportAlign, Class::ImportOnly];

    fn name(self) -> &'static str {
        match self {
            Class::FullCold => "full_cold",
            Class::ImportAlign => "import_align",
            Class::FullWarm => "full_warm",
            Class::ImportOnly => "import_only",
        }
    }

    fn plan(self) -> Plan {
        match self {
            Class::FullCold | Class::FullWarm => Plan::full(),
            Class::ImportAlign => Plan::import_align(),
            Class::ImportOnly => Plan::import_only(),
        }
    }
}

/// One slot of a client's job order; `pair` ties a `FullWarm` to the
/// `ImportAlign` whose input it resubmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    pub class: Class,
    pub pair: usize,
}

/// The next twelve jobs of one client, in seeded order: six
/// `full_cold`, two `import_align`, two `full_warm`, two `import_only`
/// (the 120 : 40 : 40 : 40 mix), each `full_warm` after its
/// `import_align`.
pub fn block(rng: &mut SplitMix) -> Vec<Slot> {
    let mut slots: Vec<Slot> = Vec::with_capacity(12);
    slots.extend([Slot { class: Class::FullCold, pair: 0 }; 6]);
    slots.extend([Slot { class: Class::ImportOnly, pair: 0 }; 2]);
    for pair in 0..2 {
        slots.push(Slot { class: Class::ImportAlign, pair });
        slots.push(Slot { class: Class::FullWarm, pair });
    }
    rng.shuffle(&mut slots);
    for pair in 0..2 {
        let at = |class| slots.iter().position(|s| *s == Slot { class, pair }).expect("in block");
        let (land, warm) = (at(Class::ImportAlign), at(Class::FullWarm));
        if land > warm {
            slots.swap(land, warm);
        }
    }
    slots
}

/// The generated inputs and aligner of the workload.
pub struct ServiceWorld {
    world: World,
    offsets: Vec<usize>,
    aligner: Arc<dyn Aligner>,
    pub index_build_s: f64,
    sizes: Sizes,
}

impl ServiceWorld {
    pub fn build(args: &RunArgs) -> ServiceWorld {
        let sizes = args.sizes;
        let world = World::build(args.seed, sizes.genome_len, sizes.service_pool_reads);
        let offsets = world.fastq_offsets();
        let (aligner, index_build_s) = world.snap();
        ServiceWorld { world, offsets, aligner, index_build_s, sizes }
    }

    fn windows(&self) -> usize {
        (self.sizes.service_pool_reads - self.sizes.service_job_reads)
            / self.sizes.service_window_stride
    }

    /// Job input `window`: a run of consecutive pool reads. Windows
    /// overlap but no two are equal, so every window is new content to
    /// the result cache.
    fn fastq(&self, window: usize) -> &[u8] {
        let first = window * self.sizes.service_window_stride;
        &self.world.fastq[self.offsets[first]..self.offsets[first + self.sizes.service_job_reads]]
    }
}

/// A running server (or, for the in-process comparison, just the
/// service) over a fresh store and journal.
pub struct Served {
    dir: PathBuf,
    server: Option<WireServer>,
    service: Option<PersonaService>,
    counting: Option<Arc<CountingStore>>,
    journal: PathBuf,
}

impl Drop for Served {
    fn drop(&mut self) {
        drop(self.server.take());
        drop(self.service.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Served {
    /// `traced`: telemetry on and the counting store installed.
    /// `wire`: bind the TCP front end (else keep the bare service).
    pub fn start(
        sw: &ServiceWorld,
        args: &RunArgs,
        tag: &str,
        traced: bool,
        wire: bool,
    ) -> Res<Served> {
        let dir = args.out_dir.join(format!("service-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_store: Arc<dyn ChunkStore> = Arc::new(DirStore::open(dir.join("store"))?);
        let counting = traced.then(|| CountingStore::new(dir_store.clone()));
        let store: Arc<dyn ChunkStore> = match &counting {
            Some(c) => c.clone(),
            None => dir_store,
        };
        let rt = PersonaRuntime::new(store, inputs::config(args.threads))?;
        rt.telemetry().set_enabled(traced);
        let journal = dir.join("journal.wal");
        let service = PersonaService::recover(
            rt,
            ServiceConfig::with_cache(CACHE_ENTRIES),
            &journal,
            RecoverOptions { aligner: Some(sw.aligner.clone()), ..RecoverOptions::default() },
        )?;
        let (server, service) = if wire {
            let config = WireServerConfig { aligner: Some(sw.aligner.clone()) };
            (Some(WireServer::bind("127.0.0.1:0", service, config)?), None)
        } else {
            (None, Some(service))
        };
        Ok(Served { dir, server, service, counting, journal })
    }

    fn service(&self) -> &PersonaService {
        match (&self.server, &self.service) {
            (Some(server), _) => server.service(),
            (None, Some(service)) => service,
            (None, None) => unreachable!("a Served holds a server or a service"),
        }
    }

    fn store_bytes(&self) -> Res<u64> {
        Ok(inputs::dir_objects(&self.dir.join("store"))?.iter().map(|(_, len)| len).sum())
    }
}

/// One finished job as the client saw it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub class: Class,
    pub window: usize,
    pub job_id: u64,
    pub client: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
    pub sam: Option<Digest>,
    pub input_bytes: u64,
}

impl JobRecord {
    fn latency_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// What all clients recorded in one phase.
#[derive(Default)]
pub struct Phase {
    pub jobs: Vec<JobRecord>,
    pub status_us: Vec<f64>,
    /// Wall seconds of the phase and the share of CPU time delivered
    /// during it; every latency of the phase is corrected by that share
    /// (a job is too short for the 10 ms CPU accounting to resolve).
    pub wall_s: f64,
    pub delivered: f64,
    /// CPU seconds the process (server and clients) used in the phase.
    pub cpu_s: f64,
    /// One `full_cold` job's SAM and a final manifest, for the
    /// micro-loops that want the run's own payloads.
    pub sample_sam: Vec<u8>,
    pub sample_manifest: Option<Manifest>,
}

impl Phase {
    fn reads(&self, sizes: &Sizes) -> f64 {
        (self.jobs.len() * sizes.service_job_reads) as f64
    }

    fn latencies(&self, class: Option<Class>) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| class.is_none_or(|c| j.class == c))
            .map(|j| j.latency_ms() * self.delivered)
            .collect()
    }

    fn status_us(&self) -> Vec<f64> {
        self.status_us.iter().map(|us| us * self.delivered).collect()
    }
}

/// What the clients of one session keep between them.
#[derive(Default)]
struct Shared {
    /// Journal growth seen from outside: the file is sampled after
    /// every job and the increases are summed (a compaction shows as a
    /// decrease and is skipped). `(last length, bytes appended)`.
    journal: Mutex<(u64, u64)>,
    /// Jobs finished so far, and `VmHWM` when job `RSS_AT_JOB`
    /// finished: the server keeps every job's output, so its memory
    /// grows with the jobs served, and only a reading at a fixed job
    /// count compares between runs that served different numbers.
    finished: AtomicUsize,
    rss_at_mark: Mutex<Option<f64>>,
    /// Set by the client whose job outlived `JOB_TIMEOUT`; every client
    /// stops at the next look.
    wedged: AtomicBool,
}

const RSS_AT_JOB: usize = 64;

/// How long a job may stay unfinished before the session is given up
/// as wedged. A healthy job takes well under a second.
const JOB_TIMEOUT: Duration = Duration::from_secs(10);

/// A client's state across the warm-up and timed phases, so the second
/// phase continues the first one's job order and windows.
pub struct Client {
    index: usize,
    conn: WireClient,
    rng: SplitMix,
    next_window: usize,
    landed: [Option<usize>; 2],
    queue: Vec<Slot>,
    serial: usize,
}

impl Client {
    fn connect(index: usize, served: &Served, seed: u64) -> Res<Client> {
        let addr = served.server.as_ref().ok_or("no wire front end")?.local_addr();
        Ok(Client {
            index,
            conn: WireClient::connect(addr)?,
            rng: SplitMix(seed ^ (index as u64 + 1).wrapping_mul(0xA5A5_5A5A)),
            next_window: index,
            landed: [None; 2],
            queue: Vec::new(),
            serial: 0,
        })
    }

    /// The next job of this client's seeded order: its class and input
    /// window. `None` when the pool has no unused window left.
    fn next_job(&mut self, windows: usize) -> Option<(Class, usize)> {
        loop {
            if self.queue.is_empty() {
                self.queue = block(&mut self.rng);
                self.queue.reverse();
            }
            let slot = self.queue.pop().expect("block is not empty");
            if slot.class == Class::FullWarm {
                // Its import-align ran earlier in this block (a block cut
                // short by the deadline leaves none: skip).
                match self.landed[slot.pair].take() {
                    Some(window) => return Some((slot.class, window)),
                    None => continue,
                }
            }
            let window = self.next_window;
            if window >= windows {
                return None;
            }
            self.next_window += CLIENTS;
            if slot.class == Class::ImportAlign {
                self.landed[slot.pair] = Some(window);
            }
            return Some((slot.class, window));
        }
    }

    /// submit → pipelined wait → `status` every 2 ms until terminal →
    /// take the outcome. `Ok(false)`: the session is wedged (this job
    /// or another client's outlived `JOB_TIMEOUT`) and nothing was
    /// recorded.
    fn run_job(
        &mut self,
        sw: &ServiceWorld,
        spans: &Spans,
        shared: &Shared,
        (class, window): (Class, usize),
        phase: &mut Phase,
    ) -> Res<bool> {
        let fastq = sw.fastq(window).to_vec();
        let input_bytes = fastq.len() as u64;
        self.serial += 1;
        let submit = WireSubmit {
            name: format!("c{}-{}-{}", self.index, self.serial, class.name()),
            tenant: TENANT.into(),
            priority: Priority::Normal,
            plan: class.plan(),
            input: SubmitInput::Fastq(fastq),
            chunk_size: sw.sizes.chunk_size,
            reference: sw.world.reference.clone(),
        };
        let start_ns = spans.now_ns();
        let submitted = Instant::now();
        let job_id = self.conn.submit(submit)?;
        let wait = self.conn.wait_pipelined(job_id)?;
        loop {
            let t = Instant::now();
            let status = self.conn.status(job_id)?;
            phase.status_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            if status.is_terminal() {
                break;
            }
            if submitted.elapsed() > JOB_TIMEOUT {
                shared.wedged.store(true, Ordering::SeqCst);
            }
            if shared.wedged.load(Ordering::SeqCst) {
                return Ok(false);
            }
            std::thread::sleep(STATUS_POLL);
        }
        let outcome = self.conn.take_wait(wait)?;
        let end_ns = spans.now_ns();
        let exports = class.plan().contains(persona::plan::Stage::ExportSam);
        let ok = outcome.status == WireJobStatus::Completed
            && outcome.reads == sw.sizes.service_job_reads as u64
            && exports != outcome.sam.is_empty()
            && outcome.manifest.as_ref().is_some_and(|m| m.total_records == outcome.reads);
        if class == Class::FullCold && phase.sample_sam.is_empty() {
            phase.sample_sam = outcome.sam.clone();
            phase.sample_manifest = outcome.manifest.clone();
        }
        phase.jobs.push(JobRecord {
            class,
            window,
            job_id,
            client: self.index,
            start_ns,
            end_ns,
            ok,
            sam: exports.then(|| Digest::of_bytes(&outcome.sam)),
            input_bytes,
        });
        Ok(true)
    }
}

/// Runs every client until `seconds` have passed (each finishes the job
/// it is in) and merges what they recorded.
fn run_phase(
    clients: &mut [Client],
    sw: &ServiceWorld,
    served: &Served,
    spans: &Spans,
    seconds: f64,
    shared: &Shared,
) -> Res<Phase> {
    let watch = Stopwatch::start();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let windows = sw.windows();
    let parts: Vec<Res<Phase>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                s.spawn(move || -> Result<Phase, String> {
                    let mut phase = Phase::default();
                    while Instant::now() < deadline {
                        let Some(job) = client.next_job(windows) else {
                            eprintln!("service_mixed: client {} ran out of windows", client.index);
                            break;
                        };
                        let done = client
                            .run_job(sw, spans, shared, job, &mut phase)
                            .map_err(|e| e.to_string())?;
                        if !done {
                            break;
                        }
                        let len = std::fs::metadata(&served.journal).map_or(0, |m| m.len());
                        let mut journal = shared.journal.lock().expect("journal sampler poisoned");
                        journal.1 += len.saturating_sub(journal.0);
                        journal.0 = len;
                        drop(journal);
                        if shared.finished.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_JOB {
                            *shared.rss_at_mark.lock().expect("rss mark poisoned") =
                                Some(inputs::peak_rss_mb());
                        }
                    }
                    Ok(phase)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked").map_err(Into::into))
            .collect()
    });
    let lap = watch.stop();
    let mut merged = Phase {
        wall_s: lap.secs(),
        delivered: lap.delivered,
        cpu_s: lap.cpu_s,
        ..Phase::default()
    };
    for part in parts {
        let part = part?;
        merged.jobs.extend(part.jobs);
        merged.status_us.extend(part.status_us);
        if merged.sample_sam.is_empty() {
            merged.sample_sam = part.sample_sam;
            merged.sample_manifest = part.sample_manifest;
        }
    }
    Ok(merged)
}

/// Warm-up (a tenth of the run, discarded) then the timed phase.
struct Session {
    warmup: Phase,
    timed: Phase,
    journal_appended: u64,
    /// `VmHWM` when job `RSS_AT_JOB` finished (at the end of the
    /// session if it served fewer).
    rss_mb: f64,
}

fn run_session(
    sw: &ServiceWorld,
    served: &Served,
    args: &RunArgs,
    spans: &Spans,
    seconds: f64,
) -> Res<Option<Session>> {
    let mut clients = (0..CLIENTS)
        .map(|i| Client::connect(i, served, args.seed))
        .collect::<Res<Vec<Client>>>()?;
    let shared = Shared::default();
    let warmup = run_phase(&mut clients, sw, served, spans, seconds / 10.0, &shared)?;
    let timed = run_phase(&mut clients, sw, served, spans, seconds, &shared)?;
    if shared.wedged.load(Ordering::SeqCst) {
        return Ok(None);
    }
    let journal_appended = shared.journal.lock().expect("journal sampler poisoned").1;
    let rss_mb =
        shared.rss_at_mark.lock().expect("rss mark poisoned").unwrap_or_else(inputs::peak_rss_mb);
    Ok(Some(Session { warmup, timed, journal_appended, rss_mb }))
}

/// One session on `served`, or — once — on a fresh server if the first
/// wedges.
///
/// At HEAD the service has a rare race (about one session in ninety
/// here): a job's stage threads all end up parked, the job never turns
/// terminal, and its client would poll for ever. A session in which a
/// job outlives `JOB_TIMEOUT` is discarded whole, like a warm-up, and
/// run again; the wedged server is leaked, because stopping it would
/// join the parked threads. Nothing of a discarded session is reported,
/// so every reported number still comes from verified operations only.
/// README.md lists this under the defects the benchmark found.
fn session_with_retry(
    sw: &ServiceWorld,
    served: Served,
    args: &RunArgs,
    traced: bool,
    spans: &Spans,
    seconds: f64,
) -> Res<(Served, Session)> {
    if let Some(session) = run_session(sw, &served, args, spans, seconds)? {
        return Ok((served, session));
    }
    eprintln!(
        "service_mixed: a job did not finish in {JOB_TIMEOUT:?}; session discarded, retrying"
    );
    std::mem::forget(served);
    let served = Served::start(sw, args, "retry", traced, true)?;
    match run_session(sw, &served, args, spans, seconds)? {
        Some(session) => Ok((served, session)),
        None => {
            std::mem::forget(served);
            Err("service_mixed wedged twice in a row".into())
        }
    }
}

/// Operations attempted and failed in a session: every job's status,
/// record count and manifest; the cache hits the `full_warm` jobs must
/// have been; and, for a seeded 1-in-8 sample of the SAM-exporting
/// jobs, byte identity with an in-process run of the same plan.
fn verify(
    sw: &ServiceWorld,
    served: &Served,
    args: &RunArgs,
    session: &Session,
) -> Res<(u64, u64)> {
    let jobs: Vec<&JobRecord> = session.warmup.jobs.iter().chain(&session.timed.jobs).collect();
    let mut attempted = jobs.len() as u64;
    let mut failed = jobs.iter().filter(|j| !j.ok).count() as u64;

    let warm = jobs.iter().filter(|j| j.class == Class::FullWarm).count() as u64;
    attempted += 1;
    failed += u64::from(served.service().cache_stats().hits != warm);

    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let rt = PersonaRuntime::new(store, inputs::config(args.threads))?;
    rt.telemetry().set_enabled(false);
    let mut rng = SplitMix(args.seed ^ 0x5A4D_504C);
    let mut expected: HashMap<usize, Digest> = HashMap::new();
    for job in jobs.iter().filter(|j| j.sam.is_some()) {
        if rng.below(8) != 0 {
            continue;
        }
        let want = match expected.get(&job.window) {
            Some(digest) => *digest,
            None => {
                let report = Plan::full().run(
                    &rt,
                    PlanRequest {
                        name: format!("verify-{}", job.window),
                        source: PlanSource::fastq_bytes(sw.fastq(job.window).to_vec()),
                        chunk_size: sw.sizes.chunk_size,
                        aligner: Some(sw.aligner.clone()),
                        reference: sw.world.reference.clone(),
                    },
                )?;
                let digest = Digest::of_bytes(report.sam.as_deref().unwrap_or_default());
                expected.insert(job.window, digest);
                digest
            }
        };
        attempted += 1;
        failed += u64::from(job.sam != Some(want));
    }
    Ok((attempted, failed))
}

/// `--trace 0`.
pub fn run_e2e(args: &RunArgs) -> Res<Outcome> {
    let spans = Spans::default();
    // Set-up is timed `setup_repeats` times: the one the session uses,
    // then throw-away ones after the session, because the sandbox's
    // speed drifts over seconds and set-ups back to back would all
    // sample the same moment.
    let set_up = |tag: &str| -> Res<(f64, ServiceWorld, Served)> {
        let watch = Stopwatch::start();
        let sw = ServiceWorld::build(args);
        let served = Served::start(&sw, args, tag, false, true)?;
        Ok((watch.stop().secs(), sw, served))
    };
    let (first, sw, served) = set_up("e2e")?;
    let mut setup_s = vec![first];
    let (served, session) = session_with_retry(&sw, served, args, false, &spans, args.seconds)?;
    for _ in 1..args.sizes.setup_repeats {
        setup_s.push(set_up("again")?.0);
    }
    let (attempted, failed) = verify(&sw, &served, args, &session)?;

    let timed = &session.timed;
    eprintln!(
        "service_mixed: {} timed jobs, share of CPU time delivered {:.2}",
        timed.jobs.len(),
        timed.delivered
    );
    let submitted: u64 = session.warmup.jobs.iter().chain(&timed.jobs).map(|j| j.input_bytes).sum();
    let mut m = Measured::default();
    m.put(Metric::median_of("setup_s", &setup_s, "s"));
    m.single("reads_per_s", timed.reads(&sw.sizes) / timed.wall_s, "reads/s");
    m.single("cpu_us_per_read", timed.cpu_s * 1e6 / timed.reads(&sw.sizes).max(1.0), "us/read");
    m.single(
        "stored_bytes_per_input_byte",
        served.store_bytes()? as f64 / submitted.max(1) as f64,
        "ratio",
    );
    m.single("peak_rss_mb", session.rss_mb, "MB");
    Ok(Outcome { metrics: m.into_catalogue(END_TO_END), attempted, failed })
}

/// `--trace 1`: an untraced session and a traced one (their throughput
/// ratio is the price of tracing), the server's own reports, the
/// `full_cold` jobs again through in-process `submit`, the micro-loops.
pub fn run_traced(args: &RunArgs) -> Res<Outcome> {
    let spans = Spans::default();
    let mut m = Measured::default();
    let sw = ServiceWorld::build(args);
    m.single("index.build_s", sw.index_build_s, "s");
    let seconds = args.seconds / 3.0;

    let untraced_rate = {
        let served = Served::start(&sw, args, "untraced", false, true)?;
        let (_served, session) =
            session_with_retry(&sw, served, args, false, &Spans::default(), seconds)?;
        session.timed.reads(&sw.sizes) / session.timed.wall_s
    };

    let served = Served::start(&sw, args, "traced", true, true)?;
    let (served, session) = session_with_retry(&sw, served, args, true, &spans, seconds)?;
    let (mut attempted, mut failed) = verify(&sw, &served, args, &session)?;
    let timed = &session.timed;
    let jobs = timed.jobs.len().max(1) as f64;
    let traced_rate = timed.reads(&sw.sizes) / timed.wall_s;
    m.single("telemetry.traced_over_untraced", untraced_rate / traced_rate, "ratio");

    for class in Class::ALL {
        let name = format!("server.latency_ms_p50.{}", class.name());
        m.put(Metric::median_of(&name, &timed.latencies(Some(class)), "ms"));
    }
    m.put(Metric::median_of("server.job_latency_ms_p50", &timed.latencies(None), "ms"));
    m.put(Metric::percentile_of("server.job_latency_ms_p95", &timed.latencies(None), 95.0, "ms"));
    m.single("server.jobs_per_s", jobs / timed.wall_s, "jobs/s");
    m.put(Metric::median_of("wire.status_rtt_us_p50", &timed.status_us(), "us"));
    m.put(Metric::percentile_of("wire.status_rtt_us_p99", &timed.status_us(), 99.0, "us"));

    // The program's own reports. Histogram quantiles are the upper
    // bounds of power-of-two buckets.
    let all_jobs = (session.warmup.jobs.len() + timed.jobs.len()).max(1) as f64;
    let snap = served.service().metrics();
    let quantile_us = |name: &str, q: f64| {
        snap.histogram(name).map_or(0.0, |h| h.quantile(q) as f64 * timed.delivered / 1e3)
    };
    m.single("server.admission_wait_us_p50", quantile_us("scheduler.admission_wait_ns", 0.5), "us");
    m.single(
        "server.admission_wait_us_p95",
        quantile_us("scheduler.admission_wait_ns", 0.95),
        "us",
    );
    m.single("server.journal_append_us_p50", quantile_us("journal.append_ns.batch", 0.5), "us");
    m.single("server.journal_fsync_us_p50", quantile_us("journal.fsync_ns.batch", 0.5), "us");
    m.single(
        "server.journal_fsyncs",
        snap.histogram("journal.fsync_ns.batch").map_or(0.0, |h| h.count as f64),
        "count",
    );
    m.single(
        "server.journal_bytes_per_job",
        session.journal_appended as f64 / all_jobs,
        "bytes/job",
    );
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    m.single("wire.bytes_in_per_job", counter("wire.bytes_in") / all_jobs, "bytes/job");
    m.single("wire.bytes_out_per_job", counter("wire.bytes_out") / all_jobs, "bytes/job");
    m.single("wire.backpressure_stalls", counter("wire.backpressure_stalls"), "count");
    let cache = served.service().cache_stats();
    m.single(
        "cache.hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "ratio",
    );
    m.single("cache.reuse_saved_ms", cache.reuse_saved_ns as f64 / 1e6, "ms");
    if let Some(counting) = &served.counting {
        counting.take().report(timed.delivered, &mut m);
    }

    // Trace file: one bench span per job on its client's row, plus the
    // server's own trace of the latest jobs (the service keeps the last
    // 64; its clock starts at dispatch, taken here as the submit time).
    let mut chrome = ChromeTrace::default();
    for job in session.warmup.jobs.iter().chain(&timed.jobs) {
        spans.record(Span {
            name: format!("job.{}", job.class.name()),
            trace_id: job.job_id,
            parent: None,
            start_ns: job.start_ns,
            end_ns: job.end_ns,
            tid: job.client as u64 + 1,
            computed: false,
        });
        if let Some(json) = served.service().trace_json(job.job_id) {
            chrome.add_chrome_json(&json, job.start_ns);
        }
    }

    // The same full_cold inputs through in-process submit: what the
    // wire adds to a job.
    let cold: Vec<usize> =
        timed.jobs.iter().filter(|j| j.class == Class::FullCold).map(|j| j.window).collect();
    let frames = sample_frames(&sw, timed, cold.first().copied());
    let sample_manifest = timed.sample_manifest.clone();
    let cold_p50 = median(&timed.latencies(Some(Class::FullCold)));
    drop(served);
    let inproc = inproc_latencies(&sw, args, &cold, seconds)?;
    attempted += inproc.len() as u64;
    failed += inproc.iter().filter(|l| l.is_none()).count() as u64;
    let inproc_ms: Vec<f64> = inproc.into_iter().flatten().collect();
    m.put(Metric::median_of("server.inproc_latency_ms_p50", &inproc_ms, "ms"));
    m.single("wire.overhead_ms_p50", cold_p50 - median(&inproc_ms), "ms");

    let (encode, decode) = micro::frame_ns_per_byte(&frames);
    m.single("wire.frame_encode_ns_per_byte", encode, "ns/byte");
    m.single("wire.frame_decode_ns_per_byte", decode, "ns/byte");
    if let Some(manifest) = &sample_manifest {
        m.single("agd.manifest_json_us", micro::manifest_json_us(manifest), "us");
        m.single("cache.lookup_us", micro::cache_lookup_us(manifest), "us");
    }
    micro::report_common(args.threads, &mut m);

    chrome.add_spans(&spans.snapshot());
    let path = args.out_dir.join("trace_service_mixed.json");
    std::fs::write(&path, chrome.to_json())?;
    eprintln!("wrote {}", path.display());
    Ok(Outcome { metrics: m.into_catalogue(PER_LAYER), attempted, failed })
}

/// The run's real submit and output-chunk messages, for the framing
/// micro-loop.
fn sample_frames(
    sw: &ServiceWorld,
    phase: &Phase,
    window: Option<usize>,
) -> Vec<(Message, Vec<u8>)> {
    let Some(window) = window else { return Vec::new() };
    let submit = Message::SubmitJob {
        seq: 7,
        name: "c0-1-full_cold".into(),
        tenant: TENANT.into(),
        priority: Priority::Normal,
        plan: Plan::full(),
        input: WireInput::Fastq,
        chunk_size: sw.sizes.chunk_size as u64,
        reference: sw.world.reference.clone(),
    };
    let chunk =
        Message::OutputChunk { seq: 8, job_id: 1, stream: OutputStream::Sam, index: 0, last: true };
    vec![(submit, sw.fastq(window).to_vec()), (chunk, phase.sample_sam.clone())]
}

/// `full` over each window through `PersonaService::submit`, closed
/// loop with as many submitters as the wire run had connections, for
/// at most `seconds`. `None` marks a job that did not complete.
fn inproc_latencies(
    sw: &ServiceWorld,
    args: &RunArgs,
    windows: &[usize],
    seconds: f64,
) -> Res<Vec<Option<f64>>> {
    let served = Served::start(sw, args, "inproc", true, false)?;
    let service = served.service();
    let watch = Stopwatch::start();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let next = AtomicUsize::new(0);
    let wedged = AtomicBool::new(false);
    let out: Mutex<Vec<Option<f64>>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                while Instant::now() < deadline && !wedged.load(Ordering::SeqCst) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&window) = windows.get(i) else { break };
                    let t = Instant::now();
                    let submitted = service.submit(JobSpec {
                        name: format!("inproc-{i}"),
                        tenant: TENANT.into(),
                        priority: Priority::Normal,
                        plan: Plan::full(),
                        input: JobInput::Fastq(sw.fastq(window).to_vec()),
                        chunk_size: sw.sizes.chunk_size,
                        aligner: Some(sw.aligner.clone()),
                        reference: sw.world.reference.clone(),
                    });
                    let done = match submitted {
                        Err(_) => false,
                        Ok(handle) => {
                            let (tx, rx) = std::sync::mpsc::channel();
                            handle.on_done(move |outcome| {
                                let _ = tx.send(outcome.status() == JobStatus::Completed);
                            });
                            match rx.recv_timeout(JOB_TIMEOUT) {
                                Ok(done) => done,
                                Err(_) => {
                                    wedged.store(true, Ordering::SeqCst);
                                    break;
                                }
                            }
                        }
                    };
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    out.lock().expect("latency log poisoned").push(done.then_some(ms));
                }
            });
        }
    });
    if wedged.load(Ordering::SeqCst) {
        // The same race as in `session_with_retry`: keep what finished.
        eprintln!("service_mixed: an in-process job did not finish in {JOB_TIMEOUT:?}");
        std::mem::forget(served);
    }
    let delivered = watch.stop().delivered;
    let latencies = out.into_inner().expect("latency log poisoned");
    Ok(latencies.into_iter().map(|l| l.map(|ms| ms * delivered)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_keep_the_mix_and_land_before_they_warm() {
        for seed in 0..50 {
            let slots = block(&mut SplitMix(seed));
            let count = |c| slots.iter().filter(|s| s.class == c).count();
            assert_eq!(
                [Class::FullCold, Class::ImportAlign, Class::FullWarm, Class::ImportOnly]
                    .map(count),
                [6, 2, 2, 2]
            );
            for pair in 0..2 {
                let at = |class| slots.iter().position(|s| *s == Slot { class, pair }).unwrap();
                assert!(at(Class::ImportAlign) < at(Class::FullWarm), "seed {seed}: {slots:?}");
            }
        }
    }

    #[test]
    fn job_order_is_seeded() {
        let order = |seed| (0..3).flat_map(|_| block(&mut SplitMix(seed))).collect::<Vec<_>>();
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
    }
}
