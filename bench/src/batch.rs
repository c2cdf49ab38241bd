//! The three in-process batch workloads: `fastq_to_bam`,
//! `aligned_to_sam`, `bwa_align`.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use persona::plan::{DataState, Plan, PlanReport, PlanRequest, PlanSource, Stage, StageRun};
use persona::runtime::{JobContext, PersonaRuntime};
use persona_agd::chunk::ChunkData;
use persona_agd::chunk_io::{ChunkStore, DirStore};
use persona_agd::columns;
use persona_agd::manifest::Manifest;
use persona_agd::results::AlignmentResult;
use persona_align::Aligner;
use persona_cache::Digest;
use persona_dataflow::Priority;
use persona_telemetry::JobTrace;

use crate::catalog::{Measured, END_TO_END, PER_LAYER};
use crate::inputs::{self, Lap, Sizes, Stopwatch, World};
use crate::replay::{Export, Replay, ReplaySpec};
use crate::span::{ChromeTrace, Spans};
use crate::stats::{median, ratio, Metric};
use crate::wrap::{CountingStore, TimingAligner};
use crate::{micro, Outcome, Res, RunArgs};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FastqToBam,
    AlignedToSam,
    BwaAlign,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::FastqToBam => "fastq_to_bam",
            Kind::AlignedToSam => "aligned_to_sam",
            Kind::BwaAlign => "bwa_align",
        }
    }

    fn input_state(self) -> DataState {
        match self {
            Kind::FastqToBam => DataState::Fastq,
            Kind::AlignedToSam => DataState::Aligned,
            Kind::BwaAlign => DataState::EncodedAgd,
        }
    }

    fn stages(self) -> &'static [Stage] {
        match self {
            Kind::FastqToBam => {
                &[Stage::Import, Stage::Align, Stage::Sort, Stage::Dupmark, Stage::ExportBam]
            }
            Kind::AlignedToSam => &[Stage::Sort, Stage::Dupmark, Stage::ExportSam],
            Kind::BwaAlign => &[Stage::Align],
        }
    }

    /// The plan the workload times: every stage in one `Plan::run`, so
    /// the stages that can fuse do.
    fn plan(self) -> Plan {
        plan_of(self.input_state(), self.stages())
    }

    fn reads(self, sizes: &Sizes) -> usize {
        match self {
            Kind::FastqToBam => sizes.fastq_to_bam_reads,
            Kind::AlignedToSam => sizes.aligned_to_sam_reads,
            Kind::BwaAlign => sizes.bwa_align_reads,
        }
    }
}

fn plan_of(input: DataState, stages: &[Stage]) -> Plan {
    stages
        .iter()
        .fold(Plan::builder(input), |b, &s| b.then(s))
        .build()
        .expect("the workload's stage chain is a valid plan")
}

/// Everything a batch workload needs before its first run: the
/// generated inputs, the aligner with its index, a fresh `DirStore`,
/// the pre-landed dataset and the runtime. Building this is `setup_s`.
pub struct Setup {
    kind: Kind,
    sizes: Sizes,
    pub world: World,
    pub aligner: Arc<dyn Aligner>,
    pub index_build_s: f64,
    dir: PathBuf,
    pub store: Arc<dyn ChunkStore>,
    /// The dataset the plan starts from (`None`: it starts from FASTQ).
    dataset: Option<Manifest>,
    /// Bytes of the plan's input: the FASTQ, or the dataset as stored.
    pub input_bytes: u64,
    /// Objects present after set-up; anything else was left by a run.
    baseline: HashSet<String>,
    /// The untraced runtime: telemetry off, nothing attached.
    pub rt: Arc<PersonaRuntime>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Setup {
    /// `tag` names the store directory, so a second set-up can be
    /// built while the first is in use.
    pub fn build(kind: Kind, args: &RunArgs, tag: &str) -> Res<Setup> {
        let sizes = args.sizes;
        let dir = args.out_dir.join(format!("store-{}-{tag}", kind.name()));
        let _ = std::fs::remove_dir_all(&dir);
        let store: Arc<dyn ChunkStore> = Arc::new(DirStore::open(&dir)?);
        let world = World::build(args.seed, sizes.genome_len, kind.reads(&sizes));
        let (aligner, index_build_s) = match kind {
            Kind::BwaAlign => world.bwa(),
            Kind::FastqToBam | Kind::AlignedToSam => world.snap(),
        };
        let rt = PersonaRuntime::new(store.clone(), inputs::config(args.threads))?;
        rt.telemetry().set_enabled(false);
        let landing = match kind {
            Kind::FastqToBam => None,
            Kind::AlignedToSam => Some(Plan::import_align()),
            Kind::BwaAlign => Some(Plan::import_only()),
        };
        let dataset = match landing {
            None => None,
            Some(plan) => {
                let report = plan.run(
                    &rt,
                    PlanRequest {
                        name: "in".into(),
                        source: PlanSource::fastq_bytes(world.fastq.clone()),
                        chunk_size: sizes.chunk_size,
                        aligner: Some(aligner.clone()),
                        reference: world.reference.clone(),
                    },
                )?;
                Some(report.manifest.ok_or("landing plan produced no manifest")?)
            }
        };
        let objects = inputs::dir_objects(&dir)?;
        let input_bytes = match dataset {
            Some(_) => objects.iter().map(|(_, len)| len).sum(),
            None => world.fastq.len() as u64,
        };
        let baseline = objects.into_iter().map(|(name, _)| name).collect();
        Ok(Setup {
            kind,
            sizes,
            world,
            aligner,
            index_build_s,
            dir,
            store,
            dataset,
            input_bytes,
            baseline,
            rt,
        })
    }

    fn reads(&self) -> f64 {
        self.world.reads.len() as f64
    }

    fn request(
        &self,
        name: &str,
        plan: &Plan,
        dataset: Option<&Manifest>,
        aligner: &Arc<dyn Aligner>,
    ) -> PlanRequest {
        PlanRequest {
            name: name.to_string(),
            source: match dataset {
                Some(m) => PlanSource::Dataset(m.clone()),
                None => PlanSource::fastq_bytes(self.world.fastq.clone()),
            },
            chunk_size: self.sizes.chunk_size,
            aligner: plan.contains(Stage::Align).then(|| aligner.clone()),
            reference: self.world.reference.clone(),
        }
    }

    /// One run of the workload's plan. The wall clock covers input
    /// handed over → last output byte held; building the request (a
    /// copy of the input) is outside it.
    pub fn run_once(
        &self,
        rt: &PersonaRuntime,
        aligner: &Arc<dyn Aligner>,
        name: &str,
    ) -> Res<(PlanReport, Lap)> {
        let plan = self.kind.plan();
        let req = self.request(name, &plan, self.dataset.as_ref(), aligner);
        let watch = Stopwatch::start();
        let report = plan.run(rt, req)?;
        Ok((report, watch.stop()))
    }

    /// The same job stage by stage: one single-stage plan per stage, so
    /// nothing fuses. Returns the final report's output and, per stage,
    /// `(stage, wall seconds)`.
    pub fn run_staged(
        &self,
        rt: &PersonaRuntime,
        aligner: &Arc<dyn Aligner>,
        name: &str,
        spans: Option<(&Spans, u64, usize)>,
    ) -> Res<Staged> {
        let mut state = self.kind.input_state();
        let mut current = self.dataset.clone();
        let mut staged = Staged { output: Vec::new(), stages: Vec::new(), wall_s: 0.0, cpu_s: 0.0 };
        let cpu_before = inputs::process_cpu_s();
        for &stage in self.kind.stages() {
            let plan = plan_of(state, &[stage]);
            let req = self.request(name, &plan, current.as_ref(), aligner);
            let watch = Stopwatch::start();
            let mut report = match spans {
                Some((spans, trace_id, parent)) => spans.scope(
                    &format!("staged.{}", stage.name()),
                    trace_id,
                    Some(parent),
                    |_| plan.run(rt, req),
                )?,
                None => plan.run(rt, req)?,
            };
            let wall = watch.stop().secs();
            staged.wall_s += wall;
            staged.stages.push((stage, wall));
            if let Some(m) = report.final_manifest() {
                current = Some(m.clone());
            }
            state = stage.output();
            if stage == *self.kind.stages().last().expect("plans have stages") {
                staged.output = self.take_output(&mut report)?;
            }
        }
        staged.cpu_s = inputs::process_cpu_s() - cpu_before;
        Ok(staged)
    }

    /// The bytes whose identity the workload checks: the BAM, the SAM,
    /// or the records of the results column in dataset order.
    /// The exported bytes are moved out of the report.
    pub fn take_output(&self, report: &mut PlanReport) -> Res<Vec<u8>> {
        match self.kind {
            Kind::FastqToBam => Ok(report.bam.take().ok_or("plan exported no BAM")?),
            Kind::AlignedToSam => Ok(report.sam.take().ok_or("plan exported no SAM")?),
            Kind::BwaAlign => {
                let manifest = report.manifest.as_ref().ok_or("align produced no manifest")?;
                let mut records = Vec::new();
                for entry in &manifest.records {
                    let name = Manifest::chunk_object_name(&entry.path, columns::RESULTS);
                    records.extend_from_slice(&ChunkData::decode(&self.store.get(&name)?)?.data);
                }
                Ok(records)
            }
        }
    }

    /// Deletes what runs left in the store (everything that was not
    /// there after set-up), so every run starts from the same store;
    /// returns how many bytes that was.
    pub fn cleanup(&self) -> Res<u64> {
        let mut left = 0u64;
        for (name, len) in inputs::dir_objects(&self.dir)? {
            if !self.baseline.contains(&name) {
                self.store.delete(&name)?;
                left += len;
            }
        }
        Ok(left)
    }

    /// The reference output, computed independently of the timed plan:
    /// a stage-by-stage run for the pipelines, a bare `align_read` loop
    /// for `bwa_align`.
    pub fn reference_output(&self, threads: usize) -> Res<Vec<u8>> {
        match self.kind {
            Kind::BwaAlign => Ok(bare_align(&self.aligner, &self.world, threads).0),
            Kind::FastqToBam | Kind::AlignedToSam => {
                let staged = self.run_staged(&self.rt, &self.aligner, "ref", None)?;
                self.cleanup()?;
                Ok(staged.output)
            }
        }
    }
}

pub struct Staged {
    pub output: Vec<u8>,
    pub stages: Vec<(Stage, f64)>,
    pub wall_s: f64,
    /// CPU seconds the process spent during the run, all threads.
    pub cpu_s: f64,
}

/// Every read through `Aligner::align_read` on plain scoped threads,
/// nothing else: the kernel throughput the framework sits on. Threads
/// claim batches of reads from a shared counter, so one slow core does
/// not hold the others' share. Returns the encoded results in read
/// order and the wall seconds of the loop.
pub fn bare_align(aligner: &Arc<dyn Aligner>, world: &World, threads: usize) -> (Vec<u8>, f64) {
    const BATCH: usize = 256;
    let batches: Vec<&[persona_seq::Read]> = world.reads.chunks(BATCH).collect();
    let next = AtomicUsize::new(0);
    let watch = Stopwatch::start();
    let mut parts: Vec<(usize, Vec<AlignmentResult>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while let Some(batch) = batches.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let results: Vec<AlignmentResult> =
                            batch.iter().map(|r| aligner.align_read(&r.bases, &r.quals)).collect();
                        mine.push((batch.as_ptr() as usize, results));
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("align thread panicked")).collect()
    });
    let wall = watch.stop().secs();
    // Batches are slices of one vector: their addresses order them.
    parts.sort_unstable_by_key(|(at, _)| *at);
    let mut encoded = Vec::new();
    for r in parts.iter().flat_map(|(_, results)| results) {
        r.encode_into(&mut encoded);
    }
    (encoded, wall)
}

/// Whether SAM text is coordinate-sorted: unmapped records (flag 4)
/// first, then non-decreasing `(contig, position)`.
pub fn sam_is_sorted(sam: &[u8], contigs: &[(String, u64)]) -> bool {
    let mut last: Option<(usize, u64)> = None;
    for line in sam.split(|&b| b == b'\n').filter(|l| !l.is_empty() && l[0] != b'@') {
        let mut fields = line.split(|&b| b == b'\t');
        let (Some(_), Some(flag), Some(rname), Some(pos)) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return false;
        };
        let parse = |f: &[u8]| std::str::from_utf8(f).ok().and_then(|s| s.parse::<u64>().ok());
        let (Some(flag), Some(pos)) = (parse(flag), parse(pos)) else { return false };
        if flag & 4 != 0 {
            if last.is_some() {
                return false;
            }
            continue;
        }
        let Some(contig) = contigs.iter().position(|(name, _)| name.as_bytes() == rname) else {
            return false;
        };
        if last.is_some_and(|l| (contig, pos) < l) {
            return false;
        }
        last = Some((contig, pos));
    }
    true
}

/// `--trace 0`: the end-to-end metrics, telemetry off, nothing attached.
pub fn run_e2e(kind: Kind, args: &RunArgs) -> Res<Outcome> {
    // Set-up is timed `setup_repeats` times: the one the runs use, then
    // throw-away ones spread evenly through the timed runs, because the
    // sandbox's speed drifts over seconds and three set-ups back to back
    // would all sample the same moment.
    let repeats = args.sizes.setup_repeats.max(1);
    let watch = Stopwatch::start();
    let setup = Setup::build(kind, args, "main")?;
    let mut setup_s = vec![watch.stop().secs()];

    setup.run_once(&setup.rt, &setup.aligner, "warm")?;
    setup.cleanup()?;

    let (mut walls, mut delivered, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let mut digests: Vec<Digest> = Vec::new();
    let mut left_bytes = 0u64;
    // Peak memory is read before the first throw-away set-up, which
    // would otherwise add a second copy of the inputs to it.
    let mut peak_rss_mb = None;
    let started = Instant::now();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let due = elapsed >= args.seconds * setup_s.len() as f64 / (repeats - 1).max(1) as f64;
        if setup_s.len() < repeats && !walls.is_empty() && (due || elapsed >= args.seconds) {
            peak_rss_mb.get_or_insert_with(inputs::peak_rss_mb);
            let watch = Stopwatch::start();
            let extra = Setup::build(kind, args, "again")?;
            setup_s.push(watch.stop().secs());
            drop(extra);
            continue;
        }
        if !walls.is_empty() && elapsed >= args.seconds {
            break;
        }
        // Fixed-width names: a manifest holds the name once per chunk, so
        // the bytes a run leaves must not depend on how many runs fit.
        let (mut report, lap) =
            setup.run_once(&setup.rt, &setup.aligner, &format!("it{:04}", walls.len()))?;
        walls.push(lap.secs());
        delivered.push(lap.delivered);
        cpus.push(lap.cpu_s);
        digests.push(Digest::of_bytes(&setup.take_output(&mut report)?));
        left_bytes = setup.cleanup()?;
    }

    let reference = setup.reference_output(args.threads)?;
    let expected = Digest::of_bytes(&reference);
    let mut failed = digests.iter().filter(|d| **d != expected).count() as u64;
    let mut attempted = digests.len() as u64;
    if kind == Kind::AlignedToSam {
        attempted += 1;
        failed += u64::from(!sam_is_sorted(&reference, &setup.world.reference));
    }

    eprintln!(
        "{}: {} timed runs, median share of CPU time delivered {:.2}",
        kind.name(),
        walls.len(),
        median(&delivered)
    );
    let wall = Metric::median_of("wall_s", &walls, "s");
    let reads = setup.reads();
    let mut m = Measured::default();
    m.put(Metric::median_of("setup_s", &setup_s, "s"));
    m.put(wall.map("reads_per_s", "reads/s", |s| reads / s));
    let cpu_us: Vec<f64> = cpus.iter().map(|s| s * 1e6 / reads).collect();
    m.put(Metric::median_of("cpu_us_per_read", &cpu_us, "us/read"));
    m.single("stored_bytes_per_input_byte", left_bytes as f64 / setup.input_bytes as f64, "ratio");
    m.single("peak_rss_mb", peak_rss_mb.unwrap_or_else(inputs::peak_rss_mb), "MB");
    Ok(Outcome { metrics: m.into_catalogue(END_TO_END), attempted, failed })
}

fn stage_row_name(stage: Stage) -> &'static str {
    match stage {
        Stage::ExportSam | Stage::ExportBam => "export",
        other => other.name(),
    }
}

/// `--trace 1`: the per-layer metrics. Telemetry on, a `JobTrace`
/// attached, the counting store and timing aligner installed, spans
/// around every call; then the stage-by-stage runs, the single-thread
/// layer replay, the bare aligner loop and the micro-loops.
pub fn run_traced(kind: Kind, args: &RunArgs) -> Res<Outcome> {
    let spans = Spans::default();
    let mut chrome = ChromeTrace::default();
    let mut m = Measured::default();
    // Digests of every output produced on the way, checked against the
    // reference once the stage-by-stage run (or bare loop) has made it.
    let mut outputs: Vec<Digest> = Vec::new();

    let setup = Setup::build(kind, args, "main")?;
    let reads = setup.reads();
    m.single("index.build_s", setup.index_build_s, "s");

    let counting = CountingStore::new(setup.store.clone());
    let timing = TimingAligner::new(setup.aligner.clone());
    let timing_dyn: Arc<dyn Aligner> = timing.clone();
    let traced_rt = PersonaRuntime::new(counting.clone(), inputs::config(args.threads))?;
    traced_rt.telemetry().set_enabled(true);

    // Untraced and traced fused runs in alternation: their ratio is the
    // price of tracing, and the last traced run feeds the wrappers'
    // and the program's own reports.
    setup.run_once(&setup.rt, &setup.aligner, "warm")?;
    setup.cleanup()?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut trace_id = 0u64;
    let mut last = None;
    let started = Instant::now();
    while traced.len() < 2 || started.elapsed().as_secs_f64() < args.seconds / 2.0 {
        trace_id += 1;
        let (_, lap) = spans.scope("fused.untraced", trace_id, None, |_| {
            setup.run_once(&setup.rt, &setup.aligner, "untraced")
        })?;
        untraced.push(lap.secs());
        let left_bytes = setup.cleanup()?;

        trace_id += 1;
        counting.take();
        timing.take();
        let origin_ns = spans.now_ns();
        let job_trace = JobTrace::real();
        let view =
            traced_rt.for_job(JobContext::new(Priority::Normal).with_trace(job_trace.clone()));
        let (mut report, lap) = spans.scope("fused.traced", trace_id, None, |_| {
            setup.run_once(&view, &timing_dyn, "traced")
        })?;
        traced.push(lap.secs());
        chrome.add_job_trace(&job_trace, origin_ns, trace_id);
        outputs.push(Digest::of_bytes(&setup.take_output(&mut report)?));
        last = Some((report, counting.take(), timing.take(), left_bytes, lap.delivered));
        setup.cleanup()?;
    }
    let fused_wall = median(&untraced);
    m.single("telemetry.traced_over_untraced", median(&traced) / fused_wall, "ratio");
    // What the wrappers and the program's reports timed inside the last
    // traced run is corrected by that run's delivered share.
    let (report, store, read_ns, left_bytes, delivered) = last.expect("at least one traced run");

    m.single("agd.stored_bytes_per_read", left_bytes as f64 / reads, "bytes/read");
    store.report(delivered, &mut m);
    for (stage, elapsed, busy) in report.stage_rows() {
        let row = stage_row_name(Stage::parse(stage).ok_or("unknown stage row")?);
        m.single(&format!("core.{row}.wall_s"), elapsed.as_secs_f64() * delivered, "s");
        m.single(&format!("core.{row}.busy_frac"), busy, "ratio");
    }
    if let Some(StageRun::Align(align)) = report.stage(Stage::Align) {
        let p = &align.profile;
        let n = align.reads.max(1) as f64;
        let phase_ns = |d: std::time::Duration| d.as_nanos() as f64 * delivered / n;
        m.single("index.seed_time_ns_per_read", phase_ns(p.seed_time), "ns/read");
        m.single("align.verify_time_ns_per_read", phase_ns(p.verify_time), "ns/read");
        m.single("index.ops_per_read", p.index_ops as f64 / n, "ops/read");
        m.single("align.dp_cells_per_read", p.dp_cells as f64 / n, "cells/read");
        m.single("align.candidates_per_read", p.candidates as f64 / n, "cand/read");
        m.single(
            "align.mapped_per_candidate",
            ratio(align.mapped as f64, p.candidates as f64),
            "ratio",
        );
        let ns: Vec<f64> = read_ns.iter().map(|&v| v as f64 * delivered).collect();
        m.put(Metric::median_of("align.read_ns_p50", &ns, "ns"));
        m.put(Metric::percentile_of("align.read_ns_p99", &ns, 99.0, "ns"));
        m.single("align.busy_s", ns.iter().sum::<f64>() / 1e9, "s");
    }

    // Stage by stage on the same threads: what fusing the stages buys,
    // and the align stage's rate for the overhead claim.
    trace_id += 1;
    let staged = spans.scope("staged", trace_id, None, |root| {
        setup.run_staged(&setup.rt, &setup.aligner, "staged", Some((&spans, trace_id, root)))
    })?;
    setup.cleanup()?;
    outputs.push(Digest::of_bytes(&staged.output));
    m.single("core.staged_over_fused", staged.wall_s / fused_wall, "ratio");
    // The bare aligner loop right after it: the kernel rate the framework
    // sits on, and for `bwa_align` the reference output.
    let bare = (kind != Kind::AlignedToSam)
        .then(|| bare_align(&setup.aligner, &setup.world, args.threads));
    let expected = Digest::of_bytes(match (kind, &bare) {
        (Kind::BwaAlign, Some((records, _))) => records,
        _ => &staged.output,
    });
    if let Some((_, bare_wall)) = bare {
        let bare_rate = reads / bare_wall;
        m.single("align.bare_reads_per_s", bare_rate, "reads/s");
        let align_wall = staged.stages.iter().find(|(s, _)| *s == Stage::Align).map(|(_, w)| *w);
        if let Some(align_wall) = align_wall {
            m.single("core.align_overhead_frac", 1.0 - (reads / align_wall) / bare_rate, "ratio");
        }
    }

    // One compute thread: the single-threaded baseline of the fused
    // plan, and the stage-by-stage wall the layer replay accounts for.
    let rt1 = PersonaRuntime::new(setup.store.clone(), inputs::config(1))?;
    rt1.telemetry().set_enabled(false);
    trace_id += 1;
    let (_, fused_1t) = spans
        .scope("fused.1thread", trace_id, None, |_| setup.run_once(&rt1, &setup.aligner, "one"))?;
    setup.cleanup()?;
    m.single("dataflow.speedup_nt_over_1t", fused_1t.secs() / fused_wall, "ratio");
    trace_id += 1;
    let staged_1t = spans.scope("staged.1thread", trace_id, None, |root| {
        setup.run_staged(&rt1, &setup.aligner, "one", Some((&spans, trace_id, root)))
    })?;
    setup.cleanup()?;

    // The layer replay, and the table that accounts for the 1-thread
    // staged wall: Σ layer self time + residual.
    trace_id += 1;
    let spec = ReplaySpec {
        name: "replay",
        fastq: (kind == Kind::FastqToBam).then_some(setup.world.fastq.as_slice()),
        dataset: setup.dataset.as_ref(),
        aligner: (kind != Kind::AlignedToSam).then_some(&*setup.aligner),
        sort_dupmark: kind != Kind::BwaAlign,
        export: match kind {
            Kind::FastqToBam => Some(Export::Bam),
            Kind::AlignedToSam => Some(Export::Sam),
            Kind::BwaAlign => None,
        },
        chunk_size: setup.sizes.chunk_size,
        reference: &setup.world.reference,
    };
    let watch = Stopwatch::start();
    let replayed = Replay::new(&spans, setup.store.clone(), trace_id).run(&spec)?;
    let replay_delivered = watch.stop().delivered;
    setup.cleanup()?;
    let replay_output = match kind {
        Kind::FastqToBam => &replayed.bam,
        Kind::AlignedToSam => &replayed.sam,
        Kind::BwaAlign => &replayed.results,
    };
    outputs.push(Digest::of_bytes(replay_output));
    let attempted = outputs.len() as u64;
    let failed = outputs.iter().filter(|d| **d != expected).count() as u64;

    let all_spans = spans.snapshot();
    let computed: HashSet<&str> =
        all_spans.iter().filter(|s| s.computed).map(|s| s.name.as_str()).collect();
    let self_ns = spans.self_ns_by_name();
    let layer = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 * replay_delivered;
    let b = replayed.bytes;
    m.single("formats.fastq_parse_ns_per_read", layer("formats.fastq_parse") / reads, "ns/read");
    m.single("formats.bgzf_ns_per_byte", ratio(layer("formats.bgzf"), b.bgzf_in as f64), "ns/byte");
    m.single("formats.bam_write_self_ns_per_read", layer("formats.bam_write") / reads, "ns/read");
    m.single("formats.sam_format_ns_per_read", layer("formats.sam_format") / reads, "ns/read");
    m.single(
        "compress.gzip_encode_ns_per_byte",
        ratio(layer("compress.gzip_encode"), b.gzip_in as f64),
        "ns/byte",
    );
    m.single(
        "compress.gzip_decode_ns_per_byte",
        ratio(layer("compress.gzip_decode"), b.gunzip_out as f64),
        "ns/byte",
    );
    m.single(
        "compress.gzip_ratio",
        ratio((b.gzip_in + b.gunzip_out) as f64, (b.gzip_out + b.gunzip_in) as f64),
        "ratio",
    );
    m.single("agd.chunk_encode_self_ns_per_read", layer("agd.chunk_encode") / reads, "ns/read");
    m.single("agd.chunk_decode_self_ns_per_read", layer("agd.chunk_decode") / reads, "ns/read");
    m.single("agd.results_encode_ns_per_read", layer("agd.results_encode") / reads, "ns/read");
    m.single("agd.results_decode_ns_per_read", layer("agd.results_decode") / reads, "ns/read");
    let layers_ns: f64 = self_ns
        .keys()
        .filter(|name| LAYER_CRATES.iter().any(|c| name.starts_with(c)))
        .map(|name| layer(name))
        .sum();
    // Even with one compute thread the stages' reader, parser and writer
    // nodes run beside it, so the run's CPU time, not its wall, is what
    // the single-threaded replay can account for.
    let accounted_s = if staged_1t.cpu_s > 0.0 { staged_1t.cpu_s } else { staged_1t.wall_s };
    let residual = (accounted_s * 1e9 - layers_ns) / reads;
    m.single("core.residual_ns_per_read", residual, "ns/read");
    print_layer_table(kind, &self_ns, &computed, replay_delivered, reads, &staged_1t, residual);

    if kind == Kind::FastqToBam {
        m.single(
            "baseline.standalone_reads_per_s",
            standalone_rate(&setup, args.threads)?,
            "reads/s",
        );
    }
    micro::report_common(args.threads, &mut m);

    chrome.add_spans(&all_spans);
    let path = args.out_dir.join(format!("trace_{}.json", kind.name()));
    std::fs::write(&path, chrome.to_json())?;
    eprintln!("wrote {}", path.display());
    Ok(Outcome { metrics: m.into_catalogue(PER_LAYER), attempted, failed })
}

/// Span-name prefixes that are layers (crates) of the program; the
/// replay's own glue spans (`replay.*`) and the run spans are not.
const LAYER_CRATES: [&str; 6] = ["formats.", "compress.", "agd.", "store.", "index.", "align."];

/// The layer table of the traced run (stderr: the metric lines on
/// stdout carry the same numbers by catalogue name).
fn print_layer_table(
    kind: Kind,
    self_ns: &std::collections::BTreeMap<String, u64>,
    computed: &HashSet<&str>,
    delivered: f64,
    reads: f64,
    staged_1t: &Staged,
    residual: f64,
) {
    eprintln!("{}: 1-thread stage-by-stage run per read, by layer (self time)", kind.name());
    for (name, ns) in self_ns {
        if LAYER_CRATES.iter().any(|c| name.starts_with(c)) {
            eprintln!(
                "  {name:<24} {:>10.1} ns/read{}",
                *ns as f64 * delivered / reads,
                if computed.contains(name.as_str()) { "  (computed)" } else { "" }
            );
        }
    }
    eprintln!("  {:<24} {residual:>10.1} ns/read", "core (residual)");
    eprintln!("  {:<24} {:>10.1} ns/read", "= CPU time, 1 thread", staged_1t.cpu_s * 1e9 / reads);
    eprintln!("  {:<24} {:>10.1} ns/read", "  (wall, 1 thread)", staged_1t.wall_s * 1e9 / reads);
}

/// The paper's comparator: the standalone aligner (gz-FASTQ → SAM
/// segments) on the same reads and threads.
fn standalone_rate(setup: &Setup, threads: usize) -> Res<f64> {
    let gz = persona_compress::gzip::compress(&setup.world.fastq);
    setup.store.put("standalone.fastq.gz", &gz)?;
    let watch = Stopwatch::start();
    let report = persona_baseline::standalone::run_standalone(
        &setup.store,
        "standalone.fastq.gz",
        "standalone.sam",
        &setup.world.reference,
        &setup.aligner,
        threads,
    )?;
    let wall = watch.stop().secs();
    setup.cleanup()?;
    Ok(report.reads as f64 / wall)
}
