//! Composable pipeline plans: user-built stage graphs over AGD
//! datasets.
//!
//! Persona's central design point (paper §4.1) is that pipelines are
//! *composed* from bioinformatics kernels, not hardwired: "a thin
//! library that stitches these nodes together into optimized subgraphs
//! for common I/O patterns and bioinformatics functions". This module
//! is that composition surface. A [`Plan`] is an ordered list of
//! [`Stage`]s typed by the dataset state each stage consumes and
//! produces:
//!
//! ```text
//! Fastq ─import→ EncodedAgd ─align→ Aligned ─sort→ Sorted
//!                                      │              │
//!                                      │           ─dupmark→ DupMarked
//!                                      └──────────────┴─export-sam→ Sam
//!                                                     └─export-bam→ Bgzf
//! ```
//!
//! [`PlanBuilder`] assembles a plan and rejects invalid compositions at
//! build time with precise, distinct errors ([`PlanError`]): a stage in
//! the wrong order, a stage whose producer is missing, a duplicated
//! stage, or an empty plan. A plan that builds is guaranteed runnable:
//! [`Plan::run`] executes any valid plan on a (possibly job-bound)
//! [`PersonaRuntime`] with fused streaming overlap and cooperative
//! cancellation — an `import` directly followed by `align` streams
//! chunks through a bounded queue while both stages share the executor,
//! an `align` directly followed by `sort` streams finished chunks into
//! the incremental merge, the sort's write marks duplicates for a
//! `dupmark` directly after it (which then runs no stage of its own)
//! and streams its output chunks into the export after either, and a
//! `dupmark` over a dataset at rest streams into an export, so
//! `import → align → sort → dupmark → export` runs as one group. Each
//! chunk travels with the columns its producer holds, so a fused
//! consumer does not read back what upstream just wrote, nor land what
//! no one reads ([`Plan::run`]). Which neighbours stream is
//! stated once, in [`STREAMS`]; everything else about fusion is derived
//! from it.
//!
//! Plans serialize to JSON through the vendored serde
//! (`{"input":"fastq","stages":["import","align",...]}`), and
//! deserialization re-validates through the builder, so a wire protocol
//! can ship plans without ever admitting an invalid one.

use std::io::BufRead;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use persona_agd::manifest::Manifest;
use persona_align::Aligner;
use persona_compress::deflate::CompressLevel;
use serde::{field, DeError, Deserialize, Serialize, Value};

use crate::caching::{CacheSession, CacheUse};
use crate::manifest_server::{Edge, EdgeOut};
use crate::pipeline::align::{self, AlignReport};
use crate::pipeline::dupmark::{self, DupmarkReport};
use crate::pipeline::export::{self, ExportReport};
use crate::pipeline::import::{self, ImportReport};
use crate::pipeline::sort::{self, SortKey, SortReport};
use crate::pipeline::Landing;
use crate::runtime::PersonaRuntime;
use crate::{Error, Result};

serde::serde_enum! {
    /// The state of a dataset as it moves through a plan. Each [`Stage`]
    /// consumes one (or a set of) state(s) and produces the next; the
    /// builder tracks the chain so only coherent plans build.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum DataState as "dataset state" {
        /// Raw FASTQ bytes from the sequencer.
        Fastq = "fastq",
        /// An encoded AGD dataset (bases/qual/metadata columns, no results).
        EncodedAgd = "encoded-agd",
        /// An AGD dataset with a `results` column (aligned).
        Aligned = "aligned",
        /// A coordinate-sorted aligned dataset.
        Sorted = "sorted",
        /// A sorted dataset whose duplicate flags have been set.
        DupMarked = "dup-marked",
        /// SAM text (terminal).
        Sam = "sam",
        /// BGZF-compressed BAM (terminal).
        Bgzf = "bgzf",
    }
}

serde::serde_enum! {
    /// One pipeline stage — the unit a plan composes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Stage as "stage", fn name {
        /// FASTQ → encoded AGD dataset.
        Import = "import",
        /// Encoded AGD → aligned (adds the `results` column).
        Align = "align",
        /// Aligned → coordinate-sorted dataset (`{name}.sorted`).
        Sort = "sort",
        /// Sorted → duplicate-marked (rewrites only `results` chunks).
        Dupmark = "dupmark",
        /// Aligned/sorted/dup-marked dataset → SAM text.
        ExportSam = "export-sam",
        /// Aligned/sorted/dup-marked dataset → BGZF BAM.
        ExportBam = "export-bam",
    }
}

impl Stage {
    /// Whether this stage can consume a dataset in `state`.
    pub fn accepts(&self, state: DataState) -> bool {
        match self {
            Stage::Import => state == DataState::Fastq,
            Stage::Align => state == DataState::EncodedAgd,
            Stage::Sort => state == DataState::Aligned,
            Stage::Dupmark => state == DataState::Sorted,
            Stage::ExportSam | Stage::ExportBam => {
                matches!(state, DataState::Aligned | DataState::Sorted | DataState::DupMarked)
            }
        }
    }

    /// The canonical input state (for error messages; export stages
    /// accept several, of which [`DataState::Sorted`] is typical).
    pub fn input_hint(&self) -> DataState {
        match self {
            Stage::Import => DataState::Fastq,
            Stage::Align => DataState::EncodedAgd,
            Stage::Sort => DataState::Aligned,
            Stage::Dupmark => DataState::Sorted,
            Stage::ExportSam | Stage::ExportBam => DataState::Sorted,
        }
    }

    /// The state this stage produces.
    pub fn output(&self) -> DataState {
        match self {
            Stage::Import => DataState::EncodedAgd,
            Stage::Align => DataState::Aligned,
            Stage::Sort => DataState::Sorted,
            Stage::Dupmark => DataState::DupMarked,
            Stage::ExportSam => DataState::Sam,
            Stage::ExportBam => DataState::Bgzf,
        }
    }

    /// Whether this stage's dataset state can land in the runtime's
    /// store (and therefore notify the job's stage observer and be a
    /// cache boundary). Export stages buffer bytes in memory and land
    /// nothing.
    pub fn is_durable(&self) -> bool {
        matches!(self, Stage::Import | Stage::Align | Stage::Sort | Stage::Dupmark)
    }
}

/// Why a composition was rejected at build time. Every illegal shape
/// maps to a distinct variant so callers (and wire-protocol clients)
/// get a precise diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The plan has no stages.
    Empty,
    /// The *first* stage cannot consume the plan's declared input
    /// state — nothing earlier in the plan produces what it needs.
    MissingProducer {
        /// The stage that has no producer.
        stage: Stage,
        /// The state it needs.
        needs: DataState,
        /// The plan's declared input state.
        input: DataState,
    },
    /// A later stage cannot consume the state left by the stage before
    /// it (stages in the wrong order, or a needed stage omitted
    /// mid-plan).
    WrongOrder {
        /// The stage that does not fit.
        stage: Stage,
        /// The state the preceding stage left.
        found: DataState,
        /// The preceding stage.
        after: Stage,
    },
    /// The same stage appears twice.
    DuplicateStage {
        /// The repeated stage.
        stage: Stage,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Empty => write!(f, "plan has no stages"),
            PlanError::MissingProducer { stage, needs, input } => write!(
                f,
                "stage `{stage}` needs a `{needs}` dataset but the plan starts from `{input}` \
                 and no earlier stage produces it"
            ),
            PlanError::WrongOrder { stage, found, after } => write!(
                f,
                "stage `{stage}` cannot run on the `{found}` dataset left by `{after}` \
                 (stages out of order, or a producing stage omitted)"
            ),
            PlanError::DuplicateStage { stage } => {
                write!(f, "stage `{stage}` appears more than once in the plan")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl From<PlanError> for Error {
    fn from(e: PlanError) -> Self {
        Error::Pipeline(format!("invalid plan: {e}"))
    }
}

/// Assembles an ordered stage list, tracking the dataset-state chain.
/// The first invalid composition is remembered and surfaced by
/// [`PlanBuilder::build`]; further `then` calls are no-ops after an
/// error, so fluent chains stay readable.
///
/// ```
/// use persona::plan::{DataState, Plan, PlanError, Stage};
///
/// // A custom shape no preset covers: align an existing encoded
/// // dataset, sort it, export BAM — no import, no dupmark.
/// let plan = Plan::builder(DataState::EncodedAgd)
///     .then(Stage::Align)
///     .then(Stage::Sort)
///     .then(Stage::ExportBam)
///     .build()
///     .unwrap();
/// assert_eq!(plan.output(), DataState::Bgzf);
///
/// // Invalid compositions fail at build time with a precise error.
/// let err = Plan::builder(DataState::Fastq).then(Stage::Sort).build().unwrap_err();
/// assert!(matches!(err, PlanError::MissingProducer { stage: Stage::Sort, .. }));
/// ```
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    input: DataState,
    state: DataState,
    stages: Vec<Stage>,
    error: Option<PlanError>,
}

impl PlanBuilder {
    /// Starts a plan consuming a dataset in `input` state.
    pub fn new(input: DataState) -> PlanBuilder {
        PlanBuilder { input, state: input, stages: Vec::new(), error: None }
    }

    /// Appends `stage`, validating it against the current state chain.
    pub fn then(mut self, stage: Stage) -> PlanBuilder {
        if self.error.is_some() {
            return self;
        }
        if self.stages.contains(&stage) {
            self.error = Some(PlanError::DuplicateStage { stage });
            return self;
        }
        if !stage.accepts(self.state) {
            self.error = Some(match self.stages.last() {
                None => PlanError::MissingProducer {
                    stage,
                    needs: stage.input_hint(),
                    input: self.input,
                },
                Some(&after) => PlanError::WrongOrder { stage, found: self.state, after },
            });
            return self;
        }
        self.state = stage.output();
        self.stages.push(stage);
        self
    }

    /// Finishes the plan; errors if any composition rule was violated
    /// or no stage was added.
    pub fn build(self) -> std::result::Result<Plan, PlanError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.stages.is_empty() {
            return Err(PlanError::Empty);
        }
        Ok(Plan { input: self.input, stages: self.stages })
    }
}

/// The streaming adjacencies: `(producer, consumer)` pairs of stages
/// that, when adjacent in a plan, overlap through a live chunk stream
/// instead of running back to back. This table is the only place that
/// names them — [`Plan::fusion_groups`], [`Plan::describe`] and the
/// [`Plan::run`] driver all derive from it. A producer must accept an
/// output edge and a consumer must drain its input's chunk stream (see
/// the stage contract in [`crate::pipeline`]).
pub const STREAMS: [(Stage, Stage); 7] = [
    (Stage::Import, Stage::Align),
    (Stage::Align, Stage::Sort),
    (Stage::Sort, Stage::Dupmark),
    (Stage::Sort, Stage::ExportSam),
    (Stage::Sort, Stage::ExportBam),
    (Stage::Dupmark, Stage::ExportSam),
    (Stage::Dupmark, Stage::ExportBam),
];

/// The names accepted by [`Plan::preset`], in the order presets are
/// documented (CLI `--plan` flags share this list).
pub const PRESET_NAMES: [&str; 5] =
    ["full", "import-only", "import-align", "no-dupmark", "from-aligned"];

/// A validated, ordered stage composition. Only [`PlanBuilder`] (or
/// deserialization, which re-runs the builder) can construct one, so a
/// `Plan` in hand is always runnable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    input: DataState,
    stages: Vec<Stage>,
}

impl Plan {
    /// Starts building a plan from a dataset in `input` state.
    pub fn builder(input: DataState) -> PlanBuilder {
        PlanBuilder::new(input)
    }

    /// The whole paper pipeline: import ‖ align ‖ sort ‖ dupmark ‖
    /// export-sam.
    pub fn full() -> Plan {
        Plan::builder(DataState::Fastq)
            .then(Stage::Import)
            .then(Stage::Align)
            .then(Stage::Sort)
            .then(Stage::Dupmark)
            .then(Stage::ExportSam)
            .build()
            .expect("full preset is valid")
    }

    /// Ingest only: land the FASTQ as an encoded AGD dataset.
    pub fn import_only() -> Plan {
        Plan::builder(DataState::Fastq).then(Stage::Import).build().expect("preset is valid")
    }

    /// Import and align: the "land the data, analyze later" shape.
    pub fn import_align() -> Plan {
        Plan::builder(DataState::Fastq)
            .then(Stage::Import)
            .then(Stage::Align)
            .build()
            .expect("preset is valid")
    }

    /// The full chain minus duplicate marking — the fast path for
    /// workloads that dedup downstream (or not at all).
    pub fn no_dupmark() -> Plan {
        Plan::builder(DataState::Fastq)
            .then(Stage::Import)
            .then(Stage::Align)
            .then(Stage::Sort)
            .then(Stage::ExportSam)
            .build()
            .expect("preset is valid")
    }

    /// Post-alignment processing over an existing aligned dataset:
    /// sort → dupmark → export-sam.
    pub fn from_aligned() -> Plan {
        Plan::builder(DataState::Aligned)
            .then(Stage::Sort)
            .then(Stage::Dupmark)
            .then(Stage::ExportSam)
            .build()
            .expect("preset is valid")
    }

    /// Looks up a preset by its [`PRESET_NAMES`] name.
    pub fn preset(name: &str) -> Option<Plan> {
        match name {
            "full" => Some(Plan::full()),
            "import-only" => Some(Plan::import_only()),
            "import-align" => Some(Plan::import_align()),
            "no-dupmark" => Some(Plan::no_dupmark()),
            "from-aligned" => Some(Plan::from_aligned()),
            _ => None,
        }
    }

    /// The ordered stages.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The dataset state the plan consumes.
    pub fn input(&self) -> DataState {
        self.input
    }

    /// The dataset state the plan leaves behind.
    pub fn output(&self) -> DataState {
        self.stages.last().expect("plans are non-empty").output()
    }

    /// Whether the plan contains `stage`.
    pub fn contains(&self, stage: Stage) -> bool {
        self.stages.contains(&stage)
    }

    /// Checks that a FASTQ byte stream can serve as this plan's input
    /// with the given chunking. Shared between [`Plan::run`] and
    /// service admission (single source of truth).
    pub fn check_fastq_input(&self, chunk_size: usize) -> Result<()> {
        if self.input != DataState::Fastq {
            return Err(Error::Pipeline(format!(
                "plan consumes a `{}` dataset but the request supplies FASTQ",
                self.input
            )));
        }
        if chunk_size == 0 {
            return Err(Error::Pipeline("chunk_size must be positive".into()));
        }
        Ok(())
    }

    /// Checks the kernel resources a request carries: a plan with an
    /// align stage needs an aligner. Shared between [`Plan::run`] and
    /// service admission.
    pub fn check_resources(&self, has_aligner: bool) -> Result<()> {
        if self.contains(Stage::Align) && !has_aligner {
            return Err(Error::Pipeline("plan aligns but the request has no aligner".into()));
        }
        Ok(())
    }

    /// Checks that an existing dataset can serve as this plan's input:
    /// the plan must consume a dataset at all, and any input state past
    /// `encoded-agd` needs a `results` column on the manifest. Both
    /// [`Plan::run`] and service admission use this single check, so a
    /// bad dataset fails the submitter immediately instead of failing
    /// the job after it waited out a queue.
    pub fn check_dataset_input(&self, manifest: &Manifest) -> Result<()> {
        if self.input == DataState::Fastq {
            return Err(Error::Pipeline(
                "plan consumes FASTQ but the request supplies a dataset".into(),
            ));
        }
        if self.input != DataState::EncodedAgd
            && !manifest.has_column(persona_agd::columns::RESULTS)
        {
            return Err(Error::Pipeline(format!(
                "plan consumes a `{}` dataset but the supplied manifest `{}` has no results \
                 column",
                self.input, manifest.name
            )));
        }
        Ok(())
    }

    /// The fusion grouping [`Plan::run`] will actually execute: one
    /// `start..end` range into [`Plan::stages`] per step, where a
    /// multi-stage range is a fused group whose stages overlap through
    /// streaming queues — the maximal chains over [`STREAMS`] (e.g.
    /// `import‖align`, `align‖sort‖export-bam`,
    /// `import‖align‖sort‖dupmark‖export-sam`).
    pub fn fusion_groups(&self) -> Vec<Range<usize>> {
        self.fusion_groups_from(0)
    }

    /// [`Plan::fusion_groups`] of the stages from `skip` on, so a cached
    /// run's suffix groups exactly as it will execute (eliding part of
    /// a chain shortens it).
    fn fusion_groups_from(&self, skip: usize) -> Vec<Range<usize>> {
        let mut groups = Vec::new();
        let mut start = skip;
        for end in skip + 1..=self.stages.len() {
            let fused = end < self.stages.len()
                && STREAMS.contains(&(self.stages[end - 1], self.stages[end]));
            if !fused {
                groups.push(start..end);
                start = end;
            }
        }
        groups
    }

    /// A one-line human description of what will actually execute:
    /// the state chain with fused groups bracketed, e.g.
    /// `fastq ─[import‖align]→ aligned` (import and align overlap as
    /// one step) or `fastq ─import→ encoded-agd` for a lone stage.
    pub fn describe(&self) -> String {
        self.describe_cached(0)
    }

    /// [`Plan::describe`] for a run whose first `elided` stages were
    /// satisfied by the result cache: elided stages render as a dashed
    /// `┄stage┄` chain ending in `(cached)`, and fusion groups are
    /// computed over the suffix that actually executes.
    ///
    /// `elided` is clamped to the plan length; `describe_cached(0)` is
    /// exactly [`Plan::describe`].
    pub fn describe_cached(&self, elided: usize) -> String {
        let elided = elided.min(self.stages.len());
        let mut out = self.input.as_str().to_string();
        if elided > 0 {
            let names: Vec<&str> = self.stages[..elided].iter().map(|s| s.name()).collect();
            out.push_str(&format!(
                " ┄{}┄ {} (cached)",
                names.join("┄"),
                self.stages[elided - 1].output().as_str()
            ));
        }
        for group in self.fusion_groups_from(elided) {
            let stages = &self.stages[group];
            let last = stages.last().expect("fusion groups are non-empty");
            if stages.len() == 1 {
                out.push_str(&format!(" ─{}→ {}", last.name(), last.output().as_str()));
            } else {
                let names: Vec<&str> = stages.iter().map(|s| s.name()).collect();
                out.push_str(&format!(" ─[{}]→ {}", names.join("‖"), last.output().as_str()));
            }
        }
        out
    }

    /// The prefix lengths that are valid cache boundaries: every `len`
    /// in `1..=stages.len()` whose last stage lands durable dataset
    /// state ([`Stage::is_durable`]), longest first. Export stages
    /// produce in-memory bytes only, so a prefix ending in one has no
    /// dataset to cache.
    pub fn cacheable_prefixes(&self) -> Vec<usize> {
        (1..=self.stages.len()).rev().filter(|&len| self.stages[len - 1].is_durable()).collect()
    }

    /// Rebuilds the plan that remains after `skip` stages have been
    /// satisfied (by the result cache or a recovery replay): a new plan
    /// whose input is the skipped prefix's output state. Returns `None`
    /// when nothing remains.
    pub fn suffix_plan(&self, skip: usize) -> Option<Plan> {
        if skip == 0 || skip >= self.stages.len() {
            return None;
        }
        let mut builder = Plan::builder(self.stages[skip - 1].output());
        for stage in &self.stages[skip..] {
            builder = builder.then(*stage);
        }
        Some(builder.build().expect("a valid plan's suffix is a valid plan"))
    }

    /// Serializes the plan to compact JSON (the future wire format).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| Error::Pipeline(format!("serialize plan: {e}")))
    }

    /// Parses a plan from JSON, re-validating the composition.
    pub fn from_json(json: &str) -> Result<Plan> {
        serde_json::from_str(json).map_err(|e| Error::Pipeline(format!("parse plan: {e}")))
    }

    /// Runs the plan on `rt`. When `rt` is a job-bound view
    /// ([`PersonaRuntime::for_job`]), every stage carries the job's
    /// priority and cancel token and adds its busy time to the job's, and
    /// a fired token unwinds the plan as [`Error::Cancelled`] mid-stage.
    ///
    /// The plan executes one [fusion group](Plan::fusion_groups) at a
    /// time. The stages of a group overlap through bounded streaming
    /// chunk queues while sharing the executor — alignment consumes
    /// chunks as import encodes them, the incremental sort loads and
    /// merges chunks as their results land, instead of waiting for the
    /// last aligned chunk, and export formats each sorted chunk as the
    /// sort writes it — and each chunk brings the columns its producer
    /// holds, so no stage of a group reads back what an earlier one
    /// wrote. Exported SAM/BAM bytes are buffered and
    /// only surface in the report once the whole plan has succeeded, so
    /// a mid-plan failure can never leave a plausible-looking truncated
    /// export behind.
    ///
    /// **Landing rule.** A group lands its last dataset state (and the
    /// sort whose write a fused `dupmark` is folded into), and an
    /// earlier state only if the job's result cache registers it; the rest
    /// travels on the edges alone. So an uncached `full` lands only the
    /// sorted dataset, and fused `import‖align` lands `align` (import
    /// puts its chunks, not its manifest).
    ///
    /// **Observer** ([`JobContext::with_observer`]): called after each
    /// group with every stage of it whose dataset state landed —
    /// `import`, `align`, `sort`, `dupmark` — and the manifest it
    /// landed, in plan order. A group announces only once all of its
    /// stages have finished (a half-done group has landed nothing
    /// resumable): an uncached fused `import‖align‖sort‖dupmark`
    /// announces `sort`, then `dupmark`, whose state is the sort's
    /// dataset, marked as the sort wrote it. Such a dupmark runs no stage
    /// and reports the sort's count with no wall or busy time, but it
    /// lands, announces, registers and counts in `plan.stage_runs` like
    /// any other. Export stages buffer bytes in memory rather than
    /// landing store state, so they never announce.
    ///
    /// **Result cache** ([`JobContext::with_cache`]): the longest cached
    /// prefix of the plan is elided, only the suffix executes (over the
    /// cached manifest), and every landing the cache registers (see the
    /// landing rule) is registered under its prefix key;
    /// [`PlanReport::cache`] says what was reused. Output is
    /// byte-identical to an uncached run.
    ///
    /// [`JobContext::with_observer`]: crate::runtime::JobContext::with_observer
    /// [`JobContext::with_cache`]: crate::runtime::JobContext::with_cache
    pub fn run(&self, rt: &PersonaRuntime, req: PlanRequest) -> Result<PlanReport> {
        let started = Instant::now();
        rt.check_cancelled()?;

        // Request/plan coherence, checked up front with precise errors
        // through the same helpers service admission uses.
        self.check_resources(req.aligner.is_some())?;
        match &req.source {
            PlanSource::Fastq(_) => self.check_fastq_input(req.chunk_size)?,
            PlanSource::Dataset(manifest) => self.check_dataset_input(manifest)?,
        }

        let session = CacheSession::open(self, rt, &req, started);
        let hit = session.as_ref().and_then(CacheSession::hit);
        let elided = hit.map_or(0, |(elided, _)| elided);
        let mut report = PlanReport {
            stages: Vec::with_capacity(self.stages.len() - elided),
            cache: CacheUse {
                elided,
                saved_ns: hit.map_or(0, |(_, entry)| entry.cost_ns),
                executed: if elided == 0 { Some(self.clone()) } else { self.suffix_plan(elided) },
            },
            ..PlanReport::empty(self.clone())
        };
        let mut input = Some(match (hit, req.source) {
            (Some((_, entry)), _) => StageInput::Edge(Edge::landed(entry.manifest.clone())),
            (None, PlanSource::Fastq(reader)) => StageInput::Fastq(reader),
            (None, PlanSource::Dataset(manifest)) => StageInput::Edge(Edge::landed(manifest)),
        });
        let params = StageParams {
            name: &req.name,
            chunk_size: req.chunk_size,
            aligner: req.aligner.as_ref(),
            reference: &req.reference,
            sort_marks: self.stages.windows(2).any(|w| w == [Stage::Sort, Stage::Dupmark]),
        };

        for group in self.fusion_groups_from(elided) {
            rt.check_cancelled()?;
            let stages = &self.stages[group.clone()];
            // A fused group's spans open together because its stages
            // genuinely overlap. A group that errors out leaves its
            // spans open — the dump shows where the run died.
            spans_begin(rt, stages);
            count_stage_runs(rt, stages);
            let landing = self.landing(group.clone(), session.as_ref());
            let head = input.take().expect("only a terminal export lands nothing to continue from");
            for (output, idx) in
                run_group(rt, &params, stages, &landing, head)?.into_iter().zip(group)
            {
                report.stages.push(output.row);
                match self.stages[idx] {
                    Stage::Import | Stage::Align => report.manifest = output.landed.clone(),
                    Stage::Sort => report.sorted = output.landed.clone(),
                    Stage::Dupmark => {}
                    Stage::ExportSam => report.sam = output.bytes,
                    Stage::ExportBam => report.bam = output.bytes,
                }
                let Some(manifest) = output.landed else { continue };
                if let Some(job) = rt.job() {
                    job.observe(self.stages[idx], &manifest);
                }
                if let Some(session) = &session {
                    session.landed(idx, &manifest);
                }
                input = Some(StageInput::Edge(Edge::landed(manifest)));
            }
            spans_end(rt, stages);
        }
        rt.check_cancelled()?;
        if let (None, Some((_, entry))) = (report.final_manifest(), hit) {
            // Nothing that ran landed a dataset (every stage cached, or
            // an export-only suffix): the plan's final dataset is the
            // cached one, in the field a cold run would have used.
            let cached = Some(entry.manifest.clone());
            match DataState::parse(&entry.state) {
                Some(DataState::Sorted | DataState::DupMarked) => report.sorted = cached,
                _ => report.manifest = cached,
            }
        }
        report.elapsed = started.elapsed();
        Ok(report)
    }

    /// The landing rule ([`Plan::run`]) for the stages of `group`.
    fn landing(&self, group: Range<usize>, session: Option<&CacheSession>) -> Vec<Landing> {
        let last = group.clone().rev().find(|&idx| self.stages[idx].is_durable());
        let lands = |idx: usize| {
            last == Some(idx)
                || (last == Some(idx + 1) && self.stages[idx + 1] == Stage::Dupmark)
                || session.is_some_and(|session| session.registers(idx))
        };
        let landing = |idx: usize| match self.stages.get(idx + 1) {
            _ if lands(idx) => Landing::State,
            Some(Stage::Align) if lands(idx + 1) => Landing::Chunks,
            _ => Landing::Nothing,
        };
        group.map(landing).collect()
    }
}

/// Bumps `plan.stage_runs.{stage}` for every stage this step actually
/// executes. The counters are the ground truth for "did this stage
/// run": a cache-elided stage never reaches here, which is how tests
/// (and operators) prove a warm resubmission skipped its shared prefix.
fn count_stage_runs(rt: &PersonaRuntime, stages: &[Stage]) {
    for s in stages {
        rt.telemetry().counter(&format!("plan.stage_runs.{}", s.name())).inc();
    }
}

/// Opens a trace span per stage of the group this plan step runs. A
/// fused step begins all of its stages together — they genuinely
/// overlap on the executor, and the trace should show that.
fn spans_begin(rt: &PersonaRuntime, stages: &[Stage]) {
    if let Some(trace) = rt.trace() {
        for s in stages {
            trace.stage_begin(s.name());
        }
    }
}

/// Closes the spans of [`spans_begin`]. Skipped on a failed step: the
/// dump renders a still-open span as its begin event, so an errored
/// trace honestly shows where the run died.
fn spans_end(rt: &PersonaRuntime, stages: &[Stage]) {
    if let Some(trace) = rt.trace() {
        for s in stages.iter().rev() {
            trace.stage_end(s.name());
        }
    }
}

/// What the head stage of a group consumes.
enum StageInput {
    /// The request's FASTQ stream (import only).
    Fastq(Box<dyn BufRead + Send>),
    /// A dataset: landed by an earlier group, or streamed by the
    /// upstream stage of this one.
    Edge(Edge),
}

/// The per-run parameters stages read: a [`PlanRequest`] minus its
/// source.
struct StageParams<'a> {
    name: &'a str,
    chunk_size: usize,
    aligner: Option<&'a Arc<dyn Aligner>>,
    reference: &'a [(String, u64)],
    /// Whether the plan's sort is directly followed by its dupmark, so
    /// the sort marks duplicates as it writes and the dupmark, fused to
    /// it, runs no stage ([`run_group`]).
    sort_marks: bool,
}

/// What one stage hands back to the driver.
struct StageOutput {
    row: StageRow,
    /// The dataset state the stage landed in the store, if any.
    landed: Option<Manifest>,
    /// The bytes an export stage produced.
    bytes: Option<Vec<u8>>,
}

/// Whether `stages[k]` is a `dupmark` directly after its `sort`, which
/// marks duplicates as it writes: such a dupmark runs no stage.
fn folded(stages: &[Stage], k: usize) -> bool {
    k > 0 && stages[k - 1..=k] == [Stage::Sort, Stage::Dupmark]
}

/// Runs one fusion group: the N stages that run wired by N−1 live
/// edges, the head on the calling thread and each later stage on a
/// scoped thread of its own. A dupmark fused to its sort is not one of
/// them: the sort's output edge goes to the stage after it, and its
/// output is the sort's count and landing, with no wall or busy time of
/// its own. A stage that fails closes the streams on both of its sides,
/// so an upstream neighbour blocked on a full queue and a downstream
/// neighbour blocked on an empty one both unwind (with
/// [`Error::NeighbourClosed`]) and the group always joins.
///
/// One rule picks the error a failed group surfaces: cancellation wins;
/// otherwise the first stage in plan order whose error is not the
/// derived [`Error::NeighbourClosed`] — a root cause, never the symptom
/// it caused next door.
fn run_group(
    rt: &PersonaRuntime,
    params: &StageParams<'_>,
    stages: &[Stage],
    landing: &[Landing],
    head: StageInput,
) -> Result<Vec<StageOutput>> {
    // Edge j joins the j-th stage that runs to the next. The bytes of an
    // export, which is always last, go into a buffer first allocated on
    // this, the caller's, thread: the allocator serves each thread from
    // an arena it picks at the thread's first allocation, a buffer keeps
    // growing in its first arena, and a stage thread lives for one group
    // only, so a buffer started there would be retained in a different
    // arena from one run to the next.
    let running: Vec<usize> = (0..stages.len()).filter(|&k| !folded(stages, k)).collect();
    let capacity = rt.chunk_window();
    let mut edges = Vec::with_capacity(running.len() - 1);
    let mut wiring = Vec::with_capacity(running.len());
    let mut input = head;
    for _ in 1..running.len() {
        let (out, edge) = Edge::streaming(capacity, rt.telemetry());
        edges.push(edge.clone());
        wiring.push((input, Some(out), Vec::new()));
        input = StageInput::Edge(edge);
    }
    wiring.push((input, None, Vec::with_capacity(1)));

    let run_at = |j: usize, (input, out, bytes): (StageInput, Option<EdgeOut>, Vec<u8>)| {
        let k = running[j];
        let result = run_stage(rt, params, stages[k], landing[k], input, out, bytes);
        if result.is_err() {
            for edge in &edges[j.saturating_sub(1)..(j + 1).min(edges.len())] {
                edge.close();
            }
        }
        result
    };
    let results: Vec<Result<StageOutput>> = std::thread::scope(|s| {
        let run_at = &run_at;
        let mut wiring = wiring.into_iter().enumerate();
        let head = wiring.next().expect("fusion groups are non-empty").1;
        let tail: Vec<_> = wiring.map(|(j, edges)| s.spawn(move || run_at(j, edges))).collect();
        let head = run_at(0, head);
        let tail = tail.into_iter().map(|t| t.join().expect("stage thread panicked"));
        std::iter::once(head).chain(tail).collect()
    });
    rt.check_cancelled()?;
    let mut ran = Vec::with_capacity(running.len());
    let mut neighbour_closed = false;
    for result in results {
        match result {
            Ok(output) => ran.push(output),
            Err(Error::NeighbourClosed) => neighbour_closed = true,
            Err(root_cause) => return Err(root_cause),
        }
    }
    if neighbour_closed {
        return Err(Error::NeighbourClosed);
    }
    let mut ran = ran.into_iter();
    let mut outputs: Vec<StageOutput> = Vec::with_capacity(stages.len());
    for (k, &lands) in landing.iter().enumerate() {
        let output = match outputs.last() {
            Some(StageOutput {
                row: StageRow { run: StageRun::Sort(sort), .. }, landed, ..
            }) if folded(stages, k) => {
                let report = DupmarkReport { reads: sort.records, duplicates: sort.duplicates };
                let run = StageRun::Dupmark(report);
                let row = StageRow { run, elapsed: Duration::ZERO, busy_fraction: 0.0 };
                let landed = landed.clone().filter(|_| lands == Landing::State);
                StageOutput { row, landed, bytes: None }
            }
            _ => ran.next().expect("one output per stage that ran"),
        };
        outputs.push(output);
    }
    Ok(outputs)
}

/// Runs one stage under the stage contract ([`crate::pipeline`]), with
/// the `landing` of an import or align; an export appends to `bytes`.
/// The one place a stage is timed: its row's wall runs from the call of
/// the stage function to its return, and its busy share is what its
/// [`StageExec`](crate::runtime::StageExec) ran in that window. When the
/// stage returns, `Ok` or `Err`, its busy time is added to the job's.
fn run_stage(
    rt: &PersonaRuntime,
    params: &StageParams<'_>,
    stage: Stage,
    landing: Landing,
    input: StageInput,
    out: Option<EdgeOut>,
    mut bytes: Vec<u8>,
) -> Result<StageOutput> {
    let exec = rt.stage_exec();
    let started = Instant::now();
    let ran = (|| -> Result<_> {
        Ok(match (stage, input) {
            (Stage::Import, StageInput::Fastq(reader)) => {
                let (name, chunk_size) = (params.name, params.chunk_size);
                let (manifest, report) =
                    import::import_fastq(rt, &exec, reader, name, chunk_size, landing, out)?;
                (StageRun::Import(report), Some(manifest), None)
            }
            (Stage::Align, StageInput::Edge(input)) => {
                let aligner = params.aligner.expect("validated: aligning plans carry an aligner");
                let (aligner, reference) = (aligner.clone(), params.reference);
                let (manifest, report) =
                    align::align(rt, &exec, input, aligner, reference, landing, out)?;
                (StageRun::Align(report), Some(manifest), None)
            }
            (Stage::Sort, StageInput::Edge(input)) => {
                // A plan's sort input has `results`: `check_dataset_input`
                // refuses an aligned dataset without, and align adds them.
                let (sorted, key, marks) =
                    (format!("{}.sorted", params.name), SortKey::Coordinate, params.sort_marks);
                let (manifest, report) =
                    sort::sort(rt, &exec, input, key, &sorted, true, marks, out)?;
                (StageRun::Sort(report), Some(manifest), None)
            }
            (Stage::Dupmark, StageInput::Edge(input)) => {
                let (manifest, report) = dupmark::mark_duplicates(rt, &exec, input, out)?;
                (StageRun::Dupmark(report), Some(manifest), None)
            }
            (Stage::ExportSam, StageInput::Edge(input)) => {
                let report = export::export_sam(rt, &exec, input, &mut bytes)?;
                (StageRun::ExportSam(report), None, Some(bytes))
            }
            (Stage::ExportBam, StageInput::Edge(input)) => {
                let report = export::export_bam(rt, &exec, input, &mut bytes, CompressLevel::Fast)?;
                (StageRun::ExportBam(report), None, Some(bytes))
            }
            (Stage::Import, StageInput::Edge(_)) | (_, StageInput::Fastq(_)) => {
                unreachable!("validated: import, and only import, consumes the request's FASTQ")
            }
        })
    })();
    let elapsed = started.elapsed();
    exec.charge_job();
    let (run, landed, bytes) = ran?;
    let row = StageRow { run, elapsed, busy_fraction: exec.busy_fraction(elapsed) };
    Ok(StageOutput { row, landed: landed.filter(|_| landing == Landing::State), bytes })
}

/// What a plan consumes: raw FASTQ for [`DataState::Fastq`] plans, an
/// existing dataset manifest for every other input state.
pub enum PlanSource {
    /// A FASTQ byte stream.
    Fastq(Box<dyn BufRead + Send>),
    /// An existing AGD dataset (its chunks live in the runtime's
    /// store).
    Dataset(Manifest),
}

impl PlanSource {
    /// Wraps in-memory FASTQ bytes.
    pub fn fastq_bytes(bytes: Vec<u8>) -> PlanSource {
        PlanSource::Fastq(Box::new(std::io::Cursor::new(bytes)))
    }
}

/// The per-run resources a plan needs: dataset naming, the input, and
/// the shared kernel resources. (The plan itself stays pure data so it
/// can travel over the wire; everything runtime-bound lives here.)
pub struct PlanRequest {
    /// Dataset name: imported chunks are `{name}-{i}`, the sorted
    /// output is `{name}.sorted`.
    pub name: String,
    /// The input (must match [`Plan::input`]).
    pub source: PlanSource,
    /// Records per AGD chunk (FASTQ-input plans only).
    pub chunk_size: usize,
    /// Aligner resource; required iff the plan contains [`Stage::Align`].
    pub aligner: Option<Arc<dyn Aligner>>,
    /// `(contig, length)` reference metadata recorded at alignment.
    pub reference: Vec<(String, u64)>,
}

/// One executed stage's report.
#[derive(Debug)]
pub enum StageRun {
    /// FASTQ import.
    Import(ImportReport),
    /// Alignment.
    Align(AlignReport),
    /// Coordinate sort.
    Sort(SortReport),
    /// Duplicate marking.
    Dupmark(DupmarkReport),
    /// SAM export.
    ExportSam(ExportReport),
    /// BAM export.
    ExportBam(ExportReport),
}

impl StageRun {
    /// Which stage this report came from.
    pub fn stage(&self) -> Stage {
        match self {
            StageRun::Import(_) => Stage::Import,
            StageRun::Align(_) => Stage::Align,
            StageRun::Sort(_) => Stage::Sort,
            StageRun::Dupmark(_) => Stage::Dupmark,
            StageRun::ExportSam(_) => Stage::ExportSam,
            StageRun::ExportBam(_) => Stage::ExportBam,
        }
    }

    /// Reads (records) the stage processed.
    pub fn records(&self) -> u64 {
        match self {
            StageRun::Import(r) => r.reads,
            StageRun::Align(r) => r.reads,
            StageRun::Sort(r) => r.records,
            StageRun::Dupmark(r) => r.reads,
            StageRun::ExportSam(r) | StageRun::ExportBam(r) => r.records,
        }
    }
}

/// One executed stage as the plan driver saw it: the stage's own report
/// and the driver's one measurement of it.
#[derive(Debug)]
pub struct StageRow {
    /// The stage's report.
    pub run: StageRun,
    /// Wall clock from when the stage's thread called the stage to when
    /// it returned: blocked time on either edge included, so a consumer
    /// also counts its wait for upstream's manifest and chunks. Zero for
    /// a dupmark folded into its sort, which runs no stage.
    pub elapsed: Duration,
    /// The stage's share of the executor's worker time over that wall:
    /// its tasks' busy time ÷ (`elapsed` × workers); 0.0 for a zero wall.
    pub busy_fraction: f64,
}

impl StageRow {
    /// Which stage ran.
    pub fn stage(&self) -> Stage {
        self.run.stage()
    }
}

/// Per-stage reports and outputs from one [`Plan::run`] — exactly the
/// stages that ran (cache-elided stages did not), in plan order.
#[derive(Debug)]
pub struct PlanReport {
    /// The plan that ran.
    pub plan: Plan,
    /// One row per executed stage, in plan order: its report, wall and
    /// busy share ([`StageRow`]).
    pub stages: Vec<StageRow>,
    /// The primary dataset manifest, set whenever `import` or `align`
    /// landed (align finalizes the manifest with the results column and
    /// reference metadata, so this supersedes a dataset-source input
    /// manifest). `None` when neither landed ([`Plan::run`]).
    pub manifest: Option<Manifest>,
    /// The sorted dataset manifest, when [`Stage::Sort`] ran.
    pub sorted: Option<Manifest>,
    /// Exported SAM text, when [`Stage::ExportSam`] ran.
    pub sam: Option<Vec<u8>>,
    /// Exported BGZF BAM, when [`Stage::ExportBam`] ran.
    pub bam: Option<Vec<u8>>,
    /// How the run used the job's result cache (nothing elided when it
    /// had none).
    pub cache: CacheUse,
    /// End-to-end wall clock.
    pub elapsed: Duration,
}

impl PlanReport {
    /// The report of a run of `plan` that ran no stage and used no
    /// cache; [`Plan::run`] fills one in as stages run.
    pub fn empty(plan: Plan) -> PlanReport {
        PlanReport {
            plan,
            stages: Vec::new(),
            manifest: None,
            sorted: None,
            sam: None,
            bam: None,
            cache: CacheUse { elided: 0, saved_ns: 0, executed: None },
            elapsed: Duration::ZERO,
        }
    }

    /// `(stage name, elapsed, executor busy fraction)` rows for
    /// exactly the stages that ran, in plan order.
    pub fn stage_rows(&self) -> Vec<(&'static str, Duration, f64)> {
        self.stages.iter().map(|row| (row.stage().name(), row.elapsed, row.busy_fraction)).collect()
    }

    /// One stage's row, if that stage ran.
    pub fn row(&self, stage: Stage) -> Option<&StageRow> {
        self.stages.iter().find(|row| row.stage() == stage)
    }

    /// One stage's run report, if that stage ran.
    pub fn stage(&self, stage: Stage) -> Option<&StageRun> {
        self.row(stage).map(|row| &row.run)
    }

    /// The manifest of the plan's final dataset state: sorted if the
    /// plan sorted, otherwise the imported/aligned dataset.
    pub fn final_manifest(&self) -> Option<&Manifest> {
        self.sorted.as_ref().or(self.manifest.as_ref())
    }

    /// Reads (records) the plan processed, taken from the earliest
    /// stage that counts them.
    pub fn reads(&self) -> u64 {
        self.stages.first().map_or(0, |row| row.run.records())
    }
}

// Hand-written because deserialization re-validates through the
// builder, so an invalid plan can never arrive over the wire. Wire
// format: `{"input":"fastq","stages":["import","align",...]}`.

impl Serialize for Plan {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("input".into(), self.input.serialize()),
            ("stages".into(), self.stages.serialize()),
        ])
    }
}

impl Deserialize for Plan {
    fn deserialize(v: &Value) -> std::result::Result<Self, DeError> {
        let input: DataState = field::required(v, "input")?;
        let stages: Vec<Stage> = field::required(v, "stages")?;
        let mut builder = Plan::builder(input);
        for stage in stages {
            builder = builder.then(stage);
        }
        builder.build().map_err(|e| DeError::new(format!("invalid plan: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_and_describe() {
        assert_eq!(
            Plan::full().stages(),
            &[Stage::Import, Stage::Align, Stage::Sort, Stage::Dupmark, Stage::ExportSam]
        );
        assert_eq!(Plan::full().input(), DataState::Fastq);
        assert_eq!(Plan::full().output(), DataState::Sam);
        assert_eq!(Plan::import_only().output(), DataState::EncodedAgd);
        assert_eq!(Plan::import_align().output(), DataState::Aligned);
        assert_eq!(Plan::no_dupmark().output(), DataState::Sam);
        assert_eq!(Plan::from_aligned().input(), DataState::Aligned);
        assert_eq!(Plan::import_align().describe(), "fastq ─[import‖align]→ aligned");
        assert_eq!(Plan::import_only().describe(), "fastq ─import→ encoded-agd");
        assert_eq!(Plan::full().describe(), "fastq ─[import‖align‖sort‖dupmark‖export-sam]→ sam");
        assert_eq!(
            Plan::full().describe_cached(3),
            "fastq ┄import┄align┄sort┄ sorted (cached) ─[dupmark‖export-sam]→ sam"
        );
        for name in PRESET_NAMES {
            assert!(Plan::preset(name).is_some(), "preset `{name}` must resolve");
        }
        assert!(Plan::preset("nope").is_none());
    }

    #[test]
    fn empty_plan_is_a_distinct_error() {
        assert_eq!(Plan::builder(DataState::Fastq).build(), Err(PlanError::Empty));
    }

    #[test]
    fn missing_producer_is_a_distinct_error() {
        // Align first, from FASTQ: nothing produced the encoded AGD it
        // needs.
        let err = Plan::builder(DataState::Fastq).then(Stage::Align).build().unwrap_err();
        assert_eq!(
            err,
            PlanError::MissingProducer {
                stage: Stage::Align,
                needs: DataState::EncodedAgd,
                input: DataState::Fastq,
            }
        );
        // Dupmark straight onto an aligned dataset: sort is missing.
        let err = Plan::builder(DataState::Aligned).then(Stage::Dupmark).build().unwrap_err();
        assert!(matches!(err, PlanError::MissingProducer { stage: Stage::Dupmark, .. }), "{err}");
    }

    #[test]
    fn wrong_order_is_a_distinct_error() {
        // Sort before align: import leaves EncodedAgd, sort needs
        // Aligned.
        let err = Plan::builder(DataState::Fastq)
            .then(Stage::Import)
            .then(Stage::Sort)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            PlanError::WrongOrder {
                stage: Stage::Sort,
                found: DataState::EncodedAgd,
                after: Stage::Import,
            }
        );
        // Nothing can follow a terminal export.
        let err = Plan::builder(DataState::Aligned)
            .then(Stage::ExportSam)
            .then(Stage::ExportBam)
            .build()
            .unwrap_err();
        assert!(matches!(err, PlanError::WrongOrder { stage: Stage::ExportBam, .. }), "{err}");
    }

    #[test]
    fn duplicate_stage_is_a_distinct_error() {
        let err = Plan::builder(DataState::Fastq)
            .then(Stage::Import)
            .then(Stage::Import)
            .build()
            .unwrap_err();
        assert_eq!(err, PlanError::DuplicateStage { stage: Stage::Import });
    }

    #[test]
    fn first_error_sticks_across_later_calls() {
        let err = Plan::builder(DataState::Fastq)
            .then(Stage::Sort) // Invalid immediately.
            .then(Stage::Import) // Would be fine, but the chain is dead.
            .build()
            .unwrap_err();
        assert!(matches!(err, PlanError::MissingProducer { stage: Stage::Sort, .. }), "{err}");
    }

    #[test]
    fn every_error_variant_displays_distinctly() {
        let msgs = [
            PlanError::Empty.to_string(),
            PlanError::MissingProducer {
                stage: Stage::Align,
                needs: DataState::EncodedAgd,
                input: DataState::Fastq,
            }
            .to_string(),
            PlanError::WrongOrder {
                stage: Stage::Sort,
                found: DataState::EncodedAgd,
                after: Stage::Import,
            }
            .to_string(),
            PlanError::DuplicateStage { stage: Stage::Import }.to_string(),
        ];
        for (i, a) in msgs.iter().enumerate() {
            for b in &msgs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn serde_round_trips_all_presets_and_a_custom_plan() {
        let custom = Plan::builder(DataState::EncodedAgd)
            .then(Stage::Align)
            .then(Stage::Sort)
            .then(Stage::ExportBam)
            .build()
            .unwrap();
        let mut plans: Vec<Plan> = PRESET_NAMES.iter().map(|n| Plan::preset(n).unwrap()).collect();
        plans.push(custom);
        for plan in plans {
            let json = plan.to_json().unwrap();
            let back = Plan::from_json(&json).unwrap();
            assert_eq!(back, plan, "{json}");
            // And the wire shape is what the docs promise.
            assert!(json.starts_with("{\"input\":"), "{json}");
        }
        assert_eq!(
            Plan::import_align().to_json().unwrap(),
            r#"{"input":"fastq","stages":["import","align"]}"#
        );
    }

    #[test]
    fn deserialization_revalidates_compositions() {
        // Structurally fine JSON, semantically invalid plans.
        for bad in [
            r#"{"input":"fastq","stages":[]}"#,
            r#"{"input":"fastq","stages":["align"]}"#,
            r#"{"input":"fastq","stages":["import","import"]}"#,
            r#"{"input":"fastq","stages":["import","sort"]}"#,
            r#"{"input":"fastq","stages":["frobnicate"]}"#,
            r#"{"input":"warp","stages":["import"]}"#,
            r#"{"stages":["import"]}"#,
        ] {
            assert!(Plan::from_json(bad).is_err(), "must reject {bad}");
        }
    }

    /// `from_json` failure modes, distinguished: a *parse* failure
    /// (truncated/malformed JSON), a *shape* failure (unknown stage or
    /// state name, missing field, wrong type), and a *semantic*
    /// failure (valid JSON whose composition the builder rejects).
    #[test]
    fn from_json_error_paths_are_precise() {
        // Truncated JSON dies in the parser.
        for truncated in [
            r#"{"input":"fastq","stages":["import""#,
            r#"{"input":"fastq","stages":["#,
            r#"{"input":"fastq"#,
            "",
        ] {
            let err = Plan::from_json(truncated).unwrap_err().to_string();
            assert!(err.contains("parse plan"), "{truncated:?}: {err}");
            assert!(!err.contains("invalid plan"), "{truncated:?} must fail as a parse: {err}");
        }
        // Unknown names die in the typed decode with the bad name.
        let err = Plan::from_json(r#"{"input":"fastq","stages":["frobnicate"]}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown stage `frobnicate`"), "{err}");
        let err =
            Plan::from_json(r#"{"input":"warp","stages":["import"]}"#).unwrap_err().to_string();
        assert!(err.contains("unknown dataset state `warp`"), "{err}");
        // Missing fields and wrong shapes name the field.
        let err = Plan::from_json(r#"{"stages":["import"]}"#).unwrap_err().to_string();
        assert!(err.contains("missing field `input`"), "{err}");
        let err =
            Plan::from_json(r#"{"input":"fastq","stages":"import"}"#).unwrap_err().to_string();
        assert!(err.contains("field `stages`"), "{err}");
        // Valid JSON, invalid composition: the builder's diagnosis
        // comes through verbatim.
        let err =
            Plan::from_json(r#"{"input":"fastq","stages":["align"]}"#).unwrap_err().to_string();
        assert!(err.contains("invalid plan"), "{err}");
        assert!(err.contains("needs a `encoded-agd` dataset"), "{err}");
        let err = Plan::from_json(r#"{"input":"fastq","stages":[]}"#).unwrap_err().to_string();
        assert!(err.contains("plan has no stages"), "{err}");
        let err = Plan::from_json(r#"{"input":"fastq","stages":["import","import"]}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn export_accepts_aligned_sorted_and_dupmarked() {
        for state in [DataState::Aligned, DataState::Sorted, DataState::DupMarked] {
            assert!(Plan::builder(state).then(Stage::ExportSam).build().is_ok());
            assert!(Plan::builder(state).then(Stage::ExportBam).build().is_ok());
        }
        assert!(Plan::builder(DataState::EncodedAgd).then(Stage::ExportSam).build().is_err());
    }

    #[test]
    fn run_rejects_mismatched_requests() {
        use persona_agd::chunk_io::{ChunkStore, MemStore};
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let rt = PersonaRuntime::new(store, crate::config::PersonaConfig::small()).unwrap();
        let fastq = || PlanSource::fastq_bytes(Vec::new());
        let dataset = || PlanSource::Dataset(Manifest::new("d"));
        for (what, plan, source, chunk_size, expect) in [
            ("FASTQ plan fed a dataset", Plan::import_only(), dataset(), 10, "supplies a dataset"),
            ("dataset plan fed FASTQ", Plan::from_aligned(), fastq(), 10, "supplies FASTQ"),
            ("unaligned manifest", Plan::from_aligned(), dataset(), 10, "no results column"),
            ("aligning without an aligner", Plan::import_align(), fastq(), 10, "no aligner"),
            ("zero chunk size", Plan::import_only(), fastq(), 0, "chunk_size"),
        ] {
            let req = PlanRequest {
                name: "x".into(),
                source,
                chunk_size,
                aligner: None,
                reference: vec![],
            };
            let err = plan.run(&rt, req).unwrap_err();
            assert!(format!("{err}").contains(expect), "{what}: {err}");
        }
    }

    #[test]
    fn import_only_plan_lands_an_encoded_dataset() {
        use persona_agd::chunk_io::{ChunkStore, MemStore};
        let reads = persona_seq::simulate::ReadSimulator::new(
            &persona_seq::Genome::random_with_seed(11, &[("c", 20_000)]),
            persona_seq::simulate::SimParams::default(),
        )
        .take_single(120);
        let fastq = persona_formats::fastq::to_bytes(&reads);
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let rt = PersonaRuntime::new(store.clone(), crate::config::PersonaConfig::small()).unwrap();
        let report = Plan::import_only()
            .run(
                &rt,
                PlanRequest {
                    name: "ingest".into(),
                    source: PlanSource::fastq_bytes(fastq),
                    chunk_size: 50,
                    aligner: None,
                    reference: vec![],
                },
            )
            .unwrap();
        assert_eq!(report.reads(), 120);
        assert_eq!(report.stage_rows().len(), 1);
        assert_eq!(report.stage_rows()[0].0, "import");
        assert!(report.sam.is_none() && report.bam.is_none() && report.sorted.is_none());
        let m = report.manifest.as_ref().unwrap();
        assert_eq!(m.total_records, 120);
        assert!(!m.has_column(persona_agd::columns::RESULTS));
        assert!(store.get("ingest.manifest.json").is_ok());
        assert_eq!(report.final_manifest().unwrap().name, "ingest");
    }
}
