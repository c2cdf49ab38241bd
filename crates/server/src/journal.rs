//! The write-ahead job journal: every job lifecycle transition is
//! appended to one log file *before* the service acts on it, so a
//! crashed service can be rebuilt by replay.
//!
//! # Record framing
//!
//! The on-disk format mirrors the wire protocol's framing (JSON header
//! plus raw binary body, so bulk FASTQ bytes never pay a text
//! encoding) and adds a checksum, because a log tail — unlike a TCP
//! stream — can be torn mid-write by a crash:
//!
//! ```text
//! ┌────────────┬────────────┬────────────┬───────────────┬─────────────┐
//! │ header_len │  body_len  │   crc32    │  header JSON  │    body     │
//! │  u32 (BE)  │  u32 (BE)  │  u32 (BE)  │  header_len B │  body_len B │
//! └────────────┴────────────┴────────────┴───────────────┴─────────────┘
//! ```
//!
//! The CRC covers header and body. Replay reads records until the file
//! ends cleanly or a record fails to verify — truncated lengths,
//! out-of-bound lengths, checksum mismatch, or an undecodable header —
//! and truncates the file back to the last verified record, so one
//! torn append can never poison the log: everything before it is kept,
//! everything after it (necessarily unacknowledged) is dropped.
//!
//! # Durability policy
//!
//! [`FsyncPolicy`] picks the fsync cadence: `Always` (every append —
//! a journaled transition survives any crash), `Batch(n)` (group
//! commit: fsync every `n`th append — bounded loss window, an order of
//! magnitude cheaper), or `Never` (the OS decides; crash-consistent
//! but not crash-durable). Whatever the policy, records are *written*
//! in order, so a crash loses at most a suffix.
//!
//! # Compaction
//!
//! The journal folds every append into an in-memory [`JournalState`]
//! mirror, which keeps jobs under the service's retention rule
//! ([`JOB_RETAIN`]): an ended job shrinks to its
//! [`JournalRecord::Finished`] record, and the earliest-ended is
//! forgotten past the bound. When the file outgrows
//! [`JournalConfig::compact_threshold`] a checkpoint rewrite replaces
//! it with the mirror as it is. The rewrite goes to a temp file, is
//! fsynced, and atomically renamed over the log, so a crash
//! mid-compaction leaves either the old log or the new one — never a
//! mix.

use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use persona::plan::{Plan, Stage};
use persona::wire::priority_field;
use persona::{Error, Result};
use persona_agd::manifest::Manifest;
use persona_cache::{CacheEntry, CacheKey};
use persona_compress::crc32::Crc32;
use persona_dataflow::Priority;
use persona_telemetry::{Histogram, MetricsRegistry};
use serde::{field, DeError, Deserialize, Serialize, Value};

/// Header bytes per record are bounded (a manifest-bearing header is
/// well under this); a length beyond the bound is treated as a torn
/// or corrupt record, not an allocation request.
pub const MAX_HEADER_LEN: usize = 64 * 1024 * 1024;
/// Body bytes per record are bounded (bodies carry job FASTQ inputs).
pub const MAX_BODY_LEN: usize = 1024 * 1024 * 1024;

const FRAME_PREFIX: usize = 12; // header_len + body_len + crc32

/// When appended records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append: a journaled transition survives any
    /// crash. The safest and slowest policy.
    Always,
    /// Group commit: fsync after every `n`th unsynced append (`n` ≤ 1
    /// behaves like `Always`). A crash loses at most the last `n`
    /// acknowledged transitions — never earlier ones, because writes
    /// are ordered.
    Batch(u32),
    /// Never fsync explicitly; the OS flushes when it pleases. The
    /// log is still torn-tail-safe, just not crash-durable.
    Never,
}

impl FsyncPolicy {
    /// The policy's metric-name suffix (`journal.append_ns.<policy>`,
    /// `journal.fsync_ns.<policy>`).
    pub fn metric_name(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch(_) => "batch",
            FsyncPolicy::Never => "never",
        }
    }
}

/// Journal knobs.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// The fsync cadence for appends.
    pub fsync: FsyncPolicy,
    /// Compact once the log file exceeds this many bytes (and has at
    /// least doubled since the previous compaction, so a state too big
    /// to shrink does not trigger a rewrite per append). `0` disables
    /// automatic compaction; [`Journal::compact`] always works.
    pub compact_threshold: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig { fsync: FsyncPolicy::Batch(16), compact_threshold: 8 * 1024 * 1024 }
    }
}

/// A job input as journaled: FASTQ bytes travel in the record body,
/// dataset inputs ship their manifest in the header.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordedInput {
    /// Raw FASTQ bytes (the record body).
    Fastq(Vec<u8>),
    /// An existing dataset, by manifest.
    Dataset(Manifest),
}

serde::serde_enum! {
    /// A terminal job status as journaled.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TerminalStatus as "status" {
        /// The job completed.
        Completed = "completed",
        /// The job failed (the record carries the error).
        Failed = "failed",
        /// The job was cancelled.
        Cancelled = "cancelled",
    }
}

serde::serde_enum! {
    /// One journaled transition. Every record is self-delimiting on disk
    /// (see the module docs for the framing) and self-contained enough for
    /// replay to fold the sequence into a [`JournalState`]. Its serde form
    /// is the record header; a `submitted` record's FASTQ bytes are the
    /// record body, so they decode from the header alone as empty.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JournalRecord as "record type", tag "type" {
        /// A job was admitted, with its full spec. FASTQ input bytes ride
        /// in the record body; everything else is header JSON.
        Submitted = "submitted" {
            /// Service-assigned job id.
            job_id: u64,
            /// Dataset name.
            name: String,
            /// Submitting tenant.
            tenant: String,
            /// Dispatch priority.
            priority: Priority = with(priority_field),
            /// The composed plan.
            plan: Plan,
            /// The input.
            input: RecordedInput = with(recorded_input),
            /// Records per AGD chunk (FASTQ inputs).
            chunk_size: usize,
            /// `(contig, length)` reference metadata.
            reference: Vec<(String, u64)> = with(reference_pairs),
        },
        /// The job was granted a fair-share slot and began running.
        Started = "started" {
            /// The job.
            job_id: u64,
        },
        /// A plan stage landed durable dataset state; `manifest` is what it
        /// landed. This is the resume point replay rebuilds from.
        StageCompleted = "stage-completed" {
            /// The job.
            job_id: u64,
            /// The completed stage.
            stage: Stage,
            /// The manifest that stage landed in the shared store.
            manifest: Manifest,
        },
        /// The job reached a terminal state. It is all replay keeps of an
        /// ended job: name and tenant answer `status` for the id, and a
        /// completed job's plan and final manifest re-create its exports.
        Finished = "finished" {
            /// The job.
            job_id: u64,
            /// Dataset name.
            name: String,
            /// Tenant.
            tenant: String,
            /// How it ended.
            status: TerminalStatus,
            /// The failure message, for failed jobs.
            error: Option<String> = default,
            /// The plan a completed job ran.
            plan: Option<Plan> = default,
            /// A completed job's final manifest
            /// ([`crate::job::JobOutput::manifest`]).
            manifest: Option<Manifest> = default,
        },
        /// A catalog entry: `name` resolves to `manifest` for dataset-input
        /// submissions after a restart. Last write per name wins.
        Dataset = "dataset" {
            /// Catalog name.
            name: String,
            /// The dataset's manifest.
            manifest: Manifest,
        },
        /// A result-cache entry landed (or was refreshed): the dataset
        /// under `key`'s plan prefix is durable in the shared store, so a
        /// recovered service comes back with a warm cache. Last write per
        /// key wins.
        CacheInsert = "cache-insert" {
            /// The content-addressed `(input digest, plan prefix)` key.
            key: CacheKey,
            /// The cached dataset and its cost accounting.
            entry: CacheEntry,
        },
        /// A result-cache entry was dropped (LRU eviction, or supersession
        /// by an in-place rewrite); replay removes it.
        CacheEvict = "cache-evict" {
            /// The dropped key.
            key: CacheKey,
        },
        /// A compaction checkpoint: preserves the id watermark so job ids
        /// stay unique (and wire-visible ids stable) across restarts even
        /// after terminal jobs are compacted away.
        Checkpoint = "checkpoint" {
            /// The next id the service may assign.
            next_id: u64,
        },
    }
}

/// The `submitted` record's input, flattened into the header as
/// `"input":"fastq"` (the bytes are the record body) or
/// `"input":"dataset"` plus a `"manifest"` key. Hand-written because it
/// spans two keys and the body.
mod recorded_input {
    use super::{field, DeError, RecordedInput, Serialize, Value};

    pub fn serialize(input: &RecordedInput, key: &str, out: &mut Vec<(String, Value)>) {
        match input {
            RecordedInput::Fastq(_) => out.push((key.into(), Value::String("fastq".into()))),
            RecordedInput::Dataset(manifest) => {
                out.push((key.into(), Value::String("dataset".into())));
                out.push(("manifest".into(), manifest.serialize()));
            }
        }
    }

    pub fn deserialize(v: &Value, key: &str) -> Result<RecordedInput, DeError> {
        match field::tag(v, key)? {
            "fastq" => Ok(RecordedInput::Fastq(Vec::new())),
            "dataset" => Ok(RecordedInput::Dataset(field::required(v, "manifest")?)),
            other => Err(DeError::new(format!("unknown input kind `{other}`"))),
        }
    }
}

/// The `submitted` record's reference list, `[["chr1",1000],…]`; an
/// absent list (but not `null`) reads as empty. Hand-written because
/// the pairs are arrays, not objects.
mod reference_pairs {
    use super::{DeError, Deserialize, Serialize, Value};

    pub fn serialize(reference: &[(String, u64)], key: &str, out: &mut Vec<(String, Value)>) {
        let pairs = reference
            .iter()
            .map(|(contig, len)| Value::Array(vec![contig.serialize(), len.serialize()]))
            .collect();
        out.push((key.into(), Value::Array(pairs)));
    }

    pub fn deserialize(v: &Value, key: &str) -> Result<Vec<(String, u64)>, DeError> {
        let items = match v.get(key) {
            None => return Ok(Vec::new()),
            Some(Value::Array(items)) => items,
            Some(other) => return Err(DeError::new(format!("bad reference field {other:?}"))),
        };
        items
            .iter()
            .map(|pair| match pair {
                Value::Array(kv) if kv.len() == 2 => {
                    Ok((String::deserialize(&kv[0])?, u64::deserialize(&kv[1])?))
                }
                other => Err(DeError::new(format!("bad reference entry {other:?}"))),
            })
            .collect()
    }
}

impl JournalRecord {
    /// Encodes the record as one framed log entry.
    fn encode(&self) -> Result<Vec<u8>> {
        let body: &[u8] = match self {
            JournalRecord::Submitted { input: RecordedInput::Fastq(bytes), .. } => bytes,
            _ => &[],
        };
        let header_json = serde_json::to_string(self)
            .map_err(|e| Error::Pipeline(format!("encode journal record: {e}")))?;
        let header_bytes = header_json.as_bytes();
        if header_bytes.len() > MAX_HEADER_LEN {
            return Err(Error::Pipeline("journal record header too large".into()));
        }
        if body.len() > MAX_BODY_LEN {
            return Err(Error::Pipeline("journal record body too large".into()));
        }
        let mut crc = Crc32::new();
        crc.update(header_bytes);
        crc.update(body);
        let mut out = Vec::with_capacity(FRAME_PREFIX + header_bytes.len() + body.len());
        out.extend_from_slice(&(header_bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(&(body.len() as u32).to_be_bytes());
        out.extend_from_slice(&crc.finish().to_be_bytes());
        out.extend_from_slice(header_bytes);
        out.extend_from_slice(body);
        Ok(out)
    }
}

/// How many ended jobs a service keeps: its registry answers for them
/// and its journal keeps their `finished` records. Live jobs are all
/// kept. Past it, the job that ended earliest is forgotten, one at a
/// time.
pub const JOB_RETAIN: usize = 4_096;

/// Jobs by id under the retention rule: every live job, and the
/// [`JOB_RETAIN`] jobs that ended last. The service's registry and the
/// journal's [`JournalState`] each keep their jobs in one.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Retained<T> {
    /// Every kept job (id order is submission order).
    pub by_id: BTreeMap<u64, T>,
    /// The kept ended jobs' ids, in the order they ended.
    ended: VecDeque<u64>,
}

impl<T> Default for Retained<T> {
    fn default() -> Self {
        Retained { by_id: BTreeMap::new(), ended: VecDeque::new() }
    }
}

impl<T> Retained<T> {
    /// The kept ended jobs, in the order they ended.
    pub fn ended(&self) -> impl Iterator<Item = &T> {
        self.ended.iter().map(|id| &self.by_id[id])
    }

    /// Counts the kept job `id` as ended, once; forgets the
    /// earliest-ended job once more than [`JOB_RETAIN`] have.
    pub fn end(&mut self, id: u64) {
        self.ended.push_back(id);
        if self.ended.len() > JOB_RETAIN {
            let evicted = self.ended.pop_front().expect("more than JOB_RETAIN ended");
            self.by_id.remove(&evicted);
        }
    }
}

/// What replay keeps of one journaled job: a live job's spec, start
/// marker and landed stages, or an ended job's `finished` record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobRecord {
    /// Service-assigned id.
    pub id: u64,
    /// Dataset name.
    pub name: String,
    /// Submitting tenant.
    pub tenant: String,
    /// The submission spec; `None` once the job has ended.
    pub spec: Option<RecordedSpec>,
    /// Whether a `started` record was journaled while the job was live.
    pub started: bool,
    /// Completed stages with the manifest each landed, in completion
    /// order; a re-run stage keeps its slot with the newest manifest.
    /// Empty once the job has ended.
    pub stages: Vec<(Stage, Manifest)>,
    /// The job's [`JournalRecord::Finished`] record, once it has ended.
    pub terminal: Option<JournalRecord>,
}

/// The resumable parts of a journaled [`crate::job::JobSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedSpec {
    /// Dispatch priority.
    pub priority: Priority,
    /// The composed plan.
    pub plan: Plan,
    /// The journaled input.
    pub input: RecordedInput,
    /// Records per AGD chunk.
    pub chunk_size: usize,
    /// `(contig, length)` reference metadata.
    pub reference: Vec<(String, u64)>,
}

impl JobRecord {
    /// The furthest plan stage with a journaled completion, as an index
    /// into the *original* plan's stage list, with the manifest it
    /// landed. `None` when no stage has completed (or the job has
    /// ended). This is the resume point: replay rebuilds the plan
    /// suffix after it.
    pub fn resume_point(&self) -> Option<(usize, &Manifest)> {
        let plan = &self.spec.as_ref()?.plan;
        let mut best: Option<(usize, &Manifest)> = None;
        for (stage, manifest) in &self.stages {
            if let Some(at) = plan.stages().iter().position(|s| s == stage) {
                if best.map_or(true, |(b, _)| at > b) {
                    best = Some((at, manifest));
                }
            }
        }
        best
    }
}

/// The fold of a journal's records: the jobs under the retention rule,
/// the dataset catalog, the result-cache entries and the id watermark.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalState {
    jobs: Retained<JobRecord>,
    datasets: BTreeMap<String, Manifest>,
    cache: BTreeMap<CacheKey, CacheEntry>,
    next_id: u64,
}

impl JournalState {
    /// Folds one record into the state. Replay is exactly
    /// `records.for_each(|r| state.apply(&r))`.
    pub fn apply(&mut self, record: &JournalRecord) {
        match record {
            JournalRecord::Submitted {
                job_id,
                name,
                tenant,
                priority,
                plan,
                input,
                chunk_size,
                reference,
            } => {
                self.next_id = self.next_id.max(job_id + 1);
                // Ids are never reused: a kept job is not submitted again.
                self.jobs.by_id.entry(*job_id).or_insert_with(|| JobRecord {
                    id: *job_id,
                    name: name.clone(),
                    tenant: tenant.clone(),
                    spec: Some(RecordedSpec {
                        priority: *priority,
                        plan: plan.clone(),
                        input: input.clone(),
                        chunk_size: *chunk_size,
                        reference: reference.clone(),
                    }),
                    ..JobRecord::default()
                });
            }
            JournalRecord::Started { job_id } => {
                if let Some(job) = self.jobs.by_id.get_mut(job_id).filter(|j| j.terminal.is_none())
                {
                    job.started = true;
                }
            }
            JournalRecord::StageCompleted { job_id, stage, manifest } => {
                if let Some(job) = self.jobs.by_id.get_mut(job_id).filter(|j| j.terminal.is_none())
                {
                    match job.stages.iter_mut().find(|(s, _)| s == stage) {
                        Some((_, m)) => *m = manifest.clone(),
                        None => job.stages.push((*stage, manifest.clone())),
                    }
                }
            }
            JournalRecord::Finished { job_id, name, tenant, .. } => {
                self.next_id = self.next_id.max(job_id + 1);
                // The job keeps only its `finished` record: its spec
                // (FASTQ and all) and stage manifests are dropped. A
                // repeated `finished` replaces the record in place.
                let job = JobRecord {
                    id: *job_id,
                    name: name.clone(),
                    tenant: tenant.clone(),
                    terminal: Some(record.clone()),
                    ..JobRecord::default()
                };
                if self.jobs.by_id.insert(*job_id, job).and_then(|old| old.terminal).is_none() {
                    self.jobs.end(*job_id);
                }
            }
            JournalRecord::Dataset { name, manifest } => {
                self.datasets.insert(name.clone(), manifest.clone());
            }
            JournalRecord::CacheInsert { key, entry } => {
                self.cache.insert(key.clone(), entry.clone());
            }
            JournalRecord::CacheEvict { key } => {
                self.cache.remove(key);
            }
            JournalRecord::Checkpoint { next_id } => {
                self.next_id = self.next_id.max(*next_id);
            }
        }
    }

    /// Every kept job in id (= submission) order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.by_id.values()
    }

    /// The kept ended jobs (at most [`JOB_RETAIN`]), in the order they
    /// ended.
    pub fn ended(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.ended()
    }

    /// One kept job by id.
    pub fn job(&self, id: u64) -> Option<&JobRecord> {
        self.jobs.by_id.get(&id)
    }

    /// The dataset catalog (name → manifest, last write wins).
    pub fn datasets(&self) -> impl Iterator<Item = (&str, &Manifest)> {
        self.datasets.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The journaled result-cache entries (key order; last write per
    /// key won), for rewarming a recovered service's cache.
    pub fn cache_entries(&self) -> impl Iterator<Item = (&CacheKey, &CacheEntry)> {
        self.cache.iter()
    }

    /// The smallest id a recovered service may assign next.
    pub fn next_id(&self) -> u64 {
        self.next_id.max(1)
    }

    /// The record sequence that replays to exactly this state — what
    /// compaction writes: the id watermark, the catalog, the cache,
    /// each live job's spec, start marker and stage manifests, then
    /// each ended job's `finished` record in the order they ended.
    fn compact_records(&self) -> Vec<JournalRecord> {
        let mut out = vec![JournalRecord::Checkpoint { next_id: self.next_id }];
        for (name, manifest) in &self.datasets {
            out.push(JournalRecord::Dataset { name: name.clone(), manifest: manifest.clone() });
        }
        for (key, entry) in &self.cache {
            out.push(JournalRecord::CacheInsert { key: key.clone(), entry: entry.clone() });
        }
        for job in self.jobs() {
            let Some(spec) = &job.spec else { continue };
            out.push(JournalRecord::Submitted {
                job_id: job.id,
                name: job.name.clone(),
                tenant: job.tenant.clone(),
                priority: spec.priority,
                plan: spec.plan.clone(),
                input: spec.input.clone(),
                chunk_size: spec.chunk_size,
                reference: spec.reference.clone(),
            });
            if job.started {
                out.push(JournalRecord::Started { job_id: job.id });
            }
            for (stage, manifest) in &job.stages {
                out.push(JournalRecord::StageCompleted {
                    job_id: job.id,
                    stage: *stage,
                    manifest: manifest.clone(),
                });
            }
        }
        out.extend(self.ended().filter_map(|job| job.terminal.clone()));
        out
    }
}

/// A replayed log: the verified records, where each started, and where
/// the verified prefix ends. `good_len < file_len` means a torn tail
/// was detected (and, through [`Journal::open`], truncated away).
#[derive(Debug)]
pub struct ReplayedLog {
    /// Every record that verified, in log order.
    pub records: Vec<JournalRecord>,
    /// Byte offset where each record starts; `offsets[k]` is also the
    /// length of a log holding exactly the first `k` records.
    pub offsets: Vec<u64>,
    /// Length of the verified prefix.
    pub good_len: u64,
}

impl ReplayedLog {
    /// Folds the records into a [`JournalState`].
    pub fn state(&self) -> JournalState {
        let mut state = JournalState::default();
        for record in &self.records {
            state.apply(record);
        }
        state
    }
}

/// The write-ahead journal: an append handle over the log file plus
/// the folded [`JournalState`] mirror compaction rewrites from.
pub struct Journal {
    path: PathBuf,
    file: File,
    len: u64,
    unsynced: u32,
    config: JournalConfig,
    state: JournalState,
    /// File length right after the last compaction (or open); auto-
    /// compaction waits for the log to double past the threshold.
    compact_floor: u64,
    /// Append/fsync latency histograms, when the owning service is
    /// metered. Named per fsync policy so a policy sweep shows up as
    /// separate distributions.
    telemetry: Option<JournalMetrics>,
}

/// Registry handles a metered journal publishes through.
struct JournalMetrics {
    /// `journal.append_ns.<policy>`: full append latency (encode,
    /// write, and any policy-triggered fsync).
    append: Histogram,
    /// `journal.fsync_ns.<policy>`: just the `sync_data` calls.
    fsync: Histogram,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, replays and
    /// verifies the existing records, and truncates any torn tail so
    /// appends continue from the last good record.
    pub fn open(path: impl Into<PathBuf>, config: JournalConfig) -> Result<Journal> {
        let path = path.into();
        let replayed = Journal::read(&path)?;
        let state = replayed.state();
        let file_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        if file_len > replayed.good_len {
            // Torn tail: drop the unverifiable suffix on disk too, so
            // the next append starts at a record boundary.
            let trunc = OpenOptions::new().write(true).open(&path)?;
            trunc.set_len(replayed.good_len)?;
            trunc.sync_all()?;
        }
        // Append mode, so every write lands at the (possibly just
        // truncated) end of the log.
        let file = OpenOptions::new().create(true).read(true).append(true).open(&path)?;
        let len = replayed.good_len;
        let mut journal = Journal {
            path,
            file,
            len,
            unsynced: 0,
            config,
            state,
            compact_floor: len,
            telemetry: None,
        };
        if config.compact_threshold > 0 && len > config.compact_threshold {
            journal.compact()?;
        }
        Ok(journal)
    }

    /// Reads and verifies a log file without opening it for writing.
    /// A missing file replays as empty. Verification stops at the
    /// first record that fails (torn tail); the file is not modified.
    pub fn read(path: impl AsRef<Path>) -> Result<ReplayedLog> {
        let bytes = match std::fs::read(path.as_ref()) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let mut records = Vec::new();
        let mut offsets = Vec::new();
        let mut at = 0usize;
        while let Some((record, next)) = decode_record_at(&bytes, at) {
            records.push(record);
            offsets.push(at as u64);
            at = next;
        }
        Ok(ReplayedLog { records, offsets, good_len: at as u64 })
    }

    /// The folded state of everything journaled so far.
    pub fn state(&self) -> &JournalState {
        &self.state
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current log file length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Publishes append and fsync latency into `registry`, under
    /// metric names suffixed by the configured fsync policy.
    pub fn set_telemetry(&mut self, registry: &MetricsRegistry) {
        let policy = self.config.fsync.metric_name();
        self.telemetry = Some(JournalMetrics {
            append: registry.histogram(&format!("journal.append_ns.{policy}")),
            fsync: registry.histogram(&format!("journal.fsync_ns.{policy}")),
        });
    }

    /// Runs `sync_data`, timing it into the fsync histogram.
    fn timed_sync_data(&mut self) -> Result<()> {
        let started = std::time::Instant::now();
        self.file.sync_data()?;
        if let Some(m) = &self.telemetry {
            m.fsync.observe(started.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Appends one record (write-ahead: call this *before* acting on
    /// the transition), fsyncing per the configured policy, and
    /// compacts if the log has outgrown its threshold.
    pub fn append(&mut self, record: &JournalRecord) -> Result<()> {
        let started = std::time::Instant::now();
        let frame = record.encode()?;
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        self.state.apply(record);
        match self.config.fsync {
            FsyncPolicy::Always => {
                self.timed_sync_data()?;
                self.unsynced = 0;
            }
            FsyncPolicy::Batch(n) => {
                self.unsynced += 1;
                if self.unsynced >= n.max(1) {
                    self.timed_sync_data()?;
                    self.unsynced = 0;
                }
            }
            FsyncPolicy::Never => {}
        }
        if let Some(m) = &self.telemetry {
            m.append.observe(started.elapsed().as_nanos() as u64);
        }
        let threshold = self.config.compact_threshold;
        if threshold > 0 && self.len > threshold.max(self.compact_floor.saturating_mul(2)) {
            self.compact()?;
        }
        Ok(())
    }

    /// Forces any batched appends to disk.
    pub fn sync(&mut self) -> Result<()> {
        if self.unsynced > 0 || matches!(self.config.fsync, FsyncPolicy::Never) {
            self.timed_sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Rewrites the log as the minimal record sequence for the current
    /// state (see [`JournalState`]): temp file, fsync, atomic rename.
    /// A crash at any point leaves either the old complete log or the
    /// new one.
    pub fn compact(&mut self) -> Result<()> {
        let tmp_path = self.path.with_extension("wal.compacting");
        {
            let mut tmp = File::create(&tmp_path)?;
            for record in self.state.compact_records() {
                tmp.write_all(&record.encode()?)?;
            }
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Make the rename itself durable where the platform allows
            // directory fsync; best-effort elsewhere.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        // The old handle still points at the replaced inode; reopen.
        self.file = OpenOptions::new().read(true).append(true).open(&self.path)?;
        self.len = self.file.metadata()?.len();
        self.compact_floor = self.len;
        self.unsynced = 0;
        Ok(())
    }
}

/// Decodes the record starting at `at`, returning it and the offset of
/// the next one — or `None` if the bytes from `at` do not hold one
/// whole verified record (torn tail).
fn decode_record_at(bytes: &[u8], at: usize) -> Option<(JournalRecord, usize)> {
    let prefix = bytes.get(at..at + FRAME_PREFIX)?;
    let header_len = u32::from_be_bytes(prefix[0..4].try_into().unwrap()) as usize;
    let body_len = u32::from_be_bytes(prefix[4..8].try_into().unwrap()) as usize;
    let want_crc = u32::from_be_bytes(prefix[8..12].try_into().unwrap());
    if header_len > MAX_HEADER_LEN || body_len > MAX_BODY_LEN {
        return None;
    }
    let header_at = at + FRAME_PREFIX;
    let body_at = header_at + header_len;
    let next = body_at + body_len;
    let header = bytes.get(header_at..body_at)?;
    let body = bytes.get(body_at..next)?;
    let mut crc = Crc32::new();
    crc.update(header);
    crc.update(body);
    if crc.finish() != want_crc {
        return None;
    }
    let header_str = std::str::from_utf8(header).ok()?;
    let value = serde_json::parse_value(header_str).ok()?;
    let mut record = JournalRecord::deserialize(&value).ok()?;
    if let JournalRecord::Submitted { input: RecordedInput::Fastq(bytes), .. } = &mut record {
        *bytes = body.to_vec();
    }
    Some((record, next))
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona::plan::Plan;

    /// A fresh `persona-journal-<pid>-<tag>` directory, removed on drop.
    struct TmpDir(PathBuf);

    impl TmpDir {
        fn new(tag: &str) -> TmpDir {
            let dir =
                std::env::temp_dir().join(format!("persona-journal-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TmpDir(dir)
        }

        fn wal(&self) -> PathBuf {
            self.0.join("service.wal")
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn submitted(id: u64, input: RecordedInput) -> JournalRecord {
        JournalRecord::Submitted {
            job_id: id,
            name: format!("job-{id}"),
            tenant: "prod".into(),
            priority: Priority::Normal,
            plan: Plan::full(),
            input,
            chunk_size: 512,
            reference: vec![("chr1".into(), 1000)],
        }
    }

    fn finished(id: u64) -> JournalRecord {
        JournalRecord::Finished {
            job_id: id,
            name: format!("job-{id}"),
            tenant: "prod".into(),
            status: TerminalStatus::Cancelled,
            error: None,
            plan: None,
            manifest: None,
        }
    }

    fn mixed_records() -> Vec<JournalRecord> {
        let manifest = Manifest::new("job-1");
        vec![
            submitted(1, RecordedInput::Fastq(b"@r1\nACGT\n+\nIIII\n".to_vec())),
            JournalRecord::Started { job_id: 1 },
            JournalRecord::StageCompleted {
                job_id: 1,
                stage: Stage::Sort,
                manifest: manifest.clone(),
            },
            submitted(2, RecordedInput::Dataset(manifest.clone())),
            JournalRecord::Finished {
                job_id: 1,
                name: "job-1".into(),
                tenant: "prod".into(),
                status: TerminalStatus::Completed,
                error: None,
                plan: Some(Plan::full()),
                manifest: Some(manifest.clone()),
            },
            JournalRecord::Dataset { name: "landed".into(), manifest: manifest.clone() },
            JournalRecord::CacheInsert {
                key: CacheKey::new(
                    persona_cache::Digest::of_bytes(b"@r1\nACGT\n+\nIIII\n"),
                    r#"{"input":"fastq","stages":["import"],"chunk_size":512}"#,
                ),
                entry: CacheEntry {
                    manifest,
                    state: "encoded-agd".into(),
                    stages: 1,
                    cost_ns: 42_000,
                },
            },
            JournalRecord::CacheEvict {
                key: CacheKey::new(persona_cache::Digest::of_bytes(b"gone"), "{}"),
            },
            JournalRecord::Checkpoint { next_id: 7 },
        ]
    }

    #[test]
    fn records_roundtrip_through_the_log() {
        let records = mixed_records();
        for fsync in [FsyncPolicy::Always, FsyncPolicy::Batch(16), FsyncPolicy::Never] {
            let tmp = TmpDir::new(&format!("roundtrip-{}", fsync.metric_name()));
            let path = tmp.wal();
            let written = {
                let mut j =
                    Journal::open(&path, JournalConfig { fsync, ..JournalConfig::default() })
                        .unwrap();
                for r in &records {
                    j.append(r).unwrap();
                }
                j.sync().unwrap();
                j.len()
            };
            let replayed = Journal::read(&path).unwrap();
            assert_eq!(replayed.records, records, "{fsync:?}");
            assert_eq!(replayed.offsets.len(), records.len(), "{fsync:?}");
            assert_eq!(replayed.good_len, written, "{fsync:?}: replay length");
            let state = replayed.state();
            assert_eq!(state.next_id(), 7);
            assert_eq!(state.job(1).unwrap().terminal.as_ref(), Some(&records[4]));
            assert!(state.job(2).unwrap().terminal.is_none());
            assert!(state.datasets().any(|(name, _)| name == "landed"));
        }
    }

    #[test]
    fn cache_records_fold_and_survive_compaction() {
        let manifest = Manifest::new("warm");
        let key = |tag: &str| {
            CacheKey::new(
                persona_cache::Digest::of_bytes(tag.as_bytes()),
                format!("{{\"p\":\"{tag}\"}}"),
            )
        };
        let entry = |cost: u64| CacheEntry {
            manifest: manifest.clone(),
            state: "aligned".into(),
            stages: 2,
            cost_ns: cost,
        };
        let mut state = JournalState::default();
        state.apply(&JournalRecord::CacheInsert { key: key("a"), entry: entry(1) });
        state.apply(&JournalRecord::CacheInsert { key: key("b"), entry: entry(2) });
        // Refresh wins over the first write; evict removes outright.
        state.apply(&JournalRecord::CacheInsert { key: key("a"), entry: entry(3) });
        state.apply(&JournalRecord::CacheEvict { key: key("b") });
        let entries: Vec<_> = state.cache_entries().collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, &key("a"));
        assert_eq!(entries[0].1.cost_ns, 3);
        // Compaction re-emits the surviving entry; replaying the
        // compacted records reproduces the cache state.
        let mut replayed = JournalState::default();
        for r in state.compact_records() {
            replayed.apply(&r);
        }
        let entries: Vec<_> = replayed.cache_entries().collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1.cost_ns, 3);
    }

    #[test]
    fn torn_tail_truncates_to_last_good_record() {
        let tmp = TmpDir::new("torn");
        let path = tmp.wal();
        let records = mixed_records();
        {
            let mut j = Journal::open(&path, JournalConfig::default()).unwrap();
            for r in &records {
                j.append(r).unwrap();
            }
            j.sync().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let replayed = Journal::read(&path).unwrap();
        // Cut mid-record: between the 3rd record's start and its end.
        let start = replayed.offsets[2] as usize;
        let end = replayed.offsets[3] as usize;
        let cut = start + (end - start) / 2;
        std::fs::write(&path, &full[..cut]).unwrap();
        let torn = Journal::read(&path).unwrap();
        assert_eq!(torn.records, records[..2]);
        assert_eq!(torn.good_len, replayed.offsets[2]);
        // Open truncates the tail on disk and appends continue cleanly.
        {
            let mut j = Journal::open(&path, JournalConfig::default()).unwrap();
            assert_eq!(j.len(), replayed.offsets[2]);
            j.append(&JournalRecord::Started { job_id: 9 }).unwrap();
            j.sync().unwrap();
        }
        let after = Journal::read(&path).unwrap();
        assert_eq!(after.records.len(), 3);
        assert_eq!(after.records[2], JournalRecord::Started { job_id: 9 });
    }

    #[test]
    fn corrupted_checksum_stops_replay() {
        let tmp = TmpDir::new("crc");
        let path = tmp.wal();
        {
            let mut j = Journal::open(&path, JournalConfig::default()).unwrap();
            for r in mixed_records() {
                j.append(&r).unwrap();
            }
            j.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let offsets = Journal::read(&path).unwrap().offsets.clone();
        // Flip one byte inside the 4th record's header.
        let at = offsets[3] as usize + FRAME_PREFIX + 2;
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let replayed = Journal::read(&path).unwrap();
        assert_eq!(replayed.records.len(), 3, "replay stops at the first bad checksum");
        assert_eq!(replayed.good_len, offsets[3]);
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_terminal_jobs() {
        let tmp = TmpDir::new("compact");
        let path = tmp.wal();
        let mut j = Journal::open(&path, JournalConfig::default()).unwrap();
        for r in mixed_records() {
            j.append(&r).unwrap();
        }
        let before = j.state().clone();
        let len_before = j.len();
        j.compact().unwrap();
        assert!(j.len() < len_before, "terminal job 1's records must shrink");
        let replayed = Journal::read(&path).unwrap();
        let after = replayed.state();
        assert!(after.jobs().eq(before.jobs()), "compaction changed a job");
        assert!(after.ended().eq(before.ended()), "compaction changed the end order");
        assert_eq!(after, before);
        let j1 = after.job(1).unwrap();
        assert_eq!(j1.terminal.as_ref(), Some(&mixed_records()[4]));
        assert!(j1.spec.is_none(), "terminal job keeps only its finished line");
        assert!(after.job(2).unwrap().spec.is_some(), "live job keeps its spec");
        assert!(after.datasets().any(|(name, _)| name == "landed"));
        // And appends continue on the compacted file.
        j.append(&JournalRecord::Started { job_id: 2 }).unwrap();
        j.sync().unwrap();
        let state = Journal::read(&path).unwrap().state();
        assert!(state.job(2).unwrap().started);
    }

    #[test]
    fn auto_compaction_triggers_past_threshold() {
        let tmp = TmpDir::new("auto");
        let path = tmp.wal();
        let config = JournalConfig { fsync: FsyncPolicy::Never, compact_threshold: 4096 };
        let mut j = Journal::open(&path, config).unwrap();
        // Terminal churn: submit+finish pairs fold to one line each, so
        // the log keeps shrinking back under the threshold.
        for id in 0..200u64 {
            j.append(&submitted(id, RecordedInput::Fastq(vec![b'A'; 256]))).unwrap();
            j.append(&finished(id)).unwrap();
        }
        // 200 submit records at ~700 bytes each would be well past
        // 100 KiB without compaction folding finished pairs away.
        assert!(
            j.len() < 100 * 1024,
            "auto-compaction must have rewritten the log (len {})",
            j.len()
        );
        let state = Journal::read(&path).unwrap().state();
        assert_eq!(state.jobs().count(), 200);
        assert!(state.jobs().all(|job| job.terminal.is_some()));
        assert_eq!(state.next_id(), 200);
        // An explicit compaction drops every terminal job's spec.
        j.compact().unwrap();
        let state = Journal::read(&path).unwrap().state();
        assert_eq!(state.jobs().count(), 200);
        assert!(state.jobs().all(|job| job.spec.is_none()));
    }

    /// Compacting a log of 2 × `JOB_RETAIN` ended jobs keeps exactly
    /// the `JOB_RETAIN` that ended last, so a recovery replays the live
    /// jobs and those, and no more.
    #[test]
    fn compaction_keeps_exactly_the_job_retain_jobs_that_ended_last() {
        let tmp = TmpDir::new("retain");
        let path = tmp.wal();
        let config = JournalConfig { fsync: FsyncPolicy::Never, compact_threshold: 0 };
        let mut j = Journal::open(&path, config).unwrap();
        let (ended, live) = (2 * JOB_RETAIN as u64, 3u64);
        for id in 1..=ended + live {
            j.append(&submitted(id, RecordedInput::Fastq(b"@r\nA\n+\nI\n".to_vec()))).unwrap();
        }
        for id in 1..=ended {
            j.append(&finished(id)).unwrap();
        }
        let mirror = j.state().clone();
        j.compact().unwrap();
        drop(j);

        let log = Journal::read(&path).unwrap();
        let count =
            |keep: fn(&JournalRecord) -> bool| log.records.iter().filter(|r| keep(r)).count();
        assert_eq!(count(|r| matches!(r, JournalRecord::Finished { .. })), JOB_RETAIN);
        let job_records = count(|r| {
            matches!(r, JournalRecord::Submitted { .. } | JournalRecord::Finished { .. })
        });
        assert_eq!(job_records, live as usize + JOB_RETAIN);
        let state = log.state();
        assert_eq!(state, mirror);
        let kept: Vec<u64> = state.ended().map(|job| job.id).collect();
        assert_eq!(kept, (ended - JOB_RETAIN as u64 + 1..=ended).collect::<Vec<_>>());
        assert!(state.ended().all(|job| job.spec.is_none()));
        assert_eq!(state.jobs().filter(|job| job.spec.is_some()).count() as u64, live);
        let reopened = Journal::open(&path, config).unwrap();
        assert_eq!(reopened.state().jobs().count(), live as usize + JOB_RETAIN);
    }

    #[test]
    fn resume_point_is_furthest_plan_stage() {
        let mut state = JournalState::default();
        state.apply(&submitted(1, RecordedInput::Fastq(Vec::new())));
        state.apply(&JournalRecord::Started { job_id: 1 });
        let m1 = Manifest::new("a");
        let m2 = Manifest::new("b");
        state.apply(&JournalRecord::StageCompleted {
            job_id: 1,
            stage: Stage::Align,
            manifest: m1,
        });
        state.apply(&JournalRecord::StageCompleted { job_id: 1, stage: Stage::Sort, manifest: m2 });
        let job = state.job(1).unwrap();
        let (at, manifest) = job.resume_point().unwrap();
        // Plan::full() = import, align, sort, dupmark, export-sam.
        assert_eq!(at, 2);
        assert_eq!(manifest.name, "b");
    }
}
