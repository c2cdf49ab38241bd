//! The Persona wire protocol: length-prefixed JSON frames over TCP.
//!
//! The paper's deployment (§5.2) is a *served framework*: jobs arrive
//! over the network and are scheduled onto shared compute. This module
//! is the protocol half of that story — pure data types plus a blocking
//! [`WireClient`] — while the accept loop lives in `persona_server`
//! (`WireServer`), so any crate can speak the protocol without pulling
//! in the service.
//!
//! # Framing
//!
//! Every frame is a JSON **header** describing a [`Message`] plus an
//! optional raw binary **body** (FASTQ input, SAM/BAM output chunks),
//! so bulk payloads never pay a text encoding:
//!
//! ```text
//! ┌────────────┬────────────┬───────────────┬─────────────┐
//! │ header_len │  body_len  │  header JSON  │    body     │
//! │  u32 (BE)  │  u32 (BE)  │  header_len B │  body_len B │
//! └────────────┴────────────┴───────────────┴─────────────┘
//! ```
//!
//! Header and body lengths are bounded ([`MAX_HEADER_LEN`],
//! [`MAX_BODY_LEN`]). A frame whose *lengths* are valid but whose
//! header does not decode gets a typed [`Message::Error`] reply and the
//! connection continues (framing is intact, so the stream can resync);
//! a frame whose lengths are out of bounds or truncated gets a
//! best-effort [`ErrorCode::BadFrame`] reply and the connection closes,
//! because byte alignment is lost.
//!
//! # Conversation
//!
//! The client opens with [`Message::Hello`] and the server answers with
//! [`Message::ServerHello`]. The server speaks protocol version 2
//! ([`PROTOCOL_VERSION`]); any other version, 1 included, is rejected
//! with [`ErrorCode::UnsupportedVersion`] and the connection closes.
//! Every request carries a client-chosen `seq`, echoed on every reply
//! it produces, so replies (including [`Message::Wait`]'s streamed
//! [`Message::JobEvent`] / [`Message::OutputChunk`] /
//! [`Message::JobDone`] sequence) can be demultiplexed even when a
//! client pipelines requests. Plans travel
//! as their [`Plan`] JSON form and are re-validated through
//! [`crate::plan::PlanBuilder`] during decoding, so an invalid plan
//! can never be admitted over the wire.
//!
//! # Protocol v2
//!
//! On top of that request/reply conversation, version 2 has:
//!
//! * **Pipelining** — many requests in flight per connection;
//!   [`WireClient`] exposes `*_pipelined` send halves and `take_*`
//!   receive halves that demultiplex interleaved reply streams by
//!   `seq`.
//! * **Credit-based flow control** — a v2 connection's output-chunk
//!   window opens at zero; the client advertises its receive window
//!   with [`Message::Credit`] grants (the pipelined client sends one
//!   right after its hello and replenishes as it consumes chunks). The
//!   server *pauses* a job's export stream when the window is
//!   exhausted instead of buffering unboundedly.
//! * **Attach-by-name** — [`Message::ListJobs`] / [`Message::Attach`]
//!   let a reconnecting client rediscover running work and resume
//!   waiting on it without holding the original job id.
//!
//! The full specification — every message with JSON examples, error
//! codes, and the plan grammar — is in `docs/PROTOCOL.md`.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use persona_agd::manifest::{Manifest, RefContig};
use persona_cache::CacheStats;
use persona_dataflow::Priority;
use persona_telemetry::MetricsSnapshot;
use serde::{field, DeError, Deserialize, Serialize, Value};

use crate::plan::Plan;

/// The protocol version, carried by [`Message::Hello`] /
/// [`Message::ServerHello`] (the pipelined, credit-windowed protocol).
pub const PROTOCOL_VERSION: u32 = 2;

/// The output-chunk window (in chunks) the pipelined [`WireClient`]
/// advertises right after its hello. Each output chunk is at most
/// [`OUTPUT_CHUNK_LEN`] bytes, so this bounds per-connection egress
/// buffering at 16 MiB.
pub const DEFAULT_CREDIT_WINDOW: u64 = 16;

/// Largest accepted frame header (the JSON part). Headers are control
/// metadata; bulk bytes belong in the body.
pub const MAX_HEADER_LEN: usize = 4 << 20;

/// Largest accepted frame body (FASTQ input or one output chunk).
pub const MAX_BODY_LEN: usize = 256 << 20;

/// Output payloads are streamed in chunks of at most this many bytes.
pub const OUTPUT_CHUNK_LEN: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Wire enums
// ---------------------------------------------------------------------------

serde::serde_enum! {
    /// Typed error codes carried by [`Message::Error`]. The spec promises a
    /// malformed request a *typed reply*, never a silently dropped
    /// connection, so clients can distinguish "fix your frame" from "fix
    /// your plan".
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ErrorCode as "error code" {
        /// Hello carried a protocol version the server does not speak.
        UnsupportedVersion = "unsupported-version",
        /// Frame lengths out of bounds or truncated mid-frame; byte
        /// alignment is lost, so the connection closes after this reply.
        BadFrame = "bad-frame",
        /// The frame was well-formed but its header was not valid JSON or
        /// not a known message; the connection continues.
        BadMessage = "bad-message",
        /// A submitted plan failed re-validation through the plan builder.
        InvalidPlan = "invalid-plan",
        /// The request was understood but rejected (spec/plan mismatch,
        /// missing server resource, empty name or tenant, ...).
        InvalidRequest = "invalid-request",
        /// The referenced job id is not known to this server.
        UnknownJob = "unknown-job",
        /// The service is shutting down and admits no new jobs.
        Shutdown = "shutdown",
        /// An unexpected server-side failure.
        Internal = "internal",
    }
}

serde::serde_enum! {
    /// Where a job is in its lifecycle, in the service and on the wire
    /// alike: `persona_server` re-exports this type as `JobStatus`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WireJobStatus as "job status" {
        /// Admitted, waiting for a fair-share dispatch slot.
        Queued = "queued",
        /// Running on the shared runtime.
        Running = "running",
        /// Finished successfully.
        Completed = "completed",
        /// Finished with an error.
        Failed = "failed",
        /// Cancelled before or during execution.
        Cancelled = "cancelled",
    }
}

impl WireJobStatus {
    /// Whether the status is terminal (completed / failed / cancelled).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, WireJobStatus::Queued | WireJobStatus::Running)
    }
}

serde::serde_enum! {
    /// Which exported byte stream an [`Message::OutputChunk`] belongs to.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum OutputStream as "output stream" {
        /// SAM text (`export-sam`).
        Sam = "sam",
        /// BGZF BAM (`export-bam`).
        Bam = "bam",
    }
}

/// The executor-priority wire names (`low` / `normal` / `high`).
pub fn priority_name(p: Priority) -> &'static str {
    match p {
        Priority::Low => "low",
        Priority::Normal => "normal",
        Priority::High => "high",
    }
}

/// Parses an executor-priority wire name.
pub fn parse_priority(s: &str) -> Option<Priority> {
    match s {
        "low" => Some(Priority::Low),
        "normal" => Some(Priority::Normal),
        "high" => Some(Priority::High),
        _ => None,
    }
}

/// The field codec of an executor [`Priority`] (its wire name), for
/// `submit-job` and the journal's `submitted` record. Hand-written
/// because `Priority` belongs to `persona_dataflow`, which has no serde.
pub mod priority_field {
    use super::{field, parse_priority, priority_name, DeError, Priority, Value};

    /// Writes the priority's wire name under `key`.
    pub fn serialize(p: &Priority, key: &str, out: &mut Vec<(String, Value)>) {
        out.push((key.into(), Value::String(priority_name(*p).into())));
    }

    /// Reads a priority wire name from `key`.
    pub fn deserialize(v: &Value, key: &str) -> Result<Priority, DeError> {
        let name = field::tag(v, key)?;
        parse_priority(name).ok_or_else(|| DeError::new(format!("unknown priority `{name}`")))
    }
}

// ---------------------------------------------------------------------------
// Wire records
// ---------------------------------------------------------------------------

serde::serde_enum! {
    /// What a submitted job consumes. FASTQ *bytes* travel in the frame
    /// body (never inside the JSON header), so the header stays small and
    /// the payload pays no text encoding; dataset inputs name an existing
    /// dataset by shipping its manifest inline.
    #[derive(Debug, Clone, PartialEq)]
    pub enum WireInput as "input kind", tag "kind" {
        /// Raw FASTQ; the submit frame's body holds the bytes.
        Fastq = "fastq",
        /// An existing AGD dataset in the server's shared store.
        Dataset = "dataset" (manifest: Manifest),
    }
}

serde::serde_struct! {
    /// One executed stage's timing, as reported in [`Message::JobDone`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireStageRow {
        /// Stage wire name (`import`, `align`, ...).
        pub stage: String,
        /// Stage wall clock, seconds.
        pub elapsed_s: f64,
        /// The stage's share of executor worker time while it ran.
        pub busy_fraction: f64,
    }
}

serde::serde_struct! {
    /// One tenant's accounting snapshot inside [`Message::ReportReply`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireTenant {
        /// Tenant name.
        pub tenant: String,
        /// Fair-share weight in force.
        pub weight: u32,
        /// Jobs ever submitted.
        pub submitted: u64,
        /// Jobs finished successfully.
        pub completed: u64,
        /// Jobs finished with an error.
        pub failed: u64,
        /// Jobs cancelled.
        pub cancelled: u64,
        /// Jobs queued at snapshot time.
        pub queued: u64,
        /// Jobs running at snapshot time.
        pub running: u64,
        /// Reads processed by finished jobs.
        pub reads: u64,
        /// Throughput over finished jobs (0.0 when none ran).
        pub reads_per_sec: f64,
    }
}

serde::serde_struct! {
    /// The service snapshot carried by [`Message::ReportReply`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireReport {
        /// Service uptime, seconds.
        pub elapsed_s: f64,
        /// Executor worker threads.
        pub workers: u64,
        /// Per-tenant accounting, in tenant registration order.
        pub tenants: Vec<WireTenant>,
    }
}

serde::serde_struct! {
    /// One job's identity row inside [`Message::JobList`] — enough for a
    /// reconnecting client to find its work by name and attach.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireJobSummary {
        /// Service-assigned job id (global across connections).
        pub job_id: u64,
        /// The job's dataset name.
        pub name: String,
        /// The submitting tenant.
        pub tenant: String,
        /// Lifecycle state at snapshot time.
        pub status: WireJobStatus,
    }
}

/// The field codec of `submit-job`'s reference list. Hand-written
/// because the wire spells the `(contig, length)` pairs as
/// `[{"name":…,"length":…}]` and an absent list (but not `null`) reads
/// as empty.
mod reference_field {
    use super::{field, DeError, RefContig, Serialize, Value};

    pub fn serialize(reference: &[(String, u64)], key: &str, out: &mut Vec<(String, Value)>) {
        let contigs: Vec<RefContig> = reference
            .iter()
            .map(|(name, length)| RefContig { name: name.clone(), length: *length })
            .collect();
        out.push((key.into(), contigs.serialize()));
    }

    pub fn deserialize(v: &Value, key: &str) -> Result<Vec<(String, u64)>, DeError> {
        let contigs: Vec<RefContig> =
            if v.get(key).is_some() { field::required(v, key)? } else { Vec::new() };
        Ok(contigs.into_iter().map(|c| (c.name, c.length)).collect())
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

serde::serde_enum! {
    /// Every message that can appear in a frame header, tagged on the wire
    /// by its `"type"` field. `seq` is the client-chosen correlation id,
    /// echoed on every reply the request produces.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Message as "message type", tag "type" {
        /// Client → server, first frame of a connection.
        Hello = "hello" {
            /// The client's [`PROTOCOL_VERSION`].
            version: u32,
        },
        /// Server → client, reply to a version-compatible [`Message::Hello`].
        ServerHello = "server-hello" {
            /// The server's [`PROTOCOL_VERSION`].
            version: u32,
        },
        /// Client → server: admit a job. FASTQ inputs put the bytes in the
        /// frame body; dataset inputs ship the manifest inline and an empty
        /// body.
        SubmitJob = "submit-job" {
            /// Correlation id.
            seq: u64,
            /// Dataset name (unique among live jobs).
            name: String,
            /// The submitting tenant.
            tenant: String,
            /// Executor dispatch priority.
            priority: Priority = with(priority_field),
            /// The composed plan; re-validated during decoding.
            plan: Plan,
            /// The input kind.
            input: WireInput,
            /// Records per AGD chunk (FASTQ inputs only).
            chunk_size: u64,
            /// `(contig, length)` reference metadata recorded at alignment.
            reference: Vec<(String, u64)> = with(reference_field),
        },
        /// Server → client: the job was admitted.
        JobAccepted = "job-accepted" {
            /// Correlation id of the submit.
            seq: u64,
            /// Service-assigned job id (global across connections).
            job_id: u64,
        },
        /// Client → server: poll one job's lifecycle state.
        Status = "status" {
            /// Correlation id.
            seq: u64,
            /// The job to poll.
            job_id: u64,
        },
        /// Server → client: reply to [`Message::Status`].
        JobStatus = "job-status" {
            /// Correlation id of the request.
            seq: u64,
            /// The polled job.
            job_id: u64,
            /// Its current state.
            status: WireJobStatus,
        },
        /// Client → server: stream the job's progress and, once terminal,
        /// its outputs. Replies: one or more [`Message::JobEvent`]s, then
        /// [`Message::OutputChunk`]s for each non-empty output stream, then
        /// exactly one [`Message::JobDone`].
        Wait = "wait" {
            /// Correlation id.
            seq: u64,
            /// The job to wait on.
            job_id: u64,
        },
        /// Server → client: a lifecycle transition observed during
        /// [`Message::Wait`].
        JobEvent = "job-event" {
            /// Correlation id of the wait.
            seq: u64,
            /// The watched job.
            job_id: u64,
            /// The state it reached.
            status: WireJobStatus,
        },
        /// Server → client: one chunk of an output stream; the bytes are
        /// the frame body. Chunks of one stream arrive in `index` order;
        /// the final chunk has `last == true`.
        OutputChunk = "output-chunk" {
            /// Correlation id of the wait.
            seq: u64,
            /// The producing job.
            job_id: u64,
            /// Which output stream this chunk extends.
            stream: OutputStream,
            /// Zero-based chunk index within the stream.
            index: u64,
            /// Whether this is the stream's final chunk.
            last: bool,
        },
        /// Server → client: terminal reply to [`Message::Wait`].
        JobDone = "job-done" {
            /// Correlation id of the wait.
            seq: u64,
            /// The finished job.
            job_id: u64,
            /// Terminal state (`completed` / `failed` / `cancelled`).
            status: WireJobStatus,
            /// The failure message when `status == failed`.
            error: Option<String> = default,
            /// Reads processed.
            reads: u64,
            /// Time queued before dispatch, seconds.
            queue_wait_s: f64,
            /// Wall-clock run time, seconds.
            elapsed_s: f64,
            /// Per-stage timings for exactly the stages that ran.
            stages: Vec<WireStageRow>,
            /// Manifest of the plan's final dataset state, when one exists.
            manifest: Option<Manifest> = default,
        },
        /// Client → server: request cooperative cancellation of a job.
        Cancel = "cancel" {
            /// Correlation id.
            seq: u64,
            /// The job to cancel.
            job_id: u64,
        },
        /// Server → client: the cancellation request was delivered (the
        /// job's terminal state still arrives through `wait`/`status`).
        CancelOk = "cancel-ok" {
            /// Correlation id of the cancel.
            seq: u64,
            /// The cancelled job.
            job_id: u64,
        },
        /// Client → server: request a service accounting snapshot.
        Report = "report" {
            /// Correlation id.
            seq: u64,
        },
        /// Server → client: reply to [`Message::Report`].
        ReportReply = "report-reply" {
            /// Correlation id of the request.
            seq: u64,
            /// The snapshot.
            report: WireReport,
        },
        /// Client → server: request a point-in-time snapshot of the
        /// server's metrics registry (counters, gauges, latency
        /// histograms from every subsystem).
        MetricsRequest = "metrics-request" {
            /// Correlation id.
            seq: u64,
        },
        /// Server → client: reply to [`Message::MetricsRequest`].
        MetricsReply = "metrics-reply" {
            /// Correlation id of the request.
            seq: u64,
            /// The registry snapshot.
            metrics: MetricsSnapshot,
        },
        /// Client → server: request the service's result-cache counters
        /// and occupancy (hits, misses, evictions, reuse savings).
        CacheStatsRequest = "cache-stats-request" {
            /// Correlation id.
            seq: u64,
        },
        /// Server → client: reply to [`Message::CacheStatsRequest`]. A
        /// service running without a cache replies with
        /// `enabled: false` and zeroed counters.
        CacheStatsReply = "cache-stats-reply" {
            /// Correlation id of the request.
            seq: u64,
            /// The cache counters snapshot.
            stats: CacheStats,
        },
        /// Client → server: fetch one job's trace spans as
        /// Chrome-`trace_event` JSON. Valid (and partial) while the job
        /// still runs; `unknown-job` for ids never dispatched or whose
        /// trace has been evicted.
        TraceRequest = "trace-request" {
            /// Correlation id.
            seq: u64,
            /// The job whose trace to fetch.
            job_id: u64,
        },
        /// Server → client: reply to [`Message::TraceRequest`]. The frame
        /// *body* carries the Chrome-`trace_event` JSON bytes, so a large
        /// trace never inflates the header.
        TraceReply = "trace-reply" {
            /// Correlation id of the request.
            seq: u64,
            /// The traced job.
            job_id: u64,
        },
        /// Client → server (v2): grant the server permission to send
        /// `chunks` more [`Message::OutputChunk`] frames on this
        /// connection. Connection-scoped (no `seq`): the window is shared
        /// by every `wait` stream the connection has open. A v2
        /// connection's window opens at zero, so the first grant — sent by
        /// the pipelined client right after its hello — *advertises* the
        /// client's receive window.
        Credit = "credit" {
            /// How many more output chunks the server may send.
            chunks: u64,
        },
        /// Client → server (v2): list the jobs the server currently knows
        /// (its live registry, newest first).
        ListJobs = "list-jobs" {
            /// Correlation id.
            seq: u64,
        },
        /// Server → client: reply to [`Message::ListJobs`].
        JobList = "job-list" {
            /// Correlation id of the request.
            seq: u64,
            /// One row per registered job, newest first.
            jobs: Vec<WireJobSummary>,
        },
        /// Client → server (v2): resolve a job by its dataset name, so a
        /// reconnecting client can resume waiting on running work without
        /// holding the original job id. The returned id feeds an ordinary
        /// [`Message::Wait`].
        Attach = "attach" {
            /// Correlation id.
            seq: u64,
            /// The dataset name the job was submitted under.
            name: String,
        },
        /// Server → client: reply to [`Message::Attach`].
        Attached = "attached" {
            /// Correlation id of the request.
            seq: u64,
            /// The resolved job id.
            job_id: u64,
            /// The job's lifecycle state at attach time.
            status: WireJobStatus,
        },
        /// Server → client: a typed error. `seq` echoes the offending
        /// request when attributable, else 0.
        Error = "error" {
            /// Correlation id of the offending request, or 0.
            seq: u64,
            /// What went wrong, as a machine-readable code.
            code: ErrorCode,
            /// Human-readable detail.
            message: String,
        },
    }
}

impl Message {
    /// The message's correlation id (0 for the hello pair and the
    /// connection-scoped `credit` grant, which have none).
    pub fn seq(&self) -> u64 {
        match self {
            Message::Hello { .. } | Message::ServerHello { .. } | Message::Credit { .. } => 0,
            Message::SubmitJob { seq, .. }
            | Message::JobAccepted { seq, .. }
            | Message::Status { seq, .. }
            | Message::JobStatus { seq, .. }
            | Message::Wait { seq, .. }
            | Message::JobEvent { seq, .. }
            | Message::OutputChunk { seq, .. }
            | Message::JobDone { seq, .. }
            | Message::Cancel { seq, .. }
            | Message::CancelOk { seq, .. }
            | Message::Report { seq }
            | Message::ReportReply { seq, .. }
            | Message::MetricsRequest { seq }
            | Message::MetricsReply { seq, .. }
            | Message::CacheStatsRequest { seq }
            | Message::CacheStatsReply { seq, .. }
            | Message::TraceRequest { seq, .. }
            | Message::TraceReply { seq, .. }
            | Message::ListJobs { seq }
            | Message::JobList { seq, .. }
            | Message::Attach { seq, .. }
            | Message::Attached { seq, .. }
            | Message::Error { seq, .. } => *seq,
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure.
    Io(io::Error),
    /// Declared header length exceeds [`MAX_HEADER_LEN`].
    HeaderOversize(usize),
    /// Declared body length exceeds [`MAX_BODY_LEN`].
    BodyOversize(usize),
    /// The stream ended mid-frame.
    Truncated,
    /// The header bytes were not valid JSON. The frame's *lengths* were
    /// honored, so the stream stays aligned and the connection can
    /// continue.
    BadJson(String),
}

impl FrameError {
    /// Whether byte alignment is lost (the connection must close).
    /// [`FrameError::BadJson`] is non-fatal: the declared lengths were
    /// consumed exactly, so the next frame starts where expected.
    pub fn is_fatal(&self) -> bool {
        !matches!(self, FrameError::BadJson(_))
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io: {e}"),
            FrameError::HeaderOversize(n) => {
                write!(f, "frame header of {n} bytes exceeds the {MAX_HEADER_LEN} byte limit")
            }
            FrameError::BodyOversize(n) => {
                write!(f, "frame body of {n} bytes exceeds the {MAX_BODY_LEN} byte limit")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::BadJson(e) => write!(f, "frame header is not valid JSON: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// A frame as read off the wire: the parsed header [`Value`] plus the
/// raw body. Keeping the header as a `Value` (rather than a typed
/// [`Message`]) lets a server extract `seq` and `type` for error
/// attribution even when the typed decode fails.
#[derive(Debug)]
pub struct RawFrame {
    /// The parsed JSON header.
    pub header: Value,
    /// The raw body bytes (often empty).
    pub body: Vec<u8>,
    /// Total bytes the frame occupied on the wire (length prefix +
    /// header + body), for ingress accounting.
    pub wire_len: usize,
}

impl RawFrame {
    /// Reads one frame. `Ok(None)` is a clean end of stream (EOF at a
    /// frame boundary); EOF mid-frame is [`FrameError::Truncated`].
    pub fn read_from(r: &mut impl Read) -> std::result::Result<Option<RawFrame>, FrameError> {
        let mut len_buf = [0u8; 8];
        match read_exact_or_eof(r, &mut len_buf)? {
            ReadOutcome::Eof => return Ok(None),
            ReadOutcome::Full => {}
        }
        let header_len = u32::from_be_bytes(len_buf[0..4].try_into().unwrap()) as usize;
        let body_len = u32::from_be_bytes(len_buf[4..8].try_into().unwrap()) as usize;
        if header_len > MAX_HEADER_LEN {
            return Err(FrameError::HeaderOversize(header_len));
        }
        if body_len > MAX_BODY_LEN {
            return Err(FrameError::BodyOversize(body_len));
        }
        let header_bytes = read_len_prefixed(r, header_len)?;
        let body = read_len_prefixed(r, body_len)?;
        let text = std::str::from_utf8(&header_bytes)
            .map_err(|e| FrameError::BadJson(format!("header is not UTF-8: {e}")))?;
        match serde_json::parse_value(text) {
            Ok(header) => Ok(Some(RawFrame { header, body, wire_len: 8 + header_len + body_len })),
            Err(e) => Err(FrameError::BadJson(e.to_string())),
        }
    }

    /// The frame's correlation id, when its header carries one.
    pub fn seq(&self) -> u64 {
        match self.header.get("seq") {
            Some(Value::Int(i)) => u64::try_from(*i).unwrap_or(0),
            _ => 0,
        }
    }

    /// The frame's `"type"` tag, when its header carries one.
    pub fn msg_type(&self) -> Option<&str> {
        match self.header.get("type") {
            Some(Value::String(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Decodes the typed message.
    pub fn message(&self) -> std::result::Result<Message, DeError> {
        Message::deserialize(&self.header)
    }
}

enum ReadOutcome {
    Full,
    Eof,
}

/// Reads exactly `buf.len()` bytes, distinguishing EOF-before-anything
/// (clean close) from EOF mid-buffer (truncated frame).
fn read_exact_or_eof(
    r: &mut impl Read,
    buf: &mut [u8],
) -> std::result::Result<ReadOutcome, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 { Ok(ReadOutcome::Eof) } else { Err(FrameError::Truncated) }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(ReadOutcome::Full)
}

/// Reads exactly `len` bytes into a buffer that grows as bytes
/// actually arrive (≤ 256 KiB at a time) instead of allocating `len`
/// up front: the length fields are peer-controlled, and a peer that
/// declares a 256 MiB body it never sends must not pin 256 MiB of
/// zeroed heap on a blocked reader.
fn read_len_prefixed(r: &mut impl Read, len: usize) -> std::result::Result<Vec<u8>, FrameError> {
    const STEP: usize = 256 << 10;
    let mut buf = Vec::with_capacity(len.min(STEP));
    while buf.len() < len {
        let start = buf.len();
        let chunk = (len - start).min(STEP);
        buf.resize(start + chunk, 0);
        read_fully(r, &mut buf[start..])?;
    }
    Ok(buf)
}

fn read_fully(r: &mut impl Read, buf: &mut [u8]) -> std::result::Result<(), FrameError> {
    match read_exact_or_eof(r, buf)? {
        ReadOutcome::Full => Ok(()),
        ReadOutcome::Eof => {
            if buf.is_empty() {
                Ok(())
            } else {
                Err(FrameError::Truncated)
            }
        }
    }
}

/// A frame's length prefix and JSON header, for a body of `body_len`
/// bytes, checked against the frame limits. The buffer has room for
/// `reserve` more bytes.
fn frame_prefix(message: &Message, body_len: usize, reserve: usize) -> io::Result<Vec<u8>> {
    let header = serde_json::to_string(message)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if header.len() > MAX_HEADER_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame header too large"));
    }
    if body_len > MAX_BODY_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame body too large"));
    }
    let mut buf = Vec::with_capacity(8 + header.len() + reserve);
    buf.extend_from_slice(&(header.len() as u32).to_be_bytes());
    buf.extend_from_slice(&(body_len as u32).to_be_bytes());
    buf.extend_from_slice(header.as_bytes());
    Ok(buf)
}

/// Writes one frame (header lengths + JSON header + body) and flushes.
/// Returns the total bytes put on the wire, for egress accounting.
pub fn write_frame(w: &mut impl Write, message: &Message, body: &[u8]) -> io::Result<usize> {
    // Lengths + header go out as one small buffer; the body (which can
    // be hundreds of MiB of FASTQ) is written directly, never copied.
    let prefix = frame_prefix(message, body.len(), 0)?;
    w.write_all(&prefix)?;
    w.write_all(body)?;
    w.flush()?;
    Ok(prefix.len() + body.len())
}

/// Reads and decodes one typed message frame. `Ok(None)` is a clean end
/// of stream; a frame whose header decodes to no known [`Message`]
/// surfaces as [`FrameError::BadJson`]'s typed sibling, a
/// [`FrameError::BadJson`] with the decode detail.
pub fn read_message(
    r: &mut impl Read,
) -> std::result::Result<Option<(Message, Vec<u8>)>, FrameError> {
    match RawFrame::read_from(r)? {
        None => Ok(None),
        Some(raw) => match raw.message() {
            Ok(msg) => Ok(Some((msg, raw.body))),
            Err(e) => Err(FrameError::BadJson(e.to_string())),
        },
    }
}

/// Encodes one frame (length prefix + JSON header + body) into a byte
/// buffer, for write queues that cannot block on a socket. The result
/// is exactly what [`write_frame`] would have put on the wire.
pub fn encode_frame(message: &Message, body: &[u8]) -> io::Result<Vec<u8>> {
    let mut buf = frame_prefix(message, body.len(), body.len())?;
    buf.extend_from_slice(body);
    Ok(buf)
}

/// An incremental frame decoder for nonblocking streams: bytes go in
/// as they arrive off the socket, complete frames come out. The
/// decoder enforces the same limits as [`RawFrame::read_from`] and
/// reports the same error taxonomy — oversize declarations surface
/// *before* the payload arrives (so a hostile peer cannot make the
/// server buffer toward a 256 MiB lie), and a header that is not valid
/// JSON consumes exactly its declared length, leaving the stream
/// aligned ([`FrameError::BadJson`] is recoverable).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`, compacted once it outgrows the tail.
    start: usize,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read off the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded into a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    fn compact(&mut self) {
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 64 << 10) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Decodes the next complete frame, if the buffer holds one.
    /// `Ok(None)` means "need more bytes". Fatal errors (oversize)
    /// leave the decoder poisoned — the connection must close; a
    /// [`FrameError::BadJson`] consumes the malformed frame and the
    /// decoder stays usable.
    pub fn next_frame(&mut self) -> std::result::Result<Option<RawFrame>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 8 {
            return Ok(None);
        }
        let header_len = u32::from_be_bytes(avail[0..4].try_into().unwrap()) as usize;
        let body_len = u32::from_be_bytes(avail[4..8].try_into().unwrap()) as usize;
        if header_len > MAX_HEADER_LEN {
            return Err(FrameError::HeaderOversize(header_len));
        }
        if body_len > MAX_BODY_LEN {
            return Err(FrameError::BodyOversize(body_len));
        }
        let total = 8 + header_len + body_len;
        if avail.len() < total {
            return Ok(None);
        }
        let header_bytes = &avail[8..8 + header_len];
        let parsed = std::str::from_utf8(header_bytes)
            .map_err(|e| FrameError::BadJson(format!("header is not UTF-8: {e}")))
            .and_then(|text| {
                serde_json::parse_value(text).map_err(|e| FrameError::BadJson(e.to_string()))
            });
        match parsed {
            Ok(header) => {
                let body = avail[8 + header_len..total].to_vec();
                self.start += total;
                self.compact();
                Ok(Some(RawFrame { header, body, wire_len: total }))
            }
            Err(e) => {
                // The declared lengths were honored: skip the frame so
                // the stream stays aligned for the next one.
                self.start += total;
                self.compact();
                Err(e)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// What went wrong on the client side of a wire conversation.
#[derive(Debug)]
pub enum WireClientError {
    /// Transport failure.
    Io(io::Error),
    /// Framing failure (oversize, truncated, undecodable reply).
    Frame(FrameError),
    /// The server replied with a typed [`Message::Error`].
    Remote {
        /// The machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server replied with a message the client did not expect at
    /// this point in the conversation.
    Protocol(String),
}

impl std::fmt::Display for WireClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireClientError::Io(e) => write!(f, "wire io: {e}"),
            WireClientError::Frame(e) => write!(f, "wire frame: {e}"),
            WireClientError::Remote { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
            WireClientError::Protocol(what) => write!(f, "wire protocol: {what}"),
        }
    }
}

impl std::error::Error for WireClientError {}

impl From<io::Error> for WireClientError {
    fn from(e: io::Error) -> Self {
        WireClientError::Io(e)
    }
}

impl From<FrameError> for WireClientError {
    fn from(e: FrameError) -> Self {
        WireClientError::Frame(e)
    }
}

/// Client-side result alias.
pub type WireResult<T> = std::result::Result<T, WireClientError>;

/// A job submission as the client API sees it; [`WireClient::submit`]
/// turns it into a [`Message::SubmitJob`] frame (FASTQ bytes into the
/// body, manifest inline).
pub struct WireSubmit {
    /// Dataset name (unique among live jobs on the server).
    pub name: String,
    /// The submitting tenant.
    pub tenant: String,
    /// Executor dispatch priority.
    pub priority: Priority,
    /// The composed plan.
    pub plan: Plan,
    /// The input.
    pub input: SubmitInput,
    /// Records per AGD chunk (FASTQ inputs only).
    pub chunk_size: usize,
    /// `(contig, length)` reference metadata recorded at alignment.
    pub reference: Vec<(String, u64)>,
}

/// A job's input, as a client submits it, the service runs it and the
/// server's journal records it (`persona_server::JobInput`).
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitInput {
    /// Raw FASTQ bytes, shipped as the submit frame's (and the journal
    /// record's) body.
    Fastq(Vec<u8>),
    /// An existing AGD dataset in the server's shared store, named by
    /// its manifest.
    Dataset(Manifest),
}

/// A finished job as assembled from the server's `wait` stream:
/// reassembled output bytes plus the [`Message::JobDone`] statistics.
#[derive(Debug)]
pub struct WireOutcome {
    /// Terminal state.
    pub status: WireJobStatus,
    /// The failure message when `status == failed`.
    pub error: Option<String>,
    /// Reassembled SAM bytes (empty unless the plan exported SAM).
    pub sam: Vec<u8>,
    /// Reassembled BGZF BAM bytes (empty unless the plan exported BAM).
    pub bam: Vec<u8>,
    /// Manifest of the plan's final dataset state, when one exists.
    pub manifest: Option<Manifest>,
    /// Reads processed.
    pub reads: u64,
    /// Time queued before dispatch, seconds.
    pub queue_wait_s: f64,
    /// Wall-clock run time, seconds.
    pub elapsed_s: f64,
    /// Per-stage timings for exactly the stages that ran.
    pub stages: Vec<WireStageRow>,
    /// Lifecycle transitions streamed before completion.
    pub events: Vec<WireJobStatus>,
}

/// A client for the Persona wire protocol: one TCP connection, with
/// both a blocking request/reply surface and a pipelined one.
/// [`WireClient::connect`] performs the hello handshake at protocol
/// v2 and advertises a [`DEFAULT_CREDIT_WINDOW`]-chunk flow-control
/// window.
///
/// Every blocking method (`submit`, `status`, `wait`, …) is sugar for
/// its pipelined send half (`submit_pipelined`, …) followed by its
/// receive half (`take_submit`, …). The pipelined halves let many
/// requests ride the connection concurrently: send halves return the
/// `seq` they claimed, receive halves demultiplex interleaved reply
/// frames by `seq`, parking frames for other in-flight requests until
/// their own receive half runs.
///
/// ```no_run
/// use persona::plan::Plan;
/// use persona::wire::{SubmitInput, WireClient, WireSubmit};
/// use persona_dataflow::Priority;
///
/// let mut client = WireClient::connect("127.0.0.1:7117")?;
/// let job = client.submit(WireSubmit {
///     name: "sample-1".into(),
///     tenant: "lab-a".into(),
///     priority: Priority::Normal,
///     plan: Plan::full(),
///     input: SubmitInput::Fastq(std::fs::read("sample.fastq")?),
///     chunk_size: 5_000,
///     reference: vec![("chr1".into(), 248_956_422)],
/// })?;
/// let outcome = client.wait(job)?;
/// std::fs::write("sample.sam", &outcome.sam)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_seq: u64,
    /// Reply frames read off the socket for a `seq` other than the one
    /// currently being taken — the demultiplexing side of pipelining.
    parked: HashMap<u64, VecDeque<(Message, Vec<u8>)>>,
}

impl WireClient {
    /// Connects and performs the [`Message::Hello`] handshake at
    /// protocol v2, then advertises a [`DEFAULT_CREDIT_WINDOW`]-chunk
    /// flow-control window with a [`Message::Credit`] grant.
    pub fn connect(addr: impl ToSocketAddrs) -> WireResult<WireClient> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut client = WireClient { reader, writer, next_seq: 1, parked: HashMap::new() };
        write_frame(&mut client.writer, &Message::Hello { version: PROTOCOL_VERSION }, &[])?;
        match client.reply_for(0)? {
            (Message::ServerHello { version }, _) if version == PROTOCOL_VERSION => {
                let credit = Message::Credit { chunks: DEFAULT_CREDIT_WINDOW };
                write_frame(&mut client.writer, &credit, &[])?;
                Ok(client)
            }
            (Message::ServerHello { version }, _) => Err(WireClientError::Protocol(format!(
                "server speaks protocol version {version}, client speaks {PROTOCOL_VERSION}"
            ))),
            (other, _) => Err(WireClientError::Protocol(format!(
                "expected server-hello, got `{}`",
                other.type_name()
            ))),
        }
    }

    /// Submits a job; returns the server-assigned job id.
    pub fn submit(&mut self, submit: WireSubmit) -> WireResult<u64> {
        self.submit_pipelined(submit).and_then(|seq| self.take_submit(seq))
    }

    /// Send half of [`WireClient::submit`]: queues the frame and
    /// returns its `seq` without waiting for the reply.
    pub fn submit_pipelined(&mut self, submit: WireSubmit) -> WireResult<u64> {
        let (input, body) = match submit.input {
            SubmitInput::Fastq(bytes) => (WireInput::Fastq, bytes),
            SubmitInput::Dataset(manifest) => (WireInput::Dataset(manifest), Vec::new()),
        };
        let msg = |seq| Message::SubmitJob {
            seq,
            name: submit.name,
            tenant: submit.tenant,
            priority: submit.priority,
            plan: submit.plan,
            input,
            chunk_size: submit.chunk_size as u64,
            reference: submit.reference,
        };
        self.send(msg, &body)
    }

    /// Receive half of [`WireClient::submit`].
    pub fn take_submit(&mut self, seq: u64) -> WireResult<u64> {
        match self.reply_for(seq)? {
            (Message::JobAccepted { job_id, .. }, _) => Ok(job_id),
            (other, _) => Err(self.unexpected("job-accepted", other)),
        }
    }

    /// Polls a job's lifecycle state.
    pub fn status(&mut self, job_id: u64) -> WireResult<WireJobStatus> {
        self.status_pipelined(job_id).and_then(|seq| self.take_status(seq))
    }

    /// Send half of [`WireClient::status`].
    pub fn status_pipelined(&mut self, job_id: u64) -> WireResult<u64> {
        self.send(|seq| Message::Status { seq, job_id }, &[])
    }

    /// Receive half of [`WireClient::status`].
    pub fn take_status(&mut self, seq: u64) -> WireResult<WireJobStatus> {
        match self.reply_for(seq)? {
            (Message::JobStatus { status, .. }, _) => Ok(status),
            (other, _) => Err(self.unexpected("job-status", other)),
        }
    }

    /// Blocks until the job is terminal, consuming the streamed
    /// `job-event` / `output-chunk` / `job-done` reply sequence, and
    /// returns the reassembled outcome.
    pub fn wait(&mut self, job_id: u64) -> WireResult<WireOutcome> {
        self.wait_pipelined(job_id).and_then(|seq| self.take_wait(seq))
    }

    /// Send half of [`WireClient::wait`]: registers interest in the
    /// job's terminal stream and returns the `seq` the stream will
    /// arrive under. Several waits can ride the connection at once;
    /// their streams interleave and [`WireClient::take_wait`] separates
    /// them by `seq`.
    pub fn wait_pipelined(&mut self, job_id: u64) -> WireResult<u64> {
        self.send(|seq| Message::Wait { seq, job_id }, &[])
    }

    /// Receive half of [`WireClient::wait`].
    pub fn take_wait(&mut self, seq: u64) -> WireResult<WireOutcome> {
        let mut sam = Vec::new();
        let mut bam = Vec::new();
        // Next expected chunk index per stream: a duplicate, skipped or
        // reordered chunk would silently corrupt the reassembled bytes,
        // so any index mismatch fails the wait instead.
        let mut next_index = [0u64; 2];
        let mut events = Vec::new();
        loop {
            match self.reply_for(seq)? {
                (Message::JobEvent { status, .. }, _) => events.push(status),
                (Message::OutputChunk { stream, index, .. }, body) => {
                    let (buf, next) = match stream {
                        OutputStream::Sam => (&mut sam, &mut next_index[0]),
                        OutputStream::Bam => (&mut bam, &mut next_index[1]),
                    };
                    if index != *next {
                        return Err(WireClientError::Protocol(format!(
                            "output chunk {index} of `{}` arrived out of order (expected {})",
                            stream.as_str(),
                            *next
                        )));
                    }
                    *next += 1;
                    buf.extend_from_slice(&body);
                }
                (
                    Message::JobDone {
                        status,
                        error,
                        reads,
                        queue_wait_s,
                        elapsed_s,
                        stages,
                        manifest,
                        ..
                    },
                    _,
                ) => {
                    return Ok(WireOutcome {
                        status,
                        error,
                        sam,
                        bam,
                        manifest,
                        reads,
                        queue_wait_s,
                        elapsed_s,
                        stages,
                        events,
                    })
                }
                (other, _) => return Err(self.unexpected("wait stream", other)),
            }
        }
    }

    /// Requests cooperative cancellation of a job.
    pub fn cancel(&mut self, job_id: u64) -> WireResult<()> {
        self.cancel_pipelined(job_id).and_then(|seq| self.take_cancel(seq))
    }

    /// Send half of [`WireClient::cancel`].
    pub fn cancel_pipelined(&mut self, job_id: u64) -> WireResult<u64> {
        self.send(|seq| Message::Cancel { seq, job_id }, &[])
    }

    /// Receive half of [`WireClient::cancel`].
    pub fn take_cancel(&mut self, seq: u64) -> WireResult<()> {
        match self.reply_for(seq)? {
            (Message::CancelOk { .. }, _) => Ok(()),
            (other, _) => Err(self.unexpected("cancel-ok", other)),
        }
    }

    /// Lists the jobs the server currently tracks (v2 servers only).
    pub fn list_jobs(&mut self) -> WireResult<Vec<WireJobSummary>> {
        match self.request(|seq| Message::ListJobs { seq })? {
            (Message::JobList { jobs, .. }, _) => Ok(jobs),
            (other, _) => Err(self.unexpected("job-list", other)),
        }
    }

    /// Resolves a job by dataset name so a reconnecting client can
    /// resume waiting on running work (v2 servers only). Returns the
    /// job id and its current status; follow with
    /// [`WireClient::wait`] to stream the outcome.
    pub fn attach(&mut self, name: &str) -> WireResult<(u64, WireJobStatus)> {
        match self.request(|seq| Message::Attach { seq, name: name.into() })? {
            (Message::Attached { job_id, status, .. }, _) => Ok((job_id, status)),
            (other, _) => Err(self.unexpected("attached", other)),
        }
    }

    /// Fetches a service accounting snapshot.
    pub fn report(&mut self) -> WireResult<WireReport> {
        match self.request(|seq| Message::Report { seq })? {
            (Message::ReportReply { report, .. }, _) => Ok(report),
            (other, _) => Err(self.unexpected("report-reply", other)),
        }
    }

    /// Fetches a point-in-time snapshot of the server's metrics
    /// registry: every subsystem's counters, gauges and latency
    /// histograms.
    pub fn metrics(&mut self) -> WireResult<MetricsSnapshot> {
        match self.request(|seq| Message::MetricsRequest { seq })? {
            (Message::MetricsReply { metrics, .. }, _) => Ok(metrics),
            (other, _) => Err(self.unexpected("metrics-reply", other)),
        }
    }

    /// Fetches the server's result-cache counters. A server running
    /// without a cache replies `enabled: false` with zeroed counters.
    pub fn cache_stats(&mut self) -> WireResult<CacheStats> {
        match self.request(|seq| Message::CacheStatsRequest { seq })? {
            (Message::CacheStatsReply { stats, .. }, _) => Ok(stats),
            (other, _) => Err(self.unexpected("cache-stats-reply", other)),
        }
    }

    /// Fetches one job's trace spans as Chrome-`trace_event` JSON —
    /// partial but well-formed while the job still runs, complete once
    /// it finishes.
    pub fn trace(&mut self, job_id: u64) -> WireResult<String> {
        match self.request(|seq| Message::TraceRequest { seq, job_id })? {
            (Message::TraceReply { .. }, body) => String::from_utf8(body)
                .map_err(|e| WireClientError::Protocol(format!("trace body is not UTF-8: {e}"))),
            (other, _) => Err(self.unexpected("trace-reply", other)),
        }
    }

    /// Claims the next `seq`, writes the request `msg` builds for it
    /// with `body`, and returns the `seq` without waiting for a reply:
    /// the send half of every request.
    fn send(&mut self, msg: impl FnOnce(u64) -> Message, body: &[u8]) -> WireResult<u64> {
        let seq = self.next_seq;
        self.next_seq += 1;
        write_frame(&mut self.writer, &msg(seq), body)?;
        Ok(seq)
    }

    /// A one-shot request: [`WireClient::send`] without a body, then its
    /// one reply.
    fn request(&mut self, msg: impl FnOnce(u64) -> Message) -> WireResult<(Message, Vec<u8>)> {
        let seq = self.send(msg, &[])?;
        self.reply_for(seq)
    }

    /// Reads the next reply frame destined for `seq`, turning server
    /// `error` messages for that seq into [`WireClientError::Remote`]
    /// and EOF into a protocol error. Frames for other in-flight seqs
    /// are parked for their own receive halves; output chunks pulled
    /// off the socket replenish the flow-control window (v2) so a
    /// pipelined reader never deadlocks a shared window against a
    /// stream it has not started taking yet.
    fn reply_for(&mut self, seq: u64) -> WireResult<(Message, Vec<u8>)> {
        match self.recv_for(seq)? {
            (Message::Error { code, message, .. }, _) => {
                Err(WireClientError::Remote { code, message })
            }
            reply => Ok(reply),
        }
    }

    fn recv_for(&mut self, seq: u64) -> WireResult<(Message, Vec<u8>)> {
        if let Some(queue) = self.parked.get_mut(&seq) {
            if let Some(frame) = queue.pop_front() {
                if queue.is_empty() {
                    self.parked.remove(&seq);
                }
                return Ok(frame);
            }
        }
        loop {
            match read_message(&mut self.reader)? {
                None => {
                    return Err(WireClientError::Protocol("server closed the connection".into()))
                }
                Some((msg, body)) => {
                    if matches!(msg, Message::OutputChunk { .. }) {
                        write_frame(&mut self.writer, &Message::Credit { chunks: 1 }, &[])?;
                    }
                    let got = msg.seq();
                    if got == seq {
                        return Ok((msg, body));
                    }
                    self.parked.entry(got).or_default().push_back((msg, body));
                }
            }
        }
    }

    fn unexpected(&self, wanted: &str, got: Message) -> WireClientError {
        WireClientError::Protocol(format!("expected {wanted}, got `{}`", got.type_name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &Message, body: &[u8]) -> (Message, Vec<u8>) {
        let mut wire = Vec::new();
        write_frame(&mut wire, msg, body).unwrap();
        let (back, back_body) = read_message(&mut wire.as_slice()).unwrap().unwrap();
        (back, back_body)
    }

    #[test]
    fn every_message_variant_round_trips() {
        let manifest = Manifest::new("ds");
        let metrics = {
            let registry = persona_telemetry::MetricsRegistry::new();
            registry.counter("wire.bytes_in").add(42);
            registry.gauge("executor.queue_depth.normal").set(3);
            registry.histogram("executor.task_latency_ns").observe(1_000);
            registry.snapshot()
        };
        let messages = vec![
            Message::Hello { version: PROTOCOL_VERSION },
            Message::ServerHello { version: PROTOCOL_VERSION },
            Message::SubmitJob {
                seq: 1,
                name: "s".into(),
                tenant: "t".into(),
                priority: Priority::High,
                plan: Plan::full(),
                input: WireInput::Fastq,
                chunk_size: 5_000,
                reference: vec![("chr1".into(), 1_000)],
            },
            Message::SubmitJob {
                seq: 2,
                name: "s2".into(),
                tenant: "t".into(),
                priority: Priority::Low,
                plan: Plan::from_aligned(),
                input: WireInput::Dataset(manifest.clone()),
                chunk_size: 100,
                reference: vec![],
            },
            Message::JobAccepted { seq: 1, job_id: 7 },
            Message::Status { seq: 3, job_id: 7 },
            Message::JobStatus { seq: 3, job_id: 7, status: WireJobStatus::Running },
            Message::Wait { seq: 4, job_id: 7 },
            Message::JobEvent { seq: 4, job_id: 7, status: WireJobStatus::Completed },
            Message::OutputChunk {
                seq: 4,
                job_id: 7,
                stream: OutputStream::Sam,
                index: 2,
                last: true,
            },
            Message::JobDone {
                seq: 4,
                job_id: 7,
                status: WireJobStatus::Completed,
                error: None,
                reads: 400,
                queue_wait_s: 0.25,
                elapsed_s: 1.5,
                stages: vec![WireStageRow {
                    stage: "import".into(),
                    elapsed_s: 0.5,
                    busy_fraction: 0.9,
                }],
                manifest: Some(manifest),
            },
            Message::JobDone {
                seq: 5,
                job_id: 8,
                status: WireJobStatus::Failed,
                error: Some("boom".into()),
                reads: 0,
                queue_wait_s: 0.0,
                elapsed_s: 0.0,
                stages: vec![],
                manifest: None,
            },
            Message::Cancel { seq: 6, job_id: 7 },
            Message::CancelOk { seq: 6, job_id: 7 },
            Message::Report { seq: 7 },
            Message::ReportReply {
                seq: 7,
                report: WireReport {
                    elapsed_s: 12.5,
                    workers: 8,
                    tenants: vec![WireTenant {
                        tenant: "lab".into(),
                        weight: 2,
                        submitted: 3,
                        completed: 2,
                        failed: 0,
                        cancelled: 1,
                        queued: 0,
                        running: 0,
                        reads: 900,
                        reads_per_sec: 450.0,
                    }],
                },
            },
            Message::MetricsRequest { seq: 8 },
            Message::MetricsReply { seq: 8, metrics },
            Message::CacheStatsRequest { seq: 11 },
            Message::CacheStatsReply {
                seq: 11,
                stats: CacheStats {
                    enabled: true,
                    hits: 3,
                    misses: 2,
                    evictions: 1,
                    insertions: 5,
                    entries: 4,
                    pinned: 1,
                    capacity: 64,
                    reuse_saved_ns: 1_234_567,
                },
            },
            Message::TraceRequest { seq: 9, job_id: 7 },
            Message::TraceReply { seq: 9, job_id: 7 },
            Message::Credit { chunks: 16 },
            Message::ListJobs { seq: 12 },
            Message::JobList {
                seq: 12,
                jobs: vec![WireJobSummary {
                    job_id: 7,
                    name: "sample".into(),
                    tenant: "lab".into(),
                    status: WireJobStatus::Running,
                }],
            },
            Message::Attach { seq: 13, name: "sample".into() },
            Message::Attached { seq: 13, job_id: 7, status: WireJobStatus::Running },
            Message::Error { seq: 10, code: ErrorCode::InvalidPlan, message: "nope".into() },
        ];
        for msg in messages {
            let body: &[u8] = if matches!(
                msg,
                Message::OutputChunk { .. }
                    | Message::SubmitJob { input: WireInput::Fastq, .. }
                    | Message::TraceReply { .. }
            ) {
                b"PAYLOAD"
            } else {
                b""
            };
            let (back, back_body) = round_trip(&msg, body);
            assert_eq!(back, msg);
            assert_eq!(back_body, body);
        }
    }

    #[test]
    fn frames_carry_bodies_byte_exactly() {
        let body: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let msg = Message::OutputChunk {
            seq: 1,
            job_id: 1,
            stream: OutputStream::Bam,
            index: 0,
            last: false,
        };
        let (_, back) = round_trip(&msg, &body);
        assert_eq!(back, body);
    }

    #[test]
    fn clean_eof_is_none_and_mid_frame_eof_is_truncated() {
        let mut empty: &[u8] = &[];
        assert!(RawFrame::read_from(&mut empty).unwrap().is_none());

        let mut wire = Vec::new();
        write_frame(&mut wire, &Message::Report { seq: 1 }, &[]).unwrap();
        wire.truncate(wire.len() - 3);
        let err = RawFrame::read_from(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, FrameError::Truncated), "{err}");
        assert!(err.is_fatal());
    }

    #[test]
    fn oversize_lengths_are_fatal_frame_errors() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(&0u32.to_be_bytes());
        let err = RawFrame::read_from(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, FrameError::HeaderOversize(_)), "{err}");
        assert!(err.is_fatal());

        let mut wire = Vec::new();
        wire.extend_from_slice(&2u32.to_be_bytes());
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(b"{}");
        let err = RawFrame::read_from(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, FrameError::BodyOversize(_)), "{err}");
        assert!(err.is_fatal());
    }

    #[test]
    fn garbage_headers_are_nonfatal_and_leave_the_stream_aligned() {
        let mut wire = Vec::new();
        let garbage = b"this is not json";
        wire.extend_from_slice(&(garbage.len() as u32).to_be_bytes());
        wire.extend_from_slice(&0u32.to_be_bytes());
        wire.extend_from_slice(garbage);
        // A valid frame follows the garbage one.
        write_frame(&mut wire, &Message::Report { seq: 42 }, &[]).unwrap();

        let mut r = wire.as_slice();
        let err = RawFrame::read_from(&mut r).unwrap_err();
        assert!(matches!(err, FrameError::BadJson(_)), "{err}");
        assert!(!err.is_fatal());
        // The stream resyncs on the next frame.
        let next = RawFrame::read_from(&mut r).unwrap().unwrap();
        assert_eq!(next.message().unwrap(), Message::Report { seq: 42 });
    }

    #[test]
    fn raw_frames_expose_seq_and_type_even_when_typed_decode_fails() {
        let mut wire = Vec::new();
        let header = br#"{"type":"submit-job","seq":31,"bogus":true}"#;
        wire.extend_from_slice(&(header.len() as u32).to_be_bytes());
        wire.extend_from_slice(&0u32.to_be_bytes());
        wire.extend_from_slice(header);
        let raw = RawFrame::read_from(&mut wire.as_slice()).unwrap().unwrap();
        assert_eq!(raw.seq(), 31);
        assert_eq!(raw.msg_type(), Some("submit-job"));
        assert!(raw.message().is_err());
    }

    #[test]
    fn submitted_plans_revalidate_through_the_builder() {
        // A structurally fine submit whose plan is semantically invalid
        // must fail typed decode — the wire can never admit it.
        let header = r#"{"type":"submit-job","seq":1,"name":"x","tenant":"t",
            "priority":"normal","plan":{"input":"fastq","stages":["align"]},
            "input":{"kind":"fastq"},"chunk_size":100,"reference":[]}"#;
        let v = serde_json::parse_value(header).unwrap();
        let err = Message::deserialize(&v).unwrap_err();
        assert!(err.to_string().contains("invalid plan"), "{err}");
    }

    #[test]
    fn frame_decoder_reassembles_byte_dribbles() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Message::Report { seq: 5 }, &[]).unwrap();
        write_frame(
            &mut wire,
            &Message::OutputChunk {
                seq: 6,
                job_id: 1,
                stream: OutputStream::Sam,
                index: 0,
                last: true,
            },
            b"SAMSAM",
        )
        .unwrap();

        // Push the stream one byte at a time: frames must pop out
        // exactly at their boundaries, never early, never mangled.
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for b in &wire {
            dec.push(std::slice::from_ref(b));
            while let Some(frame) = dec.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].message().unwrap(), Message::Report { seq: 5 });
        assert_eq!(frames[1].body, b"SAMSAM");
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn frame_decoder_matches_blocking_reader_error_taxonomy() {
        // Oversize declarations are fatal before any payload arrives.
        let mut dec = FrameDecoder::new();
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(&0u32.to_be_bytes());
        dec.push(&wire);
        assert!(matches!(dec.next_frame(), Err(FrameError::HeaderOversize(_))));

        // Bad JSON consumes its declared length and the stream resyncs.
        let mut dec = FrameDecoder::new();
        let mut wire = Vec::new();
        let garbage = b"not json";
        wire.extend_from_slice(&(garbage.len() as u32).to_be_bytes());
        wire.extend_from_slice(&0u32.to_be_bytes());
        wire.extend_from_slice(garbage);
        write_frame(&mut wire, &Message::Report { seq: 9 }, &[]).unwrap();
        dec.push(&wire);
        let err = dec.next_frame().unwrap_err();
        assert!(matches!(err, FrameError::BadJson(_)), "{err}");
        assert!(!err.is_fatal());
        let next = dec.next_frame().unwrap().unwrap();
        assert_eq!(next.message().unwrap(), Message::Report { seq: 9 });
    }

    #[test]
    fn encode_frame_matches_write_frame_bytes() {
        let msg = Message::OutputChunk {
            seq: 3,
            job_id: 2,
            stream: OutputStream::Bam,
            index: 1,
            last: false,
        };
        let mut streamed = Vec::new();
        write_frame(&mut streamed, &msg, b"BODY").unwrap();
        assert_eq!(encode_frame(&msg, b"BODY").unwrap(), streamed);
    }

    #[test]
    fn wire_enums_parse_their_own_names() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        for st in WireJobStatus::ALL {
            assert_eq!(WireJobStatus::parse(st.as_str()), Some(st));
        }
        assert!(WireJobStatus::Completed.is_terminal());
        assert!(!WireJobStatus::Running.is_terminal());
        for p in [Priority::Low, Priority::Normal, Priority::High] {
            assert_eq!(parse_priority(priority_name(p)), Some(p));
        }
        for s in [OutputStream::Sam, OutputStream::Bam] {
            assert_eq!(OutputStream::parse(s.as_str()), Some(s));
        }
    }
}
