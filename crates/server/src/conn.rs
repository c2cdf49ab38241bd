//! Per-connection protocol state machine for the event-driven wire
//! front end: an incremental frame decoder on the read side, a queued
//! writer with a byte cursor on the write side, and the protocol v2
//! handshake, request dispatch, and credit-windowed output streaming
//! in between. Everything here runs on the connection's event-loop
//! thread; the only cross-thread entry point is the job-completion
//! watcher, which posts a [`LoopCmd::JobDone`] back to the loop
//! instead of touching the connection directly.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Instant;

use persona::plan::{Plan, Stage};
use persona::wire::{
    encode_frame, ErrorCode, FrameDecoder, Message, OutputStream, RawFrame, WireInput,
    WireJobSummary, OUTPUT_CHUNK_LEN, PROTOCOL_VERSION,
};

use serde::field;

use crate::event_loop::{LoopCmd, LoopCtx};
use crate::job::{JobHandle, JobInput, JobOutcome, JobSpec};
use crate::wire::MAX_WAITERS_PER_CONN;

/// Stop pumping output chunks into the write queue once it holds this
/// many bytes; resume as the socket drains. Bounds per-connection
/// egress buffering to roughly two chunks even when the client's
/// credit window is larger.
const WRITE_HIGH_WATER: usize = 2 * OUTPUT_CHUNK_LEN;

/// Per readable event, read at most this much before yielding to other
/// connections; level-triggered polling re-delivers the readiness.
const MAX_READ_PER_TICK: usize = 4 << 20;

enum Phase {
    /// Nothing decodable has arrived yet; the first message must be a
    /// protocol v2 hello.
    AwaitingHello,
    /// Handshake done; serving requests.
    Ready,
}

/// One `wait` reply stream being emitted: terminal event already
/// queued, output chunks in flight, `job-done` still owed.
struct Export {
    seq: u64,
    job_id: u64,
    outcome: Arc<JobOutcome>,
    /// 0 = SAM, 1 = BAM, 2 = chunks finished.
    stream_idx: usize,
    /// Byte offset into the current stream.
    offset: usize,
}

/// One live connection's entire state.
pub(crate) struct Conn {
    stream: TcpStream,
    pub(crate) token: u64,
    decoder: FrameDecoder,
    write_queue: VecDeque<Vec<u8>>,
    /// Bytes of the queue's front buffer already written.
    write_cursor: usize,
    queued_bytes: usize,
    phase: Phase,
    /// Output-chunk credits remaining; opens at zero.
    credit: u64,
    /// Whether chunk pumping is currently paused on an empty window
    /// (`wire.backpressure_stalls` counts the pause *transitions*).
    stalled: bool,
    exports: Vec<Export>,
    /// Waits whose completion watcher has not reported back yet.
    pending_watchers: usize,
    /// Jobs this connection submitted that were live at its last
    /// submission, for cancel-on-disconnect.
    my_jobs: Vec<u64>,
    /// Error reply queued and draining; no further frames are
    /// processed and the connection closes once the queue empties.
    closing: bool,
    dead: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, token: u64) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            token,
            decoder: FrameDecoder::new(),
            write_queue: VecDeque::new(),
            write_cursor: 0,
            queued_bytes: 0,
            phase: Phase::AwaitingHello,
            credit: 0,
            stalled: false,
            exports: Vec::new(),
            pending_watchers: 0,
            my_jobs: Vec::new(),
            closing: false,
            dead: false,
        })
    }

    pub(crate) fn fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }

    /// Readiness interest for the poller: reading stops once the
    /// connection is draining its final error reply, writing is wanted
    /// exactly while queued bytes remain.
    pub(crate) fn interest(&self) -> (bool, bool) {
        (!self.closing && !self.dead, !self.write_queue.is_empty())
    }

    /// Socket readable: pull bytes into the decoder and run the frame
    /// loop, bounded per tick so one firehose connection cannot starve
    /// the loop.
    pub(crate) fn handle_readable(&mut self, cx: &LoopCtx<'_>) {
        let mut budget = MAX_READ_PER_TICK;
        let mut buf = [0u8; 64 << 10];
        while budget > 0 && !self.dead && !self.closing {
            match (&self.stream).read(&mut buf) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    cx.shared.metrics.bytes_in.add(n as u64);
                    self.decoder.push(&buf[..n]);
                    self.drain_frames(cx);
                    budget = budget.saturating_sub(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    fn drain_frames(&mut self, cx: &LoopCtx<'_>) {
        while !self.dead && !self.closing {
            match self.decoder.next_frame() {
                Ok(Some(raw)) => self.process_frame(cx, raw),
                Ok(None) => return,
                Err(e) if e.is_fatal() => {
                    // Byte alignment is lost: typed reply, then close
                    // once it drains.
                    self.enqueue_error(cx, 0, ErrorCode::BadFrame, e.to_string());
                    self.closing = true;
                }
                Err(e) => {
                    // Lengths were honored, the stream stays aligned:
                    // typed reply, keep serving.
                    self.enqueue_error(cx, 0, ErrorCode::BadMessage, e.to_string());
                }
            }
        }
    }

    fn process_frame(&mut self, cx: &LoopCtx<'_>, raw: RawFrame) {
        match self.phase {
            Phase::AwaitingHello => match raw.message() {
                Ok(Message::Hello { version }) if version == PROTOCOL_VERSION => {
                    self.enqueue(cx, &Message::ServerHello { version }, &[]);
                    self.phase = Phase::Ready;
                }
                Ok(Message::Hello { version }) => {
                    self.enqueue_error(
                        cx,
                        raw.seq(),
                        ErrorCode::UnsupportedVersion,
                        format!(
                            "server speaks protocol version {PROTOCOL_VERSION}, client sent {version}"
                        ),
                    );
                    self.closing = true;
                }
                Ok(other) => {
                    self.enqueue_error(
                        cx,
                        other.seq(),
                        ErrorCode::InvalidRequest,
                        format!("expected hello as the first message, got `{}`", other.type_name()),
                    );
                    self.closing = true;
                }
                Err(e) => {
                    self.enqueue_error(cx, raw.seq(), ErrorCode::BadMessage, e.to_string());
                }
            },
            Phase::Ready => {
                let decode_started = Instant::now();
                let decoded = raw.message();
                cx.shared.metrics.decode_ns.observe_duration(decode_started.elapsed());
                match decoded {
                    Ok(message) => self.handle_message(cx, message, raw.body),
                    Err(e) => {
                        // A submit whose decode failed at its plan (a bad
                        // shape, or failed re-validation) is an
                        // `invalid-plan`, not a generic decode failure.
                        let at_plan = raw.msg_type() == Some("submit-job")
                            && field::required::<Plan>(&raw.header, "plan").err().as_ref()
                                == Some(&e);
                        let code =
                            if at_plan { ErrorCode::InvalidPlan } else { ErrorCode::BadMessage };
                        self.enqueue_error(cx, raw.seq(), code, e.to_string());
                    }
                }
            }
        }
    }

    fn handle_message(&mut self, cx: &LoopCtx<'_>, message: Message, body: Vec<u8>) {
        let shared = cx.shared;
        match message {
            Message::SubmitJob {
                seq,
                name,
                tenant,
                priority,
                plan,
                input,
                chunk_size,
                reference,
            } => {
                let input = match input {
                    WireInput::Fastq => JobInput::Fastq(body),
                    WireInput::Dataset(manifest) => {
                        if !body.is_empty() {
                            self.enqueue_error(
                                cx,
                                seq,
                                ErrorCode::InvalidRequest,
                                "dataset submissions must have an empty frame body",
                            );
                            return;
                        }
                        if let Err(e) = manifest.validate() {
                            self.enqueue_error(
                                cx,
                                seq,
                                ErrorCode::InvalidRequest,
                                format!("manifest failed validation: {e}"),
                            );
                            return;
                        }
                        JobInput::Dataset(manifest)
                    }
                };
                let aligner =
                    if plan.contains(Stage::Align) { shared.config.aligner.clone() } else { None };
                let spec = JobSpec {
                    name,
                    tenant,
                    priority,
                    plan,
                    input,
                    chunk_size: chunk_size as usize,
                    aligner,
                    reference,
                };
                match shared.service.submit(spec) {
                    Ok(handle) => {
                        let job_id = handle.id();
                        // Only a live job can need cancelling at close.
                        self.my_jobs.retain(|id| {
                            shared.service.job(*id).is_some_and(|h| !h.status().is_terminal())
                        });
                        self.my_jobs.push(job_id);
                        self.enqueue(cx, &Message::JobAccepted { seq, job_id }, &[]);
                    }
                    Err(e) => {
                        let detail = e.to_string();
                        let code = if detail.contains("shut down") {
                            ErrorCode::Shutdown
                        } else {
                            ErrorCode::InvalidRequest
                        };
                        self.enqueue_error(cx, seq, code, detail);
                    }
                }
            }
            Message::Status { seq, job_id } => {
                if let Some(handle) = self.find_job(cx, seq, job_id) {
                    let status = handle.status();
                    self.enqueue(cx, &Message::JobStatus { seq, job_id, status }, &[]);
                }
            }
            Message::Wait { seq, job_id } => {
                let Some(handle) = self.find_job(cx, seq, job_id) else { return };
                // Bounded per connection so a wait-spamming client
                // cannot pile up reply streams.
                if self.pending_watchers + self.exports.len() >= MAX_WAITERS_PER_CONN {
                    self.enqueue_error(
                        cx,
                        seq,
                        ErrorCode::InvalidRequest,
                        format!("more than {MAX_WAITERS_PER_CONN} concurrent waits"),
                    );
                    return;
                }
                let status = handle.status();
                self.enqueue(cx, &Message::JobEvent { seq, job_id, status }, &[]);
                self.pending_watchers += 1;
                shared.metrics.in_flight_seqs.add(1);
                // The watcher fires on whatever thread finishes the job
                // (or right here if it already did) and posts back to
                // this connection's loop — the event-driven replacement
                // for the old thread-per-wait.
                let post = cx.handle.clone();
                let token = self.token;
                handle.on_done(move |outcome| {
                    post.post(LoopCmd::JobDone { token, seq, job_id, outcome });
                });
            }
            Message::Cancel { seq, job_id } => {
                if let Some(handle) = self.find_job(cx, seq, job_id) {
                    handle.cancel();
                    self.enqueue(cx, &Message::CancelOk { seq, job_id }, &[]);
                }
            }
            Message::Credit { chunks } => {
                // A connection-scoped window grant: open (or widen) the
                // output-chunk window and resume any stalled exports.
                self.credit = self.credit.saturating_add(chunks);
                if self.credit > 0 {
                    self.stalled = false;
                }
                self.pump_exports(cx);
            }
            Message::ListJobs { seq } => {
                let jobs: Vec<WireJobSummary> = shared
                    .service
                    .jobs()
                    .iter()
                    .map(|h| WireJobSummary {
                        job_id: h.id(),
                        name: h.name().to_string(),
                        tenant: h.tenant().to_string(),
                        status: h.status(),
                    })
                    .collect();
                self.enqueue(cx, &Message::JobList { seq, jobs }, &[]);
            }
            Message::Attach { seq, name } => {
                // Names are unique among *live* jobs but can recur
                // across finished ones; attach resolves to the newest.
                let found = shared
                    .service
                    .jobs()
                    .iter()
                    .rev()
                    .find(|h| h.name() == name)
                    .map(|h| (h.id(), h.status()));
                match found {
                    Some((job_id, status)) => {
                        self.enqueue(cx, &Message::Attached { seq, job_id, status }, &[]);
                    }
                    None => {
                        self.enqueue_error(
                            cx,
                            seq,
                            ErrorCode::UnknownJob,
                            format!("no job named `{name}`"),
                        );
                    }
                }
            }
            Message::Report { seq } => {
                let report = crate::wire::to_wire_report(&shared.service.report());
                self.enqueue(cx, &Message::ReportReply { seq, report }, &[]);
            }
            Message::MetricsRequest { seq } => {
                let metrics = shared.service.metrics();
                self.enqueue(cx, &Message::MetricsReply { seq, metrics }, &[]);
            }
            Message::CacheStatsRequest { seq } => {
                let stats = shared.service.cache_stats();
                self.enqueue(cx, &Message::CacheStatsReply { seq, stats }, &[]);
            }
            Message::TraceRequest { seq, job_id } => match shared.service.trace_json(job_id) {
                Some(json) => {
                    self.enqueue(cx, &Message::TraceReply { seq, job_id }, json.as_bytes());
                }
                None => {
                    self.enqueue_error(
                        cx,
                        seq,
                        ErrorCode::UnknownJob,
                        format!("no trace for job {job_id}"),
                    );
                }
            },
            Message::Hello { .. } => {
                self.enqueue_error(cx, 0, ErrorCode::InvalidRequest, "hello after the handshake");
            }
            other => {
                // Server→client message types are not requests.
                self.enqueue_error(
                    cx,
                    other.seq(),
                    ErrorCode::InvalidRequest,
                    format!("`{}` is not a client request", other.type_name()),
                );
            }
        }
    }

    /// The registered job `job_id`, or `None` with an `unknown-job`
    /// reply queued.
    fn find_job(&mut self, cx: &LoopCtx<'_>, seq: u64, job_id: u64) -> Option<JobHandle> {
        let handle = cx.shared.service.job(job_id);
        if handle.is_none() {
            self.enqueue_error(cx, seq, ErrorCode::UnknownJob, format!("no job {job_id}"));
        }
        handle
    }

    /// A completion watcher reported back: queue the terminal
    /// `job-event` and start streaming the export.
    pub(crate) fn job_done(
        &mut self,
        cx: &LoopCtx<'_>,
        seq: u64,
        job_id: u64,
        outcome: Arc<JobOutcome>,
    ) {
        if self.closing || self.dead {
            // The stream will never be taken; release the accounting.
            self.pending_watchers = self.pending_watchers.saturating_sub(1);
            cx.shared.metrics.in_flight_seqs.sub(1);
            return;
        }
        self.pending_watchers = self.pending_watchers.saturating_sub(1);
        let status = outcome.status();
        self.enqueue(cx, &Message::JobEvent { seq, job_id, status }, &[]);
        self.exports.push(Export { seq, job_id, outcome, stream_idx: 0, offset: 0 });
        self.pump_exports(cx);
    }

    /// Moves every export forward as far as credit and the write
    /// queue's high-water mark allow. Exports advance independently:
    /// one stream stalled on credit does not block a chunk-less
    /// `job-done` behind it.
    fn pump_exports(&mut self, cx: &LoopCtx<'_>) {
        let mut i = 0;
        while i < self.exports.len() {
            if self.queued_bytes >= WRITE_HIGH_WATER || self.closing || self.dead {
                return;
            }
            if self.step_export(cx, i) {
                let done = self.exports.remove(i);
                self.finish_export(cx, done);
                cx.shared.metrics.in_flight_seqs.sub(1);
            } else {
                i += 1;
            }
        }
    }

    /// Advances export `i`; returns `true` when its chunks are all
    /// queued and the `job-done` is owed.
    fn step_export(&mut self, cx: &LoopCtx<'_>, i: usize) -> bool {
        loop {
            if self.queued_bytes >= WRITE_HIGH_WATER {
                return false;
            }
            let (outcome, seq, job_id, mut stream_idx, mut offset) = {
                let ex = &self.exports[i];
                (ex.outcome.clone(), ex.seq, ex.job_id, ex.stream_idx, ex.offset)
            };
            let out = match outcome.output() {
                Some(out) => out,
                // Failed/cancelled jobs stream no chunks.
                None => return true,
            };
            let streams = [(OutputStream::Sam, &out.sam), (OutputStream::Bam, &out.bam)];
            while stream_idx < streams.len() && streams[stream_idx].1.is_empty() {
                stream_idx += 1;
            }
            if stream_idx >= streams.len() {
                return true;
            }
            if self.credit == 0 {
                if !self.stalled {
                    self.stalled = true;
                    cx.shared.metrics.backpressure_stalls.add(1);
                }
                self.exports[i].stream_idx = stream_idx;
                self.exports[i].offset = offset;
                return false;
            }
            let (stream, bytes) = streams[stream_idx];
            let end = (offset + OUTPUT_CHUNK_LEN).min(bytes.len());
            let msg = Message::OutputChunk {
                seq,
                job_id,
                stream,
                index: (offset / OUTPUT_CHUNK_LEN) as u64,
                last: end == bytes.len(),
            };
            self.enqueue(cx, &msg, &bytes[offset..end]);
            self.credit -= 1;
            offset = end;
            if offset == bytes.len() {
                stream_idx += 1;
                offset = 0;
            }
            self.exports[i].stream_idx = stream_idx;
            self.exports[i].offset = offset;
        }
    }

    /// Queues the terminal `job-done` for a fully streamed export.
    fn finish_export(&mut self, cx: &LoopCtx<'_>, ex: Export) {
        let status = ex.outcome.status();
        let done = match &*ex.outcome {
            JobOutcome::Completed(out) => {
                let stages = out
                    .report
                    .stage_rows()
                    .into_iter()
                    .map(|(stage, elapsed, busy_fraction)| persona::wire::WireStageRow {
                        stage: stage.to_string(),
                        elapsed_s: elapsed.as_secs_f64(),
                        busy_fraction,
                    })
                    .collect();
                Message::JobDone {
                    seq: ex.seq,
                    job_id: ex.job_id,
                    status,
                    error: None,
                    reads: out.reads,
                    queue_wait_s: out.queue_wait.as_secs_f64(),
                    elapsed_s: out.elapsed.as_secs_f64(),
                    stages,
                    manifest: out.manifest.clone(),
                }
            }
            failed_or_cancelled => Message::JobDone {
                seq: ex.seq,
                job_id: ex.job_id,
                status,
                error: match failed_or_cancelled {
                    JobOutcome::Failed(message) => Some(message.clone()),
                    _ => None,
                },
                reads: 0,
                queue_wait_s: 0.0,
                elapsed_s: 0.0,
                stages: Vec::new(),
                manifest: None,
            },
        };
        self.enqueue(cx, &done, &[]);
    }

    fn enqueue(&mut self, cx: &LoopCtx<'_>, message: &Message, body: &[u8]) {
        match encode_frame(message, body) {
            Ok(buf) => {
                self.queued_bytes += buf.len();
                cx.shared.metrics.pending_writes.add(buf.len() as i64);
                self.write_queue.push_back(buf);
            }
            // Unreachable for server-built frames (sizes are bounded
            // by construction); treat defensively as a dead peer.
            Err(_) => self.dead = true,
        }
    }

    fn enqueue_error(
        &mut self,
        cx: &LoopCtx<'_>,
        seq: u64,
        code: ErrorCode,
        message: impl Into<String>,
    ) {
        self.enqueue(cx, &Message::Error { seq, code, message: message.into() }, &[]);
    }

    /// Writes queued bytes until the socket blocks or the queue
    /// drains; resumes export pumping once below the high-water mark.
    pub(crate) fn try_flush(&mut self, cx: &LoopCtx<'_>) {
        while let Some(front) = self.write_queue.front() {
            let buf = &front[self.write_cursor..];
            match (&self.stream).write(buf) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.write_cursor += n;
                    self.queued_bytes -= n;
                    cx.shared.metrics.bytes_out.add(n as u64);
                    cx.shared.metrics.pending_writes.sub(n as i64);
                    if self.write_cursor == front.len() {
                        self.write_queue.pop_front();
                        self.write_cursor = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.write_queue.is_empty() && self.closing {
            self.dead = true;
        } else if self.queued_bytes < WRITE_HIGH_WATER && !self.exports.is_empty() {
            self.pump_exports(cx);
        }
    }

    /// Tears the connection down: cancel-on-disconnect for whatever it
    /// submitted and never saw finish, plus metric release for queued
    /// bytes and open reply streams. The socket closes when the
    /// [`Conn`] drops.
    pub(crate) fn close(&mut self, cx: &LoopCtx<'_>) {
        let shared = cx.shared;
        let mine = self.my_jobs.iter().filter_map(|id| shared.service.job(*id));
        mine.filter(|h| !h.status().is_terminal()).for_each(|h| h.cancel());
        shared.metrics.pending_writes.sub(self.queued_bytes as i64);
        self.queued_bytes = 0;
        self.write_queue.clear();
        let open_streams = self.pending_watchers + self.exports.len();
        if open_streams > 0 {
            shared.metrics.in_flight_seqs.sub(open_streams as i64);
        }
        self.pending_watchers = 0;
        self.exports.clear();
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.dead = true;
    }
}
