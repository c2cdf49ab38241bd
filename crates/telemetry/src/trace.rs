//! Per-job trace spans with a Chrome `trace_event` JSON dump.
//!
//! A [`JobTrace`] rides in a job's `JobContext`: the plan driver
//! records a begin/end span per stage, and align and the sort record
//! begin/end events per chunk, all timestamped against
//! the [`Clock`] trait — production jobs trace against [`RealClock`],
//! tests against `ManualClock`, which makes a traced run's dump fully
//! deterministic (same plan → byte-identical JSON).
//!
//! Events may be recorded concurrently from every stage thread, so the
//! in-memory order is racy; [`JobTrace::to_chrome_json`] canonicalizes
//! by sorting on `(timestamp, name, chunk, phase)` before pairing
//! begins with ends. Under a manual clock that sort key is fully
//! deterministic, which is what the byte-identical guarantee rests on.
//! Paired events emit as complete (`"ph":"X"`) slices; a mid-job dump
//! of a still-open span emits its begin (`"ph":"B"`) alone, so a live
//! trace fetched over the wire is still a valid timeline.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use persona_store::clock::{Clock, RealClock};

/// Whether an event opens, closes, or marks a point in a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TracePhase {
    /// Span opens.
    Begin,
    /// Span closes.
    End,
    /// A point event with no duration.
    Instant,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name: a stage name (`align`) or its chunk row
    /// (`align.chunk`).
    pub name: String,
    /// Chunk index, for per-chunk events.
    pub chunk: Option<u64>,
    /// Begin / end / instant.
    pub phase: TracePhase,
    /// Clock reading at record time.
    pub ts: Duration,
}

/// The span recorder one job carries through its whole plan run.
pub struct JobTrace {
    clock: Arc<dyn Clock>,
    events: Mutex<Vec<TraceEvent>>,
}

impl JobTrace {
    /// A trace timestamping against `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Arc<JobTrace> {
        Arc::new(JobTrace { clock, events: Mutex::new(Vec::new()) })
    }

    /// A trace on the real monotonic clock (the production path).
    pub fn real() -> Arc<JobTrace> {
        JobTrace::new(RealClock::new())
    }

    fn record(&self, name: &str, chunk: Option<u64>, phase: TracePhase) {
        let ts = self.clock.now();
        self.events.lock().push(TraceEvent { name: name.to_string(), chunk, phase, ts });
    }

    /// Opens the span for `stage`.
    pub fn stage_begin(&self, stage: &str) {
        self.record(stage, None, TracePhase::Begin);
    }

    /// Closes the span for `stage`.
    pub fn stage_end(&self, stage: &str) {
        self.record(stage, None, TracePhase::End);
    }

    /// Opens the span for one chunk of `stage` (recorded on the
    /// `{stage}.chunk` row).
    pub fn chunk_begin(&self, stage: &str, chunk: u64) {
        self.record(&format!("{stage}.chunk"), Some(chunk), TracePhase::Begin);
    }

    /// Closes the span for one chunk of `stage`.
    pub fn chunk_end(&self, stage: &str, chunk: u64) {
        self.record(&format!("{stage}.chunk"), Some(chunk), TracePhase::End);
    }

    /// Records a point event.
    pub fn instant(&self, name: &str) {
        self.record(name, None, TracePhase::Instant);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The events in canonical order (sorted by timestamp, name,
    /// chunk, phase — the same order the JSON dump uses).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut events = self.events.lock().clone();
        sort_canonical(&mut events);
        events
    }

    /// Dumps the trace as Chrome `trace_event` JSON (load via
    /// `chrome://tracing` or Perfetto). `pid` labels the process row —
    /// callers pass the job id. Completed spans emit as `"ph":"X"`
    /// complete events; spans still open at dump time emit their
    /// `"ph":"B"` begin, so dumping a running job yields a valid
    /// partial timeline. Output is byte-deterministic given the same
    /// recorded events.
    pub fn to_chrome_json(&self, pid: u64) -> String {
        let events = self.events();

        // Stable thread-row ids: one per distinct span name, in name
        // order (not racy insertion order).
        let mut names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        let tid_of = |name: &str| names.binary_search(&name).unwrap_or(0);

        // Pair begins with ends per (name, chunk), FIFO.
        let mut out: Vec<String> = Vec::new();
        let mut open: Vec<(&TraceEvent, bool)> = Vec::new(); // (begin, matched)
        for e in &events {
            match e.phase {
                TracePhase::Begin => open.push((e, false)),
                TracePhase::End => {
                    let begin = open
                        .iter_mut()
                        .find(|(b, matched)| !matched && b.name == e.name && b.chunk == e.chunk);
                    match begin {
                        Some(entry) => {
                            entry.1 = true;
                            let dur = e.ts.saturating_sub(entry.0.ts);
                            out.push(chrome_event("X", entry.0, pid, tid_of(&e.name), Some(dur)));
                        }
                        // An end with no begin still lands in the dump
                        // rather than being silently dropped.
                        None => out.push(chrome_event("E", e, pid, tid_of(&e.name), None)),
                    }
                }
                TracePhase::Instant => {
                    out.push(chrome_event("i", e, pid, tid_of(&e.name), None));
                }
            }
        }
        for (begin, matched) in open {
            if !matched {
                out.push(chrome_event("B", begin, pid, tid_of(&begin.name), None));
            }
        }
        format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n", out.join(","))
    }
}

/// Sorts events into the canonical dump order.
fn sort_canonical(events: &mut [TraceEvent]) {
    events
        .sort_by(|a, b| (a.ts, &a.name, a.chunk, a.phase).cmp(&(b.ts, &b.name, b.chunk, b.phase)));
}

/// Chrome `ts`/`dur` are microseconds; emitted as integer-or-fraction
/// decimal via `f64` Display, which is deterministic for equal inputs.
fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1_000.0
}

fn chrome_event(ph: &str, e: &TraceEvent, pid: u64, tid: usize, dur: Option<Duration>) -> String {
    let mut s = format!(
        "{{\"name\":\"{}\",\"cat\":\"persona\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":{pid},\"tid\":{tid}",
        escape(&e.name),
        us(e.ts),
    );
    if let Some(dur) = dur {
        s.push_str(&format!(",\"dur\":{}", us(dur)));
    }
    if ph == "i" {
        s.push_str(",\"s\":\"t\"");
    }
    if let Some(chunk) = e.chunk {
        s.push_str(&format!(",\"args\":{{\"chunk\":{chunk}}}"));
    }
    s.push('}');
    s
}

/// JSON string escaping for span names (the catalog uses plain ASCII,
/// but a hostile name must not corrupt the dump).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_store::clock::ManualClock;

    #[test]
    fn spans_pair_into_complete_events() {
        let clock = ManualClock::new();
        let trace = JobTrace::new(clock.clone());
        trace.stage_begin("import");
        clock.advance(Duration::from_micros(5));
        trace.stage_end("import");
        trace.stage_begin("align");
        clock.advance(Duration::from_micros(2));
        trace.chunk_begin("align", 0);
        clock.advance(Duration::from_micros(3));
        trace.chunk_end("align", 0);
        let json = trace.to_chrome_json(7);
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"name\":\"import\""));
        assert!(json.contains("\"dur\":5"));
        assert!(json.contains("\"args\":{\"chunk\":0}"));
        // The align stage span is still open: emitted as a begin.
        assert!(json.contains("\"ph\":\"B\""), "{json}");
        assert!(json.contains("\"pid\":7"));
    }

    #[test]
    fn dump_is_deterministic_under_manual_clock() {
        let run = || {
            let clock = ManualClock::new();
            let trace = JobTrace::new(clock.clone());
            trace.stage_begin("align");
            // Concurrent chunk workers: racy recording order.
            std::thread::scope(|s| {
                for c in 0..8u64 {
                    let trace = &trace;
                    s.spawn(move || {
                        trace.chunk_begin("align", c);
                        trace.chunk_end("align", c);
                    });
                }
            });
            clock.advance(Duration::from_millis(1));
            trace.stage_end("align");
            trace.to_chrome_json(1)
        };
        assert_eq!(run(), run(), "canonical sort must erase thread interleaving");
    }

    #[test]
    fn real_clock_trace_orders_by_time() {
        let trace = JobTrace::real();
        trace.stage_begin("sort");
        trace.stage_end("sort");
        let events = trace.events();
        assert_eq!(events.len(), 2);
        assert!(events[0].ts <= events[1].ts);
        assert_eq!(events[0].phase, TracePhase::Begin);
    }

    #[test]
    fn hostile_names_escape() {
        let trace = JobTrace::real();
        trace.instant("bad\"name\\\n");
        let json = trace.to_chrome_json(0);
        assert!(json.contains("bad\\\"name\\\\\\u000a"), "{json}");
    }
}
