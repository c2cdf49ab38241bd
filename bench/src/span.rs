//! Bench-side spans: name, start, end, parent and a trace id shared by
//! the spans of one iteration. Spans are recorded around the calls the
//! benchmark makes into the program; they stay in memory and are
//! written as Chrome trace JSON when the traced run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use persona_telemetry::JobTrace;
use serde_json::Value;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub trace_id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Row in the trace viewer (0 = the benchmark's main thread).
    pub tid: u64,
    /// True when the span's duration was timed separately on the
    /// identical payload instead of observed in place (a codec call
    /// inside `ChunkData::encode` cannot be bracketed from outside).
    pub computed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Spans {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records an already-measured span (a client thread's job) and
    /// returns its id.
    pub fn record(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent further spans.
    pub fn scope<R>(
        &self,
        name: &str,
        trace_id: u64,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let id = self.record(Span {
            name: name.to_string(),
            trace_id,
            parent,
            start_ns,
            end_ns: start_ns,
            tid: 0,
            computed: false,
        });
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span recorder poisoned")[id].end_ns = end_ns;
        out
    }

    /// A child of `parent` lasting `dur_ns`, placed at the parent's
    /// start and marked *computed*.
    pub fn computed_child(&self, name: &str, parent: usize, dur_ns: u64) {
        let (trace_id, start_ns, tid) = {
            let spans = self.spans.lock().expect("span recorder poisoned");
            (spans[parent].trace_id, spans[parent].start_ns, spans[parent].tid)
        };
        self.record(Span {
            name: name.to_string(),
            trace_id,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + dur_ns,
            tid,
            computed: true,
        });
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover, summed over spans of the same name.
    pub fn self_ns_by_name(&self) -> BTreeMap<String, u64> {
        let spans = self.snapshot();
        let mut totals = BTreeMap::new();
        for (name, ns) in spans.iter().map(|s| &s.name).zip(self_times(&spans)) {
            *totals.entry(name.clone()).or_insert(0) += ns;
        }
        totals
    }
}

/// Self time of every span: duration minus the summed durations of its
/// direct children (children of one span do not overlap each other:
/// the replay is single-threaded), clamped at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_value(&mut out, &Value::String(s.to_string()));
    out
}

/// Compact JSON text of a value tree (the vendored `serde_json` only
/// prints types that implement its `Serialize`, which `Value` does not).
pub fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) if f.is_finite() => out.push_str(&format!("{f:?}")),
        Value::Float(_) => out.push_str("null"),
        Value::String(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, &Value::String(k.clone()));
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// Builds `trace_<workload>.json`: the bench-side spans plus the
/// program's own `JobTrace` events, on one time axis.
#[derive(Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    pub fn add_spans(&mut self, spans: &[Span]) {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            self.events.push(format!(
                "{{\"name\":{},\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{:?},\"dur\":{:?},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"id\":{id},\"parent\":{parent},\"computed\":{}}}}}",
                json_str(&s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.trace_id,
                s.tid,
                s.computed,
            ));
        }
    }

    /// Merges a program-side trace. `JobTrace` stamps events relative
    /// to its own creation, so `origin_ns` is the bench clock reading
    /// taken when the trace was created; `pid` is the iteration's trace
    /// id, which puts the program's spans beside the bench's.
    pub fn add_job_trace(&mut self, trace: &JobTrace, origin_ns: u64, pid: u64) {
        self.add_chrome_json(&trace.to_chrome_json(pid), origin_ns);
    }

    /// Merges an already-rendered Chrome trace (e.g. the service's
    /// `trace_json`), shifting its timestamps by `origin_ns`.
    pub fn add_chrome_json(&mut self, json: &str, origin_ns: u64) {
        let Ok(doc) = serde_json::parse_value(json.trim()) else { return };
        let Some(Value::Array(events)) = doc.get("traceEvents") else { return };
        for event in events {
            let Value::Object(fields) = event else { continue };
            let shifted = fields
                .iter()
                .map(|(k, v)| {
                    let v = match (k.as_str(), v) {
                        ("ts", Value::Float(ts)) => Value::Float(ts + origin_ns as f64 / 1e3),
                        ("ts", Value::Int(ts)) => Value::Float(*ts as f64 + origin_ns as f64 / 1e3),
                        _ => v.clone(),
                    };
                    (k.clone(), v)
                })
                .collect();
            let mut text = String::new();
            write_value(&mut text, &Value::Object(shifted));
            self.events.push(text);
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            self.events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: name.into(), trace_id: 1, parent, start_ns, end_ns, tid: 0, computed: false }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("encode", None, 0, 100),
            span("gzip", Some(0), 10, 40),
            span("gzip", Some(0), 50, 70),
            span("huffman", Some(1), 15, 25), // grandchild: charged to its parent only
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn self_time_never_goes_negative() {
        // A computed child can read longer than the parent it was
        // subtracted from (it was timed on another pass).
        let spans = vec![span("encode", None, 0, 10), span("gzip", Some(0), 0, 12)];
        assert_eq!(self_times(&spans), vec![0, 12]);
    }

    #[test]
    fn scopes_nest_and_computed_children_subtract() {
        let spans = Spans::default();
        spans.scope("outer", 7, None, |outer| {
            spans.scope("inner", 7, Some(outer), |_| std::hint::black_box(1 + 1));
            spans.computed_child("codec", outer, 5);
        });
        let all = spans.snapshot();
        assert_eq!(all.len(), 3);
        assert_eq!(all[1].parent, Some(0));
        assert!(all[2].computed && all[2].dur_ns() == 5 && all[2].trace_id == 7);
        let by_name = spans.self_ns_by_name();
        assert_eq!(by_name["codec"], 5);
        assert_eq!(by_name["outer"] + by_name["inner"] + 5, all[0].dur_ns());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_shifted_program_events() {
        let mut trace = ChromeTrace::default();
        trace.add_spans(&[span("fused \"plan\"", None, 1_000, 3_000)]);
        let job = JobTrace::real();
        job.stage_begin("align");
        job.stage_end("align");
        trace.add_job_trace(&job, 5_000_000, 9);
        let doc = serde_json::parse_value(trace.to_json().trim()).expect("valid JSON");
        let Some(Value::Array(events)) = doc.get("traceEvents") else { panic!("no events") };
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("dur"), Some(&Value::Float(2.0)));
        let Some(Value::Float(ts)) = events[1].get("ts") else { panic!("no ts") };
        assert!(*ts >= 5_000.0, "program events move onto the bench clock: {ts}");
        assert_eq!(events[1].get("pid"), Some(&Value::Int(9)));
    }
}
