//! Decode robustness for every durable and network record: take a
//! valid encoding of a manifest, a WAL record, a cache record or a wire
//! message and damage one key — drop it, null it, change its JSON type
//! or give an enum an unknown name. The decode never panics, and it
//! either fails with an error that names the damaged key or the key is
//! one whose absence the format allows. Unknown keys added anywhere
//! change nothing.

use persona::plan::{Plan, Stage};
use persona::wire::{
    ErrorCode, Message, OutputStream, WireInput, WireJobStatus, WireJobSummary, WireReport,
    WireStageRow, WireTenant,
};
use persona_agd::manifest::{ChunkEntry, ColumnSpec, Manifest, RefContig, SortOrder};
use persona_cache::{CacheEntry, CacheKey, CacheStats, Digest};
use persona_dataflow::Priority;
use persona_server::journal::{JobInput, JournalRecord, TerminalStatus};
use proptest::prelude::*;
use serde::{DeError, Deserialize, Serialize, Value};

fn manifest() -> Manifest {
    let mut m = Manifest::new("sample");
    m.columns = vec![ColumnSpec { name: "bases".into(), codec: "gzip".into() }];
    m.records = vec![ChunkEntry { path: "sample-0".into(), first_record: 0, num_records: 10 }];
    m.total_records = 10;
    m.sort_order = SortOrder::Coordinate;
    m.reference = vec![RefContig { name: "chr1".into(), length: 500 }];
    m.row_groups = vec![vec!["bases".into()]];
    m
}

fn cache_key() -> CacheKey {
    CacheKey::new(Digest::of_bytes(b"input"), r#"{"input":"fastq","stages":["import"]}"#)
}

fn cache_entry() -> CacheEntry {
    CacheEntry { manifest: manifest(), state: "aligned".into(), stages: 2, cost_ns: 42 }
}

/// What a sample decodes as.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Message,
    Journal,
    Manifest,
    CacheKey,
    CacheEntry,
    CacheStats,
}

/// Decodes `v` as `kind`, rendering the result for comparison.
fn decode(kind: Kind, v: &Value) -> Result<String, DeError> {
    fn show<T: Deserialize + std::fmt::Debug>(v: &Value) -> Result<String, DeError> {
        T::deserialize(v).map(|t| format!("{t:?}"))
    }
    match kind {
        Kind::Message => show::<Message>(v),
        Kind::Journal => show::<JournalRecord>(v),
        Kind::Manifest => show::<Manifest>(v),
        Kind::CacheKey => show::<CacheKey>(v),
        Kind::CacheEntry => show::<CacheEntry>(v),
        Kind::CacheStats => show::<CacheStats>(v),
    }
}

fn corpus() -> Vec<(Kind, Value)> {
    let messages = vec![
        Message::Hello { version: 2 },
        Message::SubmitJob {
            seq: 1,
            name: "s".into(),
            tenant: "t".into(),
            priority: Priority::High,
            plan: Plan::full(),
            input: WireInput::Fastq,
            chunk_size: 100,
            reference: vec![("chr1".into(), 500)],
        },
        Message::SubmitJob {
            seq: 2,
            name: "s".into(),
            tenant: "t".into(),
            priority: Priority::Low,
            plan: Plan::from_aligned(),
            input: WireInput::Dataset(manifest()),
            chunk_size: 0,
            reference: Vec::new(),
        },
        Message::OutputChunk { seq: 3, job_id: 7, stream: OutputStream::Sam, index: 0, last: true },
        Message::JobDone {
            seq: 3,
            job_id: 7,
            status: WireJobStatus::Failed,
            error: Some("boom".into()),
            reads: 10,
            queue_wait_s: 0.25,
            elapsed_s: 1.5,
            stages: vec![WireStageRow {
                stage: "align".into(),
                elapsed_s: 1.0,
                busy_fraction: 0.5,
            }],
            manifest: Some(manifest()),
        },
        Message::ReportReply {
            seq: 5,
            report: WireReport {
                elapsed_s: 1.0,
                workers: 2,
                tenants: vec![WireTenant {
                    tenant: "t".into(),
                    weight: 1,
                    submitted: 1,
                    completed: 1,
                    failed: 0,
                    cancelled: 0,
                    queued: 0,
                    running: 0,
                    reads: 10,
                    reads_per_sec: 5.0,
                }],
            },
        },
        Message::CacheStatsReply { seq: 8, stats: CacheStats::disabled() },
        Message::Credit { chunks: 16 },
        Message::JobList {
            seq: 11,
            jobs: vec![WireJobSummary {
                job_id: 7,
                name: "s".into(),
                tenant: "t".into(),
                status: WireJobStatus::Running,
            }],
        },
        Message::Attached { seq: 12, job_id: 7, status: WireJobStatus::Queued },
        Message::Error { seq: 9, code: ErrorCode::InvalidPlan, message: "m".into() },
    ];
    let records = vec![
        JournalRecord::Submitted {
            job_id: 1,
            name: "j".into(),
            tenant: "t".into(),
            priority: Priority::Normal,
            plan: Plan::full(),
            input: JobInput::Fastq(Vec::new()),
            chunk_size: 512,
            reference: vec![("chr1".into(), 1000)],
        },
        JournalRecord::Submitted {
            job_id: 2,
            name: "j".into(),
            tenant: "t".into(),
            priority: Priority::High,
            plan: Plan::from_aligned(),
            input: JobInput::Dataset(manifest()),
            chunk_size: 0,
            reference: Vec::new(),
        },
        JournalRecord::Started { job_id: 1 },
        JournalRecord::StageCompleted { job_id: 1, stage: Stage::Sort, manifest: manifest() },
        JournalRecord::Finished {
            job_id: 1,
            name: "j".into(),
            tenant: "t".into(),
            status: TerminalStatus::Failed,
            error: Some("boom".into()),
            plan: None,
            manifest: None,
        },
        JournalRecord::Dataset { name: "d".into(), manifest: manifest() },
        JournalRecord::CacheInsert { key: cache_key(), entry: cache_entry() },
        JournalRecord::CacheEvict { key: cache_key() },
        JournalRecord::Checkpoint { next_id: 3 },
    ];
    let mut out: Vec<(Kind, Value)> =
        messages.iter().map(|m| (Kind::Message, m.serialize())).collect();
    out.extend(records.iter().map(|r| (Kind::Journal, r.serialize())));
    out.push((Kind::Manifest, manifest().serialize()));
    out.push((Kind::CacheKey, cache_key().serialize()));
    out.push((Kind::CacheEntry, cache_entry().serialize()));
    out.push((Kind::CacheStats, CacheStats::disabled().serialize()));
    out
}

/// One step from a value to a child: an object key or an array index.
#[derive(Clone, Debug)]
enum Step {
    Key(String),
    Index(usize),
}

/// A key of an object inside a sample: the object's path, the key, and
/// whether its value is a string.
type Slot = (Vec<Step>, String, bool);

/// Every keyed slot in `v`. The metrics snapshot's objects are rows
/// keyed by metric name, not fields, so they are not entered.
fn keyed_slots(v: &Value, path: &mut Vec<Step>, out: &mut Vec<Slot>) {
    match v {
        Value::Object(fields) => {
            for (key, child) in fields {
                out.push((path.clone(), key.clone(), matches!(child, Value::String(_))));
                if key != "metrics" {
                    path.push(Step::Key(key.clone()));
                    keyed_slots(child, path, out);
                    path.pop();
                }
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                path.push(Step::Index(i));
                keyed_slots(child, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

fn object_at<'v>(v: &'v mut Value, path: &[Step]) -> &'v mut Vec<(String, Value)> {
    let mut at = v;
    for step in path {
        at = match (at, step) {
            (Value::Object(fields), Step::Key(k)) => {
                &mut fields.iter_mut().find(|(name, _)| name == k).unwrap().1
            }
            (Value::Array(items), Step::Index(i)) => &mut items[*i],
            _ => unreachable!("paths come from keyed_slots"),
        };
    }
    match at {
        Value::Object(fields) => fields,
        _ => unreachable!("slots sit in objects"),
    }
}

/// Keys whose value is an enum's wire name somewhere in the corpus.
const ENUM_KEYS: &[&str] =
    &["type", "kind", "status", "stream", "code", "sort_order", "priority", "input", "stage"];

/// The same JSON value with a different type.
fn retyped(v: &Value) -> Value {
    match v {
        Value::String(_) => Value::Int(7),
        Value::Int(_) => Value::String("7".into()),
        Value::Float(_) | Value::Bool(_) => Value::String("x".into()),
        Value::Null => Value::Int(7),
        Value::Array(_) => Value::Object(Vec::new()),
        Value::Object(_) => Value::Array(Vec::new()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Damage one key of one valid encoding.
    #[test]
    fn damaged_keys_are_named_in_the_error(
        sample in 0usize..64,
        damage in 0u8..4,
        pick in any::<u64>(),
    ) {
        let corpus = corpus();
        let (kind, original) = corpus[sample % corpus.len()].clone();
        let mut slots = Vec::new();
        keyed_slots(&original, &mut Vec::new(), &mut slots);
        if damage == 3 {
            // Unknown enum names only make sense where a name sits.
            slots.retain(|(_, key, is_string)| *is_string && ENUM_KEYS.contains(&key.as_str()));
        }
        if slots.is_empty() {
            return Ok(());
        }
        let (path, key, _) = slots[(pick % slots.len() as u64) as usize].clone();
        let mut doc = original.clone();
        let fields = object_at(&mut doc, &path);
        let at = fields.iter().position(|(k, _)| *k == key).unwrap();
        match damage {
            0 => {
                fields.remove(at);
            }
            1 => fields[at].1 = Value::Null,
            2 => fields[at].1 = retyped(&fields[at].1),
            _ => fields[at].1 = Value::String("no-such-name".into()),
        }
        // Absent or null is the default for these; a job-done row's
        // `stage` is free text.
        let lenient = match damage {
            0 | 1 => ["sort_order", "reference", "row_groups", "error", "manifest", "plan"]
                .contains(&key.as_str()),
            3 => key == "stage" && matches!(path.as_slice(), [.., Step::Key(k), Step::Index(_)] if k == "stages"),
            _ => false,
        };
        match decode(kind, &doc) {
            Err(e) => prop_assert!(
                e.to_string().contains(key.as_str()),
                "{kind:?} with `{key}` damaged ({damage}): error does not name it: {e}"
            ),
            Ok(decoded) => prop_assert!(
                lenient,
                "{kind:?} with `{key}` damaged ({damage}) still decoded: {decoded}"
            ),
        }
    }

    /// Unknown keys, added to any object, are ignored.
    #[test]
    fn unknown_keys_change_nothing(sample in 0usize..64, pick in any::<u64>(), extra in any::<u32>()) {
        let corpus = corpus();
        let (kind, original) = corpus[sample % corpus.len()].clone();
        let mut slots = Vec::new();
        keyed_slots(&original, &mut Vec::new(), &mut slots);
        let (path, _, _) = slots[(pick % slots.len() as u64) as usize].clone();
        let mut doc = original.clone();
        object_at(&mut doc, &path).push((
            format!("zz-unknown-{extra}"),
            Value::Array(vec![Value::Int(i128::from(extra)), Value::Null]),
        ));
        prop_assert_eq!(decode(kind, &doc).unwrap(), decode(kind, &original).unwrap());
    }
}
