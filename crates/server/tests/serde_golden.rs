//! Golden JSON for every durable and network record: each `Message`
//! frame, a write-ahead log holding one record of every kind,
//! manifests with and without their defaulted fields, the cache
//! records, every plan preset and a metrics snapshot — plus the exact
//! text of the decode errors each record type produces.
//!
//! Every string below was captured from the hand-written codecs. A
//! failure here means bytes on the wire, in a WAL or in a dataset
//! changed, so old logs and datasets would no longer load the same
//! way, or that a decode error now reads differently.

use std::path::PathBuf;

use persona::plan::{DataState, Plan, Stage, PRESET_NAMES};
use persona::wire::{
    encode_frame, ErrorCode, Message, OutputStream, WireInput, WireJobStatus, WireJobSummary,
    WireReport, WireStageRow, WireTenant,
};
use persona_agd::manifest::{ChunkEntry, ColumnSpec, Manifest, RefContig, SortOrder};
use persona_cache::{CacheEntry, CacheKey, CacheStats, Digest};
use persona_compress::crc32::Crc32;
use persona_dataflow::Priority;
use persona_server::journal::{
    FsyncPolicy, Journal, JournalConfig, JournalRecord, RecordedInput, TerminalStatus,
};
use persona_telemetry::{MetricsRegistry, MetricsSnapshot};
use serde::{Deserialize, Serialize};

fn manifest() -> Manifest {
    let mut m = Manifest::new("sample");
    m.columns = vec![
        ColumnSpec { name: "bases".into(), codec: "gzip".into() },
        ColumnSpec { name: "results".into(), codec: "gzip".into() },
    ];
    m.records = vec![
        ChunkEntry { path: "sample-0".into(), first_record: 0, num_records: 100 },
        ChunkEntry { path: "sample-1".into(), first_record: 100, num_records: 20 },
    ];
    m.total_records = 120;
    m.sort_order = SortOrder::Coordinate;
    m.reference = vec![RefContig { name: "chr1".into(), length: 5000 }];
    m.row_groups = vec![vec!["bases".into()], vec!["results".into()]];
    m
}

fn cache_key() -> CacheKey {
    CacheKey::new(
        Digest::of_bytes(b"@r1\nACGT\n+\nIIII\n"),
        r#"{"input":"fastq","stages":["import"]}"#,
    )
}

fn cache_entry() -> CacheEntry {
    CacheEntry {
        manifest: Manifest::new("cached"),
        state: "aligned".into(),
        stages: 2,
        cost_ns: 42,
    }
}

fn cache_stats() -> CacheStats {
    CacheStats {
        enabled: true,
        hits: 1,
        misses: 2,
        evictions: 3,
        insertions: 4,
        entries: 5,
        pinned: 6,
        capacity: 7,
        reuse_saved_ns: 8,
    }
}

fn metrics() -> MetricsSnapshot {
    let registry = MetricsRegistry::new();
    registry.counter("wire.frames").add(3);
    registry.gauge("server.queued").set(-2);
    let h = registry.histogram("journal.append_ns");
    h.observe(5);
    h.observe(700);
    registry.snapshot()
}

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

fn error_text<T: Deserialize + std::fmt::Debug>(text: &str) -> String {
    serde_json::from_str::<T>(text).unwrap_err().to_string()
}

/// Every `Message` variant (submit and job-done twice each: both input
/// kinds, and a done with and without its optional fields).
fn messages() -> Vec<(Message, &'static [u8])> {
    let m = manifest();
    vec![
        (Message::Hello { version: 2 }, b""),
        (Message::ServerHello { version: 2 }, b""),
        (
            Message::SubmitJob {
                seq: 1,
                name: "sample-1".into(),
                tenant: "lab-a".into(),
                priority: Priority::High,
                plan: Plan::full(),
                input: WireInput::Fastq,
                chunk_size: 1000,
                reference: vec![("chr1".into(), 5000), ("chr2".into(), 7)],
            },
            b"@r1\nACGT\n+\nIIII\n",
        ),
        (
            Message::SubmitJob {
                seq: 2,
                name: "sample-2".into(),
                tenant: "lab-b".into(),
                priority: Priority::Low,
                plan: Plan::from_aligned(),
                input: WireInput::Dataset(m.clone()),
                chunk_size: 0,
                reference: Vec::new(),
            },
            b"",
        ),
        (Message::JobAccepted { seq: 1, job_id: 7 }, b""),
        (Message::Status { seq: 2, job_id: 7 }, b""),
        (Message::JobStatus { seq: 2, job_id: 7, status: WireJobStatus::Running }, b""),
        (Message::Wait { seq: 3, job_id: 7 }, b""),
        (Message::JobEvent { seq: 3, job_id: 7, status: WireJobStatus::Queued }, b""),
        (
            Message::OutputChunk {
                seq: 3,
                job_id: 7,
                stream: OutputStream::Bam,
                index: 4,
                last: true,
            },
            b"BAM\x01",
        ),
        (
            Message::JobDone {
                seq: 3,
                job_id: 7,
                status: WireJobStatus::Completed,
                error: None,
                reads: 120,
                queue_wait_s: 0.25,
                elapsed_s: 1.5,
                stages: vec![
                    WireStageRow { stage: "import".into(), elapsed_s: 0.5, busy_fraction: 0.75 },
                    WireStageRow { stage: "align".into(), elapsed_s: 1.0, busy_fraction: 1.0 },
                ],
                manifest: Some(m.clone()),
            },
            b"",
        ),
        (
            Message::JobDone {
                seq: 4,
                job_id: 8,
                status: WireJobStatus::Failed,
                error: Some("boom \"quoted\"\n".into()),
                reads: 0,
                queue_wait_s: 0.0,
                elapsed_s: 2.0,
                stages: Vec::new(),
                manifest: None,
            },
            b"",
        ),
        (Message::Cancel { seq: 4, job_id: 7 }, b""),
        (Message::CancelOk { seq: 4, job_id: 7 }, b""),
        (Message::Report { seq: 5 }, b""),
        (
            Message::ReportReply {
                seq: 5,
                report: WireReport {
                    elapsed_s: 12.5,
                    workers: 8,
                    tenants: vec![WireTenant {
                        tenant: "lab-a".into(),
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
            b"",
        ),
        (Message::MetricsRequest { seq: 6 }, b""),
        (Message::MetricsReply { seq: 6, metrics: metrics() }, b""),
        (Message::CacheStatsRequest { seq: 8 }, b""),
        (Message::CacheStatsReply { seq: 8, stats: cache_stats() }, b""),
        (Message::TraceRequest { seq: 7, job_id: 7 }, b""),
        (Message::TraceReply { seq: 7, job_id: 7 }, b"{\"traceEvents\":[]}"),
        (Message::Credit { chunks: 16 }, b""),
        (Message::ListJobs { seq: 11 }, b""),
        (
            Message::JobList {
                seq: 11,
                jobs: vec![WireJobSummary {
                    job_id: 7,
                    name: "sample-1".into(),
                    tenant: "lab-a".into(),
                    status: WireJobStatus::Cancelled,
                }],
            },
            b"",
        ),
        (Message::Attach { seq: 12, name: "sample-1".into() }, b""),
        (Message::Attached { seq: 12, job_id: 7, status: WireJobStatus::Completed }, b""),
        (
            Message::Error {
                seq: 9,
                code: ErrorCode::UnsupportedVersion,
                message: "server speaks protocol version 2, client sent 1".into(),
            },
            b"",
        ),
    ]
}

const FRAME_HEADERS: &[&str] = &[
    r#"{"type":"hello","version":2}"#,
    r#"{"type":"server-hello","version":2}"#,
    r#"{"type":"submit-job","seq":1,"name":"sample-1","tenant":"lab-a","priority":"high","plan":{"input":"fastq","stages":["import","align","sort","dupmark","export-sam"]},"input":{"kind":"fastq"},"chunk_size":1000,"reference":[{"name":"chr1","length":5000},{"name":"chr2","length":7}]}"#,
    r#"{"type":"submit-job","seq":2,"name":"sample-2","tenant":"lab-b","priority":"low","plan":{"input":"aligned","stages":["sort","dupmark","export-sam"]},"input":{"kind":"dataset","manifest":{"name":"sample","version":1,"columns":[{"name":"bases","codec":"gzip"},{"name":"results","codec":"gzip"}],"records":[{"path":"sample-0","first_record":0,"num_records":100},{"path":"sample-1","first_record":100,"num_records":20}],"total_records":120,"sort_order":"coordinate","reference":[{"name":"chr1","length":5000}],"row_groups":[["bases"],["results"]]}},"chunk_size":0,"reference":[]}"#,
    r#"{"type":"job-accepted","seq":1,"job_id":7}"#,
    r#"{"type":"status","seq":2,"job_id":7}"#,
    r#"{"type":"job-status","seq":2,"job_id":7,"status":"running"}"#,
    r#"{"type":"wait","seq":3,"job_id":7}"#,
    r#"{"type":"job-event","seq":3,"job_id":7,"status":"queued"}"#,
    r#"{"type":"output-chunk","seq":3,"job_id":7,"stream":"bam","index":4,"last":true}"#,
    r#"{"type":"job-done","seq":3,"job_id":7,"status":"completed","error":null,"reads":120,"queue_wait_s":0.25,"elapsed_s":1.5,"stages":[{"stage":"import","elapsed_s":0.5,"busy_fraction":0.75},{"stage":"align","elapsed_s":1.0,"busy_fraction":1.0}],"manifest":{"name":"sample","version":1,"columns":[{"name":"bases","codec":"gzip"},{"name":"results","codec":"gzip"}],"records":[{"path":"sample-0","first_record":0,"num_records":100},{"path":"sample-1","first_record":100,"num_records":20}],"total_records":120,"sort_order":"coordinate","reference":[{"name":"chr1","length":5000}],"row_groups":[["bases"],["results"]]}}"#,
    r#"{"type":"job-done","seq":4,"job_id":8,"status":"failed","error":"boom \"quoted\"\n","reads":0,"queue_wait_s":0.0,"elapsed_s":2.0,"stages":[],"manifest":null}"#,
    r#"{"type":"cancel","seq":4,"job_id":7}"#,
    r#"{"type":"cancel-ok","seq":4,"job_id":7}"#,
    r#"{"type":"report","seq":5}"#,
    r#"{"type":"report-reply","seq":5,"report":{"elapsed_s":12.5,"workers":8,"tenants":[{"tenant":"lab-a","weight":2,"submitted":3,"completed":2,"failed":0,"cancelled":1,"queued":0,"running":0,"reads":900,"reads_per_sec":450.0}]}}"#,
    r#"{"type":"metrics-request","seq":6}"#,
    r#"{"type":"metrics-reply","seq":6,"metrics":{"counters":{"wire.frames":3},"gauges":{"server.queued":-2},"histograms":{"journal.append_ns":{"count":2,"sum":705,"buckets":[[3,1],[10,1]]}}}}"#,
    r#"{"type":"cache-stats-request","seq":8}"#,
    r#"{"type":"cache-stats-reply","seq":8,"stats":{"enabled":true,"hits":1,"misses":2,"evictions":3,"insertions":4,"entries":5,"pinned":6,"capacity":7,"reuse_saved_ns":8}}"#,
    r#"{"type":"trace-request","seq":7,"job_id":7}"#,
    r#"{"type":"trace-reply","seq":7,"job_id":7}"#,
    r#"{"type":"credit","chunks":16}"#,
    r#"{"type":"list-jobs","seq":11}"#,
    r#"{"type":"job-list","seq":11,"jobs":[{"job_id":7,"name":"sample-1","tenant":"lab-a","status":"cancelled"}]}"#,
    r#"{"type":"attach","seq":12,"name":"sample-1"}"#,
    r#"{"type":"attached","seq":12,"job_id":7,"status":"completed"}"#,
    r#"{"type":"error","seq":9,"code":"unsupported-version","message":"server speaks protocol version 2, client sent 1"}"#,
];

#[test]
fn every_message_frame_is_pinned() {
    let messages = messages();
    assert_eq!(messages.len(), FRAME_HEADERS.len());
    for ((message, body), want) in messages.iter().zip(FRAME_HEADERS) {
        let frame = encode_frame(message, body).unwrap();
        let mut expected = Vec::new();
        expected.extend_from_slice(&(want.len() as u32).to_be_bytes());
        expected.extend_from_slice(&(body.len() as u32).to_be_bytes());
        expected.extend_from_slice(want.as_bytes());
        expected.extend_from_slice(body);
        assert_eq!(String::from_utf8_lossy(&frame[8..(8 + want.len()).min(frame.len())]), *want);
        assert_eq!(frame, expected, "{}", message.type_name());
        let decoded: Message = serde_json::from_str(want).unwrap();
        assert_eq!(&decoded, message);
    }
    // One frame per message type.
    let mut types: Vec<&str> = messages.iter().map(|(m, _)| m.type_name()).collect();
    types.dedup();
    assert_eq!(types.len(), 26);
}

/// Every complete one-line `{"type":…}` example in PROTOCOL.md decodes
/// to a `Message` and re-encodes to the same text.
#[test]
fn protocol_examples_round_trip_byte_for_byte() {
    let doc = include_str!("../../../docs/PROTOCOL.md");
    let mut checked = 0;
    for line in doc.lines().map(str::trim) {
        if !line.starts_with("{\"type\":") || serde_json::parse_value(line).is_err() {
            continue;
        }
        let message: Message = serde_json::from_str(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(json(&message), line);
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} one-line examples found");
}

/// A fresh `persona-serde-golden-<pid>-<tag>` directory, removed on
/// drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> TmpDir {
        let dir =
            std::env::temp_dir().join(format!("persona-serde-golden-{}-{tag}", std::process::id()));
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

fn wal_records() -> Vec<JournalRecord> {
    vec![
        JournalRecord::Submitted {
            job_id: 1,
            name: "job-1".into(),
            tenant: "prod".into(),
            priority: Priority::Normal,
            plan: Plan::full(),
            input: RecordedInput::Fastq(b"@r1\nACGT\n+\nIIII\n".to_vec()),
            chunk_size: 512,
            reference: vec![("chr1".into(), 1000), ("chrM".into(), 16)],
        },
        JournalRecord::Submitted {
            job_id: 2,
            name: "job-2".into(),
            tenant: "dev".into(),
            priority: Priority::High,
            plan: Plan::from_aligned(),
            input: RecordedInput::Dataset(Manifest::new("landed")),
            chunk_size: 0,
            reference: Vec::new(),
        },
        JournalRecord::Started { job_id: 1 },
        JournalRecord::StageCompleted {
            job_id: 1,
            stage: Stage::ExportSam,
            manifest: Manifest::new("job-1"),
        },
        JournalRecord::Finished {
            job_id: 1,
            name: "job-1".into(),
            tenant: "prod".into(),
            status: TerminalStatus::Completed,
            error: None,
            plan: Some(Plan::full()),
            manifest: Some(Manifest::new("job-1")),
        },
        JournalRecord::Finished {
            job_id: 2,
            name: "job-2".into(),
            tenant: "dev".into(),
            status: TerminalStatus::Failed,
            error: Some("store down".into()),
            plan: None,
            manifest: None,
        },
        JournalRecord::Dataset { name: "landed".into(), manifest: Manifest::new("landed") },
        JournalRecord::CacheInsert { key: cache_key(), entry: cache_entry() },
        JournalRecord::CacheEvict { key: cache_key() },
        JournalRecord::Checkpoint { next_id: 3 },
    ]
}

const WAL_HEADERS: &[&str] = &[
    r#"{"type":"submitted","job_id":1,"name":"job-1","tenant":"prod","priority":"normal","plan":{"input":"fastq","stages":["import","align","sort","dupmark","export-sam"]},"input":"fastq","chunk_size":512,"reference":[["chr1",1000],["chrM",16]]}"#,
    r#"{"type":"submitted","job_id":2,"name":"job-2","tenant":"dev","priority":"high","plan":{"input":"aligned","stages":["sort","dupmark","export-sam"]},"input":"dataset","manifest":{"name":"landed","version":1,"columns":[],"records":[],"total_records":0,"sort_order":"unsorted","reference":[],"row_groups":[]},"chunk_size":0,"reference":[]}"#,
    r#"{"type":"started","job_id":1}"#,
    r#"{"type":"stage-completed","job_id":1,"stage":"export-sam","manifest":{"name":"job-1","version":1,"columns":[],"records":[],"total_records":0,"sort_order":"unsorted","reference":[],"row_groups":[]}}"#,
    r#"{"type":"finished","job_id":1,"name":"job-1","tenant":"prod","status":"completed","error":null,"plan":{"input":"fastq","stages":["import","align","sort","dupmark","export-sam"]},"manifest":{"name":"job-1","version":1,"columns":[],"records":[],"total_records":0,"sort_order":"unsorted","reference":[],"row_groups":[]}}"#,
    r#"{"type":"finished","job_id":2,"name":"job-2","tenant":"dev","status":"failed","error":"store down","plan":null,"manifest":null}"#,
    r#"{"type":"dataset","name":"landed","manifest":{"name":"landed","version":1,"columns":[],"records":[],"total_records":0,"sort_order":"unsorted","reference":[],"row_groups":[]}}"#,
    r#"{"type":"cache-insert","key":{"input":"66f0b8f7abedd8ac23a852e38e0e84b0","prefix":"{\"input\":\"fastq\",\"stages\":[\"import\"]}"},"entry":{"manifest":{"name":"cached","version":1,"columns":[],"records":[],"total_records":0,"sort_order":"unsorted","reference":[],"row_groups":[]},"state":"aligned","stages":2,"cost_ns":42}}"#,
    r#"{"type":"cache-evict","key":{"input":"66f0b8f7abedd8ac23a852e38e0e84b0","prefix":"{\"input\":\"fastq\",\"stages\":[\"import\"]}"}}"#,
    r#"{"type":"checkpoint","next_id":3}"#,
];
const WAL_DIGEST: &str = "e41c2ddceb39357782d8972a7761fb48";

/// Splits a WAL file into (header text, body) per record, checking the
/// framing and every CRC on the way.
fn wal_frames(bytes: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let word = |i: usize| u32::from_be_bytes(bytes[at + i..at + i + 4].try_into().unwrap());
        let (header_len, body_len, crc) = (word(0) as usize, word(4) as usize, word(8));
        let header = &bytes[at + 12..at + 12 + header_len];
        let body = &bytes[at + 12 + header_len..at + 12 + header_len + body_len];
        let mut check = Crc32::new();
        check.update(header);
        check.update(body);
        assert_eq!(check.finish(), crc);
        out.push((String::from_utf8(header.to_vec()).unwrap(), body.to_vec()));
        at += 12 + header_len + body_len;
    }
    out
}

#[test]
fn wal_with_every_record_kind_is_pinned() {
    let tmp = TmpDir::new("every-kind");
    let path = tmp.wal();
    let config = JournalConfig { fsync: FsyncPolicy::Never, compact_threshold: 0 };
    let records = wal_records();
    {
        let mut journal = Journal::open(&path, config).unwrap();
        for record in &records {
            journal.append(record).unwrap();
        }
        journal.sync().unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    let frames = wal_frames(&bytes);
    let headers: Vec<&str> = frames.iter().map(|(h, _)| h.as_str()).collect();
    assert_eq!(headers, WAL_HEADERS);
    for ((_, body), record) in frames.iter().zip(&records) {
        let want: &[u8] = match record {
            JournalRecord::Submitted { input: RecordedInput::Fastq(bytes), .. } => bytes,
            _ => b"",
        };
        assert_eq!(body.as_slice(), want);
    }
    assert_eq!(Digest::of_bytes(&bytes).to_hex(), WAL_DIGEST);
    assert_eq!(Journal::read(&path).unwrap().records, records);
}

/// A record whose header does not decode ends the verified prefix:
/// replay keeps what came before it and nothing after.
#[test]
fn wal_records_that_do_not_decode_are_torn() {
    let good = r#"{"type":"checkpoint","next_id":5}"#;
    for bad in [
        r#"{"type":"checkpoint"}"#,
        r#"{"type":"checkpoint","next_id":"5"}"#,
        r#"{"type":"rewound","next_id":5}"#,
        r#"{"next_id":5}"#,
        r#"{"type":"started","job_id":null}"#,
        r#"{"type":"stage-completed","job_id":1,"stage":"frobnicate","manifest":{"name":"m","version":1,"columns":[],"records":[],"total_records":0}}"#,
        r#"{"type":"finished","job_id":1,"name":"j","tenant":"t","status":"vanished","error":null}"#,
        r#"{"type":"submitted","job_id":1,"name":"j","tenant":"t","priority":"urgent","plan":{"input":"fastq","stages":["import"]},"input":"fastq","chunk_size":1,"reference":[]}"#,
        r#"{"type":"submitted","job_id":1,"name":"j","tenant":"t","priority":"low","plan":{"input":"fastq","stages":["import"]},"input":"tape","chunk_size":1,"reference":[]}"#,
        r#"{"type":"submitted","job_id":1,"name":"j","tenant":"t","priority":"low","plan":{"input":"fastq","stages":["import"]},"input":"fastq","chunk_size":1,"reference":null}"#,
        r#"{"type":"submitted","job_id":1,"name":"j","tenant":"t","priority":"low","plan":{"input":"fastq","stages":["import"]},"input":"fastq","chunk_size":1,"reference":[["chr1"]]}"#,
        r#"{"type":"submitted","job_id":1,"name":"j","tenant":"t","priority":"low","plan":{"input":"fastq","stages":["import"]},"input":"dataset","chunk_size":1,"reference":[]}"#,
        r#"{"type":"cache-evict","key":{"input":"xyz","prefix":"{}"}}"#,
    ] {
        let tmp = TmpDir::new("torn");
        let path = tmp.wal();
        let mut bytes = Vec::new();
        for header in [good, bad, good] {
            let mut crc = Crc32::new();
            crc.update(header.as_bytes());
            bytes.extend_from_slice(&(header.len() as u32).to_be_bytes());
            bytes.extend_from_slice(&0u32.to_be_bytes());
            bytes.extend_from_slice(&crc.finish().to_be_bytes());
            bytes.extend_from_slice(header.as_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let replayed = Journal::read(&path).unwrap();
        assert_eq!(replayed.records, vec![JournalRecord::Checkpoint { next_id: 5 }], "{bad}");
        assert_eq!(replayed.good_len, (12 + good.len()) as u64, "{bad}");
    }
    // Unknown keys are ignored, a missing `reference` reads as empty
    // and a missing `error`, `plan` or `manifest` as none.
    let tmp = TmpDir::new("lenient");
    let path = tmp.wal();
    let mut bytes = Vec::new();
    for header in [
        r#"{"type":"checkpoint","next_id":5,"extra":[1,{"x":null}]}"#,
        r#"{"type":"submitted","job_id":1,"name":"j","tenant":"t","priority":"low","plan":{"input":"fastq","stages":["import"]},"input":"fastq","chunk_size":1}"#,
        r#"{"type":"finished","job_id":1,"name":"j","tenant":"t","status":"cancelled"}"#,
    ] {
        let mut crc = Crc32::new();
        crc.update(header.as_bytes());
        bytes.extend_from_slice(&(header.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&crc.finish().to_be_bytes());
        bytes.extend_from_slice(header.as_bytes());
    }
    std::fs::write(&path, &bytes).unwrap();
    let replayed = Journal::read(&path).unwrap();
    assert_eq!(
        replayed.records,
        vec![
            JournalRecord::Checkpoint { next_id: 5 },
            JournalRecord::Submitted {
                job_id: 1,
                name: "j".into(),
                tenant: "t".into(),
                priority: Priority::Low,
                plan: Plan::import_only(),
                input: RecordedInput::Fastq(Vec::new()),
                chunk_size: 1,
                reference: Vec::new(),
            },
            JournalRecord::Finished {
                job_id: 1,
                name: "j".into(),
                tenant: "t".into(),
                status: TerminalStatus::Cancelled,
                error: None,
                plan: None,
                manifest: None,
            },
        ]
    );
}

const MANIFEST_PRETTY: &str = r#"{
  "name": "sample",
  "version": 1,
  "columns": [
    {
      "name": "bases",
      "codec": "gzip"
    },
    {
      "name": "results",
      "codec": "gzip"
    }
  ],
  "records": [
    {
      "path": "sample-0",
      "first_record": 0,
      "num_records": 100
    },
    {
      "path": "sample-1",
      "first_record": 100,
      "num_records": 20
    }
  ],
  "total_records": 120,
  "sort_order": "coordinate",
  "reference": [
    {
      "name": "chr1",
      "length": 5000
    }
  ],
  "row_groups": [
    [
      "bases"
    ],
    [
      "results"
    ]
  ]
}"#;
const MANIFEST_COMPACT: &str = r#"{"name":"sample","version":1,"columns":[{"name":"bases","codec":"gzip"},{"name":"results","codec":"gzip"}],"records":[{"path":"sample-0","first_record":0,"num_records":100},{"path":"sample-1","first_record":100,"num_records":20}],"total_records":120,"sort_order":"coordinate","reference":[{"name":"chr1","length":5000}],"row_groups":[["bases"],["results"]]}"#;
const MANIFEST_DEFAULTS_COMPACT: &str = r#"{"name":"bare","version":1,"columns":[],"records":[],"total_records":0,"sort_order":"unsorted","reference":[],"row_groups":[]}"#;

#[test]
fn manifests_are_pinned_with_and_without_defaulted_fields() {
    let m = manifest();
    assert_eq!(m.to_json().unwrap(), MANIFEST_PRETTY);
    assert_eq!(json(&m), MANIFEST_COMPACT);
    assert_eq!(Manifest::from_json(MANIFEST_PRETTY).unwrap(), m);
    // `sort_order`, `reference` and `row_groups` are defaulted: absent
    // or null reads as the default, and the default encodes in full.
    let bare = r#"{"name":"bare","version":1,"columns":[],"records":[],"total_records":0}"#;
    let nulls = r#"{"name":"bare","version":1,"columns":[],"records":[],"total_records":0,"sort_order":null,"reference":null,"row_groups":null}"#;
    for text in [bare, nulls] {
        let parsed = Manifest::from_json(text).unwrap();
        assert_eq!(parsed, Manifest::new("bare"));
        assert_eq!(json(&parsed), MANIFEST_DEFAULTS_COMPACT);
    }
}

const CACHE_KEY: &str = r#"{"input":"66f0b8f7abedd8ac23a852e38e0e84b0","prefix":"{\"input\":\"fastq\",\"stages\":[\"import\"]}"}"#;
const CACHE_ENTRY: &str = r#"{"manifest":{"name":"cached","version":1,"columns":[],"records":[],"total_records":0,"sort_order":"unsorted","reference":[],"row_groups":[]},"state":"aligned","stages":2,"cost_ns":42}"#;
const CACHE_STATS: &str = r#"{"enabled":true,"hits":1,"misses":2,"evictions":3,"insertions":4,"entries":5,"pinned":6,"capacity":7,"reuse_saved_ns":8}"#;
const PRESETS: &[&str] = &[
    r#"{"input":"fastq","stages":["import","align","sort","dupmark","export-sam"]}"#,
    r#"{"input":"fastq","stages":["import"]}"#,
    r#"{"input":"fastq","stages":["import","align"]}"#,
    r#"{"input":"fastq","stages":["import","align","sort","export-sam"]}"#,
    r#"{"input":"aligned","stages":["sort","dupmark","export-sam"]}"#,
];
const METRICS: &str = r#"{"counters":{"wire.frames":3},"gauges":{"server.queued":-2},"histograms":{"journal.append_ns":{"count":2,"sum":705,"buckets":[[3,1],[10,1]]}}}"#;

#[test]
fn cache_records_plans_and_metrics_are_pinned() {
    assert_eq!(json(&cache_key()), CACHE_KEY);
    assert_eq!(json(&cache_entry()), CACHE_ENTRY);
    assert_eq!(json(&cache_stats()), CACHE_STATS);
    assert_eq!(serde_json::from_str::<CacheKey>(CACHE_KEY).unwrap(), cache_key());
    assert_eq!(serde_json::from_str::<CacheEntry>(CACHE_ENTRY).unwrap(), cache_entry());
    assert_eq!(serde_json::from_str::<CacheStats>(CACHE_STATS).unwrap(), cache_stats());
    let presets: Vec<String> =
        PRESET_NAMES.iter().map(|name| json(&Plan::preset(name).unwrap())).collect();
    assert_eq!(presets, PRESETS);
    for (name, text) in PRESET_NAMES.iter().zip(PRESETS) {
        assert_eq!(serde_json::from_str::<Plan>(text).unwrap(), Plan::preset(name).unwrap());
    }
    assert_eq!(json(&metrics()), METRICS);
    assert_eq!(serde_json::from_str::<MetricsSnapshot>(METRICS).unwrap(), metrics());
}

const ERROR_TEXTS: &[&str] = &[
    r#"json error: deserialize error: missing field `type`"#,
    r#"json error: deserialize error: field `type`: deserialize error: expected string, found Int(3)"#,
    r#"json error: deserialize error: unknown message type `frobnicate`"#,
    r#"json error: deserialize error: missing field `job_id`"#,
    r#"json error: deserialize error: field `seq`: deserialize error: expected integer, found String("1")"#,
    r#"json error: deserialize error: field `version`: deserialize error: -1 out of range for u32"#,
    r#"json error: deserialize error: field `status`: deserialize error: unknown job status `zombie`"#,
    r#"json error: deserialize error: field `stream`: deserialize error: unknown output stream `cram`"#,
    r#"json error: deserialize error: field `last`: deserialize error: expected bool, found Int(1)"#,
    r#"json error: deserialize error: field `code`: deserialize error: unknown error code `teapot`"#,
    r#"json error: deserialize error: field `elapsed_s`: deserialize error: expected number, found String("1")"#,
    r#"json error: deserialize error: field `error`: deserialize error: expected string, found Int(7)"#,
    r#"json error: deserialize error: missing field `priority`"#,
    r#"json error: deserialize error: field `priority`: deserialize error: expected string, found Int(1)"#,
    r#"json error: deserialize error: unknown priority `urgent`"#,
    r#"json error: deserialize error: missing field `plan`"#,
    r#"json error: deserialize error: field `plan`: deserialize error: missing field `input`"#,
    r#"json error: deserialize error: field `plan`: deserialize error: invalid plan: stage `align` needs a `encoded-agd` dataset but the plan starts from `fastq` and no earlier stage produces it"#,
    r#"json error: deserialize error: field `plan`: deserialize error: field `stages`: deserialize error: unknown stage `frobnicate`"#,
    r#"json error: deserialize error: field `plan`: deserialize error: field `input`: deserialize error: unknown dataset state `tape`"#,
    r#"json error: deserialize error: field `plan`: deserialize error: invalid plan: plan has no stages"#,
    r#"json error: deserialize error: field `plan`: deserialize error: missing field `input`"#,
    r#"json error: deserialize error: field `plan`: deserialize error: field `stages`: deserialize error: expected array, found String("import")"#,
    r#"json error: deserialize error: missing field `input`"#,
    r#"json error: deserialize error: field `input`: deserialize error: unknown input kind `tape`"#,
    r#"json error: deserialize error: field `input`: deserialize error: missing field `manifest`"#,
    r#"json error: deserialize error: field `input`: deserialize error: missing field `kind`"#,
    r#"json error: deserialize error: field `chunk_size`: deserialize error: -1 out of range for u64"#,
    r#"json error: deserialize error: missing field `chunk_size`"#,
    r#"json error: deserialize error: field `reference`: deserialize error: expected array, found Null"#,
    r#"json error: deserialize error: field `reference`: deserialize error: expected array, found Object([])"#,
    r#"json error: deserialize error: field `reference`: deserialize error: missing field `length`"#,
    r#"json error: deserialize error: field `reference`: deserialize error: missing field `name`"#,
    r#"json error: deserialize error: field `name`: deserialize error: expected string, found Array([String("x")])"#,
    r#"json error: deserialize error: unknown error code `teapot`"#,
    r#"json error: deserialize error: expected string, found Int(1)"#,
    r#"json error: deserialize error: unknown job status `zombie`"#,
    r#"json error: deserialize error: expected string, found Null"#,
    r#"json error: deserialize error: unknown output stream `cram`"#,
    r#"json error: deserialize error: expected string, found Array([])"#,
    r#"json error: deserialize error: unknown dataset state `tape`"#,
    r#"json error: deserialize error: expected string, found Object([])"#,
    r#"json error: deserialize error: unknown stage `frobnicate`"#,
    r#"json error: deserialize error: expected string, found Bool(true)"#,
    r#"json error: deserialize error: unknown sort_order `random`"#,
    r#"json error: deserialize error: expected string, found Int(2)"#,
    r#"json error: deserialize error: missing field `kind`"#,
    r#"json error: deserialize error: field `kind`: deserialize error: expected string, found Int(5)"#,
    r#"json error: deserialize error: unknown input kind `tape`"#,
    r#"json error: deserialize error: missing field `manifest`"#,
    r#"json error: deserialize error: field `manifest`: deserialize error: missing field `name`"#,
    r#"json error: deserialize error: missing field `kind`"#,
    r#"json error: deserialize error: missing field `busy_fraction`"#,
    r#"json error: deserialize error: field `elapsed_s`: deserialize error: expected number, found String("1")"#,
    r#"json error: deserialize error: missing field `weight`"#,
    r#"json error: deserialize error: field `weight`: deserialize error: -1 out of range for u32"#,
    r#"json error: deserialize error: field `reads_per_sec`: deserialize error: expected number, found String("fast")"#,
    r#"json error: deserialize error: missing field `tenants`"#,
    r#"json error: deserialize error: field `tenants`: deserialize error: expected array, found Object([])"#,
    r#"json error: deserialize error: missing field `status`"#,
    r#"json error: deserialize error: field `job_id`: deserialize error: expected integer, found String("1")"#,
    r#"json error: deserialize error: field `status`: deserialize error: unknown job status `zombie`"#,
    r#"json error: deserialize error: missing field `codec`"#,
    r#"json error: deserialize error: field `codec`: deserialize error: expected string, found Null"#,
    r#"json error: deserialize error: missing field `num_records`"#,
    r#"json error: deserialize error: field `num_records`: deserialize error: 4294967296 out of range for u32"#,
    r#"json error: deserialize error: field `path`: deserialize error: expected string, found Int(7)"#,
    r#"json error: deserialize error: missing field `name`"#,
    r#"json error: deserialize error: field `length`: deserialize error: expected integer, found Float(1.5)"#,
    r#"json error: deserialize error: missing field `total_records`"#,
    r#"json error: deserialize error: field `columns`: deserialize error: expected array, found Object([])"#,
    r#"json error: deserialize error: field `sort_order`: deserialize error: unknown sort_order `random`"#,
    r#"json error: deserialize error: field `row_groups`: deserialize error: expected string, found Int(1)"#,
    r#"json error: deserialize error: field `columns`: deserialize error: missing field `codec`"#,
    r#"json error: deserialize error: missing field `prefix`"#,
    r#"json error: deserialize error: field `input`: deserialize error: expected digest string, found Int(7)"#,
    r#"json error: deserialize error: field `input`: deserialize error: invalid digest `xyz`"#,
    r#"json error: deserialize error: missing field `cost_ns`"#,
    r#"json error: deserialize error: field `stages`: deserialize error: expected integer, found String("1")"#,
    r#"json error: deserialize error: missing field `hits`"#,
    r#"json error: deserialize error: field `enabled`: deserialize error: expected bool, found Int(1)"#,
    r#"json error: deserialize error: missing field `input`"#,
    r#"json error: deserialize error: invalid plan: stage `import` appears more than once in the plan"#,
    r#"json error: deserialize error: missing field `histograms`"#,
    r#"json error: deserialize error: counters.c: deserialize error: expected integer, found String("x")"#,
];

fn error_cases() -> Vec<String> {
    let submit = |field: &str| {
        let mut fields = vec![
            ("type", r#""submit-job""#.to_string()),
            ("seq", "1".into()),
            ("name", r#""x""#.into()),
            ("tenant", r#""t""#.into()),
            ("priority", r#""normal""#.into()),
            ("plan", r#"{"input":"fastq","stages":["import"]}"#.into()),
            ("input", r#"{"kind":"fastq"}"#.into()),
            ("chunk_size", "100".into()),
            ("reference", r#"[{"name":"chr1","length":5}]"#.into()),
        ];
        // `field` is `key=value` (replace) or `-key` (drop).
        if let Some(key) = field.strip_prefix('-') {
            fields.retain(|(k, _)| *k != key);
        } else if let Some((key, value)) = field.split_once('=') {
            fields.iter_mut().find(|(k, _)| *k == key).unwrap().1 = value.to_string();
        }
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    };
    vec![
        // Message: tag, fields, nested enums, the submit's irregular fields.
        error_text::<Message>("{}"),
        error_text::<Message>(r#"{"type":3}"#),
        error_text::<Message>(r#"{"type":"frobnicate","seq":1}"#),
        error_text::<Message>(r#"{"type":"status","seq":1}"#),
        error_text::<Message>(r#"{"type":"status","seq":"1","job_id":2}"#),
        error_text::<Message>(r#"{"type":"hello","version":-1}"#),
        error_text::<Message>(r#"{"type":"job-status","seq":1,"job_id":2,"status":"zombie"}"#),
        error_text::<Message>(
            r#"{"type":"output-chunk","seq":1,"job_id":2,"stream":"cram","index":0,"last":true}"#,
        ),
        error_text::<Message>(
            r#"{"type":"output-chunk","seq":1,"job_id":2,"stream":"sam","index":0,"last":1}"#,
        ),
        error_text::<Message>(r#"{"type":"error","seq":1,"code":"teapot","message":"m"}"#),
        error_text::<Message>(
            r#"{"type":"job-done","seq":1,"job_id":2,"status":"completed","reads":1,"queue_wait_s":0,"elapsed_s":"1","stages":[]}"#,
        ),
        error_text::<Message>(
            r#"{"type":"job-done","seq":1,"job_id":2,"status":"completed","error":7,"reads":1,"queue_wait_s":0,"elapsed_s":1,"stages":[]}"#,
        ),
        error_text::<Message>(&submit("-priority")),
        error_text::<Message>(&submit("priority=1")),
        error_text::<Message>(&submit("priority=\"urgent\"")),
        error_text::<Message>(&submit("-plan")),
        error_text::<Message>(&submit("plan=[]")),
        error_text::<Message>(&submit(r#"plan={"input":"fastq","stages":["align"]}"#)),
        error_text::<Message>(&submit(r#"plan={"input":"fastq","stages":["frobnicate"]}"#)),
        error_text::<Message>(&submit(r#"plan={"input":"tape","stages":["import"]}"#)),
        error_text::<Message>(&submit(r#"plan={"input":"fastq","stages":[]}"#)),
        error_text::<Message>(&submit(r#"plan={"stages":["import"]}"#)),
        error_text::<Message>(&submit(r#"plan={"input":"fastq","stages":"import"}"#)),
        error_text::<Message>(&submit("-input")),
        error_text::<Message>(&submit(r#"input={"kind":"tape"}"#)),
        error_text::<Message>(&submit(r#"input={"kind":"dataset"}"#)),
        error_text::<Message>(&submit(r#"input={}"#)),
        error_text::<Message>(&submit("chunk_size=-1")),
        error_text::<Message>(&submit("-chunk_size")),
        error_text::<Message>(&submit("reference=null")),
        error_text::<Message>(&submit("reference={}")),
        error_text::<Message>(&submit(r#"reference=[{"name":"chr1"}]"#)),
        error_text::<Message>(&submit(r#"reference=[["chr1",5]]"#)),
        error_text::<Message>(&submit(r#"name=["x"]"#)),
        // String enums.
        error_text::<ErrorCode>(r#""teapot""#),
        error_text::<ErrorCode>("1"),
        error_text::<WireJobStatus>(r#""zombie""#),
        error_text::<WireJobStatus>("null"),
        error_text::<OutputStream>(r#""cram""#),
        error_text::<OutputStream>("[]"),
        error_text::<DataState>(r#""tape""#),
        error_text::<DataState>("{}"),
        error_text::<Stage>(r#""frobnicate""#),
        error_text::<Stage>("true"),
        error_text::<SortOrder>(r#""random""#),
        error_text::<SortOrder>("2"),
        // Tagged input.
        error_text::<WireInput>("{}"),
        error_text::<WireInput>(r#"{"kind":5}"#),
        error_text::<WireInput>(r#"{"kind":"tape"}"#),
        error_text::<WireInput>(r#"{"kind":"dataset"}"#),
        error_text::<WireInput>(r#"{"kind":"dataset","manifest":[]}"#),
        error_text::<WireInput>(r#""fastq""#),
        // Records.
        error_text::<WireStageRow>(r#"{"stage":"sort","elapsed_s":1}"#),
        error_text::<WireStageRow>(r#"{"stage":"sort","elapsed_s":"1","busy_fraction":0.5}"#),
        error_text::<WireTenant>(r#"{"tenant":"t"}"#),
        error_text::<WireTenant>(
            r#"{"tenant":"t","weight":-1,"submitted":0,"completed":0,"failed":0,"cancelled":0,"queued":0,"running":0,"reads":0,"reads_per_sec":0}"#,
        ),
        error_text::<WireTenant>(
            r#"{"tenant":"t","weight":1,"submitted":0,"completed":0,"failed":0,"cancelled":0,"queued":0,"running":0,"reads":0,"reads_per_sec":"fast"}"#,
        ),
        error_text::<WireReport>(r#"{"elapsed_s":1,"workers":2}"#),
        error_text::<WireReport>(r#"{"elapsed_s":1,"workers":2,"tenants":{}}"#),
        error_text::<WireJobSummary>(r#"{"job_id":1,"name":"n","tenant":"t"}"#),
        error_text::<WireJobSummary>(r#"{"job_id":"1","name":"n","tenant":"t","status":"queued"}"#),
        error_text::<WireJobSummary>(r#"{"job_id":1,"name":"n","tenant":"t","status":"zombie"}"#),
        error_text::<ColumnSpec>(r#"{"name":"bases"}"#),
        error_text::<ColumnSpec>(r#"{"name":"bases","codec":null}"#),
        error_text::<ChunkEntry>(r#"{"path":"p","first_record":0}"#),
        error_text::<ChunkEntry>(r#"{"path":"p","first_record":0,"num_records":4294967296}"#),
        error_text::<ChunkEntry>(r#"{"path":7,"first_record":0,"num_records":1}"#),
        error_text::<RefContig>(r#"{"length":5}"#),
        error_text::<RefContig>(r#"{"name":"chr1","length":1.5}"#),
        error_text::<Manifest>(r#"{"name":"m","version":1,"columns":[],"records":[]}"#),
        error_text::<Manifest>(
            r#"{"name":"m","version":1,"columns":{},"records":[],"total_records":0}"#,
        ),
        error_text::<Manifest>(
            r#"{"name":"m","version":1,"columns":[],"records":[],"total_records":0,"sort_order":"random"}"#,
        ),
        error_text::<Manifest>(
            r#"{"name":"m","version":1,"columns":[],"records":[],"total_records":0,"row_groups":[[1]]}"#,
        ),
        error_text::<Manifest>(
            r#"{"name":"m","version":1,"columns":[{"name":"bases"}],"records":[],"total_records":0}"#,
        ),
        error_text::<CacheKey>(r#"{"input":"00000000000000000000000000000000"}"#),
        error_text::<CacheKey>(r#"{"input":7,"prefix":"{}"}"#),
        error_text::<CacheKey>(r#"{"input":"xyz","prefix":"{}"}"#),
        error_text::<CacheEntry>(
            r#"{"manifest":{"name":"m","version":1,"columns":[],"records":[],"total_records":0},"state":"aligned","stages":1}"#,
        ),
        error_text::<CacheEntry>(
            r#"{"manifest":{"name":"m","version":1,"columns":[],"records":[],"total_records":0},"state":"aligned","stages":"1","cost_ns":0}"#,
        ),
        error_text::<CacheStats>(r#"{"enabled":true}"#),
        error_text::<CacheStats>(
            r#"{"enabled":1,"hits":0,"misses":0,"evictions":0,"insertions":0,"entries":0,"pinned":0,"capacity":0,"reuse_saved_ns":0}"#,
        ),
        error_text::<Plan>(r#"{"stages":["import"]}"#),
        error_text::<Plan>(r#"{"input":"fastq","stages":["import","import"]}"#),
        error_text::<MetricsSnapshot>(r#"{"counters":{},"gauges":{}}"#),
        error_text::<MetricsSnapshot>(r#"{"counters":{"c":"x"},"gauges":{},"histograms":{}}"#),
    ]
}

#[test]
fn decode_error_texts_are_pinned() {
    let texts = error_cases();
    assert_eq!(texts.len(), ERROR_TEXTS.len());
    for (got, want) in texts.iter().zip(ERROR_TEXTS) {
        assert_eq!(got, want);
    }
}

/// Unknown keys are ignored everywhere (PROTOCOL.md §3).
#[test]
fn unknown_keys_are_ignored() {
    let extra =
        |text: &str| format!("{},\"zz-extra\":{{\"nested\":[1,null]}}}}", &text[..text.len() - 1]);
    for (message, _) in messages() {
        let text = json(&message);
        assert_eq!(serde_json::from_str::<Message>(&extra(&text)).unwrap(), message);
    }
    assert_eq!(Manifest::from_json(&extra(&json(&manifest()))).unwrap(), manifest());
    assert_eq!(
        serde_json::from_str::<CacheEntry>(&extra(&json(&cache_entry()))).unwrap(),
        cache_entry()
    );
    assert_eq!(serde_json::from_str::<CacheKey>(&extra(&json(&cache_key()))).unwrap(), cache_key());
    assert_eq!(
        serde_json::from_str::<CacheStats>(&extra(&json(&cache_stats()))).unwrap(),
        cache_stats()
    );
    assert_eq!(serde_json::from_str::<Plan>(&extra(&json(&Plan::full()))).unwrap(), Plan::full());
}
