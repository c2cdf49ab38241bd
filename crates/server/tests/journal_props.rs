//! Property tests for the write-ahead journal: whatever record mix is
//! written and wherever the file is cut, replay recovers exactly the
//! longest verified prefix — completed jobs stay completed, surviving
//! queued jobs keep their submission order, and the log stays
//! appendable after torn-tail truncation; and a compacted log replays
//! to exactly the mirror it was written from.

use std::path::PathBuf;

use persona::plan::{Plan, Stage};
use persona_agd::manifest::Manifest;
use persona_dataflow::Priority;
use persona_server::journal::{
    FsyncPolicy, JobInput, Journal, JournalConfig, JournalRecord, JournalState, TerminalStatus,
};
use persona_server::service::JOB_RETAIN;
use proptest::prelude::*;

fn tmp_dir(tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("persona-wal-props-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Decodes one generated op into a journal record. `ids` tracks the
/// job ids submitted so far so later ops can reference real jobs.
fn op_to_record(kind: u64, pick: usize, salt: u8, ids: &mut Vec<u64>) -> JournalRecord {
    let existing = |ids: &[u64]| ids.get(pick % ids.len().max(1)).copied().unwrap_or(404);
    match kind % 6 {
        0 => {
            let id = ids.len() as u64 + 1;
            ids.push(id);
            JournalRecord::Submitted {
                job_id: id,
                name: format!("job-{id}"),
                tenant: format!("tenant-{}", pick % 3),
                priority: Priority::Normal,
                plan: Plan::full(),
                input: if salt % 2 == 0 {
                    JobInput::Fastq(vec![salt; usize::from(salt) % 64])
                } else {
                    JobInput::Dataset(Manifest::new(&format!("job-{id}")))
                },
                chunk_size: 128,
                reference: vec![("chr1".into(), 1000 + u64::from(salt))],
            }
        }
        1 => JournalRecord::Started { job_id: existing(ids) },
        2 => JournalRecord::StageCompleted {
            job_id: existing(ids),
            stage: Stage::ALL[pick % Stage::ALL.len()],
            manifest: Manifest::new(&format!("landed-{salt}")),
        },
        3 => {
            let status = match salt % 3 {
                0 => TerminalStatus::Completed,
                1 => TerminalStatus::Failed,
                _ => TerminalStatus::Cancelled,
            };
            let id = existing(ids);
            let completed = status == TerminalStatus::Completed;
            JournalRecord::Finished {
                job_id: id,
                name: format!("job-{id}"),
                tenant: format!("tenant-{}", pick % 3),
                status,
                error: (status == TerminalStatus::Failed).then(|| format!("boom {salt}")),
                plan: completed.then(Plan::full),
                manifest: completed.then(|| Manifest::new(&format!("job-{id}.sorted"))),
            }
        }
        4 => JournalRecord::Dataset {
            name: format!("set-{}", pick % 4),
            manifest: Manifest::new(&format!("set-{salt}")),
        },
        _ => JournalRecord::Checkpoint { next_id: u64::from(salt) },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cut the log at an arbitrary byte offset: replay yields exactly
    /// the records whose frames lie whole inside the cut, the folded
    /// state matches folding that prefix directly (so no terminal job
    /// is ever resurrected as queued, and queued jobs survive in
    /// submission order), and the reopened log accepts appends.
    #[test]
    fn arbitrary_truncation_recovers_the_verified_prefix(
        ops in proptest::collection::vec((0u64..6, 0usize..8, 0u8..=255), 1..40),
        cut_permille in 0u32..=1000,
        tag in 0u64..1_000_000,
    ) {
        let dir = tmp_dir(tag);
        let wal = dir.join("full.wal");
        let _ = std::fs::remove_file(&wal);
        let mut ids = Vec::new();
        let records: Vec<JournalRecord> =
            ops.iter().map(|&(k, p, s)| op_to_record(k, p, s, &mut ids)).collect();
        {
            let mut journal = Journal::open(&wal, JournalConfig {
                fsync: FsyncPolicy::Never,
                compact_threshold: 0,
            }).unwrap();
            for record in &records {
                journal.append(record).unwrap();
            }
            journal.sync().unwrap();
        }
        let full = Journal::read(&wal).unwrap();
        prop_assert_eq!(&full.records, &records);
        let bytes = std::fs::read(&wal).unwrap();
        let cut = (bytes.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        let torn = dir.join("torn.wal");
        std::fs::write(&torn, &bytes[..cut]).unwrap();

        // Replay returns exactly the whole records inside the cut.
        let survivors = full
            .offsets
            .iter()
            .enumerate()
            .take_while(|&(i, &start)| {
                let end = full.offsets.get(i + 1).copied().unwrap_or(full.good_len);
                start < end && end <= cut as u64
            })
            .count();
        let replayed = Journal::read(&torn).unwrap();
        prop_assert_eq!(&replayed.records, &records[..survivors]);

        // The folded state is the prefix fold: terminal jobs stay
        // terminal, queued jobs survive in submission (= id) order,
        // datasets resolve to the last write inside the prefix.
        let mut expected = JournalState::default();
        for record in &records[..survivors] {
            expected.apply(record);
        }
        let state = replayed.state();
        let keyed = |s: &JournalState| {
            s.jobs()
                .map(|j| (j.id, j.terminal.clone(), j.spec.is_some(), j.stages.len()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(keyed(&state), keyed(&expected));
        let sets = |s: &JournalState| {
            s.datasets().map(|(n, m)| (n.to_string(), m.name.clone())).collect::<Vec<_>>()
        };
        prop_assert_eq!(sets(&state), sets(&expected));
        prop_assert_eq!(state.next_id(), expected.next_id());
        let queued = |s: &JournalState| {
            s.jobs().filter(|j| j.terminal.is_none()).map(|j| j.id).collect::<Vec<_>>()
        };
        let queued_ids = queued(&state);
        prop_assert_eq!(&queued_ids, &queued(&expected));
        prop_assert!(queued_ids.windows(2).all(|w| w[0] < w[1]));

        // Opening the torn log truncates the tail and stays appendable.
        {
            let mut journal = Journal::open(&torn, JournalConfig {
                fsync: FsyncPolicy::Never,
                compact_threshold: 0,
            }).unwrap();
            prop_assert_eq!(journal.len(), replayed.good_len);
            journal.append(&JournalRecord::Checkpoint { next_id: 777 }).unwrap();
            journal.sync().unwrap();
        }
        let reopened = Journal::read(&torn).unwrap();
        prop_assert_eq!(reopened.records.len(), survivors + 1);
        prop_assert_eq!(
            reopened.records.last().unwrap(),
            &JournalRecord::Checkpoint { next_id: 777 }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Compaction writes the journal's mirror as it is: for any record
    /// mix, with or without enough ended jobs in the middle to push
    /// earlier ones past `JOB_RETAIN`, the state replayed from the
    /// compacted log equals the mirror in every field of every job and
    /// in end order, and no ended job holds a spec or stage manifests.
    #[test]
    fn the_compacted_log_replays_to_the_mirror(
        ops in proptest::collection::vec((0u64..6, 0usize..8, 0u8..=255), 1..40),
        churn in any::<bool>(),
        tag in 0u64..1_000_000,
    ) {
        // Tags above the other property's range: their directories differ.
        let dir = tmp_dir(1_000_000 + tag);
        let wal = dir.join("compacted.wal");
        let _ = std::fs::remove_file(&wal);
        let mut ids = Vec::new();
        let (head, tail) = ops.split_at(ops.len() / 2);
        let mut records: Vec<JournalRecord> =
            head.iter().map(|&(k, p, s)| op_to_record(k, p, s, &mut ids)).collect();
        // Ended jobs with no `submitted` record, as a compacted log has.
        for _ in 0..if churn { JOB_RETAIN - 4 } else { 0 } {
            let id = ids.len() as u64 + 1;
            ids.push(id);
            records.push(JournalRecord::Finished {
                job_id: id,
                name: format!("job-{id}"),
                tenant: "churn".into(),
                status: TerminalStatus::Cancelled,
                error: None,
                plan: None,
                manifest: None,
            });
        }
        records.extend(tail.iter().map(|&(k, p, s)| op_to_record(k, p, s, &mut ids)));

        let mut journal = Journal::open(&wal, JournalConfig {
            fsync: FsyncPolicy::Never,
            compact_threshold: 0,
        }).unwrap();
        for record in &records {
            journal.append(record).unwrap();
        }
        let mirror = journal.state().clone();
        journal.compact().unwrap();
        drop(journal);
        let replayed = Journal::read(&wal).unwrap().state();
        prop_assert!(replayed.jobs().eq(mirror.jobs()), "a job differs after compaction");
        prop_assert!(replayed.ended().eq(mirror.ended()), "the end order differs");
        prop_assert!(replayed == mirror, "the catalog, cache or id watermark differs");
        prop_assert!(mirror.ended().count() <= JOB_RETAIN);
        for job in mirror.ended() {
            prop_assert!(job.spec.is_none() && job.stages.is_empty() && !job.started, "{}", job.id);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
