//! Failure matrix: one injected failure per fused group × stage
//! position. Whatever the position, the run must return (no stage
//! thread left parked on a queue), surface the injected root cause —
//! never the derived "my neighbour closed the stream" error it causes
//! next door, and for a store fault one on an object the failing stage
//! itself reads or writes — announce nothing from the failed group, and
//! report `Cancelled` instead once the job's token has fired.

mod common;

use std::io::{BufReader, Cursor, Read};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use common::{World, CHUNK};
use persona::config::PersonaConfig;
use persona::plan::{DataState, Plan, PlanRequest, PlanSource, Stage};
use persona::runtime::{JobContext, PersonaRuntime};
use persona::Error;
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::columns;
use persona_agd::manifest::Manifest;
use persona_agd::results::AlignmentResult;
use persona_align::Aligner;
use persona_dataflow::{CancelToken, Priority};

/// Called when an injection point is reached, just before it fails:
/// fires the job's cancel token in the "Cancelled wins" variant.
type Trip = Arc<dyn Fn() + Send + Sync>;

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Get,
    Put,
}

/// A store object as `(dataset, column)`: `g-3.results` is
/// `("g", "results")`, `g.sorted.manifest.json` is
/// `("g.sorted", "manifest.json")`.
type Object<'a> = (&'a str, &'a str);

/// The manifest object's "column".
const MANIFEST: &str = "manifest.json";

/// `name` parsed as an [`Object`]: a chunk object is
/// `{dataset}-{chunk}.{column}`, a manifest `{dataset}.manifest.json`.
fn parse(name: &str) -> Object<'_> {
    if let Some(dataset) = name.strip_suffix(".manifest.json") {
        return (dataset, MANIFEST);
    }
    let (stem, column) = name.rsplit_once('.').unwrap_or((name, ""));
    (stem.rsplit_once('-').map_or(stem, |(dataset, _)| dataset), column)
}

/// Whether `stage` reads (`Get`) or writes (`Put`) `object` in these
/// groups: import writes the read columns of the imported dataset `g`,
/// align reads its bases and qualities and writes its results, the sort
/// reads `g` and writes `g.sorted`, a dupmark reads and rewrites the
/// results of `g.sorted`, and export reads the columns of the dataset
/// it is handed.
fn touches(stage: Stage, op: Op, (dataset, column): Object<'_>) -> bool {
    let (input, sorted) = (dataset == "g", dataset == "g.sorted");
    match (stage, op) {
        (Stage::Import, Op::Put) => input && columns::READ_COLUMNS.contains(&column),
        (Stage::Align, Op::Get) => input && [columns::BASES, columns::QUAL].contains(&column),
        (Stage::Align, Op::Put) => input && [columns::RESULTS, MANIFEST].contains(&column),
        (Stage::Sort, Op::Get) => input && column != MANIFEST,
        (Stage::Sort, Op::Put) => sorted,
        (Stage::Dupmark, _) => sorted && column == columns::RESULTS,
        (Stage::ExportSam | Stage::ExportBam, Op::Get) => (input || sorted) && column != MANIFEST,
        _ => false,
    }
}

/// A store that, once armed, fails the `nth` operation of kind `op` on
/// the objects of `object`, matched on the parsed name.
struct FaultyStore {
    inner: MemStore,
    fault: Mutex<Option<(Op, Object<'static>, usize, Trip)>>,
}

impl FaultyStore {
    fn check(&self, op: Op, name: &str) -> std::io::Result<()> {
        if let Some((fop, object, nth, trip)) = self.fault.lock().unwrap().as_mut() {
            if *fop == op && parse(name) == *object {
                if *nth == 0 {
                    trip();
                    return Err(std::io::Error::other(format!("injected fault on {name}")));
                }
                *nth -= 1;
            }
        }
        Ok(())
    }
}

impl ChunkStore for FaultyStore {
    fn get(&self, name: &str) -> std::io::Result<Vec<u8>> {
        self.check(Op::Get, name)?;
        self.inner.get(name)
    }

    fn put(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
        self.check(Op::Put, name)?;
        self.inner.put(name, data)
    }

    fn delete(&self, name: &str) -> std::io::Result<()> {
        self.inner.delete(name)
    }

    fn list(&self) -> std::io::Result<Vec<String>> {
        self.inner.list()
    }
}

/// An aligner that fails on its 50th read — by panicking, the only way
/// the trait lets it; the executor hands that to the stage as a node
/// error.
struct BoomAligner {
    inner: Arc<dyn Aligner>,
    left: AtomicUsize,
    trip: Trip,
}

impl Aligner for BoomAligner {
    fn align_read(&self, bases: &[u8], quals: &[u8]) -> AlignmentResult {
        if self.left.fetch_sub(1, Ordering::SeqCst) == 0 {
            (self.trip)();
            panic!("aligner boom");
        }
        self.inner.align_read(bases, quals)
    }

    fn name(&self) -> &'static str {
        "snap"
    }
}

/// A FASTQ stream that calls `trip` once `at` bytes have been read.
struct TripReader {
    inner: Cursor<Vec<u8>>,
    at: u64,
    trip: Trip,
}

impl Read for TripReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if self.inner.position() >= self.at {
            (self.trip)();
        }
        Ok(n)
    }
}

/// Where a cell injects its failure.
#[derive(Clone, Copy)]
enum Inject {
    /// A malformed FASTQ record after three chunks' worth of input.
    Fastq,
    Aligner,
    /// The `nth` matching store operation.
    Store(Op, Object<'static>, usize),
}

const IMPORT_ALIGN: &[Stage] = &[Stage::Import, Stage::Align];
const ALIGN_SORT: &[Stage] = &[Stage::Align, Stage::Sort];
const IMPORT_ALIGN_SORT: &[Stage] = &[Stage::Import, Stage::Align, Stage::Sort];
/// A dupmark that heads its group marks a landed sorted dataset: it
/// reads and rewrites `results` itself.
const DUPMARK_EXPORT: &[Stage] = &[Stage::Dupmark, Stage::ExportSam];
/// `fastq_to_bam`'s plan: every chunk travels with its columns, so no
/// stage reads the store.
const IMPORT_TO_BAM: &[Stage] =
    &[Stage::Import, Stage::Align, Stage::Sort, Stage::Dupmark, Stage::ExportBam];
/// `from-aligned`: the sort reads the landed dataset; dupmark and
/// export read nothing.
const SORT_DUPMARK_EXPORT: &[Stage] = &[Stage::Sort, Stage::Dupmark, Stage::ExportSam];

/// `(group, failing stage, injection)`. Chunks carry their columns
/// down a group, so a stage reads only what its edge did not bring:
/// align the read columns of a landed dataset, sort `metadata` when an
/// align it is fused to loaded none, export the sorted dataset only
/// after a dupmark that heads its group. No run here has a cache, so
/// import and align put nothing in a group that continues past them;
/// the sort and a dupmark that heads its group write to the sorted
/// dataset. A dupmark fused to its sort runs no stage, and an export
/// fed by the sort does no I/O, so no failure starts at them. Their
/// cell is the sort's manifest put, which follows its last chunk
/// downstream: the group must fail even when export has drained the
/// whole stream.
const MATRIX: &[(&[Stage], Stage, Inject)] = &[
    (IMPORT_ALIGN, Stage::Import, Inject::Fastq),
    (IMPORT_ALIGN, Stage::Align, Inject::Aligner),
    (ALIGN_SORT, Stage::Align, Inject::Store(Op::Get, ("g", columns::QUAL), 2)),
    (ALIGN_SORT, Stage::Sort, Inject::Store(Op::Get, ("g", columns::METADATA), 1)),
    (IMPORT_ALIGN_SORT, Stage::Import, Inject::Fastq),
    (IMPORT_ALIGN_SORT, Stage::Align, Inject::Aligner),
    (IMPORT_ALIGN_SORT, Stage::Sort, Inject::Store(Op::Put, SORTED_RESULTS, 1)),
    (DUPMARK_EXPORT, Stage::Dupmark, Inject::Store(Op::Put, SORTED_RESULTS, 0)),
    (DUPMARK_EXPORT, Stage::ExportSam, Inject::Store(Op::Get, ("g.sorted", columns::METADATA), 1)),
    (IMPORT_TO_BAM, Stage::Import, Inject::Fastq),
    (IMPORT_TO_BAM, Stage::Align, Inject::Aligner),
    (IMPORT_TO_BAM, Stage::Sort, Inject::Store(Op::Put, SORTED_RESULTS, 1)),
    (IMPORT_TO_BAM, Stage::Sort, Inject::Store(Op::Put, SORTED_MANIFEST, 0)),
    (SORT_DUPMARK_EXPORT, Stage::Sort, Inject::Store(Op::Get, ("g", columns::METADATA), 1)),
    (SORT_DUPMARK_EXPORT, Stage::Sort, Inject::Store(Op::Put, SORTED_MANIFEST, 0)),
];

/// The sorted dataset's `results` objects.
const SORTED_RESULTS: Object = ("g.sorted", columns::RESULTS);
/// The sorted dataset's manifest object.
const SORTED_MANIFEST: Object = ("g.sorted", MANIFEST);

/// Asserts that `err` is the root cause `inject` causes at `failing`:
/// import's FASTQ parse error, the aligner's panic, or a store fault on
/// an object that `failing` itself reads or writes.
fn assert_blames(failing: Stage, inject: Inject, err: &Error, what: &str) {
    let text = err.to_string();
    match inject {
        Inject::Fastq => assert!(failing == Stage::Import && text.contains("fastq"), "{what}"),
        Inject::Aligner => {
            assert!(failing == Stage::Align && text.contains("aligner boom"), "{what}")
        }
        Inject::Store(op, object, _) => {
            let (_, name) = text.rsplit_once("injected fault on ").expect(what);
            assert_eq!(parse(name), object, "{what}");
            assert!(touches(failing, op, object), "{what}: {failing} does not touch {name}");
        }
    }
}

/// Runs `group` as a plan of its own with `inject` armed and returns
/// the error the plan surfaced plus whatever the observer heard. With
/// `cancel_first`, the injection point fires the job's token just
/// before failing.
fn run_cell(w: &World, group: &[Stage], inject: Inject, cancel_first: bool) -> (Error, Vec<Stage>) {
    let store = Arc::new(FaultyStore { inner: MemStore::new(), fault: Mutex::new(None) });
    let dyn_store: Arc<dyn ChunkStore> = store.clone();
    let input = group[0].input_hint();
    let plan = group.iter().fold(Plan::builder(input), |b, &s| b.then(s)).build().unwrap();
    assert_eq!(plan.fusion_groups(), vec![0..group.len()], "{plan:?} is one fused group");
    let landed = (input != DataState::Fastq).then(|| w.land(&dyn_store, input));

    let cancel = CancelToken::new();
    let trip: Trip = {
        let cancel = cancel.clone();
        Arc::new(move || {
            if cancel_first {
                cancel.cancel();
            }
        })
    };
    let (mut aligner, mut fastq, mut trip_at) = (w.aligner.clone(), w.fastq.clone(), u64::MAX);
    match inject {
        Inject::Fastq => {
            let good = w.fastq.split_inclusive(|&b| b == b'\n').take(4 * (3 * CHUNK + 5));
            trip_at = good.clone().map(|line| line.len() as u64).sum();
            fastq = good.flatten().copied().collect();
            fastq.extend_from_slice(b"@broken\nACGT\nOOPS\nIIII\n");
            fastq.extend_from_slice(&w.fastq[trip_at as usize..]);
        }
        Inject::Aligner => {
            let left = AtomicUsize::new(50);
            aligner = Arc::new(BoomAligner { inner: aligner, left, trip: trip.clone() });
        }
        Inject::Store(op, pattern, nth) => {
            *store.fault.lock().unwrap() = Some((op, pattern, nth, trip.clone()));
        }
    }
    let source = match landed {
        Some(manifest) => PlanSource::Dataset(manifest),
        None => {
            let reader = TripReader { inner: Cursor::new(fastq), at: trip_at, trip };
            PlanSource::Fastq(Box::new(BufReader::new(reader)))
        }
    };
    let heard = Arc::new(Mutex::new(Vec::new()));
    let observer = {
        let heard = heard.clone();
        move |stage: Stage, _: &Manifest| heard.lock().unwrap().push(stage)
    };
    let job = JobContext::with_cancel(Priority::Normal, cancel).with_observer(Arc::new(observer));
    let rt = PersonaRuntime::new(dyn_store, PersonaConfig::small()).unwrap().for_job(job);
    let req = PlanRequest { aligner: Some(aligner), ..w.request(source) };

    // The run happens on a side thread so a wedged group fails the test
    // instead of hanging it.
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(plan.run(&rt, req).map(|report| report.stages.len()));
    });
    let outcome = result
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{group:?} with a failing stage never returned"));
    let err = outcome.expect_err("an injected failure must fail the plan");
    let heard = heard.lock().unwrap().clone();
    (err, heard)
}

#[test]
fn every_group_position_surfaces_its_root_cause_and_announces_nothing() {
    let w = World::new();
    for &(group, failing, inject) in MATRIX {
        let (err, heard) = run_cell(&w, group, inject, false);
        let what = format!("{group:?} failing at {failing}: {err}");
        assert!(!matches!(err, Error::NeighbourClosed | Error::Cancelled), "{what}");
        assert_blames(failing, inject, &err, &what);
        assert!(heard.is_empty(), "{what}: announced {heard:?}");
    }
}

#[test]
fn cancelled_wins_over_every_failure_once_the_token_has_fired() {
    let w = World::new();
    for &(group, failing, inject) in MATRIX {
        let (err, heard) = run_cell(&w, group, inject, true);
        let what = format!("{group:?} failing at {failing}: {err}");
        assert!(matches!(err, Error::Cancelled), "{what}");
        assert!(heard.is_empty(), "{what}: announced {heard:?}");
    }
}

/// In `aligned>sort,dupmark,export-sam` duplicates are marked in the
/// sort's write. A store fault on the sort's first `.results` put must
/// surface as the plan's error, land no sorted manifest and announce
/// neither `sort` nor `dupmark`; a clean rerun then exports the SAM of
/// a cold run.
#[test]
fn a_fault_in_the_marking_sort_write_lands_nothing() {
    let w = World::new();
    let plan = Plan::from_aligned();
    let cold = {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let source = PlanSource::Dataset(w.land(&store, DataState::Aligned));
        let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
        plan.run(&rt, w.request(source)).unwrap().sam.unwrap()
    };

    let store = Arc::new(FaultyStore { inner: MemStore::new(), fault: Mutex::new(None) });
    let dyn_store: Arc<dyn ChunkStore> = store.clone();
    let landed = w.land(&dyn_store, DataState::Aligned);
    let inject = Inject::Store(Op::Put, SORTED_RESULTS, 0);
    *store.fault.lock().unwrap() = Some((Op::Put, SORTED_RESULTS, 0, Arc::new(|| {})));
    let heard = Arc::new(Mutex::new(Vec::new()));
    let observer = {
        let heard = heard.clone();
        move |stage: Stage, _: &Manifest| heard.lock().unwrap().push(stage)
    };
    let job = JobContext::new(Priority::Normal).with_observer(Arc::new(observer));
    let rt = PersonaRuntime::new(dyn_store.clone(), PersonaConfig::small()).unwrap().for_job(job);
    let source = || PlanSource::Dataset(landed.clone());
    let err = plan.run(&rt, w.request(source())).expect_err("the injected fault fails the plan");
    assert_blames(Stage::Sort, inject, &err, &err.to_string());
    assert!(!dyn_store.exists("g.sorted.manifest.json"), "a failed sort landed its manifest");
    assert!(heard.lock().unwrap().is_empty(), "announced {:?}", heard.lock().unwrap());

    *store.fault.lock().unwrap() = None;
    let sam = plan.run(&rt, w.request(source())).unwrap().sam.unwrap();
    assert!(sam == cold, "the rerun's SAM differs from a cold run's");
    assert_eq!(*heard.lock().unwrap(), vec![Stage::Sort, Stage::Dupmark]);
}
