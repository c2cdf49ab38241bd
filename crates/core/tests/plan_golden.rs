//! Grouping is execution: for every plan `PlanBuilder` accepts, what
//! `fusion_groups()` and `describe()` promise, what the stage observer
//! hears, which `plan.stage_runs.*` counters move, the order stage
//! spans open and close in the job trace, and what a cold run registers
//! in the result cache all agree with each other — and with the table
//! below, captured from the commit before the plan driver became
//! table-driven. A row that changes means observable behaviour
//! changed. When the sort's write became a producer (`sort→dupmark`,
//! `sort→export-*`, `dupmark→export-bam` joined `STREAMS`), the
//! describe, groups and metered cells of the sixteen plans with such a
//! pair moved; no announced or registration cell did. The cell of what
//! a run without a cache announces was captured at the commit before
//! groups began to land only what someone can read back (it then
//! equalled the announced cell in every row); since, a group that
//! continues past `align` no longer announces it without a cache.

mod common;

use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::World;
use persona::caching::{Digest, ResultCache};
use persona::config::PersonaConfig;
use persona::plan::{DataState, Plan, PlanSource, Stage, STREAMS};
use persona::runtime::{JobContext, PersonaRuntime};
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::manifest::Manifest;
use persona_dataflow::Priority;
use persona_store::clock::{Clock, ManualClock};
use persona_telemetry::{JobTrace, TracePhase};

/// One row per legal plan, in `all_plans()` order:
/// `input>stages | describe | groups | announced stage=dataset | cache
/// registrations stages:state=dataset | announced without a cache |
/// manifest.* telemetry registered`.
/// (`plan.stage_runs.*` deltas and the span sequence are asserted
/// against the stage list and the groups directly.)
const GOLDEN: &[&str] = &[
    "fastq>import | fastq ─import→ encoded-agd | 0..1 | import=g | 1:encoded-agd=g | import=g | unmetered",
    "fastq>import,align | fastq ─[import‖align]→ aligned | 0..2 | align=g | 2:aligned=g | align=g | metered",
    "fastq>import,align,sort | fastq ─[import‖align‖sort]→ sorted | 0..3 | align=g,sort=g.sorted | 2:aligned=g,3:sorted=g.sorted | sort=g.sorted | metered",
    "fastq>import,align,sort,dupmark | fastq ─[import‖align‖sort‖dupmark]→ dup-marked | 0..4 | align=g,sort=g.sorted,dupmark=g.sorted | 2:aligned=g,4:dup-marked=g.sorted | sort=g.sorted,dupmark=g.sorted | metered",
    "fastq>import,align,sort,dupmark,export-sam | fastq ─[import‖align‖sort‖dupmark‖export-sam]→ sam | 0..5 | align=g,sort=g.sorted,dupmark=g.sorted | 2:aligned=g,4:dup-marked=g.sorted | sort=g.sorted,dupmark=g.sorted | metered",
    "fastq>import,align,sort,dupmark,export-bam | fastq ─[import‖align‖sort‖dupmark‖export-bam]→ bgzf | 0..5 | align=g,sort=g.sorted,dupmark=g.sorted | 2:aligned=g,4:dup-marked=g.sorted | sort=g.sorted,dupmark=g.sorted | metered",
    "fastq>import,align,sort,export-sam | fastq ─[import‖align‖sort‖export-sam]→ sam | 0..4 | align=g,sort=g.sorted | 2:aligned=g,3:sorted=g.sorted | sort=g.sorted | metered",
    "fastq>import,align,sort,export-bam | fastq ─[import‖align‖sort‖export-bam]→ bgzf | 0..4 | align=g,sort=g.sorted | 2:aligned=g,3:sorted=g.sorted | sort=g.sorted | metered",
    "fastq>import,align,export-sam | fastq ─[import‖align]→ aligned ─export-sam→ sam | 0..2,2..3 | align=g | 2:aligned=g | align=g | metered",
    "fastq>import,align,export-bam | fastq ─[import‖align]→ aligned ─export-bam→ bgzf | 0..2,2..3 | align=g | 2:aligned=g | align=g | metered",
    "encoded-agd>align | encoded-agd ─align→ aligned | 0..1 | align=g | 1:aligned=g | align=g | metered",
    "encoded-agd>align,sort | encoded-agd ─[align‖sort]→ sorted | 0..2 | align=g,sort=g.sorted | 1:aligned=g,2:sorted=g.sorted | sort=g.sorted | metered",
    "encoded-agd>align,sort,dupmark | encoded-agd ─[align‖sort‖dupmark]→ dup-marked | 0..3 | align=g,sort=g.sorted,dupmark=g.sorted | 1:aligned=g,3:dup-marked=g.sorted | sort=g.sorted,dupmark=g.sorted | metered",
    "encoded-agd>align,sort,dupmark,export-sam | encoded-agd ─[align‖sort‖dupmark‖export-sam]→ sam | 0..4 | align=g,sort=g.sorted,dupmark=g.sorted | 1:aligned=g,3:dup-marked=g.sorted | sort=g.sorted,dupmark=g.sorted | metered",
    "encoded-agd>align,sort,dupmark,export-bam | encoded-agd ─[align‖sort‖dupmark‖export-bam]→ bgzf | 0..4 | align=g,sort=g.sorted,dupmark=g.sorted | 1:aligned=g,3:dup-marked=g.sorted | sort=g.sorted,dupmark=g.sorted | metered",
    "encoded-agd>align,sort,export-sam | encoded-agd ─[align‖sort‖export-sam]→ sam | 0..3 | align=g,sort=g.sorted | 1:aligned=g,2:sorted=g.sorted | sort=g.sorted | metered",
    "encoded-agd>align,sort,export-bam | encoded-agd ─[align‖sort‖export-bam]→ bgzf | 0..3 | align=g,sort=g.sorted | 1:aligned=g,2:sorted=g.sorted | sort=g.sorted | metered",
    "encoded-agd>align,export-sam | encoded-agd ─align→ aligned ─export-sam→ sam | 0..1,1..2 | align=g | 1:aligned=g | align=g | metered",
    "encoded-agd>align,export-bam | encoded-agd ─align→ aligned ─export-bam→ bgzf | 0..1,1..2 | align=g | 1:aligned=g | align=g | metered",
    "aligned>sort | aligned ─sort→ sorted | 0..1 | sort=g.sorted | 1:sorted=g.sorted | sort=g.sorted | unmetered",
    "aligned>sort,dupmark | aligned ─[sort‖dupmark]→ dup-marked | 0..2 | sort=g.sorted,dupmark=g.sorted | 2:dup-marked=g.sorted | sort=g.sorted,dupmark=g.sorted | metered",
    "aligned>sort,dupmark,export-sam | aligned ─[sort‖dupmark‖export-sam]→ sam | 0..3 | sort=g.sorted,dupmark=g.sorted | 2:dup-marked=g.sorted | sort=g.sorted,dupmark=g.sorted | metered",
    "aligned>sort,dupmark,export-bam | aligned ─[sort‖dupmark‖export-bam]→ bgzf | 0..3 | sort=g.sorted,dupmark=g.sorted | 2:dup-marked=g.sorted | sort=g.sorted,dupmark=g.sorted | metered",
    "aligned>sort,export-sam | aligned ─[sort‖export-sam]→ sam | 0..2 | sort=g.sorted | 1:sorted=g.sorted | sort=g.sorted | metered",
    "aligned>sort,export-bam | aligned ─[sort‖export-bam]→ bgzf | 0..2 | sort=g.sorted | 1:sorted=g.sorted | sort=g.sorted | metered",
    "aligned>export-sam | aligned ─export-sam→ sam | 0..1 |  |  |  | metered",
    "aligned>export-bam | aligned ─export-bam→ bgzf | 0..1 |  |  |  | unmetered",
    "sorted>dupmark | sorted ─dupmark→ dup-marked | 0..1 | dupmark=g.sorted | 1:dup-marked=g.sorted | dupmark=g.sorted | unmetered",
    "sorted>dupmark,export-sam | sorted ─[dupmark‖export-sam]→ sam | 0..2 | dupmark=g.sorted | 1:dup-marked=g.sorted | dupmark=g.sorted | metered",
    "sorted>dupmark,export-bam | sorted ─[dupmark‖export-bam]→ bgzf | 0..2 | dupmark=g.sorted | 1:dup-marked=g.sorted | dupmark=g.sorted | metered",
    "sorted>export-sam | sorted ─export-sam→ sam | 0..1 |  |  |  | metered",
    "sorted>export-bam | sorted ─export-bam→ bgzf | 0..1 |  |  |  | unmetered",
    "dup-marked>export-sam | dup-marked ─export-sam→ sam | 0..1 |  |  |  | metered",
    "dup-marked>export-bam | dup-marked ─export-bam→ bgzf | 0..1 |  |  |  | unmetered",
];

/// A manual clock that ticks on every reading, so trace events order
/// by the moment they were recorded.
struct TickingClock(Arc<ManualClock>);

impl Clock for TickingClock {
    fn now(&self) -> Duration {
        self.0.advance(Duration::from_nanos(1));
        self.0.now()
    }

    fn sleep(&self, d: Duration) {
        self.0.advance(d);
    }
}

/// Every plan the builder accepts, depth-first from every input state.
fn all_plans() -> Vec<Plan> {
    fn extend(input: DataState, stages: &mut Vec<Stage>, out: &mut Vec<Plan>) {
        for stage in Stage::ALL {
            stages.push(stage);
            let built = stages.iter().fold(Plan::builder(input), |b, &s| b.then(s)).build();
            if let Ok(plan) = built {
                out.push(plan);
                extend(input, stages, out);
            }
            stages.pop();
        }
    }
    let mut plans = Vec::new();
    for input in DataState::ALL {
        extend(input, &mut Vec::new(), &mut plans);
    }
    plans
}

fn join<T>(items: impl IntoIterator<Item = T>, f: impl Fn(T) -> String) -> String {
    items.into_iter().map(f).collect::<Vec<_>>().join(",")
}

/// An observer that records what it hears, and the record.
type Heard = Arc<Mutex<Vec<(Stage, String)>>>;

fn listener() -> (Heard, impl Fn(Stage, &Manifest) + Send + Sync + 'static) {
    let heard = Heard::default();
    let record = heard.clone();
    (heard, move |stage: Stage, manifest: &Manifest| {
        record.lock().unwrap().push((stage, manifest.name.clone()))
    })
}

/// What the observer of a cold run of `plan` without a cache hears.
fn heard_uncached(w: &World, plan: &Plan) -> Vec<(Stage, String)> {
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let source = match plan.input() {
        DataState::Fastq => PlanSource::fastq_bytes(w.fastq.clone()),
        state => PlanSource::Dataset(w.land(&store, state)),
    };
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let (heard, observer) = listener();
    let job = JobContext::new(Priority::Normal).with_observer(Arc::new(observer));
    plan.run(&rt.for_job(job), w.request(source)).unwrap();
    let heard = heard.lock().unwrap().clone();
    heard
}

/// Runs `plan` cold with a trace, an observer and a cache attached,
/// cross-checks everything observable, and renders its golden row.
fn golden_row(w: &World, plan: &Plan) -> String {
    let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    let (source, digest) = match plan.input() {
        DataState::Fastq => (PlanSource::fastq_bytes(w.fastq.clone()), Digest::of_bytes(&w.fastq)),
        state => {
            let manifest = w.land(&store, state);
            let digest = Digest::of_manifest(&manifest);
            (PlanSource::Dataset(manifest), digest)
        }
    };
    let rt = PersonaRuntime::new(store, PersonaConfig::small()).unwrap();
    let trace = JobTrace::new(Arc::new(TickingClock(ManualClock::new())));
    let cache = Arc::new(ResultCache::new(16));
    let (heard, observer) = listener();
    let job = JobContext::new(Priority::Normal)
        .with_trace(trace.clone())
        .with_observer(Arc::new(observer))
        .with_cache(cache.clone(), digest);
    let report = plan.run(&rt.for_job(job), w.request(source)).unwrap();
    let heard = heard.lock().unwrap().clone();
    let (stages, groups) = (plan.stages(), plan.fusion_groups());

    // The groups tile the plan and are the maximal chains over the
    // adjacency table; describe() brackets exactly the fused ones.
    assert!(groups.iter().flat_map(|g| g.clone()).eq(0..stages.len()), "{groups:?}");
    for i in 1..stages.len() {
        let fused = groups.iter().any(|g| g.contains(&(i - 1)) && g.contains(&i));
        assert_eq!(fused, STREAMS.contains(&(stages[i - 1], stages[i])), "{plan:?} at {i}");
    }
    let mut describe = plan.input().to_string();
    for g in &groups {
        let names = join(&stages[g.clone()], |s| s.name().into()).replace(',', "‖");
        let names = if g.len() > 1 { format!("[{names}]") } else { names };
        describe += &format!(" ─{names}→ {}", stages[g.end - 1].output());
    }
    assert_eq!(plan.describe(), describe);

    // Every stage ran exactly once and reported in plan order.
    for s in Stage::ALL {
        let runs = rt.telemetry().counter(&format!("plan.stage_runs.{}", s.name())).value();
        assert_eq!(runs, plan.contains(s) as u64, "{plan:?}: plan.stage_runs.{s}");
    }
    assert!(report.stages.iter().map(|s| s.stage()).eq(stages.iter().copied()), "{plan:?}");

    // A group's spans open together, in plan order, and close in
    // reverse before the next group's open.
    let spans: Vec<String> = trace
        .events()
        .into_iter()
        .filter(|e| e.chunk.is_none() && Stage::parse(&e.name).is_some())
        .map(|e| format!("{}{}", if e.phase == TracePhase::Begin { '+' } else { '-' }, e.name))
        .collect();
    let expect_spans: Vec<String> = groups
        .iter()
        .flat_map(|g| {
            let opens = stages[g.clone()].iter().map(|s| format!("+{s}"));
            opens.chain(stages[g.clone()].iter().rev().map(|s| format!("-{s}")))
        })
        .collect();
    assert_eq!(spans, expect_spans, "{plan:?}");

    // The observer hears durable stages only, in plan order; the cold
    // run executed everything and registered what it announced — minus
    // prefixes a following dupmark would invalidate.
    let mut durable = stages.iter().filter(|s| s.is_durable());
    assert!(heard.iter().all(|(s, _)| durable.any(|d| d == s)), "{plan:?}: heard {heard:?}");
    assert_eq!((report.cache.elided, report.cache.executed.as_ref()), (0, Some(plan)));
    let mut entries: Vec<_> = cache.entries().into_iter().map(|(_, e)| e).collect();
    entries.sort_by_key(|e| e.stages);
    let expect_registered = heard
        .iter()
        .map(|(s, _)| stages.iter().position(|p| p == s).unwrap() + 1)
        .filter(|&len| stages.get(len) != Some(&Stage::Dupmark));
    assert!(entries.iter().map(|e| e.stages).eq(expect_registered), "{plan:?}: {entries:?}");
    assert_eq!(rt.telemetry().counter("cache.misses").value(), 1);
    assert_eq!(rt.telemetry().counter("cache.insertions").value(), entries.len() as u64);

    let metered = rt.telemetry().snapshot().gauge("manifest.queue_occupancy");
    assert!(matches!(metered, None | Some(0)), "{plan:?}: queues drained");
    format!(
        "{}>{} | {describe} | {} | {} | {} | {} | {}",
        plan.input(),
        join(stages, |s| s.name().into()),
        join(&groups, |g| format!("{}..{}", g.start, g.end)),
        join(&heard, |(s, m)| format!("{s}={m}")),
        join(&entries, |e| format!("{}:{}={}", e.stages, e.state, e.manifest.name)),
        join(heard_uncached(w, plan), |(s, m)| format!("{s}={m}")),
        if metered.is_some() { "metered" } else { "unmetered" },
    )
}

#[test]
fn every_legal_plan_groups_announces_counts_and_traces_like_the_golden_table() {
    let w = World::new();
    let plans = all_plans();
    assert_eq!(plans.len(), 34, "the legal-plan set is small and finite");
    let rows: Vec<String> = plans.iter().map(|p| golden_row(&w, p)).collect();
    let actual: String = rows.iter().map(|r| format!("    {r:?},\n")).collect();
    assert!(
        rows.iter().map(String::as_str).eq(GOLDEN.iter().copied()),
        "plan behaviour differs from the golden table; actual rows:\n{actual}"
    );
}
