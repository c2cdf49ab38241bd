//! Plan-aware result caching: when a job carries a [`ResultCache`]
//! ([`JobContext::with_cache`](crate::runtime::JobContext::with_cache)),
//! [`Plan::run`] consults it before executing, runs only the uncached
//! suffix of the plan, and registers stage outputs under their
//! content-addressed prefix keys (which also makes them land).
//!
//! A cache key is `(input digest, prefix key)`:
//!
//! * the **input digest** hashes what the job consumes — the raw FASTQ
//!   bytes, or the manifest of the dataset it starts from;
//! * the **prefix key** ([`prefix_key`]) canonically serializes the
//!   plan prefix *plus every execution parameter that shapes its
//!   output*: the chunk size (when the prefix imports) and the aligner
//!   name and reference digest (when the prefix aligns). Two plans
//!   sharing a prefix produce identical prefix keys regardless of how
//!   they continue, which is exactly what lets a resubmitted `full`
//!   plan reuse an earlier `import-align` job's work and run only
//!   `sort → dupmark → export`.
//!
//! Correctness around in-place mutation: `dupmark` rewrites its input
//! dataset's results chunks under the same names, and `align` finishes
//! import's dataset under the same name. The driver therefore (a) never
//! registers a prefix whose next stage is `dupmark` or `align` — the
//! earlier snapshot would go stale the moment the run continues — and
//! (b) when a cache hit's first uncached stage is `dupmark`,
//! removes the consumed entry before mutating the shared dataset, then
//! re-registers it under the longer (post-dupmark) prefix. Duplicate
//! marking is idempotent, so a dataset that was already marked
//! re-exports byte-identically.

use std::time::Instant;

use persona_agd::Manifest;
pub use persona_cache::{CacheEntry, CacheHit, CacheKey, CacheStats, Digest, ResultCache};
use serde::{Serialize, Value};

use crate::plan::{Plan, PlanRequest, PlanSource, Stage};
use crate::runtime::PersonaRuntime;

/// The per-run execution parameters that shape a prefix's output and
/// therefore belong in its cache key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunFingerprint {
    /// Records per imported chunk (affects every downstream dataset's
    /// chunking; keyed only when the prefix contains `import`).
    pub chunk_size: usize,
    /// Aligner kernel name (keyed only when the prefix aligns).
    pub aligner: Option<String>,
    /// Digest of the `(contig, length)` reference metadata (keyed only
    /// when the prefix aligns — it lands in the finalized manifest).
    pub reference: Digest,
}

impl RunFingerprint {
    /// Extracts the fingerprint from a [`PlanRequest`].
    pub fn of_request(req: &PlanRequest) -> RunFingerprint {
        RunFingerprint {
            chunk_size: req.chunk_size,
            aligner: req.aligner.as_ref().map(|a| a.name().to_string()),
            reference: digest_reference(&req.reference),
        }
    }
}

/// Digest of reference `(contig, length)` metadata, for
/// [`RunFingerprint::reference`].
pub fn digest_reference(reference: &[(String, u64)]) -> Digest {
    let mut bytes = Vec::new();
    for (name, len) in reference {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&len.to_be_bytes());
    }
    Digest::of_bytes(&bytes)
}

/// The canonical prefix-key string for `plan`'s first `len` stages
/// under `fp` — the second component of a [`CacheKey`].
///
/// The encoding is compact JSON with a fixed field order: `input` and
/// `stages` always (the plan's own wire form, cut at `len`), then
/// `chunk_size` iff the prefix imports, then `aligner` and `reference`
/// iff the prefix aligns. Parameters a prefix does not depend on stay
/// out of its key, so e.g. changing the aligner still reuses a cached
/// import.
pub fn prefix_key(plan: &Plan, len: usize, fp: &RunFingerprint) -> String {
    let stages = &plan.stages()[..len];
    let mut fields = vec![
        ("input".to_string(), plan.input().serialize()),
        ("stages".to_string(), stages.to_vec().serialize()),
    ];
    if stages.contains(&Stage::Import) {
        fields.push(("chunk_size".to_string(), (fp.chunk_size as u64).serialize()));
    }
    if stages.contains(&Stage::Align) {
        let aligner = fp.aligner.clone().unwrap_or_default();
        fields.push(("aligner".to_string(), aligner.serialize()));
        fields.push(("reference".to_string(), fp.reference.serialize()));
    }
    serde_json::to_string(&Value::Object(fields)).expect("prefix key serialization is infallible")
}

/// How a run used the result cache ([`PlanReport::cache`](crate::plan::PlanReport::cache)).
#[derive(Debug)]
pub struct CacheUse {
    /// Leading stages satisfied from the cache (0 on a miss, or when
    /// the job had no cache).
    pub elided: usize,
    /// Cold-run nanoseconds the hit avoided (the reused prefix's
    /// recorded cost).
    pub saved_ns: u64,
    /// The suffix that actually executed; `None` when every stage was
    /// cached.
    pub executed: Option<Plan>,
}

impl CacheUse {
    /// Whether the run reused any cached prefix.
    pub fn hit(&self) -> bool {
        self.elided > 0
    }
}

/// One [`Plan::run`]'s dealings with the job's result cache: the lookup
/// before anything executes, one registration per announced landing,
/// and the pin on the consumed entry in between.
///
/// Telemetry: bumps `cache.hits` / `cache.misses` / `cache.evictions` /
/// `cache.insertions` / `cache.invalidations` / `cache.reuse_saved_ns`
/// on the runtime's registry.
pub(crate) struct CacheSession<'a> {
    cache: &'a ResultCache,
    rt: &'a PersonaRuntime,
    plan: &'a Plan,
    fp: RunFingerprint,
    input_digest: Digest,
    started: Instant,
    /// Leading stages the hit covers (0 on a miss).
    elided: usize,
    /// The consumed entry. Its pin keeps it unevictable for the whole
    /// run — the dataset it names is live input.
    hit: Option<CacheHit>,
}

impl<'a> CacheSession<'a> {
    /// Looks up the longest cached prefix of `plan` for the job bound to
    /// `rt` (`None` when it carries no cache) and readies the cache for
    /// the stages that will execute.
    pub(crate) fn open(
        plan: &'a Plan,
        rt: &'a PersonaRuntime,
        req: &PlanRequest,
        started: Instant,
    ) -> Option<CacheSession<'a>> {
        let (cache, input_digest) = rt.job()?.cache()?;
        let fp = RunFingerprint::of_request(req);
        let lens = plan.cacheable_prefixes();
        let keys: Vec<String> = lens.iter().map(|&len| prefix_key(plan, len, &fp)).collect();
        let telemetry = rt.telemetry();

        let hit = cache.longest_match(*input_digest, &keys);
        let (elided, source_name, keep) = match &hit {
            Some(hit) => {
                telemetry.counter("cache.hits").inc();
                telemetry.counter("cache.reuse_saved_ns").add(hit.entry.cost_ns);
                let elided = lens[hit.index];
                // The first uncached stage mutates the shared dataset
                // in place: supersede the consumed entry *before*
                // mutating, so no new run can match the pre-mutation
                // snapshot mid-rewrite. It comes back under the longer
                // post-dupmark prefix.
                if plan.stages().get(elided) == Some(&Stage::Dupmark) {
                    cache.remove(&hit.key);
                }
                (elided, Some(hit.entry.manifest.name.as_str()), Some(&hit.key))
            }
            None => {
                telemetry.counter("cache.misses").inc();
                let source_name = match &req.source {
                    PlanSource::Dataset(m) => Some(m.name.as_str()),
                    PlanSource::Fastq(_) => None,
                };
                (0, source_name, None)
            }
        };
        invalidate_written(cache, rt, &plan.stages()[elided..], source_name, &req.name, keep);
        Some(CacheSession {
            cache,
            rt,
            plan,
            fp,
            input_digest: *input_digest,
            started,
            elided,
            hit,
        })
    }

    /// The consumed entry and how many leading stages it covers.
    pub(crate) fn hit(&self) -> Option<(usize, &CacheEntry)> {
        self.hit.as_ref().map(|hit| (self.elided, &hit.entry))
    }

    /// Whether the run registers (and so lands, see [`Plan::run`]) the
    /// state stage `idx` leaves: not when the next stage rewrites that
    /// dataset in place, as the entry would be stale at once.
    pub(crate) fn registers(&self, idx: usize) -> bool {
        let stages = self.plan.stages();
        stages[idx].is_durable()
            && !matches!(stages.get(idx + 1), Some(Stage::Align | Stage::Dupmark))
    }

    /// Registers the dataset stage `idx` of the plan landed under the
    /// prefix key ending at that stage, at the cost of the consumed
    /// prefix plus this run so far, if the run registers it.
    pub(crate) fn landed(&self, idx: usize, manifest: &Manifest) {
        if !self.registers(idx) {
            return;
        }
        let stages = self.plan.stages();
        let len = idx + 1;
        let key = CacheKey::new(self.input_digest, prefix_key(self.plan, len, &self.fp));
        let base_cost_ns = self.hit.as_ref().map_or(0, |hit| hit.entry.cost_ns);
        let entry = CacheEntry {
            manifest: manifest.clone(),
            state: stages[idx].output().as_str().to_string(),
            stages: len,
            cost_ns: base_cost_ns + self.started.elapsed().as_nanos() as u64,
        };
        let evicted = self.cache.insert(key, entry);
        let telemetry = self.rt.telemetry();
        telemetry.counter("cache.insertions").inc();
        if !evicted.is_empty() {
            telemetry.counter("cache.evictions").add(evicted.len() as u64);
        }
    }
}

/// Purges cache entries whose datasets the stages about to execute
/// will rewrite. Store writes are create-or-replace under names derived
/// from the job, so a new run over *different* input (or different
/// align parameters) re-targets the same object names — any entry still
/// pointing at them would silently serve the new bytes under the old
/// key:
///
/// * `import`/`align` (re)write the base dataset — the run's source
///   dataset when it starts from one, else the request name;
/// * `sort` writes `{name}.sorted`;
/// * `dupmark` rewrites the sorted dataset it consumes in place — the
///   run's own sort output when it sorted, else the source dataset.
///
/// The entry a running hit consumed (`keep`) survives: its prefix
/// equality is exactly what makes the overlap byte-identical.
fn invalidate_written(
    cache: &ResultCache,
    rt: &PersonaRuntime,
    stages: &[Stage],
    source_name: Option<&str>,
    req_name: &str,
    keep: Option<&CacheKey>,
) {
    let base = source_name.unwrap_or(req_name);
    let mut names: Vec<String> = Vec::new();
    if stages.iter().any(|s| matches!(s, Stage::Import | Stage::Align)) {
        names.push(base.to_string());
    }
    if stages.contains(&Stage::Sort) {
        names.push(format!("{req_name}.sorted"));
    }
    if stages.contains(&Stage::Dupmark) && !stages.contains(&Stage::Sort) {
        names.push(base.to_string());
    }
    names.sort();
    names.dedup();
    let mut dropped = 0;
    for name in &names {
        dropped += cache.invalidate_dataset(name, keep);
    }
    if dropped > 0 {
        rt.telemetry().counter("cache.invalidations").add(dropped as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::DataState;

    fn fp(chunk: usize, aligner: Option<&str>) -> RunFingerprint {
        RunFingerprint {
            chunk_size: chunk,
            aligner: aligner.map(str::to_string),
            reference: digest_reference(&[("chr1".into(), 1000)]),
        }
    }

    #[test]
    fn shared_prefixes_key_identically_across_plans() {
        let fp = fp(512, Some("snap"));
        let a = Plan::import_align();
        let b = Plan::full();
        assert_eq!(prefix_key(&a, 1, &fp), prefix_key(&b, 1, &fp));
        assert_eq!(prefix_key(&a, 2, &fp), prefix_key(&b, 2, &fp));
        assert_ne!(prefix_key(&b, 2, &fp), prefix_key(&b, 3, &fp));
    }

    #[test]
    fn import_prefix_ignores_aligner_but_not_chunking() {
        let plan = Plan::full();
        assert_eq!(
            prefix_key(&plan, 1, &fp(512, Some("snap"))),
            prefix_key(&plan, 1, &fp(512, Some("bwa")))
        );
        assert_ne!(prefix_key(&plan, 1, &fp(512, None)), prefix_key(&plan, 1, &fp(256, None)));
    }

    #[test]
    fn align_prefix_keys_on_aligner_and_reference() {
        let plan = Plan::full();
        assert_ne!(
            prefix_key(&plan, 2, &fp(512, Some("snap"))),
            prefix_key(&plan, 2, &fp(512, Some("bwa")))
        );
        let other_ref = RunFingerprint {
            chunk_size: 512,
            aligner: Some("snap".into()),
            reference: digest_reference(&[("chr2".into(), 9)]),
        };
        assert_ne!(prefix_key(&plan, 2, &fp(512, Some("snap"))), prefix_key(&plan, 2, &other_ref));
    }

    #[test]
    fn cacheable_prefixes_exclude_exports() {
        assert_eq!(Plan::full().cacheable_prefixes(), vec![4, 3, 2, 1]);
        assert_eq!(Plan::import_align().cacheable_prefixes(), vec![2, 1]);
        assert_eq!(Plan::no_dupmark().cacheable_prefixes(), vec![3, 2, 1]);
    }

    #[test]
    fn suffix_plan_resumes_from_prefix_output() {
        let full = Plan::full();
        let suffix = full.suffix_plan(2).expect("suffix exists");
        assert_eq!(suffix.input(), DataState::Aligned);
        assert_eq!(suffix.stages(), &[Stage::Sort, Stage::Dupmark, Stage::ExportSam]);
        assert!(full.suffix_plan(0).is_none());
        assert!(full.suffix_plan(5).is_none());
    }
}
