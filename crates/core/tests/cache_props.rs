//! Property tests for the plan-aware result cache:
//!
//! 1. **Key injectivity** — two `(input state, plan prefix, run
//!    fingerprint)` triples produce the same prefix key iff they are
//!    the same computation: equal input state, equal stage prefix, and
//!    equal values for exactly the fingerprint parameters the prefix
//!    depends on.
//! 2. **Byte-identity** — for any valid plan pair sharing a prefix,
//!    running the second plan against the cache populated by the first
//!    exports byte-for-byte what an uncached cold run exports.

use std::sync::{Arc, OnceLock};

use persona::caching::{digest_reference, prefix_key, Digest, ResultCache, RunFingerprint};
use persona::config::PersonaConfig;
use persona::plan::{DataState, Plan, PlanRequest, PlanSource, Stage};
use persona::runtime::{JobContext, PersonaRuntime};
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_align::snap::{SnapAligner, SnapParams};
use persona_align::Aligner;
use persona_dataflow::Priority;
use persona_index::SeedIndex;
use persona_seq::simulate::{ReadSimulator, SimParams};
use persona_seq::Genome;
use proptest::prelude::*;

struct World {
    aligner: Arc<dyn Aligner>,
    fastq: Vec<u8>,
    reference: Vec<(String, u64)>,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let genome = Arc::new(Genome::random_with_seed(515, &[("chr1", 30_000)]));
        let mut sim = ReadSimulator::new(
            &genome,
            SimParams { error_rate: 0.005, seed: 51, ..SimParams::default() },
        );
        // Duplicate a slice of the reads so dupmark-bearing plans
        // exercise real flag changes, not no-ops.
        let mut reads = sim.take_single(70);
        let dupes: Vec<_> = reads.iter().take(20).cloned().collect();
        reads.extend(dupes);
        let index = Arc::new(SeedIndex::build(&genome, 16));
        let aligner: Arc<dyn Aligner> =
            Arc::new(SnapAligner::new(genome.clone(), index, SnapParams::default()));
        let reference =
            genome.contigs().iter().map(|c| (c.name.clone(), c.seq.len() as u64)).collect();
        World { aligner, fastq: persona_formats::fastq::to_bytes(&reads), reference }
    })
}

fn request(name: &str, source: PlanSource) -> PlanRequest {
    let w = world();
    PlanRequest {
        name: name.into(),
        source,
        chunk_size: 25,
        aligner: Some(w.aligner.clone()),
        reference: w.reference.clone(),
    }
}

/// Walks the state machine with the given random choices, producing a
/// plan the builder must accept (mirrors `plan_props.rs`).
fn random_valid_plan(input: DataState, choices: &[usize]) -> Option<Plan> {
    let mut state = input;
    let mut used: Vec<Stage> = Vec::new();
    for &c in choices {
        let eligible: Vec<Stage> =
            Stage::ALL.iter().copied().filter(|s| s.accepts(state) && !used.contains(s)).collect();
        if eligible.is_empty() {
            break;
        }
        let stage = eligible[c % eligible.len()];
        state = stage.output();
        used.push(stage);
    }
    let mut builder = Plan::builder(input);
    for &s in &used {
        builder = builder.then(s);
    }
    builder.build().ok()
}

fn fingerprint(chunk_size: usize, aligner: Option<&str>, contig_len: u64) -> RunFingerprint {
    RunFingerprint {
        chunk_size,
        aligner: aligner.map(str::to_string),
        reference: digest_reference(&[("chr1".to_string(), contig_len)]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Prefix keys are injective over the computation they name: equal
    /// keys ⟺ equal input state, equal stage prefix, and equal values
    /// of every fingerprint parameter the prefix folds in.
    #[test]
    fn prefix_keys_are_injective(
        input_a in 0usize..5,
        input_b in 0usize..5,
        choices_a in proptest::collection::vec(0usize..8, 1..7),
        choices_b in proptest::collection::vec(0usize..8, 1..7),
        chunk_ix_a in 0usize..2,
        chunk_ix_b in 0usize..2,
        aligner_ix_a in 0usize..2,
        aligner_ix_b in 0usize..2,
    ) {
        let chunk_a = [25usize, 50][chunk_ix_a];
        let chunk_b = [25usize, 50][chunk_ix_b];
        let aligner_a = ["snap", "bwa"][aligner_ix_a];
        let aligner_b = ["snap", "bwa"][aligner_ix_b];
        let (Some(a), Some(b)) = (
            random_valid_plan(DataState::ALL[input_a], &choices_a),
            random_valid_plan(DataState::ALL[input_b], &choices_b),
        ) else {
            return Err(TestCaseError::reject("no stage reachable from input state"));
        };
        let fp_a = fingerprint(chunk_a, Some(aligner_a), 30_000);
        let fp_b = fingerprint(chunk_b, Some(aligner_b), 30_000);
        for la in a.cacheable_prefixes() {
            for lb in b.cacheable_prefixes() {
                let ka = prefix_key(&a, la, &fp_a);
                let kb = prefix_key(&b, lb, &fp_b);
                let prefix_a = &a.stages()[..la];
                let prefix_b = &b.stages()[..lb];
                let same_computation = a.input() == b.input()
                    && prefix_a == prefix_b
                    && (!prefix_a.contains(&Stage::Import) || chunk_a == chunk_b)
                    && (!prefix_a.contains(&Stage::Align) || aligner_a == aligner_b);
                prop_assert_eq!(
                    ka == kb,
                    same_computation,
                    "key collision semantics violated: {} vs {}",
                    ka,
                    kb
                );
            }
        }
    }

    /// For any valid plan pair over the same FASTQ input, running the
    /// second plan through the cache the first populated is
    /// byte-identical to running it cold — whatever prefix they share,
    /// including dupmark-bearing shapes that mutate datasets in place.
    #[test]
    fn cached_suffix_runs_are_byte_identical(
        choices_a in proptest::collection::vec(0usize..8, 1..7),
        choices_b in proptest::collection::vec(0usize..8, 1..7),
    ) {
        let (Some(a), Some(b)) = (
            random_valid_plan(DataState::Fastq, &choices_a),
            random_valid_plan(DataState::Fastq, &choices_b),
        ) else {
            return Err(TestCaseError::reject("empty plan"));
        };
        let w = world();
        let input_digest = Digest::of_bytes(&w.fastq);

        // Warm path: both plans share one runtime, store and cache.
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let cache = Arc::new(ResultCache::new(16));
        let rt = PersonaRuntime::new(store, PersonaConfig::small())
            .unwrap()
            .for_job(JobContext::new(Priority::Normal).with_cache(cache, input_digest));
        a.run(&rt, request("first", PlanSource::fastq_bytes(w.fastq.clone()))).unwrap();
        let warm = b.run(&rt, request("second", PlanSource::fastq_bytes(w.fastq.clone()))).unwrap();
        let used = &warm.cache;

        // Cold reference: plan B alone on a fresh world.
        let cold_store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let cold_rt = PersonaRuntime::new(cold_store, PersonaConfig::small()).unwrap();
        let cold = b
            .run(&cold_rt, request("second", PlanSource::fastq_bytes(w.fastq.clone())))
            .unwrap();

        prop_assert_eq!(&warm.sam, &cold.sam, "SAM bytes must not depend on cache reuse");
        prop_assert_eq!(&warm.bam, &cold.bam, "BAM bytes must not depend on cache reuse");
        if used.hit() {
            prop_assert!(used.elided > 0 && used.saved_ns > 0);
        }
        // The executed suffix plus the elided prefix cover the plan.
        let executed = used.executed.as_ref().map(|p| p.stages().len()).unwrap_or(0);
        prop_assert_eq!(used.elided + executed, b.stages().len());
    }
}
