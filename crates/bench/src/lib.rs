//! Shared workload construction for the benchmark harnesses.
//!
//! Every table/figure binary builds its inputs through this module so
//! the scaled-down synthetic workload is consistent across experiments.
//! Scale with `PERSONA_BENCH_SCALE` (default 1.0): the default sizes
//! keep each harness run in the seconds-to-a-minute range on a laptop
//! while preserving the paper's *relative* results.

use std::path::PathBuf;
use std::sync::Arc;

pub mod metrics;

use persona::config::PersonaConfig;
use persona::plan::{Plan, PlanReport, PlanRequest, PlanSource, Stage};
use persona::runtime::PersonaRuntime;
use persona_agd::builder::DatasetWriter;
use persona_agd::chunk_io::{ChunkStore, DirStore, MemStore};
use persona_agd::manifest::Manifest;
use persona_align::bwa::{BwaMemAligner, BwaParams};
use persona_align::snap::{SnapAligner, SnapParams};
use persona_align::Aligner;
use persona_baseline::standalone::{run_standalone, write_gzipped_fastq, StandaloneReport};
use persona_index::{FmIndex, SeedIndex};
use persona_seq::simulate::{ReadSimulator, SimParams};
use persona_seq::{Genome, Read};

/// Workload scale factor from the environment.
pub fn scale() -> f64 {
    std::env::var("PERSONA_BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// A ready-to-run benchmark world.
pub struct World {
    /// The reference genome.
    pub genome: Arc<Genome>,
    /// Simulated reads.
    pub reads: Vec<Read>,
    /// Contig metadata for SAM/BAM export.
    pub reference: Vec<(String, u64)>,
}

impl World {
    /// Builds a world: `genome_len` bases of reference, `n_reads`
    /// 101-bp reads at 0.5% error.
    pub fn build(genome_len: usize, n_reads: usize, seed: u64) -> World {
        let genome = Arc::new(Genome::random_with_seed(seed, &[("chr1", genome_len)]));
        let mut sim = ReadSimulator::new(
            &genome,
            SimParams { error_rate: 0.005, seed: seed ^ 0x5EED, ..SimParams::default() },
        );
        let reads = sim.take_single(n_reads);
        let reference = vec![("chr1".to_string(), genome.total_len())];
        World { genome, reads, reference }
    }

    /// A SNAP-style aligner over this world.
    pub fn snap_aligner(&self) -> Arc<dyn Aligner> {
        let index = Arc::new(SeedIndex::build(&self.genome, 16));
        Arc::new(SnapAligner::new(self.genome.clone(), index, SnapParams::default()))
    }

    /// A BWA-MEM-style aligner over this world.
    pub fn bwa_aligner(&self) -> Arc<dyn Aligner> {
        let fm = Arc::new(FmIndex::build(&self.genome));
        Arc::new(BwaMemAligner::new(self.genome.clone(), fm, BwaParams::default()))
    }

    /// Total bases across the reads.
    pub fn total_bases(&self) -> u64 {
        self.reads.iter().map(|r| r.bases.len() as u64).sum()
    }

    /// Writes the reads as an AGD dataset into `store`.
    pub fn write_agd(&self, store: &dyn ChunkStore, name: &str, chunk_size: usize) -> Manifest {
        let mut w = DatasetWriter::new(name, chunk_size).expect("writer");
        for r in &self.reads {
            w.append(store, &r.meta, &r.bases, &r.quals).expect("append");
        }
        w.finish(store).expect("finish")
    }

    /// Runs `stage` alone over the landed dataset `manifest` through
    /// `Plan::run` on `rt` (the one-stage plan from the state the stage
    /// typically takes, named after the dataset), aligning with
    /// `aligner` when the stage aligns.
    pub fn run_stage(
        &self,
        rt: &PersonaRuntime,
        stage: Stage,
        manifest: &Manifest,
        aligner: Option<&Arc<dyn Aligner>>,
    ) -> PlanReport {
        let request = PlanRequest {
            name: manifest.name.clone(),
            source: PlanSource::Dataset(manifest.clone()),
            chunk_size: 0,
            aligner: aligner.cloned(),
            reference: self.reference.clone(),
        };
        let plan = Plan::builder(stage.input_hint()).then(stage).build().expect("one-stage plan");
        plan.run(rt, request).unwrap_or_else(|e| panic!("{stage}: {e}"))
    }

    /// Runs the standalone aligner (gzipped FASTQ in, SAM out, `threads`
    /// threads) over the reads on a fresh [`TempStore`].
    pub fn run_standalone(&self, aligner: &Arc<dyn Aligner>, threads: usize) -> StandaloneReport {
        let temp = TempStore::new("standalone");
        write_gzipped_fastq(temp.store.as_ref(), "in.fastq.gz", &self.reads).expect("input");
        run_standalone(&temp.store, "in.fastq.gz", "out.sam", &self.reference, aligner, threads)
            .expect("standalone run")
    }

    /// Builds an aligned AGD dataset in `rt`'s store (runs the Persona
    /// align stage quietly) and returns its manifest.
    pub fn write_aligned_agd(
        &self,
        rt: &PersonaRuntime,
        name: &str,
        chunk_size: usize,
    ) -> Manifest {
        let manifest = self.write_agd(rt.store().as_ref(), name, chunk_size);
        let aligned = self.run_stage(rt, Stage::Align, &manifest, Some(&self.snap_aligner()));
        aligned.manifest.expect("align lands a dataset")
    }
}

/// A runtime over a fresh in-memory store, with the default
/// configuration.
pub fn mem_runtime() -> Arc<PersonaRuntime> {
    PersonaRuntime::new(mem_store(), PersonaConfig::default()).expect("runtime")
}

/// A fresh in-memory store as the trait object pipelines take.
pub fn mem_store() -> Arc<dyn ChunkStore> {
    Arc::new(MemStore::new())
}

/// A [`DirStore`] in a fresh temporary directory, removed on drop: the
/// store `bench/`'s workloads run on, for the bins that time I/O.
pub struct TempStore {
    dir: PathBuf,
    /// The store, as the trait object pipelines take.
    pub store: Arc<dyn ChunkStore>,
}

impl TempStore {
    /// Opens a store in `<temp dir>/persona-<tag>-<pid>`, emptied first.
    pub fn new(tag: &str) -> TempStore {
        let dir = std::env::temp_dir().join(format!("persona-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(DirStore::open(&dir).expect("temporary store"));
        TempStore { dir, store }
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Timed runs behind each number a bin prints through [`median_of_runs`].
pub const RUNS: usize = 5;

/// The median of [`RUNS`] values of `sample`, taken one after the
/// other: one sub-second timing on a shared machine is mostly noise.
pub fn median_of_runs(mut sample: impl FnMut() -> f64) -> f64 {
    let mut values: Vec<f64> = (0..RUNS).map(|_| sample()).collect();
    values.sort_by(f64::total_cmp);
    values[RUNS / 2]
}

/// The thread counts to measure on a machine with `hw` ≥ 1 hardware
/// threads: 1, the powers of two below `hw`, then `hw` — strictly
/// increasing and never past `hw`.
pub fn thread_points(hw: usize) -> Vec<usize> {
    let mut points: Vec<usize> =
        std::iter::successors(Some(1), |t| Some(t * 2)).take_while(|&t| t < hw).collect();
    points.push(hw);
    points
}

/// Prints a table header and separator.
pub fn print_header(title: &str, cols: &[&str]) {
    println!("\n=== {title} ===");
    println!("{}", cols.join("\t"));
    println!("{}", "-".repeat(cols.len() * 16));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_and_aligns() {
        let world = World::build(40_000, 100, 1);
        assert_eq!(world.reads.len(), 100);
        assert_eq!(world.total_bases(), 100 * 101);
        let manifest = world.write_aligned_agd(&mem_runtime(), "w", 50);
        assert!(manifest.has_column(persona_agd::columns::RESULTS));
        assert_eq!(manifest.total_records, 100);
    }

    #[test]
    fn thread_points_rise_to_hw() {
        assert_eq!(thread_points(1), [1]);
        assert_eq!(thread_points(2), [1, 2]);
        assert_eq!(thread_points(3), [1, 2, 3]);
        assert_eq!(thread_points(8), [1, 2, 4, 8]);
        assert_eq!(thread_points(12), [1, 2, 4, 8, 12]);
    }

    #[test]
    fn median_of_runs_takes_the_middle_sample() {
        let mut samples = [3.0, 1.0, 5.0, 2.0, 4.0].into_iter();
        assert_eq!(median_of_runs(|| samples.next().unwrap()), 3.0);
        assert_eq!(samples.next(), None);
    }

    #[test]
    fn temp_store_is_removed_on_drop() {
        let temp = TempStore::new("temp-store-test");
        temp.store.put("a", b"x").unwrap();
        let dir = temp.dir.clone();
        assert!(dir.join("a").exists());
        drop(temp);
        assert!(!dir.exists());
    }
}
