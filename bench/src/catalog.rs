//! The metric catalogue: every name the benchmark prints, with its
//! unit. `BENCHMARK.json` lists the same names; the smoke self-test
//! checks the two against each other and against what a run prints.

use std::collections::BTreeMap;

use crate::stats::Metric;

pub const WORKLOADS: [&str; 4] = ["fastq_to_bam", "aligned_to_sam", "bwa_align", "service_mixed"];

/// Printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("reads_per_s", "reads/s"),
    ("cpu_us_per_read", "us/read"),
    ("peak_rss_mb", "MB"),
    ("stored_bytes_per_input_byte", "ratio"),
];

/// Printed by every workload with `--trace 1`; a layer a workload does
/// not cross (or that is not measured on it) reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("formats.fastq_parse_ns_per_read", "ns/read"),
    ("formats.bgzf_ns_per_byte", "ns/byte"),
    ("formats.bam_write_self_ns_per_read", "ns/read"),
    ("formats.sam_format_ns_per_read", "ns/read"),
    ("compress.gzip_encode_ns_per_byte", "ns/byte"),
    ("compress.gzip_decode_ns_per_byte", "ns/byte"),
    ("compress.gzip_ratio", "ratio"),
    ("agd.chunk_encode_self_ns_per_read", "ns/read"),
    ("agd.chunk_decode_self_ns_per_read", "ns/read"),
    ("agd.results_encode_ns_per_read", "ns/read"),
    ("agd.results_decode_ns_per_read", "ns/read"),
    ("agd.stored_bytes_per_read", "bytes/read"),
    ("agd.manifest_json_us", "us"),
    ("store.put_ns_per_byte", "ns/byte"),
    ("store.get_ns_per_byte", "ns/byte"),
    ("store.busy_s", "s"),
    ("store.put_ops", "count"),
    ("store.get_ops", "count"),
    ("store.bytes_written", "bytes"),
    ("store.bytes_read", "bytes"),
    ("index.seed_time_ns_per_read", "ns/read"),
    ("index.ops_per_read", "ops/read"),
    ("index.build_s", "s"),
    ("align.verify_time_ns_per_read", "ns/read"),
    ("align.dp_cells_per_read", "cells/read"),
    ("align.candidates_per_read", "cand/read"),
    ("align.mapped_per_candidate", "ratio"),
    ("align.read_ns_p50", "ns"),
    ("align.read_ns_p99", "ns"),
    ("align.busy_s", "s"),
    ("align.bare_reads_per_s", "reads/s"),
    ("dataflow.task_overhead_ns", "ns"),
    ("dataflow.queue_hop_ns", "ns"),
    ("dataflow.speedup_nt_over_1t", "ratio"),
    ("core.import.wall_s", "s"),
    ("core.import.busy_frac", "ratio"),
    ("core.align.wall_s", "s"),
    ("core.align.busy_frac", "ratio"),
    ("core.sort.wall_s", "s"),
    ("core.sort.busy_frac", "ratio"),
    ("core.dupmark.wall_s", "s"),
    ("core.dupmark.busy_frac", "ratio"),
    ("core.export.wall_s", "s"),
    ("core.export.busy_frac", "ratio"),
    ("core.staged_over_fused", "ratio"),
    ("core.align_overhead_frac", "ratio"),
    ("core.residual_ns_per_read", "ns/read"),
    ("cache.hit_ratio", "ratio"),
    ("cache.reuse_saved_ms", "ms"),
    ("cache.lookup_us", "us"),
    ("server.latency_ms_p50.full_cold", "ms"),
    ("server.latency_ms_p50.full_warm", "ms"),
    ("server.latency_ms_p50.import_align", "ms"),
    ("server.latency_ms_p50.import_only", "ms"),
    ("server.job_latency_ms_p50", "ms"),
    ("server.job_latency_ms_p95", "ms"),
    ("server.jobs_per_s", "jobs/s"),
    ("server.admission_wait_us_p50", "us"),
    ("server.admission_wait_us_p95", "us"),
    ("server.journal_append_us_p50", "us"),
    ("server.journal_fsync_us_p50", "us"),
    ("server.journal_fsyncs", "count"),
    ("server.journal_bytes_per_job", "bytes/job"),
    ("server.inproc_latency_ms_p50", "ms"),
    ("wire.frame_encode_ns_per_byte", "ns/byte"),
    ("wire.frame_decode_ns_per_byte", "ns/byte"),
    ("wire.bytes_in_per_job", "bytes/job"),
    ("wire.bytes_out_per_job", "bytes/job"),
    ("wire.backpressure_stalls", "count"),
    ("wire.overhead_ms_p50", "ms"),
    ("wire.status_rtt_us_p50", "us"),
    ("wire.status_rtt_us_p99", "us"),
    ("telemetry.traced_over_untraced", "ratio"),
    ("telemetry.counter_inc_ns", "ns"),
    ("telemetry.histogram_observe_ns", "ns"),
    ("baseline.standalone_reads_per_s", "reads/s"),
];

/// Per-layer metrics that are counts of the program's work: with the
/// same seed they repeat exactly on the batch workloads, and `compare`
/// requires it. (`service_mixed` runs for a fixed time, so its counts
/// depend on how many jobs finished.)
pub const EXACT_ON_BATCH: &[&str] = &[
    "compress.gzip_ratio",
    "agd.stored_bytes_per_read",
    "store.put_ops",
    "store.get_ops",
    "store.bytes_written",
    "store.bytes_read",
    "index.ops_per_read",
    "align.dp_cells_per_read",
    "align.candidates_per_read",
    "align.mapped_per_candidate",
];

/// What a workload measured, by metric name.
#[derive(Default)]
pub struct Measured(BTreeMap<String, Metric>);

impl Measured {
    pub fn put(&mut self, metric: Metric) {
        self.0.insert(metric.name.clone(), metric);
    }

    pub fn single(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put(Metric::single(name, value, unit));
    }

    /// The full catalogue in catalogue order: measured values where a
    /// workload has them, 0 for the rest.
    ///
    /// # Panics
    ///
    /// If a measured name or unit is not the catalogue's: the catalogue
    /// is the contract with `BENCHMARK.json`.
    pub fn into_catalogue(mut self, catalogue: &[(&str, &'static str)]) -> Vec<Metric> {
        let out: Vec<Metric> = catalogue
            .iter()
            .map(|&(name, unit)| match self.0.remove(name) {
                Some(m) => {
                    assert_eq!(m.unit, unit, "unit of {name}");
                    m
                }
                None => Metric::single(name, 0.0, unit),
            })
            .collect();
        assert!(self.0.is_empty(), "metrics outside the catalogue: {:?}", self.0.keys());
        out
    }
}
