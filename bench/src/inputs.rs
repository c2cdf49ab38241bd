//! Seeded inputs and the pinned sizes of the four workloads. The
//! program under test receives only what is generated here.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use persona::config::PersonaConfig;
use persona_align::bwa::{BwaMemAligner, BwaParams};
use persona_align::snap::{SnapAligner, SnapParams};
use persona_align::Aligner;
use persona_index::{FmIndex, SeedIndex};
use persona_seq::simulate::{ReadSimulator, SimParams};
use persona_seq::{Genome, Read};

/// Input sizes. `FULL` is what every recorded number is measured at;
/// `SMOKE` only proves that every code path runs (self-tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Bases in the single-contig reference.
    pub genome_len: usize,
    /// Records per AGD chunk.
    pub chunk_size: usize,
    /// Reads per `fastq_to_bam` plan run.
    pub fastq_to_bam_reads: usize,
    /// Reads in the aligned dataset `aligned_to_sam` starts from.
    pub aligned_to_sam_reads: usize,
    /// Reads in the imported dataset `bwa_align` aligns.
    pub bwa_align_reads: usize,
    /// Reads per `service_mixed` job.
    pub service_job_reads: usize,
    /// Reads in the pool `service_mixed` cuts job inputs from.
    pub service_pool_reads: usize,
    /// Reads between the starts of two consecutive job windows.
    pub service_window_stride: usize,
    /// How many times set-up is repeated for the `setup_s` median.
    pub setup_repeats: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        genome_len: 1_000_000,
        chunk_size: 5_000,
        fastq_to_bam_reads: 50_000,
        aligned_to_sam_reads: 100_000,
        bwa_align_reads: 30_000,
        service_job_reads: 2_000,
        service_pool_reads: 100_000,
        service_window_stride: 160,
        setup_repeats: 3,
    };

    pub const SMOKE: Sizes = Sizes {
        genome_len: 10_000,
        chunk_size: 50,
        fastq_to_bam_reads: 160,
        aligned_to_sam_reads: 160,
        bwa_align_reads: 100,
        service_job_reads: 40,
        service_pool_reads: 1_000,
        service_window_stride: 10,
        setup_repeats: 2,
    };

    /// `"key":value` pairs for the result envelope.
    pub fn to_json(self) -> String {
        format!(
            "{{\"genome_len\":{},\"read_len\":{READ_LEN},\"error_rate\":{ERROR_RATE},\
             \"chunk_size\":{},\"fastq_to_bam_reads\":{},\"aligned_to_sam_reads\":{},\
             \"bwa_align_reads\":{},\"service_job_reads\":{},\"service_pool_reads\":{},\
             \"service_window_stride\":{},\"setup_repeats\":{}}}",
            self.genome_len,
            self.chunk_size,
            self.fastq_to_bam_reads,
            self.aligned_to_sam_reads,
            self.bwa_align_reads,
            self.service_job_reads,
            self.service_pool_reads,
            self.service_window_stride,
            self.setup_repeats,
        )
    }
}

pub const READ_LEN: usize = 101;
pub const ERROR_RATE: f64 = 0.005;

/// Compute threads every workload runs with: set explicitly, because
/// `PersonaConfig::default()` resolves to `nproc - 1`.
pub fn threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4)
}

pub fn config(compute_threads: usize) -> PersonaConfig {
    PersonaConfig { compute_threads, ..PersonaConfig::default() }
}

/// The generated reference and reads, and the reads as FASTQ text.
pub struct World {
    pub genome: Arc<Genome>,
    pub reads: Vec<Read>,
    pub fastq: Vec<u8>,
    pub reference: Vec<(String, u64)>,
}

impl World {
    pub fn build(seed: u64, genome_len: usize, n_reads: usize) -> World {
        let genome = Arc::new(Genome::random_with_seed(seed, &[("chr1", genome_len)]));
        let params = SimParams {
            read_len: READ_LEN,
            error_rate: ERROR_RATE,
            seed: seed ^ 0x5EED,
            ..SimParams::default()
        };
        let reads = ReadSimulator::new(&genome, params).take_single(n_reads);
        let fastq = persona_formats::fastq::to_bytes(&reads);
        let reference = vec![("chr1".to_string(), genome.total_len())];
        World { genome, reads, fastq, reference }
    }

    /// Byte offset of every read's record in `fastq`, plus the total
    /// length: reads `a..b` are exactly `fastq[offsets[a]..offsets[b]]`.
    pub fn fastq_offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.reads.len() + 1);
        let mut pos = 0usize;
        for r in &self.reads {
            offsets.push(pos);
            // "@meta\nbases\n+\nquals\n"
            pos += r.meta.len() + r.bases.len() + r.quals.len() + 6;
        }
        offsets.push(pos);
        assert_eq!(pos, self.fastq.len(), "FASTQ record framing changed");
        offsets
    }

    /// The SNAP-style aligner over this reference, and how long its
    /// hash seed index took to build.
    pub fn snap(&self) -> (Arc<dyn Aligner>, f64) {
        let t = Instant::now();
        let index = Arc::new(SeedIndex::build(&self.genome, 16));
        let build_s = t.elapsed().as_secs_f64();
        (Arc::new(SnapAligner::new(self.genome.clone(), index, SnapParams::default())), build_s)
    }

    /// The BWA-MEM-style aligner and its FM-index build time.
    pub fn bwa(&self) -> (Arc<dyn Aligner>, f64) {
        let t = Instant::now();
        let fm = Arc::new(FmIndex::build(&self.genome));
        let build_s = t.elapsed().as_secs_f64();
        (Arc::new(BwaMemAligner::new(self.genome.clone(), fm, BwaParams::default())), build_s)
    }
}

/// SplitMix64: the seeded stream behind every shuffle and sample the
/// benchmark makes (the inputs themselves come from the `seq` crate's
/// seeded generators).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The kernel's accounting tick (`USER_HZ`) of `/proc/stat`.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) this process has used, all threads,
/// exited ones included, at the clock's nanosecond resolution; 0 where
/// the process CPU clock is unavailable.
pub fn process_cpu_s() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux) for the whole call, and
        // `clock_gettime` writes nothing but that struct.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9;
        }
    }
    0.0
}

/// The machine's CPU accounting at one instant, from the first line
/// of `/proc/stat`: ticks the CPUs spent running (the guest's own
/// work) and ticks the hypervisor gave to someone else while the guest
/// wanted to run (steal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    pub busy: u64,
    pub steal: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| CpuTicks::parse(s.lines().next()?))
            .unwrap_or_default()
    }

    /// `cpu  user nice system idle iowait irq softirq steal ...`
    fn parse(line: &str) -> Option<CpuTicks> {
        let f: Vec<u64> =
            line.strip_prefix("cpu ")?.split_whitespace().filter_map(|v| v.parse().ok()).collect();
        (f.len() >= 8).then(|| CpuTicks { busy: f[0] + f[1] + f[2] + f[5] + f[6], steal: f[7] })
    }
}

/// Times a section and, beside it, what the machine's CPU accounting
/// says happened while it ran.
pub struct Stopwatch {
    started: Instant,
    ticks: CpuTicks,
    cpu_s: f64,
}

/// One stopwatch reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lap {
    /// Wall seconds as the clock read them.
    pub raw_s: f64,
    /// Share of the CPU time asked for that was delivered:
    /// `busy / (busy + steal)` over all CPUs; 1 without steal.
    pub delivered: f64,
    /// CPU seconds the machine spent running meanwhile, all CPUs.
    pub busy_s: f64,
    /// CPU seconds this process used meanwhile, all threads.
    pub cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch { started: Instant::now(), ticks: CpuTicks::now(), cpu_s: process_cpu_s() }
    }

    pub fn stop(self) -> Lap {
        let now = CpuTicks::now();
        let busy = now.busy.saturating_sub(self.ticks.busy) as f64;
        let steal = now.steal.saturating_sub(self.ticks.steal) as f64;
        Lap {
            raw_s: self.started.elapsed().as_secs_f64(),
            delivered: if busy + steal > 0.0 { busy / (busy + steal) } else { 1.0 },
            busy_s: busy / TICKS_PER_S,
            cpu_s: process_cpu_s() - self.cpu_s,
        }
    }
}

impl Lap {
    /// Wall seconds the section would have taken with no CPU time
    /// stolen: the raw reading times the delivered share, but never
    /// less than CPU seconds ÷ CPUs, which no schedule can beat (steal
    /// is sometimes reported for a CPU that had nothing to run).
    ///
    /// Every reported timing is made of these. The sandbox is a 2-vCPU
    /// guest whose host steals anywhere from none to half of the CPU
    /// time, in bursts: between identical runs raw wall clocks spread
    /// 15–40 %, these 4–20 %. On a machine that reports no
    /// steal this is the raw reading.
    pub fn secs(self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64);
        (self.raw_s * self.delivered).max(self.busy_s / cpus).min(self.raw_s)
    }
}

/// `(object name, size)` of every file in a `DirStore` directory.
pub fn dir_objects(dir: &Path) -> std::io::Result<Vec<(String, u64)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_file() {
            out.push((entry.file_name().to_string_lossy().into_owned(), meta.len()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_cache::Digest;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = World::build(11, 5_000, 50);
        let b = World::build(11, 5_000, 50);
        let c = World::build(12, 5_000, 50);
        assert_eq!(Digest::of_bytes(&a.fastq), Digest::of_bytes(&b.fastq));
        assert_ne!(Digest::of_bytes(&a.fastq), Digest::of_bytes(&c.fastq));
        assert!(a.reads.iter().all(|r| r.bases.len() == READ_LEN));
    }

    #[test]
    fn fastq_offsets_cut_whole_records() {
        let w = World::build(3, 5_000, 20);
        let off = w.fastq_offsets();
        let window = &w.fastq[off[5]..off[9]];
        let reads = persona_formats::fastq::from_bytes(window).unwrap();
        assert_eq!(reads, w.reads[5..9]);
    }

    #[test]
    fn cpu_ticks_parse_the_aggregate_line() {
        let t = CpuTicks::parse("cpu  100 5 20 900 7 1 2 30 0 0").unwrap();
        assert_eq!(t, CpuTicks { busy: 128, steal: 30 });
        assert_eq!(CpuTicks::parse("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(CpuTicks::parse("cpu  1 2 3"), None);
    }

    #[test]
    fn lap_takes_out_the_stolen_share_but_not_more_than_cpu_time_allows() {
        let cpus = std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64);
        let lap = |raw_s, delivered, busy_s| Lap { raw_s, delivered, busy_s, cpu_s: busy_s };
        // A quarter of the CPU time asked for was stolen.
        assert_eq!(lap(2.0, 0.75, 0.5).secs(), 1.5);
        // Steal reported for idle CPUs cannot push below CPU time / CPUs.
        assert_eq!(lap(2.0, 0.5, 1.6 * cpus).secs(), 1.6);
        // No steal: the raw reading.
        assert_eq!(lap(2.0, 1.0, 0.1).secs(), 2.0);
    }

    #[test]
    fn splitmix_is_a_seeded_stream() {
        let mut a: Vec<u32> = (0..12).collect();
        let mut b = a.clone();
        let mut c = a.clone();
        SplitMix(5).shuffle(&mut a);
        SplitMix(5).shuffle(&mut b);
        SplitMix(6).shuffle(&mut c);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<u32>>());
    }
}
