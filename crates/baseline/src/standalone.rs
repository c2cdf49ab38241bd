//! The standalone aligner baseline (paper Table 1, Fig. 5, Fig. 6).
//!
//! Models how SNAP/BWA run outside Persona: one monolithic program that
//! reads a *gzipped FASTQ* file from storage, aligns with an ad-hoc
//! thread pool, and writes a *SAM text* file back — the row-oriented
//! formats whose I/O volume Table 1 contrasts with AGD (18 GB read and
//! 67 GB written vs. 15 GB and 4 GB).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use persona_agd::chunk_io::ChunkStore;
use persona_agd::manifest::RefContig;
use persona_align::Aligner;
use persona_formats::fastq;
use persona_formats::sam::{RefMap, SamRecord};
use persona_seq::Read;

use crate::{Error, Result};

/// Outcome of a standalone alignment run.
#[derive(Debug)]
pub struct StandaloneReport {
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Reads aligned.
    pub reads: u64,
    /// Bases aligned.
    pub bases: u64,
    /// Compressed input bytes read.
    pub input_bytes: u64,
    /// SAM output bytes written.
    pub output_bytes: u64,
}

impl StandaloneReport {
    /// Megabases aligned per second.
    pub fn mbases_per_sec(&self) -> f64 {
        self.bases as f64 / 1e6 / self.elapsed.as_secs_f64()
    }
}

/// Runs the standalone aligner: reads `input_object` (gzipped FASTQ)
/// from `store`, aligns with `threads` worker threads, writes SAM text
/// as `output_object` (in segments, modeling streaming output).
///
/// The output is written *during* alignment (as SNAP does), which is
/// what makes its writes compete with reads on a shared disk (Fig. 5a).
pub fn run_standalone(
    store: &Arc<dyn ChunkStore>,
    input_object: &str,
    output_object: &str,
    reference: &[(String, u64)],
    aligner: &Arc<dyn Aligner>,
    threads: usize,
) -> Result<StandaloneReport> {
    let started = Instant::now();
    let compressed = store.get(input_object)?;
    let input_bytes = compressed.len() as u64;
    let reads = fastq::from_gzip_bytes(&compressed)?;

    let refs = RefMap::new(
        &reference
            .iter()
            .map(|(name, length)| RefContig { name: name.clone(), length: *length })
            .collect::<Vec<_>>(),
    );

    // Ad-hoc thread pool over fixed batches; SAM segments are written
    // to storage as they fill (streaming output).
    let batch = 2_000usize;
    let next = Arc::new(AtomicUsize::new(0));
    let bases = Arc::new(AtomicU64::new(0));
    let out_bytes = Arc::new(AtomicU64::new(0));
    let seg_counter = Arc::new(AtomicUsize::new(0));
    let reads = Arc::new(reads);
    let refs = Arc::new(refs);
    let errors = Arc::new(parking_lot::Mutex::new(Vec::<Error>::new()));

    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            let next = next.clone();
            let reads = reads.clone();
            let refs = refs.clone();
            let aligner = aligner.clone();
            let bases = bases.clone();
            let out_bytes = out_bytes.clone();
            let seg_counter = seg_counter.clone();
            let store = store.clone();
            let errors = errors.clone();
            let output_object = output_object.to_string();
            s.spawn(move || loop {
                let lo = next.fetch_add(batch, Ordering::Relaxed);
                if lo >= reads.len() {
                    return;
                }
                let hi = (lo + batch).min(reads.len());
                let mut sam = Vec::with_capacity((hi - lo) * 256);
                for read in &reads[lo..hi] {
                    let result = aligner.align_read(&read.bases, &read.quals);
                    bases.fetch_add(read.bases.len() as u64, Ordering::Relaxed);
                    let rec = SamRecord::from_result(
                        &refs,
                        &read.meta,
                        &read.bases,
                        &read.quals,
                        &result,
                    );
                    sam.extend_from_slice(&rec.to_line(&refs));
                    sam.push(b'\n');
                }
                let seg = seg_counter.fetch_add(1, Ordering::Relaxed);
                out_bytes.fetch_add(sam.len() as u64, Ordering::Relaxed);
                if let Err(e) = store.put(&format!("{output_object}.{seg:06}"), &sam) {
                    errors.lock().push(Error::Io(e));
                    return;
                }
            });
        }
    });
    if let Some(e) = errors.lock().pop() {
        return Err(e);
    }

    Ok(StandaloneReport {
        elapsed: started.elapsed(),
        reads: reads.len() as u64,
        bases: bases.load(Ordering::Relaxed),
        input_bytes,
        output_bytes: out_bytes.load(Ordering::Relaxed),
    })
}

/// Writes a gzipped-FASTQ object for standalone input (test/bench prep).
pub fn write_gzipped_fastq(store: &dyn ChunkStore, object: &str, reads: &[Read]) -> Result<u64> {
    let mut raw = Vec::new();
    for r in reads {
        fastq::write_record(&mut raw, r)?;
    }
    let packed = persona_compress::gzip::compress_level(
        &raw,
        persona_compress::deflate::CompressLevel::Fast,
    );
    let n = packed.len() as u64;
    store.put(object, &packed)?;
    Ok(n)
}

/// Collects the SAM text a standalone run produced (concatenating the
/// streamed segments in order).
pub fn collect_sam_output(store: &dyn ChunkStore, output_object: &str) -> Result<Vec<u8>> {
    let mut names: Vec<String> =
        store.list()?.into_iter().filter(|n| n.starts_with(&format!("{output_object}."))).collect();
    names.sort();
    let mut out = Vec::new();
    for n in names {
        out.extend_from_slice(&store.get(&n)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_agd::chunk_io::MemStore;
    use persona_align::snap::{SnapAligner, SnapParams};
    use persona_index::SeedIndex;
    use persona_seq::read::Origin;
    use persona_seq::simulate::{ReadSimulator, SimParams};
    use persona_seq::Genome;

    fn world(n: usize) -> (Arc<Genome>, Arc<dyn ChunkStore>, Arc<dyn Aligner>, Vec<Read>) {
        let genome = Arc::new(Genome::random_with_seed(88, &[("chr1", 50_000)]));
        let index = Arc::new(SeedIndex::build(&genome, 16));
        let aligner: Arc<dyn Aligner> =
            Arc::new(SnapAligner::new(genome.clone(), index, SnapParams::default()));
        let mut sim = ReadSimulator::new(
            &genome,
            SimParams { error_rate: 0.005, seed: 8, ..SimParams::default() },
        );
        let reads = sim.take_single(n);
        (genome, Arc::new(MemStore::new()), aligner, reads)
    }

    #[test]
    fn end_to_end_standalone_run() {
        let (genome, store, aligner, reads) = world(300);
        write_gzipped_fastq(store.as_ref(), "in.fastq.gz", &reads).unwrap();
        let report = run_standalone(
            &store,
            "in.fastq.gz",
            "out.sam",
            &[("chr1".to_string(), genome.total_len())],
            &aligner,
            3,
        )
        .unwrap();
        assert_eq!(report.reads, 300);
        assert_eq!(report.bases, 300 * 101);
        assert!(report.input_bytes > 0);
        assert!(report.output_bytes > report.input_bytes, "SAM should outweigh gz FASTQ");

        // Output parses as SAM and is mostly correct.
        let refs = RefMap::new(&[RefContig { name: "chr1".into(), length: genome.total_len() }]);
        let sam = collect_sam_output(store.as_ref(), "out.sam").unwrap();
        let text = String::from_utf8(sam).unwrap();
        let mut correct = 0;
        let mut ambiguous = 0;
        let mut total = 0;
        for line in text.lines() {
            let rec = SamRecord::parse_line(&refs, line, 0).unwrap();
            let origin = Origin::parse(&rec.qname).unwrap();
            total += 1;
            if rec.pos == origin.pos as i64 {
                correct += 1;
            } else if rec.mapq < 10 {
                ambiguous += 1; // Repeat-copy placements flagged low-MAPQ.
            }
        }
        assert_eq!(total, 300);
        assert!(correct + ambiguous >= 290, "{correct}+{ambiguous} of 300");
        assert!(correct >= 265, "only {correct}/300 correct");
    }

    #[test]
    fn output_volume_dwarfs_input_like_table1() {
        // Table 1's point: row-oriented SAM output is an order of
        // magnitude larger than the compressed input.
        let (genome, store, aligner, reads) = world(400);
        write_gzipped_fastq(store.as_ref(), "i.gz", &reads).unwrap();
        let report = run_standalone(
            &store,
            "i.gz",
            "o.sam",
            &[("chr1".to_string(), genome.total_len())],
            &aligner,
            2,
        )
        .unwrap();
        let ratio = report.output_bytes as f64 / report.input_bytes as f64;
        assert!(ratio > 2.0, "SAM/gz ratio only {ratio:.2}");
    }

    #[test]
    fn missing_input_errors() {
        let (_, store, aligner, _) = world(1);
        assert!(run_standalone(&store, "absent.gz", "o", &[], &aligner, 1).is_err());
    }
}
