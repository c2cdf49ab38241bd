//! Row-oriented BAM sorting baselines (paper Table 2).
//!
//! * [`samtools_sort`] — multi-threaded: parses the whole BAM, sorts
//!   record chunks in parallel, merges, re-encodes. Models `samtools
//!   sort -@`.
//! * [`picard_sort`] — single-threaded whole-file sort. Models Picard
//!   `SortSam`, which "does not have an option for multithreading".
//! * [`sam_to_bam`] — the conversion step Table 2 adds for "Samtools w/
//!   conversion" (samtools "requires sorting input in BAM format").
//!
//! The cost structure the paper measures comes from whole-record
//! decode/encode and BGZF recompression of every byte — which these
//! baselines faithfully pay, unlike Persona's columnar sort.

use std::cmp::Ordering as CmpOrdering;
use std::time::{Duration, Instant};

use persona_compress::deflate::CompressLevel;
use persona_formats::bam::{bgzf_compress_parallel, read_bam, write_bam, write_bam_with};
use persona_formats::sam::{RefMap, SamRecord};

use crate::Result;

/// Outcome of a baseline sort.
#[derive(Debug)]
pub struct BaselineSortReport {
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Records sorted.
    pub records: u64,
}

fn key_of(r: &SamRecord) -> (u32, i64) {
    // Unmapped records (rname None) sort to the front, like coordinate
    // "-1" positions in Persona's sort.
    (r.rname.map_or(0, |c| c + 1), r.pos)
}

/// Multi-threaded BAM coordinate sort (samtools-like).
pub fn samtools_sort(bam_in: &[u8], threads: usize) -> Result<(Vec<u8>, BaselineSortReport)> {
    let started = Instant::now();
    let file = read_bam(bam_in)?;
    let mut records = file.records;
    let n = records.len();

    // Parallel chunk sort + serial k-way merge (samtools' structure).
    let chunk = n.div_ceil(threads.max(1)).max(1);
    let mut parts: Vec<Vec<SamRecord>> = Vec::new();
    {
        let mut rest = records;
        while !rest.is_empty() {
            let tail = rest.split_off(chunk.min(rest.len()));
            parts.push(rest);
            rest = tail;
        }
    }
    std::thread::scope(|s| {
        for part in parts.iter_mut() {
            s.spawn(|| part.sort_by(|a, b| key_of(a).cmp(&key_of(b))));
        }
    });
    // Merge.
    let mut cursors = vec![0usize; parts.len()];
    let mut merged = Vec::with_capacity(n);
    loop {
        let mut best: Option<(usize, (u32, i64))> = None;
        for (p, part) in parts.iter().enumerate() {
            if cursors[p] < part.len() {
                let k = key_of(&part[cursors[p]]);
                if best.map_or(true, |(_, bk)| k.cmp(&bk) == CmpOrdering::Less) {
                    best = Some((p, k));
                }
            }
        }
        match best {
            Some((p, _)) => {
                merged.push(parts[p][cursors[p]].clone());
                cursors[p] += 1;
            }
            None => break,
        }
    }
    records = merged;

    // samtools -@ also parallelizes the BGZF re-encode of the output:
    // the uncompressed BAM payload's blocks are compressed in parallel.
    let mut out = Vec::new();
    write_bam_with(&mut out, &file.refs, records, CompressLevel::Fast, |payload, level| {
        bgzf_compress_parallel(&payload, level, threads.max(1))
    })?;
    Ok((out, BaselineSortReport { elapsed: started.elapsed(), records: n as u64 }))
}

/// Single-threaded BAM coordinate sort (Picard-like).
pub fn picard_sort(bam_in: &[u8]) -> Result<(Vec<u8>, BaselineSortReport)> {
    let started = Instant::now();
    let file = read_bam(bam_in)?;
    let mut records = file.records;
    let n = records.len();
    records.sort_by(|a, b| key_of(a).cmp(&key_of(b)));
    let mut out = Vec::new();
    write_bam(&mut out, &file.refs, records, CompressLevel::Fast)?;
    Ok((out, BaselineSortReport { elapsed: started.elapsed(), records: n as u64 }))
}

/// SAM-text to BAM conversion (the extra step in Table 2's third row).
pub fn sam_to_bam(sam_text: &[u8], refs: &RefMap) -> Result<Vec<u8>> {
    let text = std::str::from_utf8(sam_text)
        .map_err(|_| crate::Error::Tool("SAM text is not UTF-8".into()))?;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('@') {
            continue;
        }
        records.push(SamRecord::parse_line(refs, line, i as u64)?);
    }
    let mut out = Vec::new();
    write_bam(&mut out, refs, records, CompressLevel::Fast)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_agd::manifest::RefContig;
    use persona_agd::results::{CigarKind, CigarOp};

    fn refs() -> RefMap {
        RefMap::new(&[
            RefContig { name: "chr1".into(), length: 100_000 },
            RefContig { name: "chr2".into(), length: 100_000 },
        ])
    }

    fn shuffled_bam(n: usize) -> Vec<u8> {
        let refs = refs();
        let records: Vec<SamRecord> = (0..n)
            .map(|i| SamRecord {
                qname: format!("q{i}").into_bytes(),
                flag: 0,
                rname: Some((i % 2) as u32),
                pos: ((i * 6151) % 90_000) as i64,
                mapq: 50,
                cigar: vec![CigarOp { kind: CigarKind::Match, len: 30 }],
                rnext: None,
                pnext: -1,
                tlen: 0,
                seq: (0..30).map(|j| b"ACGT"[(i + j) % 4]).collect(),
                qual: vec![b'H'; 30],
            })
            .collect();
        let mut out = Vec::new();
        write_bam(&mut out, &refs, records, CompressLevel::Fast).unwrap();
        out
    }

    fn assert_sorted(bam: &[u8], expect_n: usize) {
        let file = read_bam(bam).unwrap();
        assert_eq!(file.records.len(), expect_n);
        assert!(
            file.records.windows(2).all(|w| key_of(&w[0]) <= key_of(&w[1])),
            "not coordinate sorted"
        );
    }

    #[test]
    fn samtools_like_sorts() {
        let bam = shuffled_bam(500);
        let (out, report) = samtools_sort(&bam, 4).unwrap();
        assert_eq!(report.records, 500);
        assert_sorted(&out, 500);
    }

    /// The output is the sorted payload, built once, as `bgzf_compress`
    /// writes it, then the EOF marker; the payload is the one the
    /// single-threaded sort writes.
    #[test]
    fn samtools_like_output_is_the_payload_compressed_once() {
        use persona_formats::bam::{bgzf_compress, bgzf_decompress, BGZF_EOF};
        let bam = shuffled_bam(3_000);
        let (picard, _) = picard_sort(&bam).unwrap();
        let payload = bgzf_decompress(&picard).unwrap();
        assert!(payload.len() > 2 * persona_formats::bam::BGZF_BLOCK_SIZE);
        for threads in [1, 3] {
            let (out, _) = samtools_sort(&bam, threads).unwrap();
            let mut want = bgzf_compress(&payload, CompressLevel::Fast);
            want.extend_from_slice(&BGZF_EOF);
            assert!(out == want, "{threads} threads");
        }
    }

    #[test]
    fn picard_like_sorts() {
        let bam = shuffled_bam(300);
        let (out, report) = picard_sort(&bam).unwrap();
        assert_eq!(report.records, 300);
        assert_sorted(&out, 300);
    }

    #[test]
    fn both_sorts_agree() {
        let bam = shuffled_bam(400);
        let (a, _) = samtools_sort(&bam, 3).unwrap();
        let (b, _) = picard_sort(&bam).unwrap();
        let fa = read_bam(&a).unwrap();
        let fb = read_bam(&b).unwrap();
        let keys_a: Vec<_> = fa.records.iter().map(key_of).collect();
        let keys_b: Vec<_> = fb.records.iter().map(key_of).collect();
        assert_eq!(keys_a, keys_b);
    }

    #[test]
    fn sam_to_bam_conversion() {
        let refs = refs();
        let sam = b"@HD\tVN:1.6\nq1\t0\tchr1\t100\t60\t4M\t*\t0\t0\tACGT\tIIII\nq2\t16\tchr2\t200\t30\t4M\t*\t0\t0\tGGCC\tHHHH\n";
        let bam = sam_to_bam(sam, &refs).unwrap();
        let file = read_bam(&bam).unwrap();
        assert_eq!(file.records.len(), 2);
        assert_eq!(file.records[0].pos, 99); // SAM is 1-based.
        assert_eq!(file.records[1].rname, Some(1));
    }

    #[test]
    fn empty_bam_sorts() {
        let refs = refs();
        let mut empty = Vec::new();
        write_bam(&mut empty, &refs, Vec::new(), CompressLevel::Fast).unwrap();
        let (out, report) = picard_sort(&empty).unwrap();
        assert_eq!(report.records, 0);
        assert_sorted(&out, 0);
    }
}
