//! Integration tests for FASTQ/AGD/SAM/BAM conversion (paper §5.7).

use persona_agd::builder::ColumnAppender;
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::columns;
use persona_agd::dataset::Dataset;
use persona_agd::results::{flags, AlignmentResult, CigarKind, CigarOp};
use persona_compress::deflate::CompressLevel;
use persona_formats::convert;
use persona_formats::fastq;
use persona_seq::simulate::{ReadSimulator, SimParams};
use persona_seq::Genome;

fn make_fastq(n: usize) -> Vec<u8> {
    let genome = Genome::random_with_seed(55, &[("chr1", 20_000)]);
    let mut sim = ReadSimulator::new(&genome, SimParams { seed: 5, ..SimParams::default() });
    fastq::to_bytes(&sim.take_single(n))
}

#[test]
fn fastq_agd_fastq_roundtrip() {
    let input = make_fastq(250);
    let store = MemStore::new();
    let manifest = convert::fastq_to_agd(std::io::Cursor::new(&input), &store, "rt", 64).unwrap();
    assert_eq!(manifest.total_records, 250);
    assert_eq!(manifest.records.len(), 4); // 64+64+64+58.

    let ds = Dataset::new(manifest);
    let mut out = Vec::new();
    let n = convert::agd_to_fastq(&ds, &store, &mut out).unwrap();
    assert_eq!(n, 250);
    assert_eq!(fastq::from_bytes(&out).unwrap(), fastq::from_bytes(&input).unwrap());
}

/// Builds an aligned dataset: every read gets a synthetic result.
fn aligned_dataset(store: &MemStore, n: usize) -> Dataset {
    let input = make_fastq(n);
    let mut manifest =
        convert::fastq_to_agd(std::io::Cursor::new(&input), store, "al", 32).unwrap();
    convert::set_reference(&mut manifest, &[("chr1".to_string(), 20_000)]);

    let chunk_sizes: Vec<u32> = manifest.records.iter().map(|e| e.num_records).collect();
    let mut appender = ColumnAppender::new(&mut manifest, columns::RESULTS).unwrap();
    let mut serial = 0u64;
    for &count in &chunk_sizes {
        let recs: Vec<Vec<u8>> = (0..count)
            .map(|_| {
                let r = AlignmentResult {
                    location: (serial * 97 % 19_000) as i64,
                    mate_location: -1,
                    template_len: 0,
                    flags: if serial % 4 == 0 { flags::REVERSE } else { 0 },
                    mapq: 60,
                    cigar: vec![CigarOp { kind: CigarKind::Match, len: 101 }],
                };
                serial += 1;
                r.encode()
            })
            .collect();
        appender.append_chunk(store, recs.iter().map(|r| r.as_slice())).unwrap();
    }
    appender.finish(store).unwrap();
    Dataset::new(manifest)
}

#[test]
fn agd_to_sam_export() {
    let store = MemStore::new();
    let ds = aligned_dataset(&store, 100);
    let mut out = Vec::new();
    let n = convert::agd_to_sam(&ds, &store, &mut out).unwrap();
    assert_eq!(n, 100);
    let text = String::from_utf8(out).unwrap();
    assert!(text.starts_with("@HD"));
    assert!(text.contains("@SQ\tSN:chr1\tLN:20000"));
    // Header (3 lines) + 100 records.
    assert_eq!(text.lines().count(), 103);
    // Every record line has 11 fields.
    for line in text.lines().skip(3) {
        assert_eq!(line.split('\t').count(), 11, "line: {line}");
    }
}

#[test]
fn agd_to_bam_roundtrip() {
    let store = MemStore::new();
    let ds = aligned_dataset(&store, 80);
    let mut out = Vec::new();
    let n = convert::agd_to_bam(&ds, &store, &mut out, CompressLevel::Fast).unwrap();
    assert_eq!(n, 80);
    let bam = persona_formats::bam::read_bam(&out).unwrap();
    assert_eq!(bam.records.len(), 80);
    assert_eq!(bam.refs.contigs()[0].name, "chr1");
    // Positions are within the contig.
    for rec in &bam.records {
        assert!(rec.pos >= 0 && rec.pos < 20_000);
        assert_eq!(rec.seq.len(), 101);
    }
}

#[test]
fn sam_reverse_reads_are_revcomped_on_export() {
    let store = MemStore::new();
    let ds = aligned_dataset(&store, 8);
    // Record 0 and 4 have REVERSE flags per the generator above.
    let bases0 = ds.get_record(&store, 0, columns::BASES).unwrap();
    let mut out = Vec::new();
    convert::agd_to_sam(&ds, &store, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let line0 = text.lines().nth(3).unwrap();
    let seq_field = line0.split('\t').nth(9).unwrap();
    assert_eq!(seq_field.as_bytes(), persona_seq::dna::revcomp(&bases0).as_slice());
}

#[test]
fn import_throughput_accounting() {
    // Sanity for the §5.7 benchmark harness: conversion handles
    // multi-chunk datasets and the store holds all column objects.
    let input = make_fastq(500);
    let store = MemStore::new();
    let manifest = convert::fastq_to_agd(std::io::Cursor::new(&input), &store, "tp", 100).unwrap();
    assert_eq!(manifest.records.len(), 5);
    let names = store.list().unwrap();
    // 5 chunks × 3 columns + manifest.
    assert_eq!(names.len(), 16);
}
