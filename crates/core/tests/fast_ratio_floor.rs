//! A floor under `CompressLevel::Fast`'s compression ratio on the
//! payloads the pipeline encodes, so that a faster encoder cannot
//! quietly trade ratio away: the four column payloads of one simulated
//! 5,000-read chunk (as align writes it: reads in simulation order,
//! `results` from the SNAP aligner) and one full BGZF block of BAM
//! records. Each compressed size must stay within its bound of the
//! size the hash-chain matcher reached on the same bytes.
//!
//! The bases column is stored with no codec, its bases five to a 12-bit
//! group; its row holds that stored size to the size DEFLATE made of
//! the same reads packed 3 bits to a base, the layout it replaced.

use std::sync::Arc;

use persona_agd::results::flags;
use persona_agd::{columns, compaction};
use persona_align::snap::{SnapAligner, SnapParams};
use persona_align::Aligner;
use persona_compress::deflate::{deflate_level, inflate, CompressLevel};
use persona_formats::bam;
use persona_formats::sam::{RefMap, SamRecord};
use persona_index::SeedIndex;
use persona_seq::simulate::{ReadSimulator, SimParams};
use persona_seq::Genome;

/// `(payload, bytes, DEFLATE size at Fast, bound)`. The sizes were
/// written by the hash-chain matcher (4 candidates, greedy) at commit
/// 108e5b6; for `bases`, on the 200,000 bytes of 3-bit words the column
/// then held, where the packed groups now take 160,000 bytes stored as
/// they are (32 to a 101-base read), no larger. The `results` column is the one payload allowed more than
/// 1 %: its 28-byte records repeat with a handful of (flag, MAPQ)
/// pairs, and the earlier record that repeats a record's pair is often
/// more than two back among those sharing its four-byte key, so two
/// candidates per hash find it less often than four did (+2.4 % at the
/// two-entry bucket's introduction; this floor fails a further loss).
const FLOOR: [(&str, usize, usize, f64); 5] = [
    ("bases", 160_000, 162_878, 1.00),
    ("qualities", 505_000, 218_124, 1.01),
    ("metadata", 93_325, 33_458, 1.01),
    ("results", 140_176, 26_346, 1.03),
    ("bgzf_block", bam::BGZF_BLOCK_SIZE, 30_072, 1.01),
];

/// The payloads of [`FLOOR`], in its order.
fn payloads() -> Vec<Vec<u8>> {
    let genome = Arc::new(Genome::random_with_seed(4801, &[("chr1", 1_000_000)]));
    let mut sim = ReadSimulator::new(
        &genome,
        SimParams { error_rate: 0.005, seed: 4802, ..SimParams::default() },
    );
    let reads = sim.take_single(5_000);
    let index = Arc::new(SeedIndex::build(&genome, 16));
    let snap = SnapAligner::new(genome.clone(), index, SnapParams::default());

    let (mut bases, mut qualities, mut metadata, mut results) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in &reads {
        compaction::pack_record(&r.bases, &mut bases).unwrap();
        qualities.extend_from_slice(&r.quals);
        metadata.extend_from_slice(&r.meta);
        snap.align_read(&r.bases, &r.quals).encode_into(&mut results);
    }

    // The records as `write_bam` lays them out (unaligned: names,
    // 4-bit bases and qualities are what fills a block), cut to one
    // block.
    let records = reads.iter().map(|r| SamRecord {
        qname: r.meta.clone(),
        flag: flags::UNMAPPED,
        rname: None,
        pos: -1,
        mapq: 0,
        cigar: Vec::new(),
        rnext: None,
        pnext: -1,
        tlen: 0,
        seq: r.bases.clone(),
        qual: r.quals.clone(),
    });
    let mut block = Vec::new();
    let sink = &mut std::io::sink();
    bam::write_bam_with(sink, &RefMap::new(&[]), records, CompressLevel::Fast, |payload, _| {
        block = payload;
        Vec::new()
    })
    .unwrap();
    block.truncate(bam::BGZF_BLOCK_SIZE);
    vec![bases, qualities, metadata, results, block]
}

/// `payload` as it is stored: the bases column with its column's
/// codec, every other payload deflated at `Fast`.
fn stored(name: &str, payload: &[u8]) -> Vec<u8> {
    if name == "bases" {
        let codec = columns::coding(columns::BASES).codec;
        let stored = codec.compress_level(payload, columns::LEVEL);
        assert!(codec.decompress(&stored).unwrap() == payload, "{name} round-trips");
        return stored;
    }
    let packed = deflate_level(payload, CompressLevel::Fast);
    assert!(inflate(&packed).unwrap() == payload, "{name} round-trips");
    packed
}

#[test]
fn fast_stays_within_its_ratio_floor() {
    let mut failures = Vec::new();
    for ((name, len, parent, bound), payload) in FLOOR.into_iter().zip(payloads()) {
        let packed = stored(name, &payload);
        assert_eq!(payload.len(), len, "{name}: the payload is the one the floor was taken on");
        let ratio = packed.len() as f64 / parent as f64;
        println!("{name}: {len} bytes → {} ({ratio:.4} × {parent})", packed.len());
        if ratio > bound {
            failures
                .push(format!("{name}: {} bytes, {ratio:.4} × {parent} > {bound}", packed.len()));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
