//! Criterion micro-benchmarks of the compute kernels: aligners,
//! edit-distance/SW, FM-index, codecs, base compaction, consensus coding, chunk codec,
//! and the dataflow framework primitives (queue/executor), whose
//! overhead underpins the paper's "≤1% framework overhead" claim.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use persona_agd::chunk::RawChunk;
use persona_agd::{columns, compaction};
use persona_align::edit::{landau_vishkin, landau_vishkin_bitparallel, landau_vishkin_scalar};
use persona_align::sw::{
    smith_waterman, smith_waterman_scalar, smith_waterman_striped, smith_waterman_ungapped,
    striped_traceback_repeated, Scoring,
};
use persona_align::Kernel;
use persona_bench::World;
use persona_compress::codec::Codec;
use persona_compress::deflate::huffman::limited_code_lengths;
use persona_compress::deflate::{deflate_level, inflate_with_capacity, CompressLevel};
use persona_dataflow::{Executor, QueueHandle, SubmitOpts};
use persona_formats::bam;
use persona_formats::sam::{RefMap, SamRecord};

fn bench_aligners(c: &mut Criterion) {
    let world = World::build(200_000, 400, 101);
    let snap = world.snap_aligner();
    let bwa = world.bwa_aligner();
    let mut g = c.benchmark_group("aligners");
    g.measurement_time(Duration::from_secs(4));
    g.sample_size(10);
    g.throughput(Throughput::Elements(world.total_bases()));
    for (name, aligner) in [("snap", &snap), ("bwa", &bwa)] {
        g.bench_function(BenchmarkId::new("bases_per_sec", name), |b| {
            b.iter(|| {
                for r in &world.reads {
                    std::hint::black_box(aligner.align_read(&r.bases, &r.quals));
                }
            })
        });
    }
    g.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let world = World::build(50_000, 1, 103);
    let text = &world.genome.contig(0).seq[1000..1140];
    let pattern = &world.genome.contig(0).seq[1000..1101];
    println!(
        "kernel dispatch: active={} | simd level={}",
        Kernel::active().name(),
        Kernel::simd_level()
    );
    let mut g = c.benchmark_group("kernels");
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(20);
    // Dispatcher entry points (whatever kernel is active) ...
    g.bench_function("landau_vishkin_101bp", |b| {
        b.iter(|| std::hint::black_box(landau_vishkin(text, pattern, 12)))
    });
    // `pattern` is an exact substring of `text`, so this dispatcher row
    // times the ungapped proof, not the DP; `smith_waterman_101bp_gapped`
    // (a 2-base deletion, which the proof declines) times the proof's
    // refusal plus the DP the dispatcher then runs.
    g.bench_function("smith_waterman_101bp", |b| {
        b.iter(|| std::hint::black_box(smith_waterman(text, pattern, Scoring::default())))
    });
    let gapped: Vec<u8> = [&text[..50], &text[52..103]].concat();
    g.bench_function("smith_waterman_101bp_gapped", |b| {
        b.iter(|| std::hint::black_box(smith_waterman(text, &gapped, Scoring::default())))
    });
    // ... and both variants side by side, so every run carries the
    // scalar-vs-SIMD comparison.
    g.bench_function(BenchmarkId::new("landau_vishkin_101bp", "scalar"), |b| {
        b.iter(|| std::hint::black_box(landau_vishkin_scalar(text, pattern, 12)))
    });
    g.bench_function(BenchmarkId::new("landau_vishkin_101bp", "bitparallel"), |b| {
        b.iter(|| std::hint::black_box(landau_vishkin_bitparallel(text, pattern, 12)))
    });
    g.bench_function(BenchmarkId::new("smith_waterman_101bp", "scalar"), |b| {
        b.iter(|| std::hint::black_box(smith_waterman_scalar(text, pattern, Scoring::default())))
    });
    g.bench_function(BenchmarkId::new("smith_waterman_101bp", "striped"), |b| {
        b.iter(|| std::hint::black_box(smith_waterman_striped(text, pattern, Scoring::default())))
    });
    g.bench_function(BenchmarkId::new("smith_waterman_101bp", "ungapped"), |b| {
        b.iter(|| std::hint::black_box(smith_waterman_ungapped(text, pattern, Scoring::default())))
    });
    // A 130 bp read against a 170-base window scores past the 8-bit
    // cells' guard at the default scoring: the 16-bit body.
    let text130 = &world.genome.contig(0).seq[1000..1170];
    let pattern130 = &world.genome.contig(0).seq[1000..1130];
    g.bench_function(BenchmarkId::new("smith_waterman_130bp", "striped"), |b| {
        b.iter(|| {
            std::hint::black_box(smith_waterman_striped(text130, pattern130, Scoring::default()))
        })
    });
    // Large-k verification of a dissimilar sequence — the regime where
    // the bit-parallel kernel's flat cost beats the scalar diagonal
    // DP's O(k²) worst case and the dispatcher picks it.
    let distant = &world.genome.contig(0).seq[30_000..30_101];
    g.bench_function(BenchmarkId::new("landau_vishkin_distant_k40", "scalar"), |b| {
        b.iter(|| std::hint::black_box(landau_vishkin_scalar(text, distant, 40)))
    });
    g.bench_function(BenchmarkId::new("landau_vishkin_distant_k40", "bitparallel"), |b| {
        b.iter(|| std::hint::black_box(landau_vishkin_bitparallel(text, distant, 40)))
    });
    let fm = persona_index::FmIndex::build(&world.genome);
    g.bench_function("fm_index_count_25bp", |b| {
        b.iter(|| std::hint::black_box(fm.count(&pattern[..25])))
    });
    // The three budgets of the BWA path (docs/PERFORMANCE.md §1), each
    // with its unit of work as the throughput so the JSON carries
    // ns/extend, ns/traceback and ns/read directly. The index is the
    // regression benchmark's size (1 Mbp: larger than L1, as any real
    // FM-index is), not the 50 kbp one above.
    let big = World::build(1_000_000, 4096, 105);
    let big_fm = Arc::new(persona_index::FmIndex::build(&big.genome));
    // The bare `extend` step, both strands of a read: one `extend` per
    // base, restarting from the full interval when a match ends (the
    // reverse strand of a forward read ends every ~10 bases). This is
    // not `bwa.rs`'s walk, which takes its first 8 bases from the k-mer
    // table and finishes unique matches on the text (`bwa_seed_101bp`
    // times that); every base here is one occurrence-table step. The
    // reads rotate so the walk meets the index in L2, as a stream of
    // distinct reads does, not the same 200 lines in L1.
    let strands: Vec<[Vec<u8>; 2]> =
        big.reads.iter().map(|r| [r.bases.clone(), persona_seq::dna::revcomp(&r.bases)]).collect();
    let walk = |strands: &[Vec<u8>; 2]| {
        let mut acc = 0u32;
        for read in strands {
            let mut iv = big_fm.full_interval();
            for &base in read.iter().rev() {
                let next = big_fm.extend(persona_index::bwt::base_code(base), iv);
                iv = if next.is_empty() { big_fm.full_interval() } else { next };
                acc ^= iv.lo;
            }
        }
        acc
    };
    // Steady state: the index (not the reads) is what stays cached.
    for s in &strands {
        std::hint::black_box(walk(s));
    }
    let mut turn = 0usize;
    g.throughput(Throughput::Elements(2 * big.reads[0].bases.len() as u64));
    g.bench_function("fm_extend_101bp", |b| {
        b.iter(|| {
            turn += 1;
            std::hint::black_box(walk(&strands[turn % strands.len()]))
        })
    });
    // Traceback alone: one forward pass, then many tracebacks of its
    // matrix, on a read with a 3-base deletion and a 2-base insertion so
    // gap steps are on the path.
    let mut gapped = pattern.to_vec();
    gapped.drain(30..33);
    gapped.splice(70..70, *b"GT");
    const TRACEBACKS: usize = 512;
    g.throughput(Throughput::Elements(TRACEBACKS as u64));
    g.bench_function("sw_traceback_101bp", |b| {
        b.iter(|| {
            std::hint::black_box(striped_traceback_repeated(
                text,
                &gapped,
                Scoring::default(),
                TRACEBACKS,
            ))
        })
    });
    let bwa = persona_align::bwa::BwaMemAligner::new(
        big.genome.clone(),
        big_fm.clone(),
        persona_align::bwa::BwaParams::default(),
    );
    // Seeding alone, both strands of a read as `align_read` runs it,
    // 64 reads per iteration (throughput in reads/s).
    const SEED_BATCH: usize = 64;
    g.throughput(Throughput::Elements(SEED_BATCH as u64));
    g.bench_function("bwa_seed_101bp", |b| {
        b.iter(|| {
            turn += SEED_BATCH;
            (turn..turn + SEED_BATCH)
                .map(|i| {
                    let [fwd, rc] = &strands[i % strands.len()];
                    bwa.seed_count(fwd) + bwa.seed_count(rc)
                })
                .sum::<usize>()
        })
    });
    g.throughput(Throughput::Elements(1));
    g.bench_function("bwa_align_read", |b| {
        b.iter(|| {
            turn += 1;
            let r = &big.reads[turn % big.reads.len()];
            std::hint::black_box(persona_align::Aligner::align_read(&bwa, &r.bases, &r.quals))
        })
    });
    g.finish();
}

/// The SNAP path's budgets (docs/PERFORMANCE.md §5), on the regression
/// benchmark's reference size (1 Mbp: a 20 MiB seed table, far past L2)
/// and on a 16 Mbp one (337 MiB, past the LLC of most machines: the
/// regime of the paper's human-genome runs), where BWA seeding is timed
/// too. One iteration is `BATCH` reads (throughput in reads/s), taken
/// in turn from 4,096, so the table is met as a stream of distinct
/// reads meets it rather than with the same lines in L1.
fn bench_snap(c: &mut Criterion) {
    use persona_align::snap::{SnapAligner, SnapParams};
    use persona_align::sw::banded_global_cigar;
    use persona_align::Aligner;
    use persona_index::SeedIndex;

    const BATCH: usize = 256;
    let mut g = c.benchmark_group("kernels");
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    let big = World::build(1_000_000, 4096, 105);
    g.throughput(Throughput::Elements(1));
    g.bench_function("seed_index_build", |b| {
        b.iter(|| std::hint::black_box(SeedIndex::build(&big.genome, 16).distinct_seeds()))
    });
    g.sample_size(40);
    g.throughput(Throughput::Elements(BATCH as u64));
    // The next `BATCH` items of `items`, round-robin across iterations.
    let mut turn = 0usize;
    let mut batch = move |len: usize| {
        turn += BATCH;
        (turn..turn + BATCH).map(move |i| i % len)
    };
    let index = Arc::new(SeedIndex::build(&big.genome, 16));
    g.bench_function("seed_index_lookup", |b| {
        b.iter(|| {
            batch(big.reads.len())
                .map(|i| index.lookup(&big.reads[i].bases[i % 80..][..16]).map_or(0, |h| h.len()))
                .sum::<usize>()
        })
    });
    let snap = SnapAligner::new(big.genome.clone(), index.clone(), SnapParams::default());
    g.bench_function("snap_seed_101bp", |b| {
        b.iter(|| {
            batch(big.reads.len()).map(|i| snap.seed_candidates(&big.reads[i].bases)).sum::<usize>()
        })
    });
    g.bench_function("snap_align_read", |b| {
        b.iter(|| {
            batch(big.reads.len())
                .map(|i| snap.align_read(&big.reads[i].bases, &big.reads[i].quals).mapq as usize)
                .sum::<usize>()
        })
    });
    // The CIGAR step exactly as the aligner runs it, once per mapped
    // read: the winning window, the read on the winning strand, and a
    // band of the verified distance + 1.
    let max_k = SnapParams::default().max_k;
    let seq = &big.genome.contig(0).seq;
    let winners: Vec<(&[u8], Vec<u8>, usize)> = big
        .reads
        .iter()
        .filter_map(|r| {
            let hit = snap.align_read(&r.bases, &r.quals);
            if hit.is_unmapped() {
                return None;
            }
            let at = hit.location as usize;
            let window = &seq[at..(at + r.bases.len() + max_k as usize).min(seq.len())];
            let read = if hit.is_reverse() {
                persona_seq::dna::revcomp(&r.bases)
            } else {
                r.bases.clone()
            };
            let dist = landau_vishkin(window, &read, max_k)?;
            Some((window, read, dist.max(1) as usize + 1))
        })
        .collect();
    g.bench_function("snap_cigar_101bp", |b| {
        b.iter(|| {
            batch(winners.len())
                .map(|i| {
                    let (window, read, band) = &winners[i];
                    banded_global_cigar(window, read, *band).map_or(0, |(cost, _)| cost)
                })
                .sum::<u32>()
        })
    });
    drop((snap, index));

    let huge = World::build(16_000_000, 4096, 106);
    let index = Arc::new(SeedIndex::build(&huge.genome, 16));
    let snap = SnapAligner::new(huge.genome.clone(), index, SnapParams::default());
    g.bench_function(BenchmarkId::new("snap_seed_101bp", "16Mbp"), |b| {
        b.iter(|| {
            batch(huge.reads.len())
                .map(|i| snap.seed_candidates(&huge.reads[i].bases))
                .sum::<usize>()
        })
    });
    drop(snap);
    // BWA seeding on the same reference: a 16 Mbp FM-index (~15 MiB,
    // text included) outgrows L2, so the walks' occurrence-table steps
    // go to the LLC or DRAM, toward the regime the paper's Fig. 8
    // measures for BWA-MEM.
    let fm = Arc::new(persona_index::FmIndex::build(&huge.genome));
    let bwa = persona_align::bwa::BwaMemAligner::new(
        huge.genome.clone(),
        fm,
        persona_align::bwa::BwaParams::default(),
    );
    let strands: Vec<[Vec<u8>; 2]> =
        huge.reads.iter().map(|r| [r.bases.clone(), persona_seq::dna::revcomp(&r.bases)]).collect();
    g.bench_function(BenchmarkId::new("bwa_seed_101bp", "16Mbp"), |b| {
        b.iter(|| {
            batch(strands.len())
                .map(|i| bwa.seed_count(&strands[i][0]) + bwa.seed_count(&strands[i][1]))
                .sum::<usize>()
        })
    });
    g.finish();
}

/// The codec paths as the pipeline drives them: the three deflated
/// column payloads of one 5,000-read chunk (its `results` aligned by
/// SNAP) and one full BGZF block of BAM records, all at
/// `CompressLevel::Fast` (the only level the pipeline uses), plus the
/// per-block and per-read kernels underneath: a Huffman code, and a
/// read's bases packed into and unpacked from their base-5 groups (the
/// `bases` column is stored with no codec).
fn bench_codecs(c: &mut Criterion) {
    let world = World::build(1_000_000, 5_000, 107);
    let qualities: Vec<u8> = world.reads.iter().flat_map(|r| r.quals.iter().copied()).collect();
    let metadata: Vec<u8> = world.reads.iter().flat_map(|r| r.meta.iter().copied()).collect();
    let snap = world.snap_aligner();
    let mut results = Vec::new();
    for r in &world.reads {
        snap.align_read(&r.bases, &r.quals).encode_into(&mut results);
    }
    drop(snap);

    let mut g = c.benchmark_group("codecs");
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    for (name, payload) in
        [("qualities", &qualities), ("metadata", &metadata), ("results", &results)]
    {
        g.throughput(Throughput::Bytes(payload.len() as u64));
        let packed = Codec::Gzip.compress_level(payload, CompressLevel::Fast);
        g.bench_function(BenchmarkId::new("gzip_fast", name), |b| {
            b.iter(|| {
                std::hint::black_box(Codec::Gzip.compress_level(payload, CompressLevel::Fast))
            })
        });
        g.bench_function(BenchmarkId::new("gunzip", name), |b| {
            b.iter(|| std::hint::black_box(Codec::Gzip.decompress(&packed).unwrap()))
        });
        let deflated = deflate_level(payload, CompressLevel::Fast);
        g.bench_function(BenchmarkId::new("inflate", name), |b| {
            b.iter(|| {
                std::hint::black_box(inflate_with_capacity(&deflated, payload.len()).unwrap())
            })
        });
    }

    // The records as `write_bam` lays them out (unaligned: names, 4-bit
    // bases and qualities are what fills a block), cut to one block.
    let mut bam_payload = Vec::new();
    let records = world.reads.iter().map(|r| SamRecord {
        qname: r.meta.clone(),
        flag: persona_agd::results::flags::UNMAPPED,
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
    bam::write_bam_with(
        &mut std::io::sink(),
        &RefMap::new(&[]),
        records,
        CompressLevel::Fast,
        |payload, _| {
            bam_payload = payload;
            Vec::new()
        },
    )
    .unwrap();
    bam_payload.truncate(bam::BGZF_BLOCK_SIZE);
    assert_eq!(bam_payload.len(), bam::BGZF_BLOCK_SIZE);
    g.throughput(Throughput::Bytes(bam_payload.len() as u64));
    g.bench_function("bgzf_block", |b| {
        b.iter(|| std::hint::black_box(bam::bgzf_block(&bam_payload, CompressLevel::Fast)))
    });

    // One Huffman code over the full literal/length alphabet: built
    // once per DEFLATE block, so once per 64 KiB BGZF block at least.
    let freqs: Vec<u32> = (0..286u32).map(|s| s.wrapping_mul(2_654_435_761) % 997 + 1).collect();
    g.throughput(Throughput::Elements(1));
    g.bench_function("huffman_lengths_286", |b| {
        let mut lens = [0u8; 286];
        b.iter(|| {
            limited_code_lengths(std::hint::black_box(&freqs), 15, &mut lens);
            std::hint::black_box(lens[0])
        })
    });

    let read = &world.reads[0].bases;
    g.throughput(Throughput::Elements(read.len() as u64));
    g.bench_function("base_compaction_pack", |b| {
        let mut out = Vec::with_capacity(compaction::packed_size(read.len()));
        b.iter(|| {
            out.clear();
            compaction::pack_record(std::hint::black_box(read), &mut out).unwrap();
            std::hint::black_box(out.len())
        })
    });
    g.bench_function("base_compaction_unpack", |b| {
        let packed = compaction::pack(read).unwrap();
        let mut out = Vec::with_capacity(read.len());
        b.iter(|| {
            out.clear();
            let packed = std::hint::black_box(packed.as_slice());
            compaction::unpack_record(packed, read.len(), &mut out).unwrap();
            std::hint::black_box(out.len())
        })
    });

    // One position-sorted chunk of 5,000 reads at 10x coverage, as the
    // sort writes it: coded against its consensus, and decoded to groups.
    let (bases, results) = sorted_chunk(&World::build(50_000, 5_000, 113));
    let coded = columns::encode_placed_bases(&bases, &results);
    let header = persona_agd::ChunkHeader::decode(&coded).unwrap();
    assert_eq!(header.record_type, persona_agd::RecordType::ConsensusBases);
    g.throughput(Throughput::Elements(bases.len() as u64));
    g.bench_function("consensus/encode", |b| {
        b.iter(|| std::hint::black_box(columns::encode_placed_bases(&bases, &results)))
    });
    g.bench_function("consensus/decode", |b| {
        b.iter(|| std::hint::black_box(RawChunk::decode(&coded).unwrap()))
    });
    g.finish();
}

/// The stored `bases` and `results` chunks of `world`'s reads aligned
/// by SNAP and sorted by position, unmapped reads last.
fn sorted_chunk(world: &World) -> (RawChunk, RawChunk) {
    let snap = world.snap_aligner();
    let mut aligned: Vec<_> = world
        .reads
        .iter()
        .map(|r| (snap.align_read(&r.bases, &r.quals), r.bases.as_slice()))
        .collect();
    aligned.sort_by_key(|(result, _)| (result.location < 0, result.location));
    let results: Vec<Vec<u8>> = aligned.iter().map(|(result, _)| result.encode()).collect();
    let bases = columns::pack(columns::BASES, aligned.iter().map(|&(_, b)| b)).unwrap();
    let results = columns::pack(columns::RESULTS, results.iter().map(|r| r.as_slice())).unwrap();
    (bases, results)
}

/// The output path's kernels (docs/PERFORMANCE.md §6): CRC-32 by table
/// and by carry-less multiply at three sizes (throughput in bytes), and
/// one 101 bp read written as a SAM line and as a BAM record straight
/// from its columns, next to the record-and-`format!` path the writers
/// replaced (throughput in reads).
fn bench_output(c: &mut Criterion) {
    use persona_agd::results::{flags, AlignmentResult, CigarKind, CigarOp};
    use persona_compress::crc32::{update_clmul, update_table};
    use persona_formats::sam::{self, SamRow};

    let mut g = c.benchmark_group("kernels");
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(20);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let noise: Vec<u8> = (0..1 << 20)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect();
    for (size, label) in [(64usize, "64B"), (4096, "4KiB"), (1 << 20, "1MiB")] {
        let data = &noise[..size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(BenchmarkId::new("crc32/table", label), |b| {
            b.iter(|| std::hint::black_box(update_table(!0, std::hint::black_box(data))))
        });
        if update_clmul(!0, b"").is_some() {
            g.bench_function(BenchmarkId::new("crc32/clmul", label), |b| {
                b.iter(|| std::hint::black_box(update_clmul(!0, std::hint::black_box(data))))
            });
        }
    }

    let world = World::build(1_000_000, 1024, 111);
    let refs = RefMap::new(&[persona_agd::manifest::RefContig {
        name: "chr1".into(),
        length: world.genome.total_len(),
    }]);
    let results: Vec<AlignmentResult> = (0..world.reads.len())
        .map(|i| AlignmentResult {
            location: (i as i64 * 977) % 990_000,
            mate_location: -1,
            template_len: 0,
            flags: if i % 2 == 0 { flags::REVERSE } else { 0 },
            mapq: 60,
            cigar: vec![CigarOp { kind: CigarKind::Match, len: 101 }],
        })
        .collect();
    let rows: Vec<SamRow> = world
        .reads
        .iter()
        .zip(&results)
        .map(|(r, res)| SamRow::from_result(&refs, &r.meta, &r.bases, &r.quals, res))
        .collect();
    g.throughput(Throughput::Elements(rows.len() as u64));
    let mut out = Vec::with_capacity(1 << 20);
    g.bench_function(BenchmarkId::new("sam_record_101bp", "writer"), |b| {
        b.iter(|| {
            out.clear();
            for row in &rows {
                sam::write_line(&mut out, &refs, row);
                out.push(b'\n');
            }
            std::hint::black_box(out.len())
        })
    });
    g.bench_function(BenchmarkId::new("sam_record_101bp", "oracle"), |b| {
        b.iter(|| {
            out.clear();
            for row in &rows {
                out.extend_from_slice(&oracle::sam_line(&SamRecord::from_row(row), &refs));
                out.push(b'\n');
            }
            std::hint::black_box(out.len())
        })
    });
    g.bench_function(BenchmarkId::new("bam_record_101bp", "writer"), |b| {
        b.iter(|| {
            out.clear();
            for row in &rows {
                bam::write_record(&mut out, row);
            }
            std::hint::black_box(out.len())
        })
    });
    g.bench_function(BenchmarkId::new("bam_record_101bp", "oracle"), |b| {
        b.iter(|| {
            out.clear();
            for row in &rows {
                let body = oracle::bam_body(&SamRecord::from_row(row));
                out.extend_from_slice(&(body.len() as u32).to_le_bytes());
                out.extend_from_slice(&body);
            }
            std::hint::black_box(out.len())
        })
    });
    g.finish();
}

/// The SAM and BAM record formatting the row writers replaced, kept
/// here as the baseline of the `*_record_101bp` rows (the format crate
/// keeps the same code as its test oracle).
mod oracle {
    use persona_formats::sam::{RefMap, SamRecord};

    pub fn sam_line(rec: &SamRecord, refs: &RefMap) -> Vec<u8> {
        let mut out = Vec::with_capacity(rec.seq.len() * 2 + 64);
        out.extend_from_slice(&rec.qname);
        let name = |c: Option<u32>| match c {
            Some(c) => refs.contigs()[c as usize].name.clone(),
            None => "*".to_string(),
        };
        let rnext = if rec.rnext.is_some() && rec.rnext == rec.rname {
            "=".to_string()
        } else {
            name(rec.rnext)
        };
        let cigar: String = if rec.cigar.is_empty() {
            "*".to_string()
        } else {
            rec.cigar.iter().map(|op| format!("{}{}", op.len, op.kind.to_char())).collect()
        };
        let fields = format!(
            "\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t",
            rec.flag,
            name(rec.rname),
            rec.pos + 1,
            rec.mapq,
            cigar,
            rnext,
            rec.pnext + 1,
            rec.tlen,
        );
        out.extend_from_slice(fields.as_bytes());
        out.extend_from_slice(if rec.seq.is_empty() { b"*" } else { &rec.seq });
        out.push(b'\t');
        out.extend_from_slice(if rec.qual.is_empty() { b"*" } else { &rec.qual });
        out
    }

    pub fn bam_body(rec: &SamRecord) -> Vec<u8> {
        let name_len = rec.qname.len() + 1;
        let l_seq = rec.seq.len();
        let mut out = Vec::with_capacity(32 + name_len + 4 * rec.cigar.len() + l_seq);
        out.extend_from_slice(&rec.rname.map_or(-1, |c| c as i32).to_le_bytes());
        out.extend_from_slice(&(rec.pos as i32).to_le_bytes());
        out.push(name_len as u8);
        out.push(rec.mapq);
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(rec.cigar.len() as u16).to_le_bytes());
        out.extend_from_slice(&rec.flag.to_le_bytes());
        out.extend_from_slice(&(l_seq as u32).to_le_bytes());
        out.extend_from_slice(&rec.rnext.map_or(-1, |c| c as i32).to_le_bytes());
        out.extend_from_slice(&(rec.pnext as i32).to_le_bytes());
        out.extend_from_slice(&rec.tlen.to_le_bytes());
        out.extend_from_slice(&rec.qname);
        out.push(0);
        for op in &rec.cigar {
            out.extend_from_slice(&((op.len << 4) | op.kind as u32).to_le_bytes());
        }
        let nibble = |b: u8| match b {
            b'=' => 0,
            b'A' => 1,
            b'C' => 2,
            b'M' => 3,
            b'G' => 4,
            b'R' => 5,
            b'S' => 6,
            b'V' => 7,
            b'T' => 8,
            b'W' => 9,
            b'Y' => 10,
            b'H' => 11,
            b'K' => 12,
            b'D' => 13,
            b'B' => 14,
            _ => 15,
        };
        let mut nib = Vec::with_capacity(l_seq.div_ceil(2));
        for pair in rec.seq.chunks(2) {
            nib.push((nibble(pair[0]) << 4) | pair.get(1).map_or(0, |&b| nibble(b)));
        }
        out.extend_from_slice(&nib);
        out.extend(rec.qual.iter().map(|&q| q.saturating_sub(b'!')));
        out
    }
}

fn bench_chunks(c: &mut Criterion) {
    let world = World::build(50_000, 2_000, 109);
    // Encoding packs the bases and stores them with the column's coding,
    // as import does; decoding leaves them packed, as every stage reads
    // a chunk.
    let encode =
        || columns::encode(columns::BASES, world.reads.iter().map(|r| r.bases.as_slice())).unwrap();
    let encoded = encode();
    let mut g = c.benchmark_group("agd_chunks");
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    g.throughput(Throughput::Bytes(world.reads.iter().map(|r| r.bases.len() as u64).sum()));
    g.bench_function("encode_2k_reads", |b| b.iter(|| std::hint::black_box(encode())));
    g.bench_function("decode_2k_reads", |b| {
        b.iter(|| std::hint::black_box(RawChunk::decode(&encoded).unwrap()))
    });
    g.finish();
}

fn bench_framework(c: &mut Criterion) {
    let mut g = c.benchmark_group("framework_overhead");
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(20);
    // Queue round-trip cost per message (the coarse-grain edge cost).
    g.bench_function("queue_push_pop", |b| {
        let q: QueueHandle<u64> = QueueHandle::new("bench", 1024);
        let _p = q.producer();
        b.iter(|| {
            q.push(42).unwrap();
            std::hint::black_box(q.pop().unwrap());
        })
    });
    // Executor batch dispatch (fine-grain task cost, Fig. 4).
    let ex = Arc::new(Executor::new(2));
    g.bench_function("executor_batch_of_16", |b| {
        b.iter(|| {
            ex.spawn_map((0..16).collect(), SubmitOpts::default(), |_, i: usize| {
                std::hint::black_box(i * 2);
            })
            .join()
            .unwrap();
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_aligners,
    bench_kernels,
    bench_snap,
    bench_codecs,
    bench_output,
    bench_chunks,
    bench_framework
);
criterion_main!(benches);
