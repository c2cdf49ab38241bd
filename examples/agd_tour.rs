//! AGD anatomy: manifest, chunks, selective column reads, random access,
//! per-column codecs (paper §3) and sorted bases coded against their
//! chunk's consensus.
//!
//! Run: `cargo run -p persona-examples --release --example agd_tour`

use persona_agd::builder::DatasetWriter;
use persona_agd::chunk::{ChunkHeader, RawChunk};
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::columns;
use persona_agd::dataset::Dataset;
use persona_examples::DemoWorld;

fn main() {
    let world = DemoWorld::new(1_000);
    let store = MemStore::new();

    // Per-column coding: one table gives each column its record type
    // and codec, and the manifest records each column's codec.
    println!("column coding (level {:?}):", columns::LEVEL);
    for (column, coding) in columns::TABLE {
        println!("  {column:<9} {:?} + {}", coding.record_type, coding.codec);
    }
    println!();
    let mut writer = DatasetWriter::new("tour", 250).expect("writer");
    for r in &world.reads {
        writer.append(&store, &r.meta, &r.bases, &r.quals).expect("append");
    }
    let manifest = writer.finish(&store).expect("finish");

    println!("manifest.json:");
    let json = manifest.to_json().expect("json");
    for line in json.lines().take(24) {
        println!("  {line}");
    }
    println!("  ...\n");

    // Objects on storage (Figure 2's file layout).
    let mut names = store.list().expect("list");
    names.sort();
    println!("objects in the store:");
    for n in names.iter().take(8) {
        println!("  {n}  ({} bytes)", store.get(n).map(|d| d.len()).unwrap_or(0));
    }
    println!("  ... {} objects total\n", names.len());

    // Selective column access: duplicate marking needs only results;
    // here we read only metadata.
    let ds = Dataset::new(manifest);
    let meta_bytes = ds.column_bytes(&store, "metadata").expect("meta");
    let bases_bytes = ds.column_bytes(&store, "bases").expect("bases");
    let qual_bytes = ds.column_bytes(&store, "qual").expect("qual");
    println!("column sizes on storage:");
    println!("  bases    {bases_bytes:>8} B  (base-5 groups, no codec)");
    println!("  qual     {qual_bytes:>8} B  (gzip)");
    println!("  metadata {meta_bytes:>8} B  (gzip)");

    // Random access: one record by global index (reads one chunk).
    let rec = ds.get_record(&store, 777, "bases").expect("record");
    println!(
        "\nrandom access: record 777 has {} bases: {}...",
        rec.len(),
        String::from_utf8_lossy(&rec[..24])
    );

    // The relative index at work: per-record lengths in bases; each
    // record is stored packed (five bases to a 12-bit group, two groups
    // to three bytes: 32 bytes for 101 bases, where the paper's 3-bit
    // words take 40 and need gzip to get near that) and read back as
    // ASCII through `append_plain`.
    let chunk = ds.read_column_chunk(&store, 0, "bases").expect("chunk");
    let lengths: Vec<usize> = (0..4).map(|i| chunk.plain_len(i)).collect();
    let mut read = Vec::new();
    chunk.append_plain(0, &mut read).expect("record 0");
    println!(
        "chunk 0: {} records; relative index begins {lengths:?}; record 0 is {} bytes packed: {}...",
        chunk.len(),
        chunk.record(0).len(),
        String::from_utf8_lossy(&read[..24])
    );

    // A position-sorted chunk, as the sort writes it: the sort holds each
    // read's alignment beside its bases, so a read that lies on the
    // reference as one ungapped match is stored as its start on a
    // consensus the chunk carries (the majority base at each position)
    // and the bases where it differs. The chunk decodes to the same
    // groups; a chunk this coding would not shrink keeps plain groups.
    let dense = DemoWorld::new(6_000);
    let mut aligned: Vec<_> = dense
        .reads
        .iter()
        .map(|r| (dense.aligner.align_read(&r.bases, &r.quals), r.bases.as_slice()))
        .collect();
    aligned.sort_by_key(|(result, _)| (result.location < 0, result.location));
    let sorted = &aligned[..250];
    let bases = columns::pack(columns::BASES, sorted.iter().map(|&(_, b)| b)).expect("bases");
    let results: Vec<Vec<u8>> = sorted.iter().map(|(result, _)| result.encode()).collect();
    let results =
        columns::pack(columns::RESULTS, results.iter().map(|r| r.as_slice())).expect("results");
    let plain = columns::encode_chunk(columns::BASES, &bases);
    let coded = columns::encode_placed_bases(&bases, &results);
    let header = ChunkHeader::decode(&coded).expect("header");
    assert_eq!(RawChunk::decode(&coded).expect("decode"), bases);
    println!(
        "
sorted chunk of {} reads at ~3x coverage: {} B as base-5 groups, {} B as {:?} \
         (decodes to the same groups)",
        sorted.len(),
        plain.len(),
        coded.len(),
        header.record_type
    );
}
