//! The sort's output bytes, pinned. Every object of the sorted dataset
//! (chunks of every column plus the manifest) is digested and compared
//! with a table captured before the sort's data path became columnar,
//! for coordinate and query-name keys, over a landed aligned dataset
//! and over a fused `align‖sort`, at several chunk sizes — among them
//! one that folds two superchunk tiers — and at 1, 2 and 4 compute
//! threads. The SAM and BAM that `sort,dupmark,export-*` write are
//! pinned the same way. Fused ≡ staged runs one sort on both sides, so
//! only this table notices a sort that changes bytes consistently.
//!
//! Compressed bytes also move with the DEFLATE encoder, which may
//! change them as long as what they decode to does not. So every cell
//! of compressed bytes has a twin over what they hold: each sorted
//! dataset's records, column by column, decoded, and the BAM's
//! BGZF-inflated payload. An encoder change re-pins the compressed
//! cells and leaves the twins (and the SAM) where they are; so did the
//! move of the bases column from DEFLATE-compressed 3-bit words to
//! uncompressed base-5 groups, and the coding of sorted bases against
//! their chunk's consensus.

use std::sync::Arc;

use persona::caching::Digest;
use persona::config::PersonaConfig;
use persona::pipeline::sort::{sort_dataset, SortKey};
use persona::plan::{DataState, Plan, PlanRequest, PlanSource, Stage};
use persona::runtime::PersonaRuntime;
use persona_agd::chunk::{ChunkData, ChunkHeader, RecordType, HEADER_SIZE};
use persona_agd::chunk_io::{ChunkStore, MemStore};
use persona_agd::columns;
use persona_agd::compaction::{packed_size, BASES_PER_GROUP};
use persona_agd::manifest::Manifest;
use persona_align::snap::{SnapAligner, SnapParams};
use persona_align::Aligner;
use persona_compress::crc32::crc32;
use persona_compress::deflate::CompressLevel;
use persona_index::SeedIndex;
use persona_seq::simulate::{ReadSimulator, SimParams};
use persona_seq::Genome;

/// Chunk sizes: one record per chunk, a size that folds one
/// superchunk tier, a size with no superchunk at all, and one whose
/// 80-odd chunks fold a second tier.
const CHUNK_SIZES: [usize; 4] = [1, 7, 64, 5];

const THREADS: [usize; 3] = [1, 2, 4];

/// `(chunk size, case, digest)`. Cases: `coordinate` and `queryname`
/// sort a landed aligned dataset, `fused` is the sorted dataset of an
/// `encoded-agd>align,sort` plan, and `sam`/`bam` are the outputs of
/// `aligned>sort,dupmark,export-*`. A case with ` records` appended
/// digests the sorted dataset's decoded records, and `bam payload` the
/// BAM's inflated payload.
const GOLDEN: &[(usize, &str, &str)] = &[
    (1, "coordinate", "6fae949dcce88d7798f076696fbf37cf"),
    (1, "queryname", "97504e01dea3decea6e43bc190b548b1"),
    (1, "fused", "6fae949dcce88d7798f076696fbf37cf"),
    (1, "sam", "ad97f1b901780f4e183d7839a1c16b94"),
    (1, "bam", "5de0d043cc374fab3f1ae9694fa629c7"),
    (1, "coordinate records", "69608887edc77d495f43cd97371b32d2"),
    (1, "queryname records", "19be50a06af49dc70845d6addd36bff2"),
    (1, "fused records", "69608887edc77d495f43cd97371b32d2"),
    (1, "bam payload", "bfe1ccb0317942322875ae43b0e356a3"),
    (7, "coordinate", "1e818e66c4c470ec22d97836b40095dc"),
    (7, "queryname", "4f72dd9968772d463288c9f8c1d93848"),
    (7, "fused", "1e818e66c4c470ec22d97836b40095dc"),
    (7, "sam", "ad97f1b901780f4e183d7839a1c16b94"),
    (7, "bam", "5de0d043cc374fab3f1ae9694fa629c7"),
    (7, "coordinate records", "69608887edc77d495f43cd97371b32d2"),
    (7, "queryname records", "19be50a06af49dc70845d6addd36bff2"),
    (7, "fused records", "69608887edc77d495f43cd97371b32d2"),
    (7, "bam payload", "bfe1ccb0317942322875ae43b0e356a3"),
    (64, "coordinate", "7ac74ac69e8cebcfae9d3364d0d820db"),
    (64, "queryname", "e4b5593a836b18bd37446bc27b96f2ca"),
    (64, "fused", "7ac74ac69e8cebcfae9d3364d0d820db"),
    (64, "sam", "ad97f1b901780f4e183d7839a1c16b94"),
    (64, "bam", "5de0d043cc374fab3f1ae9694fa629c7"),
    (64, "coordinate records", "69608887edc77d495f43cd97371b32d2"),
    (64, "queryname records", "19be50a06af49dc70845d6addd36bff2"),
    (64, "fused records", "69608887edc77d495f43cd97371b32d2"),
    (64, "bam payload", "bfe1ccb0317942322875ae43b0e356a3"),
    (5, "coordinate", "270c1b4854c8217b6ee59fb4b0077faf"),
    (5, "queryname", "b9c9e4bfb4558bdfe0cce2cd46474bcc"),
    (5, "fused", "270c1b4854c8217b6ee59fb4b0077faf"),
    (5, "sam", "ad97f1b901780f4e183d7839a1c16b94"),
    (5, "bam", "5de0d043cc374fab3f1ae9694fa629c7"),
    (5, "coordinate records", "69608887edc77d495f43cd97371b32d2"),
    (5, "queryname records", "19be50a06af49dc70845d6addd36bff2"),
    (5, "fused records", "69608887edc77d495f43cd97371b32d2"),
    (5, "bam payload", "bfe1ccb0317942322875ae43b0e356a3"),
];

struct World {
    fastq: Vec<u8>,
    aligner: Arc<dyn Aligner>,
    reference: Vec<(String, u64)>,
}

/// Reads from a small genome, some duplicated (equal coordinates for
/// dupmark, equal names for the query-name sort), plus reads of a
/// foreign genome that stay unmapped and whose names repeat the first
/// batch's.
fn world() -> World {
    let genome = Arc::new(Genome::random_with_seed(2801, &[("chr1", 30_000), ("chr2", 12_000)]));
    let mut sim = ReadSimulator::new(
        &genome,
        SimParams { error_rate: 0.004, seed: 2802, ..SimParams::default() },
    );
    let mut reads = sim.take_single(330);
    let dupes: Vec<_> = reads.iter().step_by(6).cloned().collect();
    reads.extend(dupes);
    let foreign = Genome::random_with_seed(2803, &[("x", 5_000)]);
    let mut sim = ReadSimulator::new(&foreign, SimParams { seed: 2804, ..SimParams::default() });
    reads.extend(sim.take_single(25));
    let index = Arc::new(SeedIndex::build(&genome, 16));
    let aligner: Arc<dyn Aligner> =
        Arc::new(SnapAligner::new(genome.clone(), index, SnapParams::default()));
    let reference = genome.contigs().iter().map(|c| (c.name.clone(), c.seq.len() as u64)).collect();
    World { fastq: persona_formats::fastq::to_bytes(&reads), aligner, reference }
}

impl World {
    fn request(&self, source: PlanSource, chunk_size: usize) -> PlanRequest {
        PlanRequest {
            name: "g".into(),
            source,
            chunk_size,
            aligner: Some(self.aligner.clone()),
            reference: self.reference.clone(),
        }
    }

    /// A store holding dataset `g` in `state` (encoded or aligned).
    fn land(&self, state: DataState, chunk_size: usize) -> (Arc<dyn ChunkStore>, Manifest) {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let plan = match state {
            DataState::EncodedAgd => Plan::import_only(),
            _ => Plan::import_align(),
        };
        let rt = PersonaRuntime::new(store.clone(), PersonaConfig::small()).unwrap();
        let source = PlanSource::fastq_bytes(self.fastq.clone());
        let report = plan.run(&rt, self.request(source, chunk_size)).unwrap();
        (store, report.final_manifest().unwrap().clone())
    }
}

fn config(threads: usize) -> PersonaConfig {
    PersonaConfig { compute_threads: threads, ..PersonaConfig::small() }
}

/// A fresh store holding a copy of every object of `store`.
fn copy_of(store: &Arc<dyn ChunkStore>) -> Arc<dyn ChunkStore> {
    let copy: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
    for name in store.list().unwrap() {
        copy.put(&name, &store.get(&name).unwrap()).unwrap();
    }
    copy
}

/// One digest over the names and bytes of every object of dataset
/// `name` (its chunk objects and its manifest), in name order.
fn dataset_digest(store: &Arc<dyn ChunkStore>, name: &str) -> String {
    let mut names: Vec<String> = store
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with(&format!("{name}-")) || *n == format!("{name}.manifest.json"))
        .collect();
    names.sort();
    assert!(names.len() > 1, "dataset {name} has objects");
    let mut all = Vec::new();
    for n in names {
        let obj = store.get(&n).unwrap();
        all.extend_from_slice(n.as_bytes());
        all.extend_from_slice(&(obj.len() as u64).to_le_bytes());
        all.extend_from_slice(&obj);
    }
    Digest::of_bytes(&all).to_hex()
}

/// One digest over the records of every column of dataset `name`,
/// decoded (bases unpacked), column by column in manifest order.
fn records_digest(store: &Arc<dyn ChunkStore>, name: &str) -> String {
    let json = store.get(&format!("{name}.manifest.json")).unwrap();
    let manifest = Manifest::from_json(std::str::from_utf8(&json).unwrap()).unwrap();
    let mut all = Vec::new();
    for column in &manifest.columns {
        all.extend_from_slice(column.name.as_bytes());
        for entry in &manifest.records {
            let obj = store.get(&Manifest::chunk_object_name(&entry.path, &column.name)).unwrap();
            let chunk = ChunkData::decode(&obj).unwrap();
            for i in 0..chunk.len() {
                all.extend_from_slice(&(chunk.record(i).len() as u32).to_le_bytes());
                all.extend_from_slice(chunk.record(i));
            }
        }
    }
    Digest::of_bytes(&all).to_hex()
}

/// Checks the compressed objects of the sorted dataset `g.sorted` and
/// the records they hold against the table's `case` rows.
fn check_sorted(chunk: usize, case: &str, threads: usize, store: &Arc<dyn ChunkStore>) {
    check(chunk, case, threads, &dataset_digest(store, "g.sorted"));
    check(chunk, &format!("{case} records"), threads, &records_digest(store, "g.sorted"));
}

/// Checks `digest` against the table; a missing row fails with the
/// row to add.
fn check(chunk: usize, case: &str, threads: usize, digest: &str) {
    let Some((_, _, want)) = GOLDEN.iter().find(|(c, k, _)| *c == chunk && *k == case) else {
        panic!("no golden row: ({chunk}, \"{case}\", \"{digest}\"),");
    };
    assert_eq!(digest, *want, "chunk {chunk} {case} at {threads} threads");
}

#[test]
fn landed_sort_bytes_are_pinned() {
    let w = world();
    for chunk in CHUNK_SIZES {
        let (store, manifest) = w.land(DataState::Aligned, chunk);
        for threads in THREADS {
            for (key, case) in
                [(SortKey::Coordinate, "coordinate"), (SortKey::QueryName, "queryname")]
            {
                let store = copy_of(&store);
                let (sorted, report) =
                    sort_dataset(&store, &manifest, key, "g.sorted", &config(threads)).unwrap();
                assert_eq!(sorted.total_records, manifest.total_records);
                if chunk == 5 {
                    // Past 64 runs the superchunk tier folds into itself.
                    assert!(report.superchunks > report.runs / 8, "{report:?}");
                }
                check_sorted(chunk, case, threads, &store);
            }
        }
    }
}

#[test]
fn fused_align_sort_bytes_are_pinned() {
    let w = world();
    let plan =
        Plan::builder(DataState::EncodedAgd).then(Stage::Align).then(Stage::Sort).build().unwrap();
    for chunk in CHUNK_SIZES {
        let (store, manifest) = w.land(DataState::EncodedAgd, chunk);
        for threads in THREADS {
            let store = copy_of(&store);
            let rt = PersonaRuntime::new(store.clone(), config(threads)).unwrap();
            let request = w.request(PlanSource::Dataset(manifest.clone()), chunk);
            plan.run(&rt, request).unwrap();
            check_sorted(chunk, "fused", threads, &store);
        }
    }
}

#[test]
fn sam_and_bam_after_sort_and_dupmark_are_pinned() {
    let w = world();
    let export = |stage| {
        Plan::builder(DataState::Aligned)
            .then(Stage::Sort)
            .then(Stage::Dupmark)
            .then(stage)
            .build()
            .unwrap()
    };
    for chunk in CHUNK_SIZES {
        let (store, manifest) = w.land(DataState::Aligned, chunk);
        for threads in THREADS {
            for (stage, case) in [(Stage::ExportSam, "sam"), (Stage::ExportBam, "bam")] {
                let store = copy_of(&store);
                let rt = PersonaRuntime::new(store, config(threads)).unwrap();
                let request = w.request(PlanSource::Dataset(manifest.clone()), chunk);
                let report = export(stage).run(&rt, request).unwrap();
                let out = report.sam.or(report.bam).expect("an export ran");
                check(chunk, case, threads, &Digest::of_bytes(&out).to_hex());
                if case == "bam" {
                    let payload = persona_formats::bam::bgzf_decompress(&out).unwrap();
                    check(chunk, "bam payload", threads, &Digest::of_bytes(&payload).to_hex());
                }
            }
        }
    }
}

/// Sets every bit no base uses — the padding nibble after each record
/// with an odd number of base groups — in a bases chunk, re-compressing
/// with the chunk's own codec.
fn garble_unused_bits(obj: &[u8]) -> Vec<u8> {
    let header = ChunkHeader::decode(obj).unwrap();
    assert_eq!(header.record_type, RecordType::CompactBases);
    let n = header.record_count as usize;
    let index_end = HEADER_SIZE + 4 * n;
    let mut raw = header.codec.decompress(&obj[index_end..]).unwrap();
    let mut pos = 0usize;
    for i in 0..n {
        let at = HEADER_SIZE + 4 * i;
        let bases = u32::from_le_bytes(obj[at..at + 4].try_into().unwrap()) as usize;
        pos += packed_size(bases);
        if bases.div_ceil(BASES_PER_GROUP) % 2 == 1 {
            raw[pos - 1] |= 0xF0;
        }
    }
    assert_eq!(pos, raw.len());
    let compressed = header.codec.compress_level(&raw, CompressLevel::Fast);
    let header = ChunkHeader {
        compressed_len: compressed.len() as u64,
        payload_crc: crc32(&compressed),
        ..header
    };
    let mut out = header.encode().to_vec();
    out.extend_from_slice(&obj[HEADER_SIZE..index_end]);
    out.extend_from_slice(&compressed);
    out
}

/// Garbage in the padding nibbles of packed bases is not data: the
/// sort writes the bytes it writes for the same records with zeroed
/// nibbles.
#[test]
fn garbage_in_unused_base_bits_sorts_to_the_pinned_bytes() {
    let w = world();
    let chunk = 7;
    let (store, manifest) = w.land(DataState::Aligned, chunk);
    for entry in &manifest.records {
        let name = Manifest::chunk_object_name(&entry.path, columns::BASES);
        let garbled = garble_unused_bits(&store.get(&name).unwrap());
        assert_ne!(garbled, store.get(&name).unwrap());
        store.put(&name, &garbled).unwrap();
    }
    for (key, case) in [(SortKey::Coordinate, "coordinate"), (SortKey::QueryName, "queryname")] {
        let store = copy_of(&store);
        sort_dataset(&store, &manifest, key, "g.sorted", &config(2)).unwrap();
        check_sorted(chunk, case, 2, &store);
    }
}
