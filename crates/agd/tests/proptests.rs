//! Property-based tests for the AGD format.

use persona_agd::builder::DatasetWriter;
use persona_agd::chunk::{ChunkData, RecordType};
use persona_agd::chunk_io::MemStore;
use persona_agd::compaction;
use persona_agd::dataset::Dataset;
use persona_agd::results::{AlignmentResult, CigarKind, CigarOp};
use persona_compress::codec::Codec;
use persona_compress::deflate::CompressLevel;
use proptest::prelude::*;

fn base_vec(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N')],
        0..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compaction_roundtrip(bases in base_vec(600)) {
        let packed = compaction::pack(&bases).unwrap();
        prop_assert_eq!(packed.len(), compaction::packed_size(bases.len()));
        prop_assert_eq!(compaction::unpack(&packed, bases.len()).unwrap(), bases);
    }

    #[test]
    fn chunk_roundtrip_bases(records in proptest::collection::vec(base_vec(200), 0..40)) {
        let chunk = ChunkData::from_records(
            RecordType::CompactBases,
            records.iter().map(|r| r.as_slice()),
        ).unwrap();
        for codec in [Codec::None, Codec::Gzip] {
            let enc = chunk.encode(codec, CompressLevel::Fast).unwrap();
            let dec = ChunkData::decode(&enc).unwrap();
            prop_assert_eq!(&dec, &chunk);
        }
    }

    #[test]
    fn chunk_roundtrip_text(records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 0..40)) {
        let chunk = ChunkData::from_records(
            RecordType::Text,
            records.iter().map(|r| r.as_slice()),
        ).unwrap();
        let enc = chunk.encode(Codec::Gzip, CompressLevel::Fast).unwrap();
        let dec = ChunkData::decode(&enc).unwrap();
        prop_assert_eq!(dec.iter().collect::<Vec<_>>(), records.iter().map(|r| r.as_slice()).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_decode_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..2_000)) {
        let _ = ChunkData::decode(&data);
    }

    #[test]
    fn chunk_decode_never_panics_on_corruption(
        records in proptest::collection::vec(base_vec(100), 1..20),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let chunk = ChunkData::from_records(
            RecordType::CompactBases,
            records.iter().map(|r| r.as_slice()),
        ).unwrap();
        let mut enc = chunk.encode(Codec::Gzip, CompressLevel::Fast).unwrap();
        let idx = flip_byte % enc.len();
        enc[idx] ^= 1 << flip_bit;
        let _ = ChunkData::decode(&enc);
    }

    #[test]
    fn alignment_result_roundtrip(
        location in -1i64..1_000_000_000,
        mate in -1i64..1_000_000_000,
        tlen in -100_000i32..100_000,
        flags in any::<u16>(),
        mapq in any::<u8>(),
        ops in proptest::collection::vec((0u8..9, 1u32..100_000), 0..20),
    ) {
        let cigar: Vec<CigarOp> = ops
            .into_iter()
            .map(|(k, l)| CigarOp { kind: CigarKind::from_code(k).unwrap(), len: l })
            .collect();
        let r = AlignmentResult { location, mate_location: mate, template_len: tlen, flags, mapq, cigar };
        prop_assert_eq!(AlignmentResult::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn dataset_roundtrip(
        reads in proptest::collection::vec((base_vec(120), 0u8..255), 1..60),
        chunk_size in 1usize..20,
    ) {
        let store = MemStore::new();
        let mut w = DatasetWriter::new("p", chunk_size).unwrap();
        for (bases, tag) in &reads {
            let quals: Vec<u8> = vec![b'!' + (tag % 40); bases.len()];
            let meta = format!("m{tag}");
            w.append(&store, meta.as_bytes(), bases, &quals).unwrap();
        }
        let manifest = w.finish(&store).unwrap();
        prop_assert_eq!(manifest.total_records, reads.len() as u64);
        let ds = Dataset::new(manifest);
        // Every record must be retrievable and equal via random access.
        for (i, (bases, _)) in reads.iter().enumerate() {
            let got = ds.get_record(&store, i as u64, "bases").unwrap();
            prop_assert_eq!(&got, bases);
        }
    }
}
