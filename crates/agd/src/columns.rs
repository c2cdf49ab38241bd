//! Standard column names (§3: "three columns to store bases, quality
//! scores, and metadata, and a fourth to store alignment results") and
//! the column-coding policy: how each column's chunks are written.
//!
//! The paper lets AGD pick compression "on a column-by-column basis".
//! This module is the only place that choice is made. [`coding`] gives
//! every column its record type and codec: the four standard columns
//! from [`TABLE`], any other column (one a [`ColumnAppender`] adds) Text
//! with gzip. Every gzip-coded column is written at [`LEVEL`]. Bases are
//! stored with no codec: packed in base-5 groups they take less room
//! than DEFLATE made of the paper's 3-bit words, at no coding cost
//! ([`compaction`](crate::compaction)). The sort's write, which holds
//! each read's alignment beside its bases, codes its `bases` chunks
//! through [`encode_placed_bases`]: against the chunk's consensus where
//! that is smaller ([`consensus`](crate::consensus)). No writer takes a
//! codec, record type or level of its own, so the same records (and,
//! for sorted bases, the same alignments) make the same chunk bytes
//! whichever stage writes them.
//!
//! Reading never consults the policy: a chunk's header and the
//! manifest name the codec it was written with.
//!
//! [`ColumnAppender`]: crate::builder::ColumnAppender

use persona_compress::codec::Codec;
use persona_compress::deflate::CompressLevel;

use crate::chunk::{RawChunk, RecordType};
use crate::manifest::Manifest;
use crate::Result;

/// Base characters, stored compacted and uncompressed.
pub const BASES: &str = "bases";
/// Quality scores.
pub const QUAL: &str = "qual";
/// Read metadata.
pub const METADATA: &str = "metadata";
/// Alignment results.
pub const RESULTS: &str = "results";

/// The columns an imported read fills, in the order of the dataset's
/// row group.
pub const READ_COLUMNS: [&str; 3] = [BASES, QUAL, METADATA];

/// How one column's chunks are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coding {
    /// Record encoding of the data block.
    pub record_type: RecordType,
    /// Compression codec of the data block.
    pub codec: Codec,
}

/// Effort for every gzip-coded column.
pub const LEVEL: CompressLevel = CompressLevel::Fast;

/// The coding of each standard column.
pub const TABLE: [(&str, Coding); 4] = [
    (BASES, Coding { record_type: RecordType::CompactBases, codec: Codec::None }),
    (QUAL, Coding { record_type: RecordType::Text, codec: Codec::Gzip }),
    (METADATA, Coding { record_type: RecordType::Text, codec: Codec::Gzip }),
    (RESULTS, Coding { record_type: RecordType::Results, codec: Codec::Gzip }),
];

/// The coding of `column`: its [`TABLE`] row, else Text with gzip.
pub fn coding(column: &str) -> Coding {
    TABLE
        .iter()
        .find(|(name, _)| *name == column)
        .map_or(Coding { record_type: RecordType::Text, codec: Codec::Gzip }, |&(_, c)| c)
}

/// `records` as a stored chunk of `column`: bases packed.
pub fn pack<'a>(column: &str, records: impl IntoIterator<Item = &'a [u8]>) -> Result<RawChunk> {
    RawChunk::from_records(coding(column).record_type, records)
}

/// Encodes a stored chunk of `column` as its chunk object.
pub fn encode_chunk(column: &str, chunk: &RawChunk) -> Vec<u8> {
    chunk.encode(coding(column).codec, LEVEL)
}

/// Encodes a position-sorted `bases` chunk whose reads `results` places
/// (the same records' alignment results, in the same order): coded
/// against the chunk's consensus where that is smaller
/// ([`consensus`](crate::consensus)), else as [`encode_chunk`] would.
pub fn encode_placed_bases(bases: &RawChunk, results: &RawChunk) -> Vec<u8> {
    crate::consensus::encode(bases, results).unwrap_or_else(|| encode_chunk(BASES, bases))
}

/// Encodes `records` as one chunk object of `column`.
pub fn encode<'a>(column: &str, records: impl IntoIterator<Item = &'a [u8]>) -> Result<Vec<u8>> {
    Ok(encode_chunk(column, &pack(column, records)?))
}

/// Declares `column` in `manifest` with its codec.
pub fn declare(manifest: &mut Manifest, column: &str) -> Result<()> {
    manifest.add_column(column, coding(column).codec)
}

/// A new, empty dataset manifest holding the [`READ_COLUMNS`] as one
/// row group.
pub fn reads_manifest(name: &str) -> Result<Manifest> {
    let mut manifest = Manifest::new(name);
    for column in READ_COLUMNS {
        declare(&mut manifest, column)?;
    }
    manifest.row_groups = vec![READ_COLUMNS.map(String::from).to_vec()];
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_columns_follow_the_table_and_others_are_gzip_text() {
        assert_eq!(coding(BASES).record_type, RecordType::CompactBases);
        assert_eq!(coding(RESULTS).record_type, RecordType::Results);
        for (column, row) in TABLE {
            assert_eq!(coding(column), row);
        }
        assert_eq!(coding("notes"), Coding { record_type: RecordType::Text, codec: Codec::Gzip });
    }

    /// A bases chunk object is its header, its index and the packed
    /// groups, 32 bytes to a 101-base read, copied as they are.
    #[test]
    fn a_bases_chunk_is_stored_uncompressed() {
        use crate::chunk::{ChunkHeader, HEADER_SIZE};
        for n in [0usize, 1, 7, 500] {
            let reads: Vec<Vec<u8>> =
                (0..n).map(|i| (0..101).map(|j| b"ACGTN"[(i * 3 + j) % 5]).collect()).collect();
            let obj = encode(BASES, reads.iter().map(|r| r.as_slice())).unwrap();
            assert_eq!(obj.len(), HEADER_SIZE + 4 * n + 32 * n, "{n} reads");
            let header = ChunkHeader::decode(&obj).unwrap();
            assert_eq!(header.codec, Codec::None);
            assert_eq!(header.compressed_len, header.uncompressed_len);
        }
    }

    #[test]
    fn reads_manifest_declares_the_read_columns() {
        let m = reads_manifest("ds").unwrap();
        let declared: Vec<(&str, &str)> =
            m.columns.iter().map(|c| (c.name.as_str(), c.codec.as_str())).collect();
        let expected: Vec<(&str, &str)> =
            READ_COLUMNS.iter().map(|&column| (column, coding(column).codec.name())).collect();
        assert_eq!(declared, expected);
        assert_eq!(m.row_groups, vec![vec!["bases", "qual", "metadata"]]);
        m.validate().unwrap();
    }
}
