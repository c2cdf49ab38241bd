//! Standard column names (§3: "three columns to store bases, quality
//! scores, and metadata, and a fourth to store alignment results") and
//! the column-coding policy: how each column's chunks are written.
//!
//! The paper lets AGD pick compression "on a column-by-column basis".
//! This module is the only place that choice is made. [`coding`] gives
//! every column its record type and codec: the four standard columns
//! from [`TABLE`], any other column (one a [`ColumnAppender`] adds) Text
//! with gzip. Every gzip-coded column is written at [`LEVEL`]. No writer
//! takes a codec, record type or level of its own, so the same records
//! make the same chunk bytes whichever stage writes them.
//!
//! Reading never consults the policy: a chunk's header and the
//! manifest name the codec it was written with.
//!
//! [`ColumnAppender`]: crate::builder::ColumnAppender

use persona_compress::codec::Codec;
use persona_compress::deflate::CompressLevel;

use crate::chunk::{ChunkData, RecordType};
use crate::manifest::Manifest;
use crate::Result;

/// Base characters, stored compacted.
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
    (BASES, Coding { record_type: RecordType::CompactBases, codec: Codec::Gzip }),
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

/// Encodes `records` as one chunk object of `column`.
pub fn encode<'a>(column: &str, records: impl IntoIterator<Item = &'a [u8]>) -> Result<Vec<u8>> {
    let Coding { record_type, codec } = coding(column);
    ChunkData::from_records(record_type, records)?.encode(codec, LEVEL)
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

    #[test]
    fn reads_manifest_declares_the_read_columns() {
        let m = reads_manifest("ds").unwrap();
        for column in READ_COLUMNS {
            assert_eq!(m.column_codec(column).unwrap(), coding(column).codec);
        }
        assert_eq!(m.row_groups, vec![vec!["bases", "qual", "metadata"]]);
        m.validate().unwrap();
    }
}
