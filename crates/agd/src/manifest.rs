//! The AGD dataset manifest: "a descriptive manifest metadata file holds
//! an index describing the columns, chunks, and records in an AGD
//! dataset, in addition to other relevant data such as the names and
//! sizes of contiguous reference sequences … implemented as a simple
//! JSON file" (paper §3).

use crate::{Error, Result};

serde::serde_struct! {
    /// One column's schema entry.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ColumnSpec {
        /// Column name (e.g. `bases`).
        pub name: String,
        /// Codec name (`none`, `gzip`).
        pub codec: String,
    }
}

serde::serde_struct! {
    /// One chunk's entry in the record index.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ChunkEntry {
        /// Object-name stem; column objects are `{path}.{column}`.
        pub path: String,
        /// Global index of the first record in this chunk.
        pub first_record: u64,
        /// Number of records in this chunk.
        pub num_records: u32,
    }
}

serde::serde_struct! {
    /// A reference contig the dataset was (or will be) aligned against.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RefContig {
        /// Contig name (e.g. `chr1`).
        pub name: String,
        /// Contig length in bases.
        pub length: u64,
    }
}

serde::serde_enum! {
    /// Dataset-level sort order, mirroring SAM's `@HD SO:` values.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum SortOrder as "sort_order" {
        /// No ordering guarantee (as produced by the sequencer).
        #[default]
        Unsorted = "unsorted",
        /// Sorted by aligned reference location.
        Coordinate = "coordinate",
        /// Sorted by read metadata (query name).
        QueryName = "query_name",
    }
}

serde::serde_struct! {
    /// The dataset manifest (`manifest.json`). The three trailing
    /// fields are defaulted, so manifests written before they existed
    /// still load.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Manifest {
        /// Dataset name; chunk stems derive from it.
        pub name: String,
        /// Manifest format version.
        pub version: u32,
        /// Columns present in the dataset.
        pub columns: Vec<ColumnSpec>,
        /// Chunk index in record order.
        pub records: Vec<ChunkEntry>,
        /// Total records across chunks.
        pub total_records: u64,
        /// Sort order of the dataset.
        pub sort_order: SortOrder = default,
        /// Reference contigs (empty until alignment).
        pub reference: Vec<RefContig> = default,
        /// Columns whose record indices align (row groups). Every column in
        /// a group has identical record boundaries per chunk.
        pub row_groups: Vec<Vec<String>> = default,
    }
}

impl Manifest {
    /// Creates an empty manifest for a new dataset.
    pub fn new(name: &str) -> Self {
        Manifest {
            name: name.to_string(),
            version: 1,
            columns: Vec::new(),
            records: Vec::new(),
            total_records: 0,
            sort_order: SortOrder::Unsorted,
            reference: Vec::new(),
            row_groups: Vec::new(),
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> Result<String> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses a manifest from JSON.
    pub fn from_json(json: &str) -> Result<Self> {
        let m: Manifest = serde_json::from_str(json)?;
        m.validate()?;
        Ok(m)
    }

    /// Checks internal consistency: contiguous record ranges, unique
    /// chunk paths, coherent totals.
    pub fn validate(&self) -> Result<()> {
        let mut expected_first = 0u64;
        let mut seen = std::collections::HashSet::new();
        for entry in &self.records {
            if entry.first_record != expected_first {
                return Err(Error::Format(format!(
                    "chunk {} starts at record {} but expected {}",
                    entry.path, entry.first_record, expected_first
                )));
            }
            if !seen.insert(&entry.path) {
                return Err(Error::Format(format!("duplicate chunk path {}", entry.path)));
            }
            expected_first += entry.num_records as u64;
        }
        if expected_first != self.total_records {
            return Err(Error::Format(format!(
                "total_records {} != sum of chunks {}",
                self.total_records, expected_first
            )));
        }
        for group in &self.row_groups {
            for col in group {
                if !self.columns.iter().any(|c| &c.name == col) {
                    return Err(Error::Format(format!(
                        "row group references unknown column {col}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The object name of a column chunk.
    pub fn chunk_object_name(path_stem: &str, column: &str) -> String {
        format!("{path_stem}.{column}")
    }

    /// Whether a column exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.columns.iter().any(|c| c.name == name)
    }

    /// Adds a column (idempotent for identical specs).
    ///
    /// This is the manifest half of the paper's extensibility story: "a
    /// new record field … can be easily added by writing the column
    /// chunk files and adding appropriate entries to the metadata file".
    pub fn add_column(&mut self, name: &str, codec: persona_compress::codec::Codec) -> Result<()> {
        if let Some(existing) = self.columns.iter().find(|c| c.name == name) {
            if existing.codec == codec.name() {
                return Ok(());
            }
            return Err(Error::Format(format!(
                "column {name} exists with codec {}",
                existing.codec
            )));
        }
        self.columns.push(ColumnSpec { name: name.to_string(), codec: codec.name().to_string() });
        Ok(())
    }

    /// Locates the chunk containing global record `idx`, returning
    /// (chunk position in `records`, offset within chunk).
    pub fn locate_record(&self, idx: u64) -> Option<(usize, u32)> {
        if idx >= self.total_records {
            return None;
        }
        let chunk = self.records.partition_point(|e| e.first_record + e.num_records as u64 <= idx);
        let entry = &self.records[chunk];
        Some((chunk, (idx - entry.first_record) as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_compress::codec::Codec;

    fn sample() -> Manifest {
        let mut m = Manifest::new("test");
        m.add_column("bases", Codec::Gzip).unwrap();
        m.add_column("qual", Codec::Gzip).unwrap();
        m.add_column("metadata", Codec::None).unwrap();
        m.records.push(ChunkEntry { path: "test-0".into(), first_record: 0, num_records: 100 });
        m.records.push(ChunkEntry { path: "test-1".into(), first_record: 100, num_records: 50 });
        m.total_records = 150;
        m.row_groups = vec![vec!["bases".into(), "qual".into(), "metadata".into()]];
        m
    }

    #[test]
    fn json_roundtrip() {
        let m = sample();
        let json = m.to_json().unwrap();
        let parsed = Manifest::from_json(&json).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn validates_contiguity() {
        let mut m = sample();
        m.records[1].first_record = 99;
        assert!(m.validate().is_err());
        let mut m = sample();
        m.total_records = 151;
        assert!(m.validate().is_err());
        let mut m = sample();
        m.records[1].path = "test-0".into();
        assert!(m.validate().is_err());
    }

    #[test]
    fn row_group_validation() {
        let mut m = sample();
        m.row_groups.push(vec!["results".into()]);
        assert!(m.validate().is_err());
    }

    #[test]
    fn locate_record() {
        let m = sample();
        assert_eq!(m.locate_record(0), Some((0, 0)));
        assert_eq!(m.locate_record(99), Some((0, 99)));
        assert_eq!(m.locate_record(100), Some((1, 0)));
        assert_eq!(m.locate_record(149), Some((1, 49)));
        assert_eq!(m.locate_record(150), None);
    }

    #[test]
    fn column_management() {
        let mut m = sample();
        assert!(m.has_column("bases"));
        assert!(!m.has_column("results"));
        // Idempotent add.
        m.add_column("bases", Codec::Gzip).unwrap();
        // Conflicting codec rejected.
        assert!(m.add_column("bases", Codec::None).is_err());
        // Extension: append a results column.
        m.add_column("results", Codec::Gzip).unwrap();
        assert!(m.has_column("results"));
    }

    #[test]
    fn chunk_object_names_match_paper_figure() {
        // Figure 2 of the paper: test-0.bases, test-0.qual, ...
        assert_eq!(Manifest::chunk_object_name("test-0", "bases"), "test-0.bases");
        assert_eq!(Manifest::chunk_object_name("test-0", "qual"), "test-0.qual");
    }

    #[test]
    fn rejects_bad_json() {
        assert!(Manifest::from_json("{").is_err());
        assert!(Manifest::from_json("{}").is_err());
    }
}
