//! Reading AGD datasets: selective column access and random record
//! access — the two access patterns the paper designed AGD around (§3:
//! "each AGD column can be read independently and its data processed
//! independently and simultaneously", "for more efficient random access,
//! an absolute index can be generated on the fly").

use crate::chunk::RawChunk;
use crate::chunk_io::ChunkStore;
use crate::manifest::Manifest;
use crate::results::AlignmentResult;
use crate::{columns, Error, Result};

/// A readable AGD dataset: a manifest plus chunk access helpers.
#[derive(Debug, Clone)]
pub struct Dataset {
    manifest: Manifest,
}

impl Dataset {
    /// Wraps an already-loaded manifest.
    pub fn new(manifest: Manifest) -> Self {
        Dataset { manifest }
    }

    /// Loads `"<name>.manifest.json"` from a store.
    pub fn open(store: &dyn ChunkStore, name: &str) -> Result<Self> {
        let raw = store.get(&format!("{name}.manifest.json"))?;
        let json =
            std::str::from_utf8(&raw).map_err(|_| Error::Format("manifest is not UTF-8".into()))?;
        Ok(Dataset { manifest: Manifest::from_json(json)? })
    }

    /// The dataset manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.manifest.records.len()
    }

    /// Reads and decodes one column of one chunk, as stored: bases stay
    /// packed ([`RawChunk::append_plain`] reads a record as ASCII).
    ///
    /// This is *selective field access*: only the requested column's
    /// object is fetched (e.g. alignment reads only `bases` + `qual`,
    /// duplicate marking only `results`).
    pub fn read_column_chunk(
        &self,
        store: &dyn ChunkStore,
        chunk_idx: usize,
        column: &str,
    ) -> Result<RawChunk> {
        let entry = self
            .manifest
            .records
            .get(chunk_idx)
            .ok_or_else(|| Error::Format(format!("chunk index {chunk_idx} out of range")))?;
        if !self.manifest.has_column(column) {
            return Err(Error::Format(format!("dataset has no column {column}")));
        }
        let raw = store.get(&Manifest::chunk_object_name(&entry.path, column))?;
        let chunk = RawChunk::decode(&raw)?;
        if chunk.len() != entry.num_records as usize {
            return Err(Error::Format(format!(
                "chunk {} column {column}: {} records on disk, {} in manifest",
                entry.path,
                chunk.len(),
                entry.num_records
            )));
        }
        Ok(chunk)
    }

    /// Random access: fetches a single record of a single column by
    /// global record index, as plain bytes (bases unpacked to ASCII).
    /// Reads one chunk object.
    pub fn get_record(
        &self,
        store: &dyn ChunkStore,
        record_idx: u64,
        column: &str,
    ) -> Result<Vec<u8>> {
        let (chunk_idx, offset) = self
            .manifest
            .locate_record(record_idx)
            .ok_or_else(|| Error::Format(format!("record {record_idx} out of range")))?;
        let chunk = self.read_column_chunk(store, chunk_idx, column)?;
        let mut record = Vec::new();
        chunk.append_plain(offset as usize, &mut record)?;
        Ok(record)
    }

    /// Decodes one chunk of the `results` column into alignment results.
    pub fn read_results_chunk(
        &self,
        store: &dyn ChunkStore,
        chunk_idx: usize,
    ) -> Result<Vec<AlignmentResult>> {
        let chunk = self.read_column_chunk(store, chunk_idx, columns::RESULTS)?;
        (0..chunk.len()).map(|i| AlignmentResult::decode(chunk.record(i))).collect()
    }

    /// Applies `f` to every chunk of the given columns, in chunk order.
    ///
    /// `f` receives the chunk index and one decoded [`RawChunk`] per
    /// requested column (in the same order as `cols`).
    pub fn for_each_chunk<F>(&self, store: &dyn ChunkStore, cols: &[&str], mut f: F) -> Result<()>
    where
        F: FnMut(usize, &[RawChunk]) -> Result<()>,
    {
        for chunk_idx in 0..self.num_chunks() {
            let chunks: Result<Vec<RawChunk>> =
                cols.iter().map(|c| self.read_column_chunk(store, chunk_idx, c)).collect();
            f(chunk_idx, &chunks?)?;
        }
        Ok(())
    }

    /// Total compressed bytes of the given column across all chunks
    /// (storage accounting; used by the I/O experiments).
    pub fn column_bytes(&self, store: &dyn ChunkStore, column: &str) -> Result<u64> {
        let mut total = 0u64;
        for entry in &self.manifest.records {
            total += store.get(&Manifest::chunk_object_name(&entry.path, column))?.len() as u64;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DatasetWriter;
    use crate::chunk_io::MemStore;

    fn build(n: usize, chunk: usize) -> (MemStore, Dataset) {
        let store = MemStore::new();
        let mut w = DatasetWriter::new("t", chunk).unwrap();
        for i in 0..n {
            let meta = format!("r{i}");
            let bases: Vec<u8> = (0..30).map(|j| b"ACGT"[(i + j) % 4]).collect();
            w.append(&store, meta.as_bytes(), &bases, &vec![b'J'; 30]).unwrap();
        }
        let m = w.finish(&store).unwrap();
        (store, Dataset::new(m))
    }

    #[test]
    fn open_from_store() {
        let (store, _) = build(12, 5);
        let ds = Dataset::open(&store, "t").unwrap();
        assert_eq!(ds.manifest().total_records, 12);
        assert!(Dataset::open(&store, "missing").is_err());
    }

    #[test]
    fn selective_column_access() {
        let (store, ds) = build(12, 5);
        let qual = ds.read_column_chunk(&store, 0, columns::QUAL).unwrap();
        assert_eq!(qual.record(0), vec![b'J'; 30].as_slice());
        assert!(ds.read_column_chunk(&store, 0, "nonexistent").is_err());
        assert!(ds.read_column_chunk(&store, 99, columns::QUAL).is_err());
    }

    #[test]
    fn random_record_access() {
        let (store, ds) = build(23, 7);
        for idx in [0u64, 6, 7, 13, 22] {
            let meta = ds.get_record(&store, idx, columns::METADATA).unwrap();
            assert_eq!(meta, format!("r{idx}").into_bytes());
        }
        assert!(ds.get_record(&store, 23, columns::METADATA).is_err());
    }

    #[test]
    fn for_each_chunk_visits_all() {
        let (store, ds) = build(23, 7);
        let mut seen = 0usize;
        ds.for_each_chunk(&store, &[columns::BASES, columns::QUAL], |_, chunks| {
            assert_eq!(chunks.len(), 2);
            assert_eq!(chunks[0].len(), chunks[1].len());
            seen += chunks[0].len();
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, 23);
    }

    #[test]
    fn detects_manifest_chunk_disagreement() {
        let (store, mut ds) = build(10, 5);
        ds.manifest.records[0].num_records = 4;
        ds.manifest.records[1].first_record = 4;
        ds.manifest.total_records = 9;
        assert!(ds.read_column_chunk(&store, 0, columns::BASES).is_err());
    }

    #[test]
    fn column_bytes_accounting() {
        let (store, ds) = build(50, 10);
        let bases = ds.column_bytes(&store, columns::BASES).unwrap();
        let qual = ds.column_bytes(&store, columns::QUAL).unwrap();
        assert!(bases > 0 && qual > 0);
        // Constant qualities compress much harder than varied bases.
        assert!(qual < bases);
    }
}
