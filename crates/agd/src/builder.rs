//! Writing AGD datasets: chunked column emission and manifest assembly.
//! Every chunk is coded as [`columns`] says.

use crate::chunk_io::ChunkStore;
use crate::columns::{self, READ_COLUMNS};
use crate::manifest::{ChunkEntry, Manifest};
use crate::{Error, Result};

/// Streams reads into an AGD dataset: the three raw-read columns
/// (`bases`, `qual`, `metadata`) are written chunk by chunk.
pub struct DatasetWriter {
    manifest: Manifest,
    chunk_size: usize,
    // Current chunk accumulation, one buffer per read column in
    // `READ_COLUMNS` order (records owned until flush).
    records: [Vec<Vec<u8>>; 3],
    next_chunk: u64,
    first_record: u64,
}

impl DatasetWriter {
    /// Creates a writer that cuts a chunk every `chunk_size` reads.
    pub fn new(name: &str, chunk_size: usize) -> Result<Self> {
        if chunk_size == 0 {
            return Err(Error::Format("chunk_size must be positive".into()));
        }
        Ok(DatasetWriter {
            manifest: columns::reads_manifest(name)?,
            chunk_size,
            records: Default::default(),
            next_chunk: 0,
            first_record: 0,
        })
    }

    /// Appends one read; flushes a chunk to `store` when full.
    pub fn append(
        &mut self,
        store: &dyn ChunkStore,
        meta: &[u8],
        bases: &[u8],
        quals: &[u8],
    ) -> Result<()> {
        if bases.len() != quals.len() {
            return Err(Error::Format("bases/quals length mismatch".into()));
        }
        for (buffer, record) in self.records.iter_mut().zip([bases, quals, meta]) {
            buffer.push(record.to_vec());
        }
        if self.buffered() >= self.chunk_size {
            self.flush_chunk(store)?;
        }
        Ok(())
    }

    /// Number of records currently buffered (not yet flushed).
    pub fn buffered(&self) -> usize {
        self.records[0].len()
    }

    fn flush_chunk(&mut self, store: &dyn ChunkStore) -> Result<()> {
        let n = self.buffered() as u32;
        if n == 0 {
            return Ok(());
        }
        let stem = format!("{}-{}", self.manifest.name, self.next_chunk);
        for (column, records) in READ_COLUMNS.iter().zip(&mut self.records) {
            let object = columns::encode(column, records.iter().map(Vec::as_slice))?;
            store.put(&Manifest::chunk_object_name(&stem, column), &object)?;
            records.clear();
        }
        self.manifest.records.push(ChunkEntry {
            path: stem,
            first_record: self.first_record,
            num_records: n,
        });
        self.first_record += n as u64;
        self.manifest.total_records = self.first_record;
        self.next_chunk += 1;
        Ok(())
    }

    /// Flushes the final partial chunk, writes `manifest.json` to the
    /// store, and returns the manifest.
    pub fn finish(mut self, store: &dyn ChunkStore) -> Result<Manifest> {
        self.flush_chunk(store)?;
        self.manifest.validate()?;
        store.put(
            &format!("{}.manifest.json", self.manifest.name),
            self.manifest.to_json()?.as_bytes(),
        )?;
        Ok(self.manifest)
    }
}

/// Appends a *new column* to an existing dataset, one chunk at a time —
/// the paper's extension mechanism (§3). Chunks must be appended in
/// dataset order and record counts must match the existing chunks
/// exactly (the column joins the dataset's row group).
pub struct ColumnAppender<'m> {
    manifest: &'m mut Manifest,
    column: String,
    next_chunk: usize,
}

impl<'m> ColumnAppender<'m> {
    /// Starts appending `column` to `manifest`.
    pub fn new(manifest: &'m mut Manifest, column: &str) -> Result<Self> {
        columns::declare(manifest, column)?;
        Ok(ColumnAppender { manifest, column: column.to_string(), next_chunk: 0 })
    }

    /// Writes the next chunk's records for this column.
    pub fn append_chunk<'a>(
        &mut self,
        store: &dyn ChunkStore,
        records: impl ExactSizeIterator<Item = &'a [u8]>,
    ) -> Result<()> {
        let entry = self
            .manifest
            .records
            .get(self.next_chunk)
            .ok_or_else(|| Error::Format("more column chunks than dataset chunks".into()))?;
        if records.len() != entry.num_records as usize {
            return Err(Error::Format(format!(
                "column chunk has {} records; dataset chunk {} has {}",
                records.len(),
                entry.path,
                entry.num_records
            )));
        }
        let object = columns::encode(&self.column, records)?;
        store.put(&Manifest::chunk_object_name(&entry.path, &self.column), &object)?;
        self.next_chunk += 1;
        Ok(())
    }

    /// Completes the append, rewriting the manifest object.
    pub fn finish(self, store: &dyn ChunkStore) -> Result<()> {
        if self.next_chunk != self.manifest.records.len() {
            return Err(Error::Format(format!(
                "column {} covers {} of {} chunks",
                self.column,
                self.next_chunk,
                self.manifest.records.len()
            )));
        }
        store.put(
            &format!("{}.manifest.json", self.manifest.name),
            self.manifest.to_json()?.as_bytes(),
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk_io::MemStore;
    use crate::dataset::Dataset;

    fn reads(n: usize) -> Vec<(Vec<u8>, Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                let meta = format!("read{i}").into_bytes();
                let bases: Vec<u8> = (0..20).map(|j| b"ACGT"[(i + j) % 4]).collect();
                let quals = vec![b'I'; 20];
                (meta, bases, quals)
            })
            .collect()
    }

    #[test]
    fn writes_chunked_dataset() {
        let store = MemStore::new();
        let mut w = DatasetWriter::new("ds", 10).unwrap();
        for (m, b, q) in reads(25) {
            w.append(&store, &m, &b, &q).unwrap();
        }
        let manifest = w.finish(&store).unwrap();
        assert_eq!(manifest.total_records, 25);
        assert_eq!(manifest.records.len(), 3); // 10 + 10 + 5.
        assert_eq!(manifest.records[2].num_records, 5);
        // Chunk objects exist per Figure 2 naming.
        assert!(store.exists("ds-0.bases"));
        assert!(store.exists("ds-1.qual"));
        assert!(store.exists("ds-2.metadata"));
        assert!(store.exists("ds.manifest.json"));
    }

    #[test]
    fn roundtrip_through_dataset_reader() {
        let store = MemStore::new();
        let mut w = DatasetWriter::new("ds", 7).unwrap();
        let rs = reads(20);
        for (m, b, q) in &rs {
            w.append(&store, m, b, q).unwrap();
        }
        let manifest = w.finish(&store).unwrap();
        let ds = Dataset::new(manifest);
        let mut i = 0usize;
        for c in 0..ds.manifest().records.len() {
            let bases = ds.read_column_chunk(&store, c, columns::BASES).unwrap();
            let meta = ds.read_column_chunk(&store, c, columns::METADATA).unwrap();
            for r in 0..bases.len() {
                let mut read = Vec::new();
                bases.append_plain(r, &mut read).unwrap();
                assert_eq!(read, rs[i].1.as_slice());
                assert_eq!(meta.record(r), rs[i].0.as_slice());
                i += 1;
            }
        }
        assert_eq!(i, 20);
    }

    #[test]
    fn rejects_mismatched_quals() {
        let store = MemStore::new();
        let mut w = DatasetWriter::new("ds", 10).unwrap();
        assert!(w.append(&store, b"m", b"ACGT", b"II").is_err());
    }

    #[test]
    fn empty_dataset() {
        let store = MemStore::new();
        let w = DatasetWriter::new("empty", 10).unwrap();
        let manifest = w.finish(&store).unwrap();
        assert_eq!(manifest.total_records, 0);
        assert!(manifest.records.is_empty());
    }

    #[test]
    fn column_appender_adds_results() {
        let store = MemStore::new();
        let mut w = DatasetWriter::new("ds", 10).unwrap();
        for (m, b, q) in reads(15) {
            w.append(&store, &m, &b, &q).unwrap();
        }
        let mut manifest = w.finish(&store).unwrap();

        let mut appender = ColumnAppender::new(&mut manifest, columns::RESULTS).unwrap();
        let counts: Vec<u32> = vec![10, 5];
        let mut payloads = Vec::new();
        for &n in &counts {
            let recs: Vec<Vec<u8>> = (0..n)
                .map(|i| {
                    crate::results::AlignmentResult {
                        location: i as i64 * 100,
                        ..crate::results::AlignmentResult::unmapped()
                    }
                    .encode()
                })
                .collect();
            payloads.push(recs);
        }
        for p in &payloads {
            appender.append_chunk(&store, p.iter().map(|r| r.as_slice())).unwrap();
        }
        appender.finish(&store).unwrap();
        assert!(manifest.has_column(columns::RESULTS));
        assert!(store.exists("ds-0.results"));
        assert!(store.exists("ds-1.results"));

        // Reload the manifest from the store and check it knows the column.
        let reloaded = Manifest::from_json(
            std::str::from_utf8(&store.get("ds.manifest.json").unwrap()).unwrap(),
        )
        .unwrap();
        assert!(reloaded.has_column(columns::RESULTS));
    }

    #[test]
    fn column_appender_rejects_wrong_counts() {
        let store = MemStore::new();
        let mut w = DatasetWriter::new("ds", 10).unwrap();
        for (m, b, q) in reads(10) {
            w.append(&store, &m, &b, &q).unwrap();
        }
        let mut manifest = w.finish(&store).unwrap();
        let mut appender = ColumnAppender::new(&mut manifest, "notes").unwrap();
        let recs: Vec<&[u8]> = vec![b"x"; 3]; // Should be 10.
        assert!(appender.append_chunk(&store, recs.into_iter()).is_err());
    }

    #[test]
    fn incomplete_column_append_rejected() {
        let store = MemStore::new();
        let mut w = DatasetWriter::new("ds", 5).unwrap();
        for (m, b, q) in reads(10) {
            w.append(&store, &m, &b, &q).unwrap();
        }
        let mut manifest = w.finish(&store).unwrap();
        let mut appender = ColumnAppender::new(&mut manifest, "notes").unwrap();
        let recs: Vec<&[u8]> = vec![b"x"; 5];
        appender.append_chunk(&store, recs.into_iter()).unwrap();
        // Only 1 of 2 chunks appended.
        assert!(appender.finish(&store).is_err());
    }
}
