//! FASTQ import (paper §5.7: "FASTQ is imported to AGD at 360 MB/s").
//!
//! The stage thread parses FASTQ serially (framing is inherently
//! sequential) and cuts it into chunks; each chunk becomes one executor
//! batch of three column tasks, each of which encodes (compressing and
//! storing it if it lands) and hands back its column, which the chunk
//! carries downstream:
//!
//! ```text
//! stage thread: parse ─► chunk ─┬─► bases: encode ─► gzip ─► put ─┐
//!                               ├─► qual:  encode ─► gzip ─► put ─┼─► (chunk feeder)
//!                               └─► meta:  encode ─► gzip ─► put ─┘
//!                                   (executor tasks)
//! ```

use std::io::BufRead;
use std::sync::Arc;

use persona_agd::chunk::RawChunk;
use persona_agd::columns::{self, READ_COLUMNS};
use persona_agd::manifest::{ChunkEntry, Manifest};
use persona_seq::Read;

use crate::manifest_server::{EdgeChunk, EdgeOut};
use crate::pipeline::{drive, Landing, Progress};
use crate::runtime::{PersonaRuntime, StageExec};
use crate::{Error, Result};

/// Outcome of an import run.
#[derive(Debug)]
pub struct ImportReport {
    /// Uncompressed FASTQ bytes consumed.
    pub input_bytes: u64,
    /// Reads imported.
    pub reads: u64,
    /// Chunks written.
    pub chunks: u64,
}

/// Imports FASTQ into a new AGD dataset named `name`, in chunks of
/// `chunk_size` reads (positive: [`crate::plan::Plan::check_fastq_input`]
/// checked it), encoding columns as executor task batches and putting
/// what `landing` says. When `out` is given, every chunk is also
/// announced on it (the stream ends when the stage returns), then the
/// manifest.
pub(crate) fn import_fastq(
    rt: &PersonaRuntime,
    exec: &StageExec,
    input: impl BufRead + Send + 'static,
    name: &str,
    chunk_size: usize,
    landing: Landing,
    out: Option<EdgeOut>,
) -> Result<(Manifest, ImportReport)> {
    let mut manifest = columns::reads_manifest(name)?;
    // The read field each of the `READ_COLUMNS` stores.
    let fields: [fn(&Read) -> &[u8]; 3] = [|r| &r.bases, |r| &r.quals, |r| &r.meta];

    let mut reader = persona_formats::fastq::FastqReader::new(input);
    let (mut at_end, mut next_idx) = (false, 0usize);
    drive(
        rt.chunk_window(),
        |_| {
            rt.check_cancelled()?;
            let mut batch = Vec::with_capacity(chunk_size);
            while !at_end && batch.len() < chunk_size {
                match reader.next().map_err(|e| Error::Pipeline(format!("fastq: {e}")))? {
                    Some(read) => batch.push(read),
                    None => at_end = true,
                }
            }
            if batch.is_empty() {
                return Ok(None);
            }
            let chunk = EdgeChunk {
                chunk_idx: next_idx,
                stem: format!("{name}-{next_idx}"),
                num_records: batch.len() as u32,
                carried: Vec::new(),
            };
            next_idx += 1;
            let (store, stem, batch) = (rt.store().clone(), chunk.stem.clone(), Arc::new(batch));
            let put = exec.spawn(
                READ_COLUMNS.into_iter().zip(fields).collect(),
                move |_, (column, field)| -> Result<(&'static str, Arc<RawChunk>)> {
                    let chunk = columns::pack(column, batch.iter().map(field))?;
                    if landing != Landing::Nothing {
                        let name = Manifest::chunk_object_name(&stem, column);
                        store.put(&name, &columns::encode_chunk(column, &chunk))?;
                    }
                    Ok((column, Arc::new(chunk)))
                },
            );
            Ok(Some((chunk, put)))
        },
        |(mut chunk, put)| {
            chunk.carried = put.wait()?.into_iter().collect::<Result<_>>()?;
            Ok(Progress::Done(chunk))
        },
        // Chunks finish in the order they were cut, so the manifest's
        // records grow in chunk order.
        |chunk| {
            manifest.records.push(ChunkEntry {
                path: chunk.stem.clone(),
                first_record: manifest.total_records,
                num_records: chunk.num_records,
            });
            manifest.total_records += chunk.num_records as u64;
            match &out {
                Some(out) => out.push(chunk),
                None => Ok(()),
            }
        },
    )?;
    manifest.validate()?;
    if landing == Landing::State {
        rt.store().put(&format!("{name}.manifest.json"), manifest.to_json()?.as_bytes())?;
    }
    if let Some(out) = &out {
        out.deliver(&manifest);
    }

    let report = ImportReport {
        input_bytes: reader.bytes_read(),
        reads: manifest.total_records,
        chunks: manifest.records.len() as u64,
    };
    Ok((manifest, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_stage;
    use crate::plan::{PlanSource, Stage, StageRow, StageRun};
    use persona_agd::chunk_io::{ChunkStore, MemStore};
    use persona_agd::dataset::Dataset;
    use persona_formats::fastq;
    use persona_seq::simulate::{ReadSimulator, SimParams};
    use persona_seq::Genome;

    fn fastq_bytes(n: usize) -> (Vec<u8>, Vec<Read>) {
        let genome = Genome::random_with_seed(66, &[("chr1", 30_000)]);
        let mut sim = ReadSimulator::new(&genome, SimParams { seed: 6, ..SimParams::default() });
        let reads = sim.take_single(n);
        (fastq::to_bytes(&reads), reads)
    }

    /// Imports `fastq` into `store` through the one-stage import plan;
    /// returns the stage's busy share too.
    fn import(store: &Arc<dyn ChunkStore>, fastq: &[u8]) -> Result<(Manifest, ImportReport, f64)> {
        let source = PlanSource::fastq_bytes(fastq.to_vec());
        let mut report = run_stage(store, Stage::Import, source, None)?;
        match report.stages.pop() {
            Some(StageRow { run: StageRun::Import(import), busy_fraction, .. }) => {
                Ok((report.manifest.unwrap(), import, busy_fraction))
            }
            other => panic!("expected an import report, got {other:?}"),
        }
    }

    #[test]
    fn imports_and_preserves_order() {
        let (bytes, reads) = fastq_bytes(300);
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let (manifest, report, busy_fraction) = import(&store, &bytes).unwrap();
        assert_eq!(report.reads, 300);
        assert_eq!(report.chunks, 5);
        assert_eq!(manifest.total_records, 300);
        assert!(report.input_bytes > 0);
        assert!(busy_fraction > 0.0, "encoding must run on the executor");

        let ds = Dataset::new(manifest);
        let mut i = 0usize;
        for c in 0..ds.num_chunks() {
            let meta = ds.read_column_chunk(store.as_ref(), c, columns::METADATA).unwrap();
            let bases = ds.read_column_chunk(store.as_ref(), c, columns::BASES).unwrap();
            for r in 0..meta.len() {
                assert_eq!(meta.record(r), reads[i].meta.as_slice(), "record {i}");
                let mut read = Vec::new();
                bases.append_plain(r, &mut read).unwrap();
                assert_eq!(read, reads[i].bases.as_slice(), "record {i}");
                i += 1;
            }
        }
        assert_eq!(i, 300);
    }

    /// `input_bytes` is the FASTQ the stage consumed, byte for byte,
    /// whatever the line ends and however the `+` lines are written.
    #[test]
    fn input_bytes_are_the_bytes_consumed() {
        let (lf, reads) = fastq_bytes(120);
        let mut crlf = Vec::new();
        for &b in &lf {
            if b == b'\n' {
                crlf.push(b'\r');
            }
            crlf.push(b);
        }
        let mut named = Vec::new();
        for r in &reads {
            let text = |bytes: &[u8]| String::from_utf8(bytes.to_vec()).unwrap();
            let (meta, bases, quals) = (text(&r.meta), text(&r.bases), text(&r.quals));
            named.extend(format!("@{meta}\n{bases}\n+{meta}\n{quals}\n").into_bytes());
        }
        for (what, bytes) in [("LF", lf), ("CRLF", crlf), ("+name", named)] {
            let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
            let (manifest, report, _) = import(&store, &bytes).unwrap();
            assert_eq!(manifest.total_records, 120, "{what}");
            assert_eq!(report.input_bytes, bytes.len() as u64, "{what}");
        }
    }

    #[test]
    fn streams_chunk_tasks_to_a_feeder() {
        let (bytes, _) = fastq_bytes(250);
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let rt = PersonaRuntime::new(store.clone(), crate::config::PersonaConfig::small()).unwrap();
        let (out, edge) = crate::manifest_server::Edge::streaming(4, rt.telemetry());
        let collector = {
            let edge = edge.clone();
            std::thread::spawn(move || {
                let mut stems = Vec::new();
                while let Some(task) = edge.fetch() {
                    stems.push((task.chunk_idx, task.stem.clone(), task.num_records));
                }
                stems
            })
        };
        let (cursor, exec) = (std::io::Cursor::new(bytes), rt.stage_exec());
        let (manifest, report) =
            import_fastq(&rt, &exec, cursor, "st", 100, Landing::State, Some(out)).unwrap();
        assert_eq!(edge.manifest().unwrap(), manifest);
        let mut got = collector.join().unwrap();
        got.sort();
        assert_eq!(got.len(), manifest.records.len());
        assert_eq!(report.chunks, got.len() as u64);
        for (i, (idx, stem, n)) in got.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(stem, &manifest.records[i].path);
            assert_eq!(*n, manifest.records[i].num_records);
        }
    }

    #[test]
    fn malformed_fastq_fails() {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        assert!(import(&store, b"@r1\nACGT\nOOPS\nIIII\n").is_err());
    }

    #[test]
    fn empty_input_empty_dataset() {
        let store: Arc<dyn ChunkStore> = Arc::new(MemStore::new());
        let (manifest, report, _) = import(&store, b"").unwrap();
        assert_eq!(report.reads, 0);
        assert_eq!(manifest.total_records, 0);
    }
}
