//! Conversions between AGD and the interchange formats (paper §5.7:
//! "Persona can import FASTQ and export BAM formats at high throughput").

use std::io::{BufRead, Write};

use persona_agd::builder::{DatasetWriter, WriterOptions};
use persona_agd::chunk::ChunkData;
use persona_agd::chunk_io::ChunkStore;
use persona_agd::columns;
use persona_agd::dataset::Dataset;
use persona_agd::manifest::{Manifest, RefContig};
use persona_agd::results::AlignmentResult;
use persona_compress::deflate::CompressLevel;
use persona_seq::Read;

use crate::fastq::FastqReader;
use crate::sam::{write_header, RefMap, SamRow};
use crate::{bam, sam, Result};

/// Imports FASTQ into a new AGD dataset, returning the manifest.
pub fn fastq_to_agd(
    input: impl BufRead,
    store: &dyn ChunkStore,
    name: &str,
    options: WriterOptions,
) -> Result<Manifest> {
    let mut reader = FastqReader::new(input);
    let mut writer = DatasetWriter::with_options(name, options)?;
    while let Some(read) = reader.next()? {
        writer.append(store, &read.meta, &read.bases, &read.quals)?;
    }
    Ok(writer.finish(store)?)
}

/// Exports an AGD dataset's raw-read columns back to FASTQ.
pub fn agd_to_fastq(ds: &Dataset, store: &dyn ChunkStore, out: &mut impl Write) -> Result<u64> {
    let mut n = 0u64;
    ds.for_each_chunk(store, &[columns::METADATA, columns::BASES, columns::QUAL], |_, cols| {
        for i in 0..cols[0].len() {
            let read = Read {
                meta: cols[0].record(i).to_vec(),
                bases: cols[1].record(i).to_vec(),
                quals: cols[2].record(i).to_vec(),
            };
            crate::fastq::write_record(out, &read).map_err(to_agd_err)?;
            n += 1;
        }
        Ok(())
    })?;
    Ok(n)
}

fn to_agd_err(e: crate::Error) -> persona_agd::Error {
    persona_agd::Error::Format(e.to_string())
}

/// Builds the [`RefMap`] recorded in a dataset's manifest.
pub fn refmap_of(ds: &Dataset) -> RefMap {
    RefMap::new(&ds.manifest().reference)
}

/// Calls `f` with every record of an aligned dataset as a row, in
/// dataset order; returns how many there were.
fn for_each_row(
    ds: &Dataset,
    store: &dyn ChunkStore,
    refs: &RefMap,
    mut f: impl FnMut(&SamRow<'_>) -> std::io::Result<()>,
) -> Result<u64> {
    let mut n = 0u64;
    let cols = [columns::METADATA, columns::BASES, columns::QUAL, columns::RESULTS];
    ds.for_each_chunk(store, &cols, |_, chunks| {
        let records = chunks[0].len();
        let four = [&chunks[0], &chunks[1], &chunks[2], &chunks[3]];
        for_each_chunk_row(refs, four, 0..records, &mut f)?;
        n += records as u64;
        Ok(())
    })?;
    Ok(n)
}

/// Calls `f` with the rows `rows` of one chunk's metadata, bases,
/// qualities and results columns, in order, decoding every alignment
/// result into one reused scratch result.
pub fn for_each_chunk_row(
    refs: &RefMap,
    [meta, bases, quals, results]: [&ChunkData; 4],
    rows: std::ops::Range<usize>,
    mut f: impl FnMut(&SamRow<'_>) -> std::io::Result<()>,
) -> persona_agd::Result<()> {
    let mut result = AlignmentResult::unmapped();
    for i in rows {
        result.decode_into(results.record(i))?;
        f(&SamRow::from_result(refs, meta.record(i), bases.record(i), quals.record(i), &result))?;
    }
    Ok(())
}

/// Exports an aligned AGD dataset as SAM text.
pub fn agd_to_sam(ds: &Dataset, store: &dyn ChunkStore, out: &mut impl Write) -> Result<u64> {
    let refs = refmap_of(ds);
    write_header(
        out,
        &refs,
        ds.manifest().sort_order == persona_agd::manifest::SortOrder::Coordinate,
    )?;
    let mut line = Vec::new();
    for_each_row(ds, store, &refs, |row| {
        line.clear();
        sam::write_line(&mut line, &refs, row);
        line.push(b'\n');
        out.write_all(&line)
    })
}

/// Exports an aligned AGD dataset as BAM, single-threaded: the whole
/// payload, then its BGZF blocks (the reference the pipeline's
/// streaming export-bam stage is checked against).
pub fn agd_to_bam(
    ds: &Dataset,
    store: &dyn ChunkStore,
    out: &mut impl Write,
    level: CompressLevel,
) -> Result<u64> {
    let refs = refmap_of(ds);
    let mut payload = Vec::new();
    bam::write_header(&mut payload, &refs)?;
    let n = for_each_row(ds, store, &refs, |row| {
        bam::write_record(&mut payload, row);
        Ok(())
    })?;
    out.write_all(&bam::bgzf_compress(&payload, level))?;
    out.write_all(&bam::BGZF_EOF)?;
    Ok(n)
}

/// Records the reference contigs in a dataset manifest (done when an
/// alignment column is added, so SAM/BAM export knows contig names).
pub fn set_reference(manifest: &mut Manifest, contigs: &[(String, u64)]) {
    manifest.reference = contigs
        .iter()
        .map(|(name, length)| RefContig { name: name.clone(), length: *length })
        .collect();
}
