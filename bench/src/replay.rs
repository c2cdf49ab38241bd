//! The single-thread layer replay: performs a batch workload's job by
//! calling the layers' public functions in pipeline order on the same
//! inputs, with a span around every call. What the real run spends
//! beyond the replayed layer time is the framework's own cost
//! (`core.residual_ns_per_read`).
//!
//! The replay mirrors what the pipeline stages do to the layers — the
//! same columns fetched and decoded per stage, the same codec and
//! level, the same object names — and its output is checked against
//! the real run's, so a replay that drifts from the program fails the
//! run instead of silently misattributing time.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use persona_agd::chunk::{ChunkData, ChunkHeader, RecordType, HEADER_SIZE};
use persona_agd::chunk_io::ChunkStore;
use persona_agd::columns;
use persona_agd::manifest::{ChunkEntry, Manifest, SortOrder};
use persona_agd::results::{flags, AlignmentResult, CigarKind};
use persona_align::profile::PhaseProfile;
use persona_align::Aligner;
use persona_compress::codec::Codec;
use persona_compress::deflate::CompressLevel;
use persona_formats::bam;
use persona_formats::sam::{self, RefMap, SamRecord};

use crate::span::Spans;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Export {
    Sam,
    Bam,
}

/// Which part of the pipeline to replay.
pub struct ReplaySpec<'a> {
    pub name: &'a str,
    /// Import this FASTQ first …
    pub fastq: Option<&'a [u8]>,
    /// … or start from a dataset already in the store.
    pub dataset: Option<&'a Manifest>,
    pub aligner: Option<&'a dyn Aligner>,
    pub sort_dupmark: bool,
    pub export: Option<Export>,
    pub chunk_size: usize,
    pub reference: &'a [(String, u64)],
}

/// Byte counts the codec rows are normalised by.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayBytes {
    pub gzip_in: u64,
    pub gzip_out: u64,
    pub gunzip_in: u64,
    pub gunzip_out: u64,
    pub bgzf_in: u64,
}

pub struct ReplayOut {
    pub sam: Vec<u8>,
    pub bam: Vec<u8>,
    /// The results column as written by the align step, record bytes
    /// concatenated in dataset order.
    pub results: Vec<u8>,
    pub profile: PhaseProfile,
    pub bytes: ReplayBytes,
}

pub struct Replay<'a> {
    spans: &'a Spans,
    store: Arc<dyn ChunkStore>,
    trace_id: u64,
    bytes: ReplayBytes,
}

const CODEC: Codec = Codec::Gzip;
const LEVEL: CompressLevel = CompressLevel::Fast;

impl<'a> Replay<'a> {
    pub fn new(spans: &'a Spans, store: Arc<dyn ChunkStore>, trace_id: u64) -> Replay<'a> {
        Replay { spans, store, trace_id, bytes: ReplayBytes::default() }
    }

    fn scope<R>(&self, name: &str, parent: usize, f: impl FnOnce(usize) -> R) -> R {
        self.spans.scope(name, self.trace_id, Some(parent), f)
    }

    /// `ChunkData::from_records` + `encode` in one `agd.chunk_encode`
    /// span; the codec call inside it is timed again on the identical
    /// payload and subtracted as a *computed* child.
    fn encode_chunk<'r>(
        &mut self,
        parent: usize,
        rtype: RecordType,
        records: impl IntoIterator<Item = &'r [u8]>,
    ) -> Res<Vec<u8>> {
        let (data, obj, span) = self.scope("agd.chunk_encode", parent, |id| {
            let data = ChunkData::from_records(rtype, records)?;
            let obj = data.encode(CODEC, LEVEL)?;
            Ok::<_, persona_agd::Error>((data, obj, id))
        })?;
        let plain = data.encode(Codec::None, LEVEL)?;
        let payload = &plain[HEADER_SIZE + 4 * data.len()..];
        let t = Instant::now();
        let packed = std::hint::black_box(CODEC.compress_level(payload, LEVEL));
        self.spans.computed_child("compress.gzip_encode", span, t.elapsed().as_nanos() as u64);
        self.bytes.gzip_in += payload.len() as u64;
        self.bytes.gzip_out += packed.len() as u64;
        Ok(obj)
    }

    /// `store.get` then `ChunkData::decode`, the codec again a computed
    /// child of the decode span.
    fn load_chunk(&mut self, parent: usize, stem: &str, col: &str) -> Res<ChunkData> {
        let name = Manifest::chunk_object_name(stem, col);
        let obj = self.scope("store.get", parent, |_| self.store.get(&name))?;
        let (chunk, span) =
            self.scope("agd.chunk_decode", parent, |id| ChunkData::decode(&obj).map(|c| (c, id)))?;
        let header = ChunkHeader::decode(&obj)?;
        let start = HEADER_SIZE + 4 * header.record_count as usize;
        let payload = &obj[start..start + header.compressed_len as usize];
        let t = Instant::now();
        let raw = std::hint::black_box(header.codec.decompress(payload)?);
        self.spans.computed_child("compress.gzip_decode", span, t.elapsed().as_nanos() as u64);
        self.bytes.gunzip_in += payload.len() as u64;
        self.bytes.gunzip_out += raw.len() as u64;
        Ok(chunk)
    }

    fn put(&self, parent: usize, name: &str, obj: &[u8]) -> Res<()> {
        Ok(self.scope("store.put", parent, |_| self.store.put(name, obj))?)
    }

    fn put_manifest(&self, parent: usize, manifest: &Manifest) -> Res<()> {
        let json = self.scope("agd.manifest_json", parent, |_| manifest.to_json())?;
        self.put(parent, &format!("{}.manifest.json", manifest.name), json.as_bytes())
    }

    fn decode_results(&self, parent: usize, chunk: &ChunkData) -> Res<Vec<AlignmentResult>> {
        Ok(self.scope("agd.results_decode", parent, |_| {
            chunk.iter().map(AlignmentResult::decode).collect::<Result<Vec<_>, _>>()
        })?)
    }

    fn encode_results(&self, parent: usize, results: &[AlignmentResult]) -> Vec<Vec<u8>> {
        self.scope("agd.results_encode", parent, |_| results.iter().map(|r| r.encode()).collect())
    }

    /// Runs the replay under one root span named `replay`.
    pub fn run(&mut self, spec: &ReplaySpec<'_>) -> Res<ReplayOut> {
        let spans = self.spans;
        spans.scope("replay", self.trace_id, None, |root| self.run_under(root, spec))
    }

    fn run_under(&mut self, root: usize, spec: &ReplaySpec<'_>) -> Res<ReplayOut> {
        let mut out = ReplayOut {
            sam: Vec::new(),
            bam: Vec::new(),
            results: Vec::new(),
            profile: PhaseProfile::default(),
            bytes: ReplayBytes::default(),
        };
        // The stage spans are replay glue, not layers: what they hold
        // beyond their children (the sort itself, record copies) stays
        // out of every layer row.
        let (spans, tid) = (self.spans, self.trace_id);
        let mut manifest = match (spec.fastq, spec.dataset) {
            (Some(fastq), _) => {
                spans.scope("replay.import", tid, Some(root), |s| self.import(s, spec, fastq))?
            }
            (None, Some(m)) => m.clone(),
            (None, None) => return Err("replay needs an input".into()),
        };
        if let Some(aligner) = spec.aligner {
            spans.scope("replay.align", tid, Some(root), |s| {
                self.align(s, spec, aligner, &mut manifest, &mut out)
            })?;
        }
        if spec.sort_dupmark {
            manifest =
                spans.scope("replay.sort", tid, Some(root), |s| self.sort(s, spec, &manifest))?;
            spans.scope("replay.dupmark", tid, Some(root), |s| self.dupmark(s, &manifest))?;
        }
        if let Some(export) = spec.export {
            spans.scope("replay.export", tid, Some(root), |s| {
                self.export(s, export, &manifest, &mut out)
            })?;
        }
        out.bytes = self.bytes;
        Ok(out)
    }

    fn import(&mut self, span: usize, spec: &ReplaySpec<'_>, fastq: &[u8]) -> Res<Manifest> {
        let reads =
            self.scope("formats.fastq_parse", span, |_| persona_formats::fastq::from_bytes(fastq))?;
        let mut manifest = Manifest::new(spec.name);
        for col in [columns::BASES, columns::QUAL, columns::METADATA] {
            manifest.add_column(col, CODEC)?;
        }
        manifest.row_groups = vec![vec![
            columns::BASES.to_string(),
            columns::QUAL.to_string(),
            columns::METADATA.to_string(),
        ]];
        let mut first = 0u64;
        for (k, batch) in reads.chunks(spec.chunk_size).enumerate() {
            let stem = format!("{}-{k}", spec.name);
            let bases = self.encode_chunk(
                span,
                RecordType::CompactBases,
                batch.iter().map(|r| r.bases.as_slice()),
            )?;
            let qual = self.encode_chunk(
                span,
                RecordType::Text,
                batch.iter().map(|r| r.quals.as_slice()),
            )?;
            let meta =
                self.encode_chunk(span, RecordType::Text, batch.iter().map(|r| r.meta.as_slice()))?;
            self.put(span, &format!("{stem}.{}", columns::BASES), &bases)?;
            self.put(span, &format!("{stem}.{}", columns::QUAL), &qual)?;
            self.put(span, &format!("{stem}.{}", columns::METADATA), &meta)?;
            manifest.records.push(ChunkEntry {
                path: stem,
                first_record: first,
                num_records: batch.len() as u32,
            });
            first += batch.len() as u64;
        }
        manifest.total_records = first;
        self.put_manifest(span, &manifest)?;
        Ok(manifest)
    }

    fn align(
        &mut self,
        span: usize,
        spec: &ReplaySpec<'_>,
        aligner: &dyn Aligner,
        manifest: &mut Manifest,
        out: &mut ReplayOut,
    ) -> Res<()> {
        for entry in manifest.records.clone() {
            let bases = self.load_chunk(span, &entry.path, columns::BASES)?;
            let quals = self.load_chunk(span, &entry.path, columns::QUAL)?;
            let mut prof = PhaseProfile::default();
            let (results, kernel) = self.scope("align.kernel", span, |id| {
                let results: Vec<AlignmentResult> = (0..bases.len())
                    .map(|i| {
                        aligner.align_read_profiled(bases.record(i), quals.record(i), &mut prof)
                    })
                    .collect();
                (results, id)
            });
            // The kernel's own phase clocks split its span between the
            // index (seeding) and the aligner (verification).
            self.spans.computed_child("index.seed", kernel, prof.seed_time.as_nanos() as u64);
            self.spans.computed_child("align.verify", kernel, prof.verify_time.as_nanos() as u64);
            out.profile.merge(&prof);
            let encoded = self.encode_results(span, &results);
            for rec in &encoded {
                out.results.extend_from_slice(rec);
            }
            let obj =
                self.encode_chunk(span, RecordType::Results, encoded.iter().map(|r| r.as_slice()))?;
            self.put(span, &Manifest::chunk_object_name(&entry.path, columns::RESULTS), &obj)?;
        }
        manifest.add_column(columns::RESULTS, CODEC)?;
        persona_formats::convert::set_reference(manifest, spec.reference);
        self.put_manifest(span, manifest)
    }

    fn sort(&mut self, span: usize, spec: &ReplaySpec<'_>, src: &Manifest) -> Res<Manifest> {
        const COLS: [(&str, RecordType); 4] = [
            (columns::METADATA, RecordType::Text),
            (columns::BASES, RecordType::CompactBases),
            (columns::QUAL, RecordType::Text),
            (columns::RESULTS, RecordType::Results),
        ];
        // (location, dataset position, [metadata, bases, qual, results])
        let mut rows: Vec<(i64, u64, [Vec<u8>; 4])> = Vec::new();
        for entry in &src.records {
            let mut cols = Vec::with_capacity(4);
            for (col, _) in COLS {
                cols.push(self.load_chunk(span, &entry.path, col)?);
            }
            let results = self.decode_results(span, &cols[3])?;
            for (i, r) in results.iter().enumerate() {
                let rec = [0, 1, 2, 3].map(|c| cols[c].record(i).to_vec());
                rows.push((r.location, rows.len() as u64, rec));
            }
        }
        // Equal locations keep dataset order, as the program's
        // (key, chunk, position) composite does.
        rows.sort_by_key(|(location, position, _)| (*location, *position));

        let out_name = format!("{}.sorted", spec.name);
        let mut manifest = Manifest::new(&out_name);
        for col in [columns::BASES, columns::QUAL, columns::METADATA, columns::RESULTS] {
            manifest.add_column(col, CODEC)?;
        }
        manifest.reference = src.reference.clone();
        manifest.sort_order = SortOrder::Coordinate;
        manifest.row_groups = src.row_groups.clone();
        let chunk_size = src.records.first().map_or(spec.chunk_size, |e| e.num_records as usize);
        let mut first = 0u64;
        for (k, batch) in rows.chunks(chunk_size.max(1)).enumerate() {
            let stem = format!("{out_name}-{k}");
            for (c, (col, rtype)) in COLS.into_iter().enumerate() {
                let obj =
                    self.encode_chunk(span, rtype, batch.iter().map(|row| row.2[c].as_slice()))?;
                self.put(span, &Manifest::chunk_object_name(&stem, col), &obj)?;
            }
            manifest.records.push(ChunkEntry {
                path: stem,
                first_record: first,
                num_records: batch.len() as u32,
            });
            first += batch.len() as u64;
        }
        manifest.total_records = first;
        self.put_manifest(span, &manifest)?;
        Ok(manifest)
    }

    fn dupmark(&mut self, span: usize, manifest: &Manifest) -> Res<()> {
        let mut seen: HashSet<(i64, bool, i64)> = HashSet::new();
        for entry in &manifest.records {
            let chunk = self.load_chunk(span, &entry.path, columns::RESULTS)?;
            let mut results = self.decode_results(span, &chunk)?;
            let mut changed = false;
            for r in results.iter_mut() {
                if let Some(sig) = signature(r) {
                    if !seen.insert(sig) && !r.is_duplicate() {
                        r.flags |= flags::DUPLICATE;
                        changed = true;
                    }
                }
            }
            if changed {
                let encoded = self.encode_results(span, &results);
                let obj = self.encode_chunk(
                    span,
                    RecordType::Results,
                    encoded.iter().map(|r| r.as_slice()),
                )?;
                self.put(span, &Manifest::chunk_object_name(&entry.path, columns::RESULTS), &obj)?;
            }
        }
        Ok(())
    }

    fn export(
        &mut self,
        span: usize,
        export: Export,
        manifest: &Manifest,
        out: &mut ReplayOut,
    ) -> Res<()> {
        let refs = RefMap::new(&manifest.reference);
        if export == Export::Sam {
            sam::write_header(&mut out.sam, &refs, manifest.sort_order == SortOrder::Coordinate)?;
        }
        let mut records: Vec<SamRecord> = Vec::new();
        for entry in &manifest.records {
            let meta = self.load_chunk(span, &entry.path, columns::METADATA)?;
            let bases = self.load_chunk(span, &entry.path, columns::BASES)?;
            let quals = self.load_chunk(span, &entry.path, columns::QUAL)?;
            let chunk = self.load_chunk(span, &entry.path, columns::RESULTS)?;
            let results = self.decode_results(span, &chunk)?;
            let record = |i: usize| {
                SamRecord::from_result(
                    &refs,
                    meta.record(i),
                    bases.record(i),
                    quals.record(i),
                    &results[i],
                )
            };
            match export {
                Export::Sam => self.scope("formats.sam_format", span, |_| {
                    for i in 0..results.len() {
                        out.sam.extend_from_slice(&record(i).to_line(&refs));
                        out.sam.push(b'\n');
                    }
                }),
                Export::Bam => self.scope("formats.bam_write", span, |_| {
                    records.extend((0..results.len()).map(record));
                }),
            }
        }
        if export == Export::Bam {
            let spans = self.spans;
            let trace_id = self.trace_id;
            let mut bgzf_in = 0u64;
            spans.scope("formats.bam_write", trace_id, Some(span), |id| {
                bam::write_bam_with(&mut out.bam, &refs, records, LEVEL, |payload, level| {
                    bgzf_in = payload.len() as u64;
                    spans.scope("formats.bgzf", trace_id, Some(id), |_| {
                        bam::bgzf_compress(&payload, level)
                    })
                })
            })?;
            self.bytes.bgzf_in += bgzf_in;
        }
        Ok(())
    }
}

/// The duplicate signature of `persona::pipeline::dupmark` (private
/// there): unclipped 5' position, orientation, mate position for pairs.
fn signature(r: &AlignmentResult) -> Option<(i64, bool, i64)> {
    if r.is_unmapped() {
        return None;
    }
    let clip = |op: Option<&persona_agd::results::CigarOp>| {
        op.filter(|op| op.kind == CigarKind::SoftClip).map_or(0, |op| op.len as i64)
    };
    let pos = if r.is_reverse() {
        r.location + r.reference_span() as i64 + clip(r.cigar.last())
    } else {
        r.location - clip(r.cigar.first())
    };
    let mate = if r.flags & flags::PAIRED != 0 { r.mate_location } else { -2 };
    Some((pos, r.is_reverse(), mate))
}
