//! The SAM text format: records, header, reference mapping.
//!
//! SAM is the row-oriented de-facto standard the paper contrasts AGD
//! against (§2.2): every record carries all fields on one line, so
//! selective field access requires parsing everything.
//!
//! Writing goes the other way, one [`SamRow`] at a time: a row borrows
//! the fields of one record — straight from the AGD columns and a
//! decoded alignment result, or from an owned [`SamRecord`] — and
//! [`write_line`] appends its line to the caller's buffer, integers
//! through a digit buffer, a reverse-strand read complemented on the
//! way, with no allocation per record. [`SamRecord::to_line`] and
//! [`SamRecord::from_result`] are thin users of the same row.

use std::io::Write;

use persona_agd::manifest::RefContig;
use persona_agd::results::{AlignmentResult, CigarKind, CigarOp};

use crate::{Error, Result};

/// Maps between global linear positions and (contig, offset) pairs,
/// built from manifest reference metadata.
#[derive(Debug, Clone)]
pub struct RefMap {
    contigs: Vec<RefContig>,
    starts: Vec<u64>,
}

impl RefMap {
    /// Builds a map from contig metadata.
    pub fn new(contigs: &[RefContig]) -> Self {
        let mut starts = Vec::with_capacity(contigs.len());
        let mut total = 0u64;
        for c in contigs {
            starts.push(total);
            total += c.length;
        }
        RefMap { contigs: contigs.to_vec(), starts }
    }

    /// The contig list.
    pub fn contigs(&self) -> &[RefContig] {
        &self.contigs
    }

    /// Resolves a linear position to (contig index, 0-based offset).
    pub fn resolve(&self, pos: i64) -> Option<(usize, u64)> {
        if pos < 0 {
            return None;
        }
        let pos = pos as u64;
        let idx = self.starts.partition_point(|&s| s <= pos).checked_sub(1)?;
        let off = pos - self.starts[idx];
        (off < self.contigs[idx].length).then_some((idx, off))
    }

    /// A linear position as SAM's (contig index, 0-based offset), or
    /// `(None, -1)` off the reference.
    fn place(&self, pos: i64) -> (Option<u32>, i64) {
        match self.resolve(pos) {
            Some((c, off)) => (Some(c as u32), off as i64),
            None => (None, -1),
        }
    }

    /// Converts (contig index, offset) back to a linear position.
    pub fn to_linear(&self, contig: usize, off: u64) -> u64 {
        self.starts[contig] + off
    }

    /// Finds a contig index by name.
    pub fn contig_index(&self, name: &str) -> Option<usize> {
        self.contigs.iter().position(|c| c.name == name)
    }
}

/// One alignment record as borrowed fields, in the shape both record
/// writers ([`write_line`], [`crate::bam::write_record`]) consume: a row
/// of the AGD columns, or a [`SamRecord`], with nothing copied.
#[derive(Debug, Clone, Copy)]
pub struct SamRow<'a> {
    /// Query (read) name.
    pub qname: &'a [u8],
    /// SAM flags.
    pub flag: u16,
    /// Reference contig index, or `None` for `*`.
    pub rname: Option<u32>,
    /// 0-based leftmost position.
    pub pos: i64,
    /// Mapping quality.
    pub mapq: u8,
    /// CIGAR operations (empty renders as `*`).
    pub cigar: &'a [CigarOp],
    /// Mate contig index, or `None` for `*`.
    pub rnext: Option<u32>,
    /// Mate 0-based position (-1 when absent).
    pub pnext: i64,
    /// Template length.
    pub tlen: i32,
    /// Read bases.
    pub seq: &'a [u8],
    /// ASCII qualities.
    pub qual: &'a [u8],
    /// Whether `seq` and `qual` are in read orientation of a
    /// reverse-strand alignment, so the writers emit the reverse
    /// complement of the bases and the qualities reversed.
    pub reverse: bool,
}

impl<'a> SamRow<'a> {
    /// The row of an AGD alignment result plus the read's raw columns.
    ///
    /// SAM stores reverse-strand reads as the reference-forward
    /// sequence; Persona's results column keeps read orientation in the
    /// flag and the raw read in the bases column, so the row is marked
    /// `reverse` and the writers turn it around.
    pub fn from_result(
        refs: &RefMap,
        meta: &'a [u8],
        bases: &'a [u8],
        quals: &'a [u8],
        result: &'a AlignmentResult,
    ) -> Self {
        let (rname, pos) = refs.place(result.location);
        let (rnext, pnext) = refs.place(result.mate_location);
        SamRow {
            qname: meta,
            flag: result.flags,
            rname,
            pos,
            mapq: result.mapq,
            cigar: &result.cigar,
            rnext,
            pnext,
            tlen: result.template_len,
            seq: bases,
            qual: quals,
            reverse: result.is_reverse(),
        }
    }

    /// The row of a record that is already in SAM orientation.
    pub fn from_record(rec: &'a SamRecord) -> Self {
        SamRow {
            qname: &rec.qname,
            flag: rec.flag,
            rname: rec.rname,
            pos: rec.pos,
            mapq: rec.mapq,
            cigar: &rec.cigar,
            rnext: rec.rnext,
            pnext: rec.pnext,
            tlen: rec.tlen,
            seq: &rec.seq,
            qual: &rec.qual,
            reverse: false,
        }
    }
}

/// Appends one SAM text line for `row` (without trailing newline).
pub fn write_line(out: &mut Vec<u8>, refs: &RefMap, row: &SamRow<'_>) {
    out.reserve(row.qname.len() + row.seq.len() + row.qual.len() + 6 * row.cigar.len() + 64);
    out.extend_from_slice(row.qname);
    out.push(b'\t');
    push_int(out, row.flag.into());
    out.push(b'\t');
    out.extend_from_slice(contig_name(refs, row.rname));
    out.push(b'\t');
    push_int(out, row.pos + 1);
    out.push(b'\t');
    push_int(out, row.mapq.into());
    out.push(b'\t');
    if row.cigar.is_empty() {
        out.push(b'*');
    }
    for op in row.cigar {
        push_int(out, op.len.into());
        out.push(op.kind.to_char() as u8);
    }
    out.push(b'\t');
    match row.rnext {
        Some(_) if row.rnext == row.rname => out.push(b'='),
        rnext => out.extend_from_slice(contig_name(refs, rnext)),
    }
    out.push(b'\t');
    push_int(out, row.pnext + 1);
    out.push(b'\t');
    push_int(out, row.tlen.into());
    out.push(b'\t');
    if row.seq.is_empty() {
        out.push(b'*');
    } else if row.reverse {
        out.extend(row.seq.iter().rev().map(|&b| persona_seq::dna::complement(b)));
    } else {
        out.extend_from_slice(row.seq);
    }
    out.push(b'\t');
    if row.qual.is_empty() {
        out.push(b'*');
    } else if row.reverse {
        out.extend(row.qual.iter().rev());
    } else {
        out.extend_from_slice(row.qual);
    }
}

/// A contig's name, or `*` for none.
fn contig_name(refs: &RefMap, contig: Option<u32>) -> &[u8] {
    match contig {
        Some(c) => refs.contigs()[c as usize].name.as_bytes(),
        None => b"*",
    }
}

/// Appends `v` in decimal, through a digit buffer.
fn push_int(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    let mut v = v.unsigned_abs();
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// One SAM alignment line, owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamRecord {
    /// Query (read) name.
    pub qname: Vec<u8>,
    /// SAM flags.
    pub flag: u16,
    /// Reference contig index, or `None` for `*`.
    pub rname: Option<u32>,
    /// 0-based leftmost position (SAM text is 1-based; conversion is
    /// applied at (de)serialization).
    pub pos: i64,
    /// Mapping quality.
    pub mapq: u8,
    /// CIGAR operations (empty renders as `*`).
    pub cigar: Vec<CigarOp>,
    /// Mate contig index, or `None` for `*`.
    pub rnext: Option<u32>,
    /// Mate 0-based position (-1 when absent).
    pub pnext: i64,
    /// Template length.
    pub tlen: i32,
    /// Read bases.
    pub seq: Vec<u8>,
    /// ASCII qualities.
    pub qual: Vec<u8>,
}

impl SamRecord {
    /// Builds a SAM record from an AGD alignment result plus the read's
    /// raw columns (see [`SamRow::from_result`]).
    pub fn from_result(
        refs: &RefMap,
        meta: &[u8],
        bases: &[u8],
        quals: &[u8],
        result: &AlignmentResult,
    ) -> Self {
        SamRecord::from_row(&SamRow::from_result(refs, meta, bases, quals, result))
    }

    /// Owns a row, turning a reverse row into SAM orientation.
    pub fn from_row(row: &SamRow<'_>) -> Self {
        let (seq, qual) = if row.reverse {
            (persona_seq::dna::revcomp(row.seq), row.qual.iter().rev().copied().collect())
        } else {
            (row.seq.to_vec(), row.qual.to_vec())
        };
        SamRecord {
            qname: row.qname.to_vec(),
            flag: row.flag,
            rname: row.rname,
            pos: row.pos,
            mapq: row.mapq,
            cigar: row.cigar.to_vec(),
            rnext: row.rnext,
            pnext: row.pnext,
            tlen: row.tlen,
            seq,
            qual,
        }
    }

    /// Serializes as one SAM text line (without trailing newline).
    pub fn to_line(&self, refs: &RefMap) -> Vec<u8> {
        let mut line = Vec::new();
        write_line(&mut line, refs, &SamRow::from_record(self));
        line
    }

    /// Parses one SAM text line.
    pub fn parse_line(refs: &RefMap, line: &str, record: u64) -> Result<Self> {
        let mut f = line.split('\t');
        let mut field = |what: &str| {
            f.next().ok_or_else(|| Error::Parse { record, what: format!("missing field {what}") })
        };
        let qname = field("qname")?.as_bytes().to_vec();
        let flag: u16 = field("flag")?
            .parse()
            .map_err(|e| Error::Parse { record, what: format!("flag: {e}") })?;
        let rname_s = field("rname")?;
        let rname =
            if rname_s == "*" {
                None
            } else {
                Some(refs.contig_index(rname_s).ok_or_else(|| Error::Parse {
                    record,
                    what: format!("unknown contig {rname_s}"),
                })? as u32)
            };
        let pos: i64 = field("pos")?
            .parse::<i64>()
            .map_err(|e| Error::Parse { record, what: format!("pos: {e}") })?
            - 1;
        let mapq: u8 = field("mapq")?
            .parse()
            .map_err(|e| Error::Parse { record, what: format!("mapq: {e}") })?;
        let cigar_s = field("cigar")?;
        let cigar = if cigar_s == "*" { Vec::new() } else { parse_cigar(cigar_s, record)? };
        let rnext_s = field("rnext")?;
        let rnext = match rnext_s {
            "*" => None,
            "=" => rname,
            name => Some(refs.contig_index(name).ok_or_else(|| Error::Parse {
                record,
                what: format!("unknown mate contig {name}"),
            })? as u32),
        };
        let pnext: i64 = field("pnext")?
            .parse::<i64>()
            .map_err(|e| Error::Parse { record, what: format!("pnext: {e}") })?
            - 1;
        let tlen: i32 = field("tlen")?
            .parse()
            .map_err(|e| Error::Parse { record, what: format!("tlen: {e}") })?;
        let seq_s = field("seq")?;
        let seq = if seq_s == "*" { Vec::new() } else { seq_s.as_bytes().to_vec() };
        let qual_s = field("qual")?;
        let qual = if qual_s == "*" { Vec::new() } else { qual_s.as_bytes().to_vec() };
        Ok(SamRecord { qname, flag, rname, pos, mapq, cigar, rnext, pnext, tlen, seq, qual })
    }
}

fn parse_cigar(s: &str, record: u64) -> Result<Vec<CigarOp>> {
    let mut ops = Vec::new();
    let mut len = 0u32;
    let mut saw_digit = false;
    for ch in s.chars() {
        if let Some(d) = ch.to_digit(10) {
            len = len * 10 + d;
            saw_digit = true;
        } else {
            if !saw_digit {
                return Err(Error::Parse {
                    record,
                    what: format!("CIGAR op without length in {s}"),
                });
            }
            let kind = match ch {
                'M' => CigarKind::Match,
                'I' => CigarKind::Ins,
                'D' => CigarKind::Del,
                'N' => CigarKind::Skip,
                'S' => CigarKind::SoftClip,
                'H' => CigarKind::HardClip,
                'P' => CigarKind::Pad,
                '=' => CigarKind::Eq,
                'X' => CigarKind::Diff,
                _ => return Err(Error::Parse { record, what: format!("bad CIGAR op {ch}") }),
            };
            ops.push(CigarOp { kind, len });
            len = 0;
            saw_digit = false;
        }
    }
    if saw_digit {
        return Err(Error::Parse { record, what: format!("trailing CIGAR length in {s}") });
    }
    Ok(ops)
}

/// Writes the SAM header (`@HD` + one `@SQ` per contig).
pub fn write_header(out: &mut impl Write, refs: &RefMap, sorted: bool) -> Result<()> {
    let so = if sorted { "coordinate" } else { "unsorted" };
    writeln!(out, "@HD\tVN:1.6\tSO:{so}")?;
    for c in refs.contigs() {
        writeln!(out, "@SQ\tSN:{}\tLN:{}", c.name, c.length)?;
    }
    writeln!(out, "@PG\tID:persona\tPN:persona")?;
    Ok(())
}

/// Random alignment rows over a multi-contig reference, and the record
/// builder and line writer as they were before rows existed: the
/// oracles the SAM and BAM writers are checked against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// `SamRecord::from_result` before rows: resolve, revcomp, copy.
    pub(crate) fn record(
        refs: &RefMap,
        meta: &[u8],
        bases: &[u8],
        quals: &[u8],
        result: &AlignmentResult,
    ) -> SamRecord {
        let (rname, pos) = match refs.resolve(result.location) {
            Some((c, off)) => (Some(c as u32), off as i64),
            None => (None, -1),
        };
        let (rnext, pnext) = match refs.resolve(result.mate_location) {
            Some((c, off)) => (Some(c as u32), off as i64),
            None => (None, -1),
        };
        let (seq, qual) = if result.is_reverse() {
            let mut q = quals.to_vec();
            q.reverse();
            (persona_seq::dna::revcomp(bases), q)
        } else {
            (bases.to_vec(), quals.to_vec())
        };
        SamRecord {
            qname: meta.to_vec(),
            flag: result.flags,
            rname,
            pos,
            mapq: result.mapq,
            cigar: result.cigar.clone(),
            rnext,
            pnext,
            tlen: result.template_len,
            seq,
            qual,
        }
    }

    /// `SamRecord::to_line` before rows: a `String` per name and a
    /// `format!` per field and CIGAR op.
    pub(crate) fn line(rec: &SamRecord, refs: &RefMap) -> Vec<u8> {
        let mut out = Vec::with_capacity(rec.seq.len() * 2 + 64);
        out.extend_from_slice(&rec.qname);
        let rname = match rec.rname {
            Some(c) => refs.contigs()[c as usize].name.clone(),
            None => "*".to_string(),
        };
        let rnext = match rec.rnext {
            Some(_) if rec.rnext == rec.rname => "=".to_string(),
            Some(c) => refs.contigs()[c as usize].name.clone(),
            None => "*".to_string(),
        };
        let cigar = if rec.cigar.is_empty() {
            "*".to_string()
        } else {
            rec.cigar.iter().map(|op| format!("{}{}", op.len, op.kind.to_char())).collect()
        };
        let fields = format!(
            "\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t",
            rec.flag,
            rname,
            rec.pos + 1,
            rec.mapq,
            cigar,
            rnext,
            rec.pnext + 1,
            rec.tlen,
        );
        out.extend_from_slice(fields.as_bytes());
        out.extend_from_slice(if rec.seq.is_empty() { b"*" } else { &rec.seq });
        out.push(b'\t');
        out.extend_from_slice(if rec.qual.is_empty() { b"*" } else { &rec.qual });
        out
    }

    /// Contigs of lengths 1, 1000, 7 and 65,536.
    pub(crate) fn refs() -> RefMap {
        RefMap::new(&[
            RefContig { name: "chr1".into(), length: 1 },
            RefContig { name: "chr2".into(), length: 1000 },
            RefContig { name: "x".into(), length: 7 },
            RefContig { name: "chrLong".into(), length: 65_536 },
        ])
    }

    /// The columns of one read and its alignment result.
    pub(crate) struct Case {
        pub meta: Vec<u8>,
        pub bases: Vec<u8>,
        pub quals: Vec<u8>,
        pub result: AlignmentResult,
    }

    /// `n` random cases over [`refs`]: unmapped and reverse reads; a
    /// mate on the same contig, another or none; positions at contig
    /// ends and off the reference; every CIGAR kind, lengths up to
    /// `u32::MAX >> 4`; extreme and negative template lengths; empty
    /// and mismatched bases/qualities; arbitrary bytes in forward bases
    /// (a reverse read is complemented, so its bases are `ACGTN`). The
    /// first case carries all 256 byte values as bases.
    pub(crate) fn cases(n: usize, seed: u64) -> Vec<Case> {
        let refs = refs();
        let total: i64 = refs.contigs().iter().map(|c| c.length as i64).sum();
        let mut edges = vec![-1i64, 0, total - 1, total, total + 5];
        for (i, c) in refs.contigs().iter().enumerate() {
            let start = refs.to_linear(i, 0) as i64;
            edges.extend([start, start + c.length as i64 - 1]);
        }
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n)
            .map(|k| {
                let mut pick = |m: u64| (next() % m) as usize;
                let position = |pick: &mut dyn FnMut(u64) -> usize| {
                    if pick(2) == 0 {
                        edges[pick(edges.len() as u64)]
                    } else {
                        pick(total as u64) as i64
                    }
                };
                let location = position(&mut pick);
                let mate_location = match pick(3) {
                    0 => -1,
                    1 => location,
                    _ => position(&mut pick),
                };
                let mut flags = pick(1 << 16) as u16;
                if k == 0 {
                    flags &= !persona_agd::results::flags::REVERSE;
                }
                let cigar = (0..pick(7))
                    .map(|_| CigarOp {
                        kind: CigarKind::from_code(pick(9) as u8).unwrap(),
                        len: match pick(3) {
                            0 => (u32::MAX >> 4) - pick(3) as u32,
                            _ => pick(300) as u32,
                        },
                    })
                    .collect();
                let template_len = match pick(4) {
                    0 => [i32::MIN, i32::MAX, 0, -1][pick(4)],
                    _ => pick(2000) as i32 - 1000,
                };
                let result = AlignmentResult {
                    location,
                    mate_location,
                    template_len,
                    flags,
                    mapq: pick(256) as u8,
                    cigar,
                };
                let len = [0, 1, 2, 101, pick(160)][pick(5)];
                let bases: Vec<u8> = if k == 0 {
                    (0..=255u8).collect()
                } else if result.is_reverse() {
                    (0..len).map(|_| b"ACGTN"[pick(5)]).collect()
                } else {
                    (0..len).map(|_| pick(256) as u8).collect()
                };
                let qual_len = if pick(6) == 0 { pick(4) } else { bases.len() };
                let quals = (0..qual_len).map(|_| pick(256) as u8).collect();
                let meta = (0..[0, 12, 40, 300][pick(4)]).map(|_| pick(256) as u8).collect();
                Case { meta, bases, quals, result }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_agd::results::flags;

    fn refs() -> RefMap {
        RefMap::new(&[
            RefContig { name: "chr1".into(), length: 1000 },
            RefContig { name: "chr2".into(), length: 500 },
        ])
    }

    fn record() -> SamRecord {
        SamRecord {
            qname: b"read1".to_vec(),
            flag: flags::PAIRED | flags::FIRST_IN_PAIR,
            rname: Some(1),
            pos: 42,
            mapq: 60,
            cigar: vec![CigarOp { kind: CigarKind::Match, len: 10 }],
            rnext: Some(1),
            pnext: 142,
            tlen: 110,
            seq: b"ACGTACGTAC".to_vec(),
            qual: b"IIIIIIIIII".to_vec(),
        }
    }

    #[test]
    fn refmap_resolution() {
        let r = refs();
        assert_eq!(r.resolve(0), Some((0, 0)));
        assert_eq!(r.resolve(999), Some((0, 999)));
        assert_eq!(r.resolve(1000), Some((1, 0)));
        assert_eq!(r.resolve(1499), Some((1, 499)));
        assert_eq!(r.resolve(1500), None);
        assert_eq!(r.resolve(-1), None);
        assert_eq!(r.to_linear(1, 10), 1010);
        assert_eq!(r.contig_index("chr2"), Some(1));
    }

    #[test]
    fn line_roundtrip() {
        let r = refs();
        let rec = record();
        let line = String::from_utf8(rec.to_line(&r)).unwrap();
        assert!(line.contains("\tchr2\t43\t")); // 1-based position.
        assert!(line.contains("\t=\t143\t")); // Same-contig mate as '='.
        let parsed = SamRecord::parse_line(&r, &line, 0).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn unmapped_renders_stars() {
        let r = refs();
        let rec = SamRecord {
            rname: None,
            pos: -1,
            cigar: Vec::new(),
            rnext: None,
            pnext: -1,
            ..record()
        };
        let line = String::from_utf8(rec.to_line(&r)).unwrap();
        assert!(line.contains("\t*\t0\t"));
        assert!(line.contains("\t*\t*\t0\t") || line.contains("\t*\t"));
        let parsed = SamRecord::parse_line(&r, &line, 0).unwrap();
        assert_eq!(parsed.rname, None);
        assert_eq!(parsed.pos, -1);
    }

    #[test]
    fn result_conversion_roundtrip() {
        let r = refs();
        let result = AlignmentResult {
            location: 1042, // chr2:42.
            mate_location: 1142,
            template_len: 110,
            flags: flags::PAIRED,
            mapq: 37,
            cigar: vec![CigarOp { kind: CigarKind::Match, len: 10 }],
        };
        let rec = SamRecord::from_result(&r, b"q", b"ACGTACGTAC", b"IIIIIIIIII", &result);
        assert_eq!(rec.rname, Some(1));
        assert_eq!(rec.pos, 42);
        assert_eq!((rec.rnext, rec.pnext, rec.tlen), (Some(1), 142, 110));
        assert_eq!((rec.flag, rec.mapq), (flags::PAIRED, 37));
        assert_eq!(rec.cigar, result.cigar);
    }

    #[test]
    fn reverse_strand_export_revcomps() {
        let r = refs();
        let result = AlignmentResult {
            location: 5,
            mate_location: -1,
            template_len: 0,
            flags: flags::REVERSE,
            mapq: 60,
            cigar: vec![CigarOp { kind: CigarKind::Match, len: 4 }],
        };
        let rec = SamRecord::from_result(&r, b"q", b"ACGT", b"ABCD", &result);
        assert_eq!(rec.seq, persona_seq::dna::revcomp(b"ACGT"));
        assert_eq!(rec.qual, b"DCBA");
    }

    #[test]
    fn cigar_parsing() {
        assert_eq!(parse_cigar("101M", 0).unwrap().len(), 1);
        assert_eq!(parse_cigar("5S90M2I4M", 0).unwrap().len(), 4);
        assert!(parse_cigar("M", 0).is_err());
        assert!(parse_cigar("10", 0).is_err());
        assert!(parse_cigar("10Q", 0).is_err());
    }

    #[test]
    fn header_contains_contigs() {
        let mut buf = Vec::new();
        write_header(&mut buf, &refs(), true).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("SO:coordinate"));
        assert!(text.contains("@SQ\tSN:chr1\tLN:1000"));
        assert!(text.contains("@SQ\tSN:chr2\tLN:500"));
    }

    #[test]
    fn line_writer_matches_the_oracle() {
        let refs = oracle::refs();
        let mut line = Vec::new();
        for (i, c) in oracle::cases(4000, 0x5EED).iter().enumerate() {
            let row = SamRow::from_result(&refs, &c.meta, &c.bases, &c.quals, &c.result);
            let old = oracle::record(&refs, &c.meta, &c.bases, &c.quals, &c.result);
            line.clear();
            write_line(&mut line, &refs, &row);
            assert_eq!(line, oracle::line(&old, &refs), "case {i}");
            let rec = SamRecord::from_result(&refs, &c.meta, &c.bases, &c.quals, &c.result);
            assert_eq!(rec, old, "case {i}");
            assert_eq!(rec.to_line(&refs), line, "case {i}");
        }
    }

    #[test]
    fn parse_rejects_bad_lines() {
        let r = refs();
        assert!(SamRecord::parse_line(&r, "only\ttwo", 3).is_err());
        assert!(SamRecord::parse_line(&r, "q\tBAD\t*\t0\t0\t*\t*\t0\t0\t*\t*", 3).is_err());
        assert!(SamRecord::parse_line(&r, "q\t0\tchrX\t1\t0\t*\t*\t0\t0\t*\t*", 3).is_err());
    }
}
