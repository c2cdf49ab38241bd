//! BAM: the binary, BGZF-compressed form of SAM.
//!
//! BGZF is a sequence of gzip members, each with a `BC` extra subfield
//! carrying the compressed block size, capped at 64 KiB of payload, and
//! terminated by a fixed 28-byte empty block. Built entirely on this
//! repository's own DEFLATE/gzip implementation.
//!
//! A payload is [`write_header`] followed by one [`write_record`] per
//! [`SamRow`]: each record is laid out in place at the end of the
//! caller's buffer — bases packed to 4-bit codes and qualities shifted
//! to phred in the same pass, a reverse-strand read turned around on the
//! way — and [`bgzf_block_ranges`] says where the payload's blocks are
//! cut. [`write_bam`] / [`write_bam_with`] build a whole file from owned
//! records through the same writer; the pipeline's export-bam stage cuts
//! and compresses the blocks while records are still being written.

use std::io::Write;

use persona_compress::deflate::CompressLevel;
use persona_compress::gzip;

use crate::sam::{RefMap, SamRecord, SamRow};
use crate::{Error, Result};

/// Maximum BGZF payload per block.
pub const BGZF_BLOCK_SIZE: usize = 0xFF00;

/// The standard BGZF end-of-file marker block.
pub const BGZF_EOF: [u8; 28] = [
    0x1f, 0x8b, 0x08, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0x06, 0x00, 0x42, 0x43, 0x02, 0x00,
    0x1b, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];

/// Splits a payload of `len` bytes into the `(lo, hi)` ranges of the
/// BGZF blocks that encode it. The single source of truth for block
/// boundaries: an empty payload is one empty block.
pub fn bgzf_block_ranges(len: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return vec![(0, 0)];
    }
    let mut ranges = Vec::with_capacity(len.div_ceil(BGZF_BLOCK_SIZE));
    let mut lo = 0usize;
    while lo < len {
        let hi = (lo + BGZF_BLOCK_SIZE).min(len);
        ranges.push((lo, hi));
        lo = hi;
    }
    ranges
}

/// Compresses `data` into a BGZF stream (without EOF marker).
pub fn bgzf_compress(data: &[u8], level: CompressLevel) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    for (lo, hi) in bgzf_block_ranges(data.len()) {
        append_bgzf_block(&mut out, &data[lo..hi], level);
    }
    out
}

/// Builds one BGZF block for a payload <= [`BGZF_BLOCK_SIZE`].
///
/// Public so callers with their own scheduler (e.g. Persona's shared
/// executor) can compress independent blocks as parallel tasks.
pub fn bgzf_block(payload: &[u8], level: CompressLevel) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() / 2 + 64);
    append_bgzf_block(&mut out, payload, level);
    out
}

/// Offset of the BSIZE field in a block written by [`append_bgzf_block`]:
/// 10 header bytes + XLEN(2) + "BC" + subfield length(2).
const BSIZE_OFFSET: usize = 16;

fn append_bgzf_block(out: &mut Vec<u8>, payload: &[u8], level: CompressLevel) {
    debug_assert!(payload.len() <= BGZF_BLOCK_SIZE);
    // Compress with a placeholder BSIZE (total block size - 1), then
    // patch it in.
    let start = out.len();
    gzip::compress_into(out, payload, level, Some(&[b'B', b'C', 2, 0, 0, 0]));
    let bsize = out.len() - start - 1;
    assert!(bsize <= u16::MAX as usize, "BGZF block too large");
    out[start + BSIZE_OFFSET..start + BSIZE_OFFSET + 2]
        .copy_from_slice(&(bsize as u16).to_le_bytes());
}

/// Compresses `data` into a BGZF stream using `threads` worker threads
/// (BGZF blocks are independent, which is exactly how `samtools -@`
/// parallelizes BAM writing).
pub fn bgzf_compress_parallel(data: &[u8], level: CompressLevel, threads: usize) -> Vec<u8> {
    if data.is_empty() || threads <= 1 {
        return bgzf_compress(data, level);
    }
    let chunks: Vec<&[u8]> =
        bgzf_block_ranges(data.len()).into_iter().map(|(lo, hi)| &data[lo..hi]).collect();
    let mut blocks: Vec<Vec<u8>> = vec![Vec::new(); chunks.len()];
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots = parking_lot_free_slots(&mut blocks);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= chunks.len() {
                    return;
                }
                let out = bgzf_block(chunks[i], level);
                // SAFETY-free: each index is claimed exactly once via the
                // atomic counter, so no two threads share a slot.
                slots[i].store(out);
            });
        }
    });
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    for slot in slots {
        out.extend_from_slice(&slot.take());
    }
    out
}

/// One single-writer cell per output block (claimed by atomic index).
struct BlockSlot {
    cell: std::sync::Mutex<Vec<u8>>,
}

impl BlockSlot {
    fn store(&self, v: Vec<u8>) {
        *self.cell.lock().unwrap() = v;
    }

    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.cell.lock().unwrap())
    }
}

fn parking_lot_free_slots(blocks: &mut [Vec<u8>]) -> Vec<BlockSlot> {
    (0..blocks.len()).map(|_| BlockSlot { cell: std::sync::Mutex::new(Vec::new()) }).collect()
}

/// How a BGZF block can violate the container format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BgzfError {
    /// Not a gzip member with a `BC` extra subfield.
    MissingBsize,
    /// The block's BSIZE reaches past the end of the stream.
    Truncated {
        /// Block size BSIZE declares.
        declared: usize,
        /// Bytes the stream has left.
        available: usize,
    },
    /// BSIZE disagrees with where the block's gzip member really ends.
    SizeMismatch {
        /// Block size BSIZE declares.
        declared: usize,
        /// Size of the member found there.
        actual: usize,
    },
    /// ISIZE claims more than the 64 KiB a BGZF block may hold.
    Oversized {
        /// The block's ISIZE field.
        isize: u32,
    },
}

impl std::fmt::Display for BgzfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BgzfError::MissingBsize => write!(f, "gzip member without BGZF BC subfield"),
            BgzfError::Truncated { declared, available } => {
                write!(f, "BSIZE declares {declared} bytes, {available} left")
            }
            BgzfError::SizeMismatch { declared, actual } => {
                write!(f, "BSIZE declares {declared} bytes, member is {actual}")
            }
            BgzfError::Oversized { isize } => write!(f, "ISIZE {isize} exceeds 65536"),
        }
    }
}

/// Largest ISIZE a BGZF block may declare.
const BGZF_MAX_ISIZE: u32 = 1 << 16;

/// Total size of the BGZF block at the start of `data`, from the `BC`
/// subfield of its gzip extra field.
fn bgzf_block_len(data: &[u8]) -> Option<usize> {
    let fixed = data.first_chunk::<12>()?;
    if fixed[..3] != [0x1f, 0x8b, 8] || fixed[3] & 4 == 0 {
        return None;
    }
    let xlen = u16::from_le_bytes([fixed[10], fixed[11]]) as usize;
    let mut subfields = data.get(12..12 + xlen)?;
    while let Some((head, rest)) = subfields.split_first_chunk::<4>() {
        let slen = u16::from_le_bytes([head[2], head[3]]) as usize;
        let value = rest.get(..slen)?;
        if head[..2] == *b"BC" && slen == 2 {
            return Some(u16::from_le_bytes([value[0], value[1]]) as usize + 1);
        }
        subfields = &rest[slen..];
    }
    None
}

/// Decompresses a BGZF stream (EOF marker tolerated, not required).
///
/// Each block is cut out by its BSIZE and decoded on its own, its
/// output allocated from its ISIZE.
pub fn bgzf_decompress(data: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len().saturating_mul(3));
    let mut pos = 0usize;
    while pos < data.len() {
        let bad = |kind| Error::Bgzf { offset: pos, kind };
        let rest = &data[pos..];
        let declared = bgzf_block_len(rest).ok_or(bad(BgzfError::MissingBsize))?;
        let available = rest.len();
        let block =
            rest.get(..declared).ok_or(bad(BgzfError::Truncated { declared, available }))?;
        if let Some(&isize) = block.last_chunk::<4>() {
            let isize = u32::from_le_bytes(isize);
            if isize > BGZF_MAX_ISIZE {
                return Err(bad(BgzfError::Oversized { isize }));
            }
        }
        let member = gzip::decompress_member(block)?;
        if member.compressed_size != declared {
            let actual = member.compressed_size;
            return Err(bad(BgzfError::SizeMismatch { declared, actual }));
        }
        out.extend_from_slice(&member.data);
        pos += declared;
    }
    Ok(out)
}

/// BAM's 4-bit base code: `=ACMGRSVTWYHKDBN` → 0..16, any other byte
/// → 15 (`N`).
const NIBBLE: [u8; 256] = {
    let mut t = [15u8; 256];
    let codes = b"=ACMGRSVTWYHKDBN";
    let mut i = 0;
    while i < codes.len() {
        t[codes[i] as usize] = i as u8;
        i += 1;
    }
    t
};

fn nibble_base(n: u8) -> u8 {
    b"=ACMGRSVTWYHKDBN"[n as usize & 0xF]
}

/// Appends one BAM record for `row` — its `block_size` and body — to
/// `out`: the fixed fields, the name, the CIGAR words, the bases as
/// 4-bit codes and the qualities as phred (no +33). A reverse row is
/// reverse-complemented and its qualities reversed on the way.
pub fn write_record(out: &mut Vec<u8>, row: &SamRow<'_>) {
    let name_len = row.qname.len() + 1;
    let l_seq = row.seq.len();
    let packed_len = l_seq.div_ceil(2);
    let body = 32 + name_len + 4 * row.cigar.len() + packed_len + row.qual.len();
    let start = out.len();
    out.resize(start + 4 + body, 0);
    let (fixed, rest) = out[start..].split_at_mut(36);
    let ref_id: i32 = row.rname.map_or(-1, |c| c as i32);
    let next_ref: i32 = row.rnext.map_or(-1, |c| c as i32);
    fixed[0..4].copy_from_slice(&(body as u32).to_le_bytes());
    fixed[4..8].copy_from_slice(&ref_id.to_le_bytes());
    fixed[8..12].copy_from_slice(&(row.pos as i32).to_le_bytes());
    fixed[12] = name_len as u8;
    fixed[13] = row.mapq;
    // fixed[14..16]: bin, unused here.
    fixed[16..18].copy_from_slice(&(row.cigar.len() as u16).to_le_bytes());
    fixed[18..20].copy_from_slice(&row.flag.to_le_bytes());
    fixed[20..24].copy_from_slice(&(l_seq as u32).to_le_bytes());
    fixed[24..28].copy_from_slice(&next_ref.to_le_bytes());
    fixed[28..32].copy_from_slice(&(row.pnext as i32).to_le_bytes());
    fixed[32..36].copy_from_slice(&row.tlen.to_le_bytes());
    let (name, rest) = rest.split_at_mut(name_len);
    name[..row.qname.len()].copy_from_slice(row.qname);
    let (cigar, rest) = rest.split_at_mut(4 * row.cigar.len());
    for (word, op) in cigar.chunks_exact_mut(4).zip(row.cigar) {
        word.copy_from_slice(&((op.len << 4) | op.kind as u32).to_le_bytes());
    }
    let (packed, quals) = rest.split_at_mut(packed_len);
    if row.reverse {
        // Pairs from the end of the read; the odd base, if any, is the
        // read's first and lands alone in the last byte.
        let code = |b: u8| NIBBLE[persona_seq::dna::complement(b) as usize];
        for (byte, pair) in packed.iter_mut().zip(row.seq.rchunks(2)) {
            let lo = if pair.len() == 2 { code(pair[0]) } else { 0 };
            *byte = (code(pair[pair.len() - 1]) << 4) | lo;
        }
        for (q, &ascii) in quals.iter_mut().zip(row.qual.iter().rev()) {
            *q = ascii.saturating_sub(b'!');
        }
    } else {
        for (byte, pair) in packed.iter_mut().zip(row.seq.chunks(2)) {
            let lo = pair.get(1).map_or(0, |&b| NIBBLE[b as usize]);
            *byte = (NIBBLE[pair[0] as usize] << 4) | lo;
        }
        for (q, &ascii) in quals.iter_mut().zip(row.qual) {
            *q = ascii.saturating_sub(b'!');
        }
    }
}

/// Appends the BAM header — magic, SAM header text and reference list —
/// that starts every BAM payload.
pub fn write_header(payload: &mut Vec<u8>, refs: &RefMap) -> Result<()> {
    payload.extend_from_slice(b"BAM\x01");
    let mut text = Vec::new();
    crate::sam::write_header(&mut text, refs, false)?;
    payload.extend_from_slice(&(text.len() as u32).to_le_bytes());
    payload.extend_from_slice(&text);
    payload.extend_from_slice(&(refs.contigs().len() as u32).to_le_bytes());
    for c in refs.contigs() {
        payload.extend_from_slice(&((c.name.len() + 1) as u32).to_le_bytes());
        payload.extend_from_slice(c.name.as_bytes());
        payload.push(0);
        payload.extend_from_slice(&(c.length as u32).to_le_bytes());
    }
    Ok(())
}

/// Serializes a full BAM file (header + records + EOF marker).
pub fn write_bam(
    out: &mut impl Write,
    refs: &RefMap,
    records: impl IntoIterator<Item = SamRecord>,
    level: CompressLevel,
) -> Result<u64> {
    write_bam_with(out, refs, records, level, |payload, level| bgzf_compress(&payload, level))
}

/// Serializes a full BAM file using a caller-supplied BGZF compressor
/// (payload → complete BGZF stream without the EOF marker), so the
/// compression can run on an external scheduler. The payload is passed
/// by value so a parallel compressor can share it without copying.
pub fn write_bam_with(
    out: &mut impl Write,
    refs: &RefMap,
    records: impl IntoIterator<Item = SamRecord>,
    level: CompressLevel,
    compress: impl FnOnce(Vec<u8>, CompressLevel) -> Vec<u8>,
) -> Result<u64> {
    // Uncompressed BAM payload, then BGZF it.
    let mut payload = Vec::new();
    write_header(&mut payload, refs)?;
    let mut n = 0u64;
    for rec in records {
        write_record(&mut payload, &SamRow::from_record(&rec));
        n += 1;
    }
    let bgzf = compress(payload, level);
    out.write_all(&bgzf)?;
    out.write_all(&BGZF_EOF)?;
    Ok(n)
}

/// A parsed BAM file.
#[derive(Debug)]
pub struct BamFile {
    /// SAM header text.
    pub header_text: String,
    /// Reference contigs, in BAM order.
    pub refs: RefMap,
    /// Alignment records.
    pub records: Vec<SamRecord>,
}

/// Parses a complete BAM byte buffer.
pub fn read_bam(data: &[u8]) -> Result<BamFile> {
    let payload = bgzf_decompress(data)?;
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
        if *pos + n > payload.len() {
            return Err(Error::Parse { record: 0, what: "BAM truncated".into() });
        }
        let s = &payload[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    if take(&mut pos, 4)? != b"BAM\x01" {
        return Err(Error::Parse { record: 0, what: "bad BAM magic".into() });
    }
    let l_text = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    let header_text = String::from_utf8_lossy(take(&mut pos, l_text)?).into_owned();
    let n_ref = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    let mut contigs = Vec::with_capacity(n_ref);
    for _ in 0..n_ref {
        let l_name = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let name_bytes = take(&mut pos, l_name)?;
        let name = String::from_utf8_lossy(&name_bytes[..l_name.saturating_sub(1)]).into_owned();
        let l_ref = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as u64;
        contigs.push(persona_agd::manifest::RefContig { name, length: l_ref });
    }
    let refs = RefMap::new(&contigs);

    let mut records = Vec::new();
    let mut rec_idx = 0u64;
    while pos < payload.len() {
        let block_size = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let body = take(&mut pos, block_size)?;
        records.push(decode_bam_record(body, rec_idx)?);
        rec_idx += 1;
    }
    Ok(BamFile { header_text, refs, records })
}

fn decode_bam_record(body: &[u8], record: u64) -> Result<SamRecord> {
    if body.len() < 32 {
        return Err(Error::Parse { record, what: "BAM record shorter than fixed part".into() });
    }
    let ref_id = i32::from_le_bytes(body[0..4].try_into().unwrap());
    let pos = i32::from_le_bytes(body[4..8].try_into().unwrap()) as i64;
    let l_read_name = body[8] as usize;
    let mapq = body[9];
    let n_cigar = u16::from_le_bytes(body[12..14].try_into().unwrap()) as usize;
    let flag = u16::from_le_bytes(body[14..16].try_into().unwrap());
    let l_seq = u32::from_le_bytes(body[16..20].try_into().unwrap()) as usize;
    let next_ref = i32::from_le_bytes(body[20..24].try_into().unwrap());
    let pnext = i32::from_le_bytes(body[24..28].try_into().unwrap()) as i64;
    let tlen = i32::from_le_bytes(body[28..32].try_into().unwrap());
    let mut p = 32usize;
    let need = l_read_name + 4 * n_cigar + l_seq.div_ceil(2) + l_seq;
    if body.len() < p + need {
        return Err(Error::Parse { record, what: "BAM record truncated".into() });
    }
    let qname = body[p..p + l_read_name.saturating_sub(1)].to_vec();
    p += l_read_name;
    let mut cigar = Vec::with_capacity(n_cigar);
    for _ in 0..n_cigar {
        let word = u32::from_le_bytes(body[p..p + 4].try_into().unwrap());
        cigar.push(persona_agd::results::CigarOp {
            kind: persona_agd::results::CigarKind::from_code((word & 0xF) as u8)
                .map_err(|e| Error::Parse { record, what: e.to_string() })?,
            len: word >> 4,
        });
        p += 4;
    }
    let mut seq = Vec::with_capacity(l_seq);
    for i in 0..l_seq {
        let byte = body[p + i / 2];
        let nib = if i % 2 == 0 { byte >> 4 } else { byte & 0xF };
        seq.push(nibble_base(nib));
    }
    p += l_seq.div_ceil(2);
    let qual: Vec<u8> = body[p..p + l_seq].iter().map(|&q| q + b'!').collect();
    Ok(SamRecord {
        qname,
        flag,
        rname: (ref_id >= 0).then_some(ref_id as u32),
        pos,
        mapq,
        cigar,
        rnext: (next_ref >= 0).then_some(next_ref as u32),
        pnext,
        tlen,
        seq,
        qual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use persona_agd::manifest::RefContig;
    use persona_agd::results::{flags, CigarKind, CigarOp};

    fn refs() -> RefMap {
        RefMap::new(&[
            RefContig { name: "chr1".into(), length: 100_000 },
            RefContig { name: "chr2".into(), length: 50_000 },
        ])
    }

    fn records() -> Vec<SamRecord> {
        (0..50)
            .map(|i| SamRecord {
                qname: format!("read{i}").into_bytes(),
                flag: if i % 3 == 0 { flags::REVERSE } else { 0 },
                rname: Some((i % 2) as u32),
                pos: (i * 137) as i64,
                mapq: (i % 61) as u8,
                cigar: vec![CigarOp { kind: CigarKind::Match, len: 100 }],
                rnext: None,
                pnext: -1,
                tlen: 0,
                seq: (0..100).map(|j| b"ACGT"[(i + j) % 4]).collect(),
                qual: vec![b'I'; 100],
            })
            .collect()
    }

    /// `encode_bam_record` before rows: one `Vec` per record and one
    /// more for the packed bases.
    fn oracle_body(rec: &SamRecord) -> Vec<u8> {
        let name_len = rec.qname.len() + 1;
        let n_cigar = rec.cigar.len();
        let l_seq = rec.seq.len();
        let mut out = Vec::with_capacity(32 + name_len + 4 * n_cigar + l_seq);
        let ref_id: i32 = rec.rname.map_or(-1, |c| c as i32);
        let next_ref: i32 = rec.rnext.map_or(-1, |c| c as i32);
        out.extend_from_slice(&ref_id.to_le_bytes());
        out.extend_from_slice(&(rec.pos as i32).to_le_bytes());
        out.push(name_len as u8);
        out.push(rec.mapq);
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(n_cigar as u16).to_le_bytes());
        out.extend_from_slice(&rec.flag.to_le_bytes());
        out.extend_from_slice(&(l_seq as u32).to_le_bytes());
        out.extend_from_slice(&next_ref.to_le_bytes());
        out.extend_from_slice(&(rec.pnext as i32).to_le_bytes());
        out.extend_from_slice(&rec.tlen.to_le_bytes());
        out.extend_from_slice(&rec.qname);
        out.push(0);
        for op in &rec.cigar {
            out.extend_from_slice(&((op.len << 4) | op.kind as u32).to_le_bytes());
        }
        let base_nibble = |b: u8| match b {
            b'=' => 0,
            b'A' => 1,
            b'C' => 2,
            b'M' => 3,
            b'G' => 4,
            b'R' => 5,
            b'S' => 6,
            b'V' => 7,
            b'T' => 8,
            b'W' => 9,
            b'Y' => 10,
            b'H' => 11,
            b'K' => 12,
            b'D' => 13,
            b'B' => 14,
            _ => 15,
        };
        let mut nib = Vec::with_capacity(l_seq.div_ceil(2));
        for pair in rec.seq.chunks(2) {
            let hi = base_nibble(pair[0]);
            let lo = if pair.len() > 1 { base_nibble(pair[1]) } else { 0 };
            nib.push((hi << 4) | lo);
        }
        out.extend_from_slice(&nib);
        out.extend(rec.qual.iter().map(|&q| q.saturating_sub(b'!')));
        out
    }

    #[test]
    fn record_writer_matches_the_oracle() {
        let refs = crate::sam::oracle::refs();
        let mut out = Vec::new();
        for (i, c) in crate::sam::oracle::cases(4000, 0xB4A).iter().enumerate() {
            let row = SamRow::from_result(&refs, &c.meta, &c.bases, &c.quals, &c.result);
            let old = crate::sam::oracle::record(&refs, &c.meta, &c.bases, &c.quals, &c.result);
            let body = oracle_body(&old);
            out.clear();
            out.extend_from_slice(b"prefix");
            write_record(&mut out, &row);
            assert_eq!(&out[..6], b"prefix");
            assert_eq!(out[6..10], (body.len() as u32).to_le_bytes(), "case {i}");
            assert_eq!(out[10..], body, "case {i}");
            // The owned record through the same writer.
            out.truncate(6);
            write_record(&mut out, &SamRow::from_record(&old));
            assert_eq!(out[10..], body, "case {i}");
        }
    }

    #[test]
    fn bgzf_roundtrip() {
        for size in [0usize, 1, 100, BGZF_BLOCK_SIZE, BGZF_BLOCK_SIZE + 1, 200_000] {
            let data: Vec<u8> = (0..size).map(|i| (i * 31) as u8).collect();
            let packed = bgzf_compress(&data, CompressLevel::Fast);
            assert_eq!(bgzf_decompress(&packed).unwrap(), data, "size {size}");
        }
    }

    #[test]
    fn bgzf_eof_marker_is_valid_empty_block() {
        assert_eq!(bgzf_decompress(&BGZF_EOF).unwrap(), b"");
    }

    #[test]
    fn bgzf_rejects_plain_gzip() {
        let plain = persona_compress::gzip::compress(b"not bgzf");
        let err = bgzf_decompress(&plain).unwrap_err();
        assert!(matches!(err, Error::Bgzf { offset: 0, kind: BgzfError::MissingBsize }), "{err}");
    }

    fn hex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s.bytes().filter(u8::is_ascii_hexdigit).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    /// A BGZF block assembled per the SAM specification around zlib
    /// 1.2.13's raw deflate (level 6), not by this repository's encoder.
    const FOREIGN_BLOCK: &str = "
        1f8b08040000000000ff0600424302003c007372f4654ccb2f4acd4ccf53484a
        af4a5348cac94fce562848acccc94f4c5118d25200ede8531adc000000";

    #[test]
    fn bgzf_reads_a_foreign_block_and_the_eof_marker() {
        let mut stream = hex(FOREIGN_BLOCK);
        let payload = [&b"BAM\x01"[..], &b"foreign bgzf block payload ".repeat(8)].concat();
        assert_eq!(bgzf_decompress(&stream).unwrap(), payload);
        stream.extend_from_slice(&BGZF_EOF);
        stream.extend_from_slice(&hex(FOREIGN_BLOCK));
        assert_eq!(bgzf_decompress(&stream).unwrap(), payload.repeat(2));
    }

    #[test]
    fn bgzf_finds_the_bc_subfield_among_others() {
        let block = bgzf_block(b"payload", CompressLevel::Fast);
        // Splice an unrelated 3-byte subfield in front of BC.
        let mut spliced = block[..10].to_vec();
        spliced.extend_from_slice(&13u16.to_le_bytes());
        spliced.extend_from_slice(b"XY\x03\x00abc");
        spliced.extend_from_slice(&block[12..16]);
        spliced.extend_from_slice(&(block.len() as u16 + 7 - 1).to_le_bytes());
        spliced.extend_from_slice(&block[18..]);
        assert_eq!(bgzf_decompress(&spliced).unwrap(), b"payload");
    }

    #[test]
    fn bgzf_checks_bsize_and_isize() {
        let block = bgzf_block(&b"some payload ".repeat(20), CompressLevel::Fast);
        let with_bsize = |bsize: u16| {
            let mut b = block.clone();
            b[BSIZE_OFFSET..BSIZE_OFFSET + 2].copy_from_slice(&bsize.to_le_bytes());
            b
        };
        let real = block.len() as u16 - 1;

        // BSIZE reaching past the end of the stream.
        match bgzf_decompress(&with_bsize(real + 1)) {
            Err(Error::Bgzf { offset: 0, kind: BgzfError::Truncated { declared, available } }) => {
                assert_eq!((declared, available), (block.len() + 1, block.len()));
            }
            other => panic!("{other:?}"),
        }
        // BSIZE covering more than the member (junk between blocks).
        let mut padded = with_bsize(real + 3);
        padded.extend_from_slice(&[0, 0, 0]);
        padded.extend_from_slice(&BGZF_EOF);
        match bgzf_decompress(&padded) {
            Err(Error::Bgzf { offset: 0, kind: BgzfError::SizeMismatch { declared, actual } }) => {
                assert_eq!((declared, actual), (block.len() + 3, block.len()));
            }
            other => panic!("{other:?}"),
        }
        // BSIZE cutting the member short: whatever the cut leaves is
        // not a valid member.
        let mut two = with_bsize(real - 9);
        two.extend_from_slice(&block);
        assert!(bgzf_decompress(&two).is_err());
        // The second block is the bad one.
        let mut two = block.clone();
        two.extend_from_slice(&with_bsize(real + 1));
        let err = bgzf_decompress(&two).unwrap_err();
        assert!(
            matches!(err, Error::Bgzf { offset, kind: BgzfError::Truncated { .. } } if offset == block.len()),
            "{err}"
        );

        // ISIZE beyond what a BGZF block may hold is refused before any
        // output is allocated for it.
        let mut forged = block.clone();
        let n = forged.len();
        forged[n - 4..].copy_from_slice(&65_537u32.to_le_bytes());
        let err = bgzf_decompress(&forged).unwrap_err();
        assert!(
            matches!(err, Error::Bgzf { offset: 0, kind: BgzfError::Oversized { isize: 65_537 } }),
            "{err}"
        );
    }

    #[test]
    fn incompressible_full_block_fits_bsize() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let payload: Vec<u8> = (0..BGZF_BLOCK_SIZE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for level in [CompressLevel::Store, CompressLevel::Fast, CompressLevel::Best] {
            let block = bgzf_block(&payload, level);
            assert!(block.len() - 1 <= u16::MAX as usize, "{level:?}: {} bytes", block.len());
            assert_eq!(bgzf_decompress(&block).unwrap(), payload);
        }
    }

    #[test]
    fn bam_roundtrip() {
        let refs = refs();
        let recs = records();
        let mut buf = Vec::new();
        let n = write_bam(&mut buf, &refs, recs.clone(), CompressLevel::Fast).unwrap();
        assert_eq!(n, 50);
        let parsed = read_bam(&buf).unwrap();
        assert_eq!(parsed.records, recs);
        assert_eq!(parsed.refs.contigs().len(), 2);
        assert_eq!(parsed.refs.contigs()[1].name, "chr2");
        assert!(parsed.header_text.contains("@SQ\tSN:chr1"));
    }

    #[test]
    fn bam_empty_file() {
        let refs = refs();
        let mut buf = Vec::new();
        write_bam(&mut buf, &refs, Vec::new(), CompressLevel::Fast).unwrap();
        let parsed = read_bam(&buf).unwrap();
        assert!(parsed.records.is_empty());
    }

    #[test]
    fn bam_unmapped_record() {
        let refs = refs();
        let rec = SamRecord {
            qname: b"u1".to_vec(),
            flag: flags::UNMAPPED,
            rname: None,
            pos: -1,
            mapq: 0,
            cigar: Vec::new(),
            rnext: None,
            pnext: -1,
            tlen: 0,
            seq: b"ACGT".to_vec(),
            qual: b"IIII".to_vec(),
        };
        let mut buf = Vec::new();
        write_bam(&mut buf, &refs, vec![rec.clone()], CompressLevel::Fast).unwrap();
        let parsed = read_bam(&buf).unwrap();
        assert_eq!(parsed.records[0], rec);
    }

    #[test]
    fn bam_detects_corruption() {
        let refs = refs();
        let mut buf = Vec::new();
        write_bam(&mut buf, &refs, records(), CompressLevel::Fast).unwrap();
        buf[40] ^= 0xFF;
        assert!(read_bam(&buf).is_err());
    }

    #[test]
    fn odd_length_sequence() {
        let refs = refs();
        let rec = SamRecord {
            qname: b"odd".to_vec(),
            flag: 0,
            rname: Some(0),
            pos: 5,
            mapq: 10,
            cigar: vec![CigarOp { kind: CigarKind::Match, len: 5 }],
            rnext: None,
            pnext: -1,
            tlen: 0,
            seq: b"ACGTN".to_vec(),
            qual: b"IJKLM".to_vec(),
        };
        let mut buf = Vec::new();
        write_bam(&mut buf, &refs, vec![rec.clone()], CompressLevel::Fast).unwrap();
        assert_eq!(read_bam(&buf).unwrap().records[0], rec);
    }
}
