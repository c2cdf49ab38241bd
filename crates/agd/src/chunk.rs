//! AGD chunk objects: header, relative index, compressed data block.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "AGDC"
//! 4       1     format version (1)
//! 5       1     record type (RecordType)
//! 6       1     codec id (persona_compress::codec::Codec)
//! 7       1     flags (reserved, 0)
//! 8       4     record count
//! 12      8     uncompressed data block length
//! 20      8     compressed data block length
//! 28      4     CRC-32 of the compressed data block
//! 32      4×n   relative index: one u32 per record
//! 32+4n   ...   compressed data block
//! ```
//!
//! The relative index stores each record's *length*; offsets are obtained
//! by summing preceding entries (paper §3). For [`RecordType::CompactBases`]
//! and [`RecordType::ConsensusBases`] the length is in bases (the packed
//! byte size is derived, see [`compaction`]); for all other types it is
//! in bytes. The index is stored uncompressed so applications can build
//! an absolute index "on the fly" without touching the data block.
//!
//! A [`RecordType::ConsensusBases`] chunk stores its data block coded
//! against a consensus ([`consensus`]), with codec id 0 (none); its
//! header's uncompressed length is that of the base-5 block it decodes
//! to, and its compressed length that of the coded block.

use std::borrow::Cow;

use persona_compress::codec::Codec;
use persona_compress::crc32::crc32;
use persona_compress::deflate::CompressLevel;

use crate::{compaction, consensus};
use crate::{Error, Result};

/// Magic bytes at the start of every chunk object.
pub const MAGIC: [u8; 4] = *b"AGDC";
/// Current format version.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes.
pub const HEADER_SIZE: usize = 32;

/// How the records in a chunk's data block are encoded.
///
/// The chunk header records this so "applications know what type of
/// parsing to apply to each record" (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// Base characters, five to a 12-bit group ([`compaction`]; index
    /// unit: bases).
    CompactBases,
    /// Raw text records, e.g. qualities or metadata (index unit: bytes).
    Text,
    /// Binary alignment-result records (index unit: bytes).
    Results,
    /// Base records coded against a consensus the chunk carries
    /// ([`consensus`]; index unit: bases). Only a chunk object's header
    /// names it: its data block decodes to [`RecordType::CompactBases`]
    /// records, the record type of every chunk in memory.
    ConsensusBases,
}

/// On-disk id of a retired record type: bases 3 bits each, 21 to a
/// 64-bit word (the paper's layout, replaced by base-5 groups). The id
/// stays reserved, so a chunk naming it fails with
/// [`Error::RetiredRecordType`].
const RETIRED_ID: u8 = 0;
const RETIRED_NAME: &str = "3-bit bases";

impl RecordType {
    /// Stable on-disk id.
    pub fn id(self) -> u8 {
        match self {
            RecordType::Text => 1,
            RecordType::Results => 2,
            RecordType::CompactBases => 3,
            RecordType::ConsensusBases => 4,
        }
    }

    /// Parses an on-disk id.
    pub fn from_id(id: u8) -> Result<Self> {
        match id {
            1 => Ok(RecordType::Text),
            2 => Ok(RecordType::Results),
            3 => Ok(RecordType::CompactBases),
            4 => Ok(RecordType::ConsensusBases),
            RETIRED_ID => Err(Error::RetiredRecordType(RETIRED_NAME)),
            _ => Err(Error::Format(format!("unknown record type id {id}"))),
        }
    }
}

/// Decoded chunk header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHeader {
    /// Record encoding of the data block.
    pub record_type: RecordType,
    /// Compression codec of the data block.
    pub codec: Codec,
    /// Number of records.
    pub record_count: u32,
    /// Uncompressed data block length in bytes.
    pub uncompressed_len: u64,
    /// Compressed data block length in bytes.
    pub compressed_len: u64,
    /// CRC-32 of the compressed data block.
    pub payload_crc: u32,
}

impl ChunkHeader {
    /// Serializes the header into its 32-byte wire form.
    pub fn encode(&self) -> [u8; HEADER_SIZE] {
        let mut out = [0u8; HEADER_SIZE];
        out[0..4].copy_from_slice(&MAGIC);
        out[4] = VERSION;
        out[5] = self.record_type.id();
        out[6] = self.codec.id();
        out[7] = 0;
        out[8..12].copy_from_slice(&self.record_count.to_le_bytes());
        out[12..20].copy_from_slice(&self.uncompressed_len.to_le_bytes());
        out[20..28].copy_from_slice(&self.compressed_len.to_le_bytes());
        out[28..32].copy_from_slice(&self.payload_crc.to_le_bytes());
        out
    }

    /// Parses and validates a 32-byte header.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        if buf.len() < HEADER_SIZE {
            return Err(Error::Format("chunk shorter than header".into()));
        }
        if buf[0..4] != MAGIC {
            return Err(Error::Format("bad chunk magic".into()));
        }
        if buf[4] != VERSION {
            return Err(Error::Format(format!("unsupported chunk version {}", buf[4])));
        }
        Ok(ChunkHeader {
            record_type: RecordType::from_id(buf[5])?,
            codec: Codec::from_id(buf[6]).map_err(Error::Compress)?,
            record_count: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            uncompressed_len: u64::from_le_bytes(buf[12..20].try_into().unwrap()),
            compressed_len: u64::from_le_bytes(buf[20..28].try_into().unwrap()),
            payload_crc: u32::from_le_bytes(buf[28..32].try_into().unwrap()),
        })
    }
}

/// An AGD chunk decoded whole, every base unpacked to ASCII. The
/// pipeline works on [`RawChunk`] alone; this is the oracle its decoder
/// and [`RawChunk::append_plain`] are checked against, and the form the
/// regression benchmark's replay decodes to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkData {
    /// Record encoding.
    pub record_type: RecordType,
    /// Per-record lengths (bases for compacted bases, bytes otherwise).
    pub index: Vec<u32>,
    /// Decoded (uncompressed, *unpacked*) record data, concatenated.
    pub data: Vec<u8>,
    /// Absolute byte offset of each record in `data` (prefix sums),
    /// with a final total-length sentinel: `offsets.len() == index.len() + 1`.
    pub offsets: Vec<u64>,
}

impl ChunkData {
    /// Builds a chunk from records supplied as byte slices.
    pub fn from_records<'a>(
        record_type: RecordType,
        records: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<Self> {
        let mut index = Vec::new();
        let mut data = Vec::new();
        let mut offsets = vec![0u64];
        for rec in records {
            index.push(rec.len() as u32);
            data.extend_from_slice(rec);
            offsets.push(data.len() as u64);
        }
        Ok(ChunkData { record_type, index, data, offsets })
    }

    /// Number of records in the chunk.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the chunk holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Returns record `i` as a byte slice (ASCII bases for base chunks).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn record(&self, i: usize) -> &[u8] {
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        &self.data[start..end]
    }

    /// Iterates over all records in order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(move |i| self.record(i))
    }

    /// Serializes and compresses this chunk into its on-disk form.
    pub fn encode(&self, codec: Codec, level: CompressLevel) -> Result<Vec<u8>> {
        Ok(encode_block(self.record_type, &self.index, &self.stored_block()?, codec, level))
    }

    /// Parses and decompresses an on-disk chunk: the checks of
    /// [`RawChunk::decode`], the base groups checked as the whole data
    /// block is unpacked. The oracle [`RawChunk::append_plain`] is held
    /// to.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let RawChunk { record_type, index, data, offsets } = RawChunk::decode_block(buf)?;
        if record_type != RecordType::CompactBases {
            return Ok(ChunkData { record_type, index, data, offsets });
        }
        let mut bases = Vec::with_capacity(index.iter().map(|&n| n as usize).sum());
        let mut unpacked = Vec::with_capacity(index.len() + 1);
        unpacked.push(0u64);
        for (w, &n_bases) in offsets.windows(2).zip(&index) {
            let packed = &data[w[0] as usize..w[1] as usize];
            compaction::unpack_record(packed, n_bases as usize, &mut bases)?;
            unpacked.push(bases.len() as u64);
        }
        Ok(ChunkData { record_type, index, data: bases, offsets: unpacked })
    }

    /// The data block as stored, before compression.
    fn stored_block(&self) -> Result<Cow<'_, [u8]>> {
        Ok(match self.record_type {
            RecordType::CompactBases => {
                let mut packed = Vec::with_capacity(self.data.len() / 2 + 16);
                for rec in self.iter() {
                    compaction::pack_record(rec, &mut packed)?;
                }
                Cow::Owned(packed)
            }
            RecordType::Text | RecordType::Results => Cow::Borrowed(&self.data),
            RecordType::ConsensusBases => {
                return Err(Error::Format("a consensus block is coded from a sorted chunk".into()))
            }
        })
    }
}

/// Absolute offsets of the stored records an index describes, with the
/// total as the last entry.
fn stored_offsets(record_type: RecordType, index: &[u32]) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(index.len() + 1);
    let mut pos = 0u64;
    offsets.push(pos);
    for &len in index {
        pos += match record_type {
            RecordType::CompactBases | RecordType::ConsensusBases => {
                compaction::packed_size(len as usize) as u64
            }
            RecordType::Text | RecordType::Results => len as u64,
        };
        offsets.push(pos);
    }
    offsets
}

/// Header, relative index and compressed data block: the one place a
/// chunk object is written. An uncompressed block is copied once, into
/// the object.
fn encode_block(
    record_type: RecordType,
    index: &[u32],
    raw: &[u8],
    codec: Codec,
    level: CompressLevel,
) -> Vec<u8> {
    let compressed = match codec {
        Codec::None => Cow::Borrowed(raw),
        Codec::Gzip => Cow::Owned(codec.compress_level(raw, level)),
    };
    write_object(record_type, codec, index, raw.len(), &compressed)
}

/// Header, relative index and `stored`, the data block as coded, which
/// decodes to `uncompressed_len` bytes.
pub(crate) fn write_object(
    record_type: RecordType,
    codec: Codec,
    index: &[u32],
    uncompressed_len: usize,
    stored: &[u8],
) -> Vec<u8> {
    let header = ChunkHeader {
        record_type,
        codec,
        record_count: index.len() as u32,
        uncompressed_len: uncompressed_len as u64,
        compressed_len: stored.len() as u64,
        payload_crc: crc32(stored),
    };
    let mut out = Vec::with_capacity(HEADER_SIZE + 4 * index.len() + stored.len());
    out.extend_from_slice(&header.encode());
    for &sz in index {
        out.extend_from_slice(&sz.to_le_bytes());
    }
    out.extend_from_slice(stored);
    out
}

/// An AGD chunk as stored: the relative index and the decompressed data
/// block, each record's bytes as the block holds them — bases stay
/// packed in base-5 groups. This is what a step that only moves records
/// works on (the sort): it copies stored bytes from chunk to chunk and
/// never unpacks or repacks a base.
///
/// [`RawChunk::decode`] makes every check [`ChunkData::decode`] makes,
/// and leaves each packed record canonical, as
/// [`compaction::canonicalize_record`] describes: a raw chunk encodes to
/// the bytes that unpacking it and encoding the [`ChunkData`] would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawChunk {
    record_type: RecordType,
    /// Per-record index entries (bases for compacted bases, bytes
    /// otherwise), as in the stored relative index.
    index: Vec<u32>,
    /// The decompressed data block.
    data: Vec<u8>,
    /// Byte offset of each record in `data`, with the total last.
    offsets: Vec<u64>,
}

impl RawChunk {
    /// An empty chunk with room for `records` records of `bytes` stored
    /// bytes in total.
    ///
    /// # Panics
    ///
    /// Panics on [`RecordType::ConsensusBases`]: a bases chunk in memory
    /// holds [`RecordType::CompactBases`] groups.
    pub fn with_capacity(record_type: RecordType, records: usize, bytes: usize) -> Self {
        assert_ne!(record_type, RecordType::ConsensusBases, "bases are held as groups");
        let mut offsets = Vec::with_capacity(records + 1);
        offsets.push(0);
        RawChunk {
            record_type,
            index: Vec::with_capacity(records),
            data: Vec::with_capacity(bytes),
            offsets,
        }
    }

    /// Builds a chunk from records supplied as byte slices, packing
    /// each bases record. Fails on a base outside `A,C,G,T,N`.
    pub fn from_records<'a>(
        record_type: RecordType,
        records: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<Self> {
        let mut chunk = RawChunk::with_capacity(record_type, 0, 0);
        for rec in records {
            chunk.index.push(rec.len() as u32);
            match record_type {
                RecordType::CompactBases | RecordType::ConsensusBases => {
                    compaction::pack_record(rec, &mut chunk.data)?
                }
                RecordType::Text | RecordType::Results => chunk.data.extend_from_slice(rec),
            }
            chunk.offsets.push(chunk.data.len() as u64);
        }
        Ok(chunk)
    }

    /// Record encoding.
    pub fn record_type(&self) -> RecordType {
        self.record_type
    }

    /// Number of records in the chunk.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the chunk holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Record `i` as stored: packed groups for a bases chunk.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn record(&self, i: usize) -> &[u8] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Appends record `i` to `out` as plain bytes: a bases record
    /// unpacked to ASCII, any other record as stored. Fails on a group
    /// out of range (a patch that broke the record), leaving `out` as
    /// it was.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn append_plain(&self, i: usize, out: &mut Vec<u8>) -> Result<()> {
        match self.record_type {
            RecordType::CompactBases | RecordType::ConsensusBases => {
                compaction::unpack_record(self.record(i), self.index[i] as usize, out)
            }
            RecordType::Text | RecordType::Results => {
                out.extend_from_slice(self.record(i));
                Ok(())
            }
        }
    }

    /// Length of record `i` as plain bytes ([`RawChunk::append_plain`]):
    /// its relative index entry.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn plain_len(&self, i: usize) -> usize {
        self.index[i] as usize
    }

    /// The relative index: each record's length in bases or bytes.
    pub(crate) fn index(&self) -> &[u32] {
        &self.index
    }

    /// Length of the data block as stored.
    pub(crate) fn stored_len(&self) -> usize {
        self.data.len()
    }

    /// Record `i` as stored, to patch in place: a patch keeps the
    /// record's length, and a packed bases record canonical.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn record_mut(&mut self, i: usize) -> &mut [u8] {
        &mut self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Appends record `i` of `src`, copying its stored bytes.
    ///
    /// # Panics
    ///
    /// Panics if the two chunks' record types differ or `i` is out of
    /// range.
    #[inline]
    pub fn push_from(&mut self, src: &RawChunk, i: usize) {
        assert_eq!(self.record_type, src.record_type, "records move between chunks of one type");
        self.index.push(src.index[i]);
        self.data.extend_from_slice(src.record(i));
        self.offsets.push(self.data.len() as u64);
    }

    /// Appends the record `write` appends to the data block, so a
    /// record is encoded straight into the chunk.
    ///
    /// # Panics
    ///
    /// Panics on a bases chunk: its index counts bases, not the bytes
    /// written.
    #[inline]
    pub fn push_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        assert_ne!(self.record_type, RecordType::CompactBases, "bases records are packed");
        let start = self.data.len();
        write(&mut self.data);
        self.index.push((self.data.len() - start) as u32);
        self.offsets.push(self.data.len() as u64);
    }

    /// Serializes and compresses this chunk into its on-disk form.
    pub fn encode(&self, codec: Codec, level: CompressLevel) -> Vec<u8> {
        encode_block(self.record_type, &self.index, &self.data, codec, level)
    }

    /// Parses and decompresses an on-disk chunk, checking the header,
    /// the data block's checksum and length, and that the relative index
    /// covers the block exactly; for a bases chunk also every base group
    /// (see [`compaction::canonicalize_record`]).
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut chunk = RawChunk::decode_block(buf)?;
        if chunk.record_type == RecordType::CompactBases {
            for (w, &n_bases) in chunk.offsets.windows(2).zip(&chunk.index) {
                let packed = &mut chunk.data[w[0] as usize..w[1] as usize];
                compaction::canonicalize_record(packed, n_bases as usize)?;
            }
        }
        Ok(chunk)
    }

    /// [`RawChunk::decode`] short of the base groups: the header, the
    /// index and the data block, as stored.
    fn decode_block(buf: &[u8]) -> Result<Self> {
        let header = ChunkHeader::decode(buf)?;
        let n = header.record_count as usize;
        let index_end = HEADER_SIZE + 4 * n;
        if buf.len() < index_end {
            return Err(Error::Format("chunk truncated in relative index".into()));
        }
        let index: Vec<u32> = buf[HEADER_SIZE..index_end]
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        let payload_end = index_end.saturating_add(header.compressed_len as usize);
        if buf.len() < payload_end {
            return Err(Error::Format("chunk truncated in data block".into()));
        }
        let payload = &buf[index_end..payload_end];
        let actual_crc = crc32(payload);
        if actual_crc != header.payload_crc {
            return Err(Error::Compress(persona_compress::Error::ChecksumMismatch {
                expected: header.payload_crc,
                actual: actual_crc,
            }));
        }
        let (record_type, data) = match (header.record_type, header.codec) {
            (RecordType::ConsensusBases, Codec::None) => {
                let data = consensus::decode(payload, &index, header.uncompressed_len)?;
                (RecordType::CompactBases, data)
            }
            (RecordType::ConsensusBases, codec) => {
                return Err(Error::Format(format!("a consensus block is not coded by {codec}")))
            }
            (record_type, codec) => {
                // The header's length sizes the output buffer; a forged one
                // is capped by the codec and caught by the comparison below.
                let size_hint = usize::try_from(header.uncompressed_len).unwrap_or(usize::MAX);
                (record_type, codec.decompress_sized(payload, size_hint).map_err(Error::Compress)?)
            }
        };
        if data.len() as u64 != header.uncompressed_len {
            return Err(Error::Format(format!(
                "data block length {} != header {}",
                data.len(),
                header.uncompressed_len
            )));
        }

        // The absolute index, "generated on the fly" per the paper.
        let offsets = stored_offsets(record_type, &index);
        let total = *offsets.last().expect("offsets hold the total");
        match record_type {
            RecordType::CompactBases | RecordType::ConsensusBases => {
                if total > data.len() as u64 {
                    return Err(Error::Format("compacted data shorter than index".into()));
                }
                if total != data.len() as u64 {
                    return Err(Error::Format("trailing bytes after compacted records".into()));
                }
            }
            RecordType::Text | RecordType::Results => {
                if total != data.len() as u64 {
                    return Err(Error::Format(format!(
                        "index total {total} != data block length {}",
                        data.len()
                    )));
                }
            }
        }
        Ok(RawChunk { record_type, index, data, offsets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_chunk(rt: RecordType) -> ChunkData {
        let records: Vec<&[u8]> = match rt {
            RecordType::CompactBases => vec![b"ACGT", b"", b"NNNNN", b"ACGTACGTACGTACGTACGTACGTA"],
            _ => vec![b"hello", b"", b"world!!", b"\x00\x01\x02"],
        };
        ChunkData::from_records(rt, records).unwrap()
    }

    #[test]
    fn header_roundtrip() {
        let h = ChunkHeader {
            record_type: RecordType::Results,
            codec: Codec::None,
            record_count: 12345,
            uncompressed_len: 999_999,
            compressed_len: 54_321,
            payload_crc: 0xDEAD_BEEF,
        };
        assert_eq!(ChunkHeader::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn header_rejects_garbage() {
        assert!(ChunkHeader::decode(b"nope").is_err());
        let mut h =
            sample_chunk(RecordType::Text).encode(Codec::None, CompressLevel::Fast).unwrap();
        h[0] = b'X';
        assert!(ChunkData::decode(&h).is_err());
    }

    #[test]
    fn chunk_roundtrip_all_types_and_codecs() {
        for rt in [RecordType::CompactBases, RecordType::Text, RecordType::Results] {
            for codec in [Codec::None, Codec::Gzip] {
                let chunk = sample_chunk(rt);
                let encoded = chunk.encode(codec, CompressLevel::Fast).unwrap();
                let decoded = ChunkData::decode(&encoded).unwrap();
                assert_eq!(decoded, chunk, "{rt:?} {codec:?}");
            }
        }
    }

    #[test]
    fn retired_codec_id_fails_both_decoders() {
        let mut enc =
            sample_chunk(RecordType::Text).encode(Codec::None, CompressLevel::Fast).unwrap();
        enc[6] = 2;
        let retired = persona_compress::Error::RetiredCodec("range");
        assert!(matches!(ChunkData::decode(&enc), Err(Error::Compress(e)) if e == retired));
        assert!(matches!(RawChunk::decode(&enc), Err(Error::Compress(e)) if e == retired));
    }

    #[test]
    fn retired_record_type_id_fails_both_decoders() {
        let mut enc = sample_chunk(RecordType::CompactBases)
            .encode(Codec::None, CompressLevel::Fast)
            .unwrap();
        enc[5] = 0;
        let retired = |r: &Result<_>| matches!(r, Err(Error::RetiredRecordType("3-bit bases")));
        assert!(retired(&ChunkHeader::decode(&enc).map(|_| ())));
        assert!(retired(&ChunkData::decode(&enc).map(|_| ())));
        assert!(retired(&RawChunk::decode(&enc).map(|_| ())));
        assert!(err_text(RawChunk::decode(&enc)).contains("\"3-bit bases\" is retired"));
        enc[5] = 9;
        assert_eq!(err_text(RawChunk::decode(&enc)), "format error: unknown record type id 9");
    }

    #[test]
    fn record_access() {
        let chunk = sample_chunk(RecordType::Text);
        assert_eq!(chunk.len(), 4);
        assert_eq!(chunk.record(0), b"hello");
        assert_eq!(chunk.record(1), b"");
        assert_eq!(chunk.record(2), b"world!!");
        let all: Vec<&[u8]> = chunk.iter().collect();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn crc_detects_payload_corruption() {
        let chunk = sample_chunk(RecordType::Text);
        let mut enc = chunk.encode(Codec::Gzip, CompressLevel::Fast).unwrap();
        let n = enc.len();
        enc[n - 1] ^= 0xFF;
        match ChunkData::decode(&enc) {
            Err(Error::Compress(persona_compress::Error::ChecksumMismatch { .. })) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_detected() {
        let chunk = sample_chunk(RecordType::CompactBases);
        let enc = chunk.encode(Codec::Gzip, CompressLevel::Fast).unwrap();
        for cut in [3, HEADER_SIZE - 1, HEADER_SIZE + 3, enc.len() - 1] {
            assert!(ChunkData::decode(&enc[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn empty_chunk() {
        let chunk = ChunkData::from_records(RecordType::Text, Vec::<&[u8]>::new()).unwrap();
        let enc = chunk.encode(Codec::Gzip, CompressLevel::Fast).unwrap();
        let dec = ChunkData::decode(&enc).unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn compacted_chunk_is_smaller_than_text() {
        let reads: Vec<Vec<u8>> = (0..500)
            .map(|i| (0..101u8).map(|j| b"ACGT"[(i * 7 + j as usize) % 4]).collect::<Vec<u8>>())
            .collect();
        let refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let compact = ChunkData::from_records(RecordType::CompactBases, refs.iter().copied())
            .unwrap()
            .encode(Codec::None, CompressLevel::Fast)
            .unwrap();
        let text = ChunkData::from_records(RecordType::Text, refs.iter().copied())
            .unwrap()
            .encode(Codec::None, CompressLevel::Fast)
            .unwrap();
        assert!(compact.len() < text.len() * 45 / 100, "{} vs {}", compact.len(), text.len());
    }

    #[test]
    fn index_mismatch_detected() {
        // Tamper with the relative index after encoding.
        let chunk = sample_chunk(RecordType::Text);
        let mut enc = chunk.encode(Codec::None, CompressLevel::Fast).unwrap();
        enc[HEADER_SIZE] = 99; // First record length.
        assert!(ChunkData::decode(&enc).is_err());
    }

    /// `records` as a bases chunk encoded with `codec`.
    fn bases_chunk(records: &[&[u8]], codec: Codec) -> Vec<u8> {
        ChunkData::from_records(RecordType::CompactBases, records.iter().copied())
            .unwrap()
            .encode(codec, CompressLevel::Fast)
            .unwrap()
    }

    /// Rewrites the data block of an uncompressed chunk with `edit`,
    /// fixing up the header's length and checksum.
    fn edit_block(enc: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let header = ChunkHeader::decode(enc).unwrap();
        assert_eq!(header.codec, Codec::None);
        let block_at = enc.len() - header.compressed_len as usize;
        let mut block = enc[block_at..].to_vec();
        edit(&mut block);
        let header = ChunkHeader {
            uncompressed_len: block.len() as u64,
            compressed_len: block.len() as u64,
            payload_crc: crc32(&block),
            ..header
        };
        let mut out = header.encode().to_vec();
        out.extend_from_slice(&enc[HEADER_SIZE..block_at]);
        out.extend_from_slice(&block);
        out
    }

    /// `raw` read record by record through [`RawChunk::append_plain`].
    fn plain(raw: &RawChunk) -> ChunkData {
        let mut records = Vec::new();
        for i in 0..raw.len() {
            let mut record = Vec::new();
            raw.append_plain(i, &mut record).unwrap();
            records.push(record);
        }
        let rt = raw.record_type();
        ChunkData::from_records(rt, records.iter().map(|r| r.as_slice())).unwrap()
    }

    fn err_text<T: std::fmt::Debug>(r: Result<T>) -> String {
        r.expect_err("decode must fail").to_string()
    }

    #[test]
    fn raw_chunk_keeps_bases_packed() {
        let records: [&[u8]; 3] = [b"ACGTN", b"", b"ACGTACGTACGTACGTACGTAC"];
        let enc = bases_chunk(&records, Codec::Gzip);
        let raw = RawChunk::decode(&enc).unwrap();
        assert_eq!(raw.len(), 3);
        assert_eq!(raw.record_type(), RecordType::CompactBases);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(raw.record(i), compaction::pack(rec).unwrap());
        }
        assert_eq!(raw.encode(Codec::Gzip, CompressLevel::Fast), enc);
        assert_eq!(plain(&raw), ChunkData::decode(&enc).unwrap());
    }

    #[test]
    fn raw_chunk_gathers_records_by_copy() {
        let src = RawChunk::decode(&bases_chunk(&[b"AC", b"GGT", b"N"], Codec::None)).unwrap();
        let mut out = RawChunk::with_capacity(RecordType::CompactBases, 3, 24);
        for i in [2, 0, 1] {
            out.push_from(&src, i);
        }
        let want = bases_chunk(&[b"N", b"AC", b"GGT"], Codec::None);
        assert_eq!(out.encode(Codec::None, CompressLevel::Fast), want);
    }

    #[test]
    fn raw_chunk_rejects_a_bad_base_code_like_chunk_data() {
        let enc = bases_chunk(&[b"ACGT", b"TTTTTTTTTTTTTTTTTTTTTTTTT"], Codec::None);
        // 4,095 in the second record's first group (its bytes 0 and 1).
        let bad = edit_block(&enc, |block| {
            block[2] = 0xFF;
            block[3] |= 0x0F;
        });
        let want = err_text(ChunkData::decode(&bad));
        assert!(want.contains("base group 0 holds 4095"), "{want}");
        assert_eq!(err_text(RawChunk::decode(&bad)), want);
        // The same group patched into a decoded chunk: reading the
        // record fails alike and appends nothing.
        let mut raw = RawChunk::decode(&enc).unwrap();
        raw.record_mut(1)[0] = 0xFF;
        raw.record_mut(1)[1] |= 0x0F;
        let mut out = b"kept".to_vec();
        assert_eq!(err_text(raw.append_plain(1, &mut out)), want);
        assert_eq!(out, b"kept");
    }

    #[test]
    fn raw_chunk_rejects_what_chunk_data_rejects() {
        let enc = bases_chunk(&[b"ACGT", b"GATTACA"], Codec::None);
        let mut crc = enc.clone();
        *crc.last_mut().unwrap() ^= 1;
        let short = edit_block(&enc, |block| block.truncate(block.len() - 1));
        let trailing = edit_block(&enc, |block| block.extend_from_slice(&[0; 8]));
        let text = ChunkData::from_records(RecordType::Text, [b"ab".as_slice(), b"c"])
            .unwrap()
            .encode(Codec::None, CompressLevel::Fast)
            .unwrap();
        let text_short = edit_block(&text, |block| block.truncate(2));
        assert!(matches!(
            RawChunk::decode(&crc),
            Err(Error::Compress(persona_compress::Error::ChecksumMismatch { .. }))
        ));
        assert_eq!(
            err_text(RawChunk::decode(&short)),
            "format error: compacted data shorter than index"
        );
        assert_eq!(
            err_text(RawChunk::decode(&trailing)),
            "format error: trailing bytes after compacted records"
        );
        assert!(err_text(RawChunk::decode(&text_short)).contains("!= data block length"));
        for bad in [&crc, &short, &trailing, &text_short] {
            assert_eq!(err_text(RawChunk::decode(bad)), err_text(ChunkData::decode(bad)));
        }
        for cut in [3, HEADER_SIZE - 1, HEADER_SIZE + 3, enc.len() - 1] {
            assert!(RawChunk::decode(&enc[..cut]).is_err(), "cut {cut}");
        }
    }

    /// Bits no base uses are zeroed on decode, so the chunk re-encodes
    /// to what packing the same bases writes.
    #[test]
    fn raw_chunk_zeroes_unused_bits() {
        let records: [&[u8]; 4] =
            [b"A", b"ACGTACGTACGTACGTACGTA", b"CCCCCCCCCC", b"CCCCCCCCCCCCCCCCCCCCCCC"];
        let enc = bases_chunk(&records, Codec::None);
        let dirty = edit_block(&enc, |block| {
            // The padding nibble after each odd group count.
            let mut end = 0;
            for rec in records {
                end += compaction::packed_size(rec.len());
                if rec.len().div_ceil(compaction::BASES_PER_GROUP) % 2 == 1 {
                    block[end - 1] |= 0xF0;
                }
            }
        });
        assert_ne!(dirty, enc);
        let raw = RawChunk::decode(&dirty).unwrap();
        assert_eq!(raw.encode(Codec::None, CompressLevel::Fast), enc);
        assert_eq!(plain(&raw), ChunkData::decode(&dirty).unwrap());
    }

    /// Every single-bit flip of an encoded bases chunk — plain groups
    /// stored or gzipped, or coded against a consensus — decodes or
    /// fails with an error, both ways alike; nothing panics.
    #[test]
    fn raw_chunk_survives_every_single_bit_flip() {
        use crate::consensus::tests::{chunks, Shape};
        let records: [&[u8]; 4] = [b"ACGTN", b"", b"GATTACAGATTACAGATTACAGA", b"T"];
        let genome = b"GATTACAGATTACANGATTACAGATTACAGGATTACAGATTACAGATCCA";
        let placed: Vec<_> = (0..12)
            .map(|i| {
                let shape = if i % 3 == 1 { Shape::Reverse } else { Shape::Forward };
                (2 * i as u64, genome[2 * i..2 * i + 23].to_vec(), shape)
            })
            .collect();
        let (bases, results) = chunks(&placed);
        let coded = crate::consensus::encode(&bases, &results).expect("overlapping reads");
        let objects =
            [bases_chunk(&records, Codec::None), bases_chunk(&records, Codec::Gzip), coded];
        for enc in objects {
            for bit in 0..enc.len() * 8 {
                let mut flipped = enc.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                match (RawChunk::decode(&flipped), ChunkData::decode(&flipped)) {
                    (Ok(raw), Ok(data)) => assert_eq!(plain(&raw), data, "bit {bit}"),
                    (Err(raw), Err(data)) => {
                        assert_eq!(raw.to_string(), data.to_string(), "bit {bit}")
                    }
                    (raw, data) => panic!("bit {bit}: {raw:?} vs {data:?}"),
                }
            }
        }
    }

    fn any_records() -> impl Strategy<Value = Vec<Vec<u8>>> {
        proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N')],
                0..90,
            ),
            0..30,
        )
    }

    fn any_record_type() -> impl Strategy<Value = RecordType> {
        prop_oneof![
            Just(RecordType::CompactBases),
            Just(RecordType::Text),
            Just(RecordType::Results)
        ]
    }

    proptest! {
        /// `ChunkData` is `RawChunk` plus unpacking and packing.
        #[test]
        fn chunk_data_is_raw_chunk_plus_unpack(records in any_records(), rt in any_record_type()) {
            // An empty record and `N` bases in every case.
            let records: Vec<&[u8]> = [b"".as_slice(), b"NNANNNNNNNNNNNNNNNNNNNNNNT"]
                .into_iter()
                .chain(records.iter().map(|r| r.as_slice()))
                .collect();
            let data = ChunkData::from_records(rt, records.iter().copied()).unwrap();
            let raw = RawChunk::from_records(rt, records.iter().copied()).unwrap();
            let enc = data.encode(Codec::Gzip, CompressLevel::Fast).unwrap();
            prop_assert_eq!(raw.encode(Codec::Gzip, CompressLevel::Fast), enc.clone());
            let decoded = RawChunk::decode(&enc).unwrap();
            prop_assert_eq!(&decoded, &raw);
            let oracle = ChunkData::decode(&enc).unwrap();
            prop_assert_eq!(decoded.len(), oracle.len());
            let mut plain = b"head".to_vec();
            for i in 0..oracle.len() {
                let at = plain.len();
                decoded.append_plain(i, &mut plain).unwrap();
                prop_assert_eq!(&plain[at..], oracle.record(i), "record {}", i);
                prop_assert_eq!(decoded.plain_len(i), oracle.record(i).len());
            }
            prop_assert_eq!(&plain[..4], b"head");
        }

        /// A record written in place is the record pushed as a slice.
        #[test]
        fn push_with_is_from_records(records in any_records()) {
            let mut written = RawChunk::with_capacity(RecordType::Results, 0, 0);
            for r in &records {
                written.push_with(|out| out.extend_from_slice(r));
            }
            let slices = records.iter().map(|r| r.as_slice());
            prop_assert_eq!(written, RawChunk::from_records(RecordType::Results, slices).unwrap());
        }
    }
}
