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
//! the length is in bases (the packed byte size is derived); for all
//! other types it is in bytes. The index is stored uncompressed so
//! applications can build an absolute index "on the fly" without
//! touching the data block.

use std::borrow::Cow;

use persona_compress::codec::Codec;
use persona_compress::crc32::crc32;
use persona_compress::deflate::CompressLevel;

use crate::compaction;
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
    /// Base characters with 3-bit compaction (index unit: bases).
    CompactBases,
    /// Raw text records, e.g. qualities or metadata (index unit: bytes).
    Text,
    /// Binary alignment-result records (index unit: bytes).
    Results,
}

impl RecordType {
    /// Stable on-disk id.
    pub fn id(self) -> u8 {
        match self {
            RecordType::CompactBases => 0,
            RecordType::Text => 1,
            RecordType::Results => 2,
        }
    }

    /// Parses an on-disk id.
    pub fn from_id(id: u8) -> Result<Self> {
        match id {
            0 => Ok(RecordType::CompactBases),
            1 => Ok(RecordType::Text),
            2 => Ok(RecordType::Results),
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

/// An in-memory, decoded AGD chunk: the "useable, in-memory chunk object"
/// the paper's parser nodes produce (§4.2).
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
        // Re-encode the data block according to the record type.
        let raw: Cow<'_, [u8]> = match self.record_type {
            RecordType::CompactBases => {
                let mut packed = Vec::with_capacity(self.data.len() / 2 + 16);
                for rec in self.iter() {
                    compaction::pack_record(rec, &mut packed)?;
                }
                Cow::Owned(packed)
            }
            RecordType::Text | RecordType::Results => Cow::Borrowed(&self.data),
        };
        let compressed = codec.compress_level(&raw, level);
        let header = ChunkHeader {
            record_type: self.record_type,
            codec,
            record_count: self.index.len() as u32,
            uncompressed_len: raw.len() as u64,
            compressed_len: compressed.len() as u64,
            payload_crc: crc32(&compressed),
        };
        let mut out = Vec::with_capacity(HEADER_SIZE + 4 * self.index.len() + compressed.len());
        out.extend_from_slice(&header.encode());
        for &sz in &self.index {
            out.extend_from_slice(&sz.to_le_bytes());
        }
        out.extend_from_slice(&compressed);
        Ok(out)
    }

    /// Parses and decompresses an on-disk chunk.
    pub fn decode(buf: &[u8]) -> Result<Self> {
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
        let payload_end = index_end + header.compressed_len as usize;
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
        // The header's length sizes the output buffer; a forged one is
        // capped by the codec and caught by the comparison below.
        let size_hint = usize::try_from(header.uncompressed_len).unwrap_or(usize::MAX);
        let raw = header.codec.decompress_sized(payload, size_hint).map_err(Error::Compress)?;
        if raw.len() as u64 != header.uncompressed_len {
            return Err(Error::Format(format!(
                "data block length {} != header {}",
                raw.len(),
                header.uncompressed_len
            )));
        }

        // Unpack records and build the absolute index ("generated on the
        // fly" per the paper).
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let data = match header.record_type {
            RecordType::CompactBases => {
                let mut data = Vec::with_capacity(raw.len() * 2);
                let mut pos = 0usize;
                for &n_bases in &index {
                    let sz = compaction::packed_size(n_bases as usize);
                    if pos + sz > raw.len() {
                        return Err(Error::Format("compacted data shorter than index".into()));
                    }
                    compaction::unpack_record(&raw[pos..pos + sz], n_bases as usize, &mut data)?;
                    pos += sz;
                    offsets.push(data.len() as u64);
                }
                if pos != raw.len() {
                    return Err(Error::Format("trailing bytes after compacted records".into()));
                }
                data
            }
            RecordType::Text | RecordType::Results => {
                let mut pos = 0u64;
                for &sz in &index {
                    pos += sz as u64;
                    offsets.push(pos);
                }
                if pos != raw.len() as u64 {
                    return Err(Error::Format(format!(
                        "index total {pos} != data block length {}",
                        raw.len()
                    )));
                }
                raw
            }
        };
        Ok(ChunkData { record_type: header.record_type, index, data, offsets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            codec: Codec::Range,
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
            sample_chunk(RecordType::Text).encode(Codec::None, CompressLevel::Default).unwrap();
        h[0] = b'X';
        assert!(ChunkData::decode(&h).is_err());
    }

    #[test]
    fn chunk_roundtrip_all_types_and_codecs() {
        for rt in [RecordType::CompactBases, RecordType::Text, RecordType::Results] {
            for codec in [Codec::None, Codec::Gzip, Codec::Range] {
                let chunk = sample_chunk(rt);
                let encoded = chunk.encode(codec, CompressLevel::Default).unwrap();
                let decoded = ChunkData::decode(&encoded).unwrap();
                assert_eq!(decoded, chunk, "{rt:?} {codec:?}");
            }
        }
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
        let mut enc = chunk.encode(Codec::Gzip, CompressLevel::Default).unwrap();
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
        let enc = chunk.encode(Codec::Gzip, CompressLevel::Default).unwrap();
        for cut in [3, HEADER_SIZE - 1, HEADER_SIZE + 3, enc.len() - 1] {
            assert!(ChunkData::decode(&enc[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn empty_chunk() {
        let chunk = ChunkData::from_records(RecordType::Text, Vec::<&[u8]>::new()).unwrap();
        let enc = chunk.encode(Codec::Gzip, CompressLevel::Default).unwrap();
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
            .encode(Codec::None, CompressLevel::Default)
            .unwrap();
        let text = ChunkData::from_records(RecordType::Text, refs.iter().copied())
            .unwrap()
            .encode(Codec::None, CompressLevel::Default)
            .unwrap();
        assert!(compact.len() < text.len() * 45 / 100, "{} vs {}", compact.len(), text.len());
    }

    #[test]
    fn index_mismatch_detected() {
        // Tamper with the relative index after encoding.
        let chunk = sample_chunk(RecordType::Text);
        let mut enc = chunk.encode(Codec::None, CompressLevel::Default).unwrap();
        enc[HEADER_SIZE] = 99; // First record length.
        assert!(ChunkData::decode(&enc).is_err());
    }
}
