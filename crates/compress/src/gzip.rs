//! RFC 1952 gzip member framing around the DEFLATE codec.

use crate::crc32::crc32;
use crate::deflate::compress::deflate_into;
use crate::deflate::{inflate_from, CompressLevel};
use crate::{Error, Result};

/// gzip FLG bits.
const FTEXT: u8 = 1 << 0;
const FHCRC: u8 = 1 << 1;
const FEXTRA: u8 = 1 << 2;
const FNAME: u8 = 1 << 3;
const FCOMMENT: u8 = 1 << 4;

/// gzip XFL: the compressor used its fastest algorithm (there is only
/// the one).
const XFL_FASTEST: u8 = 4;

/// Size of the fixed member header, and of the CRC-32 + ISIZE trailer.
const HEADER_LEN: usize = 10;
const TRAILER_LEN: usize = 8;

/// Compresses `data` into a single-member gzip stream at
/// [`CompressLevel::Fast`].
///
/// # Examples
///
/// ```
/// use persona_compress::gzip;
///
/// let packed = gzip::compress(b"persona persona persona");
/// assert_eq!(&packed[..2], &[0x1f, 0x8b]);
/// assert_eq!(gzip::decompress(&packed).unwrap(), b"persona persona persona");
/// ```
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_level(data, CompressLevel::Fast)
}

/// Compresses `data` into a single-member gzip stream.
pub fn compress_level(data: &[u8], level: CompressLevel) -> Vec<u8> {
    compress_with_extra(data, level, None)
}

/// Compresses `data` into a gzip member with an optional FEXTRA field
/// (used by BGZF, which stores the block size in an extra subfield).
pub fn compress_with_extra(data: &[u8], level: CompressLevel, extra: Option<&[u8]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    compress_into(&mut out, data, level, extra);
    out
}

/// Appends `data` to `out` as one gzip member, compressing straight
/// into `out`; [`compress_with_extra`] for callers that are assembling a
/// multi-member stream.
pub fn compress_into(out: &mut Vec<u8>, data: &[u8], level: CompressLevel, extra: Option<&[u8]>) {
    let flg = if extra.is_some() { FEXTRA } else { 0 };
    out.extend_from_slice(&[0x1f, 0x8b, 8, flg, 0, 0, 0, 0, XFL_FASTEST, 255]);
    if let Some(x) = extra {
        assert!(x.len() <= u16::MAX as usize, "FEXTRA too large");
        out.extend_from_slice(&(x.len() as u16).to_le_bytes());
        out.extend_from_slice(x);
    }
    deflate_into(out, data, level);
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
}

/// A parsed gzip member.
#[derive(Debug)]
pub struct Member {
    /// Decompressed payload.
    pub data: Vec<u8>,
    /// Raw FEXTRA bytes, if present.
    pub extra: Option<Vec<u8>>,
    /// Total compressed size of the member, including header and trailer.
    pub compressed_size: usize,
}

/// Decompresses one gzip member from the start of `data`.
///
/// The output is allocated from the ISIZE field in the last four bytes
/// of `data` — the member's own when `data` ends with it, as a BGZF
/// block or a single-member file does — and never for more than
/// [`MAX_EXPANSION`](crate::deflate::inflate::MAX_EXPANSION) times
/// `data`'s length.
pub fn decompress_member(data: &[u8]) -> Result<Member> {
    decompress_member_sized(data, trailing_isize(data)?)
}

/// The ISIZE field `data` ends with, if `data` is long enough to hold a
/// member at all.
fn trailing_isize(data: &[u8]) -> Result<usize> {
    match data.last_chunk::<4>() {
        Some(isize) if data.len() >= HEADER_LEN + TRAILER_LEN => {
            Ok(u32::from_le_bytes(*isize) as usize)
        }
        _ => Err(Error::UnexpectedEof),
    }
}

fn decompress_member_sized(data: &[u8], size_hint: usize) -> Result<Member> {
    if data.len() < HEADER_LEN {
        return Err(Error::UnexpectedEof);
    }
    if data[0] != 0x1f || data[1] != 0x8b {
        return Err(Error::BadHeader("gzip magic"));
    }
    if data[2] != 8 {
        return Err(Error::BadHeader("compression method (must be deflate)"));
    }
    let flg = data[3];
    let mut pos = HEADER_LEN;

    let mut extra = None;
    if flg & FEXTRA != 0 {
        if data.len() < pos + 2 {
            return Err(Error::UnexpectedEof);
        }
        let xlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2;
        if data.len() < pos + xlen {
            return Err(Error::UnexpectedEof);
        }
        extra = Some(data[pos..pos + xlen].to_vec());
        pos += xlen;
    }
    for flag in [FNAME, FCOMMENT] {
        if flg & flag != 0 {
            let nul = data[pos..].iter().position(|&b| b == 0).ok_or(Error::UnexpectedEof)?;
            pos += nul + 1;
        }
    }
    if flg & FHCRC != 0 {
        if data.len() < pos + 2 {
            return Err(Error::UnexpectedEof);
        }
        pos += 2;
    }
    let _ = FTEXT; // Informational only.

    let (payload, consumed) = inflate_from(&data[pos..], size_hint)?;
    pos += consumed;
    if data.len() < pos + TRAILER_LEN {
        return Err(Error::UnexpectedEof);
    }
    let expect_crc = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
    let expect_isize = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
    pos += TRAILER_LEN;

    let actual_crc = crc32(&payload);
    if actual_crc != expect_crc {
        return Err(Error::ChecksumMismatch { expected: expect_crc, actual: actual_crc });
    }
    let actual_isize = payload.len() as u32;
    if actual_isize != expect_isize {
        return Err(Error::LengthMismatch {
            expected: expect_isize as u64,
            actual: actual_isize as u64,
        });
    }
    Ok(Member { data: payload, extra, compressed_size: pos })
}

/// Decompresses a gzip stream, concatenating all members (the gzip spec
/// defines multi-member streams as concatenation, which is also how
/// sequencing centers ship multi-part FASTQ.gz files).
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    decompress_sized(data, trailing_isize(data)?)
}

/// [`decompress`] for a caller that knows how long the output should be
/// (AGD chunk headers record it): the first member's buffer is
/// allocated for `size_hint` bytes — capped like every inflate
/// allocation — and, when the stream has a single member, returned as
/// is. A wrong hint costs time, not correctness.
pub fn decompress_sized(data: &[u8], size_hint: usize) -> Result<Vec<u8>> {
    let first = decompress_member_sized(data, size_hint)?;
    let mut out = first.data;
    let mut pos = first.compressed_size;
    while pos < data.len() {
        // Nothing says how long a later member is before it is decoded.
        let member = decompress_member_sized(&data[pos..], 0)?;
        out.extend_from_slice(&member.data);
        pos += member.compressed_size;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic() {
        let data = b"GATTACA".repeat(100);
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn roundtrip_empty() {
        assert_eq!(decompress(&compress(b"")).unwrap(), b"");
    }

    #[test]
    fn multi_member() {
        let mut stream = compress(b"first ");
        stream.extend_from_slice(&compress(b"second"));
        assert_eq!(decompress(&stream).unwrap(), b"first second");
    }

    #[test]
    fn extra_field_roundtrip() {
        let packed =
            compress_with_extra(b"payload", CompressLevel::Fast, Some(b"BC\x02\x00\x99\x00"));
        let member = decompress_member(&packed).unwrap();
        assert_eq!(member.data, b"payload");
        assert_eq!(member.extra.as_deref(), Some(&b"BC\x02\x00\x99\x00"[..]));
        assert_eq!(member.compressed_size, packed.len());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut packed = compress(b"data");
        packed[0] = 0x00;
        assert_eq!(decompress(&packed), Err(Error::BadHeader("gzip magic")));
    }

    #[test]
    fn rejects_corrupt_crc() {
        let data = b"some data to compress, long enough to matter".repeat(4);
        let mut packed = compress(&data);
        let n = packed.len();
        packed[n - 5] ^= 0xFF; // Flip a CRC byte.
        assert!(matches!(decompress(&packed), Err(Error::ChecksumMismatch { .. })));
    }

    #[test]
    fn rejects_truncation() {
        let packed = compress(b"hello world hello world");
        for cut in [0, 5, 9, packed.len() - 1] {
            assert!(decompress(&packed[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn parses_foreign_header_with_name() {
        // Simulate a gzip file written by another tool with FNAME set.
        let data = b"reference text";
        let body = compress(data);
        let mut foreign = vec![0x1f, 0x8b, 8, FNAME, 0, 0, 0, 0, 0, 3];
        foreign.extend_from_slice(b"genome.fa\0");
        foreign.extend_from_slice(&body[10..]);
        assert_eq!(decompress(&foreign).unwrap(), data);
    }
}
