//! Alignment-result records: the binary encoding of the `results` column.
//!
//! Persona "appends alignment results to a new AGD column" (paper §3).
//! A result record stores the aligned location, SAM-compatible flags,
//! mapping quality, the CIGAR string and mate/template information.
//!
//! Wire layout (little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     location (i64; -1 = unmapped) — global linear position
//! 8       8     mate location (i64; -1 = none/unmapped)
//! 16      4     template length (i32, signed)
//! 20      2     flags (SAM bit definitions)
//! 22      1     mapq (255 = unavailable)
//! 23      1     cigar op count
//! 24      4×n   cigar ops, BAM encoding: (len << 4) | op
//! ```

use crate::{Error, Result};

/// SAM flag bits (SAM spec §1.4).
pub mod flags {
    /// Template has multiple segments (paired).
    pub const PAIRED: u16 = 0x1;
    /// Each segment properly aligned.
    pub const PROPER_PAIR: u16 = 0x2;
    /// Segment unmapped.
    pub const UNMAPPED: u16 = 0x4;
    /// Next segment unmapped.
    pub const MATE_UNMAPPED: u16 = 0x8;
    /// SEQ reverse-complemented.
    pub const REVERSE: u16 = 0x10;
    /// SEQ of next segment reverse-complemented.
    pub const MATE_REVERSE: u16 = 0x20;
    /// First segment in the template.
    pub const FIRST_IN_PAIR: u16 = 0x40;
    /// Last segment in the template.
    pub const SECOND_IN_PAIR: u16 = 0x80;
    /// Secondary alignment.
    pub const SECONDARY: u16 = 0x100;
    /// Fails quality checks.
    pub const QC_FAIL: u16 = 0x200;
    /// PCR or optical duplicate.
    pub const DUPLICATE: u16 = 0x400;
    /// Supplementary alignment.
    pub const SUPPLEMENTARY: u16 = 0x800;
}

/// One CIGAR operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CigarOp {
    /// Operation kind.
    pub kind: CigarKind,
    /// Run length.
    pub len: u32,
}

/// CIGAR operation kinds, in BAM encoding order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CigarKind {
    /// Alignment match or mismatch (M).
    Match = 0,
    /// Insertion to the reference (I).
    Ins = 1,
    /// Deletion from the reference (D).
    Del = 2,
    /// Skipped region (N).
    Skip = 3,
    /// Soft clip (S).
    SoftClip = 4,
    /// Hard clip (H).
    HardClip = 5,
    /// Padding (P).
    Pad = 6,
    /// Sequence match (=).
    Eq = 7,
    /// Sequence mismatch (X).
    Diff = 8,
}

impl CigarKind {
    /// The SAM character for this op.
    pub fn to_char(self) -> char {
        match self {
            CigarKind::Match => 'M',
            CigarKind::Ins => 'I',
            CigarKind::Del => 'D',
            CigarKind::Skip => 'N',
            CigarKind::SoftClip => 'S',
            CigarKind::HardClip => 'H',
            CigarKind::Pad => 'P',
            CigarKind::Eq => '=',
            CigarKind::Diff => 'X',
        }
    }

    /// Parses a BAM op code 0..=8.
    pub fn from_code(code: u8) -> Result<Self> {
        Ok(match code {
            0 => CigarKind::Match,
            1 => CigarKind::Ins,
            2 => CigarKind::Del,
            3 => CigarKind::Skip,
            4 => CigarKind::SoftClip,
            5 => CigarKind::HardClip,
            6 => CigarKind::Pad,
            7 => CigarKind::Eq,
            8 => CigarKind::Diff,
            _ => return Err(Error::Format(format!("invalid CIGAR op code {code}"))),
        })
    }

    /// Whether the op consumes query bases (SAM spec table).
    pub fn consumes_query(self) -> bool {
        matches!(
            self,
            CigarKind::Match
                | CigarKind::Ins
                | CigarKind::SoftClip
                | CigarKind::Eq
                | CigarKind::Diff
        )
    }

    /// Whether the op consumes reference bases.
    pub fn consumes_reference(self) -> bool {
        matches!(
            self,
            CigarKind::Match | CigarKind::Del | CigarKind::Skip | CigarKind::Eq | CigarKind::Diff
        )
    }
}

/// A single alignment result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignmentResult {
    /// Global linear reference position (leftmost), or -1 if unmapped.
    pub location: i64,
    /// Mate's position, or -1.
    pub mate_location: i64,
    /// Signed observed template length.
    pub template_len: i32,
    /// SAM flags.
    pub flags: u16,
    /// Mapping quality (255 = unavailable).
    pub mapq: u8,
    /// CIGAR operations (empty for unmapped reads).
    pub cigar: Vec<CigarOp>,
}

impl AlignmentResult {
    /// Size of the fixed (non-CIGAR) part of the wire form.
    pub const FIXED_SIZE: usize = 24;

    /// Where the little-endian `flags` field lies in the wire form, so
    /// a flag can be set on a stored record without re-encoding it.
    pub const FLAGS_AT: std::ops::Range<usize> = 20..22;

    /// An unmapped-read result.
    pub fn unmapped() -> Self {
        AlignmentResult {
            location: -1,
            mate_location: -1,
            template_len: 0,
            flags: flags::UNMAPPED,
            mapq: 0,
            cigar: Vec::new(),
        }
    }

    /// Whether the read failed to map.
    pub fn is_unmapped(&self) -> bool {
        self.flags & flags::UNMAPPED != 0
    }

    /// Whether the read aligned to the reverse strand.
    pub fn is_reverse(&self) -> bool {
        self.flags & flags::REVERSE != 0
    }

    /// Whether the read is marked as a duplicate.
    pub fn is_duplicate(&self) -> bool {
        self.flags & flags::DUPLICATE != 0
    }

    /// Encoded byte size of this record.
    pub fn wire_size(&self) -> usize {
        Self::FIXED_SIZE + 4 * self.cigar.len()
    }

    /// Appends the wire form to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        assert!(self.cigar.len() <= 255, "CIGAR with more than 255 ops");
        out.extend_from_slice(&self.location.to_le_bytes());
        out.extend_from_slice(&self.mate_location.to_le_bytes());
        out.extend_from_slice(&self.template_len.to_le_bytes());
        out.extend_from_slice(&self.flags.to_le_bytes());
        out.push(self.mapq);
        out.push(self.cigar.len() as u8);
        for op in &self.cigar {
            let word = (op.len << 4) | (op.kind as u32);
            out.extend_from_slice(&word.to_le_bytes());
        }
    }

    /// Encodes into a fresh vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        self.encode_into(&mut out);
        out
    }

    /// Decodes one record occupying the whole of `buf`.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut result = AlignmentResult::unmapped();
        result.decode_into(buf)?;
        Ok(result)
    }

    /// [`AlignmentResult::decode`] into `self`, reusing its CIGAR
    /// allocation, so a loop over a results column allocates nothing per
    /// record. On error `self` holds an unspecified mix of old and new
    /// fields.
    pub fn decode_into(&mut self, buf: &[u8]) -> Result<()> {
        if buf.len() < Self::FIXED_SIZE {
            return Err(Error::Format("result record shorter than fixed part".into()));
        }
        let n_ops = buf[23] as usize;
        let expected = Self::FIXED_SIZE + 4 * n_ops;
        if buf.len() != expected {
            return Err(Error::Format(format!(
                "result record size {} != expected {expected}",
                buf.len()
            )));
        }
        self.location = i64::from_le_bytes(buf[0..8].try_into().unwrap());
        self.mate_location = i64::from_le_bytes(buf[8..16].try_into().unwrap());
        self.template_len = i32::from_le_bytes(buf[16..20].try_into().unwrap());
        self.flags = u16::from_le_bytes(buf[Self::FLAGS_AT].try_into().unwrap());
        self.mapq = buf[22];
        self.cigar.clear();
        for chunk in buf[Self::FIXED_SIZE..].chunks_exact(4) {
            let word = u32::from_le_bytes(chunk.try_into().unwrap());
            self.cigar
                .push(CigarOp { kind: CigarKind::from_code((word & 0xF) as u8)?, len: word >> 4 });
        }
        Ok(())
    }

    /// Where the read of a stored record lies on the reference when it
    /// is mapped as one `M` op `n_bases` long (no gap, no clip): its
    /// leftmost position and whether it is on the reverse strand. Read
    /// straight off the stored bytes; `None` for any other record.
    pub(crate) fn ungapped_placement(record: &[u8], n_bases: usize) -> Option<(u64, bool)> {
        if record.len() != Self::FIXED_SIZE + 4 || record[23] != 1 {
            return None;
        }
        let location = i64::from_le_bytes(record[0..8].try_into().unwrap());
        let flags = u16::from_le_bytes(record[Self::FLAGS_AT].try_into().unwrap());
        let op = u32::from_le_bytes(record[Self::FIXED_SIZE..].try_into().unwrap());
        let ungapped = op == (n_bases as u32) << 4 | CigarKind::Match as u32;
        let mapped = location >= 0 && flags & flags::UNMAPPED == 0;
        (mapped && ungapped && n_bases > 0 && n_bases < 1 << 28)
            .then_some((location as u64, flags & flags::REVERSE != 0))
    }

    /// Number of query bases covered by the CIGAR.
    pub fn query_len(&self) -> u32 {
        self.cigar.iter().filter(|op| op.kind.consumes_query()).map(|op| op.len).sum()
    }

    /// Number of reference bases spanned by the alignment.
    pub fn reference_span(&self) -> u32 {
        self.cigar.iter().filter(|op| op.kind.consumes_reference()).map(|op| op.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AlignmentResult {
        AlignmentResult {
            location: 1_234_567,
            mate_location: 1_234_890,
            template_len: 424,
            flags: flags::PAIRED | flags::PROPER_PAIR | flags::FIRST_IN_PAIR,
            mapq: 60,
            cigar: vec![
                CigarOp { kind: CigarKind::SoftClip, len: 5 },
                CigarOp { kind: CigarKind::Match, len: 90 },
                CigarOp { kind: CigarKind::Ins, len: 2 },
                CigarOp { kind: CigarKind::Match, len: 4 },
            ],
        }
    }

    #[test]
    fn wire_roundtrip() {
        let r = sample();
        let enc = r.encode();
        assert_eq!(enc.len(), r.wire_size());
        assert_eq!(AlignmentResult::decode(&enc).unwrap(), r);
    }

    #[test]
    fn unmapped_roundtrip() {
        let r = AlignmentResult::unmapped();
        assert!(r.is_unmapped());
        let enc = r.encode();
        assert_eq!(enc.len(), AlignmentResult::FIXED_SIZE);
        assert_eq!(AlignmentResult::decode(&enc).unwrap(), r);
    }

    #[test]
    fn decode_rejects_bad_sizes() {
        let r = sample();
        let enc = r.encode();
        assert!(AlignmentResult::decode(&enc[..10]).is_err());
        assert!(AlignmentResult::decode(&enc[..enc.len() - 1]).is_err());
        let mut extended = enc.clone();
        extended.push(0);
        assert!(AlignmentResult::decode(&extended).is_err());
    }

    #[test]
    fn decode_rejects_bad_cigar_code() {
        let mut r = sample();
        r.cigar = vec![CigarOp { kind: CigarKind::Match, len: 10 }];
        let mut enc = r.encode();
        let n = enc.len();
        enc[n - 4] = 0x0F | (10 << 4); // Op code 15.
        assert!(AlignmentResult::decode(&enc).is_err());
    }

    #[test]
    fn cigar_query_and_ref_spans() {
        let r = sample();
        assert_eq!(r.query_len(), 101);
        assert_eq!(r.reference_span(), 94);
    }

    #[test]
    fn flag_helpers() {
        let mut r = sample();
        assert!(!r.is_reverse());
        assert!(!r.is_duplicate());
        r.flags |= flags::REVERSE | flags::DUPLICATE;
        assert!(r.is_reverse());
        assert!(r.is_duplicate());
    }

    #[test]
    fn cigar_kind_char_and_code_roundtrip() {
        for code in 0..=8u8 {
            let kind = CigarKind::from_code(code).unwrap();
            assert_eq!(kind as u8, code);
        }
        assert!(CigarKind::from_code(9).is_err());
    }
}
