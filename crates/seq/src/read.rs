//! Read records: the unit of data flowing through Persona.
//!
//! A read carries exactly the three fields the paper lists (§2.1): bases,
//! per-base quality scores, and uniquely identifying metadata.

/// A single sequencing read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Read {
    /// Uniquely identifying metadata (the FASTQ name line without `@`).
    pub meta: Vec<u8>,
    /// Base characters (`A,C,G,T,N`).
    pub bases: Vec<u8>,
    /// ASCII phred+33 quality characters, same length as `bases`.
    pub quals: Vec<u8>,
}

impl Read {
    /// Creates a read, checking field-length agreement.
    ///
    /// # Panics
    ///
    /// Panics if `bases` and `quals` differ in length.
    pub fn new(meta: Vec<u8>, bases: Vec<u8>, quals: Vec<u8>) -> Self {
        assert_eq!(bases.len(), quals.len(), "bases/quals length mismatch");
        Read { meta, bases, quals }
    }

    /// Read length in bases.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// Whether the read is empty.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }
}

/// The true origin of a simulated read, encoded in its metadata.
///
/// Format: `sim:<contig>:<pos>:<strand>:<serial>`, where `pos` is
/// the 0-based leftmost reference position of the read's alignment and
/// `strand` is `+` or `-`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Origin {
    /// Contig index in the source genome.
    pub contig: u32,
    /// 0-based leftmost position on the forward strand.
    pub pos: u64,
    /// True if the read was sampled from the reverse strand.
    pub reverse: bool,
    /// Serial number of the read (unique per simulator).
    pub serial: u64,
}

impl Origin {
    /// Renders the origin as read metadata.
    pub fn to_meta(self) -> Vec<u8> {
        let strand = if self.reverse { '-' } else { '+' };
        format!("sim:{}:{}:{}:{}", self.contig, self.pos, strand, self.serial).into_bytes()
    }

    /// Parses origin metadata written by [`Origin::to_meta`].
    ///
    /// Returns `None` for reads that did not come from the simulator. A
    /// mate suffix (`/1`, `/2`) is ignored.
    pub fn parse(meta: &[u8]) -> Option<Origin> {
        let s = std::str::from_utf8(meta).ok()?;
        let s = s.strip_prefix("sim:")?;
        let core = s.split('/').next()?;
        let mut parts = core.split(':');
        let contig: u32 = parts.next()?.parse().ok()?;
        let pos: u64 = parts.next()?.parse().ok()?;
        let strand = parts.next()?;
        let serial: u64 = parts.next()?.parse().ok()?;
        let reverse = match strand {
            "+" => false,
            "-" => true,
            _ => return None,
        };
        Some(Origin { contig, pos, reverse, serial })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_invariants() {
        let r = Read::new(b"r1".to_vec(), b"ACGT".to_vec(), b"IIII".to_vec());
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn read_length_mismatch_panics() {
        Read::new(b"r1".to_vec(), b"ACGT".to_vec(), b"II".to_vec());
    }

    #[test]
    fn origin_roundtrip() {
        let o = Origin { contig: 3, pos: 123_456, reverse: true, serial: 99 };
        assert_eq!(Origin::parse(&o.to_meta()), Some(o));
        assert_eq!(Origin::parse(b"sim:3:123456:-:99/1"), Some(o));
        assert_eq!(Origin::parse(b"sim:3:123456:-:99/2"), Some(o));
    }

    #[test]
    fn origin_rejects_foreign_metadata() {
        assert_eq!(Origin::parse(b"ERR174324.1 HS25"), None);
        assert_eq!(Origin::parse(b"sim:notanum:0:+:1"), None);
        assert_eq!(Origin::parse(b"sim:1:2:?:3"), None);
        assert_eq!(Origin::parse(b""), None);
    }
}
