//! FASTQ parsing and writing.
//!
//! Four lines per record: `@name`, bases, `+[name]`, qualities. The
//! parser is strict about structure (it tracks record framing rather
//! than scanning for `@`, since `@` is also a quality character — the
//! pitfall the paper calls out in §2.2) and validates base/quality
//! length agreement.

use std::io::{BufRead, Write};

use persona_seq::Read;

use crate::{Error, Result};

/// Streaming FASTQ reader over any buffered input.
pub struct FastqReader<R: BufRead> {
    input: R,
    record: u64,
    consumed: u64,
    line_buf: String,
}

impl<R: BufRead> FastqReader<R> {
    /// Creates a reader.
    pub fn new(input: R) -> Self {
        FastqReader { input, record: 0, consumed: 0, line_buf: String::new() }
    }

    /// Bytes of input consumed so far, line ends included.
    pub fn bytes_read(&self) -> u64 {
        self.consumed
    }

    fn read_line(&mut self) -> Result<Option<&str>> {
        self.line_buf.clear();
        let n = self.input.read_line(&mut self.line_buf)?;
        self.consumed += n as u64;
        if n == 0 {
            return Ok(None);
        }
        Ok(Some(self.line_buf.trim_end_matches(['\n', '\r'])))
    }

    /// Reads the next record, or `None` at end of input.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Read>> {
        let rec = self.record;
        let name = match self.read_line()? {
            None => return Ok(None),
            Some(line) if line.is_empty() => return Ok(None), // Trailing blank.
            Some(line) => {
                if !line.starts_with('@') {
                    return Err(Error::Parse {
                        record: rec,
                        what: format!("name line must start with '@', got {line:?}"),
                    });
                }
                line[1..].to_string()
            }
        };
        let bases = self
            .read_line()?
            .ok_or_else(|| Error::Parse { record: rec, what: "missing bases line".into() })?
            .as_bytes()
            .to_vec();
        match self.read_line()? {
            Some(line) if line.starts_with('+') => {}
            other => {
                return Err(Error::Parse {
                    record: rec,
                    what: format!("expected '+' separator, got {other:?}"),
                })
            }
        }
        let quals = self
            .read_line()?
            .ok_or_else(|| Error::Parse { record: rec, what: "missing quality line".into() })?
            .as_bytes()
            .to_vec();
        if bases.len() != quals.len() {
            return Err(Error::Parse {
                record: rec,
                what: format!(
                    "bases ({}) and qualities ({}) differ in length",
                    bases.len(),
                    quals.len()
                ),
            });
        }
        self.record += 1;
        Ok(Some(Read { meta: name.into_bytes(), bases, quals }))
    }

    /// Collects all remaining records.
    pub fn read_all(&mut self) -> Result<Vec<Read>> {
        let mut out = Vec::new();
        while let Some(r) = self.next()? {
            out.push(r);
        }
        Ok(out)
    }
}

/// Writes one read in FASTQ form.
pub fn write_record(out: &mut impl Write, read: &Read) -> Result<()> {
    out.write_all(b"@")?;
    out.write_all(&read.meta)?;
    out.write_all(b"\n")?;
    out.write_all(&read.bases)?;
    out.write_all(b"\n+\n")?;
    out.write_all(&read.quals)?;
    out.write_all(b"\n")?;
    Ok(())
}

/// Writes many reads in FASTQ form.
pub fn write_all(out: &mut impl Write, reads: &[Read]) -> Result<()> {
    for r in reads {
        write_record(out, r)?;
    }
    Ok(())
}

/// Serializes reads to an in-memory FASTQ buffer.
pub fn to_bytes(reads: &[Read]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_all(&mut buf, reads).expect("in-memory write cannot fail");
    buf
}

/// Parses a complete in-memory FASTQ buffer.
pub fn from_bytes(data: &[u8]) -> Result<Vec<Read>> {
    FastqReader::new(std::io::Cursor::new(data)).read_all()
}

/// Parses a gzip-compressed FASTQ buffer (the common `.fastq.gz`
/// distribution form; the paper's dataset is "18 GB in gzipped-FASTQ").
pub fn from_gzip_bytes(data: &[u8]) -> Result<Vec<Read>> {
    let raw = persona_compress::gzip::decompress(data)?;
    from_bytes(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_reads() -> Vec<Read> {
        vec![
            Read::new(b"r1".to_vec(), b"ACGT".to_vec(), b"IIII".to_vec()),
            Read::new(b"r2 extra metadata".to_vec(), b"GGCC".to_vec(), b"@@@@".to_vec()),
            Read::new(b"r3".to_vec(), b"".to_vec(), b"".to_vec()),
        ]
    }

    #[test]
    fn roundtrip() {
        let reads = sample_reads();
        let bytes = to_bytes(&reads);
        assert_eq!(from_bytes(&bytes).unwrap(), reads);
    }

    #[test]
    fn quality_at_sign_is_not_a_record_start() {
        // r2's quality line starts with '@': framing must not resync.
        let reads = sample_reads();
        let parsed = from_bytes(&to_bytes(&reads)).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[1].quals, b"@@@@");
    }

    #[test]
    fn rejects_missing_at() {
        assert!(matches!(from_bytes(b"r1\nACGT\n+\nIIII\n"), Err(Error::Parse { record: 0, .. })));
    }

    #[test]
    fn rejects_length_mismatch() {
        assert!(from_bytes(b"@r1\nACGT\n+\nII\n").is_err());
    }

    #[test]
    fn rejects_missing_plus() {
        assert!(from_bytes(b"@r1\nACGT\nIIII\n@r2\n").is_err());
    }

    #[test]
    fn rejects_truncated_record() {
        assert!(from_bytes(b"@r1\nACGT\n+\n").is_err());
        assert!(from_bytes(b"@r1\nACGT\n").is_err());
    }

    #[test]
    fn handles_crlf() {
        let parsed = from_bytes(b"@r1\r\nACGT\r\n+\r\nIIII\r\n").unwrap();
        assert_eq!(parsed[0].bases, b"ACGT");
    }

    #[test]
    fn plus_line_with_name() {
        let parsed = from_bytes(b"@r1\nACGT\n+r1\nIIII\n").unwrap();
        assert_eq!(parsed.len(), 1);
    }

    #[test]
    fn gzip_roundtrip() {
        let reads = sample_reads();
        let gz = persona_compress::gzip::compress(&to_bytes(&reads));
        assert_eq!(from_gzip_bytes(&gz).unwrap(), reads);
    }

    #[test]
    fn empty_input() {
        assert_eq!(from_bytes(b"").unwrap(), Vec::<Read>::new());
    }
}
