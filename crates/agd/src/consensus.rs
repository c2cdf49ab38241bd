//! Consensus coding of a position-sorted `bases` chunk: each read that
//! lies on the reference as one ungapped match is stored as where it
//! starts on a consensus the chunk carries, plus the bases where it
//! differs from it.
//!
//! Base-5 groups ([`compaction`](crate::compaction)) take 32 bytes per
//! 101-base read in any order. In position order, neighbouring reads
//! overlap and repeat each other almost exactly, which plain groups
//! cannot use. CRAM's embedded reference (Fritz et al., Genome Research
//! 2011; Bonfield, "CRAM 3.1", Bioinformatics 2022) codes a placed read
//! as its differences from a reference segment the slice itself
//! carries; this module does that with the majority base of the chunk's
//! own reads as the segment, so a reader needs no genome and reads no
//! other column.
//!
//! A read is *placed* when its alignment result (the sort holds it
//! beside the read) is mapped as one `M` op as long as the read, and it
//! starts at or after the previous placed read. A reverse-strand read is
//! compared as its reverse complement, since `bases` keeps the read's
//! own orientation.
//!
//! Layout of the data block (varints are LEB128, at most 64 bits):
//!
//! ```text
//! varint      span: the consensus length in bases
//! groups      the consensus, packed_size(span) bytes of base-5 groups
//! per record, in index order:
//!   varint    lead: 0 for a record stored as itself, else
//!             delta << 3 | reverse << 2 | mismatches << 1 | 1
//!   lead 0:   the record's packed_size(n) bytes of groups
//!   placed:   (only with the mismatches bit) varint count, 1..=n, then
//!             per mismatch: varint offset gap, byte base digit 0–4
//! ```
//!
//! `delta` is the read's start on the consensus minus the previous
//! placed read's (the first from 0). Mismatch offsets count in consensus
//! orientation; each gap is the offset minus one past the previous
//! mismatch's (the first from 0). `n` is the record's relative index
//! entry. Position `p` of the consensus is the base most placed reads
//! hold there, the lowest digit (`A` < `C` < `G` < `T` < `N`) on a tie
//! and `A` where no read lies.
//!
//! The block decodes to the base-5 data block plain groups store, so
//! nothing above [`RawChunk::decode`] tells the two apart. The encoder
//! codes a chunk this way only where that is smaller, and says so
//! before it looks at a base: from one pass over the placements' starts
//! it sizes the consensus and the records' leads, and keeps plain
//! groups unless that estimate is below them (and, once coded, unless
//! the block is). An import-order or query-name-order chunk, or one of
//! reads too sparse to overlap, stays as plain groups.

use crate::chunk::{write_object, RawChunk, RecordType};
use crate::compaction::{pack_digits, packed_size, unpack_digits};
use crate::results::AlignmentResult;
use crate::{Error, Result};
use persona_compress::codec::Codec;

/// Lead bit: the record is placed on the consensus.
const PLACED: u64 = 1;
/// Lead bit: a mismatch list follows.
const MISMATCHES: u64 = 2;
/// Lead bit: the read is the reverse complement of its consensus span.
const REVERSE: u64 = 4;
/// Flag bits below a lead's delta.
const FLAG_BITS: u32 = 3;

/// A placed record: its start on the consensus and its strand.
#[derive(Clone, Copy)]
struct Placement {
    start: u64,
    reverse: bool,
}

/// The chunk object of `bases` coded against its consensus, or `None`
/// when that would not be smaller than its plain groups. `results`
/// holds each read's alignment result, in the same order.
///
/// # Panics
///
/// Panics if the two chunks differ in length or `bases` is not a bases
/// chunk.
pub fn encode(bases: &RawChunk, results: &RawChunk) -> Option<Vec<u8>> {
    assert_eq!(bases.record_type(), RecordType::CompactBases, "a chunk of bases");
    assert_eq!(bases.len(), results.len(), "one result per read");
    let index = bases.index();
    let plain = bases.stored_len() as u64;

    // One pass over the starts: the placements, the span, and the size
    // of everything but the consensus's mismatches.
    let mut placements = Vec::with_capacity(index.len());
    let (mut origin, mut prev, mut end) = (None, 0u64, 0u64);
    let mut leads = 0u64;
    for (i, &n) in index.iter().enumerate() {
        let n = n as u64;
        let placed = AlignmentResult::ungapped_placement(results.record(i), n as usize)
            .filter(|&(at, _)| at >= prev);
        let Some((at, reverse)) = placed else {
            placements.push(None);
            leads += 1 + packed_size(n as usize) as u64;
            continue;
        };
        let origin = *origin.get_or_insert(at);
        leads += varint_len((at - prev.max(origin)) << FLAG_BITS);
        prev = at;
        end = end.max(at + n);
        placements.push(Some(Placement { start: at - origin, reverse }));
    }
    let span = end - origin?;
    // A consensus of `span` bases takes over span / 4 bytes.
    if span / 4 >= plain || leads + varint_len(span) + packed_size(span as usize) as u64 >= plain {
        return None;
    }
    let block = SCRATCH.with_borrow_mut(|s| code(s, bases, &placements, span as usize))?;
    ((block.len() as u64) < plain).then(|| {
        write_object(RecordType::ConsensusBases, Codec::None, index, plain as usize, &block)
    })
}

/// The buffers [`code`] works in, kept per thread: a chunk's worth of
/// digits is half a megabyte, and mapped afresh for every chunk it would
/// cost a page fault per page.
#[derive(Default)]
struct Scratch {
    digits: Vec<u8>,
    placed: Vec<Placed>,
    consensus: Vec<u8>,
    cover: Vec<u16>,
    votes: Vec<u8>,
    disputed: Vec<(usize, usize)>,
    mismatches: Vec<usize>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::default();
}

/// A placed read: where it starts on the consensus, its length, and
/// where its digits start in the chunk's buffer of placed reads.
struct Placed {
    start: usize,
    len: usize,
    at: usize,
}

/// The consensus block of `bases` with `placements` on a consensus of
/// `span` bases. `None` if a placed record's groups are out of range.
///
/// Reads mostly agree, so counting every base would be wasted work. Each
/// position first takes the base of the first read over it, and each
/// read that differs there votes against it. Where fewer than half the
/// reads over a position vote against its base, that base is still the
/// majority; only elsewhere are the reads counted.
fn code(
    scratch: &mut Scratch,
    bases: &RawChunk,
    placements: &[Option<Placement>],
    span: usize,
) -> Option<Vec<u8>> {
    let Scratch { digits, placed, consensus, cover, votes, disputed, mismatches } = scratch;
    // Every placed read in consensus orientation, as digits, end to end;
    // the consensus; the reads over each position (as starts and ends,
    // summed below, modulo 2¹⁶) and the votes against its base (up to
    // 255); the disputed positions, each with the first read that voted
    // there. Both counts only ever understate, so they can only let more
    // positions be counted in full, never fewer.
    digits.clear();
    placed.clear();
    consensus.clear();
    consensus.resize(span, 0);
    cover.clear();
    cover.resize(span + 1, 0);
    votes.clear();
    votes.resize(span, 0);
    disputed.clear();
    let mut covered = 0;
    for (i, placement) in placements.iter().enumerate() {
        let Some(p) = placement else { continue };
        let (start, len, at) = (p.start as usize, bases.plain_len(i), digits.len());
        unpack_digits(bases.record(i), len, digits).ok()?;
        if p.reverse {
            reverse_complement(&mut digits[at..]);
        }
        let (read, end) = (&digits[at..], start + len);
        if end > covered {
            let from = covered.max(start);
            consensus[from..end].copy_from_slice(&read[from - start..]);
            covered = end;
        }
        mismatches.clear();
        differences(read, &consensus[start..end], mismatches);
        for &k in mismatches.iter() {
            if votes[start + k] == 0 {
                disputed.push((start + k, placed.len()));
            }
            votes[start + k] = votes[start + k].saturating_add(1);
        }
        cover[start] = cover[start].wrapping_add(1);
        cover[end] = cover[end].wrapping_sub(1);
        placed.push(Placed { start, len, at });
    }
    let mut over = 0u16;
    for c in cover.iter_mut() {
        over = over.wrapping_add(*c);
        *c = over;
    }
    // Where the votes could win, the reads over the position are
    // counted: the first to vote, those before it that still reach the
    // position, and those after it that already start there.
    let longest = placed.iter().map(|r| r.len).max().unwrap_or(0);
    for &(at, first) in disputed.iter() {
        if votes[at] < u8::MAX && 2 * u32::from(votes[at]) < u32::from(cover[at]) {
            continue;
        }
        let before = placed[..first].iter().rev().take_while(|q| q.start + longest > at);
        let after = placed[first..].iter().take_while(|q| q.start <= at);
        let mut counts = [0u32; 5];
        for q in before.chain(after).filter(|q| at < q.start + q.len) {
            counts[usize::from(digits[q.at + at - q.start])] += 1;
        }
        consensus[at] = majority(&counts);
    }

    let mut block = Vec::with_capacity(packed_size(span) + 4 * placements.len() + 16);
    put_varint(&mut block, span as u64);
    pack_digits(consensus, &mut block);
    let (mut prev, mut reads) = (0, placed.iter());
    for (i, placement) in placements.iter().enumerate() {
        let Some(p) = placement else {
            block.push(0);
            block.extend_from_slice(bases.record(i));
            continue;
        };
        let r = reads.next().expect("one digit run per placed read");
        let read = &digits[r.at..][..r.len];
        mismatches.clear();
        differences(read, &consensus[r.start..][..r.len], mismatches);
        let mut lead = ((r.start - prev) as u64) << FLAG_BITS | PLACED;
        if p.reverse {
            lead |= REVERSE;
        }
        if !mismatches.is_empty() {
            lead |= MISMATCHES;
        }
        put_varint(&mut block, lead);
        prev = r.start;
        if !mismatches.is_empty() {
            put_varint(&mut block, mismatches.len() as u64);
            let mut next = 0;
            for &k in mismatches.iter() {
                put_varint(&mut block, (k - next) as u64);
                block.push(read[k]);
                next = k + 1;
            }
        }
    }
    Some(block)
}

/// Decodes a consensus block whose records the relative `index` sizes
/// into the base-5 data block plain groups store, failing once it would
/// pass `decoded_len` bytes.
pub(crate) fn decode(block: &[u8], index: &[u32], decoded_len: u64) -> Result<Vec<u8>> {
    let mut input = Input { block, at: 0 };
    let span = input.varint()?;
    // Anything longer could not fit its groups in the block.
    let span = usize::try_from(span)
        .ok()
        .filter(|&s| s <= 4 * block.len())
        .ok_or_else(|| Error::Format(format!("consensus span {span} overruns the block")))?;
    let mut consensus = Vec::with_capacity(span);
    unpack_digits(input.take(packed_size(span))?, span, &mut consensus)?;

    // A forged length reserves at most 16 times the block, and the
    // output never passes it.
    let cap = usize::try_from(decoded_len).unwrap_or(usize::MAX);
    let mut out = Vec::with_capacity(cap.min(16 * block.len()));
    let (mut prev, mut read) = (0u64, Vec::new());
    for (i, &n) in index.iter().enumerate() {
        let n = n as usize;
        let lead = input.varint()?;
        if out.len() + packed_size(n) > cap {
            return Err(Error::Format(format!("record {i} decodes past {decoded_len} bytes")));
        }
        if lead & PLACED == 0 {
            if lead != 0 {
                return Err(Error::Format(format!("record {i} has an unknown lead {lead:#x}")));
            }
            out.extend_from_slice(input.take(packed_size(n))?);
            continue;
        }
        let start = prev
            .checked_add(lead >> FLAG_BITS)
            .filter(|&start| start.checked_add(n as u64).is_some_and(|end| end <= span as u64))
            .ok_or_else(|| {
                Error::Format(format!("record {i} of {n} bases starts past the {span}-base span"))
            })?;
        prev = start;
        read.clear();
        read.extend_from_slice(&consensus[start as usize..][..n]);
        if lead & MISMATCHES != 0 {
            let count = input.varint()?;
            if count == 0 || count > n as u64 {
                return Err(Error::Format(format!(
                    "record {i} has {count} mismatches in {n} bases"
                )));
            }
            let mut next = 0u64;
            for _ in 0..count {
                let offset = next.saturating_add(input.varint()?);
                if offset >= n as u64 {
                    return Err(Error::Format(format!(
                        "record {i} has a mismatch at {offset}, past its {n} bases"
                    )));
                }
                let base = input.take(1)?[0];
                if base > 4 {
                    return Err(Error::Format(format!("record {i} has base code {base}")));
                }
                read[offset as usize] = base;
                next = offset + 1;
            }
        }
        if lead & REVERSE != 0 {
            reverse_complement(&mut read);
        }
        pack_digits(&read, &mut out);
    }
    if input.at != block.len() {
        return Err(Error::Format("trailing bytes after the consensus block's records".into()));
    }
    Ok(out)
}

/// The digit most counts name, the lowest on a tie. Branch-free: the
/// winning digit is as likely to be any of four.
fn majority(counts: &[u32; 5]) -> u8 {
    // Count above, 4 − digit below: the largest key is the most common
    // digit, the lowest of equals.
    let key = |d: usize| u64::from(counts[d]) << 3 | (4 - d) as u64;
    let best = (1..5).map(key).fold(key(0), u64::max);
    4 - (best & 7) as u8
}

/// Appends to `out` each offset at which `read` and `segment`, two runs
/// of equal length, differ, eight digits at a time.
fn differences(read: &[u8], segment: &[u8], out: &mut Vec<usize>) {
    let word =
        |digits: &[u8], at: usize| u64::from_le_bytes(digits[at..at + 8].try_into().unwrap());
    let mut at = 0;
    while at + 8 <= read.len() {
        // One byte of `x` is set for each digit that differs.
        let mut x = word(read, at) ^ word(segment, at);
        while x != 0 {
            let byte = x.trailing_zeros() as usize / 8;
            out.push(at + byte);
            x &= !(0xFF << (8 * byte));
        }
        at += 8;
    }
    out.extend((at..read.len()).filter(|&k| read[k] != segment[k]));
}

/// Reverses a read of digits and complements each base: `d ^ 3` maps
/// `A`↔`T` and `C`↔`G`, and `N` (4, which that would make 7) comes
/// back to 4.
fn reverse_complement(read: &mut [u8]) {
    read.reverse();
    for d in read {
        *d = (*d ^ 3) - (*d >> 2) * 3;
    }
}

/// Bytes the varint of `v` takes.
fn varint_len(v: u64) -> u64 {
    u64::from((64 - (v | 1).leading_zeros()).div_ceil(7))
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A cursor over a consensus block.
struct Input<'a> {
    block: &'a [u8],
    at: usize,
}

impl<'a> Input<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        let bytes = self.block.get(self.at..).and_then(|rest| rest.get(..len));
        let bytes = bytes.ok_or_else(|| Error::Format("consensus block truncated".into()))?;
        self.at += len;
        Ok(bytes)
    }

    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.take(1)?[0];
            if shift == 63 && byte > 1 {
                break;
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(Error::Format("consensus block varint overflows 64 bits".into()))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chunk::{ChunkData, ChunkHeader};
    use crate::columns;
    use crate::results::{flags, CigarKind, CigarOp};
    use proptest::prelude::*;

    /// How a read's result places it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) enum Shape {
        Forward,
        Reverse,
        Unmapped,
        Gapped,
        Clipped,
    }

    /// The stored result of a read of `n` bases at `at` of `shape`.
    fn result(at: u64, n: usize, shape: Shape) -> Vec<u8> {
        let m = |len: usize| CigarOp { kind: CigarKind::Match, len: len as u32 };
        let (location, flags, cigar) = match shape {
            Shape::Forward => (at as i64, 0, vec![m(n)]),
            Shape::Reverse => (at as i64, flags::REVERSE, vec![m(n)]),
            Shape::Unmapped => (-1, flags::UNMAPPED, vec![]),
            Shape::Gapped => (at as i64, 0, vec![m(n / 2), m(0), m(n - n / 2)]),
            Shape::Clipped => {
                let clip = CigarOp { kind: CigarKind::SoftClip, len: 1 };
                (at as i64, 0, vec![clip, m(n.saturating_sub(1))])
            }
        };
        AlignmentResult { location, mate_location: -1, template_len: 0, flags, mapq: 60, cigar }
            .encode()
    }

    fn revcomp(read: &[u8]) -> Vec<u8> {
        let complement = |b: &u8| match b {
            b'A' => b'T',
            b'C' => b'G',
            b'G' => b'C',
            b'T' => b'A',
            _ => b'N',
        };
        read.iter().rev().map(complement).collect()
    }

    /// The bases and results chunks of `reads`: `(start, bases in
    /// reference orientation, shape)`; a reverse read is stored as its
    /// reverse complement.
    pub(crate) fn chunks(reads: &[(u64, Vec<u8>, Shape)]) -> (RawChunk, RawChunk) {
        let stored: Vec<Vec<u8>> = reads
            .iter()
            .map(|(_, r, shape)| if *shape == Shape::Reverse { revcomp(r) } else { r.clone() })
            .collect();
        let bases =
            RawChunk::from_records(RecordType::CompactBases, stored.iter().map(|r| r.as_slice()))
                .unwrap();
        let results: Vec<Vec<u8>> =
            reads.iter().map(|(at, r, shape)| result(*at, r.len(), *shape)).collect();
        let results =
            RawChunk::from_records(RecordType::Results, results.iter().map(|r| r.as_slice()))
                .unwrap();
        (bases, results)
    }

    /// Encodes `bases` as the sort does and checks that the object
    /// decodes, both ways, to `bases` and is no larger than its plain
    /// groups. Returns the object's record type.
    fn round_trip(bases: &RawChunk, results: &RawChunk) -> std::result::Result<RecordType, String> {
        let obj = columns::encode_placed_bases(bases, results);
        let plain = columns::encode_chunk(columns::BASES, bases);
        let header = ChunkHeader::decode(&obj).map_err(|e| e.to_string())?;
        let decoded = RawChunk::decode(&obj).map_err(|e| e.to_string())?;
        if &decoded != bases {
            return Err("RawChunk::decode differs".into());
        }
        if ChunkData::decode(&obj).map_err(|e| e.to_string())? != ChunkData::decode(&plain).unwrap()
        {
            return Err("ChunkData::decode differs".into());
        }
        match header.record_type {
            RecordType::CompactBases if obj != plain => Err("a plain object changed".into()),
            _ if obj.len() > plain.len() => Err(format!("{} > {} bytes", obj.len(), plain.len())),
            record_type => Ok(record_type),
        }
    }

    /// The consensus a coded object carries, as bases.
    fn consensus_of(obj: &[u8]) -> Vec<u8> {
        let header = ChunkHeader::decode(obj).unwrap();
        assert_eq!(header.record_type, RecordType::ConsensusBases);
        let block = &obj[obj.len() - header.compressed_len as usize..];
        let mut input = Input { block, at: 0 };
        let span = input.varint().unwrap() as usize;
        compaction_unpack(input.take(packed_size(span)).unwrap(), span)
    }

    fn compaction_unpack(packed: &[u8], n: usize) -> Vec<u8> {
        crate::compaction::unpack(packed, n).unwrap()
    }

    /// A pseudo-random genome of `len` bases over `A,C,G,T`, with `N`
    /// where `n_every` divides the position (0: none).
    fn genome(seed: u64, len: usize, n_every: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if n_every > 0 && i % n_every == 0 {
                    b'N'
                } else {
                    b"ACGT"[(x >> 33) as usize % 4]
                }
            })
            .collect()
    }

    /// `reads` reads of `len` bases over `genome`, sorted, one in
    /// `reverse_every` reverse, with a substitution in every seventh.
    fn tiled(
        genome: &[u8],
        reads: usize,
        len: usize,
        reverse_every: usize,
    ) -> Vec<(u64, Vec<u8>, Shape)> {
        (0..reads)
            .map(|i| {
                let at = i * (genome.len() - len) / reads.max(1);
                let mut read = genome[at..at + len].to_vec();
                if i % 7 == 3 {
                    read[i % len] = if read[i % len] == b'A' { b'C' } else { b'A' };
                }
                let shape = if i % reverse_every == 1 { Shape::Reverse } else { Shape::Forward };
                (at as u64, read, shape)
            })
            .collect()
    }

    #[test]
    fn sorted_overlapping_reads_take_the_consensus_coding() {
        let g = genome(1, 20_000, 0);
        let (bases, results) = chunks(&tiled(&g, 2_000, 101, 3));
        assert_eq!(round_trip(&bases, &results), Ok(RecordType::ConsensusBases));
        let obj = columns::encode_placed_bases(&bases, &results);
        // 10x coverage: ~6 bytes of consensus and ~2 of lead and
        // mismatches per read, against 32 as plain groups.
        assert!(obj.len() < 2_000 * (4 + 10), "{} bytes", obj.len());
        assert_eq!(consensus_of(&obj), g[..consensus_of(&obj).len()]);
    }

    #[test]
    fn disjoint_placements_leave_gaps_of_a_and_still_round_trip() {
        let g = genome(2, 4_000, 0);
        let mut reads = tiled(&g[..1_000], 200, 50, 4);
        let far: Vec<_> = tiled(&g[3_000..], 200, 50, 5)
            .into_iter()
            .map(|(at, r, s)| (at + 3_000, r, s))
            .collect();
        reads.extend(far);
        let (bases, results) = chunks(&reads);
        assert_eq!(round_trip(&bases, &results), Ok(RecordType::ConsensusBases));
        let consensus = consensus_of(&columns::encode_placed_bases(&bases, &results));
        assert!(consensus[1_000..3_000].iter().all(|&b| b == b'A'));
    }

    #[test]
    fn n_in_reads_and_in_the_consensus() {
        let g = genome(3, 3_000, 17);
        let mut reads = tiled(&g, 400, 60, 2);
        for (i, (_, read, _)) in reads.iter_mut().enumerate() {
            if i % 5 == 0 {
                read[(i * 3) % 60] = b'N';
            }
        }
        let (bases, results) = chunks(&reads);
        assert_eq!(round_trip(&bases, &results), Ok(RecordType::ConsensusBases));
        let consensus = consensus_of(&columns::encode_placed_bases(&bases, &results));
        assert!(consensus.contains(&b'N'));
    }

    #[test]
    fn a_read_that_starts_before_the_previous_one_is_stored_as_itself() {
        let g = genome(4, 3_000, 0);
        let mut reads = tiled(&g, 400, 60, 3);
        reads.swap(100, 130);
        reads.swap(7, 8);
        let (bases, results) = chunks(&reads);
        assert_eq!(round_trip(&bases, &results), Ok(RecordType::ConsensusBases));
    }

    #[test]
    fn every_read_reverse() {
        let g = genome(5, 3_000, 0);
        let (bases, results) = chunks(
            &tiled(&g, 400, 60, 1)
                .into_iter()
                .map(|(at, r, _)| (at, r, Shape::Reverse))
                .collect::<Vec<_>>(),
        );
        assert_eq!(round_trip(&bases, &results), Ok(RecordType::ConsensusBases));
    }

    #[test]
    fn unplaced_empty_and_sparse_chunks_keep_plain_groups() {
        let g = genome(6, 3_000, 0);
        let reads = tiled(&g, 400, 60, 3);
        for shape in [Shape::Unmapped, Shape::Gapped, Shape::Clipped] {
            let unplaced: Vec<_> = reads.iter().map(|(at, r, _)| (*at, r.clone(), shape)).collect();
            let (bases, results) = chunks(&unplaced);
            assert_eq!(consensus_encode(&bases, &results), None, "{shape:?}");
            assert_eq!(round_trip(&bases, &results), Ok(RecordType::CompactBases));
        }
        let (bases, results) = chunks(&[]);
        assert_eq!(round_trip(&bases, &results), Ok(RecordType::CompactBases));
        // 0.2x coverage: a consensus of 50 kbp costs more than the reads.
        let g = genome(7, 50_000, 0);
        let (bases, results) = chunks(&tiled(&g, 100, 101, 3));
        assert_eq!(consensus_encode(&bases, &results), None);
        // Reads out of order (a query-name sort) place one read in a few.
        let mut shuffled = tiled(&g, 1_000, 101, 3);
        shuffled.sort_by_key(|(at, ..)| at.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (bases, results) = chunks(&shuffled);
        assert_eq!(consensus_encode(&bases, &results), None);
    }

    fn consensus_encode(bases: &RawChunk, results: &RawChunk) -> Option<usize> {
        encode(bases, results).map(|obj| obj.len())
    }

    /// More reads on one position than a 16-bit counter holds, the
    /// minority first: the majority is still the base most reads hold,
    /// so only the minority is coded as mismatches.
    #[test]
    fn counts_past_sixteen_bits_do_not_wrap() {
        let mut reads: Vec<_> = (0..1_000).map(|_| (0, b"GCAG".to_vec(), Shape::Forward)).collect();
        reads.extend((0..66_000).map(|_| (0, b"CCAG".to_vec(), Shape::Forward)));
        let (bases, results) = chunks(&reads);
        assert_eq!(round_trip(&bases, &results), Ok(RecordType::ConsensusBases));
        let obj = columns::encode_placed_bases(&bases, &results);
        assert_eq!(consensus_of(&obj), b"CCAG");
        // A lead byte per read, and four bytes for each minority read.
        assert!(obj.len() < 32 + 4 * 67_000 + 67_000 + 4 * 1_000 + 16, "{}", obj.len());
    }

    /// The consensus by counting every base of the reads the encoder
    /// places: over the span they cover, the base most of them hold, the
    /// first of `ACGTN` on a tie, `A` where none lies.
    fn majority_by_counting(reads: &[(u64, Vec<u8>, Shape)]) -> Vec<u8> {
        let mut placed = Vec::new();
        for (at, read, shape) in reads {
            let in_order = placed.last().is_none_or(|&(prev, _)| *at >= prev);
            if matches!(shape, Shape::Forward | Shape::Reverse) && !read.is_empty() && in_order {
                placed.push((*at, read));
            }
        }
        let origin = placed[0].0;
        let end = placed.iter().map(|(at, read)| at + read.len() as u64).max().unwrap();
        let mut counts = vec![[0u32; 5]; (end - origin) as usize];
        for (at, read) in placed {
            for (k, b) in read.iter().enumerate() {
                let d = b"ACGTN".iter().position(|x| x == b).unwrap();
                counts[(at - origin) as usize + k][d] += 1;
            }
        }
        counts
            .iter()
            .map(|c| {
                let most = *c.iter().max().unwrap();
                b"ACGTN"[c.iter().position(|&x| x == most).unwrap()]
            })
            .collect()
    }

    /// A case drawn from primitives: a genome, reads on it of any shape,
    /// each `(start, length, shape code, error seed)`, and how sorted the
    /// chunk is.
    fn reads_of(
        genome_seed: u64,
        specs: &[(u32, u32, u8, u64)],
        order: u8,
    ) -> Vec<(u64, Vec<u8>, Shape)> {
        let g = genome(genome_seed, 600, if genome_seed.is_multiple_of(3) { 11 } else { 0 });
        let mut reads: Vec<_> = specs
            .iter()
            .map(|&(at, len, shape, errors)| {
                let (at, len) = (at as usize % 500, 1 + len as usize % 90);
                let mut read = g[at..at + len].to_vec();
                for k in 0..(errors % 4) as usize {
                    let e = errors >> (8 * k + 2);
                    read[e as usize % len] = b"ACGTN"[(e >> 16) as usize % 5];
                }
                let shape = match shape % 10 {
                    0..=4 => Shape::Forward,
                    5..=6 => Shape::Reverse,
                    7 => Shape::Unmapped,
                    8 => Shape::Gapped,
                    _ => Shape::Clipped,
                };
                (at as u64, read, shape)
            })
            .collect();
        if !order.is_multiple_of(4) {
            reads.sort_by_key(|(at, ..)| *at);
        }
        if order % 4 == 2 && reads.len() > 3 {
            let k = reads.len() / 2;
            reads.swap(1, k);
        }
        reads
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Overlapping and disjoint placements, either strand, `N`s, any
        /// order and any mix of unplaced reads: the object decodes to
        /// the chunk and is never larger than its plain groups.
        #[test]
        fn round_trips_any_chunk(
            genome_seed in any::<u64>(),
            specs in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>(), any::<u64>()), 0..120),
            order in any::<u8>(),
        ) {
            let reads = reads_of(genome_seed, &specs, order);
            let (bases, results) = chunks(&reads);
            let coded = round_trip(&bases, &results);
            prop_assert!(coded.is_ok(), "{:?}", coded);
            if coded == Ok(RecordType::ConsensusBases) {
                let obj = columns::encode_placed_bases(&bases, &results);
                prop_assert_eq!(consensus_of(&obj), majority_by_counting(&reads));
            }
        }

        /// Any byte of a coded block changed (the checksum fixed up):
        /// both decoders fail alike with a typed error, or read the same
        /// records; nothing panics.
        #[test]
        fn decodes_or_fails_typed_after_any_edit(
            genome_seed in any::<u64>(),
            edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        ) {
            let specs: Vec<_> = (0..150u32).map(|i| (i * 3, 60, (i % 7) as u8, u64::from(i) * 0x9E37)).collect();
            let (bases, results) = chunks(&reads_of(genome_seed, &specs, 1));
            let obj = encode(&bases, &results).expect("dense sorted reads take the consensus");
            let header = ChunkHeader::decode(&obj).unwrap();
            let at = obj.len() - header.compressed_len as usize;
            let mut block = obj[at..].to_vec();
            for (i, byte) in edits {
                let i = i % block.len();
                block[i] = byte;
            }
            let edited = write_object(RecordType::ConsensusBases, Codec::None, bases.index(), bases.stored_len(), &block);
            match (RawChunk::decode(&edited), ChunkData::decode(&edited)) {
                (Ok(raw), Ok(data)) => {
                    prop_assert_eq!(raw.len(), data.len());
                    for i in 0..raw.len() {
                        let mut plain = Vec::new();
                        raw.append_plain(i, &mut plain).unwrap();
                        prop_assert_eq!(&plain[..], data.record(i));
                    }
                }
                (Err(raw), Err(data)) => {
                    prop_assert!(matches!(raw, Error::Format(_)), "{:?}", raw);
                    prop_assert_eq!(raw.to_string(), data.to_string());
                }
                (raw, data) => prop_assert!(false, "{:?} vs {:?}", raw.map(|_| ()), data.map(|_| ())),
            }
        }
    }

    /// The object of a hand-written block over records of `index`
    /// bases.
    fn object(index: &[u32], block: &[u8]) -> Vec<u8> {
        let decoded = index.iter().map(|&n| packed_size(n as usize)).sum();
        write_object(RecordType::ConsensusBases, Codec::None, index, decoded, block)
    }

    /// `span`, then the consensus `ACGTACGTAC` cut to `span` bases.
    fn block_head(span: usize) -> Vec<u8> {
        let mut block = vec![span as u8];
        block.extend(crate::compaction::pack(&b"ACGTACGTAC"[..span]).unwrap());
        block
    }

    fn format_error(obj: &[u8]) -> String {
        match RawChunk::decode(obj) {
            Err(Error::Format(what)) => {
                assert_eq!(
                    ChunkData::decode(obj).unwrap_err().to_string(),
                    format!("format error: {what}")
                );
                what
            }
            other => panic!("expected a format error, got {:?}", other.map(|c| c.len())),
        }
    }

    #[test]
    fn hand_written_blocks_decode() {
        // Record 0 at 2 reverse with a `T` at offset 1; record 1 as
        // itself; record 2 at 2 + 4 = 6.
        let mut block = block_head(10);
        block.extend([2 << 3 | 7, 1, 1, 3, 0]);
        block.extend(crate::compaction::pack(b"NN").unwrap());
        block.push(4 << 3 | 1);
        let raw = RawChunk::decode(&object(&[3, 2, 4], &block)).unwrap();
        let plain: Vec<Vec<u8>> = (0..3)
            .map(|i| {
                let mut out = Vec::new();
                raw.append_plain(i, &mut out).unwrap();
                out
            })
            .collect();
        // `GTA` with `T` at 1 is `GTA`; reversed and complemented, `TAC`.
        assert_eq!(plain, [b"TAC".to_vec(), b"NN".to_vec(), b"GTAC".to_vec()]);
    }

    #[test]
    fn malformed_blocks_fail_as_format_errors() {
        let head = block_head(5);
        let with = |tail: &[u8]| [head.as_slice(), tail].concat();
        // A start past the span: 3 + 3 > 5.
        assert_eq!(
            format_error(&object(&[3], &with(&[3 << 3 | 1]))),
            "record 0 of 3 bases starts past the 5-base span"
        );
        // A mismatch offset past the read.
        assert_eq!(
            format_error(&object(&[3], &with(&[3, 1, 3, 0]))),
            "record 0 has a mismatch at 3, past its 3 bases"
        );
        assert_eq!(
            format_error(&object(&[3], &with(&[3, 2, 1, 0, 1, 0]))),
            "record 0 has a mismatch at 3, past its 3 bases"
        );
        // A mismatch count over the read length, and a zero count.
        assert_eq!(
            format_error(&object(&[3], &with(&[3, 4, 0, 0, 0, 0, 0, 0, 0, 0]))),
            "record 0 has 4 mismatches in 3 bases"
        );
        assert_eq!(
            format_error(&object(&[3], &with(&[3, 0]))),
            "record 0 has 0 mismatches in 3 bases"
        );
        // A base code above 4.
        assert_eq!(format_error(&object(&[3], &with(&[3, 1, 0, 5]))), "record 0 has base code 5");
        // A truncated consensus, and one whose span overruns the block.
        assert_eq!(format_error(&object(&[3], &head[..2])), "consensus block truncated");
        assert_eq!(
            format_error(&object(&[3], &[0xFF, 0x7F])),
            "consensus span 16383 overruns the block"
        );
        // A group out of range in the consensus.
        assert!(format_error(&object(&[3], &[5, 0xFF, 0x0F, 1])).contains("base group 0"));
        // Leads: unknown flags, a cut, trailing bytes, a varint past 64 bits.
        assert_eq!(format_error(&object(&[3], &with(&[8]))), "record 0 has an unknown lead 0x8");
        assert_eq!(format_error(&object(&[3], &with(&[]))), "consensus block truncated");
        assert_eq!(
            format_error(&object(&[3], &with(&[1, 0]))),
            "trailing bytes after the consensus block's records"
        );
        assert_eq!(
            format_error(&object(&[3], &with(&[0xFF; 11]))),
            "consensus block varint overflows 64 bits"
        );
        // More output than the header's length.
        let mut short = object(&[3], &with(&[1]));
        short[12] -= 1;
        assert_eq!(format_error(&short), "record 0 decodes past 1 bytes");
        // A consensus block under a codec.
        let mut gzip = object(&[3], &with(&[1]));
        gzip[6] = Codec::Gzip.id();
        assert_eq!(format_error(&gzip), "a consensus block is not coded by gzip");
    }
}
