//! The table-driven inflater against the bit-at-a-time one it replaced
//! (`reference/`): same bytes, same consumed count, same kind of error,
//! on streams from this crate's encoder, hand-built edge cases, streams
//! zlib wrote, and every single-bit corruption and truncation of a
//! stream — plus the allocation bound and the encoder's determinism.

mod reference;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use persona_compress::bits::BitWriter;
use persona_compress::deflate::huffman::assign_codes;
use persona_compress::deflate::inflate::{fixed_litlen_lengths, MAX_EXPANSION};
use persona_compress::deflate::{
    deflate_level, dist_code, inflate_from, length_code, CompressLevel, DIST_BASE, DIST_EXTRA,
    LENGTH_BASE, LENGTH_EXTRA, WINDOW_SIZE,
};
use persona_compress::{gzip, Error};

const LEVELS: [CompressLevel; 2] = [CompressLevel::Store, CompressLevel::Fast];

// ---- The allocation bound -------------------------------------------

/// Passes every request to the system allocator and notes the largest
/// one the current thread has made.
struct NoteLargest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread that is being torn down may still allocate.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only touches a
// const-initialised, destructor-free thread-local, so it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for NoteLargest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: NoteLargest = NoteLargest;

/// Runs `f` and returns its result with the largest single allocation
/// it made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let value = f();
    (value, LARGEST.with(|l| l.get()))
}

// ---- Comparing the two decoders -------------------------------------

type Inflated = Result<(Vec<u8>, usize), Error>;

/// Inflates `data` with both decoders and checks they agree: on success
/// the bytes and the consumed count, on failure the kind of error. The
/// production decoder must also stay within its allocation bound.
fn assert_same(data: &[u8], size_hint: usize) -> Inflated {
    let want = reference::inflate_from(data, 0);
    let (got, largest) = largest_allocation(|| inflate_from(data, size_hint));
    match (&got, &want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.1, want.1, "consumed count");
            assert!(got.0 == want.0, "decoded bytes differ ({} vs {})", got.0.len(), want.0.len());
        }
        (Err(got), Err(want)) => assert_eq!(
            std::mem::discriminant(got),
            std::mem::discriminant(want),
            "{got:?} where the reference says {want:?}"
        ),
        _ => panic!("{:?} where the reference says {:?}", got.as_ref().err(), want.as_ref().err()),
    }
    assert!(
        largest <= allocation_bound(data.len()),
        "allocated {largest} bytes for {} of input",
        data.len()
    );
    got
}

/// The most a decoder may allocate at once for `input_len` bytes of
/// input: the output bound, or (for tiny inputs) its decoding tables.
fn allocation_bound(input_len: usize) -> usize {
    (input_len * MAX_EXPANSION).max(64 * 1024)
}

/// [`assert_same`] on a stream that must decode to `plain`, under size
/// hints that are exact, absent, short and absurd, alone and with bytes
/// following it (which puts it wholly inside the fast loop's reach).
fn assert_decodes(stream: &[u8], plain: &[u8]) {
    let mut followed = stream.to_vec();
    followed.extend_from_slice(&[0xA5; 64]);
    for hint in [plain.len(), 0, plain.len() / 3, usize::MAX] {
        let got = assert_same(stream, hint).expect("stream decodes");
        assert!(got.0 == plain, "decoded {} bytes, expected {}", got.0.len(), plain.len());
        assert_eq!(got.1, stream.len());
        assert_eq!(assert_same(&followed, hint).expect("followed stream decodes").1, stream.len());
    }
}

// ---- Building streams by hand ---------------------------------------

/// The Huffman codes of one block.
struct BlockCode {
    litlen_lens: Vec<u8>,
    litlen_codes: Vec<u16>,
    dist_lens: Vec<u8>,
    dist_codes: Vec<u16>,
}

impl BlockCode {
    fn new(litlen_lens: &[u8], dist_lens: &[u8]) -> Self {
        let mut code = BlockCode {
            litlen_lens: litlen_lens.to_vec(),
            litlen_codes: vec![0; litlen_lens.len()],
            dist_lens: dist_lens.to_vec(),
            dist_codes: vec![0; dist_lens.len()],
        };
        assign_codes(&code.litlen_lens, &mut code.litlen_codes);
        assign_codes(&code.dist_lens, &mut code.dist_codes);
        code
    }

    fn fixed() -> Self {
        BlockCode::new(&fixed_litlen_lengths(), &[5; 30])
    }
}

/// Writes a stream symbol by symbol and keeps what it should decode to.
struct Script<'a> {
    w: BitWriter<'a>,
    plain: Vec<u8>,
    code: BlockCode,
}

impl Script<'_> {
    /// Runs `f` over a fresh script; returns the stream and its plaintext.
    fn build(f: impl FnOnce(&mut Script<'_>)) -> (Vec<u8>, Vec<u8>) {
        let mut stream = Vec::new();
        let mut script =
            Script { w: BitWriter::new(&mut stream), plain: Vec::new(), code: BlockCode::fixed() };
        f(&mut script);
        let plain = script.plain;
        script.w.finish();
        (stream, plain)
    }

    fn fixed_block(&mut self, last: bool) {
        self.w.write_bits(last as u64, 1);
        self.w.write_bits(1, 2);
        self.code = BlockCode::fixed();
    }

    /// Starts a dynamic block whose header spells the code lengths out
    /// one by one under a flat 4-bit code for the lengths 0..=15.
    fn dynamic_block(&mut self, last: bool, litlen_lens: &[u8], dist_lens: &[u8]) {
        assert!(litlen_lens.len() >= 257 && !dist_lens.is_empty());
        self.w.write_bits(last as u64, 1);
        self.w.write_bits(2, 2);
        self.w.write_bits(litlen_lens.len() as u64 - 257, 5);
        self.w.write_bits(dist_lens.len() as u64 - 1, 5);
        self.w.write_bits(19 - 4, 4);
        let order = [16usize, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];
        for sym in order {
            self.w.write_bits(if sym < 16 { 4 } else { 0 }, 3);
        }
        let mut precode = [0u16; 16];
        assign_codes(&[4; 16], &mut precode);
        for &len in litlen_lens.iter().chain(dist_lens) {
            self.w.write_bits(precode[len as usize] as u64, 4);
        }
        self.code = BlockCode::new(litlen_lens, dist_lens);
    }

    fn stored_block(&mut self, last: bool, bytes: &[u8]) {
        self.w.write_bits(last as u64, 1);
        self.w.write_bits(0, 2);
        self.w.align_to_byte();
        self.w.write_bytes(&(bytes.len() as u16).to_le_bytes());
        self.w.write_bytes(&(!(bytes.len() as u16)).to_le_bytes());
        self.w.write_bytes(bytes);
        self.plain.extend_from_slice(bytes);
    }

    fn symbol(&mut self, sym: usize) {
        assert!(self.code.litlen_lens[sym] > 0, "symbol {sym} has no code");
        self.w.write_bits(self.code.litlen_codes[sym] as u64, self.code.litlen_lens[sym] as u32);
    }

    fn literal(&mut self, byte: u8) {
        self.symbol(byte as usize);
        self.plain.push(byte);
    }

    fn literals(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.literal(b);
        }
    }

    /// A match's symbols, without its effect on the plaintext.
    fn matching_bits(&mut self, len: usize, dist: usize) {
        let lc = length_code(len);
        self.symbol(257 + lc);
        self.w.write_bits((len - LENGTH_BASE[lc] as usize) as u64, LENGTH_EXTRA[lc] as u32);
        let dc = dist_code(dist);
        assert!(self.code.dist_lens[dc] > 0, "distance code {dc} has no code");
        self.w.write_bits(self.code.dist_codes[dc] as u64, self.code.dist_lens[dc] as u32);
        self.w.write_bits((dist - DIST_BASE[dc] as usize) as u64, DIST_EXTRA[dc] as u32);
    }

    fn matching(&mut self, len: usize, dist: usize) {
        self.matching_bits(len, dist);
        for _ in 0..len {
            self.plain.push(self.plain[self.plain.len() - dist]);
        }
    }

    fn end_of_block(&mut self) {
        self.symbol(256);
    }
}

/// A deterministic byte source.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

// ---- The three column shapes ----------------------------------------

/// 101-base reads, 3 bits per base, 21 bases per little-endian word.
fn packed_bases(reads: usize) -> Vec<u8> {
    let mut rng = Lcg(0xBA5E5);
    let mut out = Vec::new();
    for _ in 0..reads {
        let bases: Vec<u64> = (0..101).map(|_| (rng.next() % 4) as u64).collect();
        for group in bases.chunks(21) {
            let word = group.iter().enumerate().fold(0u64, |w, (i, b)| w | b << (3 * i));
            out.extend_from_slice(&word.to_le_bytes());
        }
    }
    out
}

/// Phred+33 strings whose quality drifts by at most one per base.
fn random_walk_qualities(reads: usize) -> Vec<u8> {
    let mut rng = Lcg(0x9A11);
    let mut out = Vec::new();
    for _ in 0..reads {
        let mut q = 38i32;
        for _ in 0..101 {
            q = (q + rng.next() as i32 % 3 - 1).clamp(2, 41);
            out.push(b'!' + q as u8);
        }
    }
    out
}

fn metadata(reads: usize) -> Vec<u8> {
    let mut rng = Lcg(0x3E7A);
    let mut out = Vec::new();
    for serial in 0..reads {
        let strand = if rng.next() & 1 == 0 { '+' } else { '-' };
        out.extend_from_slice(
            format!("sim:chr1:{}:{strand}:{serial}", rng.next() % 1_000_000).as_bytes(),
        );
    }
    out
}

#[test]
fn column_shapes_at_every_level() {
    for (name, data) in [
        ("packed bases", packed_bases(3_000)),
        ("qualities", random_walk_qualities(2_000)),
        ("metadata", metadata(6_000)),
    ] {
        let mut sizes = Vec::new();
        for level in LEVELS {
            let packed = deflate_level(&data, level);
            let got = assert_same(&packed, data.len()).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(got.0 == data, "{name} at {level:?}");
            assert_same(&packed, 0).unwrap();
            sizes.push(packed.len());
        }
        // Compressing beats storing.
        assert!(sizes[1] < sizes[0], "{name}: {sizes:?}");
    }
}

// ---- Hand-built edge streams ----------------------------------------

#[test]
fn longest_distance_and_length() {
    let filler = Lcg(1).bytes(WINDOW_SIZE);
    let (stream, plain) = Script::build(|s| {
        s.fixed_block(true);
        s.literals(&filler);
        s.matching(258, WINDOW_SIZE);
        s.literal(b'!');
        s.matching(258, WINDOW_SIZE);
        s.matching(3, WINDOW_SIZE);
        s.matching(257, 24_577);
        s.end_of_block();
    });
    assert_eq!(plain.len(), WINDOW_SIZE + 258 + 1 + 258 + 3 + 257);
    assert_decodes(&stream, &plain);

    // One byte further back than there is history is corrupt.
    for history in [100usize, WINDOW_SIZE - 1] {
        let (stream, _) = Script::build(|s| {
            s.fixed_block(true);
            s.literals(&filler[..history]);
            s.matching_bits(3, history + 1);
            s.end_of_block();
        });
        assert!(matches!(assert_same(&stream, 0), Err(Error::Corrupt(_))));
    }
}

#[test]
fn overlapping_matches_of_every_short_distance() {
    for dist in 1..=9usize {
        for len in [3usize, 4, 7, 8, 9, 15, 16, 17, 31, 258] {
            let (stream, plain) = Script::build(|s| {
                s.fixed_block(true);
                s.literals(&Lcg(dist as u64).bytes(dist + 2));
                s.matching(len, dist);
                s.literal(b'.');
                s.matching(len, dist);
                s.end_of_block();
            });
            assert_decodes(&stream, &plain);
        }
    }
}

/// A stream of short literal runs and matches, decoded with the fast
/// loop handing over to the careful step (and taking over again) at
/// every possible point: the bytes that follow the stream move the
/// input-side boundary across it, the size hint moves the output-side
/// boundary across the plaintext.
#[test]
fn fast_loop_hand_off_at_every_offset() {
    let mut rng = Lcg(0x0FF5E7);
    let (stream, plain) = Script::build(|s| {
        s.fixed_block(false);
        s.literals(b"hand-off");
        for _ in 0..60 {
            let run = rng.next() as usize % 3;
            s.literals(&Lcg(rng.next() as u64).bytes(run));
            let dist = 1 + rng.next() as usize % s.plain.len().min(40);
            s.matching(3 + rng.next() as usize % 14, dist);
        }
        s.end_of_block();
        // A second block, so the hand-off also happens at a block edge.
        s.stored_block(false, b"stored");
        s.fixed_block(true);
        s.literals(b"tail");
        s.matching(20, 3);
        s.end_of_block();
    });
    let want = reference::inflate_from(&stream, 0).unwrap();
    assert!(want.0 == plain && want.1 == stream.len());

    for following in 0..stream.len() + 48 {
        let mut data = stream.clone();
        data.extend((0..following).map(|i| 0xC3 ^ i as u8));
        for hint in [0, 7, plain.len() / 2, plain.len(), usize::MAX] {
            assert_eq!(inflate_from(&data, hint).as_ref(), Ok(&want), "{following} bytes follow");
        }
    }
    let mut data = stream.clone();
    data.extend_from_slice(&[0x3C; 64]);
    for hint in 0..plain.len() + 8 {
        assert_eq!(inflate_from(&data, hint).as_ref(), Ok(&want), "size hint {hint}");
        assert_eq!(inflate_from(&stream, hint).as_ref(), Ok(&want), "size hint {hint}, no slack");
    }
}

#[test]
fn stored_blocks_of_the_smallest_and_largest_size() {
    let big = Lcg(65_535).bytes(65_535);
    let (stream, plain) = Script::build(|s| {
        s.stored_block(false, &[]);
        s.stored_block(false, &big);
        s.fixed_block(false);
        s.matching(258, WINDOW_SIZE);
        s.end_of_block();
        s.stored_block(true, &[]);
    });
    assert_decodes(&stream, &plain);
}

#[test]
fn codes_of_every_length_up_to_fifteen() {
    // Literal/length code: thirteen literals with 1..=13 bits, the
    // length symbols 257 (14 bits) and 285 (15 bits), end-of-block with
    // 15 bits. Distance code: lengths 1..=15 and 15 over codes 0..=15.
    // Both are complete, and both need subtables.
    let mut litlen = vec![0u8; 286];
    for (i, len) in (1..=13).enumerate() {
        litlen[b'a' as usize + i] = len;
    }
    litlen[257] = 14;
    litlen[285] = 15;
    litlen[256] = 15;
    let dist: Vec<u8> = (1..=15).chain([15]).collect();
    let mut rng = Lcg(15);
    let (stream, plain) = Script::build(|s| {
        s.dynamic_block(true, &litlen, &dist);
        for round in 0..40 {
            for i in 0..13 {
                s.literal(b'a' + ((i * 7 + round) % 13) as u8);
            }
            if s.plain.len() > 260 {
                // Distance codes 0..=15 reach 1..=256.
                let reach = 1 + rng.next() as usize % 256;
                s.matching(if round % 2 == 0 { 3 } else { 258 }, reach);
            }
        }
        s.end_of_block();
    });
    assert_decodes(&stream, &plain);
}

#[test]
fn incomplete_and_empty_distance_codes() {
    let mut litlen = vec![0u8; 258];
    litlen[b'x' as usize] = 1;
    litlen[256] = 2;
    litlen[257] = 2;
    // One distance code of one bit: half the code space is a gap.
    let (stream, plain) = Script::build(|s| {
        s.dynamic_block(true, &litlen, &[1]);
        s.literals(b"xxxx");
        s.matching(3, 1);
        s.end_of_block();
    });
    assert_decodes(&stream, &plain);

    // The same stream with the distance's bit set decodes into the gap.
    // With 15 more bits to look at that is corrupt; cut short, it is a
    // truncation.
    let (gap, _) = Script::build(|s| {
        s.dynamic_block(true, &litlen, &[1]);
        s.literals(b"xxxx");
        s.symbol(257);
        s.w.write_bits(1, 1);
    });
    for fill in [0u8, 0xFF] {
        let followed = [&gap[..], &[fill; 40]].concat();
        assert!(matches!(assert_same(&followed, 0), Err(Error::Corrupt(_))));
    }
    assert!(matches!(assert_same(&gap, 0), Err(Error::UnexpectedEof)));

    // No distance code at all is a legal header; using it is corrupt
    // however little input follows.
    let (stream, plain) = Script::build(|s| {
        s.dynamic_block(true, &litlen, &[0]);
        s.literals(b"xx");
        s.end_of_block();
    });
    assert_decodes(&stream, &plain);
    let (unusable, _) = Script::build(|s| {
        s.dynamic_block(true, &litlen, &[0]);
        s.literals(b"xx");
        s.symbol(257);
    });
    assert!(matches!(assert_same(&unusable, 0), Err(Error::Corrupt(_))));
    let followed = [&unusable[..], &[0; 40]].concat();
    assert!(matches!(assert_same(&followed, 0), Err(Error::Corrupt(_))));
}

#[test]
fn final_empty_block_after_others() {
    let (stream, plain) = Script::build(|s| {
        s.fixed_block(false);
        s.literals(b"first block ");
        s.matching(6, 6);
        s.end_of_block();
        s.stored_block(false, b" second ");
        s.fixed_block(true);
        s.end_of_block();
    });
    assert_decodes(&stream, &plain);
}

#[test]
fn over_subscribed_and_over_long_headers() {
    let mut litlen = vec![0u8; 258];
    litlen[0] = 1;
    litlen[1] = 1;
    litlen[256] = 1;
    let (stream, _) = Script::build(|s| s.dynamic_block(true, &litlen, &[1]));
    assert!(matches!(assert_same(&stream, 0), Err(Error::Corrupt(_))));
    // HLIT fields that stand for 287 and 288 literal/length codes.
    for hlit in [30u64, 31] {
        let mut stream = Vec::new();
        let mut w = BitWriter::new(&mut stream);
        w.write_bits(1, 1);
        w.write_bits(2, 2);
        w.write_bits(hlit, 5);
        w.write_bits(0, 5);
        w.write_bits(0, 4);
        w.write_bits(0, 56);
        w.finish();
        assert!(matches!(assert_same(&stream, 0), Err(Error::Corrupt(_))));
    }
}

// ---- Streams other tools wrote --------------------------------------

fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(u8::is_ascii_hexdigit).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// zlib 1.2.13, raw deflate, level 9, `Z_FIXED`.
const ZLIB_FIXED: &str = "
    2b482d2acecf4b542840a5ad1412153232d3337481fcb4fca2dcc4bce45485a4
    ccfccc3c30af2433b95821ad283137b53cbf281b00";

/// zlib 1.2.13, raw deflate, level 9: one dynamic-Huffman block.
const ZLIB_DYNAMIC: &str = "
    c5d43d1202210c86e19eab6cc3efc232fe10a3467b6e60a3c5367aff193fd4c2
    1be49d6120544f95f67aacf5767fbaeaacb575aad6104befc24422dc3b11b3c8
    b8318e5958a87fcfef31fecc64aee882049dd1091d11a30322d4d01eedd0166d
    90697f86906170ba861c61f0aa060443d035c40243d435940443523578ef6198
    750d698121eb1a961986a26a0821c0b0e81af2d8934e775146fb59940a9bf20d";

/// zlib 1.2.13, raw deflate, level 0.
const ZLIB_STORED: &str = "011600e9ff73746f7265642c206e6f7420636f6d70726573736564";

/// CPython's `gzip.compress(..., 9, mtime=0)` over zlib 1.2.13.
const FOREIGN_GZIP: &str = "
    1f8b08000000000002034bcb2f4acd4ccf5348afca2c50c84dcd4d4a2de24a23
    520c00611912f43c000000";

#[test]
fn streams_written_by_zlib() {
    let fixed = hex(ZLIB_FIXED);
    assert_eq!(fixed[0] >> 1 & 3, 1, "fixed-Huffman block");
    assert_decodes(&fixed, b"persona persona persona: a high-performance bioinformatics framework");

    let dynamic = hex(ZLIB_DYNAMIC);
    assert_eq!(dynamic[0] >> 1 & 3, 2, "dynamic-Huffman block");
    let fastq: String = (0..12)
        .map(|i| {
            format!(
                "@sim:chr1:{}:+:{i}\nACGTTGCAAGGCTTAACCGGTTAAGGCCTTAGCGATCGATCGGATCGATTAGC\n+\n\
                 IIIIHHHHGGGGFFFFEEEEDDDDCCCCBBBBAAAA@@@@????>>>>====<<<<\n",
                1000 + 37 * i
            )
        })
        .collect();
    assert_decodes(&dynamic, fastq.as_bytes());

    let stored = hex(ZLIB_STORED);
    assert_eq!(stored[0] >> 1 & 3, 0, "stored block");
    assert_decodes(&stored, b"stored, not compressed");

    let member = hex(FOREIGN_GZIP);
    assert_eq!(gzip::decompress(&member).unwrap(), b"foreign gzip member\n".repeat(3));
}

// ---- Corruption ------------------------------------------------------

/// About 2 KB: one dynamic block of literals and near and far matches.
fn two_kilobyte_stream() -> Vec<u8> {
    let mut plain = metadata(110);
    plain.extend_from_slice(&random_walk_qualities(14));
    plain.extend_from_slice(&Lcg(2).bytes(200));
    plain.extend_from_slice(&packed_bases(9));
    let stream = deflate_level(&plain, CompressLevel::Fast);
    assert!((1_800..2_300).contains(&stream.len()), "{} bytes", stream.len());
    assert_eq!(stream[0] & 7, 0b101, "one final dynamic block");
    stream
}

#[test]
fn every_single_bit_flip_decodes_or_errors_identically() {
    let stream = two_kilobyte_stream();
    let mut damaged = stream.clone();
    for bit in 0..stream.len() * 8 {
        damaged[bit / 8] ^= 1 << (bit % 8);
        // An exact hint for the undamaged stream, and none.
        let _ = assert_same(&damaged, if bit % 2 == 0 { 6_000 } else { 0 });
        damaged[bit / 8] ^= 1 << (bit % 8);
    }
}

#[test]
fn every_truncation_decodes_or_errors_identically() {
    let stream = two_kilobyte_stream();
    for cut in 0..stream.len() {
        let got = assert_same(&stream[..cut], 6_000);
        assert!(got.is_err(), "truncated at {cut} of {} decoded", stream.len());
    }
    // The fixed and stored paths too.
    let (stream, _) = Script::build(|s| {
        s.fixed_block(false);
        s.literals(b"truncate me, truncate me");
        s.matching(100, 13);
        s.end_of_block();
        s.stored_block(true, b"and me");
    });
    for cut in 0..stream.len() {
        assert!(assert_same(&stream[..cut], 0).is_err(), "cut {cut}");
    }
}

#[test]
fn a_forged_size_cannot_drive_an_allocation() {
    let plain = b"small".repeat(10);
    let stream = deflate_level(&plain, CompressLevel::Fast);
    let (got, largest) = largest_allocation(|| inflate_from(&stream, usize::MAX));
    assert_eq!(got.unwrap().0, plain);
    assert!(largest <= allocation_bound(stream.len()), "allocated {largest}");

    // A gzip trailer that claims 4 GiB - 1.
    let mut member = gzip::compress_level(&plain, CompressLevel::Fast);
    let n = member.len();
    member[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    let (got, largest) = largest_allocation(|| gzip::decompress(&member));
    assert!(matches!(got, Err(Error::LengthMismatch { .. })), "{got:?}");
    assert!(largest <= allocation_bound(member.len()), "allocated {largest}");
    let (got, largest) = largest_allocation(|| gzip::decompress_sized(&member, usize::MAX));
    assert!(got.is_err());
    assert!(largest <= allocation_bound(member.len()), "allocated {largest}");
}

// ---- The encoder -----------------------------------------------------

#[test]
fn output_does_not_depend_on_what_the_thread_compressed_before() {
    let payloads = [
        packed_bases(700),
        random_walk_qualities(500),
        metadata(2_000),
        Lcg(7).bytes(70_000),
        b"tiny".to_vec(),
        Vec::new(),
    ];
    // On a thread that has never compressed anything.
    let fresh = |data: &[u8], level| {
        let data = data.to_vec();
        std::thread::spawn(move || deflate_level(&data, level)).join().unwrap()
    };
    for level in LEVELS {
        let want: Vec<Vec<u8>> = payloads.iter().map(|p| fresh(p, level)).collect();
        // Every payload after every other one, on this thread.
        for first in &payloads {
            for (second, want) in payloads.iter().zip(&want) {
                deflate_level(first, LEVELS[(first.len() + second.len()) % LEVELS.len()]);
                assert!(&deflate_level(second, level) == want, "{level:?}");
            }
        }
        // And from two threads at once.
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for (payload, want) in payloads.iter().zip(&want) {
                        assert!(&deflate_level(payload, level) == want, "{level:?}");
                    }
                });
            }
        });
    }
}
