//! Striped SIMD forward pass for Smith-Waterman (x86-64 SSE2/AVX2).
//!
//! Computes the full affine-gap `H` matrix of [`crate::sw`]'s scalar
//! kernel, 16 (SSE2) or 32 (AVX2) query columns per instruction in
//! 8-bit cells, 8 or 16 in 16-bit cells, and hands it with the best-cell
//! position to the shared traceback in `sw.rs`, which emits a CIGAR
//! byte-identical to the scalar kernel's.
//!
//! **Layout.** The query is *striped* across the vector (Farrar 2007):
//! with `seg_len = ceil(m / lanes)`, query column `j` (0-based) lives in
//! lane `j / seg_len` of segment `j % seg_len`, so consecutive columns
//! are consecutive *segments* of one lane and the column-to-column
//! (horizontal gap) dependency never runs inside a vector. Substitution
//! scores come from a query profile — one striped row per distinct
//! reference byte — so the inner loop has no compare or blend.
//!
//! **One row** is three steps, none with an intra-vector dependency, a
//! store that is reloaded, or a data-dependent trip count:
//!
//! 1. a pass over the segments computing the vertical gap `F`, the
//!    diagonal, the horizontal gap `E` *as far as it originates in this
//!    lane's own run of columns*, and `H = max(diag + sub, F, E)`;
//! 2. the horizontal gap still open at the end of each lane's run has
//!    to enter the next lane: a weighted prefix maximum across lanes,
//!    once per **row** (Farrar's lazy-F loop would iterate once per
//!    lane a gap crosses — a score-200 cell bleeds `E > 0` across ~95
//!    columns at extend = 2). It runs inside each 128-bit half, where
//!    a lane shift is a 1-cycle byte shift; under AVX2 the low half's
//!    total then enters the high half by one broadcast, rather than by
//!    a lane-crossing shift at every step;
//! 3. if any lane receives a live carry, one more pass folds it in.
//!
//! A row's first diagonal is the previous row's last segment, the last
//! value that row computes; it is carried in a register rather than
//! stored and reloaded.
//!
//! **Cells.** Scores are non-negative and the gap penalties use
//! unsigned saturating subtraction: a gap candidate `<= 0` clamps to 0
//! and drops out, since it can never change an `H >= 0`. Two cell types
//! share one body (SSW, Zhao et al. 2013):
//!
//! * `u8` whenever `min(n, m)·match + match − mismatch <= 255`, which
//!   bounds every cell *and* every `diag + sub` before it is clamped (a
//!   101 bp read against a 125-base window scores 212 at the default
//!   scoring). The profile is biased by `−mismatch`, so it is never
//!   negative, and a cell is `subs(adds(diag, prof), bias)` in unsigned
//!   saturating arithmetic: exactly `max(0, diag + sub)`. Twice the
//!   lanes of `i16`: a 101 bp query is 4 segments per row, not 7.
//! * `i16` otherwise, with the profile unbiased and a signed saturating
//!   add. The guard is static, so neither body checks for overflow and
//!   nothing is ever rerun.
//!
//! **Exactness.** Gaps are opened from an `H` that may itself end in a
//! gap, and the vertical gap is opened from `H` before step 3 raised
//! it. Both are exact whenever `gap_open <= gap_extend` (both negative:
//! re-opening never beats extending, and a horizontal-then-vertical
//! gap pair scores the same as the vertical-then-horizontal pair the
//! kernel does see), which holds for the default scoring. Inputs
//! outside the guard envelope (huge matrices, scores that could
//! overflow `i16`, gap parameters breaking that identity) return `None`
//! and the caller falls back to scalar code.
//!
//! **Buffers.** The matrix, the profile and the `F` row live in a
//! per-thread scratch (one set per cell type) that is reused across
//! calls; a matrix of more than [`RETAIN`] cells is freed after use. The
//! kernel reads before writing only row 0 of the matrix and the `F`
//! row; both are re-zeroed on every call, and every other row is fully
//! written by step 1 before anything reads it. Columns past the query
//! (pad lanes) depend on real columns but never feed one, and never
//! exceed the best real cell seen so far (their profile score is the
//! mismatch score and every penalty is `<= 0`), so they need no masking.

use std::cell::RefCell;

use crate::sw::Scoring;

/// The stored cells of an [`HMatrix`], of either width.
pub(crate) enum Cells<'a> {
    U8(&'a [u8]),
    I16(&'a [i16]),
}

/// The completed score matrix of a forward pass: `n + 1` rows (row 0 is
/// the all-zero boundary) of `stride` striped scores; column 0 is
/// implicit.
pub(crate) struct HMatrix<'a> {
    /// `(n + 1) * stride` scores.
    h: Cells<'a>,
    /// `col[j]` = offset of query column `j` (1-based) within a row.
    col: &'a [u32],
    /// Elements per row.
    stride: usize,
    /// Best local score (0 if nothing scored positive).
    pub best: i32,
    /// Reference row of the first best cell in row-major order.
    pub best_i: usize,
    /// Query column of that cell.
    pub best_j: usize,
}

impl HMatrix<'_> {
    /// The stored cells, to pick a traceback body by cell type.
    pub fn cells(&self) -> &Cells<'_> {
        &self.h
    }

    /// `H[i][j]` for `0 <= i <= n`, `0 <= j <= m`, from `h` =
    /// [`Self::cells`]' slice.
    #[inline(always)]
    pub fn cell<E: Cell>(&self, h: &[E], i: usize, j: usize) -> i32 {
        if j == 0 {
            0
        } else {
            h[i * self.stride + self.col[j] as usize].into()
        }
    }

    /// Bits per stored cell: which body computed the matrix.
    #[cfg(test)]
    pub fn cell_bits(&self) -> u32 {
        match self.h {
            Cells::U8(_) => 8,
            Cells::I16(_) => 16,
        }
    }
}

/// The vector width a forward pass runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Width {
    /// 128 bits: 16 × u8 or 8 × i16 (x86-64 base ISA).
    Sse2,
    /// 256 bits: 32 × u8 or 16 × i16.
    Avx2,
}

/// A cell type of the forward pass.
pub(crate) trait Cell: Copy + Default + PartialEq + Into<i32> {
    /// Whether this is the 8-bit cell (the vector types branch on it at
    /// compile time).
    const U8: bool;
    /// `x`, which the caller's guards keep in range, as a cell.
    fn from_score(x: i32) -> Self;
    /// `x` as the operand of an unsigned saturating subtract: clamped at
    /// the cell's unsigned maximum, where it already zeroes every score.
    fn penalty(x: u64) -> Self;
    /// The matrix view over a slice of these cells.
    fn cells(h: &[Self]) -> Cells<'_>;
}

impl Cell for u8 {
    const U8: bool = true;

    fn from_score(x: i32) -> Self {
        debug_assert!((0..=255).contains(&x));
        x as u8
    }

    fn penalty(x: u64) -> Self {
        x.min(u8::MAX as u64) as u8
    }

    fn cells(h: &[Self]) -> Cells<'_> {
        Cells::U8(h)
    }
}

impl Cell for i16 {
    const U8: bool = false;

    fn from_score(x: i32) -> Self {
        debug_assert!((-16_000..=16_000).contains(&x));
        x as i16
    }

    fn penalty(x: u64) -> Self {
        x.min(u16::MAX as u64) as u16 as i16
    }

    fn cells(h: &[Self]) -> Cells<'_> {
        Cells::I16(h)
    }
}

/// Per-thread buffers of one cell type.
#[derive(Default)]
struct Buffers<T> {
    h: Vec<T>,
    f: Vec<T>,
    profile: Vec<T>,
}

/// Per-thread buffers reused across forward passes.
#[derive(Default)]
struct Scratch {
    u8: Buffers<u8>,
    i16: Buffers<i16>,
    col: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Matrix cells (elements, of either type) a thread keeps between
/// calls; a larger matrix is freed after use.
const RETAIN: usize = 1 << 19;

/// Runs the vectorized forward pass and calls `f` on the matrix, or
/// returns `None` when the inputs fall outside the exactness/overflow
/// guards, or `width` (default: the widest the CPU has) is unavailable,
/// or off x86-64 entirely. `force_i16` runs the 16-bit cells even where
/// the 8-bit ones would do (for tests).
pub(crate) fn with_matrix<R>(
    reference: &[u8],
    query: &[u8],
    sc: &Scoring,
    width: Option<Width>,
    force_i16: bool,
    f: impl FnOnce(&HMatrix<'_>) -> R,
) -> Option<R> {
    #[cfg(target_arch = "x86_64")]
    {
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            let out = x86::forward(reference, query, sc, width, force_i16, s).map(|hm| f(&hm));
            if s.u8.h.capacity() > RETAIN {
                s.u8.h = Vec::new();
            }
            if s.i16.h.capacity() > RETAIN {
                s.i16.h = Vec::new();
            }
            out
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (reference, query, sc, width, force_i16, f, &SCRATCH);
        None
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Buffers, Cell, HMatrix, Scratch, Width};
    use crate::sw::Scoring;
    use std::arch::x86_64::*;
    use std::marker::PhantomData;

    /// `len` elements of `buf` starting on a 32-byte boundary, so no
    /// vector access splits a cache line. Grows `buf`, never shrinks
    /// it; the contents are whatever the last call left.
    fn aligned<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
        let pad = 32 / std::mem::size_of::<T>();
        if buf.len() < len + pad {
            buf.resize(len + pad, T::default());
        }
        let off = buf.as_ptr().align_offset(32);
        let off = if off < pad { off } else { 0 };
        &mut buf[off..off + len]
    }

    pub(super) fn forward<'a>(
        reference: &[u8],
        query: &[u8],
        sc: &Scoring,
        width: Option<Width>,
        force_i16: bool,
        s: &'a mut Scratch,
    ) -> Option<HMatrix<'a>> {
        let n = reference.len();
        let m = query.len();
        if n == 0 || m == 0 {
            return None;
        }
        // Keep the dense matrix small; callers only run SW on windows of
        // a few hundred bases.
        if n.saturating_mul(m) > 4_000_000 {
            return None;
        }
        // Exactness: opening a gap adjacent to a gap must never beat
        // extending it. The sign guards are what lets gap candidates
        // clamp at zero and pad lanes go unmasked (module docs).
        if sc.match_score < 0 || sc.mismatch > 0 || sc.gap_extend > 0 || sc.gap_open > sc.gap_extend
        {
            return None;
        }
        // i16 headroom: the largest possible cell plus one more add.
        let top = (n.min(m) as i64) * (sc.match_score as i64);
        if top > 16_000 {
            return None;
        }
        if sc.mismatch < -16_000 || sc.gap_open < -16_000 || sc.gap_extend < -16_000 {
            return None;
        }
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        let width = match width {
            Some(Width::Avx2) if !avx2 => return None,
            Some(w) => w,
            None if avx2 => Width::Avx2,
            None => Width::Sse2,
        };
        let Scratch { u8: small, i16: wide, col } = s;
        // u8 headroom: every `diag + sub + bias` fits (module docs).
        if !force_i16 && top + (sc.match_score - sc.mismatch) as i64 <= u8::MAX as i64 {
            forward_cells(reference, query, sc, width, small, col)
        } else {
            forward_cells(reference, query, sc, width, wide, col)
        }
    }

    /// [`forward`] once the cell type is chosen: builds the profile and
    /// the column map, runs the kernel, finds the best cell's column.
    fn forward_cells<'a, E: Cell>(
        reference: &[u8],
        query: &[u8],
        sc: &Scoring,
        width: Width,
        b: &'a mut Buffers<E>,
        col: &'a mut Vec<u32>,
    ) -> Option<HMatrix<'a>> {
        let (n, m) = (reference.len(), query.len());
        let lanes = match width {
            Width::Sse2 => <Sse2<E> as SwVec>::LANES,
            Width::Avx2 => <Avx2<E> as SwVec>::LANES,
        };
        let seg_len = m.div_ceil(lanes);
        let stride = seg_len * lanes;

        // One profile row per distinct reference byte, in order of
        // first appearance.
        let mut row_of = [u8::MAX; 256];
        let mut rows = 0usize;
        for &c in reference {
            // 255 rows at most get a number below u8::MAX; a 256th
            // distinct byte cannot be told from "absent".
            if row_of[c as usize] == u8::MAX {
                if rows == u8::MAX as usize {
                    return None;
                }
                row_of[c as usize] = rows as u8;
                rows += 1;
            }
        }
        col.clear();
        col.push(0); // Column 0 is implicit; `HMatrix::at` never reads this.
        for lane in 0..lanes {
            col.extend((0..seg_len).map(|seg| (seg * lanes + lane) as u32));
        }
        col.truncate(m + 1);
        // 8-bit cells score `sub - mismatch` (never negative); the
        // kernel subtracts the bias back after the add.
        let bias = if E::U8 { -sc.mismatch } else { 0 };
        let profile = aligned(&mut b.profile, rows * stride);
        // Pad lanes keep the mismatch score (see the module docs).
        profile.fill(E::from_score(sc.mismatch + bias));
        let hit = E::from_score(sc.match_score + bias);
        for (&q, &at) in query.iter().zip(&col[1..]) {
            let r = row_of[q as usize];
            if r != u8::MAX {
                profile[r as usize * stride + at as usize] = hit;
            }
        }

        let h = aligned(&mut b.h, (n + 1) * stride);
        let f = aligned(&mut b.f, stride);
        // The two things the kernel reads before it writes them.
        h[..stride].fill(E::default());
        f.fill(E::default());

        let pens = (E::penalty(-sc.gap_open as u64), E::penalty(-sc.gap_extend as u64));
        let bias = E::from_score(bias);
        // SAFETY: the `#[target_feature]` each wrapper enables was
        // detected by the caller (SSE2 is part of the x86-64 base ISA);
        // the buffer shapes the kernel relies on are exactly the ones
        // built here and are re-checked by its `debug_assert!`s.
        let (best, best_i) = unsafe {
            match width {
                Width::Avx2 => forward_avx2(reference, &row_of, profile, h, f, seg_len, pens, bias),
                Width::Sse2 => forward_sse2(reference, &row_of, profile, h, f, seg_len, pens, bias),
            }
        };
        // The scalar kernel's tie-break: first row reaching the best
        // score (tracked by the kernel), then its lowest column; (0, 0)
        // when nothing scored.
        let row = &h[best_i * stride..][..stride];
        let best_j =
            (1..=m).find(|&j| best > 0 && row[col[j] as usize].into() == best).unwrap_or(0);
        debug_assert!(best == 0 || best_j > 0, "best score {best} not found in row {best_i}");
        Some(HMatrix { h: E::cells(h), col, stride, best, best_i, best_j })
    }

    /// # Safety
    ///
    /// The CPU must support AVX2; see [`forward_vec`] for the buffers.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn forward_avx2<E: Cell>(
        reference: &[u8],
        row_of: &[u8; 256],
        profile: &[E],
        h: &mut [E],
        f: &mut [E],
        seg_len: usize,
        pens: (E, E),
        bias: E,
    ) -> (i32, usize) {
        // SAFETY: same contract as this function's.
        unsafe { forward_vec::<Avx2<E>>(reference, row_of, profile, h, f, seg_len, pens, bias) }
    }

    /// # Safety
    ///
    /// See [`forward_vec`] for the buffers (SSE2 is always present).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    unsafe fn forward_sse2<E: Cell>(
        reference: &[u8],
        row_of: &[u8; 256],
        profile: &[E],
        h: &mut [E],
        f: &mut [E],
        seg_len: usize,
        pens: (E, E),
        bias: E,
    ) -> (i32, usize) {
        // SAFETY: same contract as this function's.
        unsafe { forward_vec::<Sse2<E>>(reference, row_of, profile, h, f, seg_len, pens, bias) }
    }

    /// The vector operations the kernel needs, implemented for both
    /// widths and both cell types so one generic body serves all four.
    ///
    /// # Safety
    ///
    /// Every method requires that the CPU supports the implementing
    /// type's instruction set; the kernel only reaches them through a
    /// `#[target_feature]` wrapper called after runtime detection.
    /// `load`/`store` touch `LANES` elements of the slice starting at
    /// `at`; they `debug_assert!` that range and rely on the caller for
    /// it in release builds.
    trait SwVec: Copy {
        type Elem: Cell;
        const LANES: usize;
        unsafe fn splat(x: Self::Elem) -> Self;
        unsafe fn zero() -> Self;
        /// Requires `at + LANES <= s.len()`.
        unsafe fn load(s: &[Self::Elem], at: usize) -> Self;
        /// Requires `at + LANES <= s.len()`.
        unsafe fn store(s: &mut [Self::Elem], at: usize, v: Self);
        /// `max(0, diag + sub)` from a profile entry `prof = sub + bias`
        /// (8-bit cells: unsigned saturating add, then subtract `bias`;
        /// 16-bit: `bias` is 0 and the add is signed saturating).
        unsafe fn add_sub(diag: Self, prof: Self, bias: Self) -> Self;
        /// Unsigned saturating lane-wise subtract (clamps at 0).
        unsafe fn subs(a: Self, b: Self) -> Self;
        /// Lane-wise maximum of non-negative scores.
        unsafe fn max(a: Self, b: Self) -> Self;
        /// Whether any lane of `a` is greater than `b`'s (non-negative
        /// scores).
        unsafe fn any_gt(a: Self, b: Self) -> bool;
        /// Lanes per 128-bit half.
        const HALF: usize = 16 / std::mem::size_of::<Self::Elem>();
        /// Shifts whole lanes one toward higher indices, filling with
        /// zero.
        unsafe fn shift_lane_left(a: Self) -> Self;
        /// Shifts whole lanes toward higher indices within each 128-bit
        /// half, filling with zero; `lanes` is a power of two below
        /// [`Self::HALF`].
        unsafe fn shift_in_halves(a: Self, lanes: usize) -> Self;
        /// 256 bits: the last lane of the low half, broadcast and
        /// reduced by `ramp` (unsigned saturating); 128 bits: zero.
        unsafe fn from_low_half(a: Self, ramp: Self) -> Self;
        /// The maximum over all lanes.
        unsafe fn hmax(a: Self) -> i32;
    }

    /// The largest cell of a 128-bit vector: halve it three (16-bit
    /// cells) or four (8-bit) times, then read lane 0.
    ///
    /// # Safety
    ///
    /// Register-only SSE2 intrinsics (x86-64 base ISA).
    #[inline(always)]
    unsafe fn hmax128<E: Cell>(mut a: __m128i) -> i32 {
        if E::U8 {
            a = _mm_max_epu8(a, _mm_srli_si128::<8>(a));
            a = _mm_max_epu8(a, _mm_srli_si128::<4>(a));
            a = _mm_max_epu8(a, _mm_srli_si128::<2>(a));
            a = _mm_max_epu8(a, _mm_srli_si128::<1>(a));
            _mm_cvtsi128_si32(a) & 0xFF
        } else {
            a = _mm_max_epi16(a, _mm_srli_si128::<8>(a));
            a = _mm_max_epi16(a, _mm_srli_si128::<4>(a));
            a = _mm_max_epi16(a, _mm_srli_si128::<2>(a));
            _mm_cvtsi128_si32(a) as i16 as i32
        }
    }

    #[derive(Clone, Copy)]
    struct Sse2<E>(__m128i, PhantomData<E>);

    impl<E> Sse2<E> {
        #[inline(always)]
        fn v(x: __m128i) -> Self {
            Sse2(x, PhantomData)
        }
    }

    // SAFETY (every method): register-only SSE2 intrinsics, sound on
    // any x86-64 CPU; `load`/`store` access exactly the 16 bytes of
    // `s[at..at + LANES]`, inside the slice by the trait's precondition,
    // with the unaligned-tolerant instruction forms.
    impl<E: Cell> SwVec for Sse2<E> {
        type Elem = E;
        const LANES: usize = 16 / std::mem::size_of::<E>();

        #[inline(always)]
        unsafe fn splat(x: E) -> Self {
            let x: i32 = x.into();
            Self::v(if E::U8 { _mm_set1_epi8(x as u8 as i8) } else { _mm_set1_epi16(x as i16) })
        }

        #[inline(always)]
        unsafe fn zero() -> Self {
            Self::v(_mm_setzero_si128())
        }

        #[inline(always)]
        unsafe fn load(s: &[E], at: usize) -> Self {
            debug_assert!(at + Self::LANES <= s.len());
            Self::v(_mm_loadu_si128(s.as_ptr().add(at) as *const __m128i))
        }

        #[inline(always)]
        unsafe fn store(s: &mut [E], at: usize, v: Self) {
            debug_assert!(at + Self::LANES <= s.len());
            _mm_storeu_si128(s.as_mut_ptr().add(at) as *mut __m128i, v.0)
        }

        #[inline(always)]
        unsafe fn add_sub(diag: Self, prof: Self, bias: Self) -> Self {
            Self::v(if E::U8 {
                _mm_subs_epu8(_mm_adds_epu8(diag.0, prof.0), bias.0)
            } else {
                _mm_adds_epi16(diag.0, prof.0)
            })
        }

        #[inline(always)]
        unsafe fn subs(a: Self, b: Self) -> Self {
            Self::v(if E::U8 { _mm_subs_epu8(a.0, b.0) } else { _mm_subs_epu16(a.0, b.0) })
        }

        #[inline(always)]
        unsafe fn max(a: Self, b: Self) -> Self {
            Self::v(if E::U8 { _mm_max_epu8(a.0, b.0) } else { _mm_max_epi16(a.0, b.0) })
        }

        #[inline(always)]
        unsafe fn any_gt(a: Self, b: Self) -> bool {
            if E::U8 {
                // A lane of `a` above `b`'s leaves a non-zero difference.
                let d = _mm_subs_epu8(a.0, b.0);
                _mm_movemask_epi8(_mm_cmpeq_epi8(d, _mm_setzero_si128())) != 0xFFFF
            } else {
                _mm_movemask_epi8(_mm_cmpgt_epi16(a.0, b.0)) != 0
            }
        }

        #[inline(always)]
        unsafe fn shift_lane_left(a: Self) -> Self {
            Self::shift_in_halves(a, 1)
        }

        #[inline(always)]
        unsafe fn shift_in_halves(a: Self, lanes: usize) -> Self {
            Self::v(match lanes * std::mem::size_of::<E>() {
                1 => _mm_slli_si128::<1>(a.0),
                2 => _mm_slli_si128::<2>(a.0),
                4 => _mm_slli_si128::<4>(a.0),
                8 => _mm_slli_si128::<8>(a.0),
                _ => unreachable!("128-bit vectors shift by 1/2/4/8 bytes only"),
            })
        }

        #[inline(always)]
        unsafe fn from_low_half(_: Self, _: Self) -> Self {
            Self::zero()
        }

        #[inline(always)]
        unsafe fn hmax(a: Self) -> i32 {
            hmax128::<E>(a.0)
        }
    }

    #[derive(Clone, Copy)]
    struct Avx2<E>(__m256i, PhantomData<E>);

    impl<E> Avx2<E> {
        #[inline(always)]
        fn v(x: __m256i) -> Self {
            Avx2(x, PhantomData)
        }
    }

    // SAFETY (every method): register-only AVX2 intrinsics, sound once
    // AVX2 was detected (the trait's precondition); `load`/`store`
    // access exactly the 32 bytes of `s[at..at + LANES]`, inside the
    // slice by the trait's precondition, with the unaligned-tolerant
    // forms.
    impl<E: Cell> SwVec for Avx2<E> {
        type Elem = E;
        const LANES: usize = 32 / std::mem::size_of::<E>();

        #[inline(always)]
        unsafe fn splat(x: E) -> Self {
            let x: i32 = x.into();
            Self::v(if E::U8 {
                _mm256_set1_epi8(x as u8 as i8)
            } else {
                _mm256_set1_epi16(x as i16)
            })
        }

        #[inline(always)]
        unsafe fn zero() -> Self {
            Self::v(_mm256_setzero_si256())
        }

        #[inline(always)]
        unsafe fn load(s: &[E], at: usize) -> Self {
            debug_assert!(at + Self::LANES <= s.len());
            Self::v(_mm256_loadu_si256(s.as_ptr().add(at) as *const __m256i))
        }

        #[inline(always)]
        unsafe fn store(s: &mut [E], at: usize, v: Self) {
            debug_assert!(at + Self::LANES <= s.len());
            _mm256_storeu_si256(s.as_mut_ptr().add(at) as *mut __m256i, v.0)
        }

        #[inline(always)]
        unsafe fn add_sub(diag: Self, prof: Self, bias: Self) -> Self {
            Self::v(if E::U8 {
                _mm256_subs_epu8(_mm256_adds_epu8(diag.0, prof.0), bias.0)
            } else {
                _mm256_adds_epi16(diag.0, prof.0)
            })
        }

        #[inline(always)]
        unsafe fn subs(a: Self, b: Self) -> Self {
            Self::v(if E::U8 { _mm256_subs_epu8(a.0, b.0) } else { _mm256_subs_epu16(a.0, b.0) })
        }

        #[inline(always)]
        unsafe fn max(a: Self, b: Self) -> Self {
            Self::v(if E::U8 { _mm256_max_epu8(a.0, b.0) } else { _mm256_max_epi16(a.0, b.0) })
        }

        #[inline(always)]
        unsafe fn any_gt(a: Self, b: Self) -> bool {
            if E::U8 {
                // A lane of `a` above `b`'s leaves a non-zero difference.
                let d = _mm256_subs_epu8(a.0, b.0);
                _mm256_testz_si256(d, d) == 0
            } else {
                _mm256_movemask_epi8(_mm256_cmpgt_epi16(a.0, b.0)) != 0
            }
        }

        #[inline(always)]
        unsafe fn shift_lane_left(a: Self) -> Self {
            // A 256-bit shift crossing the 128-bit boundary: build
            // `t = [0, a_low]`, then align so the lane leaving the low
            // half enters the high half.
            let t = _mm256_permute2x128_si256::<0x08>(a.0, a.0);
            Self::v(if E::U8 {
                _mm256_alignr_epi8::<15>(a.0, t)
            } else {
                _mm256_alignr_epi8::<14>(a.0, t)
            })
        }

        #[inline(always)]
        unsafe fn shift_in_halves(a: Self, lanes: usize) -> Self {
            Self::v(match lanes * std::mem::size_of::<E>() {
                1 => _mm256_slli_si256::<1>(a.0),
                2 => _mm256_slli_si256::<2>(a.0),
                4 => _mm256_slli_si256::<4>(a.0),
                8 => _mm256_slli_si256::<8>(a.0),
                _ => unreachable!("128-bit halves shift by 1/2/4/8 bytes only"),
            })
        }

        #[inline(always)]
        unsafe fn from_low_half(a: Self, ramp: Self) -> Self {
            // Both halves = the low half, then every lane = its last.
            let low = _mm256_permute2x128_si256::<0x00>(a.0, a.0);
            let last = if E::U8 { _mm256_set1_epi8(15) } else { _mm256_set1_epi16(0x0F0E) };
            Self::subs(Self::v(_mm256_shuffle_epi8(low, last)), ramp)
        }

        #[inline(always)]
        unsafe fn hmax(a: Self) -> i32 {
            let (lo, hi) = (_mm256_castsi256_si128(a.0), _mm256_extracti128_si256::<1>(a.0));
            hmax128::<E>(if E::U8 { _mm_max_epu8(lo, hi) } else { _mm_max_epi16(lo, hi) })
        }
    }

    /// The width- and cell-generic forward pass; inlined into the
    /// `#[target_feature]` wrappers so each gets fully vectorized
    /// codegen for its ISA. Fills rows `1..=n` of `h` and returns the
    /// best score with the first row that reaches it.
    ///
    /// `pens` is `(open, extend)` as non-negative magnitudes (clamped by
    /// [`Cell::penalty`]); `bias` is what the profile was raised by.
    ///
    /// # Safety
    ///
    /// The CPU must support `V`'s instruction set. With
    /// `stride = seg_len * V::LANES`: `h` holds `reference.len() + 1`
    /// rows of `stride` with row 0 zeroed, `f` holds `stride` zeros,
    /// and `profile` holds a row of `stride` scores at `row_of[c]` for
    /// every byte `c` of `reference`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn forward_vec<V: SwVec>(
        reference: &[u8],
        row_of: &[u8; 256],
        profile: &[V::Elem],
        h: &mut [V::Elem],
        f: &mut [V::Elem],
        seg_len: usize,
        pens: (V::Elem, V::Elem),
        bias: V::Elem,
    ) -> (i32, usize) {
        let lanes = V::LANES;
        let stride = seg_len * lanes;
        let zero = V::Elem::default();
        debug_assert!(seg_len > 0);
        debug_assert_eq!(h.len(), (reference.len() + 1) * stride);
        debug_assert_eq!(f.len(), stride);
        debug_assert!(h[..stride].iter().chain(f.iter()).all(|&x| x == zero));
        debug_assert!(reference
            .iter()
            .all(|&c| (row_of[c as usize] as usize + 1) * stride <= profile.len()));

        let vopen = V::splat(pens.0);
        let vext = V::splat(pens.1);
        let vbias = V::splat(bias);
        // A gap crossing `d` whole lanes decays by `d * seg_len * ext`.
        let ext: i32 = pens.1.into();
        let lane_decay =
            |d: usize| V::splat(V::Elem::penalty(d as u64 * seg_len as u64 * (ext as u16) as u64));
        let vd = [lane_decay(1), lane_decay(2), lane_decay(4), lane_decay(8)];
        // What the low half's last lane carries into each lane of the
        // high half: decayed by the lanes crossed, nothing to the low
        // half itself.
        let mut ramp = [V::Elem::penalty(u64::MAX); 32];
        for (h, r) in ramp[V::HALF..lanes].iter_mut().enumerate() {
            *r = V::Elem::penalty(h as u64 * seg_len as u64 * (ext as u16) as u64);
        }
        let vramp = V::load(&ramp, 0);
        let vzero = V::zero();

        let mut best = 0i32;
        let mut best_i = 0usize;
        let mut vbest = vzero;
        // The previous row's last segment, as stored.
        let mut vlast = vzero;
        for (i, &rc) in reference.iter().enumerate() {
            let i = i + 1;
            let prof = &profile[row_of[rc as usize] as usize * stride..][..stride];
            let (prev_rows, cur_rows) = h.split_at_mut(i * stride);
            let prev = &prev_rows[(i - 1) * stride..];
            let cur = &mut cur_rows[..stride];

            // Step 1. Column j-1 of segment 0 is the last segment one
            // lane down; lane 0 gets the zero of column 0. Both gaps
            // open from `vt`, the score without this row's horizontal
            // gap (exact, see the module docs), which keeps `ve`'s
            // loop-carried chain to a subtract and a max.
            let mut vdiag = V::shift_lane_left(vlast);
            let mut ve = vzero;
            let mut vrow = vzero;
            for at in (0..stride).step_by(lanes) {
                let vf = V::load(f, at);
                let vt = V::max(V::add_sub(vdiag, V::load(prof, at), vbias), vf);
                vdiag = V::load(prev, at);
                vlast = V::max(vt, ve);
                V::store(cur, at, vlast);
                // A gap-derived score never exceeds the cell the gap
                // left, so the row's maximum is among the `vt`.
                vrow = V::max(vrow, vt);
                let vo = V::subs(vt, vopen);
                V::store(f, at, V::max(V::subs(vf, vext), vo));
                ve = V::max(V::subs(ve, vext), vo);
            }

            // Step 2. `ve` is the gap leaving each lane's run; lane l
            // receives the best of lanes < l, decayed by the lanes it
            // crossed. A prefix maximum inside each 128-bit half (lane-
            // crossing shifts cost three times as much), then the low
            // half's total enters the high half, then each lane takes
            // its left neighbour's.
            if V::any_gt(ve, vzero) {
                let mut vp = ve;
                vp = V::max(vp, V::subs(V::shift_in_halves(vp, 1), vd[0]));
                vp = V::max(vp, V::subs(V::shift_in_halves(vp, 2), vd[1]));
                vp = V::max(vp, V::subs(V::shift_in_halves(vp, 4), vd[2]));
                if V::HALF > 8 {
                    vp = V::max(vp, V::subs(V::shift_in_halves(vp, 8), vd[3]));
                }
                let mut vc = V::max(V::shift_in_halves(vp, 1), V::from_low_half(vp, vramp));
                // Step 3.
                for at in (0..stride).step_by(lanes) {
                    vlast = V::max(V::load(cur, at), vc);
                    V::store(cur, at, vlast);
                    vc = V::subs(vc, vext);
                }
            }

            // First row to beat the best so far (strictly) wins.
            if V::any_gt(vrow, vbest) {
                let rowmax = V::hmax(vrow);
                best = rowmax;
                best_i = i;
                vbest = V::splat(V::Elem::from_score(rowmax));
            }
        }
        (best, best_i)
    }
}
