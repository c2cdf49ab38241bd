//! Striped SIMD forward pass for Smith-Waterman (x86-64 SSE2/AVX2).
//!
//! Computes the full affine-gap `H` matrix of [`crate::sw`]'s scalar
//! kernel, 8 (SSE2) or 16 (AVX2) query columns per instruction, and
//! hands it with the best-cell position to the shared traceback in
//! `sw.rs`, which emits a CIGAR byte-identical to the scalar kernel's.
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
//!    to enter the next lane: a weighted prefix maximum across lanes
//!    (`log2(lanes)` shift-subtract-max steps per **row**, where the
//!    previous kernel paid them per 16 columns and Farrar's lazy-F loop
//!    would iterate once per lane a gap crosses — a score-200 cell
//!    bleeds `E > 0` across ~95 columns at extend = 2);
//! 3. if any lane receives a live carry, one more pass folds it in.
//!
//! Scores are kept as non-negative `i16` with unsigned-saturating
//! subtraction for the gap penalties: a gap candidate `<= 0` clamps to
//! 0 and drops out, since it can never change an `H >= 0`.
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
//! per-thread scratch that is reused across calls. The kernel reads
//! before writing only row 0 of the matrix and the `F` row; both are
//! re-zeroed on every call, and every other row is fully written by
//! step 1 before anything reads it. Columns past the query (pad lanes)
//! depend on real columns but never feed one, and never exceed the best
//! real cell seen so far (their profile score and every penalty are
//! `<= 0`), so they need no masking.

use std::cell::RefCell;

use crate::sw::Scoring;

/// The completed score matrix of a forward pass: `n + 1` rows (row 0 is
/// the all-zero boundary) of `stride` striped scores; column 0 is
/// implicit.
pub(crate) struct HMatrix<'a> {
    /// `(n + 1) * stride` scores; every stored value is `>= 0`.
    h: &'a [i16],
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
    /// `H[i][j]` for `0 <= i <= n`, `0 <= j <= m`.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> i32 {
        if j == 0 {
            0
        } else {
            self.h[i * self.stride + self.col[j] as usize] as i32
        }
    }
}

/// The vector width a forward pass runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Width {
    /// 8 × i16 (x86-64 base ISA).
    Sse2,
    /// 16 × i16.
    Avx2,
}

/// Per-thread buffers reused across forward passes.
#[derive(Default)]
struct Scratch {
    h: Vec<i16>,
    f: Vec<i16>,
    profile: Vec<i16>,
    col: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Matrix elements a thread keeps between calls (1 MB); a larger one is
/// freed after use.
const RETAIN: usize = 1 << 19;

/// Runs the vectorized forward pass and calls `f` on the matrix, or
/// returns `None` when the inputs fall outside the exactness/overflow
/// guards, or `width` (default: the widest the CPU has) is unavailable,
/// or off x86-64 entirely.
pub(crate) fn with_matrix<R>(
    reference: &[u8],
    query: &[u8],
    sc: &Scoring,
    width: Option<Width>,
    f: impl FnOnce(&HMatrix<'_>) -> R,
) -> Option<R> {
    #[cfg(target_arch = "x86_64")]
    {
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            let out = x86::forward(reference, query, sc, width, s).map(|hm| f(&hm));
            if s.h.capacity() > RETAIN {
                s.h = Vec::new();
            }
            out
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (reference, query, sc, width, f, &SCRATCH);
        None
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{HMatrix, Scratch, Width};
    use crate::sw::Scoring;
    use std::arch::x86_64::*;

    /// `len` elements of `buf` starting on a 32-byte boundary, so no
    /// vector access splits a cache line. Grows `buf`, never shrinks
    /// it; the contents are whatever the last call left.
    fn aligned(buf: &mut Vec<i16>, len: usize) -> &mut [i16] {
        if buf.len() < len + 16 {
            buf.resize(len + 16, 0);
        }
        let off = buf.as_ptr().align_offset(32);
        let off = if off < 16 { off } else { 0 };
        &mut buf[off..off + len]
    }

    pub(super) fn forward<'a>(
        reference: &[u8],
        query: &[u8],
        sc: &Scoring,
        width: Option<Width>,
        s: &'a mut Scratch,
    ) -> Option<HMatrix<'a>> {
        let n = reference.len();
        let m = query.len();
        if n == 0 || m == 0 {
            return None;
        }
        // Keep the dense i16 matrix small; callers only run SW on
        // windows of a few hundred bases.
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
        if (n.min(m) as i64) * (sc.match_score as i64) > 16_000 {
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
        let lanes = match width {
            Width::Sse2 => Sse2::LANES,
            Width::Avx2 => Avx2::LANES,
        };
        let seg_len = m.div_ceil(lanes);
        let stride = seg_len * lanes;

        let Scratch { h, f, profile, col } = s;
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
        let profile = aligned(profile, rows * stride);
        for (c, &r) in row_of.iter().enumerate().filter(|(_, &r)| r != u8::MAX) {
            let row = &mut profile[r as usize * stride..][..stride];
            // Pad lanes keep a score <= 0 (see the module docs).
            row.fill(sc.mismatch as i16);
            let (mut seg, mut lane) = (0, 0);
            for &q in query {
                if q as usize == c {
                    row[seg * lanes + lane] = sc.match_score as i16;
                }
                seg += 1;
                if seg == seg_len {
                    (seg, lane) = (0, lane + 1);
                }
            }
        }
        col.clear();
        col.push(0); // Column 0 is implicit; `HMatrix::at` never reads this.
        for lane in 0..lanes {
            col.extend((0..seg_len).map(|seg| (seg * lanes + lane) as u32));
        }
        col.truncate(m + 1);

        let h = aligned(h, (n + 1) * stride);
        let f = aligned(f, stride);
        // The two things the kernel reads before it writes them.
        h[..stride].fill(0);
        f.fill(0);

        let pens = (-sc.gap_open as i16, -sc.gap_extend as i16);
        // SAFETY: the `#[target_feature]` each wrapper enables was
        // detected above (SSE2 is part of the x86-64 base ISA); the
        // buffer shapes the kernel relies on are exactly the ones
        // built here and are re-checked by its `debug_assert!`s.
        let (best, best_i) = unsafe {
            match width {
                Width::Avx2 => forward_avx2(reference, &row_of, profile, h, f, seg_len, pens),
                Width::Sse2 => forward_sse2(reference, &row_of, profile, h, f, seg_len, pens),
            }
        };
        // The scalar kernel's tie-break: first row reaching the best
        // score (tracked by the kernel), then its lowest column; (0, 0)
        // when nothing scored.
        let row = &h[best_i * stride..][..stride];
        let best_j =
            (1..=m).find(|&j| best > 0 && row[col[j] as usize] as i32 == best).unwrap_or(0);
        debug_assert!(best == 0 || best_j > 0, "best score {best} not found in row {best_i}");
        Some(HMatrix { h, col, stride, best, best_i, best_j })
    }

    /// # Safety
    ///
    /// The CPU must support AVX2; see [`forward_vec`] for the buffers.
    #[target_feature(enable = "avx2")]
    unsafe fn forward_avx2(
        reference: &[u8],
        row_of: &[u8; 256],
        profile: &[i16],
        h: &mut [i16],
        f: &mut [i16],
        seg_len: usize,
        pens: (i16, i16),
    ) -> (i32, usize) {
        // SAFETY: same contract as this function's.
        unsafe { forward_vec::<Avx2>(reference, row_of, profile, h, f, seg_len, pens) }
    }

    /// # Safety
    ///
    /// See [`forward_vec`] for the buffers (SSE2 is always present).
    #[target_feature(enable = "sse2")]
    unsafe fn forward_sse2(
        reference: &[u8],
        row_of: &[u8; 256],
        profile: &[i16],
        h: &mut [i16],
        f: &mut [i16],
        seg_len: usize,
        pens: (i16, i16),
    ) -> (i32, usize) {
        // SAFETY: same contract as this function's.
        unsafe { forward_vec::<Sse2>(reference, row_of, profile, h, f, seg_len, pens) }
    }

    /// The i16 vector operations the kernel needs, implemented for both
    /// widths so one generic body serves SSE2 and AVX2.
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
        const LANES: usize;
        unsafe fn splat(x: i16) -> Self;
        unsafe fn zero() -> Self;
        /// Requires `at + LANES <= s.len()`.
        unsafe fn load(s: &[i16], at: usize) -> Self;
        /// Requires `at + LANES <= s.len()`.
        unsafe fn store(s: &mut [i16], at: usize, v: Self);
        /// Signed saturating lane-wise add.
        unsafe fn adds(a: Self, b: Self) -> Self;
        /// Unsigned saturating lane-wise subtract (clamps at 0).
        unsafe fn subs(a: Self, b: Self) -> Self;
        /// Signed lane-wise maximum.
        unsafe fn max(a: Self, b: Self) -> Self;
        /// Whether any lane of `a` is (signed) greater than `b`'s.
        unsafe fn any_gt(a: Self, b: Self) -> bool;
        /// Shifts whole lanes toward higher indices, filling with zero.
        /// `lanes` is a power of two below `LANES`.
        unsafe fn shift_lanes_left(a: Self, lanes: usize) -> Self;
        /// The (signed) maximum over all lanes.
        unsafe fn hmax(a: Self) -> i16;
    }

    #[derive(Clone, Copy)]
    struct Sse2(__m128i);

    // SAFETY (every method): register-only SSE2 intrinsics, sound on
    // any x86-64 CPU; `load`/`store` access exactly the 8 elements
    // `s[at..at + 8]`, inside the slice by the trait's precondition,
    // with the unaligned-tolerant instruction forms.
    impl SwVec for Sse2 {
        const LANES: usize = 8;

        #[inline(always)]
        unsafe fn splat(x: i16) -> Self {
            Sse2(_mm_set1_epi16(x))
        }

        #[inline(always)]
        unsafe fn zero() -> Self {
            Sse2(_mm_setzero_si128())
        }

        #[inline(always)]
        unsafe fn load(s: &[i16], at: usize) -> Self {
            debug_assert!(at + Self::LANES <= s.len());
            Sse2(_mm_loadu_si128(s.as_ptr().add(at) as *const __m128i))
        }

        #[inline(always)]
        unsafe fn store(s: &mut [i16], at: usize, v: Self) {
            debug_assert!(at + Self::LANES <= s.len());
            _mm_storeu_si128(s.as_mut_ptr().add(at) as *mut __m128i, v.0)
        }

        #[inline(always)]
        unsafe fn adds(a: Self, b: Self) -> Self {
            Sse2(_mm_adds_epi16(a.0, b.0))
        }

        #[inline(always)]
        unsafe fn subs(a: Self, b: Self) -> Self {
            Sse2(_mm_subs_epu16(a.0, b.0))
        }

        #[inline(always)]
        unsafe fn max(a: Self, b: Self) -> Self {
            Sse2(_mm_max_epi16(a.0, b.0))
        }

        #[inline(always)]
        unsafe fn any_gt(a: Self, b: Self) -> bool {
            _mm_movemask_epi8(_mm_cmpgt_epi16(a.0, b.0)) != 0
        }

        #[inline(always)]
        unsafe fn shift_lanes_left(a: Self, lanes: usize) -> Self {
            match lanes {
                1 => Sse2(_mm_slli_si128::<2>(a.0)),
                2 => Sse2(_mm_slli_si128::<4>(a.0)),
                4 => Sse2(_mm_slli_si128::<8>(a.0)),
                _ => unreachable!("8-lane vector shifts by 1/2/4 only"),
            }
        }

        #[inline(always)]
        unsafe fn hmax(a: Self) -> i16 {
            let mut out = [0i16; 8];
            _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, a.0);
            out.into_iter().max().unwrap_or(0)
        }
    }

    #[derive(Clone, Copy)]
    struct Avx2(__m256i);

    // SAFETY (every method): register-only AVX2 intrinsics, sound once
    // AVX2 was detected (the trait's precondition); `load`/`store`
    // access exactly the 16 elements `s[at..at + 16]`, inside the slice
    // by the trait's precondition, with the unaligned-tolerant forms.
    impl SwVec for Avx2 {
        const LANES: usize = 16;

        #[inline(always)]
        unsafe fn splat(x: i16) -> Self {
            Avx2(_mm256_set1_epi16(x))
        }

        #[inline(always)]
        unsafe fn zero() -> Self {
            Avx2(_mm256_setzero_si256())
        }

        #[inline(always)]
        unsafe fn load(s: &[i16], at: usize) -> Self {
            debug_assert!(at + Self::LANES <= s.len());
            Avx2(_mm256_loadu_si256(s.as_ptr().add(at) as *const __m256i))
        }

        #[inline(always)]
        unsafe fn store(s: &mut [i16], at: usize, v: Self) {
            debug_assert!(at + Self::LANES <= s.len());
            _mm256_storeu_si256(s.as_mut_ptr().add(at) as *mut __m256i, v.0)
        }

        #[inline(always)]
        unsafe fn adds(a: Self, b: Self) -> Self {
            Avx2(_mm256_adds_epi16(a.0, b.0))
        }

        #[inline(always)]
        unsafe fn subs(a: Self, b: Self) -> Self {
            Avx2(_mm256_subs_epu16(a.0, b.0))
        }

        #[inline(always)]
        unsafe fn max(a: Self, b: Self) -> Self {
            Avx2(_mm256_max_epi16(a.0, b.0))
        }

        #[inline(always)]
        unsafe fn any_gt(a: Self, b: Self) -> bool {
            _mm256_movemask_epi8(_mm256_cmpgt_epi16(a.0, b.0)) != 0
        }

        #[inline(always)]
        unsafe fn shift_lanes_left(a: Self, lanes: usize) -> Self {
            // A 256-bit byte shift crossing the 128-bit boundary: build
            // `t = [0, a_low]`, then align so the bytes leaving the low
            // half enter the high half.
            let t = _mm256_permute2x128_si256::<0x08>(a.0, a.0);
            match lanes {
                1 => Avx2(_mm256_alignr_epi8::<14>(a.0, t)),
                2 => Avx2(_mm256_alignr_epi8::<12>(a.0, t)),
                4 => Avx2(_mm256_alignr_epi8::<8>(a.0, t)),
                8 => Avx2(t),
                _ => unreachable!("16-lane vector shifts by 1/2/4/8 only"),
            }
        }

        #[inline(always)]
        unsafe fn hmax(a: Self) -> i16 {
            let mut out = [0i16; 16];
            _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, a.0);
            out.into_iter().max().unwrap_or(0)
        }
    }

    /// The width-generic forward pass; inlined into the
    /// `#[target_feature]` wrappers so each gets fully vectorized
    /// codegen for its ISA. Fills rows `1..=n` of `h` and returns the
    /// best score with the first row that reaches it.
    ///
    /// `pens` is `(open, extend)` as non-negative magnitudes.
    ///
    /// # Safety
    ///
    /// The CPU must support `V`'s instruction set. With
    /// `stride = seg_len * V::LANES`: `h` holds `reference.len() + 1`
    /// rows of `stride` with row 0 zeroed, `f` holds `stride` zeros,
    /// and `profile` holds a row of `stride` scores at `row_of[c]` for
    /// every byte `c` of `reference`.
    #[inline(always)]
    unsafe fn forward_vec<V: SwVec>(
        reference: &[u8],
        row_of: &[u8; 256],
        profile: &[i16],
        h: &mut [i16],
        f: &mut [i16],
        seg_len: usize,
        pens: (i16, i16),
    ) -> (i32, usize) {
        let lanes = V::LANES;
        let stride = seg_len * lanes;
        debug_assert!(seg_len > 0);
        debug_assert_eq!(h.len(), (reference.len() + 1) * stride);
        debug_assert_eq!(f.len(), stride);
        debug_assert!(h[..stride].iter().chain(f.iter()).all(|&x| x == 0));
        debug_assert!(reference
            .iter()
            .all(|&c| (row_of[c as usize] as usize + 1) * stride <= profile.len()));

        let vopen = V::splat(pens.0);
        let vext = V::splat(pens.1);
        // A gap crossing `d` whole lanes decays by `d * seg_len * ext`
        // (as u16: anything >= 2^15 clamps every score to 0 anyway).
        let lane_decay = |d: usize| {
            V::splat((d as u64 * seg_len as u64 * pens.1 as u64).min(u16::MAX as u64) as u16 as i16)
        };
        let (vd1, vd2, vd4, vd8) = (lane_decay(1), lane_decay(2), lane_decay(4), lane_decay(8));
        let vzero = V::zero();

        let mut best = 0i32;
        let mut best_i = 0usize;
        let mut vbest = vzero;
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
            let mut vdiag = V::shift_lanes_left(V::load(prev, stride - lanes), 1);
            let mut ve = vzero;
            let mut vrow = vzero;
            for at in (0..stride).step_by(lanes) {
                let vf = V::load(f, at);
                let vt = V::max(V::adds(vdiag, V::load(prof, at)), vf);
                vdiag = V::load(prev, at);
                V::store(cur, at, V::max(vt, ve));
                // A gap-derived score never exceeds the cell the gap
                // left, so the row's maximum is among the `vt`.
                vrow = V::max(vrow, vt);
                let vo = V::subs(vt, vopen);
                V::store(f, at, V::max(V::subs(vf, vext), vo));
                ve = V::max(V::subs(ve, vext), vo);
            }

            // Step 2. `ve` is the gap leaving each lane's run; lane l
            // receives the best of lanes < l, decayed by the lanes it
            // crossed.
            if V::any_gt(ve, vzero) {
                let mut vc = V::shift_lanes_left(ve, 1);
                vc = V::max(vc, V::subs(V::shift_lanes_left(vc, 1), vd1));
                vc = V::max(vc, V::subs(V::shift_lanes_left(vc, 2), vd2));
                vc = V::max(vc, V::subs(V::shift_lanes_left(vc, 4), vd4));
                if lanes == 16 {
                    vc = V::max(vc, V::subs(V::shift_lanes_left(vc, 8), vd8));
                }
                // Step 3.
                for at in (0..stride).step_by(lanes) {
                    V::store(cur, at, V::max(V::load(cur, at), vc));
                    vc = V::subs(vc, vext);
                }
            }

            // First row to beat the best so far (strictly) wins.
            if V::any_gt(vrow, vbest) {
                let rowmax = V::hmax(vrow);
                best = rowmax as i32;
                best_i = i;
                vbest = V::splat(rowmax);
            }
        }
        (best, best_i)
    }
}
