//! Smith-Waterman local alignment with affine gap penalties and
//! traceback, plus a banded global variant used to produce CIGARs.
//!
//! Scoring defaults follow BWA-MEM: match +1, mismatch -4, gap open -6,
//! gap extend -1 (scaled ×2 for a little headroom).
//!
//! Two implementations share the contract: the scalar dense-matrix
//! kernel ([`smith_waterman_scalar`]) and a striped SSE2/AVX2 forward
//! pass ([`smith_waterman_striped`], engine in `sw_simd`) whose `H`
//! matrix is provably identical to the scalar one; its traceback reads
//! the scalar kernel's direction tags back off that matrix, one path
//! step at a time, so score, aligned regions and CIGAR match byte for
//! byte. [`smith_waterman`] routes between them via [`crate::Kernel`],
//! after [`smith_waterman_ungapped`] has had the chance to prove the
//! optimum one ungapped run and return it without posing the DP.

use std::cell::RefCell;

use persona_agd::results::{CigarKind, CigarOp};

/// Alignment scoring parameters.
#[derive(Debug, Clone, Copy)]
pub struct Scoring {
    /// Score for a matching base (positive).
    pub match_score: i32,
    /// Penalty for a mismatch (negative).
    pub mismatch: i32,
    /// Penalty to open a gap (negative, charged on the first gap base).
    pub gap_open: i32,
    /// Penalty to extend a gap by one base (negative).
    pub gap_extend: i32,
}

impl Default for Scoring {
    fn default() -> Self {
        Scoring { match_score: 2, mismatch: -8, gap_open: -12, gap_extend: -2 }
    }
}

/// The outcome of a local alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalAlignment {
    /// Optimal local score.
    pub score: i32,
    /// Start of the aligned region in the reference (inclusive).
    pub ref_start: usize,
    /// End in the reference (exclusive).
    pub ref_end: usize,
    /// Start of the aligned region in the query (inclusive).
    pub query_start: usize,
    /// End in the query (exclusive).
    pub query_end: usize,
    /// CIGAR of the aligned region (M/I/D only; soft clips added by
    /// [`LocalAlignment::cigar_with_clips`]).
    pub cigar: Vec<CigarOp>,
}

impl LocalAlignment {
    /// Full-read CIGAR: soft-clips the unaligned query head and tail.
    pub fn cigar_with_clips(&self, query_len: usize) -> Vec<CigarOp> {
        let mut out = Vec::with_capacity(self.cigar.len() + 2);
        if self.query_start > 0 {
            out.push(CigarOp { kind: CigarKind::SoftClip, len: self.query_start as u32 });
        }
        out.extend_from_slice(&self.cigar);
        if self.query_end < query_len {
            out.push(CigarOp {
                kind: CigarKind::SoftClip,
                len: (query_len - self.query_end) as u32,
            });
        }
        out
    }
}

/// Direction tags of the scalar kernel's traceback matrix.
#[derive(Clone, Copy, PartialEq)]
enum Tb {
    Stop,
    Diag,
    Up,   // Gap in reference (insertion to ref: consumes query).
    Left, // Gap in query (deletion from query view: consumes reference).
}

/// Full Smith-Waterman with affine gaps and traceback.
///
/// O(n·m) time and memory for the score matrix, traceback proportional
/// to the alignment path — used for short sequences (read-length
/// extensions); the paper's aligners never run SW on more than a few
/// hundred bases at a time.
///
/// First asks [`smith_waterman_ungapped`] whether the optimum is
/// provably one ungapped run; only when it cannot say is the DP posed.
/// That runs on [`crate::Kernel::active`]: the SIMD variant handles
/// typical read-vs-window inputs and falls back to the scalar kernel
/// outside its guard envelope, so results are identical either way.
pub fn smith_waterman(reference: &[u8], query: &[u8], sc: Scoring) -> LocalAlignment {
    if let Some(a) = smith_waterman_ungapped(reference, query, sc) {
        return a;
    }
    if crate::Kernel::active() == crate::Kernel::Simd {
        if let Some(a) = smith_waterman_striped(reference, query, sc) {
            return a;
        }
    }
    smith_waterman_scalar(reference, query, sc)
}

/// [`smith_waterman`] without the DP, when the optimum is provably
/// ungapped: the result, when present, is [`smith_waterman_scalar`]'s.
///
/// Every alignment with a gap pairs at most `min(n, m)` bases and pays
/// `gap_open` at least once, so it scores at most
/// `bound = match·min(n, m) + gap_open`. When the best ungapped run on
/// any diagonal scores `S > bound`, `S` is the optimum, and every cell
/// of the DP matrix scoring `S` is the end of such a run whose
/// traceback is all diagonal steps (a gap step would make the path a
/// gapped one scoring `S`). The result is then rebuilt as the DP
/// returns it: the first cell scoring `S` in the scalar scan order
/// (lowest reference end, then lowest query end), starting after the
/// last cell whose running score fell to 0 or below, one `M` op.
///
/// Only diagonals with more than `bound / match` bases can beat the
/// bound; each is first filtered by counting mismatches 16 bases at a
/// time (stopping once too many are seen), and the running-max scan
/// runs only where `matches·match` still exceeds the bound.
///
/// Returns `None` when it cannot prove the optimum — the best run
/// scores at most `bound` (including score 0) — and for scorings
/// outside the argument: `match ≤ 0`, or a positive `mismatch`,
/// `gap_open` or `gap_extend`.
pub fn smith_waterman_ungapped(
    reference: &[u8],
    query: &[u8],
    sc: Scoring,
) -> Option<LocalAlignment> {
    if sc.match_score <= 0 || sc.mismatch > 0 || sc.gap_open > 0 || sc.gap_extend > 0 {
        return None;
    }
    let (n, m) = (reference.len(), query.len());
    let bound = i64::from(sc.match_score) * n.min(m) as i64 + i64::from(sc.gap_open);
    // Fewest matches scoring above the bound, so also the shortest
    // diagonal worth a look.
    let need = if bound < 0 { 1 } else { (bound / i64::from(sc.match_score)) as usize + 1 };
    if need > n.min(m) {
        return None;
    }
    // (score, reference end, query end, run length) of the best run.
    let mut best = (0i32, 0usize, 0usize, 0usize);
    // Diagonal `d = r - q` pairs reference base `r` with query base `q`;
    // it holds at least `need` pairs for `d` in `need - m ..= n - need`.
    for d in need as isize - m as isize..=(n - need) as isize {
        let (r0, q0) = if d >= 0 { (d as usize, 0) } else { (0, d.unsigned_abs()) };
        let len = (n - r0).min(m - q0);
        let (a, b) = (&reference[r0..r0 + len], &query[q0..q0 + len]);
        if !has_matches(a, b, need) {
            continue;
        }
        let (score, from, to) = best_run(a, b, sc);
        let (i, j) = (r0 + to, q0 + to);
        if score > best.0 || (score == best.0 && (i, j) < (best.1, best.2)) {
            best = (score, i, j, to - from);
        }
    }
    let (score, ref_end, query_end, len) = best;
    if score <= 0 || i64::from(score) <= bound {
        return None;
    }
    Some(LocalAlignment {
        score,
        ref_start: ref_end - len,
        ref_end,
        query_start: query_end - len,
        query_end,
        cigar: vec![CigarOp { kind: CigarKind::Match, len: len as u32 }],
    })
}

/// Whether `a` and `b` (equal lengths) agree in at least `need` places.
fn has_matches(a: &[u8], b: &[u8], need: usize) -> bool {
    let allowed = a.len() - need;
    let mut mismatches = 0usize;
    let (mut xs, mut ys) = (a.chunks_exact(16), b.chunks_exact(16));
    for (x, y) in (&mut xs).zip(&mut ys) {
        // A fixed-width block the compiler turns into a vector compare.
        mismatches += x.iter().zip(y).map(|(x, y)| (x != y) as u8).sum::<u8>() as usize;
        if mismatches > allowed {
            return false;
        }
    }
    mismatches += xs.remainder().iter().zip(ys.remainder()).filter(|(x, y)| x != y).count();
    mismatches <= allowed
}

/// The best ungapped local run of `a` against `b` as the scalar DP
/// scores one diagonal: `(score, start, end)` of its first maximum,
/// starting after the last running score `≤ 0`.
fn best_run(a: &[u8], b: &[u8], sc: Scoring) -> (i32, usize, usize) {
    let (mut run, mut from) = (0i32, 0usize);
    let mut best = (0i32, 0usize, 0usize);
    for (t, (x, y)) in a.iter().zip(b).enumerate() {
        run += if x == y { sc.match_score } else { sc.mismatch };
        if run <= 0 {
            run = 0;
            from = t + 1;
        } else if run > best.0 {
            best = (run, from, t + 1);
        }
    }
    best
}

/// Striped-SIMD [`smith_waterman`]: vectorized forward pass (SSE2 or
/// AVX2, picked at runtime) plus the shared traceback. Returns `None`
/// when SIMD is unavailable or the inputs fall outside the vector
/// kernel's exactness guards; the result, when present, is identical
/// to [`smith_waterman_scalar`]'s.
pub fn smith_waterman_striped(
    reference: &[u8],
    query: &[u8],
    sc: Scoring,
) -> Option<LocalAlignment> {
    crate::sw_simd::with_matrix(reference, query, &sc, None, false, |hm| {
        traceback_from_matrix(hm, reference, query, sc)
    })
}

/// Bench hook: one striped forward pass, then `reps` tracebacks of its
/// matrix (the last one returned), which is how the `kernels` bench
/// isolates the traceback's cost from the forward pass's.
#[doc(hidden)]
pub fn striped_traceback_repeated(
    reference: &[u8],
    query: &[u8],
    sc: Scoring,
    reps: usize,
) -> Option<LocalAlignment> {
    crate::sw_simd::with_matrix(reference, query, &sc, None, false, |hm| {
        let mut last = traceback_from_matrix(hm, reference, query, sc);
        for _ in 1..reps {
            last = std::hint::black_box(traceback_from_matrix(hm, reference, query, sc));
        }
        last
    })
}

/// Rebuilds the traceback from a completed score matrix, in time
/// proportional to the path (plus, per gap step, a scan bounded by the
/// gap or by the row).
///
/// The scalar kernel tags a cell `Diag` unless `E` or `F` strictly
/// beats the diagonal, so a cell whose score equals `diag + sub` is a
/// diagonal step without looking at `E`/`F` at all — every step of an
/// ungapped stretch. Only a cell that is *not* explained by its
/// diagonal is a gap step: `Left` if the horizontal gap
/// `E[i][j] = max_g H[i][j-g] + open + (g-1)·ext` (the closed form of
/// the scalar recurrence, the `j-g = 0` boundary contributing through
/// `H[i][0] = 0`) attains the score, else `Up` — the scalar precedence
/// (diagonal, then left, then up, stop at zero), so the emitted CIGAR
/// is the same.
fn traceback_from_matrix(
    hm: &crate::sw_simd::HMatrix<'_>,
    reference: &[u8],
    query: &[u8],
    sc: Scoring,
) -> LocalAlignment {
    // One traceback body per cell type, so no step branches on it.
    match hm.cells() {
        crate::sw_simd::Cells::U8(h) => {
            traceback_with(hm, |i, j| hm.cell(h, i, j), reference, query, sc)
        }
        crate::sw_simd::Cells::I16(h) => {
            traceback_with(hm, |i, j| hm.cell(h, i, j), reference, query, sc)
        }
    }
}

/// [`traceback_from_matrix`] with `at(i, j)` = `H[i][j]`.
fn traceback_with(
    hm: &crate::sw_simd::HMatrix<'_>,
    at: impl Fn(usize, usize) -> i32,
    reference: &[u8],
    query: &[u8],
    sc: Scoring,
) -> LocalAlignment {
    // Whether some `H[i][j-g] + open + (g-1)·ext` equals `h`. Inside a
    // horizontal gap the witness is the gap's own start, `g` columns
    // back; otherwise the scan ends once the score it would need
    // exceeds the matrix's best (needs `ext < 0`), or at column 0.
    let left_gap_scores = |i: usize, j: usize, h: i32| -> bool {
        let mut need = h - sc.gap_open;
        for g in 1..=j {
            if need > hm.best {
                return false;
            }
            if at(i, j - g) == need {
                return true;
            }
            need -= sc.gap_extend;
        }
        false
    };
    let (mut i, mut j) = (hm.best_i, hm.best_j);
    let (ref_end, query_end) = (i, j);
    let mut ops_rev: Vec<CigarOp> = Vec::new();
    let push = |kind: CigarKind, ops: &mut Vec<CigarOp>| {
        if let Some(last) = ops.last_mut() {
            if last.kind == kind {
                last.len += 1;
                return;
            }
        }
        ops.push(CigarOp { kind, len: 1 });
    };
    while i > 0 && j > 0 {
        let h = at(i, j);
        // A zero cell is exactly the scalar Tb::Stop tag.
        if h == 0 {
            break;
        }
        let sub = if reference[i - 1] == query[j - 1] { sc.match_score } else { sc.mismatch };
        if h == at(i - 1, j - 1) + sub {
            push(CigarKind::Match, &mut ops_rev);
            i -= 1;
            j -= 1;
        } else if left_gap_scores(i, j, h) {
            // Gap in reference direction: consumes query only (I).
            push(CigarKind::Ins, &mut ops_rev);
            j -= 1;
        } else {
            // Consumes reference only (D).
            push(CigarKind::Del, &mut ops_rev);
            i -= 1;
        }
    }
    ops_rev.reverse();
    LocalAlignment {
        score: hm.best,
        ref_start: i,
        ref_end,
        query_start: j,
        query_end,
        cigar: ops_rev,
    }
}

/// Scalar [`smith_waterman`]: the textbook dense-matrix kernel with
/// explicit traceback tags. This is the portable fallback and the
/// differential-testing reference for the striped variant.
pub fn smith_waterman_scalar(reference: &[u8], query: &[u8], sc: Scoring) -> LocalAlignment {
    let n = reference.len();
    let m = query.len();
    if n == 0 || m == 0 {
        return LocalAlignment {
            score: 0,
            ref_start: 0,
            ref_end: 0,
            query_start: 0,
            query_end: 0,
            cigar: Vec::new(),
        };
    }

    // H: best score ending at (i,j); E: gap-in-query (left), F: gap-in-ref (up).
    let w = m + 1;
    let mut h = vec![0i32; (n + 1) * w];
    let mut e = vec![i32::MIN / 2; (n + 1) * w];
    let mut f = vec![i32::MIN / 2; (n + 1) * w];
    let mut tb = vec![Tb::Stop; (n + 1) * w];

    let mut best = 0i32;
    let mut best_ij = (0usize, 0usize);
    for i in 1..=n {
        for j in 1..=m {
            let idx = i * w + j;
            e[idx] = (e[idx - 1] + sc.gap_extend).max(h[idx - 1] + sc.gap_open);
            f[idx] = (f[idx - w] + sc.gap_extend).max(h[idx - w] + sc.gap_open);
            let sub = if reference[i - 1] == query[j - 1] { sc.match_score } else { sc.mismatch };
            let diag = h[idx - w - 1] + sub;
            let mut val = diag;
            let mut dir = Tb::Diag;
            if e[idx] > val {
                val = e[idx];
                dir = Tb::Left;
            }
            if f[idx] > val {
                val = f[idx];
                dir = Tb::Up;
            }
            if val <= 0 {
                val = 0;
                dir = Tb::Stop;
            }
            h[idx] = val;
            tb[idx] = dir;
            if val > best {
                best = val;
                best_ij = (i, j);
            }
        }
    }

    // Traceback from the best cell.
    let (mut i, mut j) = best_ij;
    let (ref_end, query_end) = (i, j);
    let mut ops_rev: Vec<CigarOp> = Vec::new();
    let push = |kind: CigarKind, ops: &mut Vec<CigarOp>| {
        if let Some(last) = ops.last_mut() {
            if last.kind == kind {
                last.len += 1;
                return;
            }
        }
        ops.push(CigarOp { kind, len: 1 });
    };
    while i > 0 && j > 0 {
        match tb[i * w + j] {
            Tb::Stop => break,
            Tb::Diag => {
                push(CigarKind::Match, &mut ops_rev);
                i -= 1;
                j -= 1;
            }
            Tb::Left => {
                // Gap in reference direction: consumes query only (I).
                push(CigarKind::Ins, &mut ops_rev);
                j -= 1;
            }
            Tb::Up => {
                // Consumes reference only (D).
                push(CigarKind::Del, &mut ops_rev);
                i -= 1;
            }
        }
    }
    ops_rev.reverse();
    LocalAlignment { score: best, ref_start: i, ref_end, query_start: j, query_end, cigar: ops_rev }
}

/// Banded *global* alignment of `query` against a window of `reference`,
/// producing a CIGAR that consumes the entire query. Used by the
/// SNAP-style aligner to emit a CIGAR once a candidate location has been
/// verified (band width = max edits).
///
/// The unit-cost DP runs over diagonals `j - i` in `-band..=band`, two
/// rows at a time, with traceback tags on per-thread scratch: no
/// allocation but the returned CIGAR, and no branch per cell beyond the
/// min. Ties go diagonal, then up (insertion), then left (deletion), and
/// the alignment ends in the first cheapest column of the last row (the
/// text tail is free). A query that is an exact prefix of the window
/// returns `[n M]` at once: that is the all-diagonal path the DP takes.
///
/// Returns `None` if no alignment fits in the band.
pub fn banded_global_cigar(
    reference: &[u8],
    query: &[u8],
    band: usize,
) -> Option<(u32, Vec<CigarOp>)> {
    let n = query.len();
    if n == 0 {
        return Some((0, Vec::new()));
    }
    if reference.get(..n) == Some(query) {
        return Some((0, vec![CigarOp { kind: CigarKind::Match, len: n as u32 }]));
    }
    let b = band;
    let m = reference.len().min(n + b);
    // The last row's band `n-b..=n+b` starts past the window's end.
    if n > m + b {
        return None;
    }
    // Row `i`, text column `j` lives at index `k = j - i + b + 1` of a
    // row buffer: the band is `1..=w`, indices 0 and `w + 1` are pads.
    let w = 2 * b + 1;
    let stride = w + 2;
    BAND.with(|s| {
        let s = &mut *s.borrow_mut();
        s.rows.clear();
        s.rows.resize(2 * stride, BIG);
        if s.tb.len() < (n + 1) * stride {
            s.tb.resize((n + 1) * stride, 0);
        }
        let (mut prev, mut cur) = s.rows.split_at_mut(stride);
        // Row 0: the empty query against text prefix `j` costs `j`.
        for j in 0..=b.min(m) {
            prev[j + b + 1] = j as u32;
        }
        for i in 1..=n {
            let tb = &mut s.tb[i * stride..(i + 1) * stride];
            let jhi = (i + b).min(m);
            let mut jlo = i.saturating_sub(b);
            if jlo == 0 {
                // Column 0 is reachable only from above; the cell left
                // of it (text column -1) must read as unreachable for
                // this row's neighbour and the next row's diagonal.
                let k = b + 1 - i;
                cur[k - 1] = BIG;
                cur[k] = prev[k + 1] + 1;
                tb[k] = UP;
                jlo = 1;
            }
            // Columns `jlo..=jhi`: diagonal and up come from the row
            // above, left is the cell just computed, carried in a
            // register so the row's only serial chain is add-compare-
            // select.
            let (k0, cells) = (jlo + b + 1 - i, (jhi + 1).saturating_sub(jlo));
            let text = &reference[jlo - 1..jlo - 1 + cells];
            let above = &prev[k0..=k0 + cells];
            let mut left = cur[k0 - 1];
            let (out, tags) = (&mut cur[k0..k0 + cells], &mut tb[k0..k0 + cells]);
            let q = query[i - 1];
            for t in 0..cells {
                let diag = above[t] + (q != text[t]) as u32;
                let up = above[t + 1] + 1;
                let near = diag.min(up);
                // DIAG | UP == UP and (DIAG or UP) | LEFT == LEFT: the
                // tag is the precedence winner without a branch.
                tags[t] = (DIAG + (up < diag) as u8) | (LEFT * (left + 1 < near) as u8);
                left = near.min(left + 1);
                out[t] = left;
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        // `prev` is row `n`: the first cheapest end column.
        let (klo, khi) = (n.saturating_sub(b) + b + 1 - n, m + b + 1 - n);
        let mut end = klo;
        for k in klo..=khi {
            if prev[k] < prev[end] {
                end = k;
            }
        }
        let cost = prev[end];
        debug_assert!(cost < BIG, "every in-band cell is reachable");
        let mut ops: Vec<CigarOp> = Vec::new();
        let (mut i, mut k) = (n, end);
        while i > 0 {
            let kind = match s.tb[i * stride + k] {
                DIAG => {
                    i -= 1;
                    CigarKind::Match
                }
                UP => {
                    i -= 1;
                    k += 1;
                    CigarKind::Ins
                }
                _ => {
                    k -= 1;
                    CigarKind::Del
                }
            };
            match ops.last_mut() {
                Some(last) if last.kind == kind => last.len += 1,
                _ => ops.push(CigarOp { kind, len: 1 }),
            }
        }
        ops.reverse();
        Some((cost, ops))
    })
}

/// An unreachable DP cell; `BIG + 1` still compares above every real cost.
const BIG: u32 = u32::MAX / 2;
/// Traceback tags of [`banded_global_cigar`].
const DIAG: u8 = 1;
const UP: u8 = 2; // Insertion: query consumed, reference not.
const LEFT: u8 = 3; // Deletion: reference consumed.

/// Per-thread buffers of [`banded_global_cigar`].
#[derive(Default)]
struct BandScratch {
    /// Two DP rows.
    rows: Vec<u32>,
    /// Traceback tags, one row buffer per query row.
    tb: Vec<u8>,
}

thread_local! {
    static BAND: RefCell<BandScratch> = RefCell::default();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The banded global CIGAR [`banded_global_cigar`] replaced (an
    /// `Option` column closure per cell, two fresh matrices per call),
    /// kept as its oracle.
    fn banded_global_cigar_oracle(
        reference: &[u8],
        query: &[u8],
        band: usize,
    ) -> Option<(u32, Vec<CigarOp>)> {
        let n = query.len();
        if n == 0 {
            return Some((0, Vec::new()));
        }
        let b = band;
        let m = reference.len().min(n + b);
        // dp[i][j] = edit distance pattern[0..i] vs text[0..j], |j - i| <= b.
        // Stored densely with traceback for the banded region.
        let w = 2 * b + 1;
        let big = u32::MAX / 2;
        let mut dp = vec![big; (n + 1) * w];
        let mut tb: Vec<u8> = vec![0; (n + 1) * w]; // 1=diag,2=up(del query? ),3=left
        let col = |i: usize, j: usize| -> Option<usize> {
            // j in [i-b, i+b].
            let lo = i as isize - b as isize;
            let off = j as isize - lo;
            if off < 0 || off >= w as isize {
                None
            } else {
                Some(i * w + off as usize)
            }
        };
        // Row 0: aligning empty query to text prefix j costs j (deletions).
        for j in 0..=b.min(m) {
            if let Some(c) = col(0, j) {
                dp[c] = j as u32;
                tb[c] = 3;
            }
        }
        for i in 1..=n {
            let jlo = i.saturating_sub(b);
            let jhi = (i + b).min(m);
            for j in jlo..=jhi {
                let c = col(i, j).unwrap();
                let mut best = big;
                let mut dir = 0u8;
                if j > 0 {
                    if let Some(cd) = col(i - 1, j - 1) {
                        let cost = if query[i - 1] == reference[j - 1] { 0 } else { 1 };
                        if dp[cd] + cost < best {
                            best = dp[cd] + cost;
                            dir = 1;
                        }
                    }
                }
                if let Some(cu) = col(i - 1, j) {
                    if dp[cu] + 1 < best {
                        best = dp[cu] + 1;
                        dir = 2; // Insertion (query consumed, ref not).
                    }
                }
                if j > 0 {
                    if let Some(cl) = col(i, j - 1) {
                        if dp[cl] + 1 < best {
                            best = dp[cl] + 1;
                            dir = 3; // Deletion (ref consumed).
                        }
                    }
                }
                dp[c] = best;
                tb[c] = dir;
            }
        }
        // Pick the best end column in the last row (free text tail).
        let jlo = n.saturating_sub(b);
        let jhi = (n + b).min(m);
        let (mut bj, mut bcost) = (jlo, big);
        for j in jlo..=jhi {
            if let Some(c) = col(n, j) {
                if dp[c] < bcost {
                    bcost = dp[c];
                    bj = j;
                }
            }
        }
        if bcost >= big {
            return None;
        }
        // Traceback.
        let mut ops_rev: Vec<CigarOp> = Vec::new();
        let push = |kind: CigarKind, ops: &mut Vec<CigarOp>| {
            if let Some(last) = ops.last_mut() {
                if last.kind == kind {
                    last.len += 1;
                    return;
                }
            }
            ops.push(CigarOp { kind, len: 1 });
        };
        let (mut i, mut j) = (n, bj);
        while i > 0 || j > 0 {
            let c = match col(i, j) {
                Some(c) => c,
                None => break,
            };
            match tb[c] {
                1 => {
                    push(CigarKind::Match, &mut ops_rev);
                    i -= 1;
                    j -= 1;
                }
                2 => {
                    push(CigarKind::Ins, &mut ops_rev);
                    i -= 1;
                }
                3 => {
                    if i == 0 {
                        // Leading reference consumption before the query
                        // starts is not part of the read's CIGAR.
                        break;
                    }
                    push(CigarKind::Del, &mut ops_rev);
                    j -= 1;
                }
                _ => break,
            }
        }
        ops_rev.reverse();
        Some((bcost, ops_rev))
    }

    fn cigar_str(ops: &[CigarOp]) -> String {
        ops.iter().map(|op| format!("{}{}", op.len, op.kind.to_char())).collect()
    }

    #[test]
    fn exact_local_match() {
        let a = smith_waterman(b"AAACGTACGTAAA", b"CGTACGT", Scoring::default());
        assert_eq!(a.ref_start, 3);
        assert_eq!(a.ref_end, 10);
        assert_eq!(a.query_start, 0);
        assert_eq!(a.query_end, 7);
        assert_eq!(cigar_str(&a.cigar), "7M");
        assert_eq!(a.score, 14);
    }

    #[test]
    fn mismatch_in_middle() {
        let a = smith_waterman(b"ACGTACGTACGT", b"ACGTTCGTACGT", Scoring::default());
        // One mismatch: aligning through scores 11·2 - 8 = 14; clipping
        // to the 7-match suffix also scores 14. Either optimum is fine.
        assert_eq!(a.score, 14);
        assert_eq!(a.query_end, 12);
    }

    #[test]
    fn gap_alignment() {
        // Query is reference with a 2-base deletion.
        let reference = b"ACGTACGGGTACGT";
        let query = b"ACGTACTACGT"; // Missing "GGG" -> wait, missing GG.
        let a = smith_waterman(reference, query, Scoring::default());
        let has_del = a.cigar.iter().any(|op| op.kind == CigarKind::Del);
        assert!(has_del || a.query_end - a.query_start < query.len(), "{}", cigar_str(&a.cigar));
    }

    #[test]
    fn soft_clips() {
        // Query head garbage, tail garbage.
        let a = smith_waterman(b"ACGTACGTACGTACGTACGT", b"TTTTTACGTACGTTTTT", Scoring::default());
        let full = a.cigar_with_clips(17);
        assert_eq!(full.first().unwrap().kind, CigarKind::SoftClip);
        assert_eq!(full.last().unwrap().kind, CigarKind::SoftClip);
    }

    #[test]
    fn empty_inputs() {
        let a = smith_waterman(b"", b"ACGT", Scoring::default());
        assert_eq!(a.score, 0);
        let a = smith_waterman(b"ACGT", b"", Scoring::default());
        assert_eq!(a.score, 0);
    }

    #[test]
    fn local_score_is_never_negative() {
        let a = smith_waterman(b"AAAA", b"TTTT", Scoring::default());
        assert_eq!(a.score, 0);
        assert!(a.cigar.is_empty());
    }

    #[test]
    fn banded_exact() {
        let (cost, cigar) = banded_global_cigar(b"ACGTACGT", b"ACGTACGT", 3).unwrap();
        assert_eq!(cost, 0);
        assert_eq!(cigar_str(&cigar), "8M");
    }

    #[test]
    fn banded_substitution() {
        let (cost, cigar) = banded_global_cigar(b"ACGTACGT", b"ACCTACGT", 3).unwrap();
        assert_eq!(cost, 1);
        assert_eq!(cigar_str(&cigar), "8M");
    }

    #[test]
    fn banded_insertion_and_deletion() {
        // Query has extra base.
        let (cost, cigar) = banded_global_cigar(b"ACGTACGT", b"ACGGTACGT", 3).unwrap();
        assert_eq!(cost, 1);
        assert!(cigar.iter().any(|op| op.kind == CigarKind::Ins), "{}", cigar_str(&cigar));
        let qlen: u32 = cigar.iter().filter(|o| o.kind.consumes_query()).map(|o| o.len).sum();
        assert_eq!(qlen, 9);

        // Query missing a base.
        let (cost, cigar) = banded_global_cigar(b"ACGTACGT", b"ACTACGT", 3).unwrap();
        assert_eq!(cost, 1);
        assert!(cigar.iter().any(|op| op.kind == CigarKind::Del), "{}", cigar_str(&cigar));
        let qlen: u32 = cigar.iter().filter(|o| o.kind.consumes_query()).map(|o| o.len).sum();
        assert_eq!(qlen, 7);
    }

    #[test]
    fn banded_cigar_consumes_whole_query() {
        let cases: Vec<(&[u8], &[u8])> = vec![
            (b"ACGTACGTACGTACGT", b"ACGTACGTACGTACGT"),
            (b"ACGTACGTACGTACGT", b"ACGTACGTACGAACGT"),
            (b"ACGTACGTACGTACGTTT", b"ACGTCGTACGTACGT"),
        ];
        for (r, q) in cases {
            let (_, cigar) = banded_global_cigar(r, q, 4).unwrap();
            let qlen: u32 = cigar.iter().filter(|o| o.kind.consumes_query()).map(|o| o.len).sum();
            assert_eq!(qlen as usize, q.len(), "query not fully consumed");
        }
    }

    #[test]
    fn banded_cost_matches_dp() {
        use crate::edit::edit_distance_dp;
        fn rb(x: &mut u64) -> u8 {
            *x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            b"ACGT"[(*x >> 62) as usize]
        }
        let mut x = 31u64;
        for trial in 0..100 {
            let n = 20 + trial % 30;
            let reference: Vec<u8> = (0..n + 8).map(|_| rb(&mut x)).collect();
            let mut query = reference[..n].to_vec();
            for _ in 0..trial % 3 {
                let i = (x as usize) % query.len();
                query[i] = rb(&mut x);
            }
            let dp = edit_distance_dp(&reference, &query);
            if let Some((cost, _)) = banded_global_cigar(&reference, &query, 6) {
                if dp <= 6 {
                    assert_eq!(cost, dp, "trial {trial}");
                }
            } else {
                assert!(dp > 6, "band missed a distance-{dp} alignment");
            }
        }
    }

    /// `reference` read from its start with a substitution, a 1–3 base
    /// insertion or a 1–3 base deletion at each of `edits` random places,
    /// cut to `len` — what a verified SNAP window looks like.
    fn anchored_query(reference: &[u8], len: usize, edits: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        let mut next = move |bound: usize| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) as usize) % bound.max(1)
        };
        let mut query = reference[..len.min(reference.len())].to_vec();
        for _ in 0..edits {
            let at = next(query.len() + 1);
            match next(3) {
                0 if at < query.len() => query[at] = b"ACGT"[next(4)],
                1 => {
                    let ins: Vec<u8> = (0..1 + next(3)).map(|_| b"ACGT"[next(4)]).collect();
                    query.splice(at..at, ins);
                }
                _ => {
                    query.drain(at..(at + 1 + next(3)).min(query.len()));
                }
            }
        }
        query.truncate(len);
        query
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// The scratch-row DP returns the oracle's `(cost, CIGAR)`, or
        /// `None` where it does, at every band the aligner can ask for:
        /// anchored windows with substitutions and indels, exact
        /// prefixes (the shortcut), windows shorter than the query, and
        /// unrelated or tie-heavy pairs from `gappy_case`.
        #[test]
        fn banded_cigar_matches_oracle(
            seed in proptest::prelude::any::<u64>(),
            shape in 0usize..5,
            n in 0usize..150,
            m in 0usize..130,
            band in 1usize..=13,
            edits in 0usize..6,
        ) {
            let (reference, gappy) = gappy_case(seed, shape, n, m);
            let query = if edits == 5 { gappy } else { anchored_query(&reference, m, edits, seed) };
            proptest::prop_assert_eq!(
                banded_global_cigar(&reference, &query, band),
                banded_global_cigar_oracle(&reference, &query, band),
                "band {}", band
            );
        }
    }

    /// The scratch rows are reused: a call after a wider band or a
    /// longer query must not see their leftovers.
    #[test]
    fn banded_cigar_reuses_scratch() {
        let mut seed = 11u64;
        for (n, m, band) in [(140, 101, 13), (30, 17, 2), (9, 20, 5), (140, 101, 1), (64, 64, 7)] {
            for edits in 0..5 {
                seed += 1;
                let (reference, _) = gappy_case(seed, 0, n, m);
                let query = anchored_query(&reference, m, edits, seed);
                assert_eq!(
                    banded_global_cigar(&reference, &query, band),
                    banded_global_cigar_oracle(&reference, &query, band),
                    "n {n} m {m} band {band} edits {edits}"
                );
            }
        }
    }

    /// Differential inputs the random-DNA properties in
    /// `tests/proptests.rs` rarely produce: gaps on the optimal path and
    /// many equal-scoring paths, so the traceback's gap steps and its
    /// diag/left/up precedence decide the CIGAR.
    fn gappy_case(seed: u64, shape: usize, n: usize, m: usize) -> (Vec<u8>, Vec<u8>) {
        let mut x = seed | 1;
        let mut next = move |bound: usize| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) as usize) % bound.max(1)
        };
        let reference: Vec<u8> = match shape % 5 {
            // Homopolymer with the odd interruption.
            1 => (0..n).map(|_| if next(9) == 0 { b'C' } else { b'A' }).collect(),
            // Tandem repeat of a 1-4 base unit.
            2 => {
                let unit: Vec<u8> = (0..1 + next(4)).map(|_| b"ACGT"[next(4)]).collect();
                unit.iter().copied().cycle().take(n).collect()
            }
            _ => (0..n).map(|_| b"ACGT"[next(4)]).collect(),
        };
        // The query: a slice of the reference with substitutions,
        // insertions and deletions every few bases, cut or padded to m.
        let from = next(n);
        let mut query = Vec::with_capacity(m);
        let mut at = from;
        while query.len() < m {
            let base = reference.get(at).copied().unwrap_or(b"ACGT"[next(4)]);
            match next(12) {
                0 => query.push(b"ACGT"[next(4)]), // Substitution.
                1 => {
                    // Insertion of 1-3 bases before this one.
                    query.extend((0..1 + next(3)).map(|_| b"ACGT"[next(4)]));
                    query.push(base);
                }
                2 => at += next(3), // Deletion of 0-2 extra bases.
                _ => query.push(base),
            }
            at += 1;
        }
        query.truncate(m);
        // Shape 3: the query is the longer sequence.
        if shape % 5 == 3 {
            (query, reference)
        } else {
            (reference, query)
        }
    }

    const SCORINGS: [Scoring; 6] = [
        Scoring { match_score: 2, mismatch: -8, gap_open: -12, gap_extend: -2 },
        Scoring { match_score: 1, mismatch: -4, gap_open: -6, gap_extend: -1 },
        Scoring { match_score: 2, mismatch: -8, gap_open: -2, gap_extend: -2 },
        Scoring { match_score: 1, mismatch: -1, gap_open: -1, gap_extend: -1 },
        Scoring { match_score: 2, mismatch: -3, gap_open: -4, gap_extend: 0 },
        Scoring { match_score: 3, mismatch: -2, gap_open: 0, gap_extend: 0 },
    ];

    /// [`smith_waterman_striped`] at a given vector width, optionally
    /// forcing 16-bit cells, so tests can drive all four bodies on one
    /// machine; with the bits per cell of the body that ran.
    fn striped_at(
        reference: &[u8],
        query: &[u8],
        sc: Scoring,
        width: crate::sw_simd::Width,
        force_i16: bool,
    ) -> Option<(LocalAlignment, u32)> {
        crate::sw_simd::with_matrix(reference, query, &sc, Some(width), force_i16, |hm| {
            (traceback_from_matrix(hm, reference, query, sc), hm.cell_bits())
        })
    }

    /// All four bodies (both widths, 8- and 16-bit cells) against the
    /// scalar kernel; returns the cell bits the unforced body ran with.
    fn assert_bodies_match_scalar(reference: &[u8], query: &[u8], sc: Scoring) -> Option<u32> {
        use crate::sw_simd::Width;
        let scalar = smith_waterman_scalar(reference, query, sc);
        let mut bits = None;
        for width in [Width::Sse2, Width::Avx2] {
            for force_i16 in [false, true] {
                match striped_at(reference, query, sc, width, force_i16) {
                    Some((striped, b)) => {
                        assert_eq!(striped, scalar, "{width:?} force_i16 {force_i16} {sc:?}");
                        if force_i16 {
                            assert_eq!(b, 16);
                        } else {
                            bits = Some(b);
                        }
                    }
                    // Only a CPU without AVX2 may refuse: every scoring
                    // the tests use is inside the guards.
                    None => assert!(
                        width == Width::Avx2 || !cfg!(target_arch = "x86_64"),
                        "striped kernel refused valid input"
                    ),
                }
            }
        }
        bits
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Both vector widths and both cell types reproduce the scalar
        /// kernel — score, regions *and CIGAR* — on indel-rich and
        /// tie-heavy inputs, with `gap_open == gap_extend`, a zero
        /// extension penalty, the query longer than the window, and the
        /// best cell in the last (padded) lane.
        #[test]
        fn striped_widths_match_scalar_on_gappy_inputs(
            seed in proptest::prelude::any::<u64>(),
            shape in 0usize..5,
            n in 1usize..150,
            m in 1usize..130,
            scoring in 0usize..6,
        ) {
            let (reference, query) = gappy_case(seed, shape, n, m);
            assert_bodies_match_scalar(&reference, &query, SCORINGS[scoring]);
        }
    }

    /// The `min(n, m)` values around the 8-bit guard of scoring `sc`:
    /// every one whose `min(n, m)·match + match − mismatch` is 254, 255
    /// or 256, plus the last inside and the first outside the guard.
    fn guard_edges(sc: Scoring) -> Vec<usize> {
        let g = |len: i32| len * sc.match_score + sc.match_score - sc.mismatch;
        let last_in = (1..).take_while(|&len| g(len) <= 255).last().expect("guard admits len 1");
        let mut out: Vec<usize> = (1..300)
            .filter(|&len| (254..=256).contains(&g(len)) || len == last_in || len == last_in + 1)
            .map(|len| len as usize)
            .collect();
        out.dedup();
        out
    }

    /// At the edges of the 8-bit guard, under all six scorings: windows
    /// the query matches exactly (the highest scores the guard admits),
    /// the query longer than the window, and gappy pairs. Below the
    /// guard the unforced body runs 8-bit cells, above it 16-bit ones.
    #[test]
    fn striped_bodies_match_scalar_at_the_u8_guard() {
        for (k, sc) in SCORINGS.into_iter().enumerate() {
            let g = |len: usize| len as i32 * sc.match_score + sc.match_score - sc.mismatch;
            for len in guard_edges(sc) {
                let want = if g(len) <= 255 { 8 } else { 16 };
                let (reference, _) = gappy_case(k as u64 * 1000 + len as u64, 0, len + 30, 0);
                let cases = [
                    // All-match: the query is the whole window, or a
                    // slice of a longer one.
                    (reference[..len].to_vec(), reference[..len].to_vec()),
                    (reference.clone(), reference[10..10 + len].to_vec()),
                    // The query is the longer sequence.
                    (reference[..len].to_vec(), reference.clone()),
                    gappy_case(len as u64, 0, len + 24, len),
                    gappy_case(len as u64, 2, len + 24, len),
                ];
                for (r, q) in cases {
                    assert_eq!(r.len().min(q.len()), len);
                    let bits = assert_bodies_match_scalar(&r, &q, sc);
                    if cfg!(target_arch = "x86_64") {
                        assert_eq!(bits, Some(want), "scoring {k} len {len}");
                    }
                }
            }
        }
    }

    /// The scratch matrix is reused: a call after a larger one, and a
    /// call at the other width, must not see its leftovers.
    #[test]
    fn striped_reuses_scratch_across_shapes() {
        let sc = Scoring::default();
        let mut seed = 7u64;
        for (n, m) in [(140, 101), (30, 17), (9, 120), (140, 101), (1, 1), (64, 64)] {
            for shape in 0..5 {
                seed += 1;
                let (reference, query) = gappy_case(seed, shape, n, m);
                let scalar = smith_waterman_scalar(&reference, &query, sc);
                for width in [crate::sw_simd::Width::Avx2, crate::sw_simd::Width::Sse2] {
                    for force_i16 in [false, true] {
                        if let Some((striped, _)) =
                            striped_at(&reference, &query, sc, width, force_i16)
                        {
                            assert_eq!(striped, scalar, "{width:?} n {n} m {m} shape {shape}");
                        }
                    }
                }
            }
        }
    }
}
