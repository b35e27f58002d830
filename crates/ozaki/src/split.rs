//! Error-free matrix slicing (step 1 of the Ozaki scheme). Every
//! extraction goes through [`split_panels`]; DESIGN §4 has its exactness.
//!
//! Per slice, each tile of lines is extracted into a tile buffer — the
//! residual update, the narrowing to the engine's word and, for INT8's B,
//! each chunk's column sum, in one pass per line — and written into the
//! slice's panel by one [`PanelLayout::put_lines`]. That pass is plain
//! Rust compiled once per kernel variant ([`KernelVariant::run`]), so it
//! vectorizes at the width of the variant the engine calls run on; the
//! compiler only picks instructions, so every variant writes the same
//! bits.

use me_linalg::{selected_kernel, KernelVariant, Mat, PanelLayout, PanelWord, VariantWork};
use me_numerics::formats::pow2;
use me_par::WorkerPool;

/// The slice bit width β for a given inner dimension `k` and accumulator
/// precision (in bits, e.g. 24 for f32, 53 for f64):
/// the dot product of two β-bit integer slices of length k is bounded by
/// `k · 2^(2β)`, which must stay below `2^acc_p` for exactness, so
/// `β = ⌊(acc_p − 1 − ⌈log₂k⌉) / 2⌋` (one guard bit).
///
/// The result is additionally clamped to the multiply format's precision
/// `mul_p` (a slice must be exactly representable where it is multiplied).
pub fn required_beta(k: usize, acc_p: u32, mul_p: u32) -> u32 {
    let budget = acc_p.saturating_sub(1).saturating_sub(ceil_log2(k.max(1)));
    (budget / 2).clamp(1, mul_p)
}

/// `⌈log₂ k⌉` computed exactly in integer arithmetic (`k ≥ 1`).
///
/// The float route (`(k as f64).log2().ceil()`) silently loses: for
/// `k = 2^53 + 1` the conversion to `f64` rounds to `2^53`, so the ceiling
/// comes back one too small and [`required_beta`] hands out a slice width
/// whose dot products can overflow the accumulator.
pub(crate) fn ceil_log2(k: usize) -> u32 {
    debug_assert!(k >= 1, "ceil_log2: k must be >= 1");
    if k <= 1 {
        0
    } else if k.is_power_of_two() {
        k.trailing_zeros()
    } else {
        usize::BITS - k.leading_zeros()
    }
}

/// One matrix expressed as an exact sum of low-precision slices.
///
/// `slices[p]` holds the p-th extraction; summing all slices elementwise
/// reconstructs the original matrix exactly (when `complete` is true).
/// `scale_exp[p][i]` is the power-of-two exponent `e` such that every
/// element of row (or column) `i` of slice `p` is an integer multiple of
/// `2^(e − β)` with magnitude at most `2^e` — i.e.
/// `slice[p][(i,j)] · 2^(β − e)` is a β-bit integer, exactly representable
/// in the engine's multiply format.
///
/// A line with a non-finite element, or whose first slice overflows to
/// `2^1024`, is not split: its slice-0 entries are NaN, `complete` false.
#[derive(Debug, Clone)]
pub struct SplitMatrix {
    /// Slice matrices, highest-order first.
    pub slices: Vec<Mat<f64>>,
    /// Per-slice, per-line scale exponents (lines are rows for A, columns
    /// for B).
    pub scale_exp: Vec<Vec<i32>>,
    /// Slice bit width β used for the extraction.
    pub beta: u32,
    /// Whether the residual reached exactly zero (the split is an exact
    /// decomposition) within the slice budget.
    pub complete: bool,
    /// Whether lines are rows (`true`, for A) or columns (`false`, for B).
    pub by_rows: bool,
}

impl SplitMatrix {
    /// Number of slices.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// True if no slices were produced (zero matrix).
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Reconstruct the (partial) sum of all slices.
    pub fn reconstruct(&self) -> Mat<f64> {
        let (r, c) = if let Some(first) = self.slices.first() {
            first.shape()
        } else {
            return Mat::zeros(0, 0);
        };
        let mut out = Mat::zeros(r, c);
        for s in &self.slices {
            for (o, v) in out.as_mut_slice().iter_mut().zip(s.as_slice()) {
                *o += *v;
            }
        }
        out
    }
}

/// `1.5 · 2^52`: for `|y| ≤ 2^51`, `((|y| + ROUND) − ROUND)` is `|y|`
/// rounded to an integer, ties to even.
const ROUND: f64 = 6_755_399_441_055_744.0;
/// Every bit of an f64 but the sign.
const MAGNITUDE: u64 = !(1 << 63);
/// Magnitude bits of `+inf`: at or above it an element is not finite.
const INF_BITS: u64 = 0x7ff0_0000_0000_0000;

/// Ceiling of log2|x| as an exponent: the smallest `e` with `|x| ≤ 2^e`,
/// read off the exponent and significand bits (`x` nonzero; `1024` for
/// an infinity).
#[inline(always)]
fn ceil_exp(x: f64) -> i32 {
    let bits = x.to_bits() & MAGNITUDE;
    debug_assert!(bits != 0, "ceil_exp of zero");
    let (biased, frac) = ((bits >> 52) as i32, bits & ((1 << 52) - 1));
    if biased == 0 {
        // Subnormal: |x| = frac · 2^-1074, so e = ⌈log₂ frac⌉ − 1074.
        (u64::BITS - (frac - 1).leading_zeros()) as i32 - 1074
    } else {
        biased - 1023 + i32::from(frac != 0)
    }
}

/// One extraction over `line` at scale exponent `e`: each element `x`
/// splits into the slice value `hi = round_ties_even(x / q) · q`, `q =
/// 2^(e − β)`, and the residual `x − hi` left in place, and `out[t] =
/// word(hi / q, hi)` with `−0` made `+0`. `sums[c]` gets the wrapping sum
/// of the words of the `c`-th `kb`-long chunk ([`PanelWord::sum_term`]),
/// taken in the same pass. Returns the residual's largest magnitude bits.
/// The quotient is a multiplication where `2^(β − e)` is normal, else
/// (subnormal line maxima) a division.
#[inline(always)]
fn extract<W: PanelWord>(
    line: &mut [f64],
    out: &mut [W],
    sums: &mut [i32],
    e: i32,
    beta: u32,
    kb: usize,
    word: &impl Fn(f64, f64) -> W,
) -> u64 {
    let se = beta as i32 - e;
    // Clamp the grid at the smallest subnormal: once `2^(e − β)` falls
    // below 2^-1074 every remaining residual is an exact multiple of the
    // clamped grid, so `hi = x` and the residual terminates at zero.
    let q = pow2((-se).max(-1074));
    if (-1022..=1023).contains(&se) {
        let scale = pow2(se);
        extract_with(line, out, sums, kb, word, &|x: f64| {
            let y = x * scale;
            let r = ((y.abs() + ROUND) - ROUND).copysign(y);
            (r, r * q)
        })
    } else {
        extract_with(line, out, sums, kb, word, &|x: f64| {
            let hi = (x / q).round_ties_even() * q;
            // `2^se` may exceed f64 range here: scale in two exact steps.
            (if se > 1023 { hi * pow2(1023) * pow2(se - 1023) } else { hi * pow2(se) }, hi)
        })
    }
}

/// [`extract`]'s pass, with `slice(x)` giving the integer and the slice
/// value of `x`.
#[inline(always)]
fn extract_with<W: PanelWord>(
    line: &mut [f64],
    out: &mut [W],
    sums: &mut [i32],
    kb: usize,
    word: &impl Fn(f64, f64) -> W,
    slice: &impl Fn(f64) -> (f64, f64),
) -> u64 {
    let mut mx = 0;
    for ((xs, ws), sum) in line.chunks_mut(kb).zip(out.chunks_mut(kb)).zip(sums) {
        let mut s = 0i32;
        for (x, w) in xs.iter_mut().zip(ws) {
            let (int, hi) = slice(*x);
            *x -= hi;
            *w = word(int + 0.0, hi);
            s = s.wrapping_add(w.sum_term());
            mx = mx.max(x.to_bits() & MAGNITUDE);
        }
        *sum = s;
    }
    mx
}

/// The next slice of each live line in a block: `rest` holds the lines
/// back to back, `out` the block's run of whole tiles of the slice panel,
/// `exp` and `mx` one entry per line. The lines of one tile are extracted
/// into a tile buffer, with their chunk sums, and the tile is packed from
/// there in one [`PanelLayout::put_lines`]; a tile with no live line is
/// left blank.
struct ExtractLines<'a, W, F> {
    rest: &'a mut [f64],
    out: &'a mut [W],
    exp: &'a mut [i32],
    mx: &'a mut [u64],
    beta: u32,
    pack: Pack,
    word: &'a F,
}

impl<W: PanelWord, F: Fn(f64, f64) -> W> VariantWork for ExtractLines<'_, W, F> {
    type Output = ();

    #[inline(always)]
    fn call(self) {
        let ExtractLines { rest, out, exp, mx, beta, pack, word } = self;
        let len = rest.len().checked_div(exp.len()).unwrap_or(0);
        if len == 0 {
            return;
        }
        let (tile, chunks) = (pack.layout.tile, len.div_ceil(pack.kb));
        let mut buf = vec![W::default(); tile * len];
        let mut sums = vec![0i32; tile * chunks];
        let tiles = rest.chunks_mut(tile * len).zip(exp.chunks_mut(tile).zip(mx.chunks_mut(tile)));
        for (t, (x, (e, m))) in tiles.enumerate() {
            let rows = e.len();
            let mut live = false;
            for (r, ((x, e), m)) in
                x.chunks_mut(len).zip(e.iter_mut()).zip(m.iter_mut()).enumerate()
            {
                let (w, s) =
                    (&mut buf[r * len..(r + 1) * len], &mut sums[r * chunks..(r + 1) * chunks]);
                if (1..INF_BITS).contains(m) {
                    *e = ceil_exp(f64::from_bits(*m));
                    *m = extract(x, w, s, *e, beta, pack.kb, word);
                    live = true;
                } else {
                    w.fill(W::default());
                    s.fill(0);
                }
            }
            if live {
                let (words, sums) = (&buf[..rows * len], &sums[..rows * chunks]);
                pack.layout.put_lines(out, t * tile, words, len, sums, pack.kb);
            }
        }
    }
}

/// Where [`split_panels`] packs each slice: the engine's panel layout and
/// its k-chunk length.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pack {
    pub layout: PanelLayout,
    pub kb: usize,
}

impl Pack {
    /// Plain line-major panels of `len`-long lines.
    pub fn lines(len: usize) -> Self {
        Pack { layout: PanelLayout::LINES, kb: len.max(1) }
    }
}

/// A matrix's lines split into β-bit slices and packed as words.
#[derive(Debug)]
pub(crate) struct Panels<W> {
    /// Number of lines.
    pub lines: usize,
    /// Per slice, its panel of words in the [`Pack`] layout, reading as
    /// zeros past a line's last slice.
    pub words: Vec<Vec<W>>,
    /// Per slice, each line's scale exponent (0 past its last slice).
    pub exps: Vec<Vec<i32>>,
    /// Whether every line's residual reached exactly zero.
    pub complete: bool,
    /// Lines that hold a non-finite element or whose extraction
    /// overflowed; they stop splitting.
    pub poisoned: Vec<usize>,
}

/// Split the `lines` contiguous lines of `rest` (consumed as the residual)
/// into at most `max_slices` β-bit slices, writing `word(integer, slice
/// value)` per element straight into each slice's panel in `pack`'s
/// layout: every slice is packed once, here, compiled for `kernel`'s
/// instruction set ([`KernelVariant::run`]; the bits never depend on it).
/// A pool takes each slice's lines in contiguous blocks of whole tiles;
/// lines never interact, so any pool width gives the serial bits.
#[allow(clippy::too_many_arguments)]
pub(crate) fn split_panels<W: PanelWord + Send + Sync>(
    mut rest: Vec<f64>,
    lines: usize,
    beta: u32,
    max_slices: usize,
    kernel: KernelVariant,
    pool: Option<&WorkerPool>,
    pack: Pack,
    word: impl Fn(f64, f64) -> W + Sync,
) -> Panels<W> {
    assert!((1..=26).contains(&beta), "beta out of range: {beta}");
    let len = rest.len().checked_div(lines).unwrap_or(0);
    // Each line's largest magnitude bits, with every `−0` made `+0` so that
    // a zero element packs to the all-zero word.
    let mut mx: Vec<u64> = rest
        .chunks_mut(len.max(1))
        .map(|line| {
            line.iter_mut().fold(0, |m, x| {
                *x += 0.0;
                m.max(x.to_bits() & MAGNITUDE)
            })
        })
        .collect();
    mx.resize(lines, 0);
    let (tile, stride) = (pack.layout.tile, pack.layout.tile_stride(len, pack.kb));
    let (mut words, mut exps) = (Vec::new(), Vec::new());
    let word = &word;
    while words.len() < max_slices && mx.iter().any(|m| (1..INF_BITS).contains(m)) {
        let mut panel = pack.layout.blank(lines, len, pack.kb);
        let mut exp = vec![0i32; lines];
        match pool {
            Some(p) => {
                let block = lines.div_ceil(p.threads()).next_multiple_of(tile);
                let mut jobs: Vec<_> = rest
                    .chunks_mut(block * len)
                    .zip(panel.chunks_mut(block / tile * stride))
                    .zip(exp.chunks_mut(block).zip(mx.chunks_mut(block)))
                    .collect();
                p.for_each_mut(&mut jobs, |_, ((rest, out), (exp, mx))| {
                    kernel.run(ExtractLines { rest, out, exp, mx, beta, pack, word })
                });
            }
            None => kernel.run(ExtractLines {
                rest: &mut rest,
                out: &mut panel,
                exp: &mut exp,
                mx: &mut mx,
                beta,
                pack,
                word,
            }),
        }
        words.push(panel);
        exps.push(exp);
    }
    Panels {
        lines,
        words,
        exps,
        complete: mx.iter().all(|&m| m == 0),
        poisoned: (0..lines).filter(|&li| mx[li] >= INF_BITS).collect(),
    }
}

/// `a`'s rows (`by_rows`) or columns as contiguous lines, and their count.
pub(crate) fn lines_of(a: &Mat<f64>, by_rows: bool) -> (Vec<f64>, usize) {
    if by_rows {
        (a.as_slice().to_vec(), a.rows())
    } else {
        (a.transpose().as_slice().to_vec(), a.cols())
    }
}

/// Split `A` by rows into β-bit slices (for the left operand of GEMM).
///
/// `max_slices` bounds the number of extractions; if the residual is not
/// exhausted by then, the result is marked incomplete (lossy), which is the
/// "reduced number of split matrices" mode the paper mentions for
/// DGEMM-equivalent (rather than exact) accuracy.
pub fn split_rows(a: &Mat<f64>, beta: u32, max_slices: usize) -> SplitMatrix {
    split_matrix(a, beta, max_slices, true, selected_kernel(), None)
}

/// Split `B` by columns into β-bit slices (for the right operand of GEMM).
pub fn split_cols(b: &Mat<f64>, beta: u32, max_slices: usize) -> SplitMatrix {
    split_matrix(b, beta, max_slices, false, selected_kernel(), None)
}

/// [`split_rows`] with the per-line extractions fanned out over `pool`.
///
/// Lines are independent in the Ozaki extraction (a row of A never looks at
/// another row), so the result is **bitwise identical** to the serial split
/// for any pool width.
pub fn split_rows_parallel(
    a: &Mat<f64>,
    beta: u32,
    max_slices: usize,
    pool: &WorkerPool,
) -> SplitMatrix {
    split_matrix(a, beta, max_slices, true, selected_kernel(), Some(pool))
}

/// [`split_cols`] with the per-line extractions fanned out over `pool`.
pub fn split_cols_parallel(
    b: &Mat<f64>,
    beta: u32,
    max_slices: usize,
    pool: &WorkerPool,
) -> SplitMatrix {
    split_matrix(b, beta, max_slices, false, selected_kernel(), Some(pool))
}

/// The dense f64 form of [`split_panels`]: each slice's words are its
/// values, reshaped into a matrix of `a`'s shape.
fn split_matrix(
    a: &Mat<f64>,
    beta: u32,
    max_slices: usize,
    by_rows: bool,
    kernel: KernelVariant,
    pool: Option<&WorkerPool>,
) -> SplitMatrix {
    let (rest, lines) = lines_of(a, by_rows);
    let size = rest.len();
    let pack = Pack::lines(size.checked_div(lines).unwrap_or(0));
    let mut p = split_panels(rest, lines, beta, max_slices, kernel, pool, pack, |_, hi| hi);
    if p.words.is_empty() && !p.poisoned.is_empty() {
        p.words.push(vec![0.0; size]);
        p.exps.push(vec![0; lines]);
    }
    let len = size.checked_div(lines).unwrap_or(0);
    for &li in &p.poisoned {
        p.words[0][li * len..(li + 1) * len].fill(f64::NAN);
    }
    let (r, c) = a.shape();
    let slices = p.words.into_iter().map(|w| {
        if by_rows {
            Mat::from_vec(r, c, w)
        } else {
            Mat::from_vec(c, r, w).transpose()
        }
    });
    SplitMatrix { slices: slices.collect(), scale_exp: p.exps, beta, complete: p.complete, by_rows }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(m: usize, n: usize, seed: u64, range_decades: i32) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        Mat::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 33) as f64 / (1u64 << 31) as f64; // [0,2)
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let d = ((state >> 33) as f64 / (1u64 << 31) as f64) / 2.0; // [0,1)
            let mag = (10.0f64).powf(d * range_decades as f64);
            (u - 1.0) * mag
        })
    }

    #[test]
    fn beta_matches_tensor_core_budget() {
        // f32 accumulate (24-bit), f16 multiply (11-bit).
        assert_eq!(required_beta(8192, 24, 11), 5); // (23-13)/2
        assert_eq!(required_beta(1024, 24, 11), 6); // (23-10)/2
        assert_eq!(required_beta(16, 24, 11), 9); // (23-4)/2
        assert_eq!(required_beta(1, 24, 11), 11); // clamped to mul precision
        // f64 accumulate allows wide slices, clamped by f16 multiply.
        assert_eq!(required_beta(1024, 53, 11), 11);
    }

    #[test]
    fn beta_integer_log2_boundaries() {
        // k = 2^j and k = 2^j + 1 straddle the ⌈log₂⌉ step.
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        for j in 1..60u32 {
            let k = 1usize << j;
            assert_eq!(ceil_log2(k), j, "k=2^{j}");
            assert_eq!(ceil_log2(k + 1), j + 1, "k=2^{j}+1");
        }
        // The step must show up in the beta budget.
        assert_eq!(required_beta(8192, 24, 11), 5); // (23-13)/2
        assert_eq!(required_beta(8193, 24, 11), 4); // (23-14)/2
        // Regression: (2^53 + 1) as f64 rounds to 2^53, so the float
        // ⌈log₂⌉ came back 53 instead of 54 — one slice bit too generous.
        assert_eq!(required_beta((1usize << 53) + 1, 120, 64), 32);
    }

    #[test]
    fn beta_boundaries_across_all_binades() {
        // k = 2^j − 1, 2^j, 2^j + 1 up to the f64-mantissa binade j = 53:
        // ⌈log₂⌉ must be exact in integer arithmetic at every boundary
        // (the float route already fails at j = 53), and required_beta
        // must hold steady inside a binade and step down exactly when k
        // first exceeds 2^j.
        let acc_p = 120u32; // wide accumulator: the budget, not mul_p, decides
        let mul_p = 64u32;
        for j in 2..=53u32 {
            let k = 1usize << j;
            assert_eq!(ceil_log2(k - 1), j, "k=2^{j}-1");
            assert_eq!(ceil_log2(k), j, "k=2^{j}");
            assert_eq!(ceil_log2(k + 1), j + 1, "k=2^{j}+1");
            let expect_at = ((acc_p - 1 - j) / 2).clamp(1, mul_p);
            let expect_above = ((acc_p - 1 - (j + 1)) / 2).clamp(1, mul_p);
            assert_eq!(required_beta(k - 1, acc_p, mul_p), expect_at, "below, j={j}");
            assert_eq!(required_beta(k, acc_p, mul_p), expect_at, "at, j={j}");
            assert_eq!(required_beta(k + 1, acc_p, mul_p), expect_above, "above, j={j}");
        }
    }

    #[test]
    fn parallel_split_is_bit_identical_to_serial() {
        let a = mk(17, 11, 23, 12);
        let serial_r = split_rows(&a, 5, 64);
        let serial_c = split_cols(&a, 5, 64);
        for threads in [1, 2, 3, 8] {
            let pool = me_par::WorkerPool::new(threads);
            let par_r = split_rows_parallel(&a, 5, 64, &pool);
            assert_eq!(par_r.len(), serial_r.len(), "threads={threads}");
            assert_eq!(par_r.complete, serial_r.complete);
            assert_eq!(par_r.scale_exp, serial_r.scale_exp);
            for (p, s) in par_r.slices.iter().zip(&serial_r.slices) {
                assert_eq!(p, s, "threads={threads}: row slice differs");
            }
            let par_c = split_cols_parallel(&a, 5, 64, &pool);
            assert_eq!(par_c.scale_exp, serial_c.scale_exp);
            for (p, s) in par_c.slices.iter().zip(&serial_c.slices) {
                assert_eq!(p, s, "threads={threads}: col slice differs");
            }
        }
    }

    #[test]
    fn split_reconstructs_exactly_narrow_range() {
        let a = mk(13, 9, 1, 0);
        let s = split_rows(&a, 5, 64);
        assert!(s.complete, "narrow-range split must terminate ({} slices)", s.len());
        assert_eq!(s.reconstruct(), a);
        // Narrow range (all magnitudes within one decade): about
        // ceil(53/5)+1 = 12 slices.
        assert!(s.len() <= 14, "too many slices: {}", s.len());
    }

    #[test]
    fn split_reconstructs_exactly_wide_range() {
        let a = mk(8, 8, 2, 16);
        let s = split_rows(&a, 5, 128);
        assert!(s.complete);
        assert_eq!(s.reconstruct(), a);
    }

    #[test]
    fn slice_count_grows_with_dynamic_range() {
        // The Table VIII effect: wider input ranges need more slices.
        let narrow = split_rows(&mk(16, 16, 3, 8), 5, 256).len();
        let mid = split_rows(&mk(16, 16, 3, 16), 5, 256).len();
        let wide = split_rows(&mk(16, 16, 3, 32), 5, 256).len();
        assert!(narrow < mid && mid < wide, "{narrow} {mid} {wide}");
    }

    #[test]
    fn slices_are_beta_bit_integers_at_their_scale() {
        let a = mk(6, 10, 7, 10);
        let beta = 5;
        let s = split_rows(&a, beta, 64);
        for (slice, exps) in s.slices.iter().zip(&s.scale_exp) {
            for (i, &ei) in exps.iter().enumerate() {
                if ei == 0 && slice.row(i).iter().all(|&v| v == 0.0) {
                    continue;
                }
                let q = pow2((ei - beta as i32).max(-1074));
                for &v in slice.row(i) {
                    if v == 0.0 {
                        continue;
                    }
                    let scaled = v / q;
                    assert_eq!(scaled.fract(), 0.0, "slice element {v} not on the grid");
                    assert!(
                        scaled.abs() <= (1u64 << beta) as f64,
                        "slice integer {scaled} exceeds 2^beta"
                    );
                }
            }
        }
    }

    #[test]
    fn split_cols_mirrors_split_rows_on_transpose() {
        let a = mk(5, 8, 11, 6);
        let at = a.transpose();
        let by_cols = split_cols(&a, 5, 64);
        let by_rows = split_rows(&at, 5, 64);
        assert_eq!(by_cols.len(), by_rows.len());
        for (sc, sr) in by_cols.slices.iter().zip(&by_rows.slices) {
            assert_eq!(&sc.transpose(), sr);
        }
    }

    #[test]
    fn zero_matrix_splits_to_nothing() {
        let z = Mat::<f64>::zeros(4, 4);
        let s = split_rows(&z, 5, 16);
        assert!(s.complete);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn incomplete_split_is_flagged() {
        let a = mk(4, 4, 13, 20);
        let s = split_rows(&a, 5, 2); // far too few slices
        assert!(!s.complete);
        assert!(s.reconstruct().max_abs_diff(&a) > 0.0);
    }

    #[test]
    fn ceil_exp_exact_powers() {
        assert_eq!(ceil_exp(1.0), 0);
        assert_eq!(ceil_exp(2.0), 1);
        assert_eq!(ceil_exp(0.5), -1);
        assert_eq!(ceil_exp(3.0), 2);
        assert_eq!(ceil_exp(0.75), 0);
        assert_eq!(ceil_exp(-3.0), 2);
    }

    #[test]
    fn ceil_exp_reads_subnormals_and_the_top_binade_off_the_bits() {
        assert_eq!(ceil_exp(pow2(-1074)), -1074);
        assert_eq!(ceil_exp(3.0 * pow2(-1074)), -1072);
        assert_eq!(ceil_exp(pow2(-1023) + pow2(-1074)), -1022);
        assert_eq!(ceil_exp(f64::MIN_POSITIVE), -1022);
        assert_eq!(ceil_exp(pow2(1023)), 1023);
        // The old log2 search saturated at i32::MAX and stepped down ~2^31
        // times for these two.
        assert_eq!(ceil_exp(f64::MAX), 1024);
        assert_eq!(ceil_exp(f64::INFINITY), 1024);
    }
}
