//! Property test: the fused split against the divide-and-`round_ties_even`
//! extraction and the separate pack pass it replaced, bit for bit — the
//! `SplitMatrix` slices, `scale_exp` and `complete`, and every engine's
//! panel words (f32, binary16, bfloat16 and i8) — over ties, signed
//! zeros, grids below 2^-1022, subnormal line maxima, top-binade lines
//! and lines that run out before the budget; and lines holding ±inf or
//! NaN, which must pack zero words with exponent 0 in every layout. At
//! β = 1 a top-binade line whose first slice overflows stores its integer
//! and is poisoned.

use super::*;
use crate::gemm::{Bf16Words, OzakiConfig, SliceEngine};
use crate::host_f16::HostF16Engine;
use crate::int8::Int8Engine;
use me_linalg::{available_variants, KernelVariant};
use me_numerics::formats::pow2_checked;
use me_numerics::Rng64;

/// The replaced `ceil_exp`: `log2`, then an exact fix-up loop.
fn old_ceil_exp(x: f64) -> i32 {
    let mut e = x.abs().log2().ceil() as i32;
    while old_pow2_safe(e) < x {
        e += 1;
    }
    while e > -1000 && old_pow2_safe(e - 1) >= x {
        e -= 1;
    }
    e
}

fn old_pow2_safe(e: i32) -> f64 {
    if (-1074..=1023).contains(&e) {
        pow2(e)
    } else if e > 1023 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// The replaced extraction: divide by the grid and round.
fn old_extract(x: f64, e: i32, beta: u32) -> (f64, f64) {
    let q = old_pow2_safe((e - beta as i32).max(-1074));
    let hi = (x / q).round_ties_even() * q;
    (hi, x - hi)
}

/// The replaced per-line split: dense per-slice values and exponents.
fn old_split_line(line: &[f64], beta: u32, max_slices: usize) -> (Vec<Vec<f64>>, Vec<i32>, bool) {
    let mut rest = line.to_vec();
    let (mut vals, mut exps, mut complete) = (Vec::new(), Vec::new(), false);
    for _ in 0..max_slices {
        let mx = rest.iter().fold(0.0f64, |m, v| if v.abs() > m { v.abs() } else { m });
        if mx == 0.0 {
            complete = true;
            break;
        }
        let e = old_ceil_exp(mx);
        let mut sv = vec![0.0f64; rest.len()];
        for (s, r) in sv.iter_mut().zip(rest.iter_mut()) {
            if *r != 0.0 {
                (*s, *r) = old_extract(*r, e, beta);
            }
        }
        vals.push(sv);
        exps.push(e);
    }
    (vals, exps, complete || rest.iter().all(|&v| v == 0.0))
}

/// The replaced `split_rows` / `split_cols`, reassembled densely.
fn old_split(a: &Mat<f64>, beta: u32, max_slices: usize, by_rows: bool) -> SplitMatrix {
    let (nlines, len) = if by_rows { a.shape() } else { (a.cols(), a.rows()) };
    let splits: Vec<_> = (0..nlines)
        .map(|li| {
            let line: Vec<f64> =
                (0..len).map(|p| if by_rows { a[(li, p)] } else { a[(p, li)] }).collect();
            old_split_line(&line, beta, max_slices)
        })
        .collect();
    let nslices = splits.iter().map(|s| s.0.len()).max().unwrap_or(0);
    let mut slices = Vec::new();
    let mut scale_exp = Vec::new();
    for p in 0..nslices {
        let mut slice = Mat::zeros(a.rows(), a.cols());
        let mut exps = vec![0i32; nlines];
        for (li, (vals, es, _)) in splits.iter().enumerate() {
            if p < vals.len() {
                exps[li] = es[p];
                for (t, &v) in vals[p].iter().enumerate() {
                    let (i, j) = if by_rows { (li, t) } else { (t, li) };
                    slice[(i, j)] = v;
                }
            }
        }
        slices.push(slice);
        scale_exp.push(exps);
    }
    let complete = splits.iter().all(|s| s.2);
    SplitMatrix { slices, scale_exp, beta, complete, by_rows }
}

/// The replaced pack pass: rescale every dense slice value and narrow it.
fn old_pack<E: SliceEngine>(s: &SplitMatrix) -> Vec<Vec<E::Word>> {
    let mut panels = Vec::new();
    for (slice, exps) in s.slices.iter().zip(&s.scale_exp) {
        let len = if s.by_rows { slice.cols() } else { slice.rows() };
        let mut buf = vec![E::Word::default(); exps.len() * len];
        for (li, &e) in exps.iter().enumerate() {
            let se = s.beta as i32 - e;
            for (p, out) in buf[li * len..(li + 1) * len].iter_mut().enumerate() {
                let v = if s.by_rows { slice[(li, p)] } else { slice[(p, li)] };
                if v != 0.0 {
                    let int = if se > 1023 {
                        (v * pow2(1023)) * pow2(se - 1023)
                    } else {
                        v * pow2_checked(se)
                    };
                    *out = E::narrow(int);
                }
            }
        }
        panels.push(buf);
    }
    panels
}

/// Raw bits of a stored word.
trait Bits: Copy {
    fn bits(self) -> u64;
}
impl Bits for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}
impl Bits for u16 {
    fn bits(self) -> u64 {
        u64::from(self)
    }
}
impl Bits for i8 {
    fn bits(self) -> u64 {
        u64::from(self as u8)
    }
}

fn mat_bits(m: &Mat<f64>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One line of a given kind, `len` long.
fn line(rng: &mut Rng64, kind: usize, beta: u32, len: usize) -> Vec<f64> {
    let tiny = pow2(-1060);
    (0..len)
        .map(|_| match kind {
            // Ties: odd multiples of half the first slice's grid under a
            // line maximum of 2^10 (pinned by the first element).
            0 => {
                let half = pow2(10 - beta as i32 - 1);
                let odd = (2 * rng.range_usize(0, 1 << beta) + 1) as f64;
                if rng.chance(0.5) {
                    odd * half
                } else {
                    -odd * half
                }
            }
            // Signed zeros among moderate values.
            1 => match rng.range_usize(0, 3) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.range_f64(-1.0, 1.0),
            },
            // Line maxima near 2^-1015: grids below 2^-1022 (the division
            // fallback) from the first slice on.
            2 => rng.range_f64(-1.0, 1.0) * pow2(-1015),
            // Subnormal line maxima: grids clamped at 2^-1074.
            3 => rng.range_f64(-1.0, 1.0) * tiny * pow2(-6),
            // Few significant bits: the residual runs out early.
            4 => (rng.range_usize(0, 64) as f64 - 32.0) * pow2(rng.range_usize(0, 8) as i32),
            // Wide range across the line.
            5 => rng.range_f64(-1.0, 1.0) * pow2(rng.range_usize(0, 120) as i32 - 60),
            // The top binade, maximum below `1.25 · 2^1023`: exponent
            // 1024, and a first slice that does not round up to `2^1024`.
            6 if rng.chance(0.5) => rng.range_f64(-1.25, 1.25) * pow2(1023),
            6 => rng.range_f64(-1.0, 1.0),
            // ±inf or NaN among moderate values.
            _ => match rng.range_usize(0, 8) {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                2 => f64::NAN,
                _ => rng.range_f64(-1.0, 1.0),
            },
        })
        .enumerate()
        .map(|(t, v)| if kind == 0 && t == 0 { pow2(10) } else { v })
        .collect()
}

/// Kinds of [`line`] that hold only finite values.
const FINITE_KINDS: usize = 7;
/// The kind of [`line`] that holds ±inf or NaN.
const NON_FINITE: usize = FINITE_KINDS;

fn matrix(rng: &mut Rng64, beta: u32, rows: usize, cols: usize) -> Mat<f64> {
    let lines: Vec<Vec<f64>> = (0..rows).map(|i| line(rng, i % FINITE_KINDS, beta, cols)).collect();
    Mat::from_fn(rows, cols, |i, j| lines[i][j])
}

fn assert_same_split(new: &SplitMatrix, old: &SplitMatrix, label: &str) {
    assert_eq!(new.len(), old.len(), "{label}: slice count");
    assert_eq!(new.scale_exp, old.scale_exp, "{label}: scale_exp");
    assert_eq!(new.complete, old.complete, "{label}: complete");
    for (p, (x, y)) in new.slices.iter().zip(&old.slices).enumerate() {
        assert_eq!(mat_bits(x), mat_bits(y), "{label}: slice {p}");
    }
}

/// One operand split by [`split_panels`], copied out of the workspace.
struct Owned<W> {
    words: Vec<Vec<W>>,
    exps: Vec<Vec<i32>>,
    complete: bool,
    poisoned: Vec<usize>,
}

/// `src` split at `beta` into at most `budget` of `E`'s words, packed by
/// `pack`, on `kernel` and `pool`.
fn owned_split<E: SliceEngine>(
    src: Source<'_>,
    beta: u32,
    budget: usize,
    kernel: KernelVariant,
    pool: Option<&WorkerPool>,
    pack: Pack,
) -> Owned<E::Word> {
    let sources = (src, Source::Line(&[]));
    let mut plan = Plan::<E::Word, f64>::new(sources, (pack, pack), (beta, budget), (0, 0));
    with_arena(|arena| {
        let words = Words { narrow: |r, _| E::narrow(r), simd: Some(E::SIMD_WORD) };
        let split = plan.split(arena, kernel, pool, &words);
        let p = plan.carve(arena, split).a;
        Owned {
            words: p.iter().map(|(w, _)| w.to_vec()).collect(),
            exps: p.iter().map(|(_, e)| e.to_vec()).collect(),
            complete: p.complete,
            poisoned: p.poisoned().collect(),
        }
    })
}

/// The engine words `split_panels` writes on `kernel` against the
/// replaced pack pass: line-major, and in the engine's A and B layouts
/// (chunks of 10, so tail groups and tail chunks occur; serial and on
/// `pool`) against the same words packed one line at a time.
fn assert_same_words<E: SliceEngine>(
    a: &Mat<f64>,
    old: &SplitMatrix,
    budget: usize,
    kernel: KernelVariant,
    pool: &WorkerPool,
    label: &str,
) where
    E::Word: Bits,
{
    let src = if old.by_rows { Source::Rows(a) } else { Source::Cols(a) };
    let (lines, len) = (src.lines(), src.len());
    let split = |pack, pool| owned_split::<E>(src, old.beta, budget, kernel, pool, pack);
    let new = split(Pack::lines(len), None);
    let want = old_pack::<E>(old);
    let bits = |w: &[E::Word]| w.iter().map(|w| w.bits()).collect::<Vec<u64>>();
    assert_eq!(new.exps, old.scale_exp, "{label}: panel exponents");
    assert_eq!(new.words.len(), want.len(), "{label}: panel count");
    for (p, (x, y)) in new.words.iter().zip(&want).enumerate() {
        assert_eq!(bits(x), bits(y), "{label}: panel {p} words");
    }
    let kb = 10;
    for layout in [E::LAYOUT_A, E::LAYOUT_B] {
        for pool in [None, Some(pool)] {
            let packed = split(Pack { layout, kb }, pool);
            assert_eq!(packed.words.len(), want.len(), "{label}: {layout:?} panel count");
            for (p, (x, y)) in packed.words.iter().zip(&want).enumerate() {
                let mut expect = layout.blank(lines, len, kb);
                for (li, line) in y.chunks(len.max(1)).enumerate().take(lines) {
                    layout.put_line(&mut expect, li, line, kb);
                }
                assert_eq!(bits(x), bits(&expect), "{label}: {layout:?} panel {p}");
            }
        }
    }
}

/// `bad`, which is `good` with the lines `lines` made to hold ±inf or
/// NaN, split by [`split_panels`] on `kernel` (serially and on `pool`),
/// line-major and in `E`'s A and B layouts: every slice's words and
/// exponents are those of `good` with those lines zero — the stored zero
/// in every layout, exponent 0 — the split is not complete, and
/// `Panels::poisoned` lists exactly those lines.
#[allow(clippy::too_many_arguments)]
fn assert_poisoned_lines<E: SliceEngine>(
    (bad, good): (&Mat<f64>, &Mat<f64>),
    lines: &[usize],
    by_rows: bool,
    (beta, budget): (u32, usize),
    kernel: KernelVariant,
    pool: &WorkerPool,
    label: &str,
) where
    E::Word: Bits,
{
    let src = |m| if by_rows { Source::Rows(m) } else { Source::Cols(m) };
    let len = src(bad).len();
    let bits = |w: &[E::Word]| w.iter().map(|w| w.bits()).collect::<Vec<u64>>();
    for layout in [PanelLayout::LINES, E::LAYOUT_A, E::LAYOUT_B] {
        let kb = if layout == PanelLayout::LINES { len.max(1) } else { 10 };
        for pool in [None, Some(pool)] {
            let l = format!("{label}, {layout:?}, pool {}", pool.is_some());
            let split =
                |m| owned_split::<E>(src(m), beta, budget, kernel, pool, Pack { layout, kb });
            let (got, want) = (split(bad), split(good));
            assert_eq!(got.poisoned, lines, "{l}: poisoned lines");
            assert!(!got.complete, "{l}: a split with a poisoned line is not complete");
            assert_eq!(got.exps, want.exps, "{l}: exponents");
            assert!(got.exps.iter().all(|e| lines.iter().all(|&li| e[li] == 0)), "{l}: exponent");
            assert_eq!(got.words.len(), want.words.len(), "{l}: panel count");
            for (p, (x, y)) in got.words.iter().zip(&want.words).enumerate() {
                assert_eq!(bits(x), bits(y), "{l}: panel {p} words");
            }
        }
    }
}

/// [`assert_poisoned_lines`] on a matrix of [`matrix`]'s lines with lines
/// 1 and `rows − 2` made to hold ±inf or NaN, for `E`.
#[allow(clippy::too_many_arguments)]
fn poison_some_lines<E: SliceEngine>(
    rng: &mut Rng64,
    good: &Mat<f64>,
    by_rows: bool,
    (beta, budget): (u32, usize),
    kernel: KernelVariant,
    pool: &WorkerPool,
    label: &str,
) where
    E::Word: Bits,
{
    let (rows, cols) = good.shape();
    let (nlines, len) = if by_rows { (rows, cols) } else { (cols, rows) };
    let lines = [1, nlines - 2];
    let (mut bad, mut zeroed) = (good.clone(), good.clone());
    for &li in &lines {
        let values = line(rng, NON_FINITE, beta, len);
        for (p, v) in values.into_iter().enumerate() {
            let at = if by_rows { (li, p) } else { (p, li) };
            // At least one non-finite value per line.
            bad[at] = if p == li % len { f64::NAN } else { v };
            zeroed[at] = 0.0;
        }
    }
    let l = format!("{label}, non-finite lines");
    assert_poisoned_lines::<E>((&bad, &zeroed), &lines, by_rows, (beta, budget), kernel, pool, &l);
}

#[test]
fn ceil_exp_matches_log2_fixup() {
    let mut rng = Rng64::seed_from_u64(7);
    let edges = [pow2(-1074), 3.0 * pow2(-1074), f64::MIN_POSITIVE, pow2(-1023), 1.0, f64::MAX];
    let random = (0..20_000).map(|_| f64::from_bits(rng.next_u64() >> 1 | 1));
    for x in edges.into_iter().chain(random).filter(|x| x.is_finite()) {
        assert_eq!(ceil_exp(x), old_ceil_exp(x), "{x:e}");
    }
}

#[test]
fn fused_split_matches_divide_and_round_bitwise() {
    // Every variant the host runs; 33 lines fill one 32-line int8 B tile
    // and leave a partial one.
    let pool = WorkerPool::new(3);
    for kernel in available_variants() {
        let mut rng = Rng64::seed_from_u64(11);
        for beta in [1u32, 3, 5, 6, 8, 11, 17, 23, 26] {
            for budget in [1usize, 3, 64] {
                for (rows, cols) in [(13, 24), (33, 40)] {
                    let a = matrix(&mut rng, beta, rows, cols);
                    for by_rows in [true, false] {
                        let label = format!(
                            "{kernel}, {rows}x{cols}, beta {beta}, budget {budget}, by_rows {by_rows}"
                        );
                        let old = old_split(&a, beta, budget, by_rows);
                        let new = split_matrix(&a, beta, budget, by_rows, kernel, None);
                        assert_same_split(&new, &old, &label);
                        let pooled = split_matrix(&a, beta, budget, by_rows, kernel, Some(&pool));
                        assert_same_split(&pooled, &old, &format!("{label}, 3-wide pool"));
                        let shape = (beta, budget);
                        if beta <= 23 {
                            let l = format!("{label}, f32");
                            assert_same_words::<OzakiConfig>(&a, &old, budget, kernel, &pool, &l);
                            let r = &mut rng;
                            poison_some_lines::<OzakiConfig>(
                                r, &a, by_rows, shape, kernel, &pool, &l,
                            );
                        }
                        if beta <= 11 {
                            let l = format!("{label}, f16");
                            assert_same_words::<HostF16Engine>(&a, &old, budget, kernel, &pool, &l);
                            let r = &mut rng;
                            poison_some_lines::<HostF16Engine>(
                                r, &a, by_rows, shape, kernel, &pool, &l,
                            );
                        }
                        if beta <= 8 {
                            let l = format!("{label}, bf16");
                            assert_same_words::<Bf16Words>(&a, &old, budget, kernel, &pool, &l);
                            let r = &mut rng;
                            poison_some_lines::<Bf16Words>(
                                r, &a, by_rows, shape, kernel, &pool, &l,
                            );
                        }
                        if beta <= 6 {
                            let l = format!("{label}, i8");
                            assert_same_words::<Int8Engine>(&a, &old, budget, kernel, &pool, &l);
                            let r = &mut rng;
                            poison_some_lines::<Int8Engine>(
                                r, &a, by_rows, shape, kernel, &pool, &l,
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn beta_1_top_binade_overflow_stores_its_integer_and_poisons_the_line() {
    // At β = 1 a line maximum in the top binade has the grid 2^1023,
    // above f64's normal `2^(β − e)`: 1.75 · 2^1023 rounds up to the
    // integer 2, whose slice value 2^1024 overflows. The integer is
    // stored, the line is poisoned and the other line splits as usual.
    let a = Mat::from_vec(2, 2, vec![1.75 * pow2(1023), 1.0, 0.75, -0.5]);
    for kernel in available_variants() {
        for layout in [PanelLayout::LINES, PanelLayout::I8_A] {
            let kb = if layout == PanelLayout::LINES { 2 } else { 10 };
            let label = format!("{kernel}, {layout:?}");
            let pack = Pack { layout, kb };
            let p = owned_split::<Int8Engine>(Source::Rows(&a), 1, 64, kernel, None, pack);
            assert_eq!(p.poisoned, [0], "{label}: poisoned lines");
            assert!(!p.complete, "{label}: complete");
            assert_eq!(p.exps[0], [1024, 0], "{label}: slice 0 exponents");
            let want = Int8Engine::narrow(2.0).stored(layout.format);
            assert_eq!(p.words[0][layout.slot(0, 0, 0, 2, kb)], want, "{label}: slice 0 word");
        }
    }
}
