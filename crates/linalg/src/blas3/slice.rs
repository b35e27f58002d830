//! The per-slice pass of the Ozaki split, over a residual in panel order.
//!
//! The split (`me_ozaki::split`) keeps each operand's residual in the
//! order its engine's [`PanelLayout`] stores words, so that residual
//! `x[i]` becomes word `w[i]`: padding rows, k pads and int8 sum slots
//! hold `+0`. One slice is then one elementwise pass ([`slice_pass`]):
//! each `x` splits into the slice integer `r = round_ties_even(x · 2^(β −
//! e))` of its line's scale exponent `e` and the residual `x − r · 2^(e −
//! β)` left in place, and `r` is stored as the word. A line's elements
//! sit at fixed lanes of the layout, so the scale repeats with the
//! layout's period, or is one broadcast per run of a line.
//!
//! **Same bits on every variant.** Each element goes through the same
//! IEEE double operations in the same order, none fused: `y = x · s`,
//! `t = (|y| + R) − R` (`R = 1.5 · 2^52`, so `t` is `|y|` rounded to an
//! integer, ties to even, for `|y| ≤ 2^51`), `r = copysign(t, y)`,
//! `hi = r · q`, `x − hi`. The slice integer has at most β bits, within
//! the word's precision, so its conversion to an f32, bfloat16, binary16
//! or i8 word is exact whatever instruction does it. On
//! [`KernelVariant::Avx512`] a hand-written kernel runs the pass 8 lanes
//! at a time for the words [`SliceWord`] names; elsewhere, and for other
//! words, the plain-Rust pass runs, compiled for the caller's variant
//! (`KernelVariant::run`). Both write the same words, residuals, lane
//! maxima and lane sums.

use super::panel::{PanelFormat, PanelWord};
use super::ukernel::KernelVariant;

/// `1.5 · 2^52`: for `|y| ≤ 2^51`, `((|y| + ROUND) − ROUND)` is `|y|`
/// rounded to an integer, ties to even.
const ROUND: f64 = 6_755_399_441_055_744.0;
/// Every bit of an f64 but the sign.
const MAGNITUDE: u64 = !(1 << 63);

/// How [`slice_pass`]'s AVX-512 kernel stores a slice integer `r`: the
/// word the caller's `word(r + 0, hi)` returns, taken by a vector
/// conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceWord {
    /// `r` as an f32 (`vcvtpd2ps`).
    F32,
    /// The high half of `r` as an f32: its bfloat16 bits.
    Bf16,
    /// `r` as an IEEE binary16 (`vcvtps2ph`).
    F16,
    /// `r` as an i8: the low byte of `r + 1.5 · 2^52`.
    I8,
}

impl SliceWord {
    /// Bytes of the word.
    fn bytes(self) -> usize {
        match self {
            SliceWord::F32 => 4,
            SliceWord::Bf16 | SliceWord::F16 => 2,
            SliceWord::I8 => 1,
        }
    }
}

/// Per-lane factors and running results of one [`slice_pass`]; every
/// slice is one entry per lane (`sum` may be empty).
#[derive(Debug)]
pub struct SliceLanes<'a> {
    /// Each lane's `2^(β − e)`, normal, for a line whose every element has
    /// `|x| ≤ 2^e ≤ 2^1023` and a width `β ≤ 26`, so `r · q` is at most
    /// `2^e` and exact; 0 for a lane that holds only zeros, or whose line
    /// the caller splits another way (its residual is left as it is).
    pub scale: &'a [f64],
    /// Each lane's grid `2^(e − β)` (0 where `scale` is).
    pub grid: &'a [f64],
    /// Each lane's largest residual magnitude bits so far.
    pub max: &'a mut [u64],
    /// Each lane's sum of slice integers so far, kept for i8 words; empty
    /// otherwise.
    pub sum: &'a mut [i64],
}

/// One slice of the residual `x` into the words `w` (as long as `x`).
/// Element `i` is in lane `l = (i / run) % lanes`: `run == 1` repeats the
/// lanes along `x` (a grouped layout's period; `x` is then a whole number
/// of periods), a longer `run` gives each lane `run` elements in a row
/// (one line's padded chunk). Each element `x` becomes
/// `r = copysign((|x·s| + R) − R, x·s)` and `hi = r · q` for its lane's
/// `s = scale[l]`, `q = grid[l]`; `w[i] = word(r + 0, hi)` as `format`
/// stores it, `x[i] = x − hi`, `max[l]` takes the magnitude bits of the
/// new `x[i]` and `sum[l]` adds `r`. On [`KernelVariant::Avx512`] with
/// `simd` naming what `word` does, the AVX-512 kernel runs the pass; the
/// bits never depend on which (module docs).
// me-verify: hot
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub fn slice_pass<W: PanelWord>(
    variant: KernelVariant,
    x: &mut [f64],
    w: &mut [W],
    run: usize,
    lanes: SliceLanes<'_>,
    format: PanelFormat,
    word: &impl Fn(f64, f64) -> W,
    simd: Option<SliceWord>,
) {
    let n = lanes.scale.len();
    assert!(
        x.len() == w.len()
            && run > 0
            && n > 0
            && lanes.grid.len() == n
            && lanes.max.len() == n
            && (lanes.sum.is_empty() || (W::INT8 && lanes.sum.len() == n))
            && (run > 1 || x.len() % n == 0),
        "slice_pass: residual, words and lanes disagree"
    );
    match simd {
        Some(kind)
            if variant.resolve_supported() == KernelVariant::Avx512 && (run > 1 || n % L == 0) =>
        {
            assert_eq!(size_of::<W>(), kind.bytes(), "slice_pass: word size");
            slice_avx512(x, w, run, lanes, format, word, kind)
        }
        _ if W::INT8 && !lanes.sum.is_empty() => pass::<W, true>(x, w, run, lanes, format, word),
        _ => pass::<W, false>(x, w, run, lanes, format, word),
    }
}

/// One element of the pass: returns the new residual's magnitude bits and
/// the slice integer.
#[inline(always)]
fn step<W: PanelWord>(
    x: &mut f64,
    w: &mut W,
    (s, q): (f64, f64),
    format: PanelFormat,
    word: &impl Fn(f64, f64) -> W,
) -> (u64, f64) {
    let y = *x * s;
    let r = ((y.abs() + ROUND) - ROUND).copysign(y);
    let hi = r * q;
    *x -= hi;
    *w = word(r + 0.0, hi).stored(format);
    (x.to_bits() & MAGNITUDE, r)
}

/// The plain-Rust pass, keeping lane sums if `SUM`.
#[inline(always)]
fn pass<W: PanelWord, const SUM: bool>(
    x: &mut [f64],
    w: &mut [W],
    run: usize,
    lanes: SliceLanes<'_>,
    format: PanelFormat,
    word: &impl Fn(f64, f64) -> W,
) {
    let SliceLanes { scale, grid, max, sum } = lanes;
    let n = scale.len();
    if run == 1 {
        for (xs, ws) in x.chunks_exact_mut(n).zip(w.chunks_exact_mut(n)) {
            for l in 0..n {
                let (m, r) = step(&mut xs[l], &mut ws[l], (scale[l], grid[l]), format, word);
                max[l] = max[l].max(m);
                if SUM {
                    sum[l] += r as i64;
                }
            }
        }
        return;
    }
    for (j, (xs, ws)) in x.chunks_mut(run).zip(w.chunks_mut(run)).enumerate() {
        let l = j % n;
        let (mut m, mut s) = (max[l], 0);
        for (x, w) in xs.iter_mut().zip(ws) {
            let (b, r) = step(x, w, (scale[l], grid[l]), format, word);
            m = m.max(b);
            s += r as i64;
        }
        max[l] = m;
        if SUM {
            sum[l] += s;
        }
    }
}

/// [`SliceWord`]s as the const parameter of [`pass_avx512`].
const F32: u8 = 0;
const BF16: u8 = 1;
const F16: u8 = 2;
const I8: u8 = 3;

/// [`slice_pass`] on the AVX-512 kernel (the caller resolved the
/// variant), one compilation per word; the last `run % 8` elements of
/// each run take the plain step.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn slice_avx512<W: PanelWord>(
    x: &mut [f64],
    w: &mut [W],
    run: usize,
    mut lanes: SliceLanes<'_>,
    format: PanelFormat,
    word: &impl Fn(f64, f64) -> W,
    kind: SliceWord,
) {
    let (pw, l) = (w.as_mut_ptr().cast::<u8>(), &mut lanes);
    // SAFETY: the caller resolved `Avx512`, so `avx512_supported()`
    // proved AVX512F; `slice_pass` asserted the lengths, the word size and
    // the lanes `pass_avx512` relies on, and `pw` holds `x.len()` words.
    unsafe {
        match kind {
            SliceWord::F32 => pass_avx512::<F32>(x, pw, run, l, format),
            SliceWord::Bf16 => pass_avx512::<BF16>(x, pw, run, l, format),
            SliceWord::F16 => pass_avx512::<F16>(x, pw, run, l, format),
            SliceWord::I8 => pass_avx512::<I8>(x, pw, run, l, format),
        }
    }
    let SliceLanes { scale, grid, max, sum } = lanes;
    if run == 1 {
        return;
    }
    let n = scale.len();
    for (j, start) in (0..x.len()).step_by(run).enumerate() {
        let (l, end) = (j % n, (start + run).min(x.len()));
        let tail = start + (end - start) / L * L..end;
        for (x, w) in x[tail.clone()].iter_mut().zip(&mut w[tail]) {
            let (b, r) = step(x, w, (scale[l], grid[l]), format, word);
            max[l] = max[l].max(b);
            if !sum.is_empty() {
                sum[l] += r as i64;
            }
        }
    }
}

/// Non-x86 stand-in (never chosen there).
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn slice_avx512<W: PanelWord>(
    x: &mut [f64],
    w: &mut [W],
    run: usize,
    lanes: SliceLanes<'_>,
    format: PanelFormat,
    word: &impl Fn(f64, f64) -> W,
    _kind: SliceWord,
) {
    pass::<W, true>(x, w, run, lanes, format, word)
}

/// The AVX-512 pass for word `K` ([`F32`], [`BF16`], [`F16`] or [`I8`])
/// over `x` and the words at `pw`: 16 elements per step where it can,
/// else 8 ([`slice8`], [`store16`], [`store8`]). Repeated lanes (`run ==
/// 1`) go 16 (or 8) lanes at a time down the whole of `x`, with those
/// lanes' factors, maxima and sums in registers; a run broadcasts its
/// lane's factors, and its last `run % 8` elements are left to the
/// caller. Not inlined: one copy per word serves every caller.
///
/// # Safety
///
/// Caller must guarantee AVX512F, `x.len()` words of `K` at `pw`, every
/// lane slice as long as `lanes.scale` (`sum` empty or as long, and kept
/// only for [`I8`]) and, for `run == 1`, a lane count that is a multiple
/// of 8 and an `x.len()` that is a multiple of the lane count.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline(never)]
unsafe fn pass_avx512<const K: u8>(
    x: &mut [f64],
    pw: *mut u8,
    run: usize,
    lanes: &mut SliceLanes<'_>,
    format: PanelFormat,
) {
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_epi64, _mm512_loadu_pd,
        _mm512_max_epu64, _mm512_reduce_add_epi64, _mm512_reduce_max_epu64, _mm512_set1_epi64,
        _mm512_set1_pd, _mm512_setzero_si512, _mm512_storeu_epi64,
    };
    let SliceLanes { scale, grid, max, sum } = lanes;
    let n = scale.len();
    let magnitude = _mm512_set1_epi64(MAGNITUDE as i64);
    let keep = K == I8 && !sum.is_empty();
    // i8 words are the low byte of `r + bias`, whose bits are those of
    // `bias` plus `r`: a lane's sum of `r` is its sum of those bits less
    // `bias`'s once per element.
    let bias = ROUND + if format == PanelFormat::Offset { 128.0 } else { 0.0 };
    let unbias = |sum: i64, count: usize| {
        sum.wrapping_sub((bias.to_bits() as i64).wrapping_mul(count as i64))
    };
    let (bias, px) = (_mm512_set1_pd(bias), x.as_mut_ptr());
    let size = if K == I8 {
        1
    } else if K == F32 {
        4
    } else {
        2
    };
    let at = |i: usize| pw.add(i * size);
    // The lane maximum `m` and sum `acc` taking one step's residuals and
    // i8 bits.
    let fold = |m: &mut __m512i, acc: &mut __m512i, nx: __m512i, ints: __m512i| {
        *m = _mm512_max_epu64(*m, _mm512_and_si512(nx, magnitude));
        if keep {
            *acc = _mm512_add_epi64(*acc, ints);
        }
    };
    let add_sums = |sum: &mut [i64], acc: __m512i, count: usize| {
        let mut sums = [0i64; L];
        _mm512_storeu_epi64(sums.as_mut_ptr(), acc);
        for (t, s) in sum.iter_mut().zip(sums) {
            *t += unbias(s, count);
        }
    };
    if run == 1 {
        let (rows, wide) = (x.len() / n, n % (2 * L) == 0);
        let halves = if wide { 2 } else { 1 };
        for l in (0..n).step_by(halves * L) {
            // SAFETY (pointers): l + 8 · halves <= n, so the lane loads
            // and stores are in bounds, and each step's last element
            // `row · n + l + 8 · halves − 1` is below `x.len() = rows · n`.
            let lane = |v: &[f64], h: usize| _mm512_loadu_pd(v.as_ptr().add(l + h * L));
            let (s, q) = ([lane(scale, 0), lane(scale, 1)], [lane(grid, 0), lane(grid, 1)]);
            let mut m = [_mm512_setzero_si512(); 2];
            for (h, m) in m.iter_mut().enumerate().take(halves) {
                *m = _mm512_loadu_epi64(max.as_ptr().add(l + h * L).cast());
            }
            let mut acc = [_mm512_setzero_si512(); 2];
            for row in 0..rows {
                let i = row * n + l;
                let (nx0, r0) = slice8(px.add(i), s[0], q[0]);
                if wide {
                    let (nx1, r1) = slice8(px.add(i + L), s[1], q[1]);
                    let ints = store16::<K>(at(i), r0, r1, bias);
                    fold(&mut m[0], &mut acc[0], nx0, ints[0]);
                    fold(&mut m[1], &mut acc[1], nx1, ints[1]);
                } else {
                    fold(&mut m[0], &mut acc[0], nx0, store8::<K>(at(i), r0, bias));
                }
            }
            for (h, (m, acc)) in m.iter().zip(acc).enumerate().take(halves) {
                _mm512_storeu_epi64(max.as_mut_ptr().add(l + h * L).cast(), *m);
                if keep {
                    add_sums(&mut sum[l + h * L..l + (h + 1) * L], acc, rows);
                }
            }
        }
        return;
    }
    for (j, start) in (0..x.len()).step_by(run).enumerate() {
        let l = j % n;
        let (s, q) = (_mm512_set1_pd(scale[l]), _mm512_set1_pd(grid[l]));
        let (mut m, mut acc) = ([_mm512_setzero_si512(); 2], [_mm512_setzero_si512(); 2]);
        let len = run.min(x.len() - start);
        let (wide, body) = (len - len % (2 * L), len - len % L);
        for i in (start..start + wide).step_by(2 * L) {
            // SAFETY (pointers): i + 16 <= start + len <= x.len().
            let (nx0, r0) = slice8(px.add(i), s, q);
            let (nx1, r1) = slice8(px.add(i + L), s, q);
            let ints = store16::<K>(at(i), r0, r1, bias);
            fold(&mut m[0], &mut acc[0], nx0, ints[0]);
            fold(&mut m[1], &mut acc[1], nx1, ints[1]);
        }
        if body > wide {
            // SAFETY (pointers): start + body <= start + len <= x.len().
            let i = start + wide;
            let (nx, r) = slice8(px.add(i), s, q);
            fold(&mut m[0], &mut acc[0], nx, store8::<K>(at(i), r, bias));
        }
        max[l] = max[l].max(_mm512_reduce_max_epu64(_mm512_max_epu64(m[0], m[1])));
        if keep {
            let bits = _mm512_reduce_add_epi64(_mm512_add_epi64(acc[0], acc[1]));
            sum[l] += unbias(bits, body);
        }
    }
}

/// [`slice_pass`]'s operations on the 8 residuals at `px`: stores and
/// returns the new residuals (as bits) and returns the slice integers.
///
/// The integer is `(y + R) − R` here, without the plain step's `|y|` and
/// `copysign`: for `|y| ≤ 2^51` it is the same integer, and only the
/// sign of a zero differs (`+0` here), which neither `x − r · q` nor the
/// word (of `r + 0`) can see. And `x − r · q` is one fused
/// multiply-add: `r · q` and `x − r · q` are both exact (the split is
/// error-free, and `r · q` is at most `2^e ≤ 2^1023`), so rounding once
/// or twice gives the same bits.
///
/// # Safety
///
/// Caller must guarantee AVX512F and 8 f64s at `px`.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn slice8(
    px: *mut f64,
    s: std::arch::x86_64::__m512d,
    q: std::arch::x86_64::__m512d,
) -> (std::arch::x86_64::__m512i, std::arch::x86_64::__m512d) {
    use std::arch::x86_64::{
        _mm512_add_pd, _mm512_castpd_si512, _mm512_fnmadd_pd, _mm512_loadu_pd, _mm512_mul_pd,
        _mm512_set1_pd, _mm512_storeu_pd, _mm512_sub_pd,
    };
    let round = _mm512_set1_pd(ROUND);
    let x = _mm512_loadu_pd(px);
    let r = _mm512_sub_pd(_mm512_add_pd(_mm512_mul_pd(x, s), round), round);
    let nx = _mm512_fnmadd_pd(r, q, x);
    _mm512_storeu_pd(px, nx);
    (_mm512_castpd_si512(nx), r)
}

/// Store the 8 slice integers `r` as words `K` at `pw`; for [`I8`],
/// returns the bits of each `r + bias` (zeros otherwise).
///
/// # Safety
///
/// Caller must guarantee AVX512F and 8 words of `K` at `pw`.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn store8<const K: u8>(
    pw: *mut u8,
    r: std::arch::x86_64::__m512d,
    bias: std::arch::x86_64::__m512d,
) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::{
        __m128i, _mm256_castsi256_si128, _mm256_storeu_ps, _mm512_add_pd, _mm512_castpd_si512,
        _mm512_castps256_ps512, _mm512_castps_si512, _mm512_cvtepi32_epi16, _mm512_cvtepi64_epi8,
        _mm512_cvtpd_ps, _mm512_cvtps_ph, _mm512_setzero_si512, _mm512_srli_epi32,
        _mm_storel_epi64, _mm_storeu_si128,
    };
    if K == I8 {
        let ints = _mm512_castpd_si512(_mm512_add_pd(r, bias));
        _mm_storel_epi64(pw.cast::<__m128i>(), _mm512_cvtepi64_epi8(ints));
        return ints;
    }
    // `r` as f32, exact (and +0 for a zero); the upper half of the
    // widened vector is never stored.
    let f = _mm512_cvtpd_ps(r);
    let wide = _mm512_castps256_ps512(f);
    match K {
        F32 => _mm256_storeu_ps(pw.cast::<f32>(), f),
        BF16 => {
            let bits = _mm512_cvtepi32_epi16(_mm512_srli_epi32::<16>(_mm512_castps_si512(wide)));
            _mm_storeu_si128(pw.cast::<__m128i>(), _mm256_castsi256_si128(bits));
        }
        _ => {
            let half = _mm512_cvtps_ph::<RN>(wide);
            _mm_storeu_si128(pw.cast::<__m128i>(), _mm256_castsi256_si128(half));
        }
    }
    _mm512_setzero_si512()
}

/// [`store8`] of `r0` and then `r1`, the half-precision words packed from
/// one 16-lane f32 vector.
///
/// # Safety
///
/// Caller must guarantee AVX512F and 16 words of `K` at `pw`.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn store16<const K: u8>(
    pw: *mut u8,
    r0: std::arch::x86_64::__m512d,
    r1: std::arch::x86_64::__m512d,
    bias: std::arch::x86_64::__m512d,
) -> [std::arch::x86_64::__m512i; 2] {
    use std::arch::x86_64::{
        __m256i, _mm256_castps_pd, _mm256_storeu_si256, _mm512_castpd_ps, _mm512_castps256_ps512,
        _mm512_castps_pd, _mm512_castps_si512, _mm512_cvtepi32_epi16, _mm512_cvtpd_ps,
        _mm512_cvtps_ph, _mm512_insertf64x4, _mm512_setzero_si512, _mm512_srli_epi32,
    };
    if K == I8 || K == F32 {
        let size = if K == I8 { 1 } else { 4 };
        return [store8::<K>(pw, r0, bias), store8::<K>(pw.add(L * size), r1, bias)];
    }
    let lo = _mm512_castps_pd(_mm512_castps256_ps512(_mm512_cvtpd_ps(r0)));
    let hi = _mm256_castps_pd(_mm512_cvtpd_ps(r1));
    let f = _mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, hi));
    let words = if K == BF16 {
        _mm512_cvtepi32_epi16(_mm512_srli_epi32::<16>(_mm512_castps_si512(f)))
    } else {
        _mm512_cvtps_ph::<RN>(f)
    };
    _mm256_storeu_si256(pw.cast::<__m256i>(), words);
    [_mm512_setzero_si512(); 2]
}

/// f64 lanes of one AVX-512 step.
const L: usize = 8;

/// `vcvtps2ph`'s rounding: to nearest, no exceptions (the values are
/// exact anyway).
#[cfg(target_arch = "x86_64")]
const RN: i32 = std::arch::x86_64::_MM_FROUND_TO_NEAREST_INT | std::arch::x86_64::_MM_FROUND_NO_EXC;
