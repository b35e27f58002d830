//! The double-double tile fold behind every Ozaki engine call.
//!
//! An Ozaki engine call returns a tile of exact chunk sums; the scheme
//! scales each back by a power of two and adds it into a per-element
//! double-double accumulator (`me_numerics::sum::Accumulator`). This
//! module does that fold on the kernel variant the engine calls ran on,
//! over struct-of-arrays `hi`/`lo` rows: 8 lanes of `__m512d` on
//! [`KernelVariant::Avx512`], 4 of `__m256d` on [`KernelVariant::Avx2`],
//! one element at a time on [`KernelVariant::Scalar`] and for the columns
//! past the last whole vector.
//!
//! **Same bits on every variant.** Each lane performs the operations of
//! `Accumulator::add(s · 2^e)` in their order: the exact conversion of the
//! sum to f64, one multiply by the scale, `two_sum`, `lo + e`,
//! `fast_two_sum` — each a separate correctly-rounded IEEE double op (the
//! multiply is never fused into an add). A zero sum keeps the old
//! accumulator, chosen per lane by a compare mask instead of a branch.
//! IEEE results do not depend on the register width, so every variant
//! writes the scalar fold's bits, NaN and infinity included.
//!
//! **Scale from exponent bits.** Where every exponent sum
//! `e_a[i] + e_b[j] − 2β` of the tile is in f64's normal range, the scale
//! is built in-register as the bits `(e + 1023) << 52`. A tile with any sum
//! outside that range folds on the scalar path, which scales with
//! [`me_numerics::formats::pow2_checked`].

use super::ukernel::KernelVariant;
use me_numerics::eft::{fast_two_sum, two_sum};
use me_numerics::formats::pow2_checked;

mod sealed {
    /// Closes [`super::FoldSum`] to the three sum types the SIMD folds
    /// convert.
    pub trait Sealed {}
    impl Sealed for i32 {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// How the SIMD folds convert a [`FoldSum`] to f64 lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumKind {
    /// `vcvtdq2pd`.
    I32,
    /// `vcvtps2pd`.
    F32,
    /// Loaded as it is.
    F64,
}

/// An engine call's chunk sum: `i32` (INT8 calls), `f32` (f32 and half
/// calls) or `f64` (the systolic simulator). Sealed: `KIND` names the
/// type, which the SIMD folds rely on to read a tile.
pub trait FoldSum: Copy + Into<f64> + sealed::Sealed {
    /// This type's conversion.
    const KIND: SumKind;
}

impl FoldSum for i32 {
    const KIND: SumKind = SumKind::I32;
}

impl FoldSum for f32 {
    const KIND: SumKind = SumKind::F32;
}

impl FoldSum for f64 {
    const KIND: SumKind = SumKind::F64;
}

/// Fold one engine call's `a_exp.len() × b_exp.len()` tile of chunk sums
/// (row-major, `n = b_exp.len()` columns) into the double-double
/// accumulators `(hi, lo)` of the same shape: element `(i, j)` adds
/// `tile[i·n + j] · 2^(a_exp[i] + b_exp[j] − 2β)` unless the sum is zero.
/// Runs on `variant` (degraded by `resolve_supported`); every variant
/// gives the same bits (module docs).
// me-verify: hot
pub fn fold_tile<T: FoldSum>(
    variant: KernelVariant,
    tile: &[T],
    a_exp: &[i32],
    b_exp: &[i32],
    beta: u32,
    hi: &mut [f64],
    lo: &mut [f64],
) {
    let bounds = |e: &[i32]| Some((*e.iter().min()?, *e.iter().max()?));
    let (Some((a_lo, a_hi)), Some((b_lo, b_hi))) = (bounds(a_exp), bounds(b_exp)) else {
        return;
    };
    let cells = a_exp.len() * b_exp.len();
    assert!(
        tile.len() >= cells && hi.len() >= cells && lo.len() >= cells,
        "fold_tile: tile or accumulators shorter than the exponents"
    );
    let two_beta = 2 * beta as i32;
    let normal = a_lo + b_lo - two_beta >= -1022 && a_hi + b_hi - two_beta <= 1023;
    let done = if normal {
        fold_simd(variant, tile, a_exp, b_exp, two_beta, hi, lo)
    } else {
        0
    };
    fold_scalar(tile, a_exp, b_exp, two_beta, done, hi, lo);
}

/// `Accumulator::add(x)` on the pair `(hi, lo)`.
#[inline(always)]
fn add_dd(hi: f64, lo: f64, x: f64) -> (f64, f64) {
    let (s, e) = two_sum(hi, x);
    fast_two_sum(s, lo + e)
}

/// The fold of columns `from..n` of every row, one element at a time, the
/// scale from [`pow2_checked`] (its bits where the exponent is normal). A
/// zero sum selects the old pair; what the add made of it — NaN, where the
/// scale overflowed — is dropped, as if the add were skipped.
// me-verify: hot
fn fold_scalar<T: FoldSum>(
    tile: &[T],
    a_exp: &[i32],
    b_exp: &[i32],
    two_beta: i32,
    from: usize,
    hi: &mut [f64],
    lo: &mut [f64],
) {
    let n = b_exp.len();
    for (i, &e_ai) in a_exp.iter().enumerate() {
        for (j, &e_bj) in b_exp.iter().enumerate().skip(from) {
            let at = i * n + j;
            let s: f64 = tile[at].into();
            let (h, l) = add_dd(hi[at], lo[at], s * pow2_checked(e_ai + e_bj - two_beta));
            let keep = s == 0.0;
            hi[at] = if keep { hi[at] } else { h };
            lo[at] = if keep { lo[at] } else { l };
        }
    }
}

/// The normal-range fold of each row's whole vectors on `v` (degraded by
/// `resolve_supported`); returns the columns done per row (0 on
/// [`KernelVariant::Scalar`]). The slices hold `a_exp.len() · b_exp.len()`
/// elements (asserted by `fold_tile`).
#[cfg(target_arch = "x86_64")]
fn fold_simd<T: FoldSum>(
    v: KernelVariant,
    tile: &[T],
    a_exp: &[i32],
    b_exp: &[i32],
    two_beta: i32,
    hi: &mut [f64],
    lo: &mut [f64],
) -> usize {
    let cells = a_exp.len() * b_exp.len();
    assert!(tile.len() >= cells && hi.len() >= cells && lo.len() >= cells);
    match v.resolve_supported() {
        // SAFETY: resolved, so `Avx512` means `avx512_supported()` proved
        // AVX512F, and the assert above covers every load and store.
        KernelVariant::Avx512 => unsafe { fold_avx512(tile, a_exp, b_exp, two_beta, hi, lo) },
        // SAFETY: as above; `Avx2` means `avx2_supported()` proved AVX2.
        KernelVariant::Avx2 => unsafe { fold_avx2(tile, a_exp, b_exp, two_beta, hi, lo) },
        KernelVariant::Scalar => 0,
    }
}

/// Non-x86 stand-in: every column folds on the scalar path.
#[cfg(not(target_arch = "x86_64"))]
fn fold_simd<T: FoldSum>(
    _v: KernelVariant,
    _tile: &[T],
    _a_exp: &[i32],
    _b_exp: &[i32],
    _two_beta: i32,
    _hi: &mut [f64],
    _lo: &mut [f64],
) -> usize {
    0
}

/// 8-lane normal-range fold: per row, `e_a[i] − 2β + 1023` is broadcast,
/// and per 8 columns the sums are converted to `__m512d` in-register, the
/// scales built from `b_exp`'s 8 exponents as `(e + 1023) << 52`, and the
/// `Accumulator::add` steps run on 8 `(hi, lo)` pairs, each lane blended
/// back to its old pair where the sum is zero. Returns the columns done.
///
/// # Safety
///
/// Caller must guarantee AVX512F, and `tile.len()`, `hi.len()` and
/// `lo.len()` at least `a_exp.len() · b_exp.len()`. (The scales are only
/// right where every exponent sum of the tile is normal.)
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fold_avx512<T: FoldSum>(
    tile: &[T],
    a_exp: &[i32],
    b_exp: &[i32],
    two_beta: i32,
    hi: &mut [f64],
    lo: &mut [f64],
) -> usize {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_set1_epi32,
        _mm512_add_pd, _mm512_castsi512_pd, _mm512_cmp_pd_mask, _mm512_cvtepi32_epi64,
        _mm512_cvtepi32_pd, _mm512_cvtps_pd, _mm512_loadu_pd, _mm512_mask_blend_pd, _mm512_mul_pd,
        _mm512_setzero_pd, _mm512_slli_epi64, _mm512_storeu_pd, _mm512_sub_pd, _CMP_NEQ_UQ,
    };
    const L: usize = 8;
    let n = b_exp.len();
    let whole = n - n % L;
    for (i, &e_ai) in a_exp.iter().enumerate() {
        let bias = _mm256_set1_epi32(e_ai - two_beta + 1023);
        let row = i * n;
        for j in (0..whole).step_by(L) {
            // SAFETY (pointers): j + 8 <= n and row + n <= the asserted
            // lengths, so every 8-element load and store is in bounds; the
            // casts read `T` as the type its sealed `KIND` names.
            let p = tile.as_ptr().add(row + j);
            let s = match T::KIND {
                SumKind::I32 => _mm512_cvtepi32_pd(_mm256_loadu_si256(p.cast::<__m256i>())),
                SumKind::F32 => _mm512_cvtps_pd(_mm256_loadu_ps(p.cast::<f32>())),
                SumKind::F64 => _mm512_loadu_pd(p.cast::<f64>()),
            };
            let e = _mm256_add_epi32(bias, _mm256_loadu_si256(b_exp.as_ptr().add(j).cast()));
            let scale = _mm512_castsi512_pd(_mm512_slli_epi64::<52>(_mm512_cvtepi32_epi64(e)));
            let x = _mm512_mul_pd(s, scale);
            let (ph, pl) = (hi.as_mut_ptr().add(row + j), lo.as_mut_ptr().add(row + j));
            let (h, l) = (_mm512_loadu_pd(ph), _mm512_loadu_pd(pl));
            // two_sum(h, x)
            let t = _mm512_add_pd(h, x);
            let bb = _mm512_sub_pd(t, h);
            let err = _mm512_add_pd(_mm512_sub_pd(h, _mm512_sub_pd(t, bb)), _mm512_sub_pd(x, bb));
            // fast_two_sum(t, l + err)
            let u = _mm512_add_pd(l, err);
            let nh = _mm512_add_pd(t, u);
            let nl = _mm512_sub_pd(u, _mm512_sub_pd(nh, t));
            let live = _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(s, _mm512_setzero_pd());
            _mm512_storeu_pd(ph, _mm512_mask_blend_pd(live, h, nh));
            _mm512_storeu_pd(pl, _mm512_mask_blend_pd(live, l, nl));
        }
    }
    whole
}

/// 4-lane sibling of [`fold_avx512`] on AVX2: the same operations per
/// lane, the zero-sum select a `vblendvpd` on the compare mask.
///
/// # Safety
///
/// Caller must guarantee AVX2 and the slice lengths of [`fold_avx512`].
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fold_avx2<T: FoldSum>(
    tile: &[T],
    a_exp: &[i32],
    b_exp: &[i32],
    two_beta: i32,
    hi: &mut [f64],
    lo: &mut [f64],
) -> usize {
    use std::arch::x86_64::{
        __m128i, _mm256_add_pd, _mm256_blendv_pd, _mm256_castsi256_pd, _mm256_cmp_pd,
        _mm256_cvtepi32_epi64, _mm256_cvtepi32_pd, _mm256_cvtps_pd, _mm256_loadu_pd, _mm256_mul_pd,
        _mm256_setzero_pd, _mm256_slli_epi64, _mm256_storeu_pd, _mm256_sub_pd, _mm_add_epi32,
        _mm_loadu_ps, _mm_loadu_si128, _mm_set1_epi32, _CMP_NEQ_UQ,
    };
    const L: usize = 4;
    let n = b_exp.len();
    let whole = n - n % L;
    for (i, &e_ai) in a_exp.iter().enumerate() {
        let bias = _mm_set1_epi32(e_ai - two_beta + 1023);
        let row = i * n;
        for j in (0..whole).step_by(L) {
            // SAFETY (pointers): j + 4 <= n and row + n <= the asserted
            // lengths, so every 4-element load and store is in bounds; the
            // casts read `T` as the type its sealed `KIND` names.
            let p = tile.as_ptr().add(row + j);
            let s = match T::KIND {
                SumKind::I32 => _mm256_cvtepi32_pd(_mm_loadu_si128(p.cast::<__m128i>())),
                SumKind::F32 => _mm256_cvtps_pd(_mm_loadu_ps(p.cast::<f32>())),
                SumKind::F64 => _mm256_loadu_pd(p.cast::<f64>()),
            };
            let e = _mm_add_epi32(bias, _mm_loadu_si128(b_exp.as_ptr().add(j).cast()));
            let scale = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_cvtepi32_epi64(e)));
            let x = _mm256_mul_pd(s, scale);
            let (ph, pl) = (hi.as_mut_ptr().add(row + j), lo.as_mut_ptr().add(row + j));
            let (h, l) = (_mm256_loadu_pd(ph), _mm256_loadu_pd(pl));
            // two_sum(h, x)
            let t = _mm256_add_pd(h, x);
            let bb = _mm256_sub_pd(t, h);
            let err = _mm256_add_pd(_mm256_sub_pd(h, _mm256_sub_pd(t, bb)), _mm256_sub_pd(x, bb));
            // fast_two_sum(t, l + err)
            let u = _mm256_add_pd(l, err);
            let nh = _mm256_add_pd(t, u);
            let nl = _mm256_sub_pd(u, _mm256_sub_pd(nh, t));
            let live = _mm256_cmp_pd::<_CMP_NEQ_UQ>(s, _mm256_setzero_pd());
            _mm256_storeu_pd(ph, _mm256_blendv_pd(h, nh, live));
            _mm256_storeu_pd(pl, _mm256_blendv_pd(l, nl, live));
        }
    }
    whole
}
