//! INT8 dot/GEMM micro-kernels for integer matrix-engine emulation.
//!
//! The INT8 Ozaki path (`me-ozaki`) slices f64 operands into signed
//! β-bit integers (β ≤ 6, so every slice value is in `[-64, 64]`) and
//! needs a host kernel computing `Σ a[p]·b[p]` exactly in i32. Unlike
//! the floating-point micro-kernels in `ukernel.rs`, integer addition is
//! associative: both kernels — the strict serial reference and the
//! AVX2 `vpmaddubsw` kernel — return the *same* i32 by arithmetic identity, not by a rounding-order contract.
//! `tests/int8_differential.rs` pins that agreement over a shape ×
//! variant × thread grid anyway.
//!
//! **Exactness budget.** The caller must guarantee
//! `len · 2^(2β) < 2^31` (the Ozaki engine k-chunks at its `k_block` to
//! enforce this). Within the budget no product or partial sum can wrap
//! i32, and the AVX2 path's intermediate i16 pair sums cannot saturate
//! (see [`dot_i8`] for the `vpmaddubsw` domain restriction).
//!
//! **Signed/unsigned fixup.** AVX2 has no signed×signed byte
//! multiply-add; `vpmaddubsw` computes *unsigned* × signed bytes with
//! i16 pair-saturation. The kernel therefore rewrites each product as
//! `|a| · sign(a)·b` via two `vpsignb` ops: `_mm256_sign_epi8(a, a)`
//! yields `|a|` (correct as a u8 operand even for `a = -128`, which
//! wraps to the byte `0x80` = 128), and `_mm256_sign_epi8(b, a)` moves
//! `a`'s sign onto `b`. The only input the rewrite cannot represent is
//! `a = b = -128` in the same position (negating `-128` as an i8 wraps
//! back to `-128`, flipping that product's sign); β ≤ 6 slices never
//! reach ±128, and [`dot_i8`] debug-asserts the exclusion. Pair sums
//! are bounded by `2·127·128 = 32512 < 32767` on that domain, so the
//! saturating add never saturates. `_mm256_madd_epi16(pairs, 1)` then
//! widens the i16 pairs into 8 exact i32 lanes.

use super::ukernel::KernelVariant;

/// Exact i32 dot product of two equal-length i8 slices, dispatched over
/// [`KernelVariant`] (unsupported variants degrade via
/// [`KernelVariant::resolve_supported`]).
///
/// Caller contract (debug-asserted): `a.len() == b.len()`, the
/// `k · 2^(2β) < 2^31` exactness budget holds, and no position has
/// `a[i] == b[i] == -128` (outside the AVX2 sign-fixup domain; Ozaki
/// slices are bounded ±64 and never get close).
pub fn dot_i8(variant: KernelVariant, a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len(), "dot_i8: length mismatch");
    debug_assert!(
        a.iter().zip(b).all(|(&x, &y)| x != i8::MIN || y != i8::MIN),
        "dot_i8: an (-128, -128) pair is outside the maddubs fixup domain"
    );
    match variant.resolve_supported() {
        KernelVariant::Scalar => dot_i8_scalar(a, b),
        KernelVariant::Avx2 => dot_i8_avx2_entry(a, b),
        // AVX512F alone has no byte multiply-add (that needs AVX512BW,
        // which we do not require); every avx512f host also has AVX2, so
        // the integer path rides the `vpmaddubsw` kernel unchanged.
        KernelVariant::Avx512 => {
            if super::ukernel::avx2_supported() {
                dot_i8_avx2_entry(a, b)
            } else {
                dot_i8_scalar(a, b)
            }
        }
    }
}

/// Strided row-panel GEMM on the int8 kernels:
/// `out[i·n + j] = Σ_p a[i·lda + p] · bt[j·ldb + p]` for `p < kc`
/// (overwrite semantics, no accumulation across calls).
///
/// `a` holds `m` rows at stride `lda ≥ kc`; `bt` holds `n` rows of the
/// *transposed* right operand at stride `ldb ≥ kc`, so both operands
/// stream contiguously in the inner dot. One call is one "engine call"
/// of the emulated INT8 matrix engine; the caller owns the exactness
/// budget (`kc · 2^(2β) < 2^31`).
// me-verify: hot
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8_i32(
    variant: KernelVariant,
    m: usize,
    n: usize,
    kc: usize,
    a: &[i8],
    lda: usize,
    bt: &[i8],
    ldb: usize,
    out: &mut [i32],
) {
    assert!(lda >= kc && ldb >= kc, "gemm_i8_i32: stride below chunk length");
    assert!(out.len() >= m * n, "gemm_i8_i32: output too short");
    let v = variant.resolve_supported();
    me_trace::counter_add(v.int8_counter(), 1);
    for i in 0..m {
        let arow = &a[i * lda..i * lda + kc];
        let orow = &mut out[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            *o = dot_i8(v, arow, &bt[j * ldb..j * ldb + kc]);
        }
    }
}

/// Strictly serial reference: one widening multiply and one i64 add per
/// step, ascending `p`. The i64 accumulator makes the chain exact even
/// outside the i32 budget; the return narrows after a debug-assert that
/// the true sum fits (the budget every real caller guarantees).
// me-verify: hot
pub fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    let mut s = 0i64;
    for (&x, &y) in a.iter().zip(b) {
        s += x as i64 * y as i64;
    }
    debug_assert!(
        s >= i32::MIN as i64 && s <= i32::MAX as i64,
        "dot_i8_scalar: sum {s} outside i32 — exactness budget violated"
    );
    s as i32
}

/// Safe entry to the AVX2 kernel; falls back to the scalar kernel when
/// dispatch resolution handed us `Avx2` off x86-64 (cannot happen via
/// [`KernelVariant::resolve_supported`], but keeps the match total).
#[cfg(target_arch = "x86_64")]
fn dot_i8_avx2_entry(a: &[i8], b: &[i8]) -> i32 {
    // SAFETY: this arm is only reachable through
    // `KernelVariant::resolve_supported()`, which yields `Avx2` solely
    // when `avx2_supported()` proved the host features at startup; the
    // kernel itself only requires AVX2 plus in-bounds slices, which it
    // checks internally against `a.len().min(b.len())`.
    unsafe { dot_i8_avx2(a, b) }
}

/// Non-x86 stand-in (the `Avx2` variant is never resolvable here).
#[cfg(not(target_arch = "x86_64"))]
fn dot_i8_avx2_entry(a: &[i8], b: &[i8]) -> i32 {
    dot_i8_scalar(a, b)
}

/// AVX2 `vpmaddubsw` dot kernel: 32 byte-products per instruction,
/// widened to 8 exact i32 lanes per step via `vpmaddwd` against ones.
/// See the module docs for the signed/unsigned operand fixup and its
/// `(-128, -128)` domain exclusion; within the Ozaki ±64 slice domain
/// every step of this kernel is exact integer arithmetic.
///
/// # Safety
///
/// Caller must guarantee the host supports AVX2 (runtime-detected).
/// Slice bounds are handled internally (the vector loop covers whole
/// 32-byte blocks of `min(a.len(), b.len())`; a scalar tail finishes).
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_castsi256_si128, _mm256_extracti128_si256,
        _mm256_loadu_si256, _mm256_madd_epi16, _mm256_maddubs_epi16, _mm256_set1_epi16,
        _mm256_setzero_si256, _mm256_sign_epi8, _mm_add_epi32, _mm_cvtsi128_si32,
        _mm_shuffle_epi32,
    };
    let n = a.len().min(b.len());
    let ones = _mm256_set1_epi16(1);
    let mut acc = _mm256_setzero_si256();
    let mut p = 0usize;
    while p + 32 <= n {
        // SAFETY (loads): p + 32 <= n <= len of both slices, so both
        // 32-byte unaligned loads stay in bounds.
        let va = _mm256_loadu_si256(a.as_ptr().add(p).cast::<__m256i>());
        let vb = _mm256_loadu_si256(b.as_ptr().add(p).cast::<__m256i>());
        // |a| as unsigned bytes, and a's sign moved onto b — the maddubs
        // operand fixup documented in the module docs.
        let ua = _mm256_sign_epi8(va, va);
        let sb = _mm256_sign_epi8(vb, va);
        let pairs = _mm256_maddubs_epi16(ua, sb);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
        p += 32;
    }
    // Horizontal sum of the 8 i32 lanes.
    let quad = _mm_add_epi32(_mm256_castsi256_si128(acc), _mm256_extracti128_si256::<1>(acc));
    let pair = _mm_add_epi32(quad, _mm_shuffle_epi32::<0b00_00_11_10>(quad));
    let one = _mm_add_epi32(pair, _mm_shuffle_epi32::<0b00_00_00_01>(pair));
    let mut s = _mm_cvtsi128_si32(one);
    for q in p..n {
        s += a[q] as i32 * b[q] as i32;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::ukernel::{available_variants, avx2_supported};

    /// Seeded i8 values bounded ±`bound` (the Ozaki slice domain when
    /// `bound = 64`).
    fn ranged_i8(len: usize, bound: i8, seed: u64) -> Vec<i8> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let span = 2 * bound as i64 + 1;
                (((state >> 33) as i64 % span) - bound as i64) as i8
            })
            .collect()
    }

    #[test]
    fn variants_agree_on_slice_domain() {
        // Lengths straddle the 32-byte vector width; values cover the
        // full ±64 Ozaki slice domain.
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 64, 100, 256, 1000] {
            let a = ranged_i8(len, 64, len as u64 + 1);
            let b = ranged_i8(len, 64, len as u64 + 1000);
            let want = dot_i8_scalar(&a, &b);
            for v in available_variants() {
                assert_eq!(dot_i8(v, &a, &b), want, "variant {v} at len {len}");
            }
        }
    }

    #[test]
    fn saturation_edges_are_exact() {
        // All-(+64)·(+64) and alternating ±64 maximize the maddubs pair
        // sums within the slice domain; also exercise ±127 (legal as
        // long as both operands are not -128).
        let n = 256;
        for (av, bv) in [(64i8, 64i8), (64, -64), (-64, -64), (127, 127), (127, -127)] {
            let a = vec![av; n];
            let b = vec![bv; n];
            let want = n as i32 * av as i32 * bv as i32;
            for v in available_variants() {
                assert_eq!(dot_i8(v, &a, &b), want, "variant {v} with ({av},{bv})");
            }
        }
    }

    #[test]
    fn minus_128_is_fine_when_not_paired() {
        // a = -128 against arbitrary b > -128 stays inside the fixup
        // domain: |−128| wraps to the unsigned byte 128 and the sign
        // moves onto b, so the product is exact.
        let a = vec![i8::MIN; 64];
        let b = ranged_i8(64, 127, 9);
        let want = dot_i8_scalar(&a, &b);
        for v in available_variants() {
            assert_eq!(dot_i8(v, &a, &b), want, "variant {v}");
        }
    }

    #[test]
    fn minus_128_pair_is_outside_the_avx2_domain() {
        // The documented exclusion: sign(-128, -128) wraps back to -128,
        // so the AVX2 kernel computes 128·(−128) = −16384 instead of
        // (+16384) for that position. Assert the kernel really does
        // disagree there — this is why `dot_i8` debug-asserts the domain.
        if !avx2_supported() {
            return;
        }
        let a = vec![i8::MIN; 32];
        let b = vec![i8::MIN; 32];
        let exact = dot_i8_scalar(&a, &b); // 32 · 2^14 = 524288
        // SAFETY: guarded by `avx2_supported()` above; slices in bounds.
        let got = unsafe { dot_i8_avx2(&a, &b) };
        assert_eq!(exact, 32 * 16384);
        assert_eq!(got, -32 * 16384, "the wrap flips every product's sign");
    }

    #[test]
    fn gemm_i8_i32_matches_scalar_dots() {
        let (m, n, kc) = (5, 7, 67);
        let lda = kc + 3; // strided rows
        let ldb = kc + 1;
        let a = ranged_i8(m * lda, 64, 21);
        let bt = ranged_i8(n * ldb, 64, 22);
        let mut want = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                want[i * n + j] =
                    dot_i8_scalar(&a[i * lda..i * lda + kc], &bt[j * ldb..j * ldb + kc]);
            }
        }
        for v in available_variants() {
            let mut out = vec![-1i32; m * n];
            gemm_i8_i32(v, m, n, kc, &a, lda, &bt, ldb, &mut out);
            assert_eq!(out, want, "variant {v}");
        }
    }

    #[test]
    fn exactness_budget_bound_holds() {
        // The worst case the Ozaki engine can emit: k_block = 256 steps
        // of (±64)² products. 256 · 2^12 = 2^20 — far inside i32.
        let a = vec![64i8; 256];
        let want = 256 * 64 * 64;
        for v in available_variants() {
            assert_eq!(dot_i8(v, &a, &a), want, "variant {v}");
        }
        assert!((256i64) << 12 < 1i64 << 31);
    }
}
