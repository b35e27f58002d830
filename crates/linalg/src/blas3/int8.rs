//! INT8 engine-call micro-kernels for integer matrix-engine emulation.
//!
//! The INT8 Ozaki path (`me-ozaki`) slices f64 operands into signed
//! β-bit integers (β ≤ 6, so every slice value is in `[-64, 64]`) and
//! needs a host kernel computing `Σ a[p]·b[p]` exactly in i32. Unlike
//! the floating-point micro-kernels in `ukernel.rs`, integer addition is
//! associative: every kernel returns the *same* i32 by arithmetic
//! identity, not by a rounding-order contract. The strict serial
//! reference is [`dot_i8_scalar`]; `tests/int8_differential.rs` and the
//! tile-edge grid in `crates/linalg/tests/int8_tile_edges.rs` pin the
//! agreement.
//!
//! **Register tile.** [`gemm_i8_i32`] computes an [`MR_I8`] × [`NR_I8`]
//! (8 × 32) tile of C per kernel call from operands packed once by the
//! caller ([`PanelLayout::I8_A`], [`PanelLayout::I8_B`]). On AVX-512 hosts
//! with VNNI and BW (checked by CPUID inside [`KernelVariant::Avx512`]) the
//! tile is 16 zmm accumulators: per group of 4 k values, two 64-byte loads
//! of B (32 columns × 4 bytes) and, per row, one 4-byte broadcast of A and
//! two `vpdpbusd`. Elsewhere the AVX2 kernel runs the same tile four
//! columns at a time, widening both operands to i16 for `vpmaddwd`, and
//! the scalar kernel loops; each 16-row A panel tile is two such register
//! tiles. The B layout is AMX's B-tile layout and each A chunk is a
//! row-major AMX A tile, so on AMX hosts the `tdpbusd` kernel
//! ([`super::amx`]) reads the same panels.
//!
//! **Offset operand.** `vpdpbusd` multiplies *unsigned* bytes of its first
//! operand by signed bytes of its second. A is therefore stored biased:
//! the word of `a` holds the bits of the u8 `a + 128`. The kernel sums
//! `Σ (a+128)·b` and subtracts `128·colsum(b)`, where each B chunk's
//! column sums follow the chunk's block in the packed panel. Both are the
//! int8 layouts' [`super::panel::PanelFormat`]: packing a plain i8 line
//! with [`PanelLayout::put_line`] applies them, so the format stays in
//! this crate. Padding reads as `a = 0` and `b = 0`.
//!
//! **Exactness modulo 2^32.** The caller guarantees the true chunk sum
//! fits: `kc · 2^(2β) < 2^31` (the Ozaki engine k-chunks at its `k_block`
//! to enforce this). The biased sum need not fit: at `kc = 2^20`, β = 5 it
//! reaches `kc·(2^7 + 2^β)·2^β ≈ 5.4e9`. But `vpdpbusd` (not the
//! saturating `vpdpbusds`) and `vpaddd` wrap, so the accumulator holds
//! `Σ (a+128)·b mod 2^32`; the correction `128·colsum` is formed with a
//! wrapping shift and subtracted with a wrapping subtract; and
//! `Σ (a+128)·b − 128·Σ b = Σ a·b` holds in the integers, hence mod 2^32.
//! A value in `[−2^31, 2^31)` is the unique i32 with that residue, so the
//! result is exact — in debug builds too, because the scalar kernel uses
//! the same wrapping operations instead of panicking on the biased sum.
//!
//! **Whole i8 domain.** No kernel saturates: `vpdpbusd` sums its four
//! products in 32 bits, and the AVX2 kernel's `vpmaddwd` pair sums of
//! zero-extended `a + 128` and sign-extended `b` are at most
//! `2 · 255 · 128` in 32 bits. So every variant is exact for every pair of
//! i8 values, −128 · −128 included, under the same chunk-sum budget.

use super::panel::{PanelChunk, PanelLayout, SUM_WORDS};
use super::ukernel::KernelVariant;

/// Rows of A in the int8 register tile.
pub const MR_I8: usize = 8;
/// Columns of B in the int8 register tile.
pub const NR_I8: usize = 32;
/// k values per `vpdpbusd` lane.
const KG: usize = 4;
/// `me-trace` counter of int8 engine calls run on AMX tiles.
const AMX_COUNTER: &str = "ukernel.amx.int8";

/// One engine call of the emulated INT8 matrix engine:
/// `out[i·n + j] = Σ_{p<kc} a_i[p] · b_j[p]`, exact in i32 (overwrite
/// semantics, no accumulation across calls).
///
/// `a` is the chunk of `m` A rows in [`PanelLayout::I8_A`] and `b` the
/// chunk of `n` B columns in [`PanelLayout::I8_B`], both packed once with
/// [`PanelLayout::put_line`]. Any i8 values are exact; the caller owns the
/// budget that the true chunk sums fit i32 (`kc · 2^(2β) < 2^31` for
/// β-bit slices). Runs on AMX `tdpbusd` tiles inside `Avx512` when the
/// host has AMX-INT8 ([`super::amx`]), else on the variant's SIMD tile
/// ([`gemm_i8_i32_simd`]); integer sums make both the same i32. Counted
/// per call on `ukernel.int8.<variant>`, and on `ukernel.amx.int8` when
/// on AMX.
// me-verify: hot
pub fn gemm_i8_i32(
    variant: KernelVariant,
    m: usize,
    n: usize,
    kc: usize,
    a: PanelChunk<'_, i8>,
    b: PanelChunk<'_, i8>,
    out: &mut [i32],
) {
    let v = variant.resolve_supported();
    engine(v, super::amx::int8_on(v), m, n, kc, (a, b), out);
}

/// [`gemm_i8_i32`] on the variant's SIMD tile even where AMX would run:
/// the VNNI `vpdpbusd` tile inside `Avx512` when the host has VNNI, the
/// AVX2 `vpmaddwd` tile, or the scalar loop. The reference the AMX tile is
/// checked and timed against.
// me-verify: hot
pub fn gemm_i8_i32_simd(
    variant: KernelVariant,
    m: usize,
    n: usize,
    kc: usize,
    a: PanelChunk<'_, i8>,
    b: PanelChunk<'_, i8>,
    out: &mut [i32],
) {
    engine(variant.resolve_supported(), false, m, n, kc, (a, b), out);
}

/// The engine call on resolved variant `v`, on AMX tiles when `amx`.
// me-verify: hot
fn engine(
    v: KernelVariant,
    amx: bool,
    m: usize,
    n: usize,
    kc: usize,
    (a, b): (PanelChunk<'_, i8>, PanelChunk<'_, i8>),
    out: &mut [i32],
) {
    assert!(out.len() >= m * n, "gemm_i8_i32: output too short");
    debug_assert!(
        a.layout() == PanelLayout::I8_A && b.layout() == PanelLayout::I8_B,
        "gemm_i8_i32: panels not in the int8 tile layout"
    );
    if m == 0 || n == 0 {
        return;
    }
    me_trace::counter_add(v.int8_counter(), 1);
    if kc == 0 {
        out[..m * n].fill(0);
        return;
    }
    let kcp = kc.next_multiple_of(KG);
    if amx {
        me_trace::counter_add(AMX_COUNTER, 1);
        super::amx::gemm_i8_i32(m, n, kcp, a, b, out);
        return;
    }
    let kernel = tile_kernel(v);
    // Each panel tile of A holds `sub` register tiles, one after another.
    let sub = PanelLayout::I8_A.tile / MR_I8;
    for it in 0..m.div_ceil(MR_I8) {
        let ap = &a.tile(it / sub, sub * MR_I8 * kcp)[it % sub * MR_I8 * kcp..];
        let mr = MR_I8.min(m - it * MR_I8);
        for jt in 0..n.div_ceil(NR_I8) {
            let bp = b.tile(jt, NR_I8 * (kcp + SUM_WORDS));
            let j0 = jt * NR_I8;
            let nr = NR_I8.min(n - j0);
            let acc = kernel(ap, bp, kcp, mr, nr);
            for (r, accr) in acc.iter().enumerate().take(mr) {
                let at = (it * MR_I8 + r) * n + j0;
                out[at..at + nr].copy_from_slice(&accr[..nr]);
            }
        }
    }
}

/// An int8 tile kernel: `(A tile, B tile with its column sums, padded kc,
/// valid rows, valid columns) → C tile`.
type TileKernel = fn(&[i8], &[i8], usize, usize, usize) -> [[i32; NR_I8]; MR_I8];

/// The tile kernel for a resolved variant: VNNI inside `Avx512` when the
/// host has it, the AVX2 kernel on every other AVX2 host, else scalar.
fn tile_kernel(v: KernelVariant) -> TileKernel {
    match v {
        KernelVariant::Avx512 if vnni_supported() => tile_vnni_entry,
        KernelVariant::Avx512 | KernelVariant::Avx2 if super::ukernel::avx2_supported() => {
            tile_avx2_entry
        }
        _ => tile_scalar,
    }
}

/// Does the host have AVX-512 VNNI and BW (`vpdpbusd` on zmm)?
pub fn vnni_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vnni")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Column `j`'s sum in a B tile block whose chunk is `kcp` long: the
/// 4 little-endian bytes after the chunk's groups.
#[inline]
fn col_sum(bp: &[i8], kcp: usize, j: usize) -> i32 {
    let at = NR_I8 * kcp + j * SUM_WORDS;
    i32::from_le_bytes(std::array::from_fn(|i| bp[at + i] as u8))
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

/// The portable tile kernel: the same wrapping sum of `(a+128)·b` and
/// the same wrapping correction as the SIMD kernels, over the valid
/// `mr × nr` part only.
// me-verify: hot
fn tile_scalar(ap: &[i8], bp: &[i8], kcp: usize, mr: usize, nr: usize) -> [[i32; NR_I8]; MR_I8] {
    let mut acc = [[0i32; NR_I8]; MR_I8];
    for (accr, arow) in acc.iter_mut().zip(ap.chunks_exact(kcp)).take(mr) {
        for (j, o) in accr.iter_mut().enumerate().take(nr) {
            let mut s = 0i32;
            for (quad, group) in
                arow.chunks_exact(KG).zip(bp[..NR_I8 * kcp].chunks_exact(NR_I8 * KG))
            {
                let col = &group[j * KG..(j + 1) * KG];
                for (&x, &y) in quad.iter().zip(col) {
                    s = s.wrapping_add(i32::from(x as u8) * i32::from(y));
                }
            }
            *o = s.wrapping_sub(col_sum(bp, kcp, j).wrapping_shl(7));
        }
    }
    acc
}

/// Safe entry to the VNNI kernel.
#[cfg(target_arch = "x86_64")]
fn tile_vnni_entry(
    ap: &[i8],
    bp: &[i8],
    kcp: usize,
    _mr: usize,
    _nr: usize,
) -> [[i32; NR_I8]; MR_I8] {
    assert!(ap.len() >= MR_I8 * kcp && bp.len() >= NR_I8 * (kcp + SUM_WORDS));
    // SAFETY: this entry is only chosen by `tile_kernel` after
    // `vnni_supported()` proved AVX512F, BW and VNNI, and the assert
    // above covers every load the kernel makes.
    unsafe { tile_vnni(ap, bp, kcp) }
}

/// Non-x86 stand-in (never chosen there).
#[cfg(not(target_arch = "x86_64"))]
fn tile_vnni_entry(
    ap: &[i8],
    bp: &[i8],
    kcp: usize,
    mr: usize,
    nr: usize,
) -> [[i32; NR_I8]; MR_I8] {
    tile_scalar(ap, bp, kcp, mr, nr)
}

/// 8×32 int8 tile on AVX-512 VNNI: `acc[r]` holds row `r` as two 16-lane
/// i32 vectors. Per group of 4 k values: two loads of B, and per row a
/// broadcast of A's 4 offset bytes and two `vpdpbusd` (u8 × i8, four
/// products summed into each i32 lane, wrapping). The correction
/// `colsum << 7` is subtracted at the end, wrapping (module docs).
///
/// # Safety
///
/// Caller must guarantee AVX512F, AVX512BW and AVX512VNNI, and
/// `ap.len() >= 8·kcp`, `bp.len() >= 32·(kcp + 4)`.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn tile_vnni(ap: &[i8], bp: &[i8], kcp: usize) -> [[i32; NR_I8]; MR_I8] {
    use std::arch::x86_64::{
        __m512i, _mm512_dpbusd_epi32, _mm512_loadu_si512, _mm512_set1_epi32, _mm512_setzero_si512,
        _mm512_slli_epi32, _mm512_storeu_si512, _mm512_sub_epi32,
    };
    let mut acc = [[_mm512_setzero_si512(); 2]; MR_I8];
    for q in 0..kcp / KG {
        // SAFETY (pointers): q < kcp/4, so the two 64-byte loads end at
        // most at 32·kcp <= bp.len(), and each 4-byte A read at
        // r·kcp + 4q + 4 <= 8·kcp <= ap.len().
        let b0 = _mm512_loadu_si512(bp.as_ptr().add(q * NR_I8 * KG).cast::<__m512i>());
        let b1 = _mm512_loadu_si512(bp.as_ptr().add(q * NR_I8 * KG + 64).cast::<__m512i>());
        for (r, accr) in acc.iter_mut().enumerate() {
            let quad = ap.as_ptr().add(r * kcp + q * KG).cast::<i32>().read_unaligned();
            let av = _mm512_set1_epi32(quad);
            accr[0] = _mm512_dpbusd_epi32(accr[0], av, b0);
            accr[1] = _mm512_dpbusd_epi32(accr[1], av, b1);
        }
    }
    // SAFETY (pointers): the column sums are the 128 bytes from 32·kcp
    // on, inside bp.
    let sums = bp.as_ptr().add(NR_I8 * kcp);
    let c0 = _mm512_slli_epi32::<7>(_mm512_loadu_si512(sums.cast::<__m512i>()));
    let c1 = _mm512_slli_epi32::<7>(_mm512_loadu_si512(sums.add(64).cast::<__m512i>()));
    let mut out = [[0i32; NR_I8]; MR_I8];
    for (outr, accr) in out.iter_mut().zip(&acc) {
        // SAFETY: outr is an [i32; 32]; the two 16-lane stores cover it.
        _mm512_storeu_si512(outr.as_mut_ptr().cast::<__m512i>(), _mm512_sub_epi32(accr[0], c0));
        let hi = outr.as_mut_ptr().add(16).cast::<__m512i>();
        _mm512_storeu_si512(hi, _mm512_sub_epi32(accr[1], c1));
    }
    out
}

/// Safe entry to the AVX2 kernel.
#[cfg(target_arch = "x86_64")]
fn tile_avx2_entry(
    ap: &[i8],
    bp: &[i8],
    kcp: usize,
    _mr: usize,
    _nr: usize,
) -> [[i32; NR_I8]; MR_I8] {
    assert!(ap.len() >= MR_I8 * kcp && bp.len() >= NR_I8 * (kcp + SUM_WORDS));
    // SAFETY: this entry is only chosen by `tile_kernel` after
    // `avx2_supported()` proved AVX2, and the assert above covers every
    // load the kernel makes.
    unsafe { tile_avx2(ap, bp, kcp) }
}

/// Non-x86 stand-in (never chosen there).
#[cfg(not(target_arch = "x86_64"))]
fn tile_avx2_entry(
    ap: &[i8],
    bp: &[i8],
    kcp: usize,
    mr: usize,
    nr: usize,
) -> [[i32; NR_I8]; MR_I8] {
    tile_scalar(ap, bp, kcp, mr, nr)
}

/// 8×32 int8 tile on AVX2, four columns per pass: per group of 4 k values
/// one 16-byte load of B sign-extended to 16 i16, and per row A's 4 offset
/// bytes broadcast and zero-extended to i16, one `vpmaddwd` (pair sums in
/// i32, never saturating) and a wrapping `vpaddd`. Lanes `2c` and `2c + 1`
/// hold column `c`'s two halves; they are added and the correction
/// subtracted, wrapping, at the end of the pass.
///
/// # Safety
///
/// Caller must guarantee AVX2, and `ap.len() >= 8·kcp`,
/// `bp.len() >= 32·(kcp + 4)`.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2(ap: &[i8], bp: &[i8], kcp: usize) -> [[i32; NR_I8]; MR_I8] {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_cvtepi8_epi16, _mm256_cvtepu8_epi16,
        _mm256_madd_epi16, _mm256_setzero_si256, _mm256_storeu_si256, _mm_loadu_si128,
        _mm_set1_epi32,
    };
    const COLS: usize = 4;
    let mut out = [[0i32; NR_I8]; MR_I8];
    for h in 0..NR_I8 / COLS {
        let mut acc = [_mm256_setzero_si256(); MR_I8];
        for q in 0..kcp / KG {
            // SAFETY (pointers): q < kcp/4 and h < 8, so the 16-byte B
            // load ends at most at 32·kcp <= bp.len(), and each 4-byte A
            // read at r·kcp + 4q + 4 <= 8·kcp <= ap.len().
            let at = q * NR_I8 * KG + h * COLS * KG;
            let bw = _mm256_cvtepi8_epi16(_mm_loadu_si128(bp.as_ptr().add(at).cast::<__m128i>()));
            for (r, accr) in acc.iter_mut().enumerate() {
                let quad = ap.as_ptr().add(r * kcp + q * KG).cast::<i32>().read_unaligned();
                let aw = _mm256_cvtepu8_epi16(_mm_set1_epi32(quad));
                *accr = _mm256_add_epi32(*accr, _mm256_madd_epi16(aw, bw));
            }
        }
        for (outr, accr) in out.iter_mut().zip(&acc) {
            let mut lanes = [0i32; 2 * COLS];
            // SAFETY: `lanes` is 8 i32, the 32 bytes the store writes.
            _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), *accr);
            for (c, pair) in lanes.chunks_exact(2).enumerate() {
                let j = h * COLS + c;
                let corr = col_sum(bp, kcp, j).wrapping_shl(7);
                outr[j] = pair[0].wrapping_add(pair[1]).wrapping_sub(corr);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::ukernel::available_variants;

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

    /// `lines` line-major lines of length `k` packed into `layout` in
    /// chunks of `kb`.
    fn pack(layout: PanelLayout, lines: &[i8], k: usize, kb: usize) -> Vec<i8> {
        let count = lines.len().checked_div(k).unwrap_or(0);
        let mut panel = layout.blank(count, k, kb);
        for (li, line) in lines.chunks(k.max(1)).enumerate().take(count) {
            layout.put_line(&mut panel, li, line, kb);
        }
        panel
    }

    /// `gemm_i8_i32` on line-major `a` (`m × k`) and `bt` (`n × k`), one
    /// chunk of `k`.
    fn engine(v: KernelVariant, m: usize, n: usize, k: usize, a: &[i8], bt: &[i8]) -> Vec<i32> {
        let kb = k.max(1);
        let (pa, pb) = (pack(PanelLayout::I8_A, a, k, kb), pack(PanelLayout::I8_B, bt, k, kb));
        let mut out = vec![i32::MIN; m * n];
        let ca = PanelLayout::I8_A.chunk(&pa, 0, 0, k, kb);
        let cb = PanelLayout::I8_B.chunk(&pb, 0, 0, k, kb);
        gemm_i8_i32(v, m, n, k, ca, cb, &mut out);
        out
    }

    /// One `len`-long dot as a 1 × 1 engine call.
    fn dot(v: KernelVariant, a: &[i8], b: &[i8]) -> i32 {
        engine(v, 1, 1, a.len(), a, b)[0]
    }

    #[test]
    fn variants_agree_on_slice_domain() {
        // Lengths straddle the 4-value groups and the 16/32/64-byte
        // vector widths; values cover the full ±64 Ozaki slice domain.
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 64, 100, 256, 1000] {
            let a = ranged_i8(len, 64, len as u64 + 1);
            let b = ranged_i8(len, 64, len as u64 + 1000);
            let want = dot_i8_scalar(&a, &b);
            for v in available_variants() {
                assert_eq!(dot(v, &a, &b), want, "variant {v} at len {len}");
            }
        }
    }

    #[test]
    fn saturation_edges_are_exact() {
        // All-(+64)·(+64) and alternating ±64 maximize the slice-domain
        // sums; ±127 and −128 (biased A bytes 255 and 0) are exact on
        // every variant too: no kernel saturates (module docs).
        let n = 256;
        let edges = [(64i8, 64i8), (64, -64), (-64, -64), (127, 127), (127, -127), (-128, 127)];
        for (av, bv) in edges {
            let a = vec![av; n];
            let b = vec![bv; n];
            let want = n as i32 * av as i32 * bv as i32;
            for v in available_variants() {
                assert_eq!(dot(v, &a, &b), want, "variant {v} with ({av},{bv})");
                // The same operands on a full 8 × 32 tile.
                let full = engine(v, 8, 32, n, &vec![av; 8 * n], &vec![bv; 32 * n]);
                assert!(full.iter().all(|&x| x == want), "variant {v} tile with ({av},{bv})");
            }
        }
    }

    #[test]
    fn minus_128_is_fine_when_not_paired() {
        // a = -128 is the biased byte 0; against arbitrary b in
        // [-127, 127] the product is exact.
        let a = vec![i8::MIN; 64];
        let b = ranged_i8(64, 127, 9);
        let want = dot_i8_scalar(&a, &b);
        for v in available_variants() {
            assert_eq!(dot(v, &a, &b), want, "variant {v}");
        }
    }

    #[test]
    fn minus_128_pair_is_exact_on_every_variant() {
        // (−128)·(−128) is the one product outside the symmetric range of
        // i8 ± 127: biased A byte 0, B byte −128; the true 32 · 2^14.
        let a = vec![i8::MIN; 32];
        let want = dot_i8_scalar(&a, &a);
        assert_eq!(want, 32 * 16384);
        for v in available_variants() {
            assert_eq!(dot(v, &a, &a), want, "variant {v}");
        }
    }

    #[test]
    fn gemm_i8_i32_matches_scalar_dots() {
        // Ragged tiles, two k-chunks (the second 3 long) read from one
        // packed panel.
        let (m, n, k, kb) = (13, 37, 67, 64);
        let a = ranged_i8(m * k, 64, 21);
        let bt = ranged_i8(n * k, 64, 22);
        let (pa, pb) = (pack(PanelLayout::I8_A, &a, k, kb), pack(PanelLayout::I8_B, &bt, k, kb));
        for k0 in [0, kb] {
            let kc = kb.min(k - k0);
            let mut want = vec![0i32; m * n];
            for i in 0..m {
                for j in 0..n {
                    let (ra, rb) = (i * k + k0, j * k + k0);
                    want[i * n + j] = dot_i8_scalar(&a[ra..ra + kc], &bt[rb..rb + kc]);
                }
            }
            for v in available_variants() {
                let mut out = vec![-1i32; m * n];
                let ca = PanelLayout::I8_A.chunk(&pa, 0, k0, k, kb);
                let cb = PanelLayout::I8_B.chunk(&pb, 0, k0, k, kb);
                gemm_i8_i32(v, m, n, kc, ca, cb, &mut out);
                assert_eq!(out, want, "variant {v} chunk at {k0}");
            }
        }
    }

    #[test]
    fn exactness_budget_bound_holds() {
        // The worst case the Ozaki engine emits at its default k_block:
        // 256 steps of (±64)² products. 256 · 2^12 = 2^20 — far inside i32.
        let a = vec![64i8; 256];
        let want = 256 * 64 * 64;
        for v in available_variants() {
            assert_eq!(dot(v, &a, &a), want, "variant {v}");
        }
        assert!((256i64) << 12 < 1i64 << 31);
    }

    #[test]
    fn biased_sum_wraps_back_to_the_exact_dot_at_the_budget_edge() {
        // k_block = 2^20 at β = 5: the true dot ±2^20 · 32 · 32 = ±2^30
        // fits i32; the biased sums 2^20 · 160 · 32 ≈ 5.4e9 and
        // 2^20 · 96 · 32 ≈ 3.2e9 do not, and 128 · colsum = 2^32 wraps to
        // 0. Exact in debug and release.
        let k = 1usize << 20;
        for (av, bv) in [(32i8, 32i8), (-32, 32)] {
            let want = (k as i64 * i64::from(av) * i64::from(bv)) as i32;
            for v in available_variants() {
                assert_eq!(
                    dot(v, &vec![av; k], &vec![bv; k]),
                    want,
                    "variant {v} with ({av}, {bv})"
                );
            }
        }
    }
}
