//! Half-precision (f16 / bf16) GEMM via widening packs over the f32
//! micro-kernels.
//!
//! Production half-precision GEMMs (the `gemm-f16` pattern) do not build
//! a separate 16-bit kernel family: they store operands in 16 bits and
//! widen to f32 *inside the pack loops*, so the hot micro-kernel is the
//! ordinary f32 one — here the runtime-dispatched [`ukernel`] family,
//! including the AVX2 and AVX-512 intrinsics paths. Widening binary16 or
//! bfloat16 to binary32 is exact (every half value is representable),
//! so the compute path inherits the DESIGN §9 bitwise-identity contract
//! unchanged: for a fixed `kc` grid, every kernel variant and every
//! thread count produces the same f32 bits.
//!
//! Two entry families live here:
//!
//! - [`gemm_half`] / [`gemm_half_with`] / [`gemm_half_parallel_with`] —
//!   the full blocked GEMM `C ← α·widen(A)·widen(B) + β·C` mirroring
//!   [`super::gemm_tiled_with`]'s NC→KC→MC loop nest, for half-stored
//!   operands of any shape.
//! - [`gemm_half_f32`] / [`gemm_f32_f32`] — the "engine call" primitive
//!   beside [`super::gemm_i8_i32`]: one call is one emulated FP16
//!   matrix-engine product over a k-chunk, on operand panels the caller
//!   packed once into the engine layouts ([`super::panel`]). It runs on its
//!   own 8 × 32 register tile (`ukernel::engine_tile`, the int8 tile's
//!   shape), not the 4 × 8 GEMM micro-kernel. The f32 front hands its
//!   panels to the tile kernel as they are; the half front first widens
//!   each tile's chunk block in one contiguous pass (`vcvtph2ps` on
//!   AVX-512, the software codec elsewhere). The `me-ozaki` HostF16 backend
//!   drives the half front and the simulated matrix engine the f32 front
//!   for their slice products. [`gemm_bf16_f32`] is the simulated
//!   engine's call on an AMX host: bfloat16 panels in the AMX layouts on
//!   `tdpbf16ps` tiles ([`super::amx`]).
//!
//! Narrowing (f32 → 16 bits) happens only in [`HalfMat`] construction and
//! uses the round-to-nearest-even codecs from `me_numerics::formats`
//! ([`F16Bits`] / [`Bf16Bits`]); the compute path never rounds to 16 bits.

use super::amx::MR_AMX;
use super::panel::{PanelChunk, PanelLayout};
use super::ukernel::{self, KernelVariant, MR, MR_F32, NR, NR_F32};
use super::{blocking_for, Blocking, KernelBlocks};
use crate::mat::{Mat, MatMut};
use me_numerics::{Bf16Bits, F16Bits};

/// Which 16-bit storage format a [`HalfMat`] (or raw bit panel) holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HalfKind {
    /// IEEE 754 binary16: 1+5+10 bits, 11-bit significand.
    F16,
    /// bfloat16: 1+8+7 bits, 8-bit significand, f32's exponent range.
    Bf16,
}

impl HalfKind {
    /// Both storage formats, for test grids.
    pub const ALL: [HalfKind; 2] = [HalfKind::F16, HalfKind::Bf16];

    /// Lower-case label (artifact keys, assertion messages).
    pub fn name(self) -> &'static str {
        match self {
            HalfKind::F16 => "f16",
            HalfKind::Bf16 => "bf16",
        }
    }

    /// Round-to-nearest-even narrowing of an f32 to this format's bits.
    #[inline]
    pub fn narrow(self, x: f32) -> u16 {
        match self {
            HalfKind::F16 => F16Bits::from_f32(x).to_bits(),
            HalfKind::Bf16 => Bf16Bits::from_f32(x).to_bits(),
        }
    }

    /// Exact widening of this format's bits back to f32.
    #[inline]
    pub fn widen(self, bits: u16) -> f32 {
        match self {
            HalfKind::F16 => F16Bits::from_bits(bits).to_f32(),
            HalfKind::Bf16 => Bf16Bits::from_bits(bits).to_f32(),
        }
    }
}

impl std::fmt::Display for HalfKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A dense row-major matrix stored as 16-bit half-precision words.
///
/// Construction narrows from f32 with round-to-nearest-even; reads widen
/// exactly. The GEMM entries below consume the raw bits directly and
/// widen in their pack loops, so a `HalfMat` is exactly the memory a
/// half-precision matrix engine would stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HalfMat {
    rows: usize,
    cols: usize,
    kind: HalfKind,
    data: Vec<u16>,
}

impl HalfMat {
    /// Narrow an f32 matrix into half storage (RNE per element).
    pub fn from_f32(kind: HalfKind, a: &Mat<f32>) -> HalfMat {
        let (rows, cols) = a.shape();
        let data = a.as_slice().iter().map(|&v| kind.narrow(v)).collect();
        HalfMat { rows, cols, kind, data }
    }

    /// Wrap pre-narrowed bits (row-major, `rows · cols` words).
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_bits(kind: HalfKind, rows: usize, cols: usize, data: Vec<u16>) -> HalfMat {
        assert_eq!(data.len(), rows * cols, "HalfMat: bits length mismatch");
        HalfMat { rows, cols, kind, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Which half format the stored bits encode.
    pub fn kind(&self) -> HalfKind {
        self.kind
    }

    /// The raw 16-bit words, row-major.
    pub fn bits(&self) -> &[u16] {
        &self.data
    }

    /// One element, widened exactly to f32.
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.kind.widen(self.data[i * self.cols + j])
    }

    /// The whole matrix widened exactly to f32 (the reference operand for
    /// differential tests: `gemm_half` on `self` must be bitwise equal to
    /// the f32 GEMM on `self.widen()`).
    pub fn widen(&self) -> Mat<f32> {
        Mat::from_fn(self.rows, self.cols, |i, j| self.get(i, j))
    }
}

/// Pack the `mc × kc` block of half-stored A at (`row0`, `kb`) into MR-row
/// f32 micro-panels, widening each word as it lands. Layout is identical
/// to [`super::pack_a`] on the pre-widened matrix (widening is exact and
/// elementwise), which is the §15 widening-pack contract.
// me-verify: hot
#[allow(clippy::too_many_arguments)]
fn pack_a_half(
    kind: HalfKind,
    a: &[u16],
    lda: usize,
    row0: usize,
    mc: usize,
    kb: usize,
    kc: usize,
    buf: &mut [f32],
) {
    for it in 0..mc.div_ceil(MR) {
        let tile = &mut buf[it * MR * kc..(it + 1) * MR * kc];
        for r in 0..MR {
            let li = it * MR + r;
            if li < mc {
                let arow = &a[(row0 + li) * lda + kb..(row0 + li) * lda + kb + kc];
                for (p, &v) in arow.iter().enumerate() {
                    tile[p * MR + r] = kind.widen(v);
                }
            } else {
                for p in 0..kc {
                    tile[p * MR + r] = 0.0;
                }
            }
        }
    }
}

/// Pack the `kc × ncb` window of half-stored B (row-major `k × n`) at
/// (`kb`, `jb`) into NR-column f32 micro-panels, widening in the loop.
/// Layout mirrors [`super::pack_b`], zero-padded past the matrix edge.
// me-verify: hot
fn pack_b_half(
    kind: HalfKind,
    b: &[u16],
    ldb: usize,
    kb: usize,
    kc: usize,
    jb: usize,
    ncb: usize,
    buf: &mut [f32],
) {
    for p in 0..kc {
        let brow = &b[(kb + p) * ldb..(kb + p) * ldb + ldb];
        for jt in 0..ncb.div_ceil(NR) {
            let j0 = jb + jt * NR;
            let w = NR.min(jb + ncb - j0);
            let dst = &mut buf[jt * NR * kc + p * NR..jt * NR * kc + (p + 1) * NR];
            for (d, &v) in dst[..w].iter_mut().zip(&brow[j0..j0 + w]) {
                *d = kind.widen(v);
            }
            for v in &mut dst[w..] {
                *v = 0.0;
            }
        }
    }
}

/// The half-precision packing + micro-kernel core: computes
/// `C_panel ← α·widen(A[r0..r0+rows])·widen(B) + β·C_panel` on a borrowed
/// panel view, mirroring [`super::gemm_packed_panel`]'s NC→KC→MC loop
/// nest exactly — same scratch sizing, same spans, same scalar write-back
/// — with the widening packs substituted. `variant` must be resolved and
/// `blocking` normalized (the public fronts do both).
// me-verify: hot
#[allow(clippy::too_many_arguments)]
fn gemm_half_packed_panel(
    variant: KernelVariant,
    blocking: Blocking,
    alpha: f32,
    a: &HalfMat,
    b: &HalfMat,
    beta: f32,
    c: &mut MatMut<'_, f32>,
    r0: usize,
) {
    let rows = c.rows();
    let n = c.cols();
    let k = a.cols();
    for v in c.as_mut_slice() {
        *v *= beta;
    }
    if rows == 0 || n == 0 || k == 0 {
        return;
    }
    me_trace::counter_add(variant.half_counter(), 1);
    let Blocking { mc: mc_blk, kc: kc_blk, nc: nc_blk } = blocking;
    let a_len = mc_blk.div_ceil(MR) * MR * kc_blk.min(k);
    let b_len = nc_blk.min(n).div_ceil(NR) * NR * kc_blk.min(k);
    crate::mat::with_pack_scratch::<f32, _>(a_len, b_len, |apack, bpack| {
        for jb in (0..n).step_by(nc_blk) {
            let ncb = nc_blk.min(n - jb);
            let ntiles_n = ncb.div_ceil(NR);
            for kb in (0..k).step_by(kc_blk) {
                let kc = kc_blk.min(k - kb);
                {
                    let _t = me_trace::span("gemm.pack_b", "linalg");
                    pack_b_half(
                        b.kind,
                        &b.data,
                        b.cols,
                        kb,
                        kc,
                        jb,
                        ncb,
                        &mut bpack[..ntiles_n * NR * kc],
                    );
                }
                let bpanel = &bpack[..ntiles_n * NR * kc];
                for ib in (0..rows).step_by(mc_blk) {
                    let mc = mc_blk.min(rows - ib);
                    {
                        let _t = me_trace::span("gemm.pack_a", "linalg");
                        pack_a_half(a.kind, &a.data, a.cols, r0 + ib, mc, kb, kc, apack);
                    }
                    let _t = me_trace::span("gemm.micro_kernel", "linalg");
                    KernelBlocks { variant, alpha, apack, bpanel, kc, mc, c, ib, jb, ntiles_n }
                        .run();
                }
            }
        }
    });
}

fn check_half_shapes(a: &HalfMat, b: &HalfMat, c: &Mat<f32>) {
    assert_eq!(a.cols(), b.rows(), "gemm_half: inner dimension mismatch");
    assert_eq!(a.rows(), c.rows(), "gemm_half: C rows mismatch");
    assert_eq!(b.cols(), c.cols(), "gemm_half: C cols mismatch");
    assert_eq!(a.kind(), b.kind(), "gemm_half: mixed storage kinds");
}

/// `C ← α·widen(A)·widen(B) + β·C` on the runtime-selected kernel.
pub fn gemm_half(alpha: f32, a: &HalfMat, b: &HalfMat, beta: f32, c: &mut Mat<f32>) {
    gemm_half_with(super::selected_kernel(), alpha, a, b, beta, c);
}

/// [`gemm_half`] with an explicitly pinned micro-kernel variant
/// (sanitized through [`KernelVariant::resolve_supported`]).
pub fn gemm_half_with(
    variant: KernelVariant,
    alpha: f32,
    a: &HalfMat,
    b: &HalfMat,
    beta: f32,
    c: &mut Mat<f32>,
) {
    check_half_shapes(a, b, c);
    let variant = variant.resolve_supported();
    let _t = me_trace::span(variant.tag(), "linalg");
    let mut view = c.as_view_mut();
    gemm_half_packed_panel(
        variant,
        blocking_for(variant).normalized(),
        alpha,
        a,
        b,
        beta,
        &mut view,
        0,
    );
}

/// [`gemm_half_with`] fanned out over disjoint row panels of C, bitwise
/// identical to the serial front for every thread count (the widening
/// packs preserve the §9 contract: per-element FMA order depends only on
/// the `kc` grid). `threads == 0` resolves via [`me_par::resolve_threads`].
pub fn gemm_half_parallel_with(
    variant: KernelVariant,
    alpha: f32,
    a: &HalfMat,
    b: &HalfMat,
    beta: f32,
    c: &mut Mat<f32>,
    threads: usize,
) {
    check_half_shapes(a, b, c);
    let m = a.rows();
    let nthreads = me_par::resolve_threads(threads).min(m.div_ceil(MR).max(1));
    if nthreads <= 1 || m < 2 * MR || b.cols() == 0 {
        gemm_half_with(variant, alpha, a, b, beta, c);
        return;
    }
    let variant = variant.resolve_supported();
    let blocking = blocking_for(variant).normalized();
    let mut run = |pool: &me_par::WorkerPool| {
        let rows_per = m.div_ceil(pool.threads()).next_multiple_of(ukernel::BLOCK_ROWS);
        let mut panels: Vec<(usize, MatMut<'_, f32>)> = c.split_rows_mut(rows_per).collect();
        pool.for_each_mut_tagged(variant.tag(), &mut panels, |_, (r0, panel)| {
            gemm_half_packed_panel(variant, blocking, alpha, a, b, beta, panel, *r0);
        });
    };
    if nthreads == me_par::global().threads() {
        run(me_par::global());
    } else {
        run(&me_par::WorkerPool::new(nthreads));
    }
}

/// One engine call of the emulated FP16 matrix engine on packed binary16
/// or bfloat16 panels: `out[i·n + j] = Σ_{p<kc} widen(a_i[p]) ·
/// widen(b_j[p])` (overwrite semantics, no accumulation across calls),
/// computed in f32 with exactly one correctly-rounded FMA per ascending
/// `p` — the §9 contract, so every kernel variant returns the same bits
/// and the chunk sums are bit-identical to a scalar `mul_add` chain over
/// the widened operands.
///
/// `a` is the chunk of `m` A rows in [`PanelLayout::F32_A`] (8-row
/// tiles) and `b` the chunk of `n` B columns in [`PanelLayout::F32_B`]
/// (32-column tiles), both packed once by the caller. Each tile's chunk
/// block is widened in one contiguous pass (`vcvtph2ps` on AVX-512, the
/// codec elsewhere) and handed to the f32 core of [`gemm_f32_f32`]. The
/// `me-ozaki` HostF16 backend's slice product; counted per call on
/// `ukernel.half.<variant>`.
// me-verify: hot
#[allow(clippy::too_many_arguments)]
pub fn gemm_half_f32(
    variant: KernelVariant,
    m: usize,
    n: usize,
    kc: usize,
    a: PanelChunk<'_, u16>,
    b: PanelChunk<'_, u16>,
    kind: HalfKind,
    out: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    let variant = variant.resolve_supported();
    me_trace::counter_add(variant.half_counter(), 1);
    let (ta, tb) = (m.div_ceil(MR_F32), n.div_ceil(NR_F32));
    crate::mat::with_pack_scratch::<f32, _>(ta * MR_F32 * kc, tb * NR_F32 * kc, |apack, bpack| {
        for (t, dst) in apack.chunks_exact_mut((MR_F32 * kc).max(1)).enumerate() {
            widen_into(variant, kind, a.tile(t, MR_F32 * kc), dst);
        }
        for (t, dst) in bpack.chunks_exact_mut((NR_F32 * kc).max(1)).enumerate() {
            widen_into(variant, kind, b.tile(t, NR_F32 * kc), dst);
        }
        let a = PanelChunk::new(apack, MR_F32 * kc, PanelLayout::F32_A);
        let b = PanelChunk::new(bpack, NR_F32 * kc, PanelLayout::F32_B);
        engine_core(variant, m, n, kc, a, b, out);
    });
}

/// [`gemm_half_f32`] on f32 panels, which the engine tile reads as they
/// are: the call only computes. The `me-ozaki` simulated matrix engine
/// drives this for its integer-valued slice panels, so it shares one
/// kernel path with the HostF16 backend and differs only in slice
/// storage. Counted per call on `ukernel.<variant>`.
// me-verify: hot
pub fn gemm_f32_f32(
    variant: KernelVariant,
    m: usize,
    n: usize,
    kc: usize,
    a: PanelChunk<'_, f32>,
    b: PanelChunk<'_, f32>,
    out: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    let variant = variant.resolve_supported();
    me_trace::counter_add(variant.counter(), 1);
    engine_core(variant, m, n, kc, a, b, out);
}

/// `me-trace` counter of bf16 engine calls run on AMX tiles.
const AMX_COUNTER: &str = "ukernel.amx.bf16";

/// [`gemm_f32_f32`] on bfloat16 panels in the AMX layouts
/// ([`PanelLayout::BF16_A`], [`PanelLayout::BF16_B`]): on AMX
/// `tdpbf16ps` tiles inside `Avx512` when the host has AMX-BF16
/// ([`super::amx`]), else widened per tile block into the f32 layouts and
/// run on the variant's engine tile. AMX adds the products of each k pair
/// in an order of its own, so the two agree bit for bit only where every
/// partial sum is exact in f32: every word an integer of magnitude at
/// most 2^8 and `kc · 2^16 ≤ 2^24`. The simulated matrix engine routes
/// only such slices here. Counted per call on `ukernel.<variant>`, and on
/// `ukernel.amx.bf16` when on AMX.
// me-verify: hot
pub fn gemm_bf16_f32(
    variant: KernelVariant,
    m: usize,
    n: usize,
    kc: usize,
    a: PanelChunk<'_, u16>,
    b: PanelChunk<'_, u16>,
    out: &mut [f32],
) {
    debug_assert!(
        a.layout() == PanelLayout::BF16_A && b.layout() == PanelLayout::BF16_B,
        "bf16 engine call: panels not in the bf16 layout"
    );
    if m == 0 || n == 0 {
        return;
    }
    let variant = variant.resolve_supported();
    me_trace::counter_add(variant.counter(), 1);
    let kcp = kc.next_multiple_of(2);
    if kc > 0 && super::amx::bf16_on(variant) {
        me_trace::counter_add(AMX_COUNTER, 1);
        super::amx::gemm_bf16_f32(m, n, kcp, a, b, out);
        return;
    }
    let widen = |w: u16| HalfKind::Bf16.widen(w);
    let (ta, tb) = (m.div_ceil(MR_F32), n.div_ceil(NR_F32));
    crate::mat::with_pack_scratch::<f32, _>(ta * MR_F32 * kc, tb * NR_F32 * kc, |apack, bpack| {
        // Two 8-row f32 tiles per 16-row bf16 tile; value `p` of row `r`
        // moves from `r·kcp + p` to `p·8 + r`.
        for (t, dst) in apack.chunks_exact_mut((MR_F32 * kc).max(1)).enumerate() {
            let src = &a.tile(t / 2, MR_AMX * kcp)[t % 2 * MR_F32 * kcp..];
            for (p, step) in dst.chunks_exact_mut(MR_F32).enumerate() {
                for (r, d) in step.iter_mut().enumerate() {
                    *d = widen(src[r * kcp + p]);
                }
            }
        }
        // Value `p` of column `j` moves from `(p / 2)·64 + 2j + p % 2` to
        // `p·32 + j`.
        for (t, dst) in bpack.chunks_exact_mut((NR_F32 * kc).max(1)).enumerate() {
            let src = b.tile(t, NR_F32 * kcp);
            for (p, step) in dst.chunks_exact_mut(NR_F32).enumerate() {
                let pair = &src[p / 2 * 2 * NR_F32 + p % 2..];
                for (j, d) in step.iter_mut().enumerate() {
                    *d = widen(pair[2 * j]);
                }
            }
        }
        let a = PanelChunk::new(apack, MR_F32 * kc, PanelLayout::F32_A);
        let b = PanelChunk::new(bpack, NR_F32 * kc, PanelLayout::F32_B);
        engine_core(variant, m, n, kc, a, b, out);
    });
}

/// The engine-call core behind [`gemm_half_f32`] and [`gemm_f32_f32`]: the
/// dispatched engine tile (`ukernel::engine_tile`) per [`MR_F32`] ×
/// [`NR_F32`] tile of the packed chunks, the valid `m × n` part copied
/// into `out`. Column tiles run outermost, so one B tile block stays in L1
/// while the A tiles stream past it. `variant` must be resolved.
// me-verify: hot
fn engine_core(
    variant: KernelVariant,
    m: usize,
    n: usize,
    kc: usize,
    a: PanelChunk<'_, f32>,
    b: PanelChunk<'_, f32>,
    out: &mut [f32],
) {
    assert!(out.len() >= m * n, "engine call: output too short");
    debug_assert!(
        a.layout() == PanelLayout::F32_A && b.layout() == PanelLayout::F32_B,
        "engine call: panels not in the f32 micro-panel layout"
    );
    if kc == 0 {
        out[..m * n].fill(0.0);
        return;
    }
    for jt in 0..n.div_ceil(NR_F32) {
        let bp = b.tile(jt, NR_F32 * kc);
        let j0 = jt * NR_F32;
        let nr = NR_F32.min(n - j0);
        for it in 0..m.div_ceil(MR_F32) {
            let mr = MR_F32.min(m - it * MR_F32);
            let acc = ukernel::engine_tile(variant, a.tile(it, MR_F32 * kc), bp, kc, mr, nr);
            for (r, accr) in acc.iter().enumerate().take(mr) {
                let at = (it * MR_F32 + r) * n + j0;
                out[at..at + nr].copy_from_slice(&accr[..nr]);
            }
        }
    }
}

/// Widen `src` into `dst` exactly (the same bits as [`HalfKind::widen`]
/// for every pattern, NaNs quieted alike).
// me-verify: hot
fn widen_into(variant: KernelVariant, kind: HalfKind, src: &[u16], dst: &mut [f32]) {
    let done = match kind {
        HalfKind::F16 => widen_f16_simd(variant, src, dst),
        HalfKind::Bf16 => 0,
    };
    for (d, &s) in dst[done..].iter_mut().zip(&src[done..]) {
        *d = kind.widen(s);
    }
}

/// The leading words of `src` the variant's hardware conversion widened
/// into `dst`: whole 16-word blocks on AVX-512, none otherwise.
#[cfg(target_arch = "x86_64")]
fn widen_f16_simd(variant: KernelVariant, src: &[u16], dst: &mut [f32]) -> usize {
    match variant {
        // SAFETY: `Avx512` only resolves when `avx512_supported()` proved
        // AVX512F, all `vcvtph2ps` zmm needs; the kernel bounds its loads
        // and stores by both slice lengths.
        KernelVariant::Avx512 => unsafe { widen_f16_avx512(src, dst) },
        _ => 0,
    }
}

/// Non-x86 stand-in: no hardware conversion.
#[cfg(not(target_arch = "x86_64"))]
fn widen_f16_simd(_variant: KernelVariant, _src: &[u16], _dst: &mut [f32]) -> usize {
    0
}

/// `vcvtph2ps` zmm over whole 16-word blocks; returns the words done.
///
/// # Safety
///
/// Caller must guarantee AVX512F (runtime-detected).
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn widen_f16_avx512(src: &[u16], dst: &mut [f32]) -> usize {
    use std::arch::x86_64::{__m256i, _mm256_loadu_si256, _mm512_cvtph_ps, _mm512_storeu_ps};
    let n = src.len().min(dst.len());
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY (pointers): i + 16 <= n bounds both the 32-byte load and
        // the 64-byte store.
        let h = _mm256_loadu_si256(src.as_ptr().add(i).cast::<__m256i>());
        _mm512_storeu_ps(dst.as_mut_ptr().add(i), _mm512_cvtph_ps(h));
        i += 16;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{available_variants, gemm_naive, gemm_tiled_with, PanelWord};
    use me_numerics::Rng64;

    fn seeded_mat(rows: usize, cols: usize, seed: u64) -> Mat<f32> {
        let mut rng = Rng64::seed_from_u64(seed);
        Mat::from_fn(rows, cols, |_, _| (rng.next_f64() * 4.0 - 2.0) as f32)
    }

    #[test]
    fn half_roundtrip_is_exact() {
        let a = seeded_mat(7, 9, 1);
        for kind in HalfKind::ALL {
            let h = HalfMat::from_f32(kind, &a);
            let w = h.widen();
            let h2 = HalfMat::from_f32(kind, &w);
            assert_eq!(h.bits(), h2.bits(), "{kind}: narrow∘widen must be identity");
        }
    }

    #[test]
    fn gemm_half_matches_widened_f32_gemm_bitwise() {
        // The widening-pack contract: gemm_half on half storage must be
        // bitwise equal to the f32 tiled GEMM on the pre-widened operands
        // (same variant, same blocking), for both storage kinds.
        let (m, k, n) = (13, 31, 17);
        let a = seeded_mat(m, k, 2);
        let b = seeded_mat(k, n, 3);
        let c0 = seeded_mat(m, n, 4);
        for kind in HalfKind::ALL {
            let ha = HalfMat::from_f32(kind, &a);
            let hb = HalfMat::from_f32(kind, &b);
            for v in available_variants() {
                let mut want = c0.clone();
                gemm_tiled_with(v, 1.5f32, &ha.widen(), &hb.widen(), 0.5f32, &mut want);
                let mut got = c0.clone();
                gemm_half_with(v, 1.5f32, &ha, &hb, 0.5f32, &mut got);
                assert_eq!(got.as_slice(), want.as_slice(), "{kind} variant {v}");
            }
        }
    }

    #[test]
    fn gemm_half_parallel_matches_serial_bitwise() {
        let (m, k, n) = (37, 23, 19);
        let a = seeded_mat(m, k, 5);
        let b = seeded_mat(k, n, 6);
        for kind in HalfKind::ALL {
            let ha = HalfMat::from_f32(kind, &a);
            let hb = HalfMat::from_f32(kind, &b);
            let mut want = Mat::zeros(m, n);
            gemm_half_with(KernelVariant::Scalar, 1.0, &ha, &hb, 0.0, &mut want);
            for threads in [1usize, 2, 3, 5] {
                for v in available_variants() {
                    let mut got = Mat::zeros(m, n);
                    gemm_half_parallel_with(v, 1.0, &ha, &hb, 0.0, &mut got, threads);
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "{kind} variant {v} threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_half_is_close_to_f64_reference() {
        // Sanity on accuracy, not bits: a half GEMM agrees with the f64
        // reference to the storage format's relative precision.
        let (m, k, n) = (12, 40, 9);
        let a = seeded_mat(m, k, 7);
        let b = seeded_mat(k, n, 8);
        let ad = Mat::from_fn(m, k, |i, j| a[(i, j)] as f64);
        let bd = Mat::from_fn(k, n, |i, j| b[(i, j)] as f64);
        let mut refc = Mat::zeros(m, n);
        gemm_naive(1.0f64, &ad, &bd, 0.0, &mut refc);
        for (kind, tol) in [(HalfKind::F16, 5e-2), (HalfKind::Bf16, 3e-1)] {
            let ha = HalfMat::from_f32(kind, &a);
            let hb = HalfMat::from_f32(kind, &b);
            let mut got = Mat::zeros(m, n);
            gemm_half(1.0, &ha, &hb, 0.0, &mut got);
            for i in 0..m {
                for j in 0..n {
                    let err = (got[(i, j)] as f64 - refc[(i, j)]).abs();
                    assert!(err < tol * k as f64, "{kind} ({i},{j}): err {err}");
                }
            }
        }
    }

    /// `lines` line-major lines of length `k` packed into `layout`, one
    /// chunk of `k`.
    fn pack<W: PanelWord>(layout: PanelLayout, lines: &[W], k: usize) -> Vec<W> {
        let count = lines.len().checked_div(k).unwrap_or(0);
        let mut panel = layout.blank(count, k, k.max(1));
        for (li, line) in lines.chunks(k.max(1)).enumerate().take(count) {
            layout.put_line(&mut panel, li, line, k.max(1));
        }
        panel
    }

    #[test]
    fn engine_call_matches_scalar_chain_bitwise() {
        // gemm_half_f32's contract: bit-identical to the ascending scalar
        // mul_add chain over widened operands, for every variant, on
        // ragged tiles — and so is gemm_f32_f32 on the widened values, the
        // same core without the widening pass.
        let (m, n, kc) = (5, 13, 67);
        let mut rng = Rng64::seed_from_u64(11);
        for kind in HalfKind::ALL {
            let a: Vec<u16> =
                (0..m * kc).map(|_| kind.narrow((rng.next_f64() * 4.0 - 2.0) as f32)).collect();
            let bt: Vec<u16> =
                (0..n * kc).map(|_| kind.narrow((rng.next_f64() * 4.0 - 2.0) as f32)).collect();
            let mut want = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut s = 0.0f32;
                    for p in 0..kc {
                        s = kind.widen(a[i * kc + p]).mul_add(kind.widen(bt[j * kc + p]), s);
                    }
                    want[i * n + j] = s;
                }
            }
            let (la, lb) = (PanelLayout::F32_A, PanelLayout::F32_B);
            let (pa, pb) = (pack(la, &a, kc), pack(lb, &bt, kc));
            let wide = |w: &[u16]| w.iter().map(|&w| kind.widen(w)).collect::<Vec<f32>>();
            let (pa32, pb32) = (wide(&pa), wide(&pb));
            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for v in available_variants() {
                let mut out = vec![-1.0f32; m * n];
                let (ca, cb) = (la.chunk(&pa, 0, 0, kc, kc), lb.chunk(&pb, 0, 0, kc, kc));
                gemm_half_f32(v, m, n, kc, ca, cb, kind, &mut out);
                assert_eq!(bits(&out), bits(&want), "{kind} variant {v}");
                let mut out32 = vec![-1.0f32; m * n];
                let (ca, cb) = (la.chunk(&pa32, 0, 0, kc, kc), lb.chunk(&pb32, 0, 0, kc, kc));
                gemm_f32_f32(v, m, n, kc, ca, cb, &mut out32);
                assert_eq!(bits(&out32), bits(&want), "f32 front on {kind} values, variant {v}");
            }
        }
    }

    #[test]
    fn engine_call_zero_chunk_zeroes_output() {
        let (la, lb) = (PanelLayout::F32_A, PanelLayout::F32_B);
        let mut out = vec![1.0f32; 6];
        let (ha, hb) = (PanelChunk::<u16>::new(&[], 0, la), PanelChunk::<u16>::new(&[], 0, lb));
        gemm_half_f32(KernelVariant::Scalar, 2, 3, 0, ha, hb, HalfKind::F16, &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
        let mut out = vec![1.0f32; 6];
        let (a, b) = (PanelChunk::<f32>::new(&[], 0, la), PanelChunk::<f32>::new(&[], 0, lb));
        gemm_f32_f32(KernelVariant::Scalar, 2, 3, 0, a, b, &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn hardware_widening_matches_the_codec_on_every_pattern() {
        // All 65536 patterns, NaNs included, at an odd length so the
        // software tail runs too.
        let src: Vec<u16> = (0..=u16::MAX).chain([0x7c01, 0xfe00, 0x0001]).collect();
        for v in available_variants() {
            for kind in HalfKind::ALL {
                let want: Vec<u32> = src.iter().map(|&w| kind.widen(w).to_bits()).collect();
                let mut dst = vec![0.0f32; src.len()];
                widen_into(v, kind, &src, &mut dst);
                let got: Vec<u32> = dst.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "{kind} variant {v}");
            }
        }
    }
}
