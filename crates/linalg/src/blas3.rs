//! BLAS level-3 routines, centred on GEMM.
//!
//! Four GEMM code paths are provided, mirroring the paper's Table II
//! comparison of scalar vs vectorized (AVX2) OpenBLAS builds:
//!
//! - [`gemm_naive`] — textbook triple loop, strictly scalar dependency
//!   chain: the stand-in for a scalar (no-SIMD) build,
//! - [`gemm_blocked`] — cache-blocked loop nest with B-packing,
//! - [`gemm_tiled`] — packs A/B panels and runs a register-tiled
//!   micro-kernel with unrolled independent accumulators (the shape
//!   autovectorizers map onto SIMD lanes): the stand-in for a vectorized
//!   build,
//! - [`gemm_parallel`] — the *same* packed core fanned out over disjoint
//!   zero-copy row panels of C on a persistent [`me_par::WorkerPool`].
//!
//! All variants compute `C ← α·A·B + β·C` and agree to rounding order.
//! [`gemm_tiled`] and [`gemm_parallel`] are **bitwise identical** for every
//! thread count: both drive [`gemm_packed_panel`], whose per-element FMA
//! order depends only on the global KC grid, never on the row partition or
//! tile membership.
//!
//! The packed core's register blocks (one MR×NR tile, or 8 × 24 for f64
//! on AVX-512) are computed by a runtime-dispatched micro-kernel
//! ([`ukernel`]): strictly scalar, or hand-written AVX2+FMA or AVX-512F
//! intrinsics — all bitwise identical by the
//! fixed-FMA-order contract, so the dispatch choice (env `ME_KERNEL`, a
//! runtime override, or CPUID detection) never changes a result bit. The `_with` entry points ([`gemm_tiled_with`],
//! [`gemm_parallel_with`], [`gemm_parallel_on_with`]) pin a variant
//! explicitly — the differential harness drives those, avoiding global
//! dispatch state in concurrent tests.

pub mod amx;
pub mod autotune;
pub mod blocking;
pub mod fold;
pub mod half;
pub mod int8;
pub mod packed;
pub mod panel;
pub mod slice;
pub mod ukernel;

use crate::mat::{Mat, MatMut, Scalar};
pub use amx::{amx_bf16_supported, amx_int8_supported, MR_AMX};
pub use blocking::{blocking_for, set_blocking_override, Blocking, BlockingDispatch, BLOCKING_ENV};
pub use fold::{fold_tile, FoldSum};
pub use half::{
    gemm_bf16_f32, gemm_f32_f32, gemm_half, gemm_half_f32, gemm_half_parallel_with, gemm_half_with,
    HalfKind, HalfMat,
};
pub use int8::{dot_i8_scalar, gemm_i8_i32, gemm_i8_i32_simd, vnni_supported, MR_I8, NR_I8};
pub use packed::{pack_b_matrix, PackedB};
pub use panel::{PanelChunk, PanelFormat, PanelLayout, PanelWord, SUM_WORDS};
pub use slice::{slice_pass, SliceLanes, SliceWord};
pub use ukernel::{
    available_variants, avx2_supported, avx512_supported, selected_kernel, set_kernel_override,
    KernelDispatch, KernelVariant, VariantWork, KERNEL_ENV, MR, NR,
};

/// Selector for the GEMM implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmAlgo {
    /// Textbook scalar triple loop.
    Naive,
    /// Cache-blocked with packing.
    Blocked,
    /// Cache-blocked + register-tiled micro-kernel (SIMD-shaped).
    Tiled,
    /// Tiled kernel parallelized over row panels.
    Parallel,
}

/// `C ← α·A·B + β·C` with the selected algorithm.
///
/// # Panics
/// On shape mismatch.
pub fn gemm<T: Scalar>(algo: GemmAlgo, alpha: T, a: &Mat<T>, b: &Mat<T>, beta: T, c: &mut Mat<T>) {
    match algo {
        GemmAlgo::Naive => gemm_naive(alpha, a, b, beta, c),
        GemmAlgo::Blocked => gemm_blocked(alpha, a, b, beta, c),
        GemmAlgo::Tiled => gemm_tiled(alpha, a, b, beta, c),
        GemmAlgo::Parallel => gemm_parallel(alpha, a, b, beta, c, 0),
    }
}

fn check_shapes<T: Scalar>(a: &Mat<T>, b: &Mat<T>, c: &Mat<T>) {
    assert_eq!(a.cols(), b.rows(), "gemm: inner dimension mismatch");
    assert_eq!(a.rows(), c.rows(), "gemm: C rows mismatch");
    assert_eq!(b.cols(), c.cols(), "gemm: C cols mismatch");
}

fn check_prepacked_shapes<T: Scalar>(a: &Mat<T>, b: &PackedB<T>, c: &Mat<T>) {
    assert_eq!(a.cols(), b.k(), "gemm: inner dimension mismatch");
    assert_eq!(a.rows(), c.rows(), "gemm: C rows mismatch");
    assert_eq!(b.n(), c.cols(), "gemm: C cols mismatch");
}

/// Scalar reference GEMM: a single running accumulator per output element,
/// which forces a serial dependency chain the compiler cannot vectorize
/// without reassociation (our stand-in for a `-mno-avx` build).
pub fn gemm_naive<T: Scalar>(alpha: T, a: &Mat<T>, b: &Mat<T>, beta: T, c: &mut Mat<T>) {
    check_shapes(a, b, c);
    let (m, k) = a.shape();
    let n = b.cols();
    for i in 0..m {
        for j in 0..n {
            let mut acc = T::ZERO;
            for p in 0..k {
                acc = a[(i, p)].mul_add(b[(p, j)], acc);
            }
            c[(i, j)] = alpha.mul_add(acc, beta * c[(i, j)]);
        }
    }
    let _ = m;
}

/// Cache-blocked GEMM with row-panel packing of B.
pub fn gemm_blocked<T: Scalar>(alpha: T, a: &Mat<T>, b: &Mat<T>, beta: T, c: &mut Mat<T>) {
    check_shapes(a, b, c);
    let (m, k) = a.shape();
    let n = b.cols();
    let Blocking { mc: mc_blk, kc: kc_blk, .. } = Blocking::DEFAULT;

    // Scale C by beta once up front.
    for v in c.as_mut_slice() {
        *v *= beta;
    }

    // kc x n panel of B, reused across the i blocks.
    for kb in (0..k).step_by(kc_blk) {
        let kc = kc_blk.min(k - kb);
        for ib in (0..m).step_by(mc_blk) {
            let mc = mc_blk.min(m - ib);
            for i in ib..ib + mc {
                let arow = &a.row(i)[kb..kb + kc];
                for (p, &aip) in arow.iter().enumerate() {
                    let s = alpha * aip;
                    let brow = b.row(kb + p);
                    let crow = c.row_mut(i);
                    for (cij, &bpj) in crow.iter_mut().zip(brow) {
                        *cij = s.mul_add(bpj, *cij);
                    }
                }
            }
        }
    }
    let _ = n;
}

/// Register-tiled GEMM: packed MR×NR micro-kernel with independent
/// accumulators.
///
/// The micro-kernel keeps `MR * NR` running sums in local variables and
/// updates them with independent FMAs per k step — the dependency structure
/// SIMD units (and autovectorizers) exploit. This is the "vectorized build"
/// stand-in for Table II. Operand blocks are packed (A into MR-row
/// micro-panels under the MC cache block, B into NR-column micro-panels per
/// KC block) so the inner kernel streams over contiguous memory; the exact
/// same core runs under [`gemm_parallel`], one row panel per worker.
pub fn gemm_tiled<T: Scalar>(alpha: T, a: &Mat<T>, b: &Mat<T>, beta: T, c: &mut Mat<T>) {
    gemm_tiled_with(selected_kernel(), alpha, a, b, beta, c);
}

/// [`gemm_tiled`] with an explicitly pinned micro-kernel variant
/// (sanitized through [`KernelVariant::resolve_supported`], so requesting
/// `Avx2` on a non-AVX2 host runs `Scalar` instead of faulting).
pub fn gemm_tiled_with<T: Scalar>(
    variant: KernelVariant,
    alpha: T,
    a: &Mat<T>,
    b: &Mat<T>,
    beta: T,
    c: &mut Mat<T>,
) {
    let variant = variant.resolve_supported();
    gemm_tiled_with_blocking(variant, blocking_for(variant), alpha, a, b, beta, c);
}

/// [`gemm_tiled_with`] with an explicitly pinned [`Blocking`], bypassing
/// the global dispatch table — the autotune sweep's timing primitive
/// (no global state is touched, so concurrent sweeps can't race) and the
/// benches' A/B arms. Remember that `kc` is numerically observable:
/// bitwise comparisons must pin one `kc` on both sides.
pub fn gemm_tiled_with_blocking<T: Scalar>(
    variant: KernelVariant,
    blocking: Blocking,
    alpha: T,
    a: &Mat<T>,
    b: &Mat<T>,
    beta: T,
    c: &mut Mat<T>,
) {
    check_shapes(a, b, c);
    let variant = variant.resolve_supported();
    let _t = me_trace::span(variant.tag(), "linalg");
    let mut view = c.as_view_mut();
    gemm_packed_panel(
        variant,
        blocking.normalized(),
        alpha,
        a,
        BOperand::Fresh(b),
        beta,
        &mut view,
        0,
    );
}

/// `C ← α·A·B + β·C` where `B` was packed up front by [`pack_b_matrix`].
///
/// Consumes the stored panels exactly as the fresh path consumes its
/// scratch pack, under the `kc`/`nc` grid recorded in the [`PackedB`] —
/// so for equal `kc` the output is **bitwise identical** to
/// [`gemm_tiled_with`] on the unpacked `B` (the §9 FMA contract extended
/// to prepacked operands; `tests/prepacked_differential.rs` proves it
/// across the variant grid).
///
/// # Panics
/// On shape mismatch against the packed operand's recorded `k × n`.
pub fn gemm_tiled_prepacked_with<T: Scalar>(
    variant: KernelVariant,
    alpha: T,
    a: &Mat<T>,
    b: &PackedB<T>,
    beta: T,
    c: &mut Mat<T>,
) {
    check_prepacked_shapes(a, b, c);
    let variant = variant.resolve_supported();
    let _t = me_trace::span(variant.tag(), "linalg");
    let mut view = c.as_view_mut();
    gemm_packed_panel(variant, b.blocking(), alpha, a, BOperand::Packed(b), beta, &mut view, 0);
}

/// Pack the `mc × kc` block of A at (`row0`, `kb`) into MR-row
/// micro-panels: micro-panel `it` stores, for each k step `p`, the MR
/// values `A[row0 + it·MR + r][kb + p]` contiguously, zero-padded past
/// `mc`. The padding rows feed accumulator lanes that are never written
/// back, so they cost a few FMAs but keep the kernel branch-free.
///
/// Each micro-panel reads its MR rows together and is written once, in
/// order, compiled for `variant`; the bytes are the same on every
/// variant.
// me-verify: hot
fn pack_a<T: Scalar>(
    variant: KernelVariant,
    a: &Mat<T>,
    row0: usize,
    mc: usize,
    kb: usize,
    kc: usize,
    buf: &mut [T],
) {
    variant.run(PackA { a, row0, mc, kb, kc, buf });
}

/// [`pack_a`]'s arguments, for [`KernelVariant::run`].
struct PackA<'a, T: Scalar> {
    a: &'a Mat<T>,
    row0: usize,
    mc: usize,
    kb: usize,
    kc: usize,
    buf: &'a mut [T],
}

impl<T: Scalar> VariantWork for PackA<'_, T> {
    type Output = ();

    #[inline(always)]
    fn call(self) {
        let PackA { a, row0, mc, kb, kc, buf } = self;
        let steps = buf[..mc.div_ceil(MR) * MR * kc].as_chunks_mut::<MR>().0;
        for (it, tile) in steps.chunks_exact_mut(kc).enumerate() {
            let live = MR.min(mc - it * MR);
            let rows: [&[T]; MR] = std::array::from_fn(|r| {
                if r < live {
                    &a.row(row0 + it * MR + r)[kb..kb + kc]
                } else {
                    &[]
                }
            });
            if live == MR {
                for (p, d) in tile.iter_mut().enumerate() {
                    *d = std::array::from_fn(|r| rows[r][p]);
                }
            } else {
                for (p, d) in tile.iter_mut().enumerate() {
                    *d = std::array::from_fn(|r| if r < live { rows[r][p] } else { T::ZERO });
                }
            }
        }
    }
}

/// B rows [`pack_b`] moves per pass: for each micro-panel it copies
/// these rows' NR-wide slices, so every write is a contiguous run of
/// `PACK_B_ROWS · NR` values (1 KB of f64) and every source row is read
/// left to right. Walking one B row across all micro-panels instead
/// scatters NR values into each panel, `NR · kc` elements apart: at the
/// default `kc` all of them map to the same L1 set.
const PACK_B_ROWS: usize = 16;

/// Pack the `kc × ncb` window of B at (`kb`, `jb`) into NR-column
/// micro-panels: micro-panel `jt` stores, for each k step `p`, the NR
/// values `B[kb + p][jb + jt·NR + j]` contiguously, zero-padded past the
/// matrix edge. Shared verbatim by the in-scratch fresh path and
/// [`pack_b_matrix`], which is what makes prepacked panels byte-identical
/// to fresh ones (the §12 layout contract).
///
/// The copy walks B in [`PACK_B_ROWS`]-row blocks and runs compiled for
/// `variant` (one 64-byte move per f64 tile row on AVX-512). The order
/// and the instruction set only move values, so the packed bytes are the
/// same on every variant.
// me-verify: hot
pub(crate) fn pack_b<T: Scalar>(
    variant: KernelVariant,
    b: &Mat<T>,
    kb: usize,
    kc: usize,
    jb: usize,
    ncb: usize,
    buf: &mut [T],
) {
    variant.run(PackB { b, kb, kc, jb, ncb, buf });
}

/// [`pack_b`]'s arguments, for [`KernelVariant::run`].
struct PackB<'a, T: Scalar> {
    b: &'a Mat<T>,
    kb: usize,
    kc: usize,
    jb: usize,
    ncb: usize,
    buf: &'a mut [T],
}

impl<T: Scalar> VariantWork for PackB<'_, T> {
    type Output = ();

    #[inline(always)]
    fn call(self) {
        let PackB { b, kb, kc, jb, ncb, buf } = self;
        let full = ncb / NR;
        let tail = ncb % NR;
        // One `[T; NR]` per (micro-panel, k step): tile `jt`, step `p` is
        // `steps[jt·kc + p]`.
        let steps = buf[..ncb.div_ceil(NR) * NR * kc].as_chunks_mut::<NR>().0;
        let mut rows: [&[[T; NR]]; PACK_B_ROWS] = [&[]; PACK_B_ROWS];
        for p0 in (0..kc).step_by(PACK_B_ROWS) {
            let pe = (p0 + PACK_B_ROWS).min(kc);
            for (row, p) in rows.iter_mut().zip(p0..pe) {
                *row = b.row(kb + p)[jb..jb + full * NR].as_chunks().0;
            }
            for jt in 0..full {
                let dst = &mut steps[jt * kc + p0..jt * kc + pe];
                for (d, row) in dst.iter_mut().zip(&rows) {
                    *d = row[jt];
                }
            }
            if tail > 0 {
                let j0 = jb + full * NR;
                let dst = &mut steps[full * kc + p0..full * kc + pe];
                for (d, p) in dst.iter_mut().zip(p0..pe) {
                    d[..tail].copy_from_slice(&b.row(kb + p)[j0..j0 + tail]);
                    d[tail..].fill(T::ZERO);
                }
            }
        }
    }
}

/// The B-side operand of the packed core: a fresh matrix packed into
/// scratch per (NC, KC) block, or panels prepacked once by
/// [`pack_b_matrix`] and replayed from the [`PackedB`].
#[derive(Clone, Copy)]
enum BOperand<'b, T: Scalar> {
    /// Pack from the matrix into per-block scratch (the classic path).
    Fresh(&'b Mat<T>),
    /// Borrow panels straight from a prepacked operand; zero pack work.
    Packed(&'b PackedB<T>),
}

/// The packing + micro-kernel core shared by the serial ([`gemm_tiled`]),
/// parallel ([`gemm_parallel`]) and prepacked fronts: computes
/// `C_panel ← α·A[r0..r0+rows]·B + β·C_panel` directly on a borrowed
/// zero-copy panel view of C.
///
/// Loop order is NC column blocks (outermost) → KC chunks (the shared
/// grid: every element sees the same k-chunking regardless of the row
/// partition, so parallel == serial bitwise) → MC cache blocks of packed
/// A → register blocks against the B panel, fresh-packed into scratch or
/// borrowed from a [`PackedB`], byte-identical either way. Inside an MC
/// block ([`KernelBlocks`]) groups of B micro-panels are outer and
/// groups of A micro-panels inner, so the B group stays cache-hot while
/// A streams. A register block is 8 × 24 (two MR-row A micro-panels × three
/// NR-column B micro-panels) for f64 on AVX-512 and one MR×NR tile
/// otherwise; it runs the caller-pinned [`ukernel`] variant, and the
/// write-back is one `alpha.mul_add` per element in every variant (part
/// of the bitwise-identity contract). The packed layout is the MR×NR one
/// for every variant.
///
/// Of `blocking` only `kc` is numerically observable (it sets the
/// per-element FMA grouping); `mc`/`nc` merely reorder independent
/// elements' work. In `Packed` mode the caller passes the operand's own
/// recorded blocking so the replayed grid matches the stored panels.
///
/// Pack buffers come from the per-thread 64-byte-aligned scratch
/// ([`crate::mat::with_pack_scratch`]), sized by `kc.min(k)` so skinny-k
/// serving shapes stop over-allocating: steady-state GEMMs allocate
/// nothing — the `linalg.pack_scratch_grow` trace counter proves it.
/// `Packed` mode requests zero B scratch.
///
/// `variant` must already be resolved via
/// [`KernelVariant::resolve_supported`] and `blocking` normalized (the
/// public fronts do both).
// me-verify: hot
fn gemm_packed_panel<T: Scalar>(
    variant: KernelVariant,
    blocking: Blocking,
    alpha: T,
    a: &Mat<T>,
    b: BOperand<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
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
    me_trace::counter_add(variant.counter(), 1);
    let Blocking { mc: mc_blk, kc: kc_blk, nc: nc_blk } = blocking;
    let a_len = mc_blk.div_ceil(MR) * MR * kc_blk.min(k);
    let b_len = match b {
        BOperand::Fresh(_) => nc_blk.min(n).div_ceil(NR) * NR * kc_blk.min(k),
        BOperand::Packed(_) => 0,
    };
    crate::mat::with_pack_scratch::<T, _>(a_len, b_len, |apack, bpack| {
        for (bj, jb) in (0..n).step_by(nc_blk).enumerate() {
            let ncb = nc_blk.min(n - jb);
            let ntiles_n = ncb.div_ceil(NR);
            for (bk, kb) in (0..k).step_by(kc_blk).enumerate() {
                let kc = kc_blk.min(k - kb);
                let bpanel: &[T] = match b {
                    BOperand::Fresh(bm) => {
                        let _t = me_trace::span("gemm.pack_b", "linalg");
                        pack_b(variant, bm, kb, kc, jb, ncb, &mut bpack[..ntiles_n * NR * kc]);
                        &bpack[..ntiles_n * NR * kc]
                    }
                    BOperand::Packed(p) => p.panel(bj, bk),
                };
                for ib in (0..rows).step_by(mc_blk) {
                    let mc = mc_blk.min(rows - ib);
                    {
                        let _t = me_trace::span("gemm.pack_a", "linalg");
                        pack_a(variant, a, r0 + ib, mc, kb, kc, apack);
                    }
                    // One span per MC block (not per register block: that
                    // loop is too hot); covers the kernel and its write-back.
                    let _t = me_trace::span("gemm.micro_kernel", "linalg");
                    KernelBlocks { variant, alpha, apack, bpanel, kc, mc, c, ib, jb, ntiles_n }
                        .run();
                }
            }
        }
    });
}

/// The register-block loop over one packed MC × NC block: `apack` holds
/// the `mc` rows' MR-row micro-panels, `bpanel` the `ntiles_n` NR-column
/// micro-panels from C column `jb` on, both `kc` deep. B micro-panel
/// groups are outer and A micro-panel groups inner, so one group of B
/// panels stays cache-hot while the A panels stream past it. Each
/// [`ukernel::block_shape`] group (8 × 24 on AVX-512 f64, one 4 × 8 tile
/// elsewhere; smaller groups at the block's edges) is computed by
/// [`ukernel::micro_block`] and added into C rows from `ib` on with one
/// `alpha.mul_add` per element, clipped to the valid rows and columns.
/// Shared by the f64/f32 core and the half-precision GEMM.
///
/// [`Self::run`] runs the loop through [`KernelVariant::run`], compiled
/// at the variant's instruction set: on AVX-512 the write-back's
/// `mul_add` is an inline `vfmadd` over C rows instead of a libm call per
/// element. Each element still gets one correctly rounded FMA, so the
/// bits do not depend on the variant.
pub(crate) struct KernelBlocks<'a, 'c, T: Scalar> {
    pub(crate) variant: KernelVariant,
    pub(crate) alpha: T,
    pub(crate) apack: &'a [T],
    pub(crate) bpanel: &'a [T],
    pub(crate) kc: usize,
    pub(crate) mc: usize,
    pub(crate) c: &'a mut MatMut<'c, T>,
    pub(crate) ib: usize,
    pub(crate) jb: usize,
    pub(crate) ntiles_n: usize,
}

impl<T: Scalar> KernelBlocks<'_, '_, T> {
    /// Run the loop on `self.variant`.
    // me-verify: hot
    pub(crate) fn run(self) {
        self.variant.run(self);
    }
}

impl<T: Scalar> VariantWork for KernelBlocks<'_, '_, T> {
    type Output = ();

    #[inline(always)]
    fn call(self) {
        let KernelBlocks { variant, alpha, apack, bpanel, kc, mc, c, ib, jb, ntiles_n } = self;
        let (ra_blk, cb_blk) = ukernel::block_shape::<T>(variant);
        let mtiles = mc.div_ceil(MR);
        let n = c.cols();
        let mut block: ukernel::Block<T> =
            [[[T::ZERO; NR]; ukernel::BLOCK_CB]; ukernel::BLOCK_ROWS];
        for jg in (0..ntiles_n).step_by(cb_blk) {
            let cb = cb_blk.min(ntiles_n - jg);
            let bp = &bpanel[jg * NR * kc..(jg + cb) * NR * kc];
            let j0 = jb + jg * NR;
            let cols = (cb * NR).min(n - j0);
            for ig in (0..mtiles).step_by(ra_blk) {
                let ra = ra_blk.min(mtiles - ig);
                let ap = &apack[ig * MR * kc..(ig + ra) * MR * kc];
                ukernel::micro_block(variant, ap, bp, kc, (ra, cb), &mut block);
                let rows = (ra * MR).min(mc - ig * MR);
                for (r, acc) in block.iter().enumerate().take(rows) {
                    let crow = &mut c.row_mut(ib + ig * MR + r)[j0..j0 + cols];
                    for (cv, &av) in crow.iter_mut().zip(acc.as_flattened()) {
                        *cv = alpha.mul_add(av, *cv);
                    }
                }
            }
        }
    }
}

/// Tiled GEMM parallelized over disjoint row panels of C on a persistent
/// [`me_par::WorkerPool`].
///
/// Each worker runs the *same* packed micro-kernel core as [`gemm_tiled`]
/// directly on a borrowed zero-copy panel view ([`Mat::split_rows_mut`]) —
/// no panel copies, no write-back, and a result that is **bitwise
/// identical** to the serial tiled path for every thread count (the
/// per-element rounding order never depends on the row partition).
///
/// `threads == 0` resolves through [`me_par::resolve_threads`] (the
/// `ME_THREADS` knob, then the OS).
pub fn gemm_parallel<T: Scalar>(
    alpha: T,
    a: &Mat<T>,
    b: &Mat<T>,
    beta: T,
    c: &mut Mat<T>,
    threads: usize,
) {
    gemm_parallel_with(selected_kernel(), alpha, a, b, beta, c, threads);
}

/// [`gemm_parallel`] with an explicitly pinned micro-kernel variant.
pub fn gemm_parallel_with<T: Scalar>(
    variant: KernelVariant,
    alpha: T,
    a: &Mat<T>,
    b: &Mat<T>,
    beta: T,
    c: &mut Mat<T>,
    threads: usize,
) {
    check_shapes(a, b, c);
    let m = a.rows();
    let nthreads = me_par::resolve_threads(threads).min(m.div_ceil(MR).max(1));
    if nthreads <= 1 || m < 2 * MR || b.cols() == 0 {
        gemm_tiled_with(variant, alpha, a, b, beta, c);
        return;
    }
    if nthreads == me_par::global().threads() {
        gemm_parallel_on_with(me_par::global(), variant, alpha, a, b, beta, c);
    } else {
        // Off-default widths (benches, tests) get a dedicated pool.
        let pool = me_par::WorkerPool::new(nthreads);
        gemm_parallel_on_with(&pool, variant, alpha, a, b, beta, c);
    }
}

/// [`gemm_parallel`] on a caller-supplied pool: the entry point for the
/// scaling benches, which sweep pool widths explicitly.
pub fn gemm_parallel_on<T: Scalar>(
    pool: &me_par::WorkerPool,
    alpha: T,
    a: &Mat<T>,
    b: &Mat<T>,
    beta: T,
    c: &mut Mat<T>,
) {
    gemm_parallel_on_with(pool, selected_kernel(), alpha, a, b, beta, c);
}

/// [`gemm_parallel_on`] with an explicitly pinned micro-kernel variant.
/// The variant's span tag rides into every worker job via
/// [`me_par::WorkerPool::for_each_mut_tagged`], so traces show which
/// kernel ran on which lane.
pub fn gemm_parallel_on_with<T: Scalar>(
    pool: &me_par::WorkerPool,
    variant: KernelVariant,
    alpha: T,
    a: &Mat<T>,
    b: &Mat<T>,
    beta: T,
    c: &mut Mat<T>,
) {
    check_shapes(a, b, c);
    let m = a.rows();
    if m == 0 {
        return;
    }
    let variant = variant.resolve_supported();
    // Resolve the blocking once, outside the workers: every panel must
    // run the same kc grid even if an override lands mid-GEMM.
    let blocking = blocking_for(variant).normalized();
    // Block-aligned panel boundaries keep whole 8-row register blocks on
    // one worker; correctness and bitwise equality hold for any split.
    let rows_per = m.div_ceil(pool.threads()).next_multiple_of(ukernel::BLOCK_ROWS);
    let mut panels: Vec<(usize, MatMut<'_, T>)> = c.split_rows_mut(rows_per).collect();
    pool.for_each_mut_tagged(variant.tag(), &mut panels, |_, (r0, panel)| {
        gemm_packed_panel(variant, blocking, alpha, a, BOperand::Fresh(b), beta, panel, *r0);
    });
}

/// [`gemm_tiled_prepacked_with`] fanned out over disjoint row panels of C
/// on a caller-supplied pool — the me-serve batched path. Bitwise
/// identical to the serial prepacked front (and, for equal `kc`, to the
/// fresh-pack paths) for every pool width: the per-element FMA order
/// depends only on the `kc` grid recorded in the [`PackedB`].
///
/// # Panics
/// On shape mismatch against the packed operand's recorded `k × n`.
pub fn gemm_parallel_on_prepacked_with<T: Scalar>(
    pool: &me_par::WorkerPool,
    variant: KernelVariant,
    alpha: T,
    a: &Mat<T>,
    b: &PackedB<T>,
    beta: T,
    c: &mut Mat<T>,
) {
    check_prepacked_shapes(a, b, c);
    let m = a.rows();
    if m == 0 {
        return;
    }
    let variant = variant.resolve_supported();
    let blocking = b.blocking();
    let rows_per = m.div_ceil(pool.threads()).next_multiple_of(ukernel::BLOCK_ROWS);
    let mut panels: Vec<(usize, MatMut<'_, T>)> = c.split_rows_mut(rows_per).collect();
    pool.for_each_mut_tagged(variant.tag(), &mut panels, |_, (r0, panel)| {
        gemm_packed_panel(variant, blocking, alpha, a, BOperand::Packed(b), beta, panel, *r0);
    });
}

/// Symmetric rank-k update `C ← α·A·Aᵀ + β·C` (lower triangle written).
pub fn syrk_lower<T: Scalar>(alpha: T, a: &Mat<T>, beta: T, c: &mut Mat<T>) {
    let (n, k) = a.shape();
    assert_eq!(c.rows(), n, "syrk: C rows mismatch");
    assert_eq!(c.cols(), n, "syrk: C cols mismatch");
    for i in 0..n {
        for j in 0..=i {
            let mut acc = T::ZERO;
            for p in 0..k {
                acc = a[(i, p)].mul_add(a[(j, p)], acc);
            }
            c[(i, j)] = alpha.mul_add(acc, beta * c[(i, j)]);
        }
    }
}

/// Triangular solve with multiple right-hand sides:
/// `B ← L⁻¹·B` for lower-triangular `L` (unit diagonal optional).
pub fn trsm_lower_left<T: Scalar>(unit_diag: bool, l: &Mat<T>, b: &mut Mat<T>) {
    let n = l.rows();
    assert_eq!(l.cols(), n, "trsm: L must be square");
    assert_eq!(b.rows(), n, "trsm: B rows mismatch");
    let ncols = b.cols();
    for i in 0..n {
        for p in 0..i {
            let lip = l[(i, p)];
            // b.row(i) -= lip * b.row(p): split borrow via index math.
            for j in 0..ncols {
                let v = b[(p, j)];
                b[(i, j)] = (-lip).mul_add(v, b[(i, j)]);
            }
        }
        if !unit_diag {
            let d = l[(i, i)];
            for j in 0..ncols {
                b[(i, j)] = b[(i, j)] / d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(m: usize, n: usize, seed: u64) -> Mat<f64> {
        // Simple deterministic LCG so tests need no rand dependency wiring.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Mat::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        })
    }

    #[test]
    fn all_variants_agree_small() {
        let a = mk(7, 5, 1);
        let b = mk(5, 9, 2);
        let c0 = mk(7, 9, 3);

        let mut c_ref = c0.clone();
        gemm_naive(1.5, &a, &b, 0.5, &mut c_ref);

        for algo in [GemmAlgo::Blocked, GemmAlgo::Tiled, GemmAlgo::Parallel] {
            let mut c = c0.clone();
            gemm(algo, 1.5, &a, &b, 0.5, &mut c);
            assert!(
                c.max_abs_diff(&c_ref) < 1e-12,
                "{algo:?} disagrees with naive by {}",
                c.max_abs_diff(&c_ref)
            );
        }
    }

    #[test]
    fn all_variants_agree_larger() {
        let a = mk(70, 130, 4);
        let b = mk(130, 61, 5);
        let c0 = mk(70, 61, 6);
        let mut c_ref = c0.clone();
        gemm_naive(1.0, &a, &b, 0.0, &mut c_ref);
        for algo in [GemmAlgo::Blocked, GemmAlgo::Tiled, GemmAlgo::Parallel] {
            let mut c = c0.clone();
            gemm(algo, 1.0, &a, &b, 0.0, &mut c);
            assert!(c.max_abs_diff(&c_ref) < 1e-10, "{algo:?} mismatch");
        }
    }

    #[test]
    fn edge_shape_grid_is_bitwise_across_variants() {
        // m/n/k ∈ {0, 1, MR−1, MR, MR+1, NR−1, NR, NR+1}: every register-
        // tile boundary, with partial tiles on both sides of each edge.
        //
        // Bitwise (not tolerance) comparison against naive is valid on
        // this grid: k ≤ NR+1 < KC means a single k-chunk, so the packed
        // micro-kernel performs the same ascending-k mul_add chain per
        // element as the naive triple loop, and both finish with
        // `alpha.mul_add(acc, beta*c)` (the up-front `c *= beta` commutes
        // bitwise with `beta * c`). Tiled == Parallel is the fixed-kernel
        // guarantee and must hold bitwise for *any* shape.
        let dims = [0usize, 1, MR - 1, MR, MR + 1, NR - 1, NR, NR + 1];
        for &m in &dims {
            for &n in &dims {
                for &k in &dims {
                    let seed = (m * 100 + n * 10 + k) as u64;
                    let a = mk(m, k, seed + 1);
                    let b = mk(k, n, seed + 1000);
                    let c0 = mk(m, n, seed + 2000);
                    let mut c_ref = c0.clone();
                    gemm_naive(1.5, &a, &b, 0.5, &mut c_ref);
                    for algo in [GemmAlgo::Tiled, GemmAlgo::Parallel] {
                        let mut c = c0.clone();
                        gemm(algo, 1.5, &a, &b, 0.5, &mut c);
                        assert!(
                            c.as_slice() == c_ref.as_slice(),
                            "{algo:?} not bitwise-equal to naive at m={m} n={n} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pack_a_matches_layout_on_every_variant() {
        // Micro-panel `it`, step `p`, lane `r` holds A[row0 + it·MR + r][kb + p],
        // +0 past `mc`; the buffer starts as NaN so an unwritten word shows.
        let a: Mat<f64> = Mat::from_fn(23, 40, |r, c| (r * 40 + c + 1) as f64);
        let windows: [(usize, usize, usize, usize); 4] =
            [(0, 23, 0, 40), (3, 9, 5, 17), (6, 1, 39, 1), (2, 16, 1, 3)];
        for v in available_variants() {
            for (row0, mc, kb, kc) in windows {
                let len = mc.div_ceil(MR) * MR * kc;
                let mut buf = vec![f64::NAN; len];
                pack_a(v, &a, row0, mc, kb, kc, &mut buf);
                for (i, &got) in buf.iter().enumerate() {
                    let (it, p, r) = (i / (MR * kc), i % (MR * kc) / MR, i % MR);
                    let row = it * MR + r;
                    let want = if row < mc { a[(row0 + row, kb + p)] } else { 0.0 };
                    let at = (row0, mc, kb, kc);
                    assert_eq!(got.to_bits(), want.to_bits(), "{v} {at:?} word {i}");
                }
            }
        }
    }

    #[test]
    fn gemm_identity() {
        let a = mk(6, 6, 9);
        let i = Mat::<f64>::eye(6);
        let mut c = Mat::zeros(6, 6);
        gemm(GemmAlgo::Tiled, 1.0, &a, &i, 0.0, &mut c);
        assert!(c.max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn gemm_beta_only() {
        // alpha = 0 leaves beta * C.
        let a = Mat::<f64>::zeros(3, 3);
        let b = Mat::<f64>::zeros(3, 3);
        let mut c = Mat::from_fn(3, 3, |i, j| (i + j) as f64);
        let expect = c.map(|x| 2.0 * x);
        gemm(GemmAlgo::Blocked, 0.0, &a, &b, 2.0, &mut c);
        assert!(c.max_abs_diff(&expect) < 1e-15);
    }

    #[test]
    fn gemm_degenerate_dims() {
        // Empty inner dimension: C <- beta*C.
        let a = Mat::<f64>::zeros(3, 0);
        let b = Mat::<f64>::zeros(0, 2);
        let mut c = Mat::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        let expect = c.clone();
        gemm(GemmAlgo::Tiled, 1.0, &a, &b, 1.0, &mut c);
        assert!(c.max_abs_diff(&expect) < 1e-15);
        // Zero-row output.
        let a = Mat::<f64>::zeros(0, 4);
        let b = Mat::<f64>::zeros(4, 2);
        let mut c = Mat::<f64>::zeros(0, 2);
        gemm(GemmAlgo::Parallel, 1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    fn parallel_respects_thread_counts() {
        let a = mk(33, 17, 11);
        let b = mk(17, 29, 12);
        let mut c_ref = Mat::zeros(33, 29);
        gemm_naive(1.0, &a, &b, 0.0, &mut c_ref);
        for threads in [1, 2, 3, 8] {
            let mut c = Mat::zeros(33, 29);
            gemm_parallel(1.0, &a, &b, 0.0, &mut c, threads);
            assert!(c.max_abs_diff(&c_ref) < 1e-11, "threads={threads}");
        }
    }

    #[test]
    fn parallel_is_bitwise_identical_to_tiled() {
        // Regression for the old gemm_parallel, which dispatched to a
        // blocked rank-1 loop instead of the tiled micro-kernel: the
        // parallel path must now produce the *same bits* as Tiled for
        // every thread count, because both run gemm_packed_panel with a
        // partition-independent per-element FMA order.
        let a = mk(67, 91, 31);
        let b = mk(91, 45, 32);
        let c0 = mk(67, 45, 33);
        let mut c_tiled = c0.clone();
        gemm_tiled(1.25, &a, &b, -0.5, &mut c_tiled);
        for threads in [1, 2, 3, 4, 7, 16] {
            let mut c = c0.clone();
            gemm_parallel(1.25, &a, &b, -0.5, &mut c, threads);
            assert_eq!(
                c.as_slice(),
                c_tiled.as_slice(),
                "threads={threads}: parallel differs from tiled bitwise"
            );
        }
    }

    #[test]
    fn kernel_variants_are_bitwise_identical_serial_and_parallel() {
        // The dispatch-level restatement of the ukernel contract: pinning
        // any available variant, serial or parallel, yields the scalar
        // path's exact bits. (tests/kernel_differential.rs runs the full
        // shape grid; this is the fast in-crate smoke.)
        let a = mk(67, 91, 131);
        let b = mk(91, 45, 132);
        let c0 = mk(67, 45, 133);
        let mut c_ref = c0.clone();
        gemm_tiled_with(KernelVariant::Scalar, 1.25, &a, &b, -0.5, &mut c_ref);
        for v in available_variants() {
            let mut c = c0.clone();
            gemm_tiled_with(v, 1.25, &a, &b, -0.5, &mut c);
            assert_eq!(c.as_slice(), c_ref.as_slice(), "{v} tiled differs from scalar");
            for threads in [2, 8] {
                let mut c = c0.clone();
                gemm_parallel_with(v, 1.25, &a, &b, -0.5, &mut c, threads);
                assert_eq!(c.as_slice(), c_ref.as_slice(), "{v} parallel({threads}) differs");
            }
        }
    }

    #[test]
    fn unsupported_variant_request_still_correct() {
        // Requesting Avx2 must work everywhere: honored when detected,
        // degraded to Scalar otherwise — never a fault, and always the
        // same bits either way.
        let a = mk(20, 33, 141);
        let b = mk(33, 17, 142);
        let mut c_ref = Mat::zeros(20, 17);
        gemm_tiled_with(KernelVariant::Scalar, 1.0, &a, &b, 0.0, &mut c_ref);
        let mut c = Mat::zeros(20, 17);
        gemm_tiled_with(KernelVariant::Avx2, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c.as_slice(), c_ref.as_slice());
    }

    #[test]
    fn parallel_non_divisible_splits() {
        // m not a multiple of the thread count, m smaller than the thread
        // count, and single-column B all hit the panel-edge paths.
        for (m, k, n, threads) in [
            (13, 7, 5, 4),  // m % threads != 0
            (3, 9, 4, 8),   // m < threads (serial fallback, m < 2*MR)
            (29, 5, 1, 3),  // n = 1: single partial NR tile
            (64, 16, 8, 5), // MR-aligned m, odd thread count
        ] {
            let a = mk(m, k, (m * 31 + n) as u64);
            let b = mk(k, n, (k * 17 + threads) as u64);
            let c0 = mk(m, n, 77);
            let mut c_ref = c0.clone();
            gemm_tiled(1.0, &a, &b, 1.0, &mut c_ref);
            let mut c = c0.clone();
            gemm_parallel(1.0, &a, &b, 1.0, &mut c, threads);
            assert_eq!(c.as_slice(), c_ref.as_slice(), "m={m} k={k} n={n} threads={threads}");
        }
    }

    #[test]
    fn parallel_on_explicit_pool_more_threads_than_panels() {
        // A pool wider than the number of MR panels must leave the extra
        // workers idle, not misindex.
        let pool = me_par::WorkerPool::new(16);
        let a = mk(9, 6, 41);
        let b = mk(6, 7, 42);
        let mut c_ref = Mat::zeros(9, 7);
        gemm_tiled(1.0, &a, &b, 0.0, &mut c_ref);
        let mut c = Mat::zeros(9, 7);
        gemm_parallel_on(&pool, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c.as_slice(), c_ref.as_slice());
    }

    #[test]
    fn parallel_is_deterministic_across_runs() {
        // Same seeded inputs, repeated runs, fixed thread count: the
        // result bytes must never vary (no scheduling-order dependence).
        let a = mk(40, 33, 51);
        let b = mk(33, 22, 52);
        let mut first = Mat::zeros(40, 22);
        gemm_parallel(1.0, &a, &b, 0.0, &mut first, 4);
        for _ in 0..5 {
            let mut c = Mat::zeros(40, 22);
            gemm_parallel(1.0, &a, &b, 0.0, &mut c, 4);
            assert_eq!(c.as_slice(), first.as_slice());
        }
    }

    #[test]
    fn tiled_applies_mc_blocking_beyond_one_block() {
        // m > mc exercises the restored MC cache-block loop.
        let mc = Blocking::DEFAULT.mc;
        let a = mk(2 * mc + 5, 37, 61);
        let b = mk(37, 19, 62);
        let mut c_ref = Mat::zeros(2 * mc + 5, 19);
        gemm_naive(1.0, &a, &b, 0.0, &mut c_ref);
        let mut c = Mat::zeros(2 * mc + 5, 19);
        gemm_tiled(1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&c_ref) < 1e-10);
    }

    #[test]
    fn prepacked_matches_fresh_bitwise() {
        // The in-crate smoke of the prepacked contract; the full
        // variant/shape/blocking grid lives in
        // tests/prepacked_differential.rs.
        let a = mk(13, 37, 71);
        let b = mk(37, 29, 72);
        let c0 = mk(13, 29, 73);
        for v in available_variants() {
            let blocking = blocking_for(v);
            let packed = pack_b_matrix(&b, blocking);
            let mut c_fresh = c0.clone();
            gemm_tiled_with_blocking(v, blocking, 1.25, &a, &b, -0.5, &mut c_fresh);
            let mut c_pre = c0.clone();
            gemm_tiled_prepacked_with(v, 1.25, &a, &packed, -0.5, &mut c_pre);
            assert_eq!(c_pre.as_slice(), c_fresh.as_slice(), "{v} prepacked differs");
            let pool = me_par::WorkerPool::new(3);
            let mut c_par = c0.clone();
            gemm_parallel_on_prepacked_with(&pool, v, 1.25, &a, &packed, -0.5, &mut c_par);
            assert_eq!(c_par.as_slice(), c_fresh.as_slice(), "{v} parallel prepacked differs");
        }
    }

    #[test]
    fn non_default_blocking_reorders_but_small_kc_changes_grid() {
        // mc/nc moves must never change a bit; a kc change regroups the
        // FMA chain (numerically observable but still correct).
        let a = mk(40, 300, 81);
        let b = mk(300, 33, 82);
        let c0 = mk(40, 33, 83);
        let mut c_ref = c0.clone();
        gemm_tiled_with_blocking(
            KernelVariant::Scalar,
            Blocking::DEFAULT,
            1.0,
            &a,
            &b,
            1.0,
            &mut c_ref,
        );
        let mut c = c0.clone();
        let same_kc = Blocking { mc: 8, kc: 256, nc: 16 };
        gemm_tiled_with_blocking(KernelVariant::Scalar, same_kc, 1.0, &a, &b, 1.0, &mut c);
        assert_eq!(c.as_slice(), c_ref.as_slice(), "mc/nc must be bitwise-invisible");
        let mut c = c0.clone();
        let small_kc = Blocking { mc: 64, kc: 128, nc: 4096 };
        gemm_tiled_with_blocking(KernelVariant::Scalar, small_kc, 1.0, &a, &b, 1.0, &mut c);
        assert!(c.max_abs_diff(&c_ref) < 1e-10, "kc change must stay numerically correct");
    }

    #[test]
    fn syrk_matches_gemm_with_transpose() {
        let a = mk(6, 4, 21);
        let at = a.transpose();
        let mut full = Mat::zeros(6, 6);
        gemm_naive(1.0, &a, &at, 0.0, &mut full);
        let mut c = Mat::zeros(6, 6);
        syrk_lower(1.0, &a, 0.0, &mut c);
        for i in 0..6 {
            for j in 0..=i {
                assert!((c[(i, j)] - full[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn trsm_solves_lower_system() {
        // L = [[2,0],[1,3]], B = L * X with X = [[1,2],[3,4]]
        let l = Mat::from_vec(2, 2, vec![2.0, 0.0, 1.0, 3.0]);
        let x = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut b = Mat::zeros(2, 2);
        gemm_naive(1.0, &l, &x, 0.0, &mut b);
        trsm_lower_left(false, &l, &mut b);
        assert!(b.max_abs_diff(&x) < 1e-14);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn shape_checks() {
        let a = Mat::<f64>::zeros(2, 3);
        let b = Mat::<f64>::zeros(4, 2);
        let mut c = Mat::<f64>::zeros(2, 2);
        gemm(GemmAlgo::Naive, 1.0, &a, &b, 0.0, &mut c);
    }
}
