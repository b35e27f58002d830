//! Ozaki scheme on the host's real f16 widening kernels — ROADMAP item 1:
//! the half-precision slice products as a *measured* result, not a model.
//!
//! [`crate::gemm`] simulates the f16-multiply/f32-accumulate matrix
//! engine: its slice panels are integer-valued `f32`, multiplied through
//! [`me_linalg::gemm_f32_f32`]. This module stores the slice panels in
//! genuine 16-bit IEEE binary16 words and executes every chunk product
//! through [`me_linalg::gemm_half_f32`] — the same engine-call core over
//! the host's dispatched micro-kernels (strict scalar, portable-unrolled,
//! AVX2, AVX-512), widening in the pack loops: exactly the memory traffic
//! and arithmetic a host-SIMD FP16 emulation performs. The two substrates
//! differ only in slice storage.
//!
//! Two facts make the result **bitwise identical** to the simulated path
//! at a matched β:
//!
//! - slice integers have magnitude ≤ 2^β ≤ 2^11 = 2048, every one exactly
//!   representable in binary16 (11-bit significand), so the f16 round
//!   trip of each panel value is the identity on the simulated panel;
//! - both fronts pack the same f32 values into the same micro-kernel,
//!   which performs exactly one correctly-rounded FMA per accumulator per
//!   ascending k step (DESIGN §9) — so each chunk sum has the same f32
//!   bits, before the identical `(p, q) → k-chunk → element` accumulator
//!   fold.
//!
//! Unlike the INT8 port ([`crate::int8`], which must pin `mul_precision:
//! 6` on the simulated side to compare), f16 slices carry the *same*
//! β = [`required_beta`]`(k_block, 24, 11)` as the Tensor-Core model, so
//! the matched-slice-count comparison needs no configuration fudge:
//! `host_f16_matches_simulated_me_bitwise` pins default-vs-default.

use crate::gemm::{fold_tile, pair_counts, scale_to_int, TargetAccuracy};
use crate::split::{ceil_log2, required_beta, split_cols, split_cols_parallel, split_rows, split_rows_parallel};
use me_linalg::{gemm_half_f32, selected_kernel, HalfKind, KernelVariant, Mat};
use me_numerics::formats::narrow_f32_exact;
use me_numerics::sum::Accumulator;

/// Configuration of the host-f16 engine. Field meanings (and defaults)
/// mirror [`crate::gemm::OzakiConfig`] so the two paths derive identical
/// schedules; `mul_precision` is capped at 11 by the binary16 storage.
#[derive(Debug, Clone, Copy)]
pub struct HostF16Engine {
    /// Precision of the accumulate format: 24 for the host's f32 kernels.
    pub acc_precision: u32,
    /// Precision of the multiply format: 11 for binary16 storage.
    pub mul_precision: u32,
    /// Accuracy target (same policy as the simulated-ME path).
    pub target: TargetAccuracy,
    /// Hard cap on slices per operand (safety bound).
    pub max_slices: usize,
    /// Inner-dimension blocking (accumulation length per engine call).
    pub k_block: usize,
}

impl Default for HostF16Engine {
    fn default() -> Self {
        // Identical to `OzakiConfig::dgemm_tc()`: f16 multiply, f32
        // accumulate, 256-long engine calls — which is what makes the
        // default-config comparison against the simulated ME matched-β.
        HostF16Engine {
            acc_precision: 24,
            mul_precision: 11,
            target: TargetAccuracy::DgemmEquivalent,
            max_slices: 128,
            k_block: 256,
        }
    }
}

impl HostF16Engine {
    /// Host-f16 engine at SGEMM-equivalent accuracy.
    pub fn sgemm_equivalent() -> Self {
        HostF16Engine { target: TargetAccuracy::SgemmEquivalent, ..Self::default() }
    }

    /// Slice bit width β for inner dimension `k`: the same
    /// [`required_beta`] the simulated path uses, over the k-chunked
    /// effective length. β ≤ `mul_precision` = 11 keeps every slice
    /// integer exactly representable in binary16.
    pub fn beta(&self, k: usize) -> u32 {
        let kb = self.k_block.max(1).min(k.max(1));
        required_beta(kb, self.acc_precision, self.mul_precision)
    }

    /// Bits of accuracy the target requires below each line maximum
    /// (mirrors `OzakiConfig::target_bits`).
    fn target_bits(&self, k: usize) -> u32 {
        let log2k = ceil_log2(k.max(1));
        match self.target {
            TargetAccuracy::Exact => u32::MAX,
            TargetAccuracy::DgemmEquivalent => 53 + log2k + 2,
            TargetAccuracy::SgemmEquivalent => 24 + log2k + 2,
        }
    }

    /// Slice budget and pair cutoff (mirrors
    /// `OzakiConfig::budget_and_cutoff` exactly, so matched-β runs see
    /// identical schedules; public for the differential tests).
    pub fn budget_and_cutoff(&self, k: usize, beta: u32) -> (usize, usize) {
        let target_bits = self.target_bits(k);
        if target_bits == u32::MAX {
            (self.max_slices, usize::MAX)
        } else {
            let depth = (target_bits as usize).div_ceil(beta as usize);
            (depth.saturating_add(2).min(self.max_slices), depth.saturating_add(1))
        }
    }
}

/// Report of a host-f16 Ozaki GEMM.
#[derive(Debug, Clone)]
pub struct HostF16OzakiReport {
    /// The computed product.
    pub c: Mat<f64>,
    /// Slices of A.
    pub s_a: usize,
    /// Slices of B.
    pub s_b: usize,
    /// Engine calls (slice pairs × k-chunks) — a property of the
    /// schedule, identical for every partition and kernel variant.
    pub engine_calls: usize,
    /// Slice-pair GEMMs executed on the host kernels.
    pub products_computed: usize,
    /// Slice pairs skipped by the accuracy cutoff.
    pub products_skipped: usize,
    /// Slice bit width β.
    pub beta: u32,
    /// Whether both splits were exact decompositions.
    pub split_exact: bool,
    /// The host kernel variant the engine calls ran on.
    pub kernel: KernelVariant,
}

/// f64 GEMM emulated on the host's f16 widening kernels, using the
/// process-selected kernel variant ([`me_linalg::selected_kernel`]).
pub fn ozaki_gemm_host_f16(a: &Mat<f64>, b: &Mat<f64>, engine: &HostF16Engine) -> HostF16OzakiReport {
    ozaki_gemm_host_f16_impl(a, b, engine, selected_kernel(), None)
}

/// [`ozaki_gemm_host_f16`] with an explicitly pinned kernel variant
/// (unsupported variants degrade via `resolve_supported`).
pub fn ozaki_gemm_host_f16_with(
    a: &Mat<f64>,
    b: &Mat<f64>,
    engine: &HostF16Engine,
    variant: KernelVariant,
) -> HostF16OzakiReport {
    ozaki_gemm_host_f16_impl(a, b, engine, variant, None)
}

/// Row-parallel [`ozaki_gemm_host_f16`] on the global worker pool
/// (`threads == 0` resolves through `ME_THREADS`/the OS). Bitwise
/// identical to the serial path for any thread count: chunk products are
/// §9-fixed, and the per-element accumulation order never depends on the
/// partition.
pub fn ozaki_gemm_host_f16_parallel(
    a: &Mat<f64>,
    b: &Mat<f64>,
    engine: &HostF16Engine,
    threads: usize,
) -> HostF16OzakiReport {
    ozaki_gemm_host_f16_parallel_with(a, b, engine, selected_kernel(), threads)
}

/// [`ozaki_gemm_host_f16_parallel`] with a pinned kernel variant — the
/// differential harness drives this, avoiding global dispatch state.
pub fn ozaki_gemm_host_f16_parallel_with(
    a: &Mat<f64>,
    b: &Mat<f64>,
    engine: &HostF16Engine,
    variant: KernelVariant,
    threads: usize,
) -> HostF16OzakiReport {
    assert_eq!(a.cols(), b.rows(), "ozaki_gemm_host_f16_parallel: inner dimension mismatch");
    let m = a.rows();
    let nthreads = me_par::resolve_threads(threads).min(m.max(1));
    if nthreads <= 1 || m < 2 {
        return ozaki_gemm_host_f16_impl(a, b, engine, variant, None);
    }
    if nthreads == me_par::global().threads() {
        ozaki_gemm_host_f16_impl(a, b, engine, variant, Some(me_par::global()))
    } else {
        let pool = me_par::WorkerPool::new(nthreads);
        ozaki_gemm_host_f16_impl(a, b, engine, variant, Some(&pool))
    }
}

/// [`ozaki_gemm_host_f16_parallel`] on a caller-supplied pool.
pub fn ozaki_gemm_host_f16_parallel_on(
    a: &Mat<f64>,
    b: &Mat<f64>,
    engine: &HostF16Engine,
    pool: &me_par::WorkerPool,
) -> HostF16OzakiReport {
    ozaki_gemm_host_f16_impl(a, b, engine, selected_kernel(), Some(pool))
}

/// The shared serial/parallel core: split, pack each slice into a
/// binary16 panel once, then fold slice-pair engine calls into
/// per-element accumulators — over the whole matrix (serial) or over
/// disjoint row panels, one pool job per panel.
fn ozaki_gemm_host_f16_impl(
    a: &Mat<f64>,
    b: &Mat<f64>,
    engine: &HostF16Engine,
    variant: KernelVariant,
    pool: Option<&me_par::WorkerPool>,
) -> HostF16OzakiReport {
    assert_eq!(a.cols(), b.rows(), "ozaki_gemm_host_f16: inner dimension mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let variant = variant.resolve_supported();
    let beta = engine.beta(k);
    let (budget, cutoff) = engine.budget_and_cutoff(k, beta);

    let split_span = me_trace::span("ozaki.host_f16.split", "ozaki");
    let (sa, sb) = match pool {
        Some(p) => {
            (split_rows_parallel(a, beta, budget, p), split_cols_parallel(b, beta, budget, p))
        }
        None => (split_rows(a, beta, budget), split_cols(b, beta, budget)),
    };

    // Pack every slice once into genuine binary16 panels. `bits_a[p]` is
    // m×k line-major; `bits_b[q]` is transposed to n×k so a column of B
    // streams contiguously through the widening-pack kernels.
    let bits_a: Vec<Vec<u16>> = sa
        .slices
        .iter()
        .zip(&sa.scale_exp)
        .map(|(s, exps)| pack_slice_lines_f16(s, exps, beta, true))
        .collect();
    let bits_b: Vec<Vec<u16>> = sb
        .slices
        .iter()
        .zip(&sb.scale_exp)
        .map(|(s, exps)| pack_slice_lines_f16(s, exps, beta, false))
        .collect();
    drop(split_span);
    me_trace::counter_add("ozaki.host_f16.slices_a", sa.len() as u64);
    me_trace::counter_add("ozaki.host_f16.slices_b", sb.len() as u64);

    let (computed, skipped) = pair_counts(sa.len(), sb.len(), cutoff);
    let kb = engine.k_block.max(1);
    let chunks = if k == 0 { 0 } else { k.div_ceil(kb) };
    let engine_calls = computed * chunks;
    me_trace::counter_add("ozaki.host_f16.products_computed", computed as u64);
    me_trace::counter_add("ozaki.host_f16.products_skipped", skipped as u64);
    me_trace::counter_add("ozaki.host_f16.engine_calls", engine_calls as u64);

    let mut acc: Vec<Accumulator> = vec![Accumulator::new(); m * n];
    match pool {
        Some(pl) if pl.threads() > 1 && m >= 2 && n > 0 => {
            let rows_per = m.div_ceil(pl.threads());
            let mut panels: Vec<(usize, &mut [Accumulator])> = acc
                .chunks_mut(rows_per * n)
                .enumerate()
                .map(|(t, chunk)| (t * rows_per, chunk))
                .collect();
            pl.for_each_mut(&mut panels, |_, (r0, panel)| {
                accumulate_row_panel_host_f16(
                    &bits_a, &sa.scale_exp, &bits_b, &sb.scale_exp, beta, k, n, kb, cutoff,
                    variant, *r0, panel,
                );
            });
        }
        _ => accumulate_row_panel_host_f16(
            &bits_a,
            &sa.scale_exp,
            &bits_b,
            &sb.scale_exp,
            beta,
            k,
            n,
            kb,
            cutoff,
            variant,
            0,
            &mut acc,
        ),
    }

    let mut c = Mat::zeros(m, n);
    for (out, ac) in c.as_mut_slice().iter_mut().zip(&acc) {
        *out = ac.value();
    }
    HostF16OzakiReport {
        c,
        s_a: sa.len(),
        s_b: sb.len(),
        engine_calls,
        products_computed: computed,
        products_skipped: skipped,
        beta,
        split_exact: sa.complete && sb.complete,
        kernel: variant,
    }
}

/// Pack one slice matrix into its binary16 panel:
/// `bits[li][p] = f16(slice[li][p] · 2^(β − exp[line]))`, line-major
/// (`by_rows` selects rows of A vs columns of B; the B panel comes out
/// transposed, n×k). Every scaled value is a β-bit integer of magnitude
/// ≤ 2^β ≤ 2048 by the split invariant, exactly representable in
/// binary16 — debug-asserted per element via the exact widening.
fn pack_slice_lines_f16(slice: &Mat<f64>, exps: &[i32], beta: u32, by_rows: bool) -> Vec<u16> {
    let nlines = exps.len();
    let line_len = if by_rows { slice.cols() } else { slice.rows() };
    let mut buf = vec![0u16; nlines * line_len];
    for (li, &e) in exps.iter().enumerate() {
        let se = beta as i32 - e;
        let line = &mut buf[li * line_len..(li + 1) * line_len];
        for (p, out) in line.iter_mut().enumerate() {
            let v = if by_rows { slice[(li, p)] } else { slice[(p, li)] };
            if v == 0.0 {
                continue;
            }
            let x = scale_to_int(v, se);
            let xf = narrow_f32_exact(x);
            let bits = HalfKind::F16.narrow(xf);
            debug_assert_eq!(
                HalfKind::F16.widen(bits),
                xf,
                "slice value {xf} is not exactly representable in binary16"
            );
            *out = bits;
        }
    }
    buf
}

/// Fold every scheduled slice-pair engine call into the accumulator rows
/// `[r0, r0 + panel.len()/n)`.
///
/// The per-element order is `(p, q)` pair (p outer) → k-chunk → element,
/// with exact-zero chunk sums skipped — identical for every row
/// partition and kernel variant, and identical to the simulated-ME path
/// at a matched β (each [`gemm_half_f32`] chunk tile carries the same
/// f32 bits as the simulated path's `gemm_f32_f32` tile, by §9).
#[allow(clippy::too_many_arguments)]
fn accumulate_row_panel_host_f16(
    bits_a: &[Vec<u16>],
    a_exp: &[Vec<i32>],
    bits_b: &[Vec<u16>],
    b_exp: &[Vec<i32>],
    beta: u32,
    k: usize,
    n: usize,
    kb: usize,
    cutoff: usize,
    variant: KernelVariant,
    r0: usize,
    acc: &mut [Accumulator],
) {
    let rows = if n == 0 { 0 } else { acc.len() / n };
    if rows == 0 || k == 0 {
        return;
    }
    let _t = me_trace::span("ozaki.host_f16.accumulate", "ozaki");
    let mut tile = vec![0.0f32; rows * n];
    for (p, (ba, ea)) in bits_a.iter().zip(a_exp).enumerate() {
        for (q, (bb, eb)) in bits_b.iter().zip(b_exp).enumerate() {
            if p + q >= cutoff {
                continue;
            }
            for k0 in (0..k).step_by(kb) {
                let kc = kb.min(k - k0);
                // The engine call: binary16 operands widened in the pack
                // loops, one f32 FMA per ascending k step on the host's
                // dispatched micro-kernels.
                gemm_half_f32(
                    variant,
                    rows,
                    n,
                    kc,
                    &ba[r0 * k + k0..],
                    k,
                    &bb[k0..],
                    k,
                    HalfKind::F16,
                    &mut tile,
                );
                fold_tile(&tile, &ea[r0..r0 + rows], eb, beta, acc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{ozaki_gemm, reference_gemm, OzakiConfig};
    use crate::perf::ranged_matrix;
    use me_linalg::available_variants;

    #[test]
    fn beta_matches_simulated_me_default() {
        // The pin's precondition: default host engine and default
        // simulated config derive the same β at every k, with no fudge.
        let e = HostF16Engine::default();
        let cfg = OzakiConfig::dgemm_tc();
        for k in [1usize, 4, 100, 256, 1000, 100_000] {
            let kb = cfg.k_block.max(1).min(k.max(1));
            let want = required_beta(kb, cfg.acc_precision, cfg.mul_precision);
            assert_eq!(e.beta(k), want, "k = {k}");
        }
    }

    #[test]
    fn slice_integers_fit_f16_exactly() {
        // β ≤ 11 → slice magnitude ≤ 2^11 = 2048, binary16's last exactly
        // representable consecutive integer.
        let e = HostF16Engine::default();
        for k in [1usize, 256, 100_000] {
            assert!(e.beta(k) <= 11, "β {} exceeds the f16 cap", e.beta(k));
        }
        for v in [-2048i32, -2047, -1, 0, 1, 1023, 2047, 2048] {
            let bits = HalfKind::F16.narrow(v as f32);
            assert_eq!(HalfKind::F16.widen(bits), v as f32, "{v} must round-trip");
        }
    }

    #[test]
    fn host_f16_reaches_dgemm_accuracy() {
        let a = ranged_matrix(10, 14, 6.0, 41);
        let b = ranged_matrix(14, 8, 6.0, 42);
        let r = ozaki_gemm_host_f16(&a, &b, &HostF16Engine::default());
        let c_ref = reference_gemm(&a, &b);
        let err = me_numerics::max_rel_err(r.c.as_slice(), c_ref.as_slice());
        assert!(err < 1e-12, "host-f16 Ozaki rel err {err}");
    }

    #[test]
    fn host_f16_matches_simulated_me_bitwise() {
        // The headline pin: default config on both sides — identical β,
        // identical splits, identical schedules, and chunk sums carrying
        // identical f32 bits (f16 storage is exact on β-bit slice
        // integers; the widening kernels replay the §9 FMA chain) — so
        // the two substrates agree bit for bit, slice count included.
        let a = ranged_matrix(11, 19, 12.0, 43);
        let b = ranged_matrix(19, 9, 12.0, 44);
        let rh = ozaki_gemm_host_f16(&a, &b, &HostF16Engine::default());
        let rs = ozaki_gemm(&a, &b, &OzakiConfig::dgemm_tc());
        assert_eq!(rh.beta, rs.beta, "matched β must come out of the defaults");
        assert_eq!(rh.s_a, rs.s_a, "matched β must give matched slice counts");
        assert_eq!(rh.s_b, rs.s_b);
        assert_eq!(rh.products_computed, rs.products_computed);
        for (x, y) in rh.c.as_slice().iter().zip(rs.c.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "host-f16 vs simulated-ME");
        }
    }

    #[test]
    fn host_f16_kernel_variants_agree_bitwise() {
        let a = ranged_matrix(9, 13, 10.0, 45);
        let b = ranged_matrix(13, 7, 10.0, 46);
        let e = HostF16Engine::default();
        let base = ozaki_gemm_host_f16_with(&a, &b, &e, KernelVariant::Scalar);
        for v in available_variants() {
            let r = ozaki_gemm_host_f16_with(&a, &b, &e, v);
            assert_eq!(r.kernel, v.resolve_supported());
            for (x, y) in base.c.as_slice().iter().zip(r.c.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "variant {v}");
            }
        }
    }

    #[test]
    fn host_f16_parallel_is_bit_identical() {
        let a = ranged_matrix(23, 17, 9.0, 47);
        let b = ranged_matrix(17, 11, 9.0, 48);
        let e = HostF16Engine::default();
        let s = ozaki_gemm_host_f16(&a, &b, &e);
        for threads in [2, 3, 5, 8] {
            let p = ozaki_gemm_host_f16_parallel(&a, &b, &e, threads);
            for (x, y) in s.c.as_slice().iter().zip(p.c.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
            }
            assert_eq!(p.engine_calls, s.engine_calls, "threads={threads}");
            assert_eq!(p.products_computed, s.products_computed);
            assert_eq!(p.products_skipped, s.products_skipped);
        }
    }

    #[test]
    fn host_f16_zero_matrix() {
        let z = Mat::<f64>::zeros(3, 3);
        let r = ozaki_gemm_host_f16(&z, &z, &HostF16Engine::default());
        assert_eq!(r.c, Mat::zeros(3, 3));
        assert_eq!(r.engine_calls, 0);
    }

    #[test]
    fn host_f16_engine_call_count_matches_schedule() {
        let a = ranged_matrix(6, 700, 8.0, 49);
        let b = ranged_matrix(700, 5, 8.0, 50);
        let e = HostF16Engine::default();
        let r = ozaki_gemm_host_f16(&a, &b, &e);
        let chunks = 700usize.div_ceil(e.k_block);
        assert_eq!(r.engine_calls, r.products_computed * chunks);
        assert_eq!(r.products_computed + r.products_skipped, r.s_a * r.s_b);
    }

    #[test]
    fn host_f16_exact_mode_exhausts_residual() {
        let a = ranged_matrix(6, 9, 5.0, 51);
        let b = ranged_matrix(9, 7, 5.0, 52);
        let e = HostF16Engine { target: TargetAccuracy::Exact, ..HostF16Engine::default() };
        let r = ozaki_gemm_host_f16(&a, &b, &e);
        assert!(r.split_exact, "exact mode must exhaust the residual");
        assert_eq!(r.products_skipped, 0);
        let c_ref = reference_gemm(&a, &b);
        for (x, y) in r.c.as_slice().iter().zip(c_ref.as_slice()) {
            assert!(me_numerics::ulp_diff(*x, *y) <= 2, "{x} vs {y}");
        }
    }
}
