//! Ozaki scheme on integer matrix engines (INT8 with INT32 accumulate),
//! executed on real host kernels.
//!
//! The paper's Table I omits INT4/8 support "for completeness", and §V
//! anticipates MEs whose only fast path is integer arithmetic (AMX's first
//! shipping mode, many AI accelerators). The Ozaki scheme ports directly:
//! slices become signed 8-bit integers and the engine accumulates in INT32,
//! which is **exact with no rounding at all** as long as
//! `k · 2^(2β) < 2^31` — integer engines are, if anything, a *better*
//! substrate for high-precision emulation than f16 ones (the published
//! ozIMMU follow-up line of work: Uchino & Ozaki 2025).
//!
//! Where the simulated-f32 path in [`crate::gemm`] runs its inner
//! products on the host's f32 micro-kernels, the products here run on
//! genuine host int8 micro-kernels ([`me_linalg::gemm_i8_i32`]: strict
//! scalar, portable-unrolled, or AVX2 `vpmaddubsw`), dispatched through
//! the same [`KernelVariant`] table as the floating-point GEMM. Integer arithmetic is associative, so every
//! kernel variant and every thread count returns the same bits; and at a
//! matched β the whole pipeline is bitwise identical to the simulated-ME
//! path (`int8_matches_f16_path_at_matched_beta` pins this).

use crate::gemm::{fold_tile, pair_counts, scale_to_int, TargetAccuracy};
use crate::split::{ceil_log2, split_cols, split_cols_parallel, split_rows, split_rows_parallel};
use me_linalg::{gemm_i8_i32, selected_kernel, KernelVariant, Mat};
use me_numerics::sum::Accumulator;

/// Configuration of an integer matrix engine.
#[derive(Debug, Clone, Copy)]
pub struct Int8Engine {
    /// Accumulator width in bits (31 usable magnitude bits for i32).
    pub acc_bits: u32,
    /// Inner-dimension blocking (accumulation length per engine call).
    pub k_block: usize,
    /// Accuracy target (same policy as the simulated-ME path).
    pub target: TargetAccuracy,
    /// Hard cap on slices per operand (safety bound).
    pub max_slices: usize,
}

impl Default for Int8Engine {
    fn default() -> Self {
        // i32 accumulate, 256-long dot products per call. The accumulator
        // budget alone would allow β = ⌊(31 − 1 − log₂256)/2⌋ = 11, but
        // `slice_bits` caps the width at 6: the extraction's
        // round-to-nearest can emit a slice integer of exactly ±2^β, and
        // ±2^6 = ±64 fits i8 while ±2^7 = ±128 (let alone ±2^11) does not.
        Int8Engine {
            acc_bits: 31,
            k_block: 256,
            target: TargetAccuracy::DgemmEquivalent,
            max_slices: 128,
        }
    }
}

impl Int8Engine {
    /// INT8 engine at SGEMM-equivalent accuracy.
    pub fn sgemm_equivalent() -> Self {
        Int8Engine { target: TargetAccuracy::SgemmEquivalent, ..Self::default() }
    }

    /// Slice bit width β for inner dimension `k` — the single place the
    /// width is decided.
    ///
    /// Two constraints intersect:
    /// - the accumulator budget `k_eff · 2^(2β) < 2^acc_bits` with one
    ///   guard bit, where `k_eff = min(k, k_block)` thanks to k-chunking:
    ///   `β ≤ ⌊(acc_bits − 1 − ⌈log₂ k_eff⌉)/2⌋`;
    /// - the i8 operand: the round-to-nearest extraction can produce an
    ///   integer of exactly ±2^β ([`crate::split`]), so β ≤ 6 — ±64 fits
    ///   i8, ±128 would not.
    ///
    /// Uses the integer-exact [`ceil_log2`] (the float `log2().ceil()`
    /// route under-counts at `k = 2^53 + 1`-style boundaries).
    pub fn slice_bits(&self, k: usize) -> u32 {
        let kb = self.k_block.max(1).min(k.max(1));
        let budget = self.acc_bits.saturating_sub(1).saturating_sub(ceil_log2(kb));
        (budget / 2).clamp(1, 6)
    }

    /// Alias of [`Self::slice_bits`] kept for symmetry with
    /// [`crate::split::required_beta`]-based call sites.
    pub fn beta(&self, k: usize) -> u32 {
        self.slice_bits(k)
    }

    /// Bits of accuracy the target requires below each line maximum —
    /// the same policy as `OzakiConfig::target_bits`, so a matched-β
    /// comparison between the two paths sees identical schedules.
    fn target_bits(&self, k: usize) -> u32 {
        let log2k = ceil_log2(k.max(1));
        match self.target {
            TargetAccuracy::Exact => u32::MAX,
            TargetAccuracy::DgemmEquivalent => 53 + log2k + 2,
            TargetAccuracy::SgemmEquivalent => 24 + log2k + 2,
        }
    }

    /// Slice budget and pair cutoff for inner dimension `k` at slice
    /// width `beta` (mirrors `OzakiConfig::budget_and_cutoff` exactly;
    /// public so the differential tests can compute analytic schedules).
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

/// Report of an int8-engine Ozaki GEMM.
#[derive(Debug, Clone)]
pub struct Int8OzakiReport {
    /// The computed product.
    pub c: Mat<f64>,
    /// Slices of A.
    pub s_a: usize,
    /// Slices of B.
    pub s_b: usize,
    /// Engine calls (slice pairs × k-chunks) — a property of the
    /// schedule, identical for every partition and kernel variant.
    pub engine_calls: usize,
    /// Slice-pair GEMMs executed on the engine.
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

/// f64 GEMM emulated on an INT8×INT8→INT32 matrix engine, using the
/// process-selected host kernel ([`me_linalg::selected_kernel`]).
///
/// Every arithmetic operation on the emulated engine is integer-exact
/// (the i32 bound is enforced by [`Int8Engine::slice_bits`] plus
/// k-chunking at `k_block`), so the only approximation is the slice
/// truncation — identical in structure to the Tensor-Core path, but with
/// *zero* rounding inside the engine.
pub fn ozaki_gemm_int8(a: &Mat<f64>, b: &Mat<f64>, engine: &Int8Engine) -> Int8OzakiReport {
    ozaki_gemm_int8_impl(a, b, engine, selected_kernel(), None)
}

/// [`ozaki_gemm_int8`] with an explicitly pinned kernel variant
/// (unsupported variants degrade via `resolve_supported`, like the
/// floating-point `_with` entry points).
pub fn ozaki_gemm_int8_with(
    a: &Mat<f64>,
    b: &Mat<f64>,
    engine: &Int8Engine,
    variant: KernelVariant,
) -> Int8OzakiReport {
    ozaki_gemm_int8_impl(a, b, engine, variant, None)
}

/// Row-parallel [`ozaki_gemm_int8`] on the global worker pool
/// (`threads == 0` resolves through `ME_THREADS`/the OS). Bitwise
/// identical to the serial path for any thread count: integer engine
/// calls are exact, and the per-element accumulation order
/// (`(p, q) pair → k-chunk → element`) never depends on the partition.
pub fn ozaki_gemm_int8_parallel(
    a: &Mat<f64>,
    b: &Mat<f64>,
    engine: &Int8Engine,
    threads: usize,
) -> Int8OzakiReport {
    ozaki_gemm_int8_parallel_with(a, b, engine, selected_kernel(), threads)
}

/// [`ozaki_gemm_int8_parallel`] with a pinned kernel variant — the
/// differential harness drives this, avoiding global dispatch state.
pub fn ozaki_gemm_int8_parallel_with(
    a: &Mat<f64>,
    b: &Mat<f64>,
    engine: &Int8Engine,
    variant: KernelVariant,
    threads: usize,
) -> Int8OzakiReport {
    assert_eq!(a.cols(), b.rows(), "ozaki_gemm_int8_parallel: inner dimension mismatch");
    let m = a.rows();
    let nthreads = me_par::resolve_threads(threads).min(m.max(1));
    if nthreads <= 1 || m < 2 {
        return ozaki_gemm_int8_impl(a, b, engine, variant, None);
    }
    if nthreads == me_par::global().threads() {
        ozaki_gemm_int8_impl(a, b, engine, variant, Some(me_par::global()))
    } else {
        let pool = me_par::WorkerPool::new(nthreads);
        ozaki_gemm_int8_impl(a, b, engine, variant, Some(&pool))
    }
}

/// [`ozaki_gemm_int8_parallel`] on a caller-supplied pool (the scaling
/// benches sweep pool widths explicitly).
pub fn ozaki_gemm_int8_parallel_on(
    a: &Mat<f64>,
    b: &Mat<f64>,
    engine: &Int8Engine,
    pool: &me_par::WorkerPool,
) -> Int8OzakiReport {
    ozaki_gemm_int8_impl(a, b, engine, selected_kernel(), Some(pool))
}

/// The shared serial/parallel core: split, pack each slice into an i8
/// panel once, then fold slice-pair engine calls into per-element
/// accumulators — over the whole matrix (serial) or over disjoint row
/// panels, one pool job per panel.
fn ozaki_gemm_int8_impl(
    a: &Mat<f64>,
    b: &Mat<f64>,
    engine: &Int8Engine,
    variant: KernelVariant,
    pool: Option<&me_par::WorkerPool>,
) -> Int8OzakiReport {
    assert_eq!(a.cols(), b.rows(), "ozaki_gemm_int8: inner dimension mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let variant = variant.resolve_supported();
    let beta = engine.slice_bits(k);
    let (budget, cutoff) = engine.budget_and_cutoff(k, beta);

    let split_span = me_trace::span("ozaki.int8.split", "ozaki");
    let (sa, sb) = match pool {
        Some(p) => {
            (split_rows_parallel(a, beta, budget, p), split_cols_parallel(b, beta, budget, p))
        }
        None => (split_rows(a, beta, budget), split_cols(b, beta, budget)),
    };

    // Pack every slice once into genuine i8 panels. `ints_a[p]` is m×k
    // line-major; `ints_b[q]` is transposed to n×k so a column of B
    // streams contiguously through the int8 dot kernels. (The old
    // implementation rebuilt per-chunk Vec<i8> operands inside every
    // (p, q) pair and k-chunk.)
    let ints_a: Vec<Vec<i8>> = sa
        .slices
        .iter()
        .zip(&sa.scale_exp)
        .map(|(s, exps)| pack_slice_lines(s, exps, beta, true))
        .collect();
    let ints_b: Vec<Vec<i8>> = sb
        .slices
        .iter()
        .zip(&sb.scale_exp)
        .map(|(s, exps)| pack_slice_lines(s, exps, beta, false))
        .collect();
    drop(split_span);
    me_trace::counter_add("ozaki.int8.slices_a", sa.len() as u64);
    me_trace::counter_add("ozaki.int8.slices_b", sb.len() as u64);

    let (computed, skipped) = pair_counts(sa.len(), sb.len(), cutoff);
    let kb = engine.k_block.max(1);
    let chunks = if k == 0 { 0 } else { k.div_ceil(kb) };
    let engine_calls = computed * chunks;
    me_trace::counter_add("ozaki.int8.products_computed", computed as u64);
    me_trace::counter_add("ozaki.int8.products_skipped", skipped as u64);
    me_trace::counter_add("ozaki.int8.engine_calls", engine_calls as u64);

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
                accumulate_row_panel_int8(
                    &ints_a, &sa.scale_exp, &ints_b, &sb.scale_exp, beta, k, n, kb, cutoff,
                    variant, *r0, panel,
                );
            });
        }
        _ => accumulate_row_panel_int8(
            &ints_a,
            &sa.scale_exp,
            &ints_b,
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
    Int8OzakiReport {
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

/// Pack one slice matrix into its i8 panel:
/// `Int[i][p] = slice[i][p] · 2^(β − exp[line])`, line-major (`by_rows`
/// selects rows of A vs columns of B; the B panel comes out transposed,
/// n×k). Every scaled value is a β-bit integer with magnitude ≤ 2^β ≤ 64
/// by the split invariant, so the i8 narrowing is exact — debug-asserted
/// per element, and pinned by the `int8_slicing` property suite.
fn pack_slice_lines(slice: &Mat<f64>, exps: &[i32], beta: u32, by_rows: bool) -> Vec<i8> {
    let nlines = exps.len();
    let line_len = if by_rows { slice.cols() } else { slice.rows() };
    let mut buf = vec![0i8; nlines * line_len];
    for (li, &e) in exps.iter().enumerate() {
        let se = beta as i32 - e;
        let line = &mut buf[li * line_len..(li + 1) * line_len];
        for (p, out) in line.iter_mut().enumerate() {
            let v = if by_rows { slice[(li, p)] } else { slice[(p, li)] };
            if v == 0.0 {
                continue;
            }
            let x = scale_to_int(v, se);
            debug_assert!(
                x.abs() <= 64.0 && x.fract() == 0.0,
                "slice value {x} is not a 6-bit-safe integer"
            );
            *out = x as i8;
        }
    }
    buf
}

/// Fold every scheduled slice-pair engine call into the accumulator rows
/// `[r0, r0 + panel.len()/n)`.
///
/// The per-element order is `(p, q)` pair (p outer) → k-chunk → element,
/// with exact-zero products skipped — identical for every row partition
/// and kernel variant (integer engine calls are exact), and identical to
/// the simulated-f32 path at a matched β. Each k-chunk is one
/// [`gemm_i8_i32`] engine call into a reusable i32 tile.
#[allow(clippy::too_many_arguments)]
fn accumulate_row_panel_int8(
    ints_a: &[Vec<i8>],
    a_exp: &[Vec<i32>],
    ints_b: &[Vec<i8>],
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
    let _t = me_trace::span("ozaki.int8.accumulate", "ozaki");
    let mut tile = vec![0i32; rows * n];
    for (p, (ia, ea)) in ints_a.iter().zip(a_exp).enumerate() {
        for (q, (ib, eb)) in ints_b.iter().zip(b_exp).enumerate() {
            if p + q >= cutoff {
                continue;
            }
            for k0 in (0..k).step_by(kb) {
                let kc = kb.min(k - k0);
                // The engine call: i8 multiplies, i32 accumulation —
                // pure integer arithmetic, exact by construction.
                gemm_i8_i32(variant, rows, n, kc, &ia[r0 * k + k0..], k, &ib[k0..], k, &mut tile);
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
    fn int8_products_are_exact() {
        // k_block * (2^beta)^2 must fit i32.
        let e = Int8Engine::default();
        let beta = e.slice_bits(100_000);
        let bound = e.k_block as i64 * (1i64 << beta) * (1i64 << beta);
        assert!(bound < (1i64 << 31), "i32 overflow bound violated: {bound}");
    }

    #[test]
    fn slice_bits_is_the_min_of_budget_and_i8_cap() {
        let e = Int8Engine::default();
        // Budget would allow 11 at k_block = 256; the i8 cap wins.
        assert_eq!(e.slice_bits(100_000), 6);
        assert_eq!(e.slice_bits(256), 6);
        // k below k_block shrinks the effective chunk: k = 4 → budget 14.
        assert_eq!(e.slice_bits(4), 6);
        assert_eq!(e.slice_bits(1), 6);
        // A narrow accumulator makes the budget the binding constraint:
        // acc_bits = 16, k_block = 256 → (16 − 1 − 8)/2 = 3.
        let narrow = Int8Engine { acc_bits: 16, ..Int8Engine::default() };
        assert_eq!(narrow.slice_bits(1024), 3);
        // A huge k_block also binds: 2^20 chunk → (31 − 1 − 20)/2 = 5.
        let wide = Int8Engine { k_block: 1 << 20, ..Int8Engine::default() };
        assert_eq!(wide.slice_bits(1 << 22), 5);
        // Degenerate accumulator still yields a sane width.
        let tiny = Int8Engine { acc_bits: 2, ..Int8Engine::default() };
        assert_eq!(tiny.slice_bits(64), 1);
        // The alias agrees everywhere we just probed.
        for k in [1usize, 4, 256, 100_000] {
            assert_eq!(e.beta(k), e.slice_bits(k));
        }
    }

    #[test]
    fn int8_engine_reaches_dgemm_accuracy() {
        let a = ranged_matrix(10, 14, 6.0, 1);
        let b = ranged_matrix(14, 8, 6.0, 2);
        let r = ozaki_gemm_int8(&a, &b, &Int8Engine::default());
        let c_ref = reference_gemm(&a, &b);
        let err = me_numerics::max_rel_err(r.c.as_slice(), c_ref.as_slice());
        assert!(err < 1e-12, "int8-engine Ozaki rel err {err}");
    }

    #[test]
    fn int8_needs_narrower_slices_than_f16() {
        // i8 holds 7 magnitude bits vs f16's 11 → more slices, more engine
        // calls, but zero internal rounding.
        let e = Int8Engine::default();
        assert!(e.slice_bits(256) <= 7);
        let a = ranged_matrix(8, 8, 4.0, 3);
        let b = ranged_matrix(8, 8, 4.0, 4);
        let r8 = ozaki_gemm_int8(&a, &b, &e);
        let rf = ozaki_gemm(&a, &b, &OzakiConfig::dgemm_tc());
        assert!(r8.s_a >= rf.s_a, "i8 slices {} vs f16 {}", r8.s_a, rf.s_a);
    }

    #[test]
    fn int8_wide_range_inputs() {
        let a = ranged_matrix(6, 10, 16.0, 5);
        let b = ranged_matrix(10, 6, 16.0, 6);
        let r = ozaki_gemm_int8(&a, &b, &Int8Engine::default());
        let c_ref = reference_gemm(&a, &b);
        for i in 0..6 {
            let amax: f64 = (0..10).map(|p| a[(i, p)].abs()).fold(0.0, f64::max);
            for j in 0..6 {
                let bmax: f64 = (0..10).map(|p| b[(p, j)].abs()).fold(0.0, f64::max);
                let err = (r.c[(i, j)] - c_ref[(i, j)]).abs();
                assert!(err <= 1e-12 * (amax * bmax * 10.0).max(c_ref[(i, j)].abs()));
            }
        }
    }

    #[test]
    fn int8_deterministic() {
        let a = ranged_matrix(5, 5, 8.0, 7);
        let b = ranged_matrix(5, 5, 8.0, 8);
        let e = Int8Engine::default();
        let r1 = ozaki_gemm_int8(&a, &b, &e);
        let r2 = ozaki_gemm_int8(&a, &b, &e);
        for (x, y) in r1.c.as_slice().iter().zip(r2.c.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn int8_zero_matrix() {
        let z = Mat::<f64>::zeros(3, 3);
        let r = ozaki_gemm_int8(&z, &z, &Int8Engine::default());
        assert_eq!(r.c, Mat::zeros(3, 3));
        assert_eq!(r.engine_calls, 0);
    }

    #[test]
    fn int8_kernel_variants_agree_bitwise() {
        let a = ranged_matrix(9, 13, 10.0, 11);
        let b = ranged_matrix(13, 7, 10.0, 12);
        let e = Int8Engine::default();
        let base = ozaki_gemm_int8_with(&a, &b, &e, me_linalg::KernelVariant::Scalar);
        for v in available_variants() {
            let r = ozaki_gemm_int8_with(&a, &b, &e, v);
            assert_eq!(r.kernel, v.resolve_supported());
            for (x, y) in base.c.as_slice().iter().zip(r.c.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "variant {v}");
            }
        }
    }

    #[test]
    fn int8_parallel_is_bit_identical() {
        let a = ranged_matrix(23, 17, 9.0, 13);
        let b = ranged_matrix(17, 11, 9.0, 14);
        let e = Int8Engine::default();
        let s = ozaki_gemm_int8(&a, &b, &e);
        for threads in [2, 3, 5, 8] {
            let p = ozaki_gemm_int8_parallel(&a, &b, &e, threads);
            for (x, y) in s.c.as_slice().iter().zip(p.c.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
            }
            assert_eq!(p.engine_calls, s.engine_calls, "threads={threads}");
            assert_eq!(p.products_computed, s.products_computed);
            assert_eq!(p.products_skipped, s.products_skipped);
        }
    }

    #[test]
    fn int8_matches_f16_path_at_matched_beta() {
        // At β = 6 on both paths the splits, schedules, chunk products
        // (exact in i32 and in f32 alike), and accumulator add-streams
        // are identical — so the two implementations agree bit for bit.
        // `mul_precision: 6` forces the simulated-ME β to the i8 cap.
        let a = ranged_matrix(11, 19, 12.0, 15);
        let b = ranged_matrix(19, 9, 12.0, 16);
        let e = Int8Engine::default();
        let cfg = OzakiConfig { mul_precision: 6, ..OzakiConfig::dgemm_tc() };
        let ri = ozaki_gemm_int8(&a, &b, &e);
        let rf = ozaki_gemm(&a, &b, &cfg);
        assert_eq!(ri.beta, 6);
        assert_eq!(rf.beta, 6);
        assert_eq!(ri.s_a, rf.s_a, "matched β must give matched slice counts");
        assert_eq!(ri.products_computed, rf.products_computed);
        for (x, y) in ri.c.as_slice().iter().zip(rf.c.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "int8 vs simulated-ME at matched β");
        }
    }

    #[test]
    fn int8_engine_call_count_matches_schedule() {
        let a = ranged_matrix(6, 700, 8.0, 17);
        let b = ranged_matrix(700, 5, 8.0, 18);
        let e = Int8Engine::default();
        let r = ozaki_gemm_int8(&a, &b, &e);
        let chunks = 700usize.div_ceil(e.k_block);
        assert_eq!(r.engine_calls, r.products_computed * chunks);
        assert_eq!(r.products_computed + r.products_skipped, r.s_a * r.s_b);
    }

    #[test]
    fn int8_exact_mode_exhausts_residual() {
        let a = ranged_matrix(6, 9, 5.0, 19);
        let b = ranged_matrix(9, 7, 5.0, 20);
        let e = Int8Engine { target: TargetAccuracy::Exact, ..Int8Engine::default() };
        let r = ozaki_gemm_int8(&a, &b, &e);
        assert!(r.split_exact, "exact mode must exhaust the residual");
        assert_eq!(r.products_skipped, 0);
        let c_ref = reference_gemm(&a, &b);
        for (x, y) in r.c.as_slice().iter().zip(c_ref.as_slice()) {
            assert!(me_numerics::ulp_diff(*x, *y) <= 2, "{x} vs {y}");
        }
    }
}
