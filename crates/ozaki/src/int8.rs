//! The INT8 Ozaki substrate: integer matrix engines (INT8 with INT32
//! accumulate), executed on real host kernels.
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
//! [`Int8Engine`] is the [`SliceEngine`] whose products run on genuine
//! host int8 kernels ([`me_linalg::gemm_i8_i32`]: AMX `tdpbusd` tiles on
//! AMX hosts, an 8×32 `vpdpbusd` tile on AVX-512 VNNI hosts, the same
//! tile on AVX2 `vpmaddwd`, or the scalar loop), dispatched through the same
//! [`KernelVariant`] table as the floating-point GEMM; the driver is
//! [`crate::gemm::ozaki_gemm_on`]. Each slice is packed once per call into
//! `me_linalg`'s int8 layouts, which store A as the offset bytes `a + 128`
//! the unsigned `vpdpbusd` operand wants and follow each B chunk with its
//! column sums, from which the kernel subtracts `128·colsum` — exact
//! modulo 2^32 and therefore exact, because the true
//! chunk sum fits i32 (the `me_linalg` int8 module docs have the
//! argument). Integer arithmetic is associative, so every kernel variant
//! and every thread count returns the same bits; and at a matched β the
//! whole pipeline is bitwise identical to the simulated-ME path
//! (`int8_matches_f16_path_at_matched_beta` pins this).

use crate::gemm::{sealed, slice_trace, SliceEngine, SliceTrace, TargetAccuracy};
use crate::split::required_beta;
use me_engine::{catalog, Device, EngineKind, NumericFormat};
use me_linalg::{gemm_i8_i32, KernelVariant, PanelChunk, PanelLayout, SliceWord};

/// Magnitude bits of the i32 accumulator, whatever `acc_bits` says.
const I32_MAGNITUDE_BITS: u32 = 31;

/// Widest slice whose integers fit `i8`: the round-to-nearest extraction
/// can emit exactly ±2^β ([`crate::split`]), and ±64 fits while ±128 does
/// not.
const I8_SLICE_BITS: u32 = 6;

/// Configuration of an integer matrix engine: i8 slices, i32 chunk sums
/// on the host's int8 kernel (AMX `tdpbusd` or VNNI `vpdpbusd` on
/// AVX-512 hosts that have them, AVX2 `vpmaddwd`, or scalar), A stored as
/// offset bytes.
#[derive(Debug, Clone, Copy)]
pub struct Int8Engine {
    /// Accumulator width in bits; the i32 kernels cap it at 31 usable
    /// magnitude bits.
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
        // `beta` caps the width at 6: ±2^6 = ±64 fits i8 while ±2^7 =
        // ±128 (let alone ±2^11) does not.
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
}

impl sealed::Sealed for Int8Engine {}

impl SliceEngine for Int8Engine {
    type Word = i8;
    type Sum = i32;
    const TRACE: SliceTrace = slice_trace!("ozaki.int8");

    /// Two constraints intersect:
    /// - the accumulator budget `k_eff · 2^(2β) < 2^31` with one guard
    ///   bit, where `k_eff = min(k, k_block)` thanks to k-chunking and the
    ///   budget is `min(acc_bits, 31)` because the kernels accumulate in
    ///   i32: `β ≤ ⌊(min(acc_bits, 31) − 1 − ⌈log₂ k_eff⌉)/2⌋`;
    /// - the i8 operand: β ≤ 6.
    fn beta(&self, k: usize) -> u32 {
        let acc_bits = self.acc_bits.min(I32_MAGNITUDE_BITS);
        required_beta(self.effective_k(k), acc_bits, I8_SLICE_BITS)
    }

    fn target(&self) -> TargetAccuracy {
        self.target
    }

    fn max_slices(&self) -> usize {
        self.max_slices
    }

    fn k_block(&self) -> usize {
        self.k_block
    }

    /// The int8 register tile's 8-row, row-major A chunks of offset bytes.
    const LAYOUT_A: PanelLayout = PanelLayout::I8_A;
    /// The int8 register tile's 32-column B chunks, 4 k values per column,
    /// each chunk followed by its column sums.
    const LAYOUT_B: PanelLayout = PanelLayout::I8_B;

    /// The slice integer as `i8`: magnitude ≤ 2^β ≤ 64 by the split
    /// invariant, so the narrowing is exact — debug-asserted per element,
    /// and pinned by the `int8_slicing` property suite. Read off the bits
    /// of `x + 1.5·2^52`, whose significand's low byte holds the integer
    /// `x` in two's complement (the ulp there is 1): an add and a
    /// truncation that vectorize, where a saturating `as i8` clamps.
    #[inline(always)]
    fn narrow(x: f64) -> i8 {
        debug_assert!(
            x.abs() <= 64.0 && x.fract() == 0.0,
            "slice value {x} is not a 6-bit-safe integer"
        );
        (x + 6_755_399_441_055_744.0).to_bits() as u8 as i8
    }

    const SIMD_WORD: SliceWord = SliceWord::I8;

    /// i8 multiplies, i32 accumulation — integer arithmetic, exact modulo
    /// 2^32 and so exact under the β budget.
    fn engine_call(
        variant: KernelVariant,
        m: usize,
        n: usize,
        kc: usize,
        a: PanelChunk<'_, i8>,
        b: PanelChunk<'_, i8>,
        out: &mut [i32],
    ) {
        gemm_i8_i32(variant, m, n, kc, a, b, out);
    }

    /// The A100's INT8 Tensor Cores — the device the energy comparison
    /// ([`crate::energy`]) runs every matrix-engine substrate on.
    fn charged_on() -> (Device, EngineKind, NumericFormat) {
        (catalog::a100(), EngineKind::MatrixEngine, NumericFormat::I8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{ozaki_gemm, reference_gemm, OzakiConfig};
    use crate::perf::ranged_matrix;
    use me_linalg::Mat;

    #[test]
    fn int8_products_are_exact() {
        // k_block * (2^beta)^2 must fit i32.
        let e = Int8Engine::default();
        let beta = e.beta(100_000);
        let bound = e.k_block as i64 * (1i64 << beta) * (1i64 << beta);
        assert!(bound < (1i64 << 31), "i32 overflow bound violated: {bound}");
    }

    #[test]
    fn beta_is_the_min_of_budget_and_i8_cap() {
        let e = Int8Engine::default();
        // Budget would allow 11 at k_block = 256; the i8 cap wins.
        assert_eq!(e.beta(100_000), 6);
        assert_eq!(e.beta(256), 6);
        // k below k_block shrinks the effective chunk: k = 4 → budget 14.
        assert_eq!(e.beta(4), 6);
        assert_eq!(e.beta(1), 6);
        // A narrow accumulator makes the budget the binding constraint:
        // acc_bits = 16, k_block = 256 → (16 − 1 − 8)/2 = 3.
        let narrow = Int8Engine { acc_bits: 16, ..Int8Engine::default() };
        assert_eq!(narrow.beta(1024), 3);
        // A huge k_block also binds: 2^20 chunk → (31 − 1 − 20)/2 = 5.
        let wide = Int8Engine { k_block: 1 << 20, ..Int8Engine::default() };
        assert_eq!(wide.beta(1 << 22), 5);
        // An accumulator wider than the i32 kernels' is budgeted at 31.
        let over = Int8Engine { acc_bits: 40, k_block: 1 << 20, ..Int8Engine::default() };
        assert_eq!(over.beta(1 << 20), 5);
        // Degenerate accumulator still yields a sane width.
        let tiny = Int8Engine { acc_bits: 2, ..Int8Engine::default() };
        assert_eq!(tiny.beta(64), 1);
    }

    #[test]
    fn int8_engine_reaches_dgemm_accuracy() {
        // A small 1e6-range case, then square n = 24 / 48 at range 1e12.
        let cases = [
            (ranged_matrix(10, 14, 6.0, 1), ranged_matrix(14, 8, 6.0, 2)),
            (ranged_matrix(24, 24, 12.0, 23), ranged_matrix(24, 24, 12.0, 24)),
            (ranged_matrix(48, 48, 12.0, 23), ranged_matrix(48, 48, 12.0, 24)),
        ];
        for (a, b) in &cases {
            let r = ozaki_gemm(a, b, &Int8Engine::default());
            let c_ref = reference_gemm(a, b);
            let err = me_numerics::max_rel_err(r.c.as_slice(), c_ref.as_slice());
            assert!(err < 1e-12, "int8-engine Ozaki rel err {err} at {}x{}", a.rows(), b.cols());
        }
    }

    #[test]
    fn int8_needs_narrower_slices_than_f16() {
        // i8 holds 7 magnitude bits vs f16's 11 → more slices, more engine
        // calls, but zero internal rounding.
        let e = Int8Engine::default();
        assert!(e.beta(256) <= 7);
        let a = ranged_matrix(8, 8, 4.0, 3);
        let b = ranged_matrix(8, 8, 4.0, 4);
        let r8 = ozaki_gemm(&a, &b, &e);
        let rf = ozaki_gemm(&a, &b, &OzakiConfig::dgemm_tc());
        assert!(r8.s_a >= rf.s_a, "i8 slices {} vs f16 {}", r8.s_a, rf.s_a);
    }

    #[test]
    fn int8_wide_range_inputs() {
        let a = ranged_matrix(6, 10, 16.0, 5);
        let b = ranged_matrix(10, 6, 16.0, 6);
        let r = ozaki_gemm(&a, &b, &Int8Engine::default());
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
        let r1 = ozaki_gemm(&a, &b, &e);
        let r2 = ozaki_gemm(&a, &b, &e);
        for (x, y) in r1.c.as_slice().iter().zip(r2.c.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn int8_zero_matrix() {
        let z = Mat::<f64>::zeros(3, 3);
        let r = ozaki_gemm(&z, &z, &Int8Engine::default());
        assert_eq!(r.c, Mat::zeros(3, 3));
        assert_eq!(r.engine_calls, 0);
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
        let ri = ozaki_gemm(&a, &b, &e);
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
    fn int8_exact_mode_exhausts_residual() {
        let a = ranged_matrix(6, 9, 5.0, 19);
        let b = ranged_matrix(9, 7, 5.0, 20);
        let e = Int8Engine { target: TargetAccuracy::Exact, ..Int8Engine::default() };
        let r = ozaki_gemm(&a, &b, &e);
        assert!(r.split_exact, "exact mode must exhaust the residual");
        assert_eq!(r.products_skipped, 0);
        let c_ref = reference_gemm(&a, &b);
        for (x, y) in r.c.as_slice().iter().zip(c_ref.as_slice()) {
            assert!(me_numerics::ulp_diff(*x, *y) <= 2, "{x} vs {y}");
        }
    }
}
