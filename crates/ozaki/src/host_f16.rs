//! The host-f16 Ozaki substrate — ROADMAP item 1: the half-precision
//! slice products as a *measured* result, not a model.
//!
//! [`HostF16Engine`] is the [`SliceEngine`] that stores the slice panels
//! in genuine 16-bit IEEE binary16 words and executes every chunk product
//! through [`me_linalg::gemm_half_f32`] — the engine-call core the
//! simulated matrix engine ([`crate::gemm::OzakiConfig`]) reaches through
//! `gemm_f32_f32`, on the host's dispatched 8 × 32 f32 engine tile
//! (strict scalar, AVX2, AVX-512). The binary16 panels are packed once per
//! call in the engine tile's layout, and each engine call widens the tile
//! blocks it reads in one contiguous pass (`vcvtph2ps` where the variant
//! has it): the memory traffic and arithmetic of a host-SIMD FP16
//! emulation. The two substrates differ only in slice storage; the driver
//! is [`crate::gemm::ozaki_gemm_on`].
//!
//! Two facts make the result **bitwise identical** to the simulated path
//! at a matched β:
//!
//! - β is capped at binary16's 11-bit significand whatever
//!   `mul_precision` says, so slice integers have magnitude ≤ 2^β ≤ 2048
//!   and every one is exactly representable: the f16 round trip of each
//!   panel value is the identity on the simulated panel;
//! - both substrates pack the same f32 values into the same engine tile,
//!   which performs exactly one correctly-rounded FMA per accumulator per
//!   ascending k step (DESIGN §9) — so each chunk sum has the same f32
//!   bits, before the shared `(p, q) → k-chunk → element` fold.
//!
//! Unlike the INT8 port ([`crate::int8`], which must pin `mul_precision:
//! 6` on the simulated side to compare), f16 slices carry the *same*
//! β = [`required_beta`]`(k_block, 24, 11)` as the Tensor-Core model, so
//! the matched-slice-count comparison needs no configuration fudge:
//! `host_f16_matches_simulated_me_bitwise` pins default-vs-default.

use crate::gemm::{sealed, slice_trace, SliceEngine, SliceTrace, TargetAccuracy};
use crate::split::required_beta;
use me_engine::{catalog, Device, EngineKind, NumericFormat};
use me_linalg::{gemm_half_f32, HalfKind, KernelVariant, PanelChunk, PanelLayout, SliceWord};
use me_numerics::formats::narrow_f32_exact;

/// Significand bits of binary16: integers up to 2^11 are exact in it.
const F16_PRECISION: u32 = 11;

/// Configuration of the host-f16 engine. Field meanings (and defaults)
/// mirror [`crate::gemm::OzakiConfig`] so the two paths derive identical
/// schedules.
#[derive(Debug, Clone, Copy)]
pub struct HostF16Engine {
    /// Precision of the accumulate format: 24 for the host's f32 kernels.
    pub acc_precision: u32,
    /// Precision of the multiply format: 11 for binary16 storage; wider
    /// values are capped at 11 by the storage.
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
}

impl sealed::Sealed for HostF16Engine {}

impl SliceEngine for HostF16Engine {
    type Word = u16;
    type Sum = f32;
    const TRACE: SliceTrace = slice_trace!("ozaki.host_f16");

    /// The simulated path's [`required_beta`] over the chunk length, with
    /// the multiply precision capped at binary16's 11 bits so every slice
    /// integer is exact in the stored word.
    fn beta(&self, k: usize) -> u32 {
        let mul_precision = self.mul_precision.min(F16_PRECISION);
        required_beta(self.effective_k(k), self.acc_precision, mul_precision)
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

    /// The f32 engine call's 8-row tiles, in binary16 words.
    const LAYOUT_A: PanelLayout = PanelLayout::F32_A;
    /// The f32 engine call's 32-column tiles, in binary16 words.
    const LAYOUT_B: PanelLayout = PanelLayout::F32_B;

    /// Binary16 bits of the slice integer, exact under the β cap: sign,
    /// exponent rebiased from 1023 to 15, top 10 significand bits.
    #[inline(always)]
    fn narrow(x: f64) -> u16 {
        let bits = x.to_bits();
        let magnitude = (bits & !(1 << 63)) >> 42;
        let rebiased = if magnitude == 0 { 0 } else { magnitude - ((1023 - 15) << 10) };
        let half = (rebiased | (bits >> 63 << 15)) as u16;
        debug_assert!(
            half == HalfKind::F16.narrow(narrow_f32_exact(x))
                && f64::from(HalfKind::F16.widen(half)) == x,
            "slice value {x} is not exactly representable in binary16"
        );
        half
    }

    const SIMD_WORD: SliceWord = SliceWord::F16;

    /// Binary16 operands widened per tile block in one contiguous pass,
    /// one f32 FMA per ascending k step on the host's dispatched engine
    /// tile.
    fn engine_call(
        variant: KernelVariant,
        m: usize,
        n: usize,
        kc: usize,
        a: PanelChunk<'_, u16>,
        b: PanelChunk<'_, u16>,
        out: &mut [f32],
    ) {
        gemm_half_f32(variant, m, n, kc, a, b, HalfKind::F16, out);
    }

    /// An AVX-512 host CPU's f32 SIMD units — the widening-pack kernels run
    /// f32 FMAs on the vector units, there is no matrix engine in the
    /// loop. The Xeon Gold 6148 (Table VI System 2) is the charged host.
    fn charged_on() -> (Device, EngineKind, NumericFormat) {
        (catalog::xeon_gold_6148(), EngineKind::Simd, NumericFormat::F32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{ozaki_gemm, reference_gemm, OzakiConfig};
    use crate::perf::ranged_matrix;
    use me_linalg::Mat;

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
    fn wide_mul_precision_is_capped_at_binary16() {
        // A 13-bit multiply precision with a 40-bit accumulator would ask
        // for 13-bit slices, which binary16 storage rounds. The cap holds
        // β at 11, so the engine is bit for bit the simulated ME at
        // `mul_precision: 11` on the same accumulator.
        let a = ranged_matrix(6, 10, 4.0, 53);
        let b = ranged_matrix(10, 5, 4.0, 54);
        let e = HostF16Engine { mul_precision: 13, acc_precision: 40, ..HostF16Engine::default() };
        let cfg = OzakiConfig { mul_precision: 11, acc_precision: 40, ..OzakiConfig::dgemm_tc() };
        let rh = ozaki_gemm(&a, &b, &e);
        let rs = ozaki_gemm(&a, &b, &cfg);
        assert_eq!((rh.beta, rs.beta), (11, 11), "β must be matched at the binary16 cap");
        assert_eq!((rh.s_a, rh.s_b), (rs.s_a, rs.s_b));
        for (x, y) in rh.c.as_slice().iter().zip(rs.c.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "host-f16 vs simulated-ME at β = 11");
        }
    }

    #[test]
    fn host_f16_reaches_dgemm_accuracy() {
        let a = ranged_matrix(10, 14, 6.0, 41);
        let b = ranged_matrix(14, 8, 6.0, 42);
        let r = ozaki_gemm(&a, &b, &HostF16Engine::default());
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
        let rh = ozaki_gemm(&a, &b, &HostF16Engine::default());
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
    fn host_f16_zero_matrix() {
        let z = Mat::<f64>::zeros(3, 3);
        let r = ozaki_gemm(&z, &z, &HostF16Engine::default());
        assert_eq!(r.c, Mat::zeros(3, 3));
        assert_eq!(r.engine_calls, 0);
    }

    #[test]
    fn host_f16_exact_mode_exhausts_residual() {
        let a = ranged_matrix(6, 9, 5.0, 51);
        let b = ranged_matrix(9, 7, 5.0, 52);
        let e = HostF16Engine { target: TargetAccuracy::Exact, ..HostF16Engine::default() };
        let r = ozaki_gemm(&a, &b, &e);
        assert!(r.split_exact, "exact mode must exhaust the residual");
        assert_eq!(r.products_skipped, 0);
        let c_ref = reference_gemm(&a, &b);
        for (x, y) in r.c.as_slice().iter().zip(c_ref.as_slice()) {
            assert!(me_numerics::ulp_diff(*x, *y) <= 2, "{x} vs {y}");
        }
    }
}
