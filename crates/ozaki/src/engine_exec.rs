//! Ozaki GEMM executed through the cycle-level systolic-array simulator.
//!
//! [`crate::gemm::ozaki_gemm`] computes the slice-pair products in plain
//! `f32` on the host's micro-kernel (sound, because the products are exact
//! there). This module pushes faithfulness one step further: the products
//! run through
//! [`me_engine::systolic_gemm`] — the simulated Tensor-Core datapath with
//! f16 operand quantization and f32 PE accumulators — and the result is
//! proven (by test) to be **bit-identical** to the plain implementation.
//! It also returns the engine's cycle statistics, connecting the algorithm
//! to the hardware cost model of Table VIII.

use crate::gemm::{pair_counts, poison, OzakiConfig, OzakiReport, SliceEngine};
use crate::split::{Call, Pack, Plan, Source};
use crate::workspace::with_arena;
use me_engine::systolic::{systolic_gemm, CycleStats, SystolicArray};
use me_linalg::{fold_tile, selected_kernel, KernelVariant, Mat};

/// Result of an engine-executed Ozaki GEMM.
#[derive(Debug, Clone)]
pub struct EngineOzakiResult {
    /// The standard report (result matrix + counters).
    pub report: OzakiReport,
    /// Aggregated cycle statistics across all slice-pair products.
    pub engine_stats: CycleStats,
}

/// Run the Ozaki scheme with every slice-pair product executed on the
/// simulated systolic array.
///
/// # Panics
/// If the array's formats cannot hold the configured slice width (`beta`
/// must fit the multiply format's significand, and `2β + ⌈log₂ k_block⌉`
/// must fit the accumulator's).
pub fn ozaki_gemm_systolic(
    a: &Mat<f64>,
    b: &Mat<f64>,
    cfg: &OzakiConfig,
    array: &SystolicArray,
) -> EngineOzakiResult {
    assert_eq!(a.cols(), b.rows(), "ozaki_gemm_systolic: inner dimension mismatch");
    assert!(
        array.mul_format.precision() >= cfg.mul_precision
            && array.acc_format.precision() >= cfg.acc_precision,
        "array formats too narrow for the Ozaki configuration"
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let kb = cfg.k_block.max(1);
    let beta = cfg.beta(k);
    let (budget, cutoff) = cfg.budget_and_cutoff(k, beta);

    // The slice integers as f64 panels (exact in the multiply format), in
    // the calling thread's workspace.
    let kernel = selected_kernel();
    let pack = Pack::lines(k);
    let sources = (Source::Rows(a), Source::Cols(b));
    let mut plan = Plan::<f64, f64>::new(sources, (pack, pack), (beta, budget), 1, (m * n, 0));
    let mut stats = CycleStats { cycles: 0, macs: 0, pe_cycles: 0, tiles: 0 };
    let (c, s_a, s_b, split_exact) = with_arena(|arena| {
        let split = plan.split(arena, kernel, None, &|r, _| r);
        let Call { hi, lo, a: pa, b: pb, .. } = plan.carve(arena, split);
        hi.fill(0.0);
        lo.fill(0.0);
        for (p, (wa, a_exp)) in pa.iter().enumerate() {
            for (q, (wb, b_exp)) in pb.iter().enumerate() {
                if p + q >= cutoff {
                    continue;
                }
                for k0 in (0..k).step_by(kb) {
                    let kc = kb.min(k - k0);
                    let int_a = Mat::from_fn(m, kc, |i, t| wa[i * k + k0 + t]);
                    let int_b = Mat::from_fn(kc, n, |t, j| wb[j * k + k0 + t]);
                    // The actual engine execution.
                    let r = systolic_gemm(array, &int_a, &int_b);
                    stats.cycles += r.stats.cycles;
                    stats.macs += r.stats.macs;
                    stats.pe_cycles += r.stats.pe_cycles;
                    stats.tiles += r.stats.tiles;
                    fold_tile(kernel, r.c.as_slice(), a_exp, b_exp, beta, hi, lo);
                }
            }
        }
        let mut c: Vec<f64> = hi.iter().zip(lo.iter()).map(|(h, l)| h + l).collect();
        poison(&mut c, n, pa.poisoned(), pb.poisoned());
        (c, pa.len(), pb.len(), pa.complete && pb.complete)
    });
    let (computed, skipped) = pair_counts(s_a, s_b, cutoff);
    EngineOzakiResult {
        report: OzakiReport {
            c: Mat::from_vec(m, n, c),
            s_a,
            s_b,
            products_computed: computed,
            products_skipped: skipped,
            engine_calls: computed * k.div_ceil(kb),
            beta,
            split_exact,
            // Each PE accumulates in ascending k, one rounding per step:
            // the strict scalar kernel's order (bit-identity pinned below).
            kernel: KernelVariant::Scalar,
        },
        engine_stats: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::ozaki_gemm;
    use crate::perf::ranged_matrix;

    #[test]
    fn engine_execution_is_bit_identical_to_plain() {
        let a = ranged_matrix(10, 12, 8.0, 1);
        let b = ranged_matrix(12, 9, 8.0, 2);
        let cfg = OzakiConfig::dgemm_tc();
        let plain = ozaki_gemm(&a, &b, &cfg);
        let engine = ozaki_gemm_systolic(&a, &b, &cfg, &SystolicArray::tensor_core());
        assert_eq!(plain.products_computed, engine.report.products_computed);
        for (x, y) in plain.c.as_slice().iter().zip(engine.report.c.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "engine and plain paths must agree exactly");
        }
    }

    #[test]
    fn engine_execution_matches_plain_on_a_subnormal_row() {
        // Row 3's maximum is subnormal, so its slices scale by 2^(β − e)
        // beyond f64 range; both paths must split that scaling.
        let mut a = ranged_matrix(6, 12, 6.0, 5);
        for p in 0..12 {
            a[(3, p)] *= 1e-315;
        }
        let b = ranged_matrix(12, 5, 6.0, 6);
        let cfg = OzakiConfig::dgemm_tc();
        let plain = ozaki_gemm(&a, &b, &cfg);
        let engine = ozaki_gemm_systolic(&a, &b, &cfg, &SystolicArray::tensor_core());
        for (x, y) in plain.c.as_slice().iter().zip(engine.report.c.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x:e} vs {y:e}");
        }
    }

    #[test]
    fn cycle_stats_accumulate() {
        let a = ranged_matrix(8, 8, 4.0, 3);
        let b = ranged_matrix(8, 8, 4.0, 4);
        let r = ozaki_gemm_systolic(&a, &b, &OzakiConfig::dgemm_tc(), &SystolicArray::tensor_core());
        assert!(r.engine_stats.cycles > 0);
        assert!(r.engine_stats.macs > 0);
        // MACs = products × m × n × k.
        let expect = r.report.products_computed as u64 * 8 * 8 * 8;
        assert_eq!(r.engine_stats.macs, expect);
    }

    #[test]
    #[should_panic(expected = "too narrow")]
    fn rejects_undersized_arrays() {
        let a = ranged_matrix(4, 4, 2.0, 5);
        let cfg = OzakiConfig::dgemm_tc(); // needs f32 accumulator
        let _ = ozaki_gemm_systolic(&a, &a, &cfg, &SystolicArray::pure_f16());
    }

    #[test]
    fn works_on_tpu_sized_arrays() {
        // bf16 multiply is narrower than f16: needs an adapted config.
        let cfg = OzakiConfig { mul_precision: 8, ..OzakiConfig::dgemm_tc() };
        let a = ranged_matrix(6, 6, 4.0, 7);
        let b = ranged_matrix(6, 6, 4.0, 8);
        let r = ozaki_gemm_systolic(&a, &b, &cfg, &SystolicArray::tpu_like());
        let reference = crate::gemm::reference_gemm(&a, &b);
        let err = me_numerics::max_rel_err(r.report.c.as_slice(), reference.as_slice());
        assert!(err < 1e-12, "bf16-array Ozaki err {err}");
    }
}
