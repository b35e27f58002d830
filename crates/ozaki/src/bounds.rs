//! A-priori error and cost bounds for the Ozaki scheme.
//!
//! Lets a caller predict, before running anything, (a) how many slices an
//! accuracy target will need for inputs with a given exponent spread, and
//! (b) a rigorous bound on the truncation error of a cut at slice-pair
//! index `p + q ≥ cutoff` — the quantities behind the paper's statement
//! that "the number of split matrices required depends on the absolute
//! value range of the elements".

use crate::gemm::OzakiConfig;
use crate::split::required_beta;

/// Predicted split cost for a GEMM with the given shape and input spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitPlan {
    /// Slice bit width.
    pub beta: u32,
    /// Slices per operand.
    pub slices: usize,
    /// Slice-pair products after triangular truncation.
    pub products: usize,
    /// Upper bound on the relative truncation error (relative to the
    /// row/column scale `max|A_i*| · max|B_*j| · k`).
    pub rel_error_bound: f64,
}

/// Plan a split for inner dimension `k` and inputs whose elements span
/// `spread_bits` binary orders of magnitude below each line maximum.
pub fn plan(cfg: &OzakiConfig, k: usize, spread_bits: u32) -> SplitPlan {
    let kb = cfg.k_block.max(1).min(k.max(1));
    let beta = required_beta(kb, cfg.acc_precision, cfg.mul_precision);
    let target_bits = match cfg.target {
        crate::gemm::TargetAccuracy::Exact => 53 + spread_bits,
        crate::gemm::TargetAccuracy::DgemmEquivalent => {
            53 + (k.max(1) as f64).log2().ceil() as u32 + 2
        }
        crate::gemm::TargetAccuracy::SgemmEquivalent => {
            24 + (k.max(1) as f64).log2().ceil() as u32 + 2
        }
    };
    let slices = (target_bits as usize).div_ceil(beta as usize) + 1;
    let cutoff = slices + 1;
    let mut products = 0usize;
    for p in 0..slices {
        for q in 0..slices {
            if p + q < cutoff {
                products += 1;
            }
        }
    }
    SplitPlan { beta, slices, products, rel_error_bound: truncation_bound(beta, cutoff, k) }
}

/// Rigorous bound on the dropped mass of a cut at `p + q ≥ cutoff`:
/// each slice `p` of a line is bounded by `2^(e_max − p·β + 1)`, so a
/// dropped pair `(p, q)` contributes at most `k · 2^(2·e_scale) ·
/// 2^(−(p+q)·β + 2)` relative to `2^(2·e_scale)`. Summing the geometric
/// tail over all dropped pairs:
pub fn truncation_bound(beta: u32, cutoff: usize, k: usize) -> f64 {
    if cutoff == usize::MAX {
        return 0.0;
    }
    // Number of pairs at diagonal s is s+1; each bounded by k·2^(−sβ+2).
    // Tail sum_{s >= cutoff} (s+1)·2^(−sβ+2)·k, closed-form-ish via the
    // geometric ratio r = 2^-β.
    let r = (2.0f64).powi(-(beta as i32));
    let s0 = cutoff as f64;
    // sum_{s>=s0} (s+1) r^s = r^s0 * ((s0+1) + r/(1-r)) / (1-r)
    let tail = r.powf(s0) * ((s0 + 1.0) + r / (1.0 - r)) / (1.0 - r);
    4.0 * k.max(1) as f64 * tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{ozaki_gemm, reference_gemm, TargetAccuracy};
    use crate::perf::ranged_matrix;

    #[test]
    fn plan_matches_execution_counts() {
        let cfg = OzakiConfig::dgemm_tc();
        let n = 24;
        let a = ranged_matrix(n, n, 1.0, 1);
        let b = ranged_matrix(n, n, 1.0, 2);
        let r = ozaki_gemm(&a, &b, &cfg);
        let p = plan(&cfg, n, 4);
        // The plan's slice budget is an upper bound on what narrow-range
        // inputs actually need; products likewise.
        assert!(r.s_a.max(r.s_b) <= p.slices, "{} vs plan {}", r.s_a.max(r.s_b), p.slices);
        assert!(r.products_computed <= p.products);
    }

    #[test]
    fn dgemm_bound_is_at_f64_level() {
        let cfg = OzakiConfig::dgemm_tc();
        let p = plan(&cfg, 1024, 0);
        assert!(p.rel_error_bound < 1e-14, "bound {}", p.rel_error_bound);
        assert!(p.rel_error_bound > 0.0);
    }

    #[test]
    fn sgemm_bound_is_at_f32_level() {
        let cfg = OzakiConfig::sgemm_tc();
        let p = plan(&cfg, 1024, 0);
        assert!(p.rel_error_bound < 1e-5, "bound {}", p.rel_error_bound);
        assert!(p.rel_error_bound > 1e-14, "bound should be f32-ish, got {}", p.rel_error_bound);
    }

    #[test]
    fn bound_actually_bounds_measured_error() {
        let cfg = OzakiConfig::sgemm_tc();
        let n = 16;
        let a = ranged_matrix(n, n, 1.0, 3);
        let b = ranged_matrix(n, n, 1.0, 4);
        let r = ozaki_gemm(&a, &b, &cfg);
        let c_ref = reference_gemm(&a, &b);
        let p = plan(&cfg, n, 4);
        for i in 0..n {
            let amax: f64 = (0..n).map(|q| a[(i, q)].abs()).fold(0.0, f64::max);
            for j in 0..n {
                let bmax: f64 = (0..n).map(|q| b[(q, j)].abs()).fold(0.0, f64::max);
                let scale = amax * bmax;
                let err = (r.c[(i, j)] - c_ref[(i, j)]).abs();
                assert!(
                    err <= p.rel_error_bound * scale + 1e-30,
                    "({i},{j}): err {err} exceeds bound {} * {scale}",
                    p.rel_error_bound
                );
            }
        }
    }

    #[test]
    fn exact_plan_scales_with_spread() {
        let cfg = OzakiConfig { target: TargetAccuracy::Exact, ..OzakiConfig::dgemm_tc() };
        let narrow = plan(&cfg, 256, 0);
        let wide = plan(&cfg, 256, 100);
        assert!(wide.slices > narrow.slices);
        assert!(wide.products > narrow.products);
    }

    #[test]
    fn exact_cut_has_zero_bound() {
        assert_eq!(truncation_bound(7, usize::MAX, 1000), 0.0);
    }

    #[test]
    fn bound_shrinks_with_cutoff() {
        let b1 = truncation_bound(7, 5, 1024);
        let b2 = truncation_bound(7, 10, 1024);
        let b3 = truncation_bound(7, 20, 1024);
        assert!(b1 > b2 && b2 > b3);
    }
}
