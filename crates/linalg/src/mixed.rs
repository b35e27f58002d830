//! Mixed-precision solvers: the paper's §V-A3 opportunity
//! ("lower/mixed precision in scientific computing") made executable.
//!
//! [`ir_solve`] is the classic mixed-precision iterative refinement: the
//! expensive O(n³) factorization runs in a *low* precision (what a cheap
//! matrix engine would provide), while the O(n²) residual correction runs
//! in f64 — recovering full double-precision accuracy whenever the low
//! precision suffices to make the iteration contract. This is the workload
//! pattern the mixed-precision survey the paper cites (Abdelfattah et al.)
//! centres on.

use crate::blas2::{trsv, Triangle};
use crate::lapack::{getrf, LapackError};
use crate::mat::Mat;
use me_numerics::FloatFormat;

/// Outcome of an iterative-refinement solve.
#[derive(Debug, Clone)]
pub struct IrResult {
    /// The solution.
    pub x: Vec<f64>,
    /// Refinement iterations taken.
    pub iterations: usize,
    /// Final residual infinity norm ‖b − A·x‖∞.
    pub residual: f64,
    /// Whether the iteration converged to the requested tolerance.
    pub converged: bool,
}

/// Solve `A·x = b` with a low-precision LU factorization plus f64
/// iterative refinement.
///
/// `low` is the factorization precision (e.g. [`FloatFormat::F16`] for an
/// f16 matrix engine, [`FloatFormat::F32`] for an SGEMM-based solver).
/// Refinement stops when the residual's relative size drops below `tol` or
/// after `max_iters`.
pub fn ir_solve(
    a: &Mat<f64>,
    b: &[f64],
    low: FloatFormat,
    tol: f64,
    max_iters: usize,
) -> Result<IrResult, LapackError> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "ir_solve: A must be square");
    assert_eq!(b.len(), n, "ir_solve: rhs length mismatch");
    if n == 0 {
        return Ok(IrResult { x: vec![], iterations: 0, residual: 0.0, converged: true });
    }

    // Factorize the demoted matrix (this is what would run on the ME).
    let mut lu_low = a.map(|x| low.quantize(x));
    let piv = getrf(&mut lu_low)?;

    let scale = a.inf_norm() * b.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1.0);

    let mut x = vec![0.0f64; n];
    let mut residual = f64::INFINITY;
    let mut iterations = 0;
    for it in 0..max_iters {
        iterations = it + 1;
        // r = b - A x, in full f64.
        let mut r = b.to_vec();
        for i in 0..n {
            let mut acc = r[i];
            for j in 0..n {
                acc = (-a[(i, j)]).mul_add(x[j], acc);
            }
            r[i] = acc;
        }
        residual = r.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        if residual <= tol * scale {
            return Ok(IrResult { x, iterations: it, residual, converged: true });
        }
        // Correction solve in the low-precision factorization.
        solve_with_lu(&lu_low, &piv, &mut r);
        for (xi, di) in x.iter_mut().zip(&r) {
            *xi += *di;
        }
    }
    // Final residual check.
    let mut r = b.to_vec();
    for i in 0..n {
        for j in 0..n {
            r[i] -= a[(i, j)] * x[j];
        }
    }
    residual = residual.min(r.iter().fold(0.0f64, |m, &v| m.max(v.abs())));
    let converged = residual <= tol * scale;
    Ok(IrResult { x, iterations, residual, converged })
}

fn solve_with_lu(lu: &Mat<f64>, piv: &[usize], b: &mut [f64]) {
    let orig = b.to_vec();
    for (i, &src) in piv.iter().enumerate() {
        b[i] = orig[src];
    }
    trsv(Triangle::Lower, true, lu, b);
    trsv(Triangle::Upper, false, lu, b);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_system(n: usize, seed: u64) -> (Mat<f64>, Vec<f64>) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let a =
            Mat::from_fn(n, n, |i, j| if i == j { 4.0 + next().abs() } else { next() / n as f64 });
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        (a, b)
    }

    #[test]
    fn f32_factorization_recovers_f64_accuracy() {
        let (a, b) = spd_system(40, 1);
        let r = ir_solve(&a, &b, FloatFormat::F32, 1e-14, 20).unwrap();
        assert!(r.converged, "residual {}", r.residual);
        assert!(r.iterations <= 5, "f32 IR should converge fast, took {}", r.iterations);
        // Compare against the direct f64 solve.
        let x_ref = crate::lapack::hpl_solve(&a, &b).unwrap();
        for (xi, ri) in r.x.iter().zip(&x_ref) {
            assert!((xi - ri).abs() < 1e-10);
        }
    }

    #[test]
    fn f16_factorization_needs_more_iterations() {
        let (a, b) = spd_system(24, 2);
        let r32 = ir_solve(&a, &b, FloatFormat::F32, 1e-13, 40).unwrap();
        let r16 = ir_solve(&a, &b, FloatFormat::F16, 1e-13, 40).unwrap();
        assert!(r16.converged, "f16 IR residual {}", r16.residual);
        assert!(
            r16.iterations >= r32.iterations,
            "f16 ({}) should need at least as many iterations as f32 ({})",
            r16.iterations,
            r32.iterations
        );
    }

    #[test]
    fn bf16_with_eight_significand_bits_still_converges_on_easy_systems() {
        let (a, b) = spd_system(12, 3);
        let r = ir_solve(&a, &b, FloatFormat::BF16, 1e-12, 60).unwrap();
        assert!(r.converged, "bf16 IR residual {}", r.residual);
    }

    #[test]
    fn zero_iterations_when_rhs_zero() {
        let (a, _) = spd_system(8, 4);
        let b = vec![0.0; 8];
        let r = ir_solve(&a, &b, FloatFormat::F16, 1e-14, 10).unwrap();
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
        assert!(r.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn singular_low_precision_factorization_reported() {
        // A matrix that becomes exactly singular when demoted to f16:
        // rows differ only below f16 resolution.
        let mut a = Mat::from_fn(2, 2, |_, j| if j == 0 { 1.0 } else { 2.0 });
        a[(1, 0)] += 1e-9;
        let b = vec![1.0, 1.0];
        match ir_solve(&a, &b, FloatFormat::F16, 1e-12, 5) {
            Err(LapackError::SingularPivot(_)) => {}
            other => panic!("expected singular pivot, got {other:?}"),
        }
    }

    #[test]
    fn empty_system() {
        let a = Mat::<f64>::zeros(0, 0);
        let r = ir_solve(&a, &[], FloatFormat::F16, 1e-12, 3).unwrap();
        assert!(r.converged);
    }
}
