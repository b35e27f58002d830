//! Residual-based property tests for the factorization layer and
//! differential tests for the BLAS-1/2 and mixed-precision routines.
//!
//! Two complementary oracles, both on seeded [`Rng64`] inputs so every
//! failure replays from the printed case index:
//!
//! - **Residual properties** (qr.rs / eig.rs / lapack.rs): a factorization
//!   is checked against the *defining identity* of its output — ‖QR − A‖
//!   and ‖QᵀQ − I‖ for Householder QR, ‖A·v − λ·v‖ and VᵀV = I for the
//!   Jacobi eigensolver, the TOP500 scaled residual for LU, ‖L·Lᵀ − A‖
//!   for Cholesky. These catch wrong-but-plausible outputs that pointwise
//!   comparisons against another implementation cannot.
//! - **Differential tests** (blas1.rs / blas2.rs / mixed.rs): each routine
//!   runs against an independently written naive reference in this file,
//!   including the f32 paths promoted through an f64 reference (the
//!   mixed-precision promotion direction `ir_solve` relies on).

use matrix_engines::linalg::{blas1, blas2, Mat};
use matrix_engines::linalg::{getrf, getrs, hpl_residual, lstsq, potrf, qr, sym_eig};
use me_linalg::blas2::Triangle;
use me_linalg::ir_solve;
use me_numerics::{FloatFormat, Rng64};

/// Cases per cheap (O(n)–O(n²)) property.
const CASES: usize = 64;
/// Cases per expensive (O(n³)) property; sizes stay ≤ 16 so the debug
/// profile finishes the file in seconds.
const FACT_CASES: usize = 24;

fn gen_mat(rng: &mut Rng64, rows: usize, cols: usize) -> Mat<f64> {
    Mat::from_fn(rows, cols, |_, _| rng.range_f64(-1.0, 1.0))
}

fn gen_vec(rng: &mut Rng64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

/// Frobenius norm of `M − N`.
fn fro_diff(m: &Mat<f64>, n: &Mat<f64>) -> f64 {
    assert_eq!(m.shape(), n.shape());
    m.as_slice().iter().zip(n.as_slice()).map(|(&a, &b)| (a - b) * (a - b)).sum::<f64>().sqrt()
}

fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(&a, &b)| (a - b).abs()).fold(0.0, f64::max)
}

// ---------------------------------------------------------------------
// Residual properties: qr.rs
// ---------------------------------------------------------------------

#[test]
fn qr_reconstructs_and_q_is_orthonormal() {
    let mut rng = Rng64::seed_from_u64(0x51D0);
    for case in 0..FACT_CASES {
        let m = rng.range_usize(1, 13);
        let n = rng.range_usize(1, m + 1);
        let a = gen_mat(&mut rng, m, n);
        let f = qr(&a);
        assert_eq!(f.q.shape(), (m, n), "case {case}: thin Q shape");
        assert_eq!(f.r.shape(), (n, n), "case {case}: R shape");

        // R is upper triangular.
        for i in 0..n {
            for j in 0..i {
                assert_eq!(f.r[(i, j)], 0.0, "case {case}: R not triangular at ({i},{j})");
            }
        }

        // ‖QR − A‖F ≤ tol·‖A‖F — the defining identity.
        let mut qr_prod = Mat::zeros(m, n);
        me_linalg::gemm_tiled(1.0, &f.q, &f.r, 0.0, &mut qr_prod);
        let tol = 1e-12 * a.fro_norm().max(1.0) * (m as f64);
        let resid = fro_diff(&qr_prod, &a);
        assert!(resid <= tol, "case {case} ({m}x{n}): ‖QR−A‖F = {resid:e} > {tol:e}");

        // ‖QᵀQ − I‖F ≤ tol — orthonormal columns.
        let mut qtq = Mat::zeros(n, n);
        me_linalg::gemm_tiled(1.0, &f.q.transpose(), &f.q, 0.0, &mut qtq);
        let ortho = fro_diff(&qtq, &Mat::eye(n));
        let otol = 1e-12 * (m as f64);
        assert!(ortho <= otol, "case {case} ({m}x{n}): ‖QᵀQ−I‖F = {ortho:e} > {otol:e}");
    }
}

#[test]
fn lstsq_normal_equations_residual_is_orthogonal() {
    // At the least-squares optimum the residual r = A·x − b satisfies
    // Aᵀ·r = 0; checking that identity avoids any conditioning assumption
    // on x itself.
    let mut rng = Rng64::seed_from_u64(0x157);
    for case in 0..FACT_CASES {
        let n = rng.range_usize(1, 9);
        let m = n + rng.range_usize(0, 9);
        let mut a = gen_mat(&mut rng, m, n);
        for j in 0..n {
            a[(j, j)] += 3.0; // keep AᵀA comfortably invertible
        }
        let b = gen_vec(&mut rng, m);
        let x = lstsq(&a, &b);
        assert_eq!(x.len(), n, "case {case}: solution length");

        let mut r = vec![0.0; m];
        blas2::gemv(1.0, &a, &x, 0.0, &mut r);
        for (ri, &bi) in r.iter_mut().zip(&b) {
            *ri -= bi;
        }
        let mut atr = vec![0.0; n];
        blas2::gemv_t(1.0, &a, &r, 0.0, &mut atr);
        let tol = 1e-10 * (m as f64) * a.fro_norm().max(1.0);
        let worst = atr.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
        assert!(worst <= tol, "case {case} ({m}x{n}): ‖Aᵀ(Ax−b)‖∞ = {worst:e} > {tol:e}");
    }
}

// ---------------------------------------------------------------------
// Residual properties: eig.rs
// ---------------------------------------------------------------------

#[test]
fn sym_eig_residual_orthonormality_and_order() {
    let mut rng = Rng64::seed_from_u64(0xE16);
    for case in 0..FACT_CASES {
        let n = rng.range_usize(1, 11);
        let base = gen_mat(&mut rng, n, n);
        // Symmetrize: A = (B + Bᵀ)/2.
        let a = Mat::from_fn(n, n, |i, j| 0.5 * (base[(i, j)] + base[(j, i)]));
        let e = sym_eig(&a, 1e-14, 64);
        assert_eq!(e.values.len(), n, "case {case}: eigenvalue count");
        assert_eq!(e.vectors.shape(), (n, n), "case {case}: eigenvector shape");

        // Ascending order.
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1], "case {case}: eigenvalues not ascending: {:?}", e.values);
        }

        let scale = a.fro_norm().max(1.0);
        // ‖A·vⱼ − λⱼ·vⱼ‖₂ ≤ tol·‖A‖F for every pair.
        for j in 0..n {
            let v = e.vectors.col_vec(j);
            let mut av = vec![0.0; n];
            blas2::gemv(1.0, &a, &v, 0.0, &mut av);
            let mut lv = v.clone();
            blas1::scal(e.values[j], &mut lv);
            let resid = max_abs_diff(&av, &lv);
            let tol = 1e-9 * scale;
            assert!(
                resid <= tol,
                "case {case} (n={n}): ‖A·v−λ·v‖∞ = {resid:e} > {tol:e} for λ[{j}]={}",
                e.values[j]
            );
        }

        // VᵀV = I — the rotations must preserve orthonormality.
        let mut vtv = Mat::zeros(n, n);
        me_linalg::gemm_tiled(1.0, &e.vectors.transpose(), &e.vectors, 0.0, &mut vtv);
        let ortho = fro_diff(&vtv, &Mat::eye(n));
        assert!(ortho <= 1e-10 * n as f64, "case {case}: ‖VᵀV−I‖F = {ortho:e}");
    }
}

// ---------------------------------------------------------------------
// Residual properties: lapack.rs
// ---------------------------------------------------------------------

#[test]
fn lu_solve_passes_top500_residual() {
    let mut rng = Rng64::seed_from_u64(0x100);
    for case in 0..FACT_CASES {
        let n = rng.range_usize(1, 17);
        let mut a = gen_mat(&mut rng, n, n);
        for i in 0..n {
            a[(i, i)] += n as f64; // diagonally dominant, well conditioned
        }
        let b = gen_vec(&mut rng, n);
        let mut lu = a.clone();
        let piv = getrf(&mut lu).expect("diag-dominant LU must not break down");
        let mut x = b.clone();
        getrs(&lu, &piv, &mut x);
        let r = hpl_residual(&a, &x, &b);
        assert!(r <= 16.0, "case {case} (n={n}): HPL scaled residual {r} > 16");
    }
}

#[test]
fn cholesky_factor_reconstructs_spd_matrix() {
    let mut rng = Rng64::seed_from_u64(0xC401);
    for case in 0..FACT_CASES {
        let n = rng.range_usize(1, 13);
        let m = gen_mat(&mut rng, n, n);
        // A = MᵀM + n·I is symmetric positive definite.
        let mut a = Mat::eye(n);
        me_linalg::gemm_tiled(1.0, &m.transpose(), &m, n as f64, &mut a);
        let mut l = a.clone();
        potrf(&mut l).expect("SPD Cholesky must succeed");
        // L is lower triangular with positive diagonal …
        for i in 0..n {
            assert!(l[(i, i)] > 0.0, "case {case}: nonpositive pivot at {i}");
            for j in (i + 1)..n {
                assert_eq!(l[(i, j)], 0.0, "case {case}: upper not cleared at ({i},{j})");
            }
        }
        // … and ‖L·Lᵀ − A‖F ≤ tol·‖A‖F.
        let mut llt = Mat::zeros(n, n);
        me_linalg::gemm_tiled(1.0, &l, &l.transpose(), 0.0, &mut llt);
        let tol = 1e-12 * a.fro_norm().max(1.0) * (n as f64);
        let resid = fro_diff(&llt, &a);
        assert!(resid <= tol, "case {case} (n={n}): ‖LLᵀ−A‖F = {resid:e} > {tol:e}");
    }
}

// ---------------------------------------------------------------------
// Differential tests: blas1.rs vs naive references
// ---------------------------------------------------------------------

#[test]
fn blas1_matches_naive_references_f64() {
    let mut rng = Rng64::seed_from_u64(0xB1A5);
    for case in 0..CASES {
        let n = rng.range_usize(0, 65);
        let x = gen_vec(&mut rng, n);
        let y = gen_vec(&mut rng, n);
        let alpha = rng.range_f64(-2.0, 2.0);
        let tol = 1e-13 * (n as f64 + 1.0);

        // dot: plain sum-of-products reference (no FMA) within tolerance.
        let dref: f64 = x.iter().zip(&y).map(|(&a, &b)| a * b).sum();
        assert!((blas1::dot(&x, &y) - dref).abs() <= tol, "case {case}: dot");

        // nrm2 via the reference dot.
        assert!(
            (blas1::nrm2(&x) - x.iter().map(|v| v * v).sum::<f64>().sqrt()).abs() <= tol,
            "case {case}: nrm2"
        );

        // asum is a plain abs-sum; identical fold order ⇒ exact.
        let aref: f64 = x.iter().fold(0.0, |acc, &v| acc + v.abs());
        assert_eq!(blas1::asum(&x), aref, "case {case}: asum");

        // axpy within one rounding of the unfused reference.
        let mut got = y.clone();
        blas1::axpy(alpha, &x, &mut got);
        let want: Vec<f64> = x.iter().zip(&y).map(|(&a, &b)| alpha * a + b).collect();
        assert!(max_abs_diff(&got, &want) <= tol, "case {case}: axpy");

        // scal is a plain in-place multiply ⇒ exact.
        let mut got = x.clone();
        blas1::scal(alpha, &mut got);
        let want: Vec<f64> = x.iter().map(|&v| v * alpha).collect();
        assert_eq!(got, want, "case {case}: scal");

        // iamax: first index of the max |x[i]| ⇒ exact.
        let want = x
            .iter()
            .enumerate()
            .fold(None::<(usize, f64)>, |best, (i, &v)| match best {
                Some((_, m)) if v.abs() <= m => best,
                _ => Some((i, v.abs())),
            })
            .map(|(i, _)| i);
        assert_eq!(blas1::iamax(&x), want, "case {case}: iamax");

        // copy / swap are data movement ⇒ exact.
        let mut dst = vec![0.0; n];
        blas1::copy(&x, &mut dst);
        assert_eq!(dst, x, "case {case}: copy");
        let (mut a2, mut b2) = (x.clone(), y.clone());
        blas1::swap(&mut a2, &mut b2);
        assert!(a2 == y && b2 == x, "case {case}: swap");
    }
}

#[test]
fn blas1_f32_agrees_with_promoted_f64_reference() {
    // The f32 instantiations, checked against the same naive references
    // evaluated in f64 on promoted inputs: the f32 result must land within
    // an f32-epsilon band of the promoted truth.
    let mut rng = Rng64::seed_from_u64(0xF3201);
    for case in 0..CASES {
        let n = rng.range_usize(0, 33);
        let x32: Vec<f32> = (0..n).map(|_| rng.range_f64(-1.0, 1.0) as f32).collect();
        let y32: Vec<f32> = (0..n).map(|_| rng.range_f64(-1.0, 1.0) as f32).collect();
        let x64: Vec<f64> = x32.iter().map(|&v| f64::from(v)).collect();
        let y64: Vec<f64> = y32.iter().map(|&v| f64::from(v)).collect();
        let tol = f64::from(f32::EPSILON) * (n as f64 + 1.0) * 4.0;

        let dref: f64 = x64.iter().zip(&y64).map(|(&a, &b)| a * b).sum();
        assert!(
            (f64::from(blas1::dot(&x32, &y32)) - dref).abs() <= tol,
            "case {case}: f32 dot drifted past promoted reference"
        );
        assert!(
            (f64::from(blas1::asum(&x32)) - x64.iter().map(|v| v.abs()).sum::<f64>()).abs() <= tol,
            "case {case}: f32 asum drifted past promoted reference"
        );
        // iamax must agree exactly: promotion preserves |·| ordering.
        let want = blas1::iamax(&x64);
        assert_eq!(blas1::iamax(&x32), want, "case {case}: f32 iamax index");
    }
}

// ---------------------------------------------------------------------
// Differential tests: blas2.rs vs naive references
// ---------------------------------------------------------------------

/// Naive `y ← α·op(A)·x + β·y` reference, plain double loop, no FMA.
fn gemv_ref(
    alpha: f64,
    a: &Mat<f64>,
    x: &[f64],
    beta: f64,
    y: &[f64],
    transposed: bool,
) -> Vec<f64> {
    let (out_len, in_len) = if transposed { (a.cols(), a.rows()) } else { (a.rows(), a.cols()) };
    assert_eq!(x.len(), in_len);
    assert_eq!(y.len(), out_len);
    (0..out_len)
        .map(|i| {
            let mut acc = 0.0;
            for j in 0..in_len {
                let aij = if transposed { a[(j, i)] } else { a[(i, j)] };
                acc += aij * x[j];
            }
            alpha * acc + beta * y[i]
        })
        .collect()
}

#[test]
fn blas2_matches_naive_references() {
    let mut rng = Rng64::seed_from_u64(0xB2A5);
    for case in 0..CASES {
        let m = rng.range_usize(1, 17);
        let n = rng.range_usize(1, 17);
        let a = gen_mat(&mut rng, m, n);
        let alpha = rng.range_f64(-2.0, 2.0);
        let beta = rng.range_f64(-2.0, 2.0);
        let tol = 1e-12 * (m.max(n) as f64 + 1.0);

        // gemv
        let x = gen_vec(&mut rng, n);
        let y0 = gen_vec(&mut rng, m);
        let mut got = y0.clone();
        blas2::gemv(alpha, &a, &x, beta, &mut got);
        let want = gemv_ref(alpha, &a, &x, beta, &y0, false);
        assert!(max_abs_diff(&got, &want) <= tol, "case {case}: gemv vs naive");

        // gemv_t ≡ gemv on Aᵀ
        let xt = gen_vec(&mut rng, m);
        let yt0 = gen_vec(&mut rng, n);
        let mut got = yt0.clone();
        blas2::gemv_t(alpha, &a, &xt, beta, &mut got);
        let want = gemv_ref(alpha, &a, &xt, beta, &yt0, true);
        assert!(max_abs_diff(&got, &want) <= tol, "case {case}: gemv_t vs naive");

        // ger: A + α·x·yᵀ elementwise.
        let gx = gen_vec(&mut rng, m);
        let gy = gen_vec(&mut rng, n);
        let mut got_m = a.clone();
        blas2::ger(alpha, &gx, &gy, &mut got_m);
        let want_m = Mat::from_fn(m, n, |i, j| alpha * gx[i] * gy[j] + a[(i, j)]);
        assert!(fro_diff(&got_m, &want_m) <= tol, "case {case}: ger vs naive");

        // symv_lower: materialize the symmetric matrix from the lower
        // triangle and run the naive gemv on it.
        let s = gen_mat(&mut rng, n, n);
        let full = Mat::from_fn(n, n, |i, j| if i >= j { s[(i, j)] } else { s[(j, i)] });
        let sx = gen_vec(&mut rng, n);
        let sy0 = gen_vec(&mut rng, n);
        let mut got = sy0.clone();
        blas2::symv_lower(alpha, &s, &sx, beta, &mut got);
        let want = gemv_ref(alpha, &full, &sx, beta, &sy0, false);
        assert!(max_abs_diff(&got, &want) <= tol, "case {case}: symv_lower vs naive");
    }
}

#[test]
fn trsv_inverts_triangular_products() {
    // Round trip: build a well-conditioned triangular L, form b = L·x by
    // the naive product, and require trsv to recover x in every
    // triangle/diag mode.
    let mut rng = Rng64::seed_from_u64(0x7251);
    for case in 0..CASES {
        let n = rng.range_usize(1, 17);
        let x_true = gen_vec(&mut rng, n);
        for (tri, unit) in [
            (Triangle::Lower, false),
            (Triangle::Lower, true),
            (Triangle::Upper, false),
            (Triangle::Upper, true),
        ] {
            let a = Mat::from_fn(n, n, |i, j| {
                let in_tri = match tri {
                    Triangle::Lower => i >= j,
                    Triangle::Upper => i <= j,
                };
                if i == j {
                    // Diagonal bounded away from 0 (ignored when unit).
                    2.0 + rng.range_f64(0.0, 1.0)
                } else if in_tri {
                    rng.range_f64(-0.5, 0.5)
                } else {
                    rng.range_f64(-10.0, 10.0) // junk: must never be read
                }
            });
            let mut b = vec![0.0; n];
            for i in 0..n {
                let mut acc = 0.0;
                for j in 0..n {
                    let in_tri = match tri {
                        Triangle::Lower => i >= j,
                        Triangle::Upper => i <= j,
                    };
                    let aij = if i == j && unit {
                        1.0
                    } else if in_tri {
                        a[(i, j)]
                    } else {
                        0.0
                    };
                    acc += aij * x_true[j];
                }
                b[i] = acc;
            }
            let mut x = b.clone();
            blas2::trsv(tri, unit, &a, &mut x);
            let tol = 1e-10 * (n as f64 + 1.0);
            let err = max_abs_diff(&x, &x_true);
            assert!(err <= tol, "case {case} ({tri:?}, unit={unit}, n={n}): err {err:e} > {tol:e}");
        }
    }
}

#[test]
fn blas2_f32_agrees_with_promoted_f64_reference() {
    let mut rng = Rng64::seed_from_u64(0xF3202);
    for case in 0..CASES {
        let m = rng.range_usize(1, 13);
        let n = rng.range_usize(1, 13);
        let a32 = Mat::<f32>::from_fn(m, n, |_, _| rng.range_f64(-1.0, 1.0) as f32);
        let x32: Vec<f32> = (0..n).map(|_| rng.range_f64(-1.0, 1.0) as f32).collect();
        let y32: Vec<f32> = (0..m).map(|_| rng.range_f64(-1.0, 1.0) as f32).collect();
        let a64 = a32.map(|v| f64::from(v));
        let x64: Vec<f64> = x32.iter().map(|&v| f64::from(v)).collect();
        let y64: Vec<f64> = y32.iter().map(|&v| f64::from(v)).collect();

        let mut got = y32.clone();
        blas2::gemv(1.5f32, &a32, &x32, -0.5f32, &mut got);
        let want = gemv_ref(1.5, &a64, &x64, -0.5, &y64, false);
        let tol = f64::from(f32::EPSILON) * (n as f64 + 2.0) * 8.0;
        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (f64::from(g) - w).abs() <= tol,
                "case {case}: f32 gemv[{i}] = {g} vs promoted {w}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Differential tests: mixed.rs — the f32→f64 promotion path
// ---------------------------------------------------------------------

#[test]
fn ir_solve_f32_factorization_recovers_f64_accuracy() {
    // The whole point of mixed-precision iterative refinement: an f32
    // (matrix-engine-grade) factorization plus f64 residual promotion must
    // beat the raw f32 solve by orders of magnitude and land at f64-level
    // accuracy on a well-conditioned system.
    let mut rng = Rng64::seed_from_u64(0x1F32);
    for case in 0..8 {
        let n = rng.range_usize(4, 25);
        let mut a = gen_mat(&mut rng, n, n);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let x_true = gen_vec(&mut rng, n);
        let mut b = vec![0.0; n];
        blas2::gemv(1.0, &a, &x_true, 0.0, &mut b);

        let ir = ir_solve(&a, &b, FloatFormat::F32, 1e-14, 60).expect("ir_solve must factorize");
        assert!(ir.converged, "case {case} (n={n}): refinement did not converge");
        assert!(ir.iterations >= 1, "case {case}: promotion loop never ran");
        let err = max_abs_diff(&ir.x, &x_true);
        assert!(err <= 1e-10, "case {case} (n={n}): refined error {err:e} not f64-grade");

        // Raw f32 solve for comparison: quantize, factorize, back-solve —
        // no refinement. Promotion must win decisively.
        let mut lu32 = a.map(|v| FloatFormat::F32.quantize(v));
        let piv = getrf(&mut lu32).expect("f32 LU must not break down");
        let mut x32 = b.clone();
        getrs(&lu32, &piv, &mut x32);
        let raw_err = max_abs_diff(&x32, &x_true).max(f64::from(f32::EPSILON) * 1e-4);
        assert!(
            err < raw_err,
            "case {case} (n={n}): refined {err:e} not better than raw f32 {raw_err:e}"
        );
    }
}

#[test]
fn ir_solve_residual_field_matches_recomputed_residual() {
    // Differential check on the *reported* diagnostics: `IrResult.residual`
    // must equal an independently computed ‖b − A·x‖∞ (the naive f64
    // reference), so the convergence claim is not self-certified.
    let mut rng = Rng64::seed_from_u64(0x1F33);
    let n = 16;
    let mut a = gen_mat(&mut rng, n, n);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    let b = gen_vec(&mut rng, n);
    let ir = ir_solve(&a, &b, FloatFormat::F32, 1e-12, 40).expect("solve");
    let mut ax = vec![0.0; n];
    blas2::gemv(1.0, &a, &ir.x, 0.0, &mut ax);
    let recomputed = b.iter().zip(&ax).map(|(&bi, &axi)| (bi - axi).abs()).fold(0.0, f64::max);
    // Same quantity up to the rounding of the two evaluation orders.
    assert!(
        (ir.residual - recomputed).abs() <= 1e-12 * (1.0 + recomputed),
        "reported residual {:e} vs recomputed {recomputed:e}",
        ir.residual
    );
}
