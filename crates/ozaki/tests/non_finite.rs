//! Non-finite and top-binade inputs.
//!
//! An infinity, a NaN, or a top-binade element whose first slice rounds
//! up to `2^1024` poisons its line: the split stops there, every output
//! in that row of A (or column of B) is NaN rather than a wrong finite
//! number, and every other output keeps the bits of the same product with
//! the element made finite. Each call returns as fast as a finite one —
//! the old `log2`-based exponent search stepped ~2^31 times on these.

use std::time::{Duration, Instant};

use me_engine::systolic::SystolicArray;
use me_linalg::Mat;
use me_ozaki::perf::ranged_matrix;
use me_ozaki::{
    ozaki_dot, ozaki_gemm_backend, ozaki_gemm_systolic, ozaki_gemv, split_cols, split_rows,
    OzakiBackend, OzakiConfig,
};

const BAD: [f64; 4] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MAX];

fn backends() -> [OzakiBackend; 3] {
    [OzakiBackend::dgemm_tc(), OzakiBackend::host_int8(), OzakiBackend::host_f16()]
}

/// Run `f` and check it finished well inside a second.
fn quick<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    assert!(t.elapsed() < Duration::from_secs(1), "{label}: took {:?}", t.elapsed());
    out
}

/// `bad` and `good` differ only in rows `rows` and columns `cols` of the
/// product: those outputs are NaN in `bad`, the rest bitwise equal.
fn assert_poisoned(bad: &Mat<f64>, good: &Mat<f64>, rows: &[usize], cols: &[usize], label: &str) {
    for i in 0..bad.rows() {
        for j in 0..bad.cols() {
            if rows.contains(&i) || cols.contains(&j) {
                assert!(bad[(i, j)].is_nan(), "{label}: ({i},{j}) = {}", bad[(i, j)]);
            } else {
                assert_eq!(bad[(i, j)].to_bits(), good[(i, j)].to_bits(), "{label}: ({i},{j})");
            }
        }
    }
}

#[test]
fn non_finite_element_in_a_poisons_its_row_only() {
    let b = ranged_matrix(4, 4, 8.0, 2);
    for v in BAD {
        let good = ranged_matrix(4, 4, 8.0, 1);
        let mut a = good.clone();
        a[(1, 2)] = v;
        for be in backends() {
            let label = format!("{} A[1][2] = {v:e}", be.label());
            let r = quick(&label, || ozaki_gemm_backend(&a, &b, &be));
            let want = ozaki_gemm_backend(&good, &b, &be);
            assert_poisoned(&r.c, &want.c, &[1], &[], &label);
            assert!(!r.split_exact, "{label}: a poisoned split is not exact");
        }
    }
}

#[test]
fn non_finite_element_in_b_poisons_its_column_only() {
    let a = ranged_matrix(4, 4, 8.0, 3);
    for v in BAD {
        let good = ranged_matrix(4, 4, 8.0, 4);
        let mut b = good.clone();
        b[(2, 3)] = -v;
        for be in backends() {
            let label = format!("{} B[2][3] = {:e}", be.label(), -v);
            let r = quick(&label, || ozaki_gemm_backend(&a, &b, &be));
            let want = ozaki_gemm_backend(&a, &good, &be);
            assert_poisoned(&r.c, &want.c, &[], &[3], &label);
        }
    }
}

#[test]
fn top_binade_without_overflow_keeps_finite_results() {
    // 1.5 · 2^1023 sits on every slice grid of its line: no slice rounds
    // up to 2^1024, so the line is split as usual and the product against
    // 2^-100 is exact.
    let mut a = Mat::zeros(2, 3);
    a[(0, 0)] = 1.5 * 2f64.powi(1023);
    a[(1, 1)] = 3.0;
    let mut b = Mat::zeros(3, 2);
    b[(0, 0)] = 2f64.powi(-100);
    b[(1, 1)] = 0.5;
    for be in backends() {
        let r = quick(be.label(), || ozaki_gemm_backend(&a, &b, &be));
        assert_eq!(r.c[(0, 0)], 1.5 * 2f64.powi(923), "{}", be.label());
        assert_eq!(r.c[(1, 1)], 1.5, "{}", be.label());
    }
}

#[test]
fn dot_gemv_and_systolic_poison_the_same_outputs() {
    let cfg = OzakiConfig::dgemm_tc();
    let good = ranged_matrix(3, 5, 6.0, 5);
    let x: Vec<f64> = ranged_matrix(1, 5, 6.0, 6).as_slice().to_vec();
    for v in BAD {
        let mut a = good.clone();
        a[(2, 4)] = v;
        let y = quick("gemv", || ozaki_gemv(&a, &x, &cfg));
        let want = ozaki_gemv(&good, &x, &cfg);
        assert!(y[2].is_nan(), "gemv row 2 with {v:e}");
        assert_eq!(
            y[..2].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want[..2].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(quick("dot", || ozaki_dot(a.row(2), &x, &cfg)).is_nan(), "dot with {v:e}");
        assert!(ozaki_dot(&x, a.row(2), &cfg).is_nan(), "dot with {v:e} on the right");

        let b = ranged_matrix(5, 2, 6.0, 7);
        let sys =
            quick("systolic", || ozaki_gemm_systolic(&a, &b, &cfg, &SystolicArray::tensor_core()));
        let sys_good = ozaki_gemm_systolic(&good, &b, &cfg, &SystolicArray::tensor_core());
        assert_poisoned(&sys.report.c, &sys_good.report.c, &[2], &[], "systolic");
    }
}

#[test]
fn split_marks_poisoned_lines_nan_and_incomplete() {
    for v in BAD {
        let mut a = ranged_matrix(3, 4, 4.0, 8);
        a[(1, 0)] = v;
        let s = quick("split_rows", || split_rows(&a, 5, 64));
        assert!(!s.complete);
        assert!(s.slices[0].row(1).iter().all(|x| x.is_nan()), "row 1 of slice 0 with {v:e}");
        assert!(s.reconstruct().row(0).iter().all(|x| x.is_finite()));
        let c = quick("split_cols", || split_cols(&a, 5, 64));
        assert!((0..3).all(|i| c.slices[0][(i, 0)].is_nan()), "column 0 of slice 0 with {v:e}");
        // A line of nothing but the bad element still yields its NaN slice.
        let lone = Mat::from_vec(1, 1, vec![v]);
        let s = split_rows(&lone, 5, 64);
        assert_eq!(s.len(), 1);
        assert!(s.slices[0][(0, 0)].is_nan());
    }
}
