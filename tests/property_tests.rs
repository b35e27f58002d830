//! Generative (property-based) tests on the core numerical invariants.
//!
//! A hand-rolled harness replaces the external proptest dependency: each
//! property runs a fixed number of cases drawn from a seeded [`Rng64`], so
//! the suite is deterministic, offline, and reproducible — failures print
//! the case index and inputs, which together with the fixed seed make any
//! counterexample replayable. No shrinking; the generators keep inputs
//! small enough to read directly.

use matrix_engines::prelude::*;
use me_numerics::Rng64;
use me_ozaki::gemm::reference_gemm;

/// Cases per property (proptest's default is 256).
const CASES: usize = 256;

/// A "finite f64" generator mixing magnitudes and exact special values,
/// mirroring the old `finite_f64()` strategy.
fn finite_f64(rng: &mut Rng64) -> f64 {
    match rng.range_usize(0, 6) {
        0 => rng.range_f64(-1e12, 1e12),
        1 => rng.range_f64(-1.0, 1.0),
        2 => rng.range_f64(-1e-12, 1e-12),
        3 => 0.0,
        4 => 1.0,
        _ => -0.5,
    }
}

/// Deterministic matrix filled from the generator.
fn gen_mat(rng: &mut Rng64, rows: usize, cols: usize, scale: f64) -> Mat<f64> {
    Mat::from_fn(rows, cols, |_, _| rng.range_f64(-0.5, 0.5) * scale)
}

#[test]
fn format_quantize_idempotent() {
    // Quantizing to a format is idempotent.
    let mut rng = Rng64::seed_from_u64(0xF0F0);
    for case in 0..CASES {
        let x = finite_f64(&mut rng);
        for fmt in [FloatFormat::F16, FloatFormat::BF16, FloatFormat::TF32, FloatFormat::F32] {
            let q = fmt.quantize(x);
            if q.is_finite() {
                assert_eq!(fmt.quantize(q), q, "case {case}: double quantize differs for {x}");
            }
        }
    }
}

#[test]
fn format_quantize_error_bounded() {
    // Quantization error is bounded by half an ulp of the format (normal
    // range) — RNE's defining property.
    let mut rng = Rng64::seed_from_u64(0xBEEF);
    for case in 0..CASES {
        let x = rng.range_f64(1e-3, 1e3);
        let fmt = FloatFormat::F16;
        let q = fmt.quantize(x);
        assert!(q.is_finite(), "case {case}: quantize({x}) not finite");
        // ulp at |x| is at most 2^(floor(log2 x) - sig_bits).
        let e = x.abs().log2().floor() as i32;
        let ulp = (2.0f64).powi(e - fmt.sig_bits as i32);
        assert!(
            (q - x).abs() <= ulp / 2.0 + f64::EPSILON * x.abs(),
            "case {case}: error for {x} exceeds half an ulp"
        );
    }
}

#[test]
fn two_sum_exactness() {
    // TwoSum is exact: (s, e) represents a+b without error.
    let mut rng = Rng64::seed_from_u64(0x2507);
    for case in 0..CASES {
        let a = rng.range_f64(-1e6, 1e6);
        let b = rng.range_f64(-1e6, 1e6);
        let (s, e) = matrix_engines::numerics::eft::two_sum(a, b);
        assert_eq!(s, a + b, "case {case}: s != fl(a+b) for {a}, {b}");
        // Reconstruct with double-double: adding s and e into an accumulator
        // and subtracting a and b must give exactly 0.
        let mut acc = matrix_engines::numerics::Accumulator::new();
        acc.add(s);
        acc.add(e);
        acc.add(-a);
        acc.add(-b);
        assert_eq!(acc.value(), 0.0, "case {case}: residual nonzero for {a}, {b}");
    }
}

#[test]
fn reproducible_sum_permutation_invariant() {
    // The reproducible sum is rotation-invariant bit-for-bit.
    let mut rng = Rng64::seed_from_u64(0x5EED);
    for case in 0..CASES {
        let len = rng.range_usize(0, 40);
        let mut xs: Vec<f64> = (0..len).map(|_| finite_f64(&mut rng)).collect();
        let a = matrix_engines::numerics::reproducible_sum(&xs);
        if !xs.is_empty() {
            let r = rng.range_usize(0, xs.len());
            xs.rotate_left(r);
        }
        let b = matrix_engines::numerics::reproducible_sum(&xs);
        assert_eq!(a.to_bits(), b.to_bits(), "case {case}: rotation changed the sum bits");
    }
}

#[test]
fn gemm_variants_agree() {
    // GEMM algebra: all four implementations agree within accumulation
    // tolerance on random matrices.
    let mut rng = Rng64::seed_from_u64(0x6E33);
    for case in 0..CASES {
        let m = rng.range_usize(1, 12);
        let k = rng.range_usize(1, 12);
        let n = rng.range_usize(1, 12);
        let a = gen_mat(&mut rng, m, k, 1.0);
        let b = gen_mat(&mut rng, k, n, 1.0);
        let mut c0 = Mat::zeros(m, n);
        matrix_engines::linalg::gemm_naive(1.0, &a, &b, 0.0, &mut c0);
        for algo in [GemmAlgo::Blocked, GemmAlgo::Tiled, GemmAlgo::Parallel] {
            let mut c = Mat::zeros(m, n);
            gemm(algo, 1.0, &a, &b, 0.0, &mut c);
            assert!(c.max_abs_diff(&c0) < 1e-12, "case {case}: {algo:?} deviates on {m}x{k}x{n}");
        }
    }
}

#[test]
fn parallel_gemm_bitwise_matches_tiled() {
    // The fixed-kernel guarantee: Parallel runs the same packed
    // micro-kernel as Tiled on zero-copy row panels, so the results are
    // bit-identical for every shape and thread count — including ragged
    // splits (m % threads != 0), m < threads, and n = 1.
    let mut rng = Rng64::seed_from_u64(0xBA11E7);
    for case in 0..CASES {
        let m = rng.range_usize(1, 40);
        let k = rng.range_usize(1, 24);
        let n = rng.range_usize(1, 16);
        let threads = rng.range_usize(1, 9);
        let a = gen_mat(&mut rng, m, k, 1.0);
        let b = gen_mat(&mut rng, k, n, 1.0);
        let c0 = gen_mat(&mut rng, m, n, 1.0);
        let mut c_tiled = c0.clone();
        gemm(GemmAlgo::Tiled, 1.5, &a, &b, -0.25, &mut c_tiled);
        let mut c_par = c0.clone();
        matrix_engines::linalg::gemm_parallel(1.5, &a, &b, -0.25, &mut c_par, threads);
        for (x, y) in c_par.as_slice().iter().zip(c_tiled.as_slice()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "case {case}: {m}x{k}x{n} threads={threads} differs bitwise"
            );
        }
    }
}

#[test]
fn lu_residual_passes() {
    // LU solve: the HPL residual passes the TOP500 threshold for random
    // diagonally-dominant systems.
    let mut rng = Rng64::seed_from_u64(0x1001);
    for case in 0..CASES {
        let n = rng.range_usize(1, 24);
        let a = {
            let mut m = gen_mat(&mut rng, n, n, 1.0 / n as f64);
            for i in 0..n {
                m[(i, i)] = 4.0 + rng.range_f64(-0.5, 0.5);
            }
            m
        };
        let b: Vec<f64> = (0..n).map(|_| rng.range_f64(-0.5, 0.5)).collect();
        let x = matrix_engines::linalg::hpl_solve(&a, &b).expect("dominant system must solve");
        let r = matrix_engines::linalg::hpl_residual(&a, &x, &b);
        assert!(r < 16.0, "case {case}: residual {r} fails HPL threshold at n={n}");
    }
}

#[test]
fn ozaki_split_reconstructs() {
    // Ozaki split: reconstruction is exact for any input, any beta.
    let mut rng = Rng64::seed_from_u64(0x02A5);
    for case in 0..CASES {
        let rows = rng.range_usize(1, 6);
        let cols = rng.range_usize(1, 6);
        let beta = rng.range_usize(3, 12) as u32;
        let decades = rng.range_usize(0, 12) as i32;
        let a = Mat::from_fn(rows, cols, |_, _| {
            let d = rng.range_usize(0, decades.max(1) as usize + 1) as i32;
            rng.range_f64(-0.5, 0.5) * (10.0f64).powi(d)
        });
        let s = matrix_engines::ozaki::split_rows(&a, beta, 256);
        assert!(s.complete, "case {case}: split incomplete at beta={beta}");
        assert_eq!(s.reconstruct(), a, "case {case}: reconstruction differs at beta={beta}");
    }
}

#[test]
fn ozaki_gemm_accuracy() {
    // Ozaki GEMM at DGEMM-equivalent accuracy stays within 1e-12 relative
    // of the doubled-precision reference for moderate-range inputs.
    let mut rng = Rng64::seed_from_u64(0xACC0);
    for case in 0..CASES / 2 {
        let m = rng.range_usize(1, 8);
        let k = rng.range_usize(1, 10);
        let n = rng.range_usize(1, 8);
        let a = gen_mat(&mut rng, m, k, 100.0);
        let b = gen_mat(&mut rng, k, n, 100.0);
        let r = ozaki_gemm(&a, &b, &OzakiConfig::dgemm_tc());
        let c_ref = reference_gemm(&a, &b);
        let err = matrix_engines::numerics::max_rel_err(r.c.as_slice(), c_ref.as_slice());
        assert!(err < 1e-12, "case {case}: err {err} on {m}x{k}x{n}");
    }
}

#[test]
fn node_hour_model_bounds() {
    // Node-hour model: reduction is within [0, 1] and monotone in speedup,
    // for arbitrary mixes.
    let mut rng = Rng64::seed_from_u64(0x40DE);
    for case in 0..CASES {
        let count = rng.range_usize(2, 6);
        let shares: Vec<f64> = (0..count).map(|_| rng.range_f64(0.01, 1.0)).collect();
        let fracs: Vec<f64> = (0..6).map(|_| rng.next_f64()).collect();
        let total: f64 = shares.iter().sum();
        let entries: Vec<me_model::MixEntry> = shares
            .iter()
            .enumerate()
            .map(|(i, &sh)| me_model::MixEntry {
                domain: format!("d{i}"),
                representative: "r".into(),
                share: sh / total,
                accelerable: fracs[i % fracs.len()],
            })
            .collect();
        let m = me_model::MachineMix::new("prop", entries);
        let s1 = rng.range_f64(1.0, 100.0);
        let s2 = rng.range_f64(1.0, 100.0);
        let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
        let r_lo = m.node_hour_reduction(MeSpeedup::Finite(lo));
        let r_hi = m.node_hour_reduction(MeSpeedup::Finite(hi));
        let r_inf = m.node_hour_reduction(MeSpeedup::Infinite);
        assert!(
            r_lo >= 0.0 && r_lo <= r_hi + 1e-15 && r_hi <= r_inf + 1e-15,
            "case {case}: reduction not monotone ({r_lo}, {r_hi}, {r_inf})"
        );
        assert!(r_inf <= 1.0, "case {case}: infinite-speedup reduction {r_inf} > 1");
    }
}

#[test]
fn profile_fractions_sum() {
    // Profiler fractions always sum to ~1 for nonempty profiles.
    let mut rng = Rng64::seed_from_u64(0xF4AC);
    for case in 0..CASES {
        let p = Profiler::new();
        let classes = [
            RegionClass::Gemm,
            RegionClass::BlasL1,
            RegionClass::Lapack,
            RegionClass::Other,
            RegionClass::InitPost,
        ];
        let count = rng.range_usize(1, 20);
        for i in 0..count {
            p.record(classes[i % classes.len()], &format!("r{i}"), rng.range_f64(0.001, 100.0));
        }
        let prof = p.profile();
        let f = prof.fig3_fractions();
        if prof.total_included() > 0.0 {
            assert!((f.sum() - 1.0).abs() < 1e-9, "case {case}: fractions sum to {}", f.sum());
        }
    }
}
