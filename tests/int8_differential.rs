//! Cross-variant differential testing of the INT8 Ozaki GEMM — the
//! integer sibling of `kernel_differential.rs`.
//!
//! The INT8 path claims (a) every kernel variant — the 8×32 AVX-512 VNNI
//! `vpdpbusd` tile, the same tile on AVX2 `vpmaddwd`, and the scalar
//! tile — produces **bitwise identical** results, serial and at any
//! thread count, because every engine call returns the exact i32 chunk
//! dot and the recombination order is fixed; and (b) the
//! result is DGEMM-grade accurate against the f64 reference. Enforced
//! over:
//!
//! - the `kernel_differential` shape grid m/k/n ∈ {0, 1, MR−1, MR+1,
//!   NR−1, NR+1, 63, 64, 257} — degenerate dims, sub-tile shapes, both
//!   micro-tile edges, and a multi-block size with ragged edges;
//! - slice configurations cycled across the grid (default β = 6
//!   schedule, k_block = 32 chunking, SGEMM-equivalent target — large
//!   shapes use the cheaper SGEMM schedule to keep debug runtime sane);
//! - every host-supported variant against the scalar serial reference,
//!   with thread counts {1, 2, 8} cycled across the grid and crossed in
//!   full on a focused subset;
//! - first-mismatch (i, j, bits) reporting, as in the f64 harness.

use matrix_engines::linalg::{available_variants, KernelVariant, Mat};
use matrix_engines::ozaki::gemm::reference_gemm;
use matrix_engines::ozaki::gemm::ozaki_gemm_on;
use matrix_engines::ozaki::int8::Int8Engine;
use matrix_engines::ozaki::TargetAccuracy;
use matrix_engines::par::WorkerPool;
use me_numerics::Rng64;

const MR: usize = me_linalg::blas3::MR;
const NR: usize = me_linalg::blas3::NR;

/// Same grid as the f64 kernel differential harness.
const DIMS: [usize; 9] = [0, 1, MR - 1, MR + 1, NR - 1, NR + 1, 63, 64, 257];

/// Thread counts cycled over the grid (the acceptance criterion's set).
const THREADS: [usize; 3] = [1, 2, 8];

/// Matrix entries over a few decades of magnitude, salted with exact
/// zeros of both signs. (Subnormal/extreme-exponent torture lives in the
/// slicing property tests; here moderate ranges keep the relative
/// accuracy envelope meaningful.)
fn gen_mat(rng: &mut Rng64, rows: usize, cols: usize) -> Mat<f64> {
    Mat::from_fn(rows, cols, |_, _| match rng.range_usize(0, 16) {
        0 => 0.0,
        1 => -0.0,
        _ => {
            let mag = 10f64.powf(rng.range_f64(-2.0, 2.0));
            rng.range_f64(-1.0, 1.0) * mag
        }
    })
}

/// Panic with the first mismatching (i, j, bits) triple.
fn assert_bitwise(label: &str, got: &Mat<f64>, want: &Mat<f64>) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape mismatch");
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            let (g, w) = (got[(i, j)], want[(i, j)]);
            assert!(
                g.to_bits() == w.to_bits(),
                "{label}: first mismatch at (i={i}, j={j}): \
                 got bits {:#018x} ({g:e}), want bits {:#018x} ({w:e})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }
}

/// Componentwise accuracy envelope: |c − ref| ≤ tol · Σ_p |a_ip||b_pj|,
/// bounded above by tol · ‖a_i‖₁ · max_p |b_pj| — the backward-error
/// shape that stays meaningful where random signs cancel.
fn assert_accurate(label: &str, c: &Mat<f64>, c_ref: &Mat<f64>, a: &Mat<f64>, b: &Mat<f64>, tol: f64) {
    let (m, n) = c.shape();
    let k = a.cols();
    let a_norm: Vec<f64> = (0..m).map(|i| (0..k).map(|p| a[(i, p)].abs()).sum()).collect();
    let b_max: Vec<f64> =
        (0..n).map(|j| (0..k).fold(0.0f64, |mx, p| mx.max(b[(p, j)].abs()))).collect();
    for i in 0..m {
        for j in 0..n {
            let err = (c[(i, j)] - c_ref[(i, j)]).abs();
            let bound = tol * a_norm[i] * b_max[j];
            assert!(
                err <= bound,
                "{label}: (i={i}, j={j}) err {err:e} exceeds {bound:e} \
                 (got {:e}, want {:e})",
                c[(i, j)],
                c_ref[(i, j)]
            );
        }
    }
}

/// The slice configurations cycled across the grid, with the accuracy
/// envelope tolerance each one must meet.
fn configs() -> [(Int8Engine, f64, &'static str); 3] {
    [
        (Int8Engine::default(), 1e-14, "dgemm"),
        (Int8Engine { k_block: 32, ..Int8Engine::default() }, 1e-14, "dgemm-kb32"),
        (Int8Engine::sgemm_equivalent(), 1e-6, "sgemm"),
    ]
}

/// The main gate: the full shape grid; per shape one cycled slice
/// config, variants bitwise against the scalar serial reference, thread
/// counts cycled across the grid.
///
/// Runtime tiering (the suite runs under the unoptimized test profile):
/// small shapes cross every variant; larger shapes cycle one variant and
/// use the cheaper SGEMM-equivalent schedule; the biggest use a
/// deliberately truncated split (max_slices = 2, ~12 represented bits,
/// so a wide but honest envelope) — the bitwise claim is
/// schedule-independent, so cheap schedules test it just as hard.
#[test]
fn int8_grid_variants_bitwise_and_accurate() {
    let variants = available_variants();
    let cfgs = configs();
    let truncated = (
        Int8Engine { max_slices: 2, ..Int8Engine::sgemm_equivalent() },
        5e-3,
        "sgemm-trunc2",
    );
    let mut cycle = 0usize;
    for &m in &DIMS {
        for &k in &DIMS {
            for &n in &DIMS {
                let vol = m * k * n;
                let (engine, tol, cname) = if vol > 600_000 {
                    &truncated
                } else if vol > 5_000 {
                    &cfgs[2]
                } else {
                    &cfgs[cycle % cfgs.len()]
                };
                let threads = THREADS[cycle % THREADS.len()];
                cycle += 1;
                let seed = 0x18d ^ ((m as u64) << 40 | (k as u64) << 20 | n as u64);
                let mut rng = Rng64::seed_from_u64(seed);
                let a = gen_mat(&mut rng, m, k);
                let b = gen_mat(&mut rng, k, n);

                let r_ref = ozaki_gemm_on(&a, &b, engine, KernelVariant::Scalar, None);
                let c_f64 = reference_gemm(&a, &b);
                assert_accurate(
                    &format!("{cname} m={m} k={k} n={n}"),
                    &r_ref.c,
                    &c_f64,
                    &a,
                    &b,
                    *tol,
                );

                if vol <= 5_000 {
                    // Small: every variant, serial + cycled-thread parallel.
                    for &v in &variants {
                        let r = ozaki_gemm_on(&a, &b, engine, v, None);
                        assert_bitwise(
                            &format!("{cname} {v} serial m={m} k={k} n={n}"),
                            &r.c,
                            &r_ref.c,
                        );
                        assert_eq!(r.engine_calls, r_ref.engine_calls, "{v} schedule drifted");
                        let rp = ozaki_gemm_on(&a, &b, engine, v, Some(&WorkerPool::new(threads)));
                        assert_bitwise(
                            &format!("{cname} {v} parallel(t={threads}) m={m} k={k} n={n}"),
                            &rp.c,
                            &r_ref.c,
                        );
                    }
                } else {
                    // Large: one cycled non-scalar variant serial; parallel
                    // on every other shape.
                    let v = variants[cycle % variants.len()];
                    let r = ozaki_gemm_on(&a, &b, engine, v, None);
                    assert_bitwise(
                        &format!("{cname} {v} serial m={m} k={k} n={n}"),
                        &r.c,
                        &r_ref.c,
                    );
                    assert_eq!(r.engine_calls, r_ref.engine_calls, "{v} schedule drifted");
                    if cycle % 2 == 0 {
                        let rp = ozaki_gemm_on(&a, &b, engine, v, Some(&WorkerPool::new(threads)));
                        assert_bitwise(
                            &format!("{cname} {v} parallel(t={threads}) m={m} k={k} n={n}"),
                            &rp.c,
                            &r_ref.c,
                        );
                    }
                }
            }
        }
    }
}

/// Full variants × threads × configs cross on a focused shape set: the
/// ragged multi-tile shapes where partition boundaries actually move
/// with the thread count.
#[test]
fn int8_full_cross_on_focused_shapes() {
    let variants = available_variants();
    for (m, k, n) in [(MR + 1, NR + 1, MR - 1), (NR + 1, 63, MR + 1), (13, 64, 9)] {
        let seed = 0xF0C ^ ((m as u64) << 32 | (k as u64) << 16 | n as u64);
        let mut rng = Rng64::seed_from_u64(seed);
        let a = gen_mat(&mut rng, m, k);
        let b = gen_mat(&mut rng, k, n);
        for (engine, _, cname) in &configs() {
            let r_ref = ozaki_gemm_on(&a, &b, engine, KernelVariant::Scalar, None);
            for &v in &variants {
                for &t in &THREADS {
                    let r = ozaki_gemm_on(&a, &b, engine, v, Some(&WorkerPool::new(t)));
                    assert_bitwise(
                        &format!("{cname} {v} t={t} m={m} k={k} n={n}"),
                        &r.c,
                        &r_ref.c,
                    );
                }
            }
        }
    }
}

/// The Exact target over the grid's degenerate and sub-tile shapes:
/// residual exhausted, and the result within 2 ulp of the f64 reference
/// elementwise (the double-double recombination's worst case).
#[test]
fn int8_exact_target_on_small_shapes() {
    let engine = Int8Engine { target: TargetAccuracy::Exact, ..Int8Engine::default() };
    let small: Vec<usize> = DIMS.iter().copied().filter(|&d| d <= NR + 1).collect();
    for &m in &small {
        for &k in &small {
            for &n in &small {
                let seed = 0xE5AC7 ^ ((m as u64) << 32 | (k as u64) << 16 | n as u64);
                let mut rng = Rng64::seed_from_u64(seed);
                let a = gen_mat(&mut rng, m, k);
                let b = gen_mat(&mut rng, k, n);
                let r = ozaki_gemm_on(&a, &b, &engine, KernelVariant::Scalar, None);
                assert!(r.split_exact, "m={m} k={k} n={n}: exact split must terminate");
                let c_ref = reference_gemm(&a, &b);
                for i in 0..m {
                    for j in 0..n {
                        let d = me_numerics::ulp_diff(r.c[(i, j)], c_ref[(i, j)]);
                        assert!(
                            d <= 2,
                            "m={m} k={k} n={n} (i={i}, j={j}): {} vs {} is {d} ulp",
                            r.c[(i, j)],
                            c_ref[(i, j)]
                        );
                    }
                }
            }
        }
    }
}
