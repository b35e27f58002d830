//! Cross-variant differential testing of the GEMM micro-kernels.
//!
//! The SIMD micro-kernel layer (`me_linalg::blas3::ukernel`) claims its
//! variants — scalar, AVX2+FMA and AVX-512F intrinsics — are
//! **bitwise identical** at every shape and thread count, because every
//! variant performs exactly one fused multiply-add per accumulator per k
//! step in ascending-k order. GEMMbench's argument (PAPERS.md) is that
//! kernel variants are only trustworthy under systematic cross-variant
//! differential testing, so this harness *enforces* the claim instead of
//! asserting it:
//!
//! - a shape grid m/n/k ∈ {0, 1, MR−1, MR+1, NR−1, NR+1, 63, 64, 257}
//!   covering empty dims, sub-tile shapes, both micro-tile edges, a KC-ish
//!   interior size, and a multi-block size with ragged edges everywhere;
//! - alpha/beta ∈ {0, 1, −1, 0.5} crossed in full on the small-shape
//!   subgrid (where the write-back edge cases live) and cycled
//!   deterministically across the rest of the grid;
//! - seeded matrices mixing magnitudes with special values: ±0,
//!   subnormals, and large-magnitude entries that force catastrophic
//!   cancellation in the accumulators;
//! - every available variant, serial and at thread counts {1, 2, 8},
//!   against the scalar serial reference.
//!
//! A mismatch fails with the first differing (i, j, bits) triple so the
//! exact rounding divergence is reproducible from the printed case.

use matrix_engines::linalg::{
    available_variants, avx512_supported, gemm_half_parallel_with, gemm_half_with,
    gemm_parallel_with, gemm_tiled_with, HalfKind, HalfMat, KernelVariant, Mat,
};
use me_numerics::Rng64;

/// Micro-tile height (rows) of the packed kernel.
const MR: usize = me_linalg::blas3::MR;
/// Micro-tile width (cols) of the packed kernel.
const NR: usize = me_linalg::blas3::NR;

/// The full dimension grid: degenerate, sub-tile, tile-edge ±1, one
/// KC-interior size, and one multi-MC/KC size that leaves ragged edges in
/// every blocking loop (257 = 4·64 + 1 = 32·8 + 1).
const DIMS: [usize; 9] = [0, 1, MR - 1, MR + 1, NR - 1, NR + 1, 63, 64, 257];

/// Scaling coefficients crossed over the grid.
const COEFFS: [f64; 4] = [0.0, 1.0, -1.0, 0.5];

/// Thread counts of the parallel sweep (the acceptance criterion's set).
const THREADS: [usize; 3] = [1, 2, 8];

/// Draw one matrix entry: mostly moderate values, salted with the special
/// values the bitwise contract has to survive — exact ±0 (sign of zero is
/// observable in `to_bits`), subnormals, and large-magnitude pairs that
/// cancel catastrophically against the moderate mass.
fn special_f64(rng: &mut Rng64) -> f64 {
    match rng.range_usize(0, 12) {
        0 => 0.0,
        1 => -0.0,
        // Subnormal range: min positive normal is ~2.2e-308.
        2 => f64::from_bits(rng.next_u64() & 0x000f_ffff_ffff_ffff),
        3 => -f64::from_bits(rng.next_u64() & 0x000f_ffff_ffff_ffff),
        // Large magnitude: adjacent products cancel to ~0 against these.
        4 => rng.range_f64(-1.0, 1.0) * 2f64.powi(50),
        5 => rng.range_f64(-1.0, 1.0) * 2f64.powi(-50),
        _ => rng.range_f64(-1.0, 1.0),
    }
}

fn gen_mat(rng: &mut Rng64, rows: usize, cols: usize) -> Mat<f64> {
    Mat::from_fn(rows, cols, |_, _| special_f64(rng))
}

/// Panic with the first mismatching (i, j, bits) triple.
fn assert_bitwise_f64(label: &str, got: &Mat<f64>, want: &Mat<f64>) {
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

fn assert_bitwise_f32(label: &str, got: &Mat<f32>, want: &Mat<f32>) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape mismatch");
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            let (g, w) = (got[(i, j)], want[(i, j)]);
            assert!(
                g.to_bits() == w.to_bits(),
                "{label}: first mismatch at (i={i}, j={j}): \
                 got bits {:#010x} ({g:e}), want bits {:#010x} ({w:e})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }
}

/// The main gate: every available variant, serial and at thread counts
/// {1, 2, 8}, over the full shape grid, against the scalar serial
/// reference. Each shape gets one (alpha, beta) combo, cycling through
/// the full 4×4 cross as the grid advances, so all 16 combos appear many
/// times across the grid.
#[test]
fn all_variants_bitwise_identical_across_shape_grid_and_threads() {
    let variants = available_variants();
    let mut combo = 0usize;
    for &m in &DIMS {
        for &k in &DIMS {
            for &n in &DIMS {
                let alpha = COEFFS[combo % COEFFS.len()];
                let beta = COEFFS[(combo / COEFFS.len()) % COEFFS.len()];
                combo += 1;
                let seed = (m as u64) << 40 | (k as u64) << 20 | n as u64;
                let mut rng = Rng64::seed_from_u64(seed);
                let a = gen_mat(&mut rng, m, k);
                let b = gen_mat(&mut rng, k, n);
                let c0 = gen_mat(&mut rng, m, n);

                let mut c_ref = c0.clone();
                gemm_tiled_with(KernelVariant::Scalar, alpha, &a, &b, beta, &mut c_ref);

                for &v in &variants {
                    let mut c = c0.clone();
                    gemm_tiled_with(v, alpha, &a, &b, beta, &mut c);
                    assert_bitwise_f64(
                        &format!("{v} serial m={m} k={k} n={n} alpha={alpha} beta={beta}"),
                        &c,
                        &c_ref,
                    );
                    for &t in &THREADS {
                        let mut c = c0.clone();
                        gemm_parallel_with(v, alpha, &a, &b, beta, &mut c, t);
                        assert_bitwise_f64(
                            &format!(
                                "{v} parallel(t={t}) m={m} k={k} n={n} alpha={alpha} beta={beta}"
                            ),
                            &c,
                            &c_ref,
                        );
                    }
                }
            }
        }
    }
}

/// The full 4×4 alpha/beta cross on the small-shape subgrid, serial, per
/// variant: alpha = 0 must skip the product exactly, beta = 0 must
/// overwrite (not multiply NaN-free zeros into) C, and the signed-zero /
/// subnormal entries must survive every combination identically.
#[test]
fn alpha_beta_cross_on_small_shapes() {
    let variants = available_variants();
    let small: Vec<usize> = DIMS.iter().copied().filter(|&d| d <= NR + 1).collect();
    for &m in &small {
        for &k in &small {
            for &n in &small {
                let seed = 0xC0FFEE ^ ((m as u64) << 32 | (k as u64) << 16 | n as u64);
                let mut rng = Rng64::seed_from_u64(seed);
                let a = gen_mat(&mut rng, m, k);
                let b = gen_mat(&mut rng, k, n);
                let c0 = gen_mat(&mut rng, m, n);
                for &alpha in &COEFFS {
                    for &beta in &COEFFS {
                        let mut c_ref = c0.clone();
                        gemm_tiled_with(KernelVariant::Scalar, alpha, &a, &b, beta, &mut c_ref);
                        for &v in &variants {
                            let mut c = c0.clone();
                            gemm_tiled_with(v, alpha, &a, &b, beta, &mut c);
                            assert_bitwise_f64(
                                &format!(
                                    "{v} m={m} k={k} n={n} alpha={alpha} beta={beta}"
                                ),
                                &c,
                                &c_ref,
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The f32 sibling kernels under the same contract, on a reduced grid
/// (f32 has the same FMA-ordering argument; 8 lanes instead of 2×4).
#[test]
fn f32_variants_bitwise_identical() {
    let variants = available_variants();
    let dims: [usize; 6] = [0, 1, MR + 1, NR - 1, NR + 1, 33];
    for &m in &dims {
        for &k in &dims {
            for &n in &dims {
                let seed = 0xF32 ^ ((m as u64) << 32 | (k as u64) << 16 | n as u64);
                let mut rng = Rng64::seed_from_u64(seed);
                let mut gen = |rows, cols| {
                    Mat::<f32>::from_fn(rows, cols, |_, _| match rng.range_usize(0, 8) {
                        0 => 0.0,
                        1 => -0.0,
                        2 => f32::from_bits((rng.next_u64() as u32) & 0x007f_ffff),
                        3 => (rng.range_f64(-1.0, 1.0) * 2f64.powi(20)) as f32,
                        _ => rng.range_f64(-1.0, 1.0) as f32,
                    })
                };
                let a = gen(m, k);
                let b = gen(k, n);
                let c0 = gen(m, n);
                let mut c_ref = c0.clone();
                gemm_tiled_with(KernelVariant::Scalar, 1.5f32, &a, &b, -0.5f32, &mut c_ref);
                for &v in &variants {
                    let mut c = c0.clone();
                    gemm_tiled_with(v, 1.5f32, &a, &b, -0.5f32, &mut c);
                    assert_bitwise_f32(&format!("{v} serial m={m} k={k} n={n}"), &c, &c_ref);
                    let mut c = c0.clone();
                    gemm_parallel_with(v, 1.5f32, &a, &b, -0.5f32, &mut c, 2);
                    assert_bitwise_f32(&format!("{v} parallel m={m} k={k} n={n}"), &c, &c_ref);
                }
            }
        }
    }
}

/// The grid above sweeps `available_variants()`, so AVX-512 coverage is
/// implicit on capable hosts and silently absent elsewhere. Make the
/// skip *visible*: on avx512f hosts the variant must be in the sweep; on
/// others this test prints a notice so a green run can't masquerade as
/// full coverage.
#[test]
fn avx512_is_swept_or_skip_is_announced() {
    let variants = available_variants();
    if avx512_supported() {
        assert!(
            variants.contains(&KernelVariant::Avx512),
            "host reports avx512f but the sweep omits Avx512"
        );
    } else {
        assert!(!variants.contains(&KernelVariant::Avx512));
        eprintln!(
            "notice: host lacks avx512f — kernel differential grid ran without \
             KernelVariant::Avx512 (covered variants: {variants:?})"
        );
    }
}

/// Draw one f32 entry representable widening-exactly enough to stress the
/// half paths: moderate values, signed zeros, and per-kind subnormal /
/// large-exponent salt. The *narrowing* is part of the path under test,
/// so the raw f64-ish draws are fine — both sides narrow identically.
fn gen_half(rng: &mut Rng64, kind: HalfKind, rows: usize, cols: usize) -> HalfMat {
    let m = Mat::<f32>::from_fn(rows, cols, |_, _| match rng.range_usize(0, 10) {
        0 => 0.0,
        1 => -0.0,
        // Below the f16 subnormal threshold for F16 (flushes through RNE),
        // in-range for bf16.
        2 => (rng.range_f64(-1.0, 1.0) * 2f64.powi(-20)) as f32,
        // Large enough to overflow f16 to ±inf on occasion — the widened
        // operands must still agree bitwise across variants.
        3 => (rng.range_f64(-1.0, 1.0) * 2f64.powi(17)) as f32,
        _ => rng.range_f64(-1.0, 1.0) as f32,
    });
    HalfMat::from_f32(kind, &m)
}

/// The half-precision compute path under the same §9 contract: both
/// storage kinds, every available variant, serial and parallel, against
/// the scalar serial reference, with first-mismatch (i, j, bits)
/// reporting. The widening pack is exact, so the bitwise-identity
/// argument is unchanged — this sweep enforces it on the real packed
/// `u16` layouts (ragged tiles, zero padding, strided A).
#[test]
fn half_variants_bitwise_identical_across_grid_and_threads() {
    let variants = available_variants();
    let dims: [usize; 6] = [0, 1, MR + 1, NR - 1, NR + 1, 33];
    for kind in [HalfKind::F16, HalfKind::Bf16] {
        for &m in &dims {
            for &k in &dims {
                for &n in &dims {
                    let seed = 0x7A1F ^ ((m as u64) << 32 | (k as u64) << 16 | n as u64);
                    let mut rng = Rng64::seed_from_u64(seed);
                    let a = gen_half(&mut rng, kind, m, k);
                    let b = gen_half(&mut rng, kind, k, n);
                    let c0 = Mat::<f32>::from_fn(m, n, |_, _| {
                        rng.range_f64(-1.0, 1.0) as f32
                    });
                    let mut c_ref = c0.clone();
                    gemm_half_with(KernelVariant::Scalar, 1.5f32, &a, &b, -0.5f32, &mut c_ref);
                    for &v in &variants {
                        let mut c = c0.clone();
                        gemm_half_with(v, 1.5f32, &a, &b, -0.5f32, &mut c);
                        assert_bitwise_f32(
                            &format!("{v} {kind} serial m={m} k={k} n={n}"),
                            &c,
                            &c_ref,
                        );
                        for &t in &THREADS {
                            let mut c = c0.clone();
                            gemm_half_parallel_with(v, 1.5f32, &a, &b, -0.5f32, &mut c, t);
                            assert_bitwise_f32(
                                &format!("{v} {kind} parallel(t={t}) m={m} k={k} n={n}"),
                                &c,
                                &c_ref,
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Alpha/beta write-back edges on the half path: the 4×4 coefficient
/// cross on sub-tile shapes, where beta = 0 overwrite and alpha = 0
/// product-skip live, per kind and variant.
#[test]
fn half_alpha_beta_cross_on_small_shapes() {
    let variants = available_variants();
    let coeffs: [f32; 4] = [0.0, 1.0, -1.0, 0.5];
    let small: [usize; 4] = [1, MR - 1, NR - 1, NR + 1];
    for kind in [HalfKind::F16, HalfKind::Bf16] {
        for &m in &small {
            for &k in &small {
                for &n in &small {
                    let seed = 0xBEEF ^ ((m as u64) << 32 | (k as u64) << 16 | n as u64);
                    let mut rng = Rng64::seed_from_u64(seed);
                    let a = gen_half(&mut rng, kind, m, k);
                    let b = gen_half(&mut rng, kind, k, n);
                    let c0 =
                        Mat::<f32>::from_fn(m, n, |_, _| rng.range_f64(-1.0, 1.0) as f32);
                    for &alpha in &coeffs {
                        for &beta in &coeffs {
                            let mut c_ref = c0.clone();
                            gemm_half_with(
                                KernelVariant::Scalar,
                                alpha,
                                &a,
                                &b,
                                beta,
                                &mut c_ref,
                            );
                            for &v in &variants {
                                let mut c = c0.clone();
                                gemm_half_with(v, alpha, &a, &b, beta, &mut c);
                                assert_bitwise_f32(
                                    &format!(
                                        "{v} {kind} m={m} k={k} n={n} alpha={alpha} beta={beta}"
                                    ),
                                    &c,
                                    &c_ref,
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The dispatch table's runtime override must steer the un-pinned public
/// entry points (`gemm`, `gemm_tiled`, …) without changing any result
/// bit. Runs in its own process-wide critical section: the override is
/// global state, so this test restores it before returning.
#[test]
fn runtime_override_steers_default_entry_points_bitwise_identically() {
    use matrix_engines::linalg::{gemm, set_kernel_override, GemmAlgo};
    let mut rng = Rng64::seed_from_u64(0xD15);
    let a = gen_mat(&mut rng, 65, 67);
    let b = gen_mat(&mut rng, 67, 33);
    let c0 = gen_mat(&mut rng, 65, 33);
    let mut c_ref = c0.clone();
    gemm_tiled_with(KernelVariant::Scalar, 2.0, &a, &b, 1.0, &mut c_ref);
    for v in available_variants() {
        set_kernel_override(Some(v));
        for algo in [GemmAlgo::Tiled, GemmAlgo::Parallel] {
            let mut c = c0.clone();
            gemm(algo, 2.0, &a, &b, 1.0, &mut c);
            assert_bitwise_f64(&format!("override {v} via {algo:?}"), &c, &c_ref);
        }
    }
    set_kernel_override(None);
}
