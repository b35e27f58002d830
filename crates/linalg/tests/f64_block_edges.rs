//! Register-block edge differential of the f64 GEMM.
//!
//! On AVX-512 the packed f64 core computes C in 8 × 24 register blocks:
//! two 4-row A micro-panels × three 8-column B micro-panels, B groups
//! outer. Where fewer than two A panels or three B panels are left, it
//! runs smaller blocks (1 × 3, 2 × 1, 1 × 1), and the write-back clips
//! each block to the valid rows and columns. So the edges are m one
//! below, at and one above a multiple of 4 or 8, n one below, at and one
//! above a multiple of 8 or 24, and k at one, two and three 256-deep k
//! chunks. The grid crosses
//! m ∈ {0, 1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 65},
//! n ∈ {1, 7, 8, 9, 16, 23, 24, 25, 47, 48, 49, 193} and
//! k ∈ {1, 255, 256, 257, 513}, cycles α/β through {0, 1, −1, 0.5}²,
//! and checks every variant the host runs against the `Scalar` variant,
//! bit for bit, on three fronts: a fresh pack, a prepacked B and a
//! 2-wide pool.

use me_linalg::blas3::{
    gemm_parallel_on_with, gemm_tiled_prepacked_with, gemm_tiled_with, pack_b_matrix,
};
use me_linalg::{available_variants, blocking_for, KernelVariant, Mat};
use me_numerics::Rng64;

const MS: [usize; 13] = [0, 1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 65];
const NS: [usize; 12] = [1, 7, 8, 9, 16, 23, 24, 25, 47, 48, 49, 193];
const KS: [usize; 5] = [1, 255, 256, 257, 513];
const COEFFS: [f64; 4] = [0.0, 1.0, -1.0, 0.5];

/// Non-integers in (−1, 1) with a few large and tiny magnitudes, so
/// every sum rounds and a reordered or split FMA shows.
fn gen_mat(rng: &mut Rng64, rows: usize, cols: usize) -> Mat<f64> {
    Mat::from_fn(rows, cols, |_, _| {
        let x = rng.range_f64(-1.0, 1.0);
        match rng.range_usize(0, 16) {
            0 => x * 2f64.powi(40),
            1 => x * 2f64.powi(-40),
            _ => x,
        }
    })
}

/// Panic at the first element whose bits differ from `want`.
fn check(label: &str, got: &Mat<f64>, want: &Mat<f64>) {
    let n = want.cols();
    let (g, w) = (got.as_slice(), want.as_slice());
    if let Some(x) = (0..w.len()).find(|&x| g[x].to_bits() != w[x].to_bits()) {
        panic!("{label}: ({}, {}) {:e} != {:e}", x / n, x % n, g[x], w[x]);
    }
}

#[test]
fn every_variant_matches_scalar_across_block_edges() {
    let variants = available_variants();
    let pool = me_par::WorkerPool::new(2);
    let mut combo = 0usize;
    for k in KS {
        for m in MS {
            for n in NS {
                let (alpha, beta) = (COEFFS[combo % 4], COEFFS[(combo / 4) % 4]);
                combo += 1;
                let mut rng = Rng64::seed_from_u64((m as u64) << 32 | (n as u64) << 16 | k as u64);
                let (a, b) = (gen_mat(&mut rng, m, k), gen_mat(&mut rng, k, n));
                let c0 = gen_mat(&mut rng, m, n);
                let mut want = c0.clone();
                gemm_tiled_with(KernelVariant::Scalar, alpha, &a, &b, beta, &mut want);
                for &v in &variants {
                    let label = format!("{v} m {m} n {n} k {k} alpha {alpha} beta {beta}");
                    let mut c = c0.clone();
                    gemm_tiled_with(v, alpha, &a, &b, beta, &mut c);
                    check(&format!("{label} fresh"), &c, &want);
                    let packed = pack_b_matrix(&b, blocking_for(v));
                    let mut c = c0.clone();
                    gemm_tiled_prepacked_with(v, alpha, &a, &packed, beta, &mut c);
                    check(&format!("{label} prepacked"), &c, &want);
                    let mut c = c0.clone();
                    gemm_parallel_on_with(&pool, v, alpha, &a, &b, beta, &mut c);
                    check(&format!("{label} 2-wide pool"), &c, &want);
                }
            }
        }
    }
}
