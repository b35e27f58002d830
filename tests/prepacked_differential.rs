//! Prepacked-B differential: the §12 layout contract, end to end.
//!
//! `pack_b_matrix` + `gemm_tiled_prepacked_with` must be **bitwise
//! indistinguishable** from the fresh-pack path at the same blocking —
//! that identity is what lets the serve-layer weight cache reuse panels
//! across batches without perturbing a single result bit. This suite
//! sweeps the full grid:
//!
//!   every runnable kernel variant
//! × shapes (tile-aligned, ragged-edge, degenerate-thin)
//! × blockings (default, small non-default, deliberately awkward kc)
//! × serial and pool-parallel prepacked consumers
//! × a nontrivial (alpha, beta) accumulation
//!
//! and asserts `assert_eq!` on raw f64 slices — no tolerances anywhere.

use matrix_engines::linalg::{
    available_variants, gemm_parallel_on_prepacked_with, gemm_tiled_prepacked_with,
    gemm_tiled_with_blocking, pack_b_matrix, Blocking, Mat,
};
use me_numerics::Rng64;
use me_par::WorkerPool;

fn gen_mat(rng: &mut Rng64, rows: usize, cols: usize) -> Mat<f64> {
    Mat::from_fn(rows, cols, |_, _| rng.range_f64(-1.0, 1.0))
}

#[test]
fn prepacked_gemm_is_bitwise_identical_to_fresh_pack() {
    let shapes = [
        (1usize, 4usize, 8usize), // single-row inference request
        (4, 8, 8),                // exactly one MR × NR tile
        (7, 13, 11),              // ragged on every dimension
        (33, 80, 56),             // multiple blocks with edge tiles
        (64, 129, 96),            // k crosses a kc=128 chunk boundary
    ];
    let blockings = [
        Blocking::DEFAULT,
        Blocking { mc: 16, kc: 32, nc: 24 },
        // Awkward on purpose: kc not a multiple of anything, nc snapped
        // up to NR by normalized(), mc below MR snapped up to MR.
        Blocking { mc: 2, kc: 7, nc: 5 },
    ];
    let pool = WorkerPool::new(3);
    let mut rng = Rng64::seed_from_u64(0x9ACC3D);
    let mut cases = 0u32;

    for &variant in &available_variants() {
        for &(m, k, n) in &shapes {
            let a = gen_mat(&mut rng, m, k);
            let b = gen_mat(&mut rng, k, n);
            let c0 = gen_mat(&mut rng, m, n); // nonzero C: beta path too
            for &blocking in &blockings {
                let packed = pack_b_matrix(&b, blocking);
                // The packed blocking is the normalized one; replaying it
                // through the fresh path pins both sides to one FMA grid.
                let eff = packed.blocking();

                let mut fresh = c0.clone();
                gemm_tiled_with_blocking(variant, eff, 1.5, &a, &b, -0.5, &mut fresh);

                let mut pre = c0.clone();
                gemm_tiled_prepacked_with(variant, 1.5, &a, &packed, -0.5, &mut pre);
                assert_eq!(
                    pre.as_slice(),
                    fresh.as_slice(),
                    "{variant:?} {m}x{k}x{n} {blocking:?}: serial prepacked diverged"
                );

                let mut par = c0.clone();
                gemm_parallel_on_prepacked_with(&pool, variant, 1.5, &a, &packed, -0.5, &mut par);
                assert_eq!(
                    par.as_slice(),
                    fresh.as_slice(),
                    "{variant:?} {m}x{k}x{n} {blocking:?}: parallel prepacked diverged"
                );
                cases += 1;
            }
        }
    }
    assert!(cases >= 15, "grid degenerated: only {cases} cases ran");
}

/// One pack, many consumers: reusing a single `PackedB` across differing
/// A operands and accumulation coefficients (the weight-cache usage
/// pattern) must match per-call fresh packs exactly.
#[test]
fn one_packed_b_serves_many_requests_bitwise() {
    let (k, n) = (96, 72);
    let mut rng = Rng64::seed_from_u64(0x5EED);
    let b = gen_mat(&mut rng, k, n);
    for &variant in &available_variants() {
        let packed = pack_b_matrix(&b, Blocking::DEFAULT);
        let eff = packed.blocking();
        for (i, &(m, alpha, beta)) in
            [(1usize, 1.0f64, 0.0f64), (2, -2.0, 0.0), (5, 0.25, 1.0), (17, 3.0, -1.0)]
                .iter()
                .enumerate()
        {
            let a = gen_mat(&mut rng, m, k);
            let c0 = gen_mat(&mut rng, m, n);
            let mut fresh = c0.clone();
            gemm_tiled_with_blocking(variant, eff, alpha, &a, &b, beta, &mut fresh);
            let mut pre = c0.clone();
            gemm_tiled_prepacked_with(variant, alpha, &a, &packed, beta, &mut pre);
            assert_eq!(
                pre.as_slice(),
                fresh.as_slice(),
                "{variant:?} request {i}: shared panels diverged from fresh pack"
            );
        }
    }
}
