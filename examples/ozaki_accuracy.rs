//! Ozaki-scheme deep dive: accuracy, cost, and reproducibility of emulating
//! high-precision GEMM on a low-precision matrix engine (paper §IV-B).
//!
//! Sweeps the input dynamic range (the paper's 1e+8 / 1e+16 / 1e+32
//! conditions) and reports, for SGEMM- and DGEMM-equivalent targets:
//! slice counts, engine-product counts, and the achieved accuracy against a
//! doubled-precision reference — then demonstrates bitwise reproducibility.
//!
//! Run with `cargo run --release --example ozaki_accuracy`.

use matrix_engines::ozaki::gemm::reference_gemm;
use matrix_engines::prelude::*;
use me_ozaki::perf::ranged_matrix;

fn main() {
    let n = 48;
    println!("Ozaki scheme on an f16-multiply / f32-accumulate engine, n={n}\n");
    println!(
        "{:<10} {:<10} {:>7} {:>9} {:>12} {:>14}",
        "target", "range", "slices", "products", "max rel err", "split exact?"
    );
    for decades in [2.0, 8.0, 16.0, 32.0] {
        let a = ranged_matrix(n, n, decades, 11);
        let b = ranged_matrix(n, n, decades, 23);
        let c_ref = reference_gemm(&a, &b);
        for (cfg, label) in
            [(OzakiConfig::sgemm_tc(), "SGEMM-TC"), (OzakiConfig::dgemm_tc(), "DGEMM-TC")]
        {
            let r = ozaki_gemm(&a, &b, &cfg);
            let err = me_numerics::max_rel_err(r.c.as_slice(), c_ref.as_slice());
            println!(
                "{:<10} 1e+{:<7} {:>7} {:>9} {:>12.2e} {:>14}",
                label,
                decades as u32,
                r.s_a.max(r.s_b),
                r.products_computed,
                err,
                r.split_exact
            );
        }
    }

    // Exact mode: the error-free product.
    println!("\nExact mode (full all-to-all products):");
    let a = ranged_matrix(24, 24, 10.0, 5);
    let b = ranged_matrix(24, 24, 10.0, 6);
    let cfg = OzakiConfig { target: TargetAccuracy::Exact, ..OzakiConfig::dgemm_tc() };
    let r = ozaki_gemm(&a, &b, &cfg);
    let c_ref = reference_gemm(&a, &b);
    let worst_ulp =
        r.c.as_slice()
            .iter()
            .zip(c_ref.as_slice())
            .map(|(&x, &y)| me_numerics::ulp_diff(x, y))
            .max()
            .unwrap();
    println!(
        "  {} products, worst deviation from doubled-precision reference: {} ulp",
        r.products_computed, worst_ulp
    );

    // Bitwise reproducibility: recompute row partitions and compare bits.
    let top = matrix_engines::linalg::Mat::from_fn(12, 24, |i, j| a[(i, j)]);
    let r_top = ozaki_gemm(&top, &b, &cfg);
    let identical =
        (0..12).all(|i| (0..24).all(|j| r_top.c[(i, j)].to_bits() == r.c[(i, j)].to_bits()));
    println!(
        "  row-partitioned recomputation bit-identical: {identical} (the paper's reproducibility claim)"
    );

    // Table VIII, regenerated end to end.
    println!();
    println!("{}", me_core::experiments::table8().rendered);
}
