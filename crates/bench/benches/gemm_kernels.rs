//! Single-thread A/B of the packed GEMM micro-kernel variants — the
//! measured analogue of Table II's scalar-vs-vectorized comparison.
//!
//! Times every variant the host supports at one square size (512³ full,
//! 256³ under `ME_BENCH_SMOKE`), min of fixed-iteration loops, and
//! enforces two gates: each variant's result is bitwise identical to
//! scalar, and each SIMD variant is ≥ 2× scalar. The table goes to
//! `gemm_kernels_ukernel.txt` ([`me_bench::artifact_path`]).

use me_bench::{artifact_path, bench_matrix, smoke};
use me_linalg::{
    available_variants, avx2_supported, avx512_supported, gemm_tiled_with, KernelVariant, Mat,
};
use std::time::Instant;

fn main() {
    let (n, reps) = if smoke() { (256, 2) } else { (512, 3) };
    let a = bench_matrix(n, n, 11);
    let b = bench_matrix(n, n, 12);
    let flops = 2.0 * (n as f64).powi(3);

    let mut c_ref = Mat::zeros(n, n);
    gemm_tiled_with(KernelVariant::Scalar, 1.0, &a, &b, 0.0, &mut c_ref);

    let mut lines = vec![
        format!("# gemm_kernels ukernel A/B: {n}x{n}x{n} f64, single thread"),
        format!("# host avx2+fma detected: {}", avx2_supported()),
        format!("# host avx512f detected: {}", avx512_supported()),
        "# variant  time_ms  gflops  speedup_vs_scalar  bitwise".to_string(),
    ];
    let mut scalar_time = None;
    for v in available_variants() {
        let mut c = Mat::zeros(n, n);
        let mut best = f64::INFINITY;
        for _ in 0..=reps {
            let t0 = Instant::now();
            gemm_tiled_with(v, 1.0, &a, &b, 0.0, &mut c);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        assert!(c.as_slice() == c_ref.as_slice(), "{v} kernel diverged from scalar at n={n}");
        if v == KernelVariant::Scalar {
            scalar_time = Some(best);
        }
        let speedup = scalar_time.map_or(1.0, |s| s / best);
        // Real SIMD must pay for itself. Both wide variants carry the same
        // one-FMA-per-accumulator dataflow as scalar, so ≥ 2× is a
        // conservative floor for 4-wide (AVX2) and 8-wide (AVX-512) f64
        // FMA lanes against the scalar loop.
        if v != KernelVariant::Scalar {
            assert!(
                speedup >= 2.0,
                "{v} kernel only {speedup:.2}x over scalar at n={n} (gate: >= 2x)"
            );
        }
        let line = format!(
            "{:<9} {:>8.3} {:>7.2} {:>18.2} ok",
            v.name(),
            best * 1e3,
            flops / best / 1e9,
            speedup
        );
        println!("bench ukernel_variants/{line}");
        lines.push(line);
    }

    let path = artifact_path("gemm_kernels_ukernel.txt");
    std::fs::write(&path, lines.join("\n") + "\n").expect("write ukernel artifact");
    println!("gemm_kernels: wrote {}", path.display());
}
