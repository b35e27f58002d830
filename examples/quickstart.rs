//! Quickstart: the library in five minutes.
//!
//! Runs one representative piece of each layer — device catalog, execution
//! model, BLAS substrate, Ozaki emulation, workload profiling, and the
//! node-hour extrapolation — and prints what the paper concluded from them.
//!
//! Run with `cargo run --release --example quickstart`.

use matrix_engines::prelude::*;

fn main() {
    // --- 1. Matrix engines from a hardware perspective (paper §II) ---
    let v100 = catalog::v100();
    let model = ExecutionModel::new(v100.clone());
    let shape = GemmShape::square(8192);
    let tc = model.gemm(shape, EngineKind::MatrixEngine, NumericFormat::F16xF32).unwrap();
    let dg = model.gemm(shape, EngineKind::Simd, NumericFormat::F64).unwrap();
    println!("V100 n=8192 GEMM:");
    println!(
        "  Tensor Cores (f16/f32): {:7.2} Tflop/s at {:.0} W  ({:.1} Gflop/J)",
        tc.gflops / 1e3,
        tc.avg_power_w,
        tc.gflops_per_joule()
    );
    println!(
        "  CUDA cores (f64):       {:7.2} Tflop/s at {:.0} W  ({:.1} Gflop/J)",
        dg.gflops / 1e3,
        dg.avg_power_w,
        dg.gflops_per_joule()
    );

    // --- 2. A real dense solve on the BLAS/LAPACK substrate ---
    let n = 128;
    let a = Mat::from_fn(n, n, |i, j| if i == j { n as f64 } else { 1.0 / (1 + i + j) as f64 });
    let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let x = matrix_engines::linalg::hpl_solve(&a, &b).expect("well-conditioned");
    let residual = matrix_engines::linalg::hpl_residual(&a, &x, &b);
    println!("\nHPL-style solve (n={n}): scaled residual {residual:.3e} (passes < 16)");

    // --- 3. Ozaki scheme: f64 GEMM emulated on an f16 engine (§IV-B) ---
    let a = Mat::from_fn(16, 16, |i, j| {
        ((i * 31 + j * 17) as f64).sin() * 1e4f64.powf(((i + j) % 3) as f64 - 1.0)
    });
    let bm = Mat::from_fn(16, 16, |i, j| ((i + 2 * j) as f64).cos());
    let rep = ozaki_gemm(&a, &bm, &OzakiConfig::dgemm_tc());
    println!(
        "\nOzaki DGEMM-TC: {} slices x {} slices, {} exact f16-engine products (beta={})",
        rep.s_a, rep.s_b, rep.products_computed, rep.beta
    );

    // --- 4. Workload reality check (§III-D): profile HPL vs a CFD proxy ---
    for name in ["HPL", "FFB"] {
        let bench = all_benchmarks().into_iter().find(|b| b.name == name).unwrap();
        let profiler = Profiler::new();
        run_benchmark(&bench, &profiler, 1);
        let f = profiler.profile().fig3_fractions();
        println!(
            "{name:8} profile: GEMM {:5.1}%  BLAS {:4.1}%  LAPACK {:4.1}%  other {:5.1}%",
            100.0 * f.gemm,
            100.0 * f.blas_non_gemm,
            100.0 * f.lapack,
            100.0 * f.other
        );
    }

    // --- 5. The cost-benefit punchline (§IV-A, Fig 4) ---
    println!();
    for mix in
        [MachineMix::k_computer_default(), MachineMix::anl_default(), MachineMix::future_default()]
    {
        let r4 = mix.node_hour_reduction(MeSpeedup::Finite(4.0));
        let ri = mix.node_hour_reduction(MeSpeedup::Infinite);
        println!(
            "{:14} with a 4x ME: {:5.1}% node-hours saved (infinitely fast ME: {:5.1}%)",
            mix.name,
            100.0 * r4,
            100.0 * ri
        );
    }
    println!("\n=> the paper's conclusion: for traditional HPC, MEs buy ~1.1x at best.");
}
