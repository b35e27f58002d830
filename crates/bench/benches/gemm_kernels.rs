//! Real-walltime benchmarks of the BLAS substrate's GEMM code paths —
//! the measured analogue of Table II's scalar-vs-vectorized comparison
//! (here: serial-dependency-chain naive vs blocked vs SIMD-shaped tiled vs
//! thread-parallel), plus the LAPACK layer, BLAS-1/2 kernels, and the
//! micro-kernel variant A/B (`ukernel_variants`).
//!
//! `--kernel scalar|avx2|avx512` (or `ME_KERNEL`) pins the dispatched
//! micro-kernel for the whole run, so any group can be A/B'd across
//! variants; the `ukernel_variants` section always sweeps every variant
//! the host supports and records the single-thread speedups (the paper's
//! SIMD-baseline credibility check) in
//! `artifacts/gemm_kernels_ukernel.txt`.

use me_bench::crit::{BenchmarkId, Criterion, Throughput};
use me_bench::criterion_group;
use me_bench::bench_matrix;
use me_engine::HostParallelism;
use me_linalg::{
    available_variants, avx2_supported, avx512_supported, blas1, blas2, gemm, gemm_tiled_with,
    lapack, selected_kernel, set_kernel_override, GemmAlgo, KernelVariant, Mat,
};
use std::time::Instant;

fn bench_gemm_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_variants");
    // The one knob shared with the execution model and the parallel
    // kernels: ME_THREADS (or the OS) decides how wide Parallel runs.
    let threads = HostParallelism::auto().effective();
    for &n in &[32usize, 64, 128, 256] {
        let a = bench_matrix(n, n, 1);
        let b = bench_matrix(n, n, 2);
        g.throughput(Throughput::Elements((2 * n * n * n) as u64));
        for algo in [GemmAlgo::Naive, GemmAlgo::Blocked, GemmAlgo::Tiled, GemmAlgo::Parallel] {
            // Skip the slowest pairing to keep bench time sane.
            if n > 128 && algo == GemmAlgo::Naive {
                continue;
            }
            let label = match algo {
                GemmAlgo::Parallel => format!("Parallel/t{threads}"),
                _ => format!("{algo:?}"),
            };
            g.bench_with_input(BenchmarkId::new(label, n), &n, |bench, _| {
                let mut cm = Mat::zeros(n, n);
                bench.iter(|| gemm(algo, 1.0, &a, &b, 0.0, &mut cm));
            });
        }
    }
    g.finish();
}

fn bench_lapack(c: &mut Criterion) {
    let mut g = c.benchmark_group("lapack");
    g.sample_size(20);
    for &n in &[64usize, 128] {
        let a = {
            let mut m = bench_matrix(n, n, 3);
            for i in 0..n {
                m[(i, i)] += n as f64;
            }
            m
        };
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        g.bench_with_input(BenchmarkId::new("hpl_solve", n), &n, |bench, _| {
            bench.iter(|| lapack::hpl_solve(&a, &b).unwrap())
        });
    }
    g.finish();
}

fn bench_blas12(c: &mut Criterion) {
    let mut g = c.benchmark_group("blas_l1_l2");
    let n = 4096;
    let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
    let mut y: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("dot_4096", |b| b.iter(|| blas1::dot(&x, &y)));
    g.bench_function("axpy_4096", |b| b.iter(|| blas1::axpy(0.5, &x, &mut y)));
    let a = bench_matrix(256, 256, 4);
    let xv: Vec<f64> = (0..256).map(|i| i as f64 * 0.1).collect();
    let mut yv = vec![0.0; 256];
    g.bench_function("gemv_256", |b| b.iter(|| blas2::gemv(1.0, &a, &xv, 0.0, &mut yv)));
    g.finish();
}

/// Single-thread A/B of the packed GEMM micro-kernel variants at one
/// square size (512³ full, 256³ under `ME_BENCH_SMOKE`), timed directly
/// (min of `reps`) rather than through the criterion shim so the recorded
/// speedups come from identical fixed-iteration loops. Writes the table to
/// `artifacts/gemm_kernels_ukernel.txt` — the bench artifact behind the
/// "AVX2 ≥ 2× scalar" acceptance gate — and cross-checks that every
/// variant's result is bitwise identical to scalar before recording it.
fn bench_ukernel_variants(_c: &mut Criterion) {
    let smoke = std::env::var_os("ME_BENCH_SMOKE").is_some();
    let (n, reps) = if smoke { (256, 2) } else { (512, 3) };
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
        let bitwise = c.as_slice() == c_ref.as_slice();
        assert!(bitwise, "{v} kernel diverged from scalar at n={n}");
        if v == KernelVariant::Scalar {
            scalar_time = Some(best);
        }
        let speedup = scalar_time.map_or(1.0, |s| s / best);
        // The acceptance gate: real SIMD must pay for itself. Both wide
        // variants carry the same one-FMA-per-accumulator dataflow as
        // scalar, so ≥ 2× is a conservative floor for 4-wide (AVX2) and
        // 8-wide (AVX-512) f64 FMA lanes against the scalar loop.
        if matches!(v, KernelVariant::Avx2 | KernelVariant::Avx512) {
            assert!(
                speedup >= 2.0,
                "{v} kernel only {speedup:.2}x over scalar at n={n} (gate: >= 2x)"
            );
        }
        let line = format!(
            "{:<9} {:>8.3} {:>7.2} {:>18.2} {}",
            v.name(),
            best * 1e3,
            flops / best / 1e9,
            speedup,
            if bitwise { "ok" } else { "FAIL" }
        );
        println!("bench ukernel_variants/{line}");
        lines.push(line);
    }

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = root.join("artifacts");
    let path = dir.join("gemm_kernels_ukernel.txt");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, lines.join("\n") + "\n"));
    match written {
        Ok(()) => println!("  ukernel_variants: wrote {}", path.display()),
        Err(e) => {
            eprintln!("gemm_kernels: failed to write ukernel artifact: {e}");
            std::process::exit(1);
        }
    }
}

criterion_group!(kernels, bench_gemm_variants, bench_lapack, bench_blas12, bench_ukernel_variants);

fn main() {
    // `--kernel <name>` / `--kernel=<name>` pins the dispatched micro-
    // kernel for every group in this run (`ME_KERNEL` works too; the flag
    // wins because it is applied last, as a runtime override).
    let args: Vec<String> = std::env::args().collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = match arg.strip_prefix("--kernel=") {
            Some(v) => Some(v.to_string()),
            None if arg == "--kernel" => it.next().cloned(),
            None => None,
        };
        if let Some(v) = value {
            match KernelVariant::parse(&v) {
                Some(k) => set_kernel_override(Some(k)),
                None => {
                    eprintln!(
                        "gemm_kernels: unknown --kernel {v:?} (want scalar|avx2|avx512)"
                    );
                    std::process::exit(2);
                }
            }
        }
    }
    println!("gemm_kernels: dispatched kernel = {}", selected_kernel().resolve_supported());
    kernels();
}
