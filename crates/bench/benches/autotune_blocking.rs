//! GEMMbench-style blocking autotune: sweep, persist, verify, report.
//!
//! Runs the `me_linalg::blas3::autotune` startup sweep — every runnable
//! kernel variant × the `(mc, kc, nc)` candidate grid — through
//! [`ensure_autotuned`], which persists the winners to
//! `artifacts/autotune.json` and installs them as runtime blocking
//! overrides (skipping any variant pinned by `ME_BLOCKING`; the knob
//! priority is env > artifact > compiled defaults). A second
//! `ensure_autotuned` call must then be a pure artifact load: the sweep
//! runs once per machine, not once per process.
//!
//! The report prints the per-variant winners against the compiled
//! default blocking, and the bench re-times the default vs the winner so
//! the artifact's claim is checked where it was made. Numerics gate: the
//! winner's blocking must stay bitwise identical to the default whenever
//! its `kc` matches, and within FLOP-counted tolerance otherwise (the §9
//! contract — only `kc` is numerically observable).
//!
//! `ME_BENCH_SMOKE=1` swaps in `SweepConfig::QUICK` for the CI gate and
//! sweeps into a fresh `target/bench-smoke/autotune.json`
//! ([`me_bench::artifact_path`]).

use std::time::Instant;

use me_bench::{artifact_path, bench_matrix, smoke};
use me_linalg::blas3::autotune::{ensure_autotuned, read_artifact, SweepConfig};
use me_linalg::{blocking_for, gemm_tiled_with_blocking, set_blocking_override, Blocking, Mat};

fn time_blocking(
    variant: me_linalg::KernelVariant,
    blocking: Blocking,
    a: &Mat<f64>,
    b: &Mat<f64>,
    reps: usize,
) -> f64 {
    let mut c = Mat::zeros(a.rows(), b.cols());
    gemm_tiled_with_blocking(variant, blocking, 1.0, a, b, 0.0, &mut c); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        gemm_tiled_with_blocking(variant, blocking, 1.0, a, b, 0.0, &mut c);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let config = if smoke() { SweepConfig::QUICK } else { SweepConfig::DEFAULT };
    let path = artifact_path("autotune.json");
    let path = path.as_path();

    let t0 = Instant::now();
    let result = ensure_autotuned(path, config).expect("sweep and artifact write succeed");
    let first = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let reloaded = ensure_autotuned(path, config).expect("artifact reload succeeds");
    let reload = t0.elapsed().as_secs_f64();
    // The artifact rounds gflops to three decimals, so compare the
    // load-bearing fields (shape, winners) exactly and the timing
    // telemetry to artifact precision.
    assert_eq!(reloaded.shape, result.shape, "reload must not re-sweep");
    assert_eq!(reloaded.entries.len(), result.entries.len());
    for (r, s) in reloaded.entries.iter().zip(&result.entries) {
        assert_eq!((r.variant, r.blocking), (s.variant, s.blocking), "winner changed on reload");
        assert!((r.gflops - s.gflops).abs() <= 1e-3, "gflops drifted beyond artifact rounding");
    }
    assert!(
        read_artifact(path).expect("artifact parses").is_some(),
        "{} must exist after the sweep",
        path.display()
    );

    let (m, k, n) = result.shape;
    println!(
        "autotune_blocking: shape {m}x{k}x{n}, artifact {} ({first:.3} s sweep, {reload:.6} s reload)",
        path.display()
    );
    let a = bench_matrix(m, k, 11);
    let b = bench_matrix(k, n, 13);
    let flops = 2.0 * (m as f64) * (k as f64) * (n as f64);
    let reps = config.reps.max(1);
    for e in &result.entries {
        // ensure_autotuned applied the winners; blocking_for must agree
        // unless ME_BLOCKING pinned this variant.
        let active = blocking_for(e.variant);
        let pinned = me_linalg::blas3::blocking::blocking_env_configured(e.variant);
        assert!(
            pinned || active == e.blocking,
            "{}: applied blocking {active} disagrees with artifact winner {}",
            e.variant.name(),
            e.blocking
        );
        let t_def = time_blocking(e.variant, Blocking::DEFAULT, &a, &b, reps);
        let t_win = time_blocking(e.variant, e.blocking, &a, &b, reps);
        println!(
            "  {:<8} default {}  {:>7.2} GF/s | tuned {}  {:>7.2} GF/s  ({:+.1}% vs default){}",
            e.variant.name(),
            Blocking::DEFAULT,
            flops / t_def / 1e9,
            e.blocking,
            flops / t_win / 1e9,
            100.0 * (t_def / t_win - 1.0),
            if pinned { "  [ME_BLOCKING pinned]" } else { "" }
        );
    }
    assert!(!result.entries.is_empty(), "sweep must cover at least the scalar variant");

    // Leave the process-global dispatch the way a fresh process would
    // see it (benches share a cargo invocation with other targets).
    for e in &result.entries {
        set_blocking_override(e.variant, None);
    }
}
