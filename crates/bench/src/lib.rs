//! # me-bench
//!
//! Four gated benchmark binaries, run with
//! `cargo bench -p me-bench --bench <name>`:
//!
//! - `gemm_kernels` — single-thread A/B of the packed f64 micro-kernel
//!   variants; every SIMD variant must be ≥ 2× scalar and bitwise equal
//!   to it (the measured analogue of Table II's scalar-vs-vectorized row),
//! - `ozaki_int8` — the packed int8 engine-call A/B (≥ 2× speed gate,
//!   bitwise check) beside the modeled FP16-vs-INT8 energy table,
//! - `serve_throughput` — batched vs unbatched serving and the weight-cache
//!   A/B on a Table V mix, then the multi-tenant open-loop replay (p99
//!   within SLO, exact conservation),
//! - `autotune_blocking` — the blocking sweep that writes
//!   `artifacts/autotune.json`, reloaded and applied.
//!
//! `ME_BENCH_SMOKE=1` shrinks each to a CI-sized run whose artifact goes to
//! `target/bench-smoke/` instead of over the committed `artifacts/` copy.

use std::path::PathBuf;

/// Whether `ME_BENCH_SMOKE` asks for the CI-sized run.
// me-verify: env-startup
pub fn smoke() -> bool {
    std::env::var_os("ME_BENCH_SMOKE").is_some()
}

/// Where a bench writes its artifact `name`: the workspace-root
/// `artifacts/` directory, or `target/bench-smoke/` under
/// `ME_BENCH_SMOKE`, so a smoke run never rewrites a committed artifact.
/// Creates the directory; exits with status 1 if it cannot.
pub fn artifact_path(name: &str) -> PathBuf {
    // Benches run with the package directory as cwd.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = root.join(if smoke() { "target/bench-smoke" } else { "artifacts" });
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("me-bench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    dir.join(name)
}

/// Shared helper: deterministic matrix for benches.
pub fn bench_matrix(rows: usize, cols: usize, seed: u64) -> me_linalg::Mat<f64> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    me_linalg::Mat::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    })
}
