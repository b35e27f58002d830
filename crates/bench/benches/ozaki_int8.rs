//! Benchmarks of the INT8 Ozaki path: the int8 engine-call variant A/B
//! (one packed 128×128×128 call on β = 6 operands, with the "vectorized
//! ≥ 2× scalar" speed gate), the emulated-GEMM substrate comparison
//! (simulated f16 ME vs host INT8, plus a measured host-int8 vs host-f16
//! call-time record), and the analytic FP16-vs-INT8 energy table — written
//! to `artifacts/ozaki_int8.txt` with the accuracy gate asserted in-bench.
//!
//! `--kernel scalar|avx2|avx512` (or `ME_KERNEL`) pins the dispatched
//! micro-kernel for the criterion groups; the gated A/B section always
//! sweeps every variant the host supports. `ME_BENCH_SMOKE` shrinks
//! sizes for CI.

use me_bench::crit::{BenchmarkId, Criterion};
use me_bench::criterion_group;
use me_linalg::{
    available_variants, gemm_i8_i32, selected_kernel, set_kernel_override, vnni_supported,
    KernelVariant, PanelLayout,
};
use me_ozaki::gemm::reference_gemm;
use me_ozaki::perf::ranged_matrix;
use me_ozaki::{
    emit_energy_counters, int8_vs_f16_rows, ozaki_gemm, HostF16Engine, Int8Engine, OzakiConfig,
};
use std::time::Instant;

fn smoke() -> bool {
    std::env::var_os("ME_BENCH_SMOKE").is_some()
}

/// Deterministic i8 slice values on the Ozaki domain (|x| ≤ 64, the
/// β = 6 extraction bound — well inside every kernel's exactness domain).
fn slice_vec(len: usize, seed: u64) -> Vec<i8> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 129) as i64 - 64) as i8
        })
        .collect()
}

/// One engine call's operands: `n` rows of A and `n` columns of B of
/// length `n`, packed once into the int8 tile layouts.
struct Operands {
    n: usize,
    a: Vec<i8>,
    b: Vec<i8>,
}

impl Operands {
    fn new(n: usize, seed: u64) -> Self {
        let pack = |layout: PanelLayout, lines: &[i8]| {
            let mut panel = layout.blank(n, n, n);
            for (li, line) in lines.chunks(n).enumerate() {
                layout.put_line(&mut panel, li, line, n);
            }
            panel
        };
        let a = pack(PanelLayout::I8_A, &slice_vec(n * n, seed));
        let b = pack(PanelLayout::I8_B, &slice_vec(n * n, seed + 1));
        Operands { n, a, b }
    }

    /// The `n × n × n` engine call on kernel `v`.
    fn call(&self, v: KernelVariant, out: &mut [i32]) {
        let n = self.n;
        let a = PanelLayout::I8_A.chunk(&self.a, 0, 0, n, n);
        let b = PanelLayout::I8_B.chunk(&self.b, 0, 0, n, n);
        gemm_i8_i32(v, n, n, n, a, b, out);
    }
}

fn bench_engine_call_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("int8_engine_call");
    let n = if smoke() { 64 } else { 128 };
    let ops = Operands::new(n, 1);
    let mut out = vec![0i32; n * n];
    for v in available_variants() {
        g.bench_with_input(BenchmarkId::new(v.name(), n), &n, |bench, _| {
            bench.iter(|| ops.call(v, &mut out))
        });
    }
    g.finish();
}

fn bench_ozaki_substrates(c: &mut Criterion) {
    let mut g = c.benchmark_group("ozaki_substrates");
    g.sample_size(10);
    let n = if smoke() { 24 } else { 48 };
    let a = ranged_matrix(n, n, 8.0, 21);
    let b = ranged_matrix(n, n, 8.0, 22);
    let cfg = OzakiConfig::dgemm_tc();
    let engine = Int8Engine::default();
    g.bench_function("simulated_f16_me", |bench| bench.iter(|| ozaki_gemm(&a, &b, &cfg)));
    g.bench_function("host_int8", |bench| bench.iter(|| ozaki_gemm(&a, &b, &engine)));
    g.finish();
}

/// Gated A/B + report section, timed directly (min of fixed-iteration
/// loops) like `gemm_kernels::bench_ukernel_variants`:
///
/// 1. One packed 128×128×128 int8 engine call on β = 6 operands across
///    every supported variant; asserts all variants return the identical
///    i32 tile (integer associativity) and that the fastest vectorized
///    variant is ≥ 2× scalar — the speed gate.
/// 2. The INT8 Ozaki GEMM accuracy gate vs the f64 reference, and the
///    measured host-int8 vs host-f16 Ozaki call time beside it (a record,
///    not a gate).
/// 3. The analytic FP16-ME vs INT8 energy rows (A100, Table VIII
///    ranges), asserting INT8 wins throughput and Gflop/J, exported via
///    me-trace counters and `artifacts/ozaki_int8.txt`.
fn bench_int8_gates(_c: &mut Criterion) {
    let sm = smoke();
    let (n, reps) = (128, if sm { 5 } else { 30 });
    let ops = Operands::new(n, 3);
    let mut expect = vec![0i32; n * n];
    ops.call(KernelVariant::Scalar, &mut expect);

    let mut lines = vec![
        format!(
            "# ozaki_int8: int8 engine call A/B, {n}x{n}x{n} packed, beta 6, host vnni: {}",
            vnni_supported()
        ),
        "# variant  time_us  gi8ops  speedup_vs_scalar".to_string(),
    ];
    let mut scalar_time = None;
    let mut best_vectorized: Option<(KernelVariant, f64)> = None;
    let mut out = vec![0i32; n * n];
    for v in available_variants() {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            ops.call(v, &mut out);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        assert!(out == expect, "{v} engine call diverged from scalar on the slice domain");
        if v == KernelVariant::Scalar {
            scalar_time = Some(best);
        } else if best_vectorized.is_none_or(|(_, t)| best < t) {
            best_vectorized = Some((v, best));
        }
        let speedup = scalar_time.map_or(1.0, |s| s / best);
        let line = format!(
            "{:<9} {:>8.2} {:>7.2} {:>18.2}",
            v.name(),
            best * 1e6,
            2.0 * (n * n * n) as f64 / best / 1e9,
            speedup
        );
        println!("bench int8_engine_call_gate/{line}");
        lines.push(line);
    }
    let scalar_time = scalar_time.expect("scalar variant always available");
    if let Some((v, t)) = best_vectorized {
        let speedup = scalar_time / t;
        assert!(
            speedup >= 2.0,
            "speed gate: {v} is only {speedup:.2}x scalar (need >= 2x)"
        );
        lines.push(format!("# speed gate: {v} {speedup:.2}x scalar (>= 2x) ok"));
    }

    // Accuracy gate: host INT8 emulation hits DGEMM-equivalent error.
    let n = if sm { 24 } else { 48 };
    let am = ranged_matrix(n, n, 12.0, 23);
    let bm = ranged_matrix(n, n, 12.0, 24);
    let engine = Int8Engine::default();
    let r = ozaki_gemm(&am, &bm, &engine);
    let c_ref = reference_gemm(&am, &bm);
    let err = me_numerics::max_rel_err(r.c.as_slice(), c_ref.as_slice());
    assert!(err < 1e-12, "accuracy gate: int8 ozaki rel err {err} at n={n}");
    lines.push(format!(
        "# accuracy gate: int8 ozaki n={n} range 1e12 beta={} rel_err={err:.3e} (< 1e-12) ok",
        r.beta
    ));

    // Measured record beside the modeled energy gate: the host's own
    // int8 and f16 Ozaki call times at the benchmark's n = 128, dispatched
    // kernel, min of 5 calls.
    let n = 128;
    let am = ranged_matrix(n, n, 16.0, 25);
    let bm = ranged_matrix(n, n, 16.0, 26);
    let call_ms = |f: &dyn Fn()| {
        (0..5)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    let int8_ms = call_ms(&|| drop(ozaki_gemm(&am, &bm, &Int8Engine::default())));
    let f16_ms = call_ms(&|| drop(ozaki_gemm(&am, &bm, &HostF16Engine::default())));
    lines.push(format!(
        "# measured (record, not a gate): {} kernel, ozaki n={n} range 1e16: host-int8 {int8_ms:.2} ms, \
         host-f16 {f16_ms:.2} ms per call ({:.2}x)",
        selected_kernel().resolve_supported(),
        f16_ms / int8_ms
    ));

    // Energy table: FP16-ME vs INT8 on the A100, Table VIII ranges.
    let rows = int8_vs_f16_rows();
    emit_energy_counters(&rows);
    lines.push(String::new());
    lines.push("# A100 emulated-DGEMM substrate comparison (n=8192, analytic model)".to_string());
    lines.push("# config  range_1e  slices  products  tflops  watt  joules  gflops_per_j".to_string());
    for r in &rows {
        lines.push(format!(
            "{:<7} {:>8} {:>7} {:>9} {:>7.2} {:>6.1} {:>8.1} {:>13.3}",
            r.config,
            r.range_decades,
            r.slices,
            r.products,
            r.tflops,
            r.watt,
            r.joules,
            r.gflops_per_joule
        ));
    }
    for pair in rows.chunks(2) {
        assert!(
            pair[1].tflops > pair[0].tflops && pair[1].gflops_per_joule > pair[0].gflops_per_joule,
            "energy gate: int8 should beat f16-me at range 1e{}",
            pair[0].range_decades
        );
    }
    lines.push("# energy gate: int8 > f16-me on tflops and gflops/J at every range ok".to_string());

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = root.join("artifacts");
    let path = dir.join("ozaki_int8.txt");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, lines.join("\n") + "\n"));
    match written {
        Ok(()) => println!("  int8_gates: wrote {}", path.display()),
        Err(e) => {
            eprintln!("ozaki_int8: failed to write artifact: {e}");
            std::process::exit(1);
        }
    }
}

criterion_group!(ozaki_int8, bench_engine_call_variants, bench_ozaki_substrates, bench_int8_gates);

fn main() {
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
                    eprintln!("ozaki_int8: unknown --kernel {v:?} (want scalar|avx2|avx512)");
                    std::process::exit(2);
                }
            }
        }
    }
    println!("ozaki_int8: dispatched kernel = {}", selected_kernel().resolve_supported());
    ozaki_int8();
}
