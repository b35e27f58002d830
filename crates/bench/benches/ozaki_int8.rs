//! The INT8 Ozaki engine-call A/B and the FP16-vs-INT8 substrate record.
//!
//! One packed 128×128×128 int8 engine call on β = 6 operands is timed on
//! every variant the host supports (min of fixed-iteration loops). Gates:
//! every variant returns the scalar i32 tile bit for bit (integer
//! associativity), and the fastest vectorized variant is ≥ 2× scalar.
//! Beside it, `ozaki_int8.txt` ([`me_bench::artifact_path`]) records the
//! host's measured int8 and f16 Ozaki call times and the analytic A100
//! FP16-ME vs INT8 energy table. The accuracy and energy claims are unit
//! tests in `me-ozaki` (`int8::tests`, `energy::tests`).

use me_bench::{artifact_path, smoke};
use me_linalg::{
    available_variants, gemm_i8_i32, selected_kernel, vnni_supported, KernelVariant, PanelLayout,
};
use me_ozaki::perf::ranged_matrix;
use me_ozaki::{int8_vs_f16_rows, ozaki_gemm, HostF16Engine, Int8Engine};
use std::time::Instant;

/// `n × n` deterministic i8 slice values on the Ozaki domain (|x| ≤ 64,
/// the β = 6 extraction bound — inside every kernel's exactness domain),
/// packed as `n` lines of length `n` into `layout`.
fn packed_slices(layout: PanelLayout, n: usize, seed: u64) -> Vec<i8> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    let values: Vec<i8> = (0..n * n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 129) as i64 - 64) as i8
        })
        .collect();
    let mut panel = layout.blank(n, n, n);
    for (li, line) in values.chunks(n).enumerate() {
        layout.put_line(&mut panel, li, line, n);
    }
    panel
}

fn main() {
    let (n, reps) = (128, if smoke() { 5 } else { 30 });
    let a = packed_slices(PanelLayout::I8_A, n, 3);
    let b = packed_slices(PanelLayout::I8_B, n, 4);
    let call = |v: KernelVariant, out: &mut [i32]| {
        let a = PanelLayout::I8_A.chunk(&a, 0, 0, n, n);
        let b = PanelLayout::I8_B.chunk(&b, 0, 0, n, n);
        gemm_i8_i32(v, n, n, n, a, b, out);
    };
    let mut expect = vec![0i32; n * n];
    call(KernelVariant::Scalar, &mut expect);

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
            call(v, &mut out);
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
        assert!(speedup >= 2.0, "speed gate: {v} is only {speedup:.2}x scalar (need >= 2x)");
        lines.push(format!("# speed gate: {v} {speedup:.2}x scalar (>= 2x) ok"));
    }

    // Measured record beside the modeled energy table: the host's own
    // int8 and f16 Ozaki call times at the benchmark's n = 128,
    // dispatched kernel, min of 5 calls.
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

    lines.push(String::new());
    lines.push("# A100 emulated-DGEMM substrate comparison (n=8192, analytic model)".to_string());
    lines.push("# config  range_1e  slices  products  tflops  watt  joules  gflops_per_j".to_string());
    for r in int8_vs_f16_rows() {
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

    let path = artifact_path("ozaki_int8.txt");
    std::fs::write(&path, lines.join("\n") + "\n").expect("write ozaki_int8 artifact");
    println!("ozaki_int8: wrote {}", path.display());
}
