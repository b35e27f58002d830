//! The INT8 and f32 Ozaki engine-call A/B and the FP16-vs-INT8 substrate
//! record.
//!
//! One packed 128×128×128 int8 engine call on β = 6 operands is timed on
//! the SIMD tile of every variant the host supports (`gemm_i8_i32_simd`,
//! min of fixed-iteration loops). Gates:
//! every variant returns the scalar i32 tile bit for bit (integer
//! associativity), and the fastest vectorized variant is ≥ 2× scalar.
//! Beside it, one packed 128×128×128 f32 engine call (`gemm_f32_f32`, the
//! simulated-ME and, after widening, host-f16 slice product) is timed the
//! same way on values whose sums round; every variant must return the
//! scalar bits, and its speed is a record, not a gate. On an AMX host the
//! `avx512` rows above are the SIMD tiles (VNNI, and the f32 tile), and a
//! third section times the matrix engine against them on one die: the
//! int8 call on AMX `tdpbusd` against VNNI, and the bf16 call on AMX
//! `tdpbf16ps` against the f32 tile on the same integer slice values
//! (|x| ≤ 256, every sum exact), each checked bit for bit against scalar.
//! `ozaki_int8.txt` ([`me_bench::artifact_path`]) also records the host's
//! measured Ozaki call times per substrate and the analytic A100 FP16-ME
//! vs INT8 energy table. The accuracy and energy claims are unit tests in
//! `me-ozaki` (`int8::tests`, `energy::tests`).

use me_bench::{artifact_path, smoke};
use me_linalg::{
    amx_bf16_supported, amx_int8_supported, available_variants, gemm_bf16_f32, gemm_f32_f32,
    gemm_i8_i32, gemm_i8_i32_simd, selected_kernel, vnni_supported, HalfKind, KernelVariant,
    PanelLayout, PanelWord,
};
use me_ozaki::perf::ranged_matrix;
use me_ozaki::{int8_vs_f16_rows, ozaki_gemm, HostF16Engine, Int8Engine, OzakiConfig};
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

/// `n × n` deterministic non-integer f32 values in (−1, 1), whose chunk
/// sums round (so a reordered or split FMA changes bits).
fn f32_values(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    (0..n * n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// `n` lines of length `n` packed into `layout`, one chunk.
fn packed<W: PanelWord>(layout: PanelLayout, values: &[W], n: usize) -> Vec<W> {
    let mut panel = layout.blank(n, n, n);
    for (li, line) in values.chunks(n).enumerate() {
        layout.put_line(&mut panel, li, line, n);
    }
    panel
}

/// Best-of-`reps` seconds of `f`.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The f32 engine-call A/B: one row per variant, every variant checked
/// bit for bit against scalar. A record, not a gate.
fn f32_engine_rows(n: usize, reps: usize) -> Vec<String> {
    let (la, lb) = (PanelLayout::F32_A, PanelLayout::F32_B);
    let (a, b) = (packed(la, &f32_values(n, 5), n), packed(lb, &f32_values(n, 6), n));
    let call = |v: KernelVariant, out: &mut [f32]| {
        gemm_f32_f32(v, n, n, n, la.chunk(&a, 0, 0, n, n), lb.chunk(&b, 0, 0, n, n), out);
    };
    let mut expect = vec![0.0f32; n * n];
    call(KernelVariant::Scalar, &mut expect);
    let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut rows = vec![
        format!("# f32 engine call A/B (gemm_f32_f32, 8x32 tile), {n}x{n}x{n} packed, sums round"),
        "# variant  time_us  gflops  speedup_vs_scalar".to_string(),
    ];
    let mut scalar_time = None;
    let mut out = vec![0.0f32; n * n];
    for v in available_variants() {
        let best = best_secs(reps, || call(v, &mut out));
        assert!(bits(&out) == bits(&expect), "{v} f32 engine call diverged from scalar bits");
        let scalar = *scalar_time.get_or_insert(best);
        let line = format!(
            "{:<9} {:>8.2} {:>7.2} {:>18.2}",
            v.name(),
            best * 1e6,
            2.0 * (n * n * n) as f64 / best / 1e9,
            scalar / best
        );
        println!("bench f32_engine_call/{line}");
        rows.push(line);
    }
    rows.push("# every variant returned the scalar bits".to_string());
    rows
}

/// One timed row: name, best time, its op rate, and a ratio.
fn row(name: &str, best: f64, n: usize, ratio: f64) -> String {
    let ops = 2.0 * (n * n * n) as f64 / best / 1e9;
    format!("{name:<16} {:>8.2} {ops:>7.2} {ratio:>16.2}", best * 1e6)
}

/// The matrix engine against SIMD on one die: the int8 call on AMX against
/// the VNNI tile (i8 slices, `a`/`b` packed in the int8 layouts, scalar
/// result `expect`), and the bf16 call on AMX against the f32 tile on
/// integer slice values in [−256, 256]. Every row is checked bit for bit
/// against scalar. A record, not a gate; empty without AMX.
fn amx_rows(n: usize, reps: usize, (a, b): (&[i8], &[i8]), expect: &[i32]) -> Vec<String> {
    if !amx_int8_supported() && !amx_bf16_supported() {
        return vec!["# host has no AMX: matrix-engine rows skipped".to_string()];
    }
    let mut rows = vec![
        format!("# matrix engine (AMX) vs SIMD (avx512) engine call, {n}x{n}x{n} packed"),
        "# call             time_us    gops  amx_speedup_vs_simd".to_string(),
    ];
    let (ca, cb) = (PanelLayout::I8_A.chunk(a, 0, 0, n, n), PanelLayout::I8_B.chunk(b, 0, 0, n, n));
    let v = KernelVariant::Avx512;
    let mut out = vec![0i32; n * n];
    if amx_int8_supported() {
        let simd = best_secs(reps, || gemm_i8_i32_simd(v, n, n, n, ca, cb, &mut out));
        assert!(out == expect, "VNNI int8 call diverged from scalar");
        let amx = best_secs(reps, || gemm_i8_i32(v, n, n, n, ca, cb, &mut out));
        assert!(out == expect, "AMX int8 call diverged from scalar");
        rows.push(row("int8 vnni", simd, n, 1.0));
        rows.push(row("int8 amx", amx, n, simd / amx));
    }
    if amx_bf16_supported() {
        let ints: Vec<Vec<f32>> = [7u64, 8]
            .iter()
            .map(|&seed| f32_values(n, seed).iter().map(|x| (x * 256.0).round()).collect())
            .collect();
        let (la, lb) = (PanelLayout::F32_A, PanelLayout::F32_B);
        let (a32, b32) = (packed(la, &ints[0], n), packed(lb, &ints[1], n));
        let bf16 = |x: &[f32]| x.iter().map(|&v| HalfKind::Bf16.narrow(v)).collect::<Vec<u16>>();
        let (ab, bb) = (PanelLayout::BF16_A, PanelLayout::BF16_B);
        let (a16, b16) = (packed(ab, &bf16(&ints[0]), n), packed(bb, &bf16(&ints[1]), n));
        let (fa, fb) = (la.chunk(&a32, 0, 0, n, n), lb.chunk(&b32, 0, 0, n, n));
        let (ha, hb) = (ab.chunk(&a16, 0, 0, n, n), bb.chunk(&b16, 0, 0, n, n));
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut expect = vec![0.0f32; n * n];
        gemm_f32_f32(KernelVariant::Scalar, n, n, n, fa, fb, &mut expect);
        let mut out = vec![0.0f32; n * n];
        let simd = best_secs(reps, || gemm_f32_f32(v, n, n, n, fa, fb, &mut out));
        assert!(bits(&out) == bits(&expect), "f32 tile diverged from scalar");
        let amx = best_secs(reps, || gemm_bf16_f32(v, n, n, n, ha, hb, &mut out));
        assert!(bits(&out) == bits(&expect), "AMX bf16 call diverged from scalar");
        rows.push(row("bf16 f32-tile", simd, n, 1.0));
        rows.push(row("bf16 amx", amx, n, simd / amx));
    }
    rows.push("# every row returned the scalar bits".to_string());
    rows
}

fn main() {
    let (n, reps) = (128, if smoke() { 5 } else { 30 });
    let a = packed_slices(PanelLayout::I8_A, n, 3);
    let b = packed_slices(PanelLayout::I8_B, n, 4);
    let call = |v: KernelVariant, out: &mut [i32]| {
        let a = PanelLayout::I8_A.chunk(&a, 0, 0, n, n);
        let b = PanelLayout::I8_B.chunk(&b, 0, 0, n, n);
        gemm_i8_i32_simd(v, n, n, n, a, b, out);
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
        let best = best_secs(reps, || call(v, &mut out));
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
    lines.extend(f32_engine_rows(n, reps));
    lines.extend(amx_rows(n, reps, (&a, &b), &expect));

    // Measured record beside the modeled energy table: the host's own
    // int8 and f16 Ozaki call times at the benchmark's n = 128,
    // dispatched kernel, min of 5 calls.
    let am = ranged_matrix(n, n, 16.0, 25);
    let bm = ranged_matrix(n, n, 16.0, 26);
    let int8_ms = best_secs(5, || drop(ozaki_gemm(&am, &bm, &Int8Engine::default()))) * 1e3;
    let f16_ms = best_secs(5, || drop(ozaki_gemm(&am, &bm, &HostF16Engine::default()))) * 1e3;
    let me_ms = best_secs(5, || drop(ozaki_gemm(&am, &bm, &OzakiConfig::dgemm_tc()))) * 1e3;
    lines.push(format!(
        "# measured (record, not a gate): {} kernel, ozaki n={n} range 1e16: host-int8 {int8_ms:.2} ms, \
         host-f16 {f16_ms:.2} ms ({:.2}x host-int8), simulated-me {me_ms:.2} ms per call",
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
