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
//! AMX throughput on a shared host swings from second to second, so those
//! four calls are timed in windows spread over the whole run (between the
//! other sections), and each row reports its minimum over the windows and
//! its slowest window's best. Every panel lives in 64-byte-aligned
//! storage (`AlignedBuf`), as `ozaki_gemm_on` packs its slices.
//! `ozaki_int8.txt` ([`me_bench::artifact_path`]) also records the host's
//! measured Ozaki call times per substrate and the analytic A100 FP16-ME
//! vs INT8 energy table. The accuracy and energy claims are unit tests in
//! `me-ozaki` (`int8::tests`, `energy::tests`).

use me_bench::{artifact_path, smoke};
use me_linalg::{
    amx_bf16_supported, amx_int8_supported, available_variants, gemm_bf16_f32, gemm_f32_f32,
    gemm_i8_i32, gemm_i8_i32_simd, selected_kernel, vnni_supported, AlignedBuf, HalfKind,
    KernelVariant, PanelLayout, PanelWord,
};
use me_ozaki::perf::ranged_matrix;
use me_ozaki::{int8_vs_f16_rows, ozaki_gemm, HostF16Engine, Int8Engine, OzakiConfig};
use std::time::{Duration, Instant};

/// `n × n` deterministic i8 slice values on the Ozaki domain (|x| ≤ 64,
/// the β = 6 extraction bound — inside every kernel's exactness domain).
fn slice_values(n: usize, seed: u64) -> Vec<i8> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    (0..n * n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 129) as i64 - 64) as i8
        })
        .collect()
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

/// `n` lines of length `n` packed into `layout`, one chunk, in `buf`'s
/// 64-byte-aligned storage.
fn packed<'a, W: PanelWord>(
    buf: &'a mut AlignedBuf,
    layout: PanelLayout,
    values: &[W],
    n: usize,
) -> &'a [W] {
    let len = layout.len(n, n, n);
    buf.reserve_bytes(len * std::mem::size_of::<W>());
    let panel = buf.regions().take::<W>(len);
    panel.fill(layout.zero());
    for (li, line) in values.chunks(n).enumerate() {
        layout.put_line(panel, li, line, n);
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
    let (mut ba, mut bb) = (AlignedBuf::new(), AlignedBuf::new());
    let a = packed(&mut ba, la, &f32_values(n, 5), n);
    let b = packed(&mut bb, lb, &f32_values(n, 6), n);
    let call = |v: KernelVariant, out: &mut [f32]| {
        gemm_f32_f32(v, n, n, n, la.chunk(a, 0, 0, n, n), lb.chunk(b, 0, 0, n, n), out);
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

/// One timed row: name, best time, its op rate, a ratio, and the slowest
/// window's best time.
fn row(name: &str, best: f64, n: usize, ratio: f64, slowest: f64) -> String {
    let ops = 2.0 * (n * n * n) as f64 / best / 1e9;
    format!("{name:<16} {:>8.2} {ops:>7.2} {ratio:>16.2} {:>15.2}", best * 1e6, slowest * 1e6)
}

/// Windows the AMX-vs-SIMD calls are timed in, at least.
const AMX_WINDOWS: usize = 6;
/// Time between the starts of consecutive windows, at least (full runs):
/// the host's AMX throughput swings from second to second.
const WINDOW_GAP: Duration = Duration::from_millis(400);

/// The matrix engine against SIMD on one die: the int8 call on AMX against
/// the VNNI tile (the int8 panels and scalar result of the main section),
/// and the bf16 call on AMX against the f32 tile on integer slice values
/// in [−256, 256]. Each [`Self::window`] times all four calls, best of a
/// few each, checked bit for bit against scalar; [`Self::rows`] reports
/// each call's minimum over the windows. A record, not a gate.
struct AmxRows<'a> {
    n: usize,
    reps: usize,
    int8: (&'a [i8], &'a [i8], &'a [i32]),
    f32_panels: (&'a [f32], &'a [f32]),
    bf16_panels: (&'a [u16], &'a [u16]),
    f32_expect: Vec<u32>,
    /// Per window, best seconds of int8 vnni, int8 amx, bf16 on the f32
    /// tile and bf16 amx (`NaN` where the host lacks the call).
    windows: Vec<[f64; 4]>,
    /// Least time between window starts, and the last window's start.
    gap: Duration,
    last: Option<Instant>,
}

impl AmxRows<'_> {
    /// Time every call once more, `reps` calls each, back to back.
    fn window(&mut self) {
        if let Some(last) = self.last {
            std::thread::sleep(self.gap.saturating_sub(last.elapsed()));
        }
        self.last = Some(Instant::now());
        let (n, reps, v) = (self.n, self.reps, KernelVariant::Avx512);
        let mut best = [f64::NAN; 4];
        if amx_int8_supported() {
            let (a, b, expect) = self.int8;
            let (ca, cb) =
                (PanelLayout::I8_A.chunk(a, 0, 0, n, n), PanelLayout::I8_B.chunk(b, 0, 0, n, n));
            let mut out = vec![0i32; n * n];
            best[0] = best_secs(reps, || gemm_i8_i32_simd(v, n, n, n, ca, cb, &mut out));
            assert!(out == expect, "VNNI int8 call diverged from scalar");
            best[1] = best_secs(reps, || gemm_i8_i32(v, n, n, n, ca, cb, &mut out));
            assert!(out == expect, "AMX int8 call diverged from scalar");
        }
        if amx_bf16_supported() {
            let ((a32, b32), (a16, b16)) = (self.f32_panels, self.bf16_panels);
            let (la, lb, ab, bb) =
                (PanelLayout::F32_A, PanelLayout::F32_B, PanelLayout::BF16_A, PanelLayout::BF16_B);
            let (fa, fb) = (la.chunk(a32, 0, 0, n, n), lb.chunk(b32, 0, 0, n, n));
            let (ha, hb) = (ab.chunk(a16, 0, 0, n, n), bb.chunk(b16, 0, 0, n, n));
            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut out = vec![0.0f32; n * n];
            best[2] = best_secs(reps, || gemm_f32_f32(v, n, n, n, fa, fb, &mut out));
            assert!(bits(&out) == self.f32_expect, "f32 tile diverged from scalar");
            best[3] = best_secs(reps, || gemm_bf16_f32(v, n, n, n, ha, hb, &mut out));
            assert!(bits(&out) == self.f32_expect, "AMX bf16 call diverged from scalar");
        }
        self.windows.push(best);
    }

    /// Each call's minimum over the windows, the AMX speedup of the
    /// minima, and the slowest window's best.
    fn rows(&self) -> Vec<String> {
        if !amx_int8_supported() && !amx_bf16_supported() {
            return vec!["# host has no AMX: matrix-engine rows skipped".to_string()];
        }
        let n = self.n;
        let min = |c: usize| self.windows.iter().map(|w| w[c]).fold(f64::INFINITY, f64::min);
        let max = |c: usize| self.windows.iter().map(|w| w[c]).fold(0.0, f64::max);
        let mut rows = vec![
            format!(
                "# matrix engine (AMX) vs SIMD (avx512) engine call, {n}x{n}x{n} packed, \
                 min over {} windows spread over the run (best of {} per window)",
                self.windows.len(),
                self.reps
            ),
            "# call             time_us    gops  amx_speedup_vs_simd  slowest_window_us"
                .to_string(),
        ];
        let names = [
            ("int8 vnni", "int8 amx", amx_int8_supported()),
            ("bf16 f32-tile", "bf16 amx", amx_bf16_supported()),
        ];
        for (i, (simd, amx, on)) in names.into_iter().enumerate() {
            if on {
                let (s, a) = (min(2 * i), min(2 * i + 1));
                rows.push(row(simd, s, n, 1.0, max(2 * i)));
                rows.push(row(amx, a, n, s / a, max(2 * i + 1)));
            }
        }
        rows.push("# every row returned the scalar bits in every window".to_string());
        rows
    }
}

fn main() {
    let (n, reps) = (128, if smoke() { 5 } else { 30 });
    let mut bufs: [AlignedBuf; 8] = std::array::from_fn(|_| AlignedBuf::new());
    let [ba, bb, ba32, bb32, ba16, bb16, ..] = &mut bufs;
    let a = packed(ba, PanelLayout::I8_A, &slice_values(n, 3), n);
    let b = packed(bb, PanelLayout::I8_B, &slice_values(n, 4), n);
    let call = |v: KernelVariant, out: &mut [i32]| {
        let a = PanelLayout::I8_A.chunk(a, 0, 0, n, n);
        let b = PanelLayout::I8_B.chunk(b, 0, 0, n, n);
        gemm_i8_i32_simd(v, n, n, n, a, b, out);
    };
    let mut expect = vec![0i32; n * n];
    call(KernelVariant::Scalar, &mut expect);

    // The AMX-vs-SIMD calls: integer slice values in [−256, 256] as f32
    // and as bf16 panels, and the f32 tile's scalar bits on them.
    let ints: Vec<Vec<f32>> = [7u64, 8]
        .iter()
        .map(|&seed| f32_values(n, seed).iter().map(|x| (x * 256.0).round()).collect())
        .collect();
    let bf16 = |x: &[f32]| x.iter().map(|&v| HalfKind::Bf16.narrow(v)).collect::<Vec<u16>>();
    let (la, lb) = (PanelLayout::F32_A, PanelLayout::F32_B);
    let f32_panels = (packed(ba32, la, &ints[0], n), packed(bb32, lb, &ints[1], n));
    let bf16_a = packed(ba16, PanelLayout::BF16_A, &bf16(&ints[0]), n);
    let bf16_b = packed(bb16, PanelLayout::BF16_B, &bf16(&ints[1]), n);
    let mut f32_expect = vec![0.0f32; n * n];
    let (fa, fb) = (la.chunk(f32_panels.0, 0, 0, n, n), lb.chunk(f32_panels.1, 0, 0, n, n));
    gemm_f32_f32(KernelVariant::Scalar, n, n, n, fa, fb, &mut f32_expect);
    let mut amx = AmxRows {
        n,
        reps: (reps / 3).max(2),
        int8: (a, b, &expect),
        f32_panels,
        bf16_panels: (bf16_a, bf16_b),
        f32_expect: f32_expect.iter().map(|v| v.to_bits()).collect(),
        windows: Vec::new(),
        gap: if smoke() { Duration::ZERO } else { WINDOW_GAP },
        last: None,
    };
    amx.window();

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
    amx.window();
    lines.extend(f32_engine_rows(n, reps));
    amx.window();
    let amx_at = lines.len();

    // Measured record beside the modeled energy table: the host's own
    // int8 and f16 Ozaki call times at the benchmark's n = 128,
    // dispatched kernel, min of 5 calls.
    let am = ranged_matrix(n, n, 16.0, 25);
    let bm = ranged_matrix(n, n, 16.0, 26);
    let int8_ms = best_secs(5, || drop(ozaki_gemm(&am, &bm, &Int8Engine::default()))) * 1e3;
    amx.window();
    let f16_ms = best_secs(5, || drop(ozaki_gemm(&am, &bm, &HostF16Engine::default()))) * 1e3;
    amx.window();
    let me_ms = best_secs(5, || drop(ozaki_gemm(&am, &bm, &OzakiConfig::dgemm_tc()))) * 1e3;
    lines.push(format!(
        "# measured (record, not a gate): {} kernel, ozaki n={n} range 1e16: host-int8 {int8_ms:.2} ms, \
         host-f16 {f16_ms:.2} ms ({:.2}x host-int8), simulated-me {me_ms:.2} ms per call",
        selected_kernel().resolve_supported(),
        f16_ms / int8_ms
    ));

    lines.push(String::new());
    lines.push("# A100 emulated-DGEMM substrate comparison (n=8192, analytic model)".to_string());
    lines.push(
        "# config  range_1e  slices  products  tflops  watt  joules  gflops_per_j".to_string(),
    );
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
    while amx.windows.len() < AMX_WINDOWS {
        amx.window();
    }
    lines.splice(amx_at..amx_at, amx.rows());

    let path = artifact_path("ozaki_int8.txt");
    std::fs::write(&path, lines.join("\n") + "\n").expect("write ozaki_int8 artifact");
    println!("ozaki_int8: wrote {}", path.display());
}
