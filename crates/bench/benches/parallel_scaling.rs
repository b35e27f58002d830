//! Serial-vs-N-thread scaling of the zero-copy parallel execution layer.
//!
//! Sweeps `me_par::WorkerPool` widths over the tiled DGEMM (every width
//! runs the same packed micro-kernel on borrowed row-panel views, so the
//! results are bitwise identical to serial — asserted here) and over the
//! Ozaki-scheme GEMM, and reports the measured speedup next to the
//! Amdahl-law figure the execution model predicts for the same knob.
//!
//! `ME_BENCH_SMOKE=1` shrinks the problem sizes so CI can run this as a
//! fast release-mode gate; the full 512³ sweep is the acceptance run for
//! multicore hosts.
//!
//! `--trace` (or `ME_BENCH_TRACE=1`) records the whole sweep with
//! `me-trace`: per-worker `par.job` lanes, the GEMM pack/micro-kernel
//! phases, the Ozaki split/accumulate phases, plus a *modeled* V100 lane
//! (execution-model spans and an NVML-style power counter in simulated
//! time). The result is written to `artifacts/parallel_scaling_trace.json`
//! (Chrome `trace_event`, loadable in chrome://tracing or Perfetto) and
//! `artifacts/parallel_scaling_metrics.prom`, then re-parsed and
//! structurally validated in-process — CI fails if the emitted JSON does
//! not load or the expected lanes/spans are missing.

//! `--kernel scalar|avx2|avx512` pins the GEMM micro-kernel variant for
//! the whole sweep (otherwise `ME_KERNEL` / CPUID dispatch decides); the
//! active variant is printed up front and rides into the worker-lane spans
//! and `ukernel.<variant>` trace counters.

use me_bench::bench_matrix;
use me_engine::{catalog, EngineKind, ExecutionModel, GemmShape, HostParallelism, NumericFormat, PowerSampler};
use me_linalg::{gemm_parallel_on, gemm_tiled, selected_kernel, set_kernel_override, KernelVariant, Mat};
use me_numerics::{Seconds, Watts};
use me_ozaki::{ozaki_gemm, ozaki_gemm_on, OzakiConfig};
use me_par::WorkerPool;
use std::time::Instant;

const POOL_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Virtual lane name for the modeled-device timeline.
const MODELED_LANE: &str = "v100 (modeled)";

/// Span names the emitted trace must contain for the smoke gate to pass:
/// the pool, GEMM-phase, and Ozaki-phase instrumentation all have to be
/// visible in one timeline.
const REQUIRED_SPANS: [&str; 6] = [
    "par.job",
    "gemm.pack_a",
    "gemm.pack_b",
    "gemm.micro_kernel",
    "ozaki.split",
    "ozaki.accumulate",
];

/// Emit a modeled V100 timeline (execution-model spans + an NVML-style
/// power poll) on a virtual lane, sharing the trace with the measured
/// sweep above it.
fn emit_modeled_timeline(n: usize) {
    let model = ExecutionModel::new(catalog::v100());
    let shape = GemmShape::square(n);
    let mut t_ns = 0u64;
    for (name, engine, fmt) in [
        ("modeled.dgemm_simd", EngineKind::Simd, NumericFormat::F64),
        ("modeled.sgemm_simd", EngineKind::Simd, NumericFormat::F32),
        ("modeled.hgemm_tc", EngineKind::MatrixEngine, NumericFormat::F16xF32),
    ] {
        if let Ok(r) = model.gemm(shape, engine, fmt) {
            t_ns = r.emit_modeled_span(MODELED_LANE, name, t_ns);
        }
    }
    if let Ok(r) = model.gemm(shape, EngineKind::Simd, NumericFormat::F64) {
        let sampler = PowerSampler::new(Watts(model.device().idle_w));
        let power = sampler.trace_op("modeled_power_w", &r, Seconds(1.0), Seconds(0.2));
        power.emit_modeled_counters(MODELED_LANE);
    }
}

/// Snapshot, export, and structurally validate the trace; exits non-zero
/// on any violation so `ci.sh` catches a broken exporter.
fn write_and_validate_trace() {
    let trace = me_trace::take_snapshot();
    let json = trace.to_chrome_json();
    let prom = trace.to_prometheus();
    // Benches run with the package dir as cwd; anchor the output at the
    // workspace-root artifacts/ next to the other emitted artifacts.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = root.join("artifacts");
    let json_path = dir.join("parallel_scaling_trace.json");
    let prom_path = dir.join("parallel_scaling_metrics.prom");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&json_path, &json))
        .and_then(|()| std::fs::write(&prom_path, &prom));
    if let Err(e) = written {
        eprintln!("parallel_scaling: failed to write trace artifacts: {e}");
        std::process::exit(1);
    }
    let summary = match me_trace::validate_chrome_trace(&json) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("parallel_scaling: emitted Chrome trace is invalid: {e}");
            std::process::exit(1);
        }
    };
    // One lane per pool worker: the widest pool alone contributes
    // (width − 1) workers plus the submitting thread.
    let max_width = POOL_WIDTHS.iter().copied().max().unwrap_or(1);
    assert!(
        summary.measured_lanes.len() >= max_width,
        "expected >= {max_width} measured lanes, got {}",
        summary.measured_lanes.len()
    );
    for name in REQUIRED_SPANS {
        assert!(summary.span_names.contains(name), "trace is missing span '{name}'");
    }
    assert!(!summary.virtual_lanes.is_empty(), "modeled lane missing from trace");
    println!(
        "  trace: {} spans / {} counter samples on {} measured + {} modeled lanes",
        summary.complete_events,
        summary.counter_events,
        summary.measured_lanes.len(),
        summary.virtual_lanes.len()
    );
    println!("  trace: wrote {} and {}", json_path.display(), prom_path.display());
}

fn time<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f(); // warm-up
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    let smoke = std::env::var_os("ME_BENCH_SMOKE").is_some();
    // `--kernel <name>` / `--kernel=<name>` pins the dispatched micro-
    // kernel for the whole sweep (`ME_KERNEL` works too; the flag wins
    // because it is applied last, as a runtime override).
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
                    eprintln!("parallel_scaling: unknown --kernel {v:?} (want scalar|avx2|avx512)");
                    std::process::exit(2);
                }
            }
        }
    }
    println!(
        "parallel_scaling: dispatched kernel = {}",
        selected_kernel().resolve_supported()
    );
    let trace_requested = std::env::args().any(|a| a == "--trace")
        || std::env::var_os("ME_BENCH_TRACE").is_some();
    let trace_on = trace_requested && me_trace::compiled();
    if trace_requested && !me_trace::compiled() {
        eprintln!("parallel_scaling: built without the `trace` feature; running untraced");
    }
    if trace_on {
        me_trace::set_enabled(true);
    }
    let (n, reps) = if smoke { (96, 2) } else { (512, 3) };

    let a = bench_matrix(n, n, 1);
    let b = bench_matrix(n, n, 2);

    let mut c_ref = Mat::zeros(n, n);
    let serial = time(reps, || gemm_tiled(1.0, &a, &b, 0.0, &mut c_ref));
    println!(
        "parallel_scaling: {n}\u{00d7}{n}\u{00d7}{n} DGEMM, serial tiled {:.3} ms",
        serial * 1e3
    );
    for &t in &POOL_WIDTHS {
        let pool = WorkerPool::new(t);
        let mut c = Mat::zeros(n, n);
        let dt = time(reps, || gemm_parallel_on(&pool, 1.0, &a, &b, 0.0, &mut c));
        let bitwise = c.as_slice() == c_ref.as_slice();
        assert!(bitwise, "parallel result diverged from serial at {t} threads");
        println!(
            "  gemm   threads={t}  time={:>9.3} ms  speedup={:>5.2}x  bitwise=ok",
            dt * 1e3,
            serial / dt
        );
    }

    // Ozaki-scheme scaling: per-line splits + row-panel accumulation both
    // fan over the pool.
    let on = if smoke { 24 } else { 96 };
    let oa = bench_matrix(on, on, 3);
    let ob = bench_matrix(on, on, 4);
    let cfg = OzakiConfig::dgemm_tc();
    let oref = ozaki_gemm(&oa, &ob, &cfg);
    let oserial = time(reps, || {
        let _ = ozaki_gemm(&oa, &ob, &cfg);
    });
    println!("  ozaki  {on}\u{00d7}{on}\u{00d7}{on} serial {:.3} ms", oserial * 1e3);
    for &t in &POOL_WIDTHS {
        let pool = WorkerPool::new(t);
        let mut last = None;
        let dt = time(reps, || {
            last = Some(ozaki_gemm_on(&oa, &ob, &cfg, selected_kernel(), Some(&pool)));
        });
        if let Some(r) = last {
            assert!(
                r.c.as_slice() == oref.c.as_slice(),
                "ozaki parallel result diverged from serial at {t} threads"
            );
        }
        println!(
            "  ozaki  threads={t}  time={:>9.3} ms  speedup={:>5.2}x  bitwise=ok",
            dt * 1e3,
            oserial / dt
        );
    }

    let knob = HostParallelism::auto();
    println!(
        "  modeled: Amdahl speedup at {} threads (f=0.95) = {:.2}x",
        knob.effective(),
        knob.modeled_speedup(0.95)
    );

    if trace_on {
        emit_modeled_timeline(n);
        write_and_validate_trace();
    }
}
