//! End-to-end trace-layer integration: a real pool runs the instrumented
//! GEMM and Ozaki paths, a modeled timeline joins them, and the exported
//! Chrome JSON + Prometheus dump must validate with the expected lanes
//! and span names — the in-process version of the `parallel_scaling
//! --trace` CI gate.
//!
//! With the `trace` feature disabled the same binary instead asserts the
//! zero-overhead claim: the span guard is a zero-sized type, the API is
//! inert, and the instrumented kernels still produce bitwise-identical
//! results (nothing else could change: the probes compile to nothing).

use matrix_engines::prelude::*;
use matrix_engines::trace as me_trace;
use std::sync::Mutex;

/// Both tests drive the one global collector; the harness runs them on
/// separate threads, so they must serialize (and drain leftovers from
/// whichever ran first).
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn isolated() -> std::sync::MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    me_trace::set_enabled(false);
    let _ = me_trace::take_snapshot();
    guard
}

fn mk(m: usize, n: usize, seed: u64) -> Mat<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005) | 1;
    Mat::from_fn(m, n, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    })
}

/// Run the instrumented hot paths on a width-3 pool plus a modeled lane.
fn exercise_stack() {
    let pool = WorkerPool::new(3);

    // A deliberately slow batch first: each job parks ~1 ms, which dwarfs
    // the condvar wake-up latency, so the pool's workers (not just the
    // submitting thread) are guaranteed to claim jobs — the tiny GEMMs
    // below can otherwise be drained entirely by the submitter.
    let mut slots = vec![0u64; 16];
    pool.for_each_mut(&mut slots, |i, s| {
        std::thread::sleep(std::time::Duration::from_millis(1));
        *s = i as u64 + 1;
    });
    assert!(slots.iter().all(|&s| s > 0), "slow batch must cover every slot");

    let a = mk(48, 40, 1);
    let b = mk(40, 32, 2);
    let mut c = Mat::zeros(48, 32);
    matrix_engines::linalg::gemm_parallel_on(&pool, 1.0, &a, &b, 0.0, &mut c);

    let oa = mk(12, 10, 3);
    let ob = mk(10, 8, 4);
    let _ = matrix_engines::ozaki::ozaki_gemm_on(
        &oa,
        &ob,
        &OzakiConfig::dgemm_tc(),
        matrix_engines::linalg::selected_kernel(),
        Some(&pool),
    );

    // Modeled timeline: exec-model spans + an NVML-style power poll.
    let model = ExecutionModel::new(catalog::v100());
    let shape = GemmShape::square(2048);
    let mut t_ns = 0;
    for (name, engine, fmt) in [
        ("modeled.dgemm", EngineKind::Simd, NumericFormat::F64),
        ("modeled.hgemm_tc", EngineKind::MatrixEngine, NumericFormat::F16xF32),
    ] {
        let r = model.gemm(shape, engine, fmt).expect("v100 supports this mode");
        t_ns = r.emit_modeled_span("v100 (modeled)", name, t_ns);
    }
    let r = model
        .gemm(shape, EngineKind::Simd, NumericFormat::F64)
        .expect("v100 supports f64 SIMD");
    let sampler = PowerSampler::new(matrix_engines::numerics::Watts(model.device().idle_w));
    let power = sampler.trace_op(
        "modeled_power_w",
        &r,
        matrix_engines::numerics::Seconds(1.0),
        matrix_engines::numerics::Seconds(0.2),
    );
    power.emit_modeled_counters("v100 (modeled)");
}

#[test]
fn traced_stack_exports_valid_chrome_json_and_prometheus() {
    let _lock = isolated();
    if !me_trace::compiled() {
        // --no-default-features build: the whole layer must be inert.
        assert_eq!(std::mem::size_of::<me_trace::SpanGuard>(), 0, "no-op guard must be a ZST");
        me_trace::set_enabled(true);
        assert!(!me_trace::is_enabled(), "runtime enable must be a no-op when compiled out");
        exercise_stack();
        assert!(me_trace::take_snapshot().is_empty(), "no-op collector must stay empty");
        return;
    }

    me_trace::set_enabled(true);
    exercise_stack();
    me_trace::set_enabled(false);
    let trace = me_trace::take_snapshot();

    // The three instrumented layers and the modeled lane are all present.
    let names = trace.span_names();
    for required in [
        "par.job",
        "gemm.pack_a",
        "gemm.pack_b",
        "gemm.micro_kernel",
        "ozaki.split",
        "ozaki.accumulate",
        "modeled.dgemm",
        "modeled.hgemm_tc",
    ] {
        assert!(names.contains(&required), "missing span '{required}' in {names:?}");
    }
    assert!(trace.counters.get("ozaki.products_computed").copied().unwrap_or(0) > 0);
    assert!(trace.counters.get("par.claims_worker").copied().unwrap_or(0) > 0);
    let qw = trace.hists.get("par.queue_wait_ns").cloned().unwrap_or_default();
    assert!(qw.count > 0 && qw.is_consistent());

    // The Chrome export round-trips through the validator with one lane
    // per pool worker (2 workers + the submitting test thread) and the
    // modeled lane on the virtual process.
    let summary = me_trace::validate_chrome_trace(&trace.to_chrome_json())
        .expect("emitted Chrome trace must validate");
    assert!(summary.measured_lanes.len() >= 3, "lanes: {:?}", summary.measured_lanes);
    assert!(
        summary.measured_lanes.values().filter(|n| n.starts_with("me-par-")).count() >= 2,
        "worker lanes must be named: {:?}",
        summary.measured_lanes
    );
    assert_eq!(summary.virtual_lanes.values().filter(|n| *n == "v100 (modeled)").count(), 1);
    assert!(summary.counter_events > 0, "power poll must appear as counter events");

    // Prometheus text dump carries the counters and the histogram with
    // the mandatory +Inf bucket.
    let prom = trace.to_prometheus();
    assert!(prom.contains("# TYPE par_claims_worker counter"));
    assert!(prom.contains("# TYPE par_queue_wait_ns histogram"));
    assert!(prom.contains("par_queue_wait_ns_bucket{le=\"+Inf\"}"));
    assert!(prom.contains("# TYPE ozaki_products_computed counter"));
}

#[test]
fn tracing_does_not_perturb_kernel_results() {
    // Bitwise identity of the instrumented kernels, with recording on:
    // the probes sit outside the FMA chains, so enabling tracing must
    // not change a single bit of the output (this is the runtime half of
    // the zero-overhead claim; the compile-time half is the ZST guard).
    let _lock = isolated();
    let a = mk(33, 29, 7);
    let b = mk(29, 21, 8);
    let mut c_off = Mat::zeros(33, 21);
    gemm(GemmAlgo::Parallel, 1.0, &a, &b, 0.0, &mut c_off);
    me_trace::set_enabled(true);
    let mut c_on = Mat::zeros(33, 21);
    gemm(GemmAlgo::Parallel, 1.0, &a, &b, 0.0, &mut c_on);
    me_trace::set_enabled(false);
    let _ = me_trace::take_snapshot();
    assert_eq!(c_off.as_slice(), c_on.as_slice(), "tracing changed kernel bits");
}
