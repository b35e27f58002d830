//! `dgemm`: the native DGEMM baseline of Table II.
//!
//! A square f64 GEMM of order [`N`] on the startup-selected kernel,
//! through `gemm_parallel_on` on a [`THREADS`]-wide worker pool, one
//! call after another (closed loop). Every output is checked bitwise
//! against the serial `gemm_tiled_with` result.

use std::time::{Duration, Instant};

use me_linalg::{
    blocking_for, gemm_parallel_on, gemm_tiled_prepacked_with, gemm_tiled_with, pack_b_matrix,
    selected_kernel, Mat,
};
use me_numerics::Rng64;
use me_par::WorkerPool;

use crate::host::{peak_rss_mib, CpuClock, StateSampler, StealClock};
use crate::metrics::Report;
use crate::stats::{mean, median, median_time, quantile};
use crate::trace::{self, Breakdown};
use crate::{busy_share, report_trace, time_setups, trace_path, Args, Phase};

/// Matrix order.
const N: usize = 1024;
/// Pool width: one executor per vCPU of the reference host.
const THREADS: usize = 2;
/// Calls per single-thread layer probe.
const PROBE_CALLS: usize = 5;

const FLOPS: f64 = 2.0 * (N * N * N) as f64;

pub fn run(args: &Args) -> Report {
    let mut rng = Rng64::seed_from_u64(args.seed ^ 0x4447_454d_4d00_0001);
    let a = Mat::from_fn(N, N, |_, _| rng.range_f64(-1.0, 1.0));
    let b = Mat::from_fn(N, N, |_, _| rng.range_f64(-1.0, 1.0));
    let kernel = selected_kernel();
    let mut c_ref = Mat::zeros(N, N);
    gemm_tiled_with(kernel, 1.0, &a, &b, 0.0, &mut c_ref);

    let mut report = Report::default();
    // The output is the benchmark's, so its first touch is not set-up.
    let mut c = c_ref.clone();
    let (setup_s, pool) = time_setups(|| {
        let pool = WorkerPool::new(THREADS);
        gemm_parallel_on(&pool, 1.0, &a, &b, 0.0, &mut c);
        pool
    });
    // The calling thread and the pool's worker run the GEMM.
    let clock = CpuClock::new(true, &["me-par-"]);
    report.check(clock.threads() == THREADS, || {
        format!("found {} GEMM threads", clock.threads())
    });
    let steal = StealClock::start();
    let run = |window, report: &mut Report| measure(&pool, &clock, &a, &b, &c_ref, window, report);
    if !args.trace {
        let sampler = StateSampler::start(clock.tids());
        let calls = run(args.measure, &mut report);
        let busy = busy_share(&mut report, sampler);
        // A call's time on two dedicated CPUs: its CPU time per thread,
        // stretched by the share of time the threads waited.
        let t = mean(&calls.cpu) / THREADS as f64 / busy;
        report.set("setup_s", setup_s);
        report.set("peak_rss_mib", peak_rss_mib());
        report.set("gflops", FLOPS / t / 1e9);
        report.set("req_per_s", 1.0 / t);
    } else {
        let phase = args.measure / 3;
        let sampler = StateSampler::start(clock.tids());
        let calls = run(phase, &mut report);
        let busy = busy_share(&mut report, sampler);
        report.set("busy_share", busy);
        let t0 = trace::start();
        let traced = run(phase, &mut report);
        let t1 = trace::stop();
        let spans = Breakdown::collect(t0, t1, &trace_path(args));
        report_trace(&mut report, &spans, &calls.phase, &traced.phase);
        let mut times = calls.wall;
        report.set("latency_p50_ms", median(&mut times) * 1e3);
        report.set("latency_p99_ms", quantile(&mut times, 0.99) * 1e3);
        report.set(
            "host.cpu_share",
            calls.cpu.iter().sum::<f64>() / (THREADS as f64 * calls.phase.wall_s),
        );

        let t_par = median(&mut times);
        let t_pack = median_time(PROBE_CALLS, || {
            drop(pack_b_matrix(&b, blocking_for(kernel)))
        });
        let packed = pack_b_matrix(&b, blocking_for(kernel));
        let mut c = Mat::zeros(N, N);
        let t_pre = median_time(PROBE_CALLS, || {
            gemm_tiled_prepacked_with(kernel, 1.0, &a, &packed, 0.0, &mut c)
        });
        report.check(same_bits(&c, &c_ref), || {
            "prepacked GEMM differs from gemm_tiled_with".into()
        });
        let t_1t = median_time(PROBE_CALLS, || {
            gemm_tiled_with(kernel, 1.0, &a, &b, 0.0, &mut c)
        });
        let bytes = (3 * N * N * std::mem::size_of::<f64>()) as f64;
        report.set("linalg.pack_b_ms", t_pack * 1e3);
        report.set("linalg.prepacked_1t_ms", t_pre * 1e3);
        report.set("linalg.gemm_1t_gflops", FLOPS / t_1t / 1e9);
        report.set("linalg.flops", FLOPS);
        report.set("linalg.bytes_computed", bytes);
        report.set("linalg.flops_per_byte", FLOPS / bytes);
        report.set("par.efficiency", t_1t / (THREADS as f64 * t_par));
    }
    report.steal_share = steal.share();
    report
}

/// Per-call times of one measured phase.
struct Calls {
    /// Wall time, s.
    wall: Vec<f64>,
    /// CPU time of both GEMM threads together, s.
    cpu: Vec<f64>,
    phase: Phase,
}

/// Closed loop of parallel GEMM calls for `window`.
fn measure(
    pool: &WorkerPool,
    clock: &CpuClock,
    a: &Mat<f64>,
    b: &Mat<f64>,
    c_ref: &Mat<f64>,
    window: Duration,
    report: &mut Report,
) -> Calls {
    let mut c = Mat::zeros(N, N);
    let (mut wall, mut cpu) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < window {
        let c0: f64 = clock.read().iter().sum();
        let t = Instant::now();
        {
            let _s = trace::span("me-linalg", "gemm_parallel_on");
            gemm_parallel_on(pool, 1.0, a, b, 0.0, &mut c);
        }
        wall.push(t.elapsed().as_secs_f64());
        cpu.push(clock.read().iter().sum::<f64>() - c0);
        report.attempted += 1;
        let ok = {
            let _s = trace::span("bench", "check");
            same_bits(&c, c_ref)
        };
        report.check(ok, || "parallel GEMM differs from gemm_tiled_with".into());
    }
    let phase = Phase {
        ops: wall.len() as u64,
        wall_s: start.elapsed().as_secs_f64(),
    };
    Calls { wall, cpu, phase }
}

pub fn same_bits(x: &Mat<f64>, y: &Mat<f64>) -> bool {
    x.rows() == y.rows()
        && x.cols() == y.cols()
        && x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}
