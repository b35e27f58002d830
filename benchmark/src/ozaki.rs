//! `ozaki`: emulated DGEMM (Table VIII) on each substrate.
//!
//! `ozaki_gemm_backend` at DGEMM-equivalent accuracy, serial, on one
//! fixed Table VIII input range, through the three `OzakiBackend`
//! constructors. Calls go to whichever substrate has had the least
//! measured time so far, so each substrate gets an equal share of the
//! window and drift hits all three alike.
//!
//! A substrate's call time is its mean: CPU time over calls. A shared
//! host switches between a quiet and a contended state that each last
//! seconds; on a 2-vCPU Sapphire Rapids guest contention slowed host-int8
//! calls 1.5 to 1.65 times, host-f16 1.3 to 1.4 and simulated-me about
//! 1.1, though CPU time excludes steal. So the per-call times of a run
//! are bimodal, and their median jumps from one mode to the other with
//! the share of the run spent contended, where the mean moves in
//! proportion to it.

use std::time::{Duration, Instant};

use me_linalg::{gemm_tiled_with, selected_kernel, Mat};
use me_numerics::max_rel_err;
use me_ozaki::perf::ranged_matrix;
use me_ozaki::{ozaki_gemm_backend, split_cols, split_rows, OzakiBackend, OzakiReport};

use crate::dgemm::same_bits;
use crate::host::{peak_rss_mib, CpuClock, StateSampler, StealClock};
use crate::metrics::{Report, SUBSTRATES};
use crate::stats::{mean, median, quantile};
use crate::trace::{self, Breakdown};
use crate::{busy_share, report_trace, time_setups, trace_path, Args, Phase};

/// Matrix order.
const N: usize = 128;
/// Input range 10^16, the middle of Table VIII's three ranges.
const DECADES: f64 = 16.0;
/// DGEMM-grade bound on the elementwise relative error against the
/// native DGEMM result.
const MAX_REL_ERR: f64 = 1e-12;
/// Calls per split probe.
const PROBE_CALLS: usize = 9;
/// The library's split and accumulate spans of every substrate; the
/// rest of a call's time is slice-pack and slice products.
const SPLIT_ACCUMULATE: [&str; 6] = [
    "ozaki.split",
    "ozaki.accumulate",
    "ozaki.int8.split",
    "ozaki.int8.accumulate",
    "ozaki.host_f16.split",
    "ozaki.host_f16.accumulate",
];

const FLOPS: f64 = 2.0 * (N * N * N) as f64;

fn backends() -> [OzakiBackend; 3] {
    [
        OzakiBackend::dgemm_tc(),
        OzakiBackend::host_int8(),
        OzakiBackend::host_f16(),
    ]
}

pub fn run(args: &Args) -> Report {
    let a = ranged_matrix(N, N, DECADES, args.seed.wrapping_mul(2));
    let b = ranged_matrix(N, N, DECADES, args.seed.wrapping_mul(2).wrapping_add(1));
    let mut report = Report::default();

    // Reference results: native DGEMM, and each substrate's own product,
    // which every later call must reproduce bit for bit.
    let mut native = Mat::zeros(N, N);
    gemm_tiled_with(selected_kernel(), 1.0, &a, &b, 0.0, &mut native);
    let expected: Vec<OzakiReport> = backends()
        .iter()
        .map(|be| ozaki_gemm_backend(&a, &b, be))
        .collect();
    let errs: Vec<f64> = expected
        .iter()
        .map(|r| max_rel_err(r.c.as_slice(), native.as_slice()))
        .collect();
    for (s, &err) in SUBSTRATES.iter().zip(&errs) {
        report.check(err <= MAX_REL_ERR, || {
            format!("{s}: relative error {err:e} > {MAX_REL_ERR:e}")
        });
    }
    report.check(same_bits(&expected[2].c, &expected[0].c), || {
        "host-f16 result differs from simulated-me".into()
    });

    let (setup_s, backends) = time_setups(|| {
        let backends = backends();
        for be in &backends {
            ozaki_gemm_backend(&a, &b, be);
        }
        backends
    });
    let clock = CpuClock::new(true, &[]);
    let steal = StealClock::start();
    let run =
        |window, report: &mut Report| measure(&backends, &clock, &a, &b, &expected, window, report);
    if !args.trace {
        let sampler = StateSampler::start(clock.tids());
        let calls = run(args.measure, &mut report);
        let busy = busy_share(&mut report, sampler);
        let t = geomean(calls.cpu.iter().map(|ts| mean(ts))) / busy;
        report.set("setup_s", setup_s);
        report.set("peak_rss_mib", peak_rss_mib());
        report.set("gflops", FLOPS / t / 1e9);
        report.set("req_per_s", 1.0 / t);
    } else {
        let phase = args.measure / 3;
        let sampler = StateSampler::start(clock.tids());
        let mut calls = run(phase, &mut report);
        let busy = busy_share(&mut report, sampler);
        report.set("busy_share", busy);
        let t0 = trace::start();
        let traced = run(phase, &mut report);
        let t1 = trace::stop();
        let spans = Breakdown::collect(t0, t1, &trace_path(args));
        report_trace(&mut report, &spans, &calls.phase, &traced.phase);
        for s in SUBSTRATES {
            let products = spans.under(s, &SPLIT_ACCUMULATE);
            report.set(&format!("trace.ozaki.{s}.products_ms"), products);
        }
        let wall = &mut calls.wall;
        report.set(
            "latency_p50_ms",
            geomean(wall.iter_mut().map(|ts| median(ts))) * 1e3,
        );
        report.set(
            "latency_p99_ms",
            geomean(wall.iter_mut().map(|ts| quantile(ts, 0.99))) * 1e3,
        );
        let cpu_s: f64 = calls.cpu.iter().flatten().sum();
        report.set("host.cpu_share", cpu_s / calls.phase.wall_s);
        for (i, s) in SUBSTRATES.iter().enumerate() {
            let r = &expected[i];
            let t_call = mean(&calls.cpu[i]);
            let t_split = clock.median_of(PROBE_CALLS, || {
                drop((split_rows(&a, r.beta, r.s_a), split_cols(&b, r.beta, r.s_b)));
            });
            let set = |report: &mut Report, field: &str, v: f64| {
                report.set(&format!("ozaki.{s}.{field}"), v)
            };
            set(&mut report, "gflops", FLOPS / t_call / 1e9);
            set(&mut report, "split_ms", t_split * 1e3);
            set(&mut report, "products_ms", (t_call - t_split) * 1e3);
            set(&mut report, "slices", (r.s_a + r.s_b) as f64);
            set(&mut report, "products_computed", r.products_computed as f64);
            set(&mut report, "products_skipped", r.products_skipped as f64);
            set(&mut report, "max_rel_err", errs[i]);
        }
    }
    report.steal_share = steal.share();
    report
}

/// Per-substrate call times of one measured phase.
struct Calls {
    /// Wall time, s.
    wall: [Vec<f64>; 3],
    /// CPU time of the calling thread, s: the call's time on a dedicated
    /// CPU.
    cpu: [Vec<f64>; 3],
    phase: Phase,
}

/// Emulated GEMMs for `window`, each on the substrate with the least
/// CPU time so far.
fn measure(
    backends: &[OzakiBackend; 3],
    clock: &CpuClock,
    a: &Mat<f64>,
    b: &Mat<f64>,
    expected: &[OzakiReport],
    window: Duration,
    report: &mut Report,
) -> Calls {
    let mut calls = Calls {
        wall: Default::default(),
        cpu: Default::default(),
        phase: Phase {
            ops: 0,
            wall_s: 0.0,
        },
    };
    let mut spent = [0.0f64; 3];
    let start = Instant::now();
    // Every substrate gets at least one call, however short the window.
    while start.elapsed() < window || calls.cpu.iter().any(Vec::is_empty) {
        let i = (0..3)
            .min_by(|&x, &y| spent[x].total_cmp(&spent[y]))
            .unwrap_or(0);
        let c0 = clock.read()[0];
        let t = Instant::now();
        let r = {
            let _s = trace::span("me-ozaki", SUBSTRATES[i]);
            ozaki_gemm_backend(a, b, &backends[i])
        };
        calls.wall[i].push(t.elapsed().as_secs_f64());
        let cpu = clock.read()[0] - c0;
        calls.cpu[i].push(cpu);
        spent[i] += cpu;
        report.attempted += 1;
        let ok = {
            let _s = trace::span("bench", "check");
            same_bits(&r.c, &expected[i].c)
        };
        report.check(ok, || {
            format!("{}: result differs from its first call", SUBSTRATES[i])
        });
    }
    let ops = calls.wall.iter().map(Vec::len).sum::<usize>() as u64;
    calls.phase = Phase {
        ops,
        wall_s: start.elapsed().as_secs_f64(),
    };
    calls
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n.max(1) as f64).exp()
}
