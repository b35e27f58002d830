//! Batched-vs-unbatched serving throughput on a Table V-shaped request
//! mix, plus the prepacked-B weight-cache A/B.
//!
//! The workload is the serving-side version of the paper's utilization
//! argument: a stream of *small* GEMM requests (single- to few-row `A`
//! operands against per-app shared `B` weights) drawn from the nine
//! GEMM-bearing Table V proxy applications, weighted by their profiled
//! GEMM fractions. Individually these requests are far too small to fill
//! the packed kernel's tiles or amortize its B-pack; the question this
//! bench answers is how much of that loss the `me-serve` coalescing
//! layer buys back — and, since Issue 7, how much more the weight cache
//! recovers by packing each long-lived `B` exactly once instead of once
//! per batch.
//!
//! All arms run the *same* scheduler code; the unbatched arm pins
//! `batch_max = 1` (coalescing off) and the no-cache arm pins
//! `weight_cache_bytes = 0`, so each comparison isolates one layer. The
//! cached and no-cache arms replay the trace for several passes through
//! one persistent scheduler — steady-state inference traffic — so the
//! cache's one-time pack cost amortizes the way it would in a real
//! service. Acceptance gates, in order:
//!
//! 1. every result from every arm is bitwise identical to the serial
//!    `gemm_tiled_with` reference (the speedups are not bought with
//!    numerics),
//! 2. batched throughput ≥ 2x unbatched,
//! 3. the B-cache arm is at least as fast as the no-cache arm.
//!
//! The steady-state hit rate (≥ 90 %) is a `me-serve` test
//! (`weight_cache::cached_scheduler_matches_uncached_and_serial_bitwise`).
//! `ME_BENCH_SMOKE=1` shrinks the trace for the CI gate (and raises the
//! pass count so the cache arms still reach a steady state), and writes
//! the replay report to `target/bench-smoke/` ([`me_bench::artifact_path`]).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use me_bench::{artifact_path, bench_matrix, smoke};
use me_linalg::{gemm_tiled_with, KernelVariant, Mat};
use me_serve::{
    Job, Outcome, Scheduler, ServeConfig, StatsSnapshot, SubmitError, TenantId, Ticket,
};

/// One request of the trace: which app it models, its `A` operand, and
/// the index of the shared `B` it multiplies against.
struct TraceReq {
    app: &'static str,
    a: Arc<Mat<f64>>,
    bucket: usize,
}

/// Characteristic per-app panel sizes (k = n) for the request mix: each
/// proxy app multiplies against its own square "weights" operand, so the
/// trace carries nine distinct buckets of nine distinct shapes.
const APP_SHAPES: [usize; 9] = [96, 64, 80, 128, 112, 56, 72, 88, 104];

/// Build the weighted small-shape request trace from the Table V mix.
fn build_trace(total: usize, seed: u64) -> (Vec<TraceReq>, Vec<Arc<Mat<f64>>>) {
    let apps: Vec<(&'static str, f64)> = me_workloads::hpc::all_benchmarks()
        .iter()
        .filter(|b| b.gemm_weight() > 0.0)
        .map(|b| (b.name, b.gemm_weight()))
        .collect();
    assert!(!apps.is_empty(), "Table V must contribute GEMM-bearing apps");
    let weight_sum: f64 = apps.iter().map(|(_, w)| w).sum();
    let weights: Vec<Arc<Mat<f64>>> = (0..apps.len())
        .map(|i| {
            let k = APP_SHAPES[i % APP_SHAPES.len()];
            Arc::new(bench_matrix(k, k, 1000 + i as u64))
        })
        .collect();
    let mut rng = me_numerics::Rng64::seed_from_u64(seed);
    let trace = (0..total)
        .map(|i| {
            let mut pick = rng.range_f64(0.0, weight_sum);
            let mut bucket = 0;
            for (j, (_, w)) in apps.iter().enumerate() {
                bucket = j;
                pick -= w;
                if pick <= 0.0 {
                    break;
                }
            }
            let m = 1 + rng.range_usize(0, 2); // 1..=2 rows: inference-sized
            let k = weights[bucket].rows();
            TraceReq {
                app: apps[bucket].0,
                a: Arc::new(bench_matrix(m, k, 2000 + i as u64)),
                bucket,
            }
        })
        .collect();
    (trace, weights)
}

/// Push the trace through one persistent scheduler `passes` times
/// (submit all, drain all, repeat); returns the total wall time, the
/// final pass's per-request outputs (trace order), after checking the
/// scheduler's books are conserved.
fn run_arm(
    trace: &[TraceReq],
    weights: &[Arc<Mat<f64>>],
    variant: KernelVariant,
    batch_max: usize,
    cache_bytes: usize,
    passes: usize,
) -> (f64, Vec<Mat<f64>>) {
    let sched = Scheduler::new(ServeConfig {
        shards: 1,
        shard_threads: 1,
        queue_capacity: trace.len() + 1,
        batch_max,
        weight_cache_bytes: cache_bytes,
        ..Default::default()
    });
    let t0 = Instant::now();
    let mut outputs = Vec::new();
    for _ in 0..passes {
        let tickets: Vec<Ticket> = trace
            .iter()
            .map(|r| {
                sched
                    .submit(Job::gemm(
                        variant,
                        1.0,
                        Arc::clone(&r.a),
                        Arc::clone(&weights[r.bucket]),
                    ))
                    .expect("capacity covers the whole trace")
            })
            .collect();
        outputs = tickets
            .into_iter()
            .map(|t| match t.wait().outcome {
                Outcome::Ok(c) => c,
                other => panic!("request did not complete: {other:?}"),
            })
            .collect();
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "conservation broken: {stats:?}");
    (elapsed, outputs)
}

fn assert_bitwise(arm: &str, got: &[Mat<f64>], refs: &[Mat<f64>]) {
    for (i, (g, want)) in got.iter().zip(refs).enumerate() {
        assert!(
            g.as_slice() == want.as_slice(),
            "{arm} request {i} diverged bitwise from the serial reference"
        );
    }
}

fn main() {
    let smoke = smoke();
    // Smoke shrinks the trace but replays more passes, so the cache A/B
    // still compares steady states rather than the cold first pass.
    let (total, reps, passes) = if smoke { (400, 3, 10) } else { (4000, 2, 3) };
    // The cache A/B runs at a small coalescing window (one B-pack per
    // ~12 stacked rows — the regime the cache is for) and on the fastest
    // runnable kernel: on the slow scalar kernel compute drowns the
    // pack entirely (~1 % of a batch), so the A/B would measure noise.
    // The batching A/B below runs the scalar kernel at batch_max = 64.
    let cache_batch = 8;
    let fast = *me_linalg::available_variants().last().expect("scalar always runs");
    let (trace, weights) = build_trace(total, 42);
    let mut per_app: Vec<(&str, usize)> = Vec::new();
    for r in &trace {
        match per_app.iter_mut().find(|(n, _)| *n == r.app) {
            Some((_, c)) => *c += 1,
            None => per_app.push((r.app, 1)),
        }
    }
    per_app.sort_by(|x, y| y.1.cmp(&x.1));
    let mix: Vec<String> = per_app.iter().map(|(n, c)| format!("{n}:{c}")).collect();
    println!(
        "serve_throughput: {total} requests x {passes} passes, m in 1..=2, per-app k=n in 56..=128, Table V mix [{}]",
        mix.join(" ")
    );

    // Serial references: each request alone through the tiled kernel,
    // once per kernel variant the arms run on.
    let serial_refs = |variant: KernelVariant| -> Vec<Mat<f64>> {
        trace
            .iter()
            .map(|r| {
                let mut c = Mat::zeros(r.a.rows(), weights[r.bucket].cols());
                gemm_tiled_with(variant, 1.0, &r.a, &weights[r.bucket], 0.0, &mut c);
                c
            })
            .collect()
    };
    let t_ref = Instant::now();
    let refs = serial_refs(KernelVariant::Scalar);
    let refs_fast = serial_refs(fast);
    println!(
        "  serial reference loops (Scalar + {}): {:.3} s",
        fast.name(),
        t_ref.elapsed().as_secs_f64()
    );

    let mut best_unbatched = f64::INFINITY;
    let mut best_batched = f64::INFINITY;
    let mut best_nocache = f64::INFINITY;
    let mut best_cached = f64::INFINITY;
    for _ in 0..reps {
        let (t_u, out_u) = run_arm(&trace, &weights, KernelVariant::Scalar, 1, 0, 1);
        let (t_b, out_b) = run_arm(&trace, &weights, KernelVariant::Scalar, 64, 0, 1);
        let (t_n, out_n) = run_arm(&trace, &weights, fast, cache_batch, 0, passes);
        let (t_c, out_c) = run_arm(&trace, &weights, fast, cache_batch, 64 << 20, passes);
        assert_bitwise("unbatched", &out_u, &refs);
        assert_bitwise("batched", &out_b, &refs);
        assert_bitwise("batched no-cache", &out_n, &refs_fast);
        assert_bitwise("batched B-cache", &out_c, &refs_fast);
        best_unbatched = best_unbatched.min(t_u);
        best_batched = best_batched.min(t_b);
        best_nocache = best_nocache.min(t_n / passes as f64);
        best_cached = best_cached.min(t_c / passes as f64);
    }
    let speedup_batch = best_unbatched / best_batched;
    let speedup_cache = best_nocache / best_cached;
    println!(
        "  unbatched (batch_max=1):       {:>8.1} req/s  ({:.3} s/pass)",
        total as f64 / best_unbatched,
        best_unbatched
    );
    println!(
        "  batched  (batch_max=64):       {:>8.1} req/s  ({:.3} s/pass)  speedup={speedup_batch:.2}x  bitwise=ok",
        total as f64 / best_batched,
        best_batched
    );
    println!(
        "  {} batch={cache_batch}, no cache:  {:>8.1} req/s  ({:.3} s/pass)",
        fast.name(),
        total as f64 / best_nocache,
        best_nocache
    );
    println!(
        "  {} batch={cache_batch}, B-cache:   {:>8.1} req/s  ({:.3} s/pass)  vs no-cache={speedup_cache:.2}x  bitwise=ok",
        fast.name(),
        total as f64 / best_cached,
        best_cached
    );
    assert!(
        speedup_batch >= 2.0,
        "acceptance gate: batched serving must be >= 2x unbatched, measured {speedup_batch:.2}x"
    );
    assert!(
        speedup_cache >= 1.0,
        "acceptance gate: the B-cache arm must not lose to the no-cache arm, measured {speedup_cache:.2}x"
    );

    run_replay(smoke, fast);
}

// ---------------------------------------------------------------------
// Million-request multi-tenant open-loop replay (Issue 9 tentpole gate).
//
// Five model-shaped tenants (attention + MLP GEMM shapes from the
// aiter model-GEMM runner, scaled 1/64 at TP = 8, skinny-m dominant)
// drive a Poisson-ish arrival curve against the scheduler, at 60 % of
// the closed-loop rate measured by best-of-CAL_REPS calibration bursts.
// Two in-bench gates:
//
//   1. latency SLO — open-loop p99 at 60 % of calibrated capacity stays
//      under max(250 ms, 3 × closed-loop p99);
//   2. conservation — enqueued == ok + timed_out + shed + failed,
//      globally and per tenant, with upstream (QueueFull) rejections
//      accounted separately.
//
// The replay writes its report to serve_replay.txt (artifact_path)
// before asserting the gates, so a failed gate still leaves the evidence.
// ---------------------------------------------------------------------

/// One tenant: a serving model whose GEMM mix this tenant replays.
/// Shapes derive from (attention_head, kv_head, head_dim,
/// intermediate_size) at TP = 8, all feature dimensions scaled 1/64.
struct ModelTenant {
    name: &'static str,
    heads: usize,
    kv_heads: usize,
    head_dim: usize,
    intermediate: usize,
    /// Weighted-fair admission share for this tenant.
    weight: u64,
}

const MODELS: [ModelTenant; 5] = [
    ModelTenant {
        name: "Qwen3-32B",
        heads: 64,
        kv_heads: 8,
        head_dim: 80,
        intermediate: 25600,
        weight: 4,
    },
    ModelTenant {
        name: "Qwen3-30B",
        heads: 16,
        kv_heads: 16,
        head_dim: 128,
        intermediate: 6144,
        weight: 3,
    },
    ModelTenant {
        name: "Qwen3-235B",
        heads: 32,
        kv_heads: 32,
        head_dim: 128,
        intermediate: 12288,
        weight: 2,
    },
    ModelTenant {
        name: "Llama3-70B",
        heads: 64,
        kv_heads: 8,
        head_dim: 128,
        intermediate: 28672,
        weight: 2,
    },
    ModelTenant {
        name: "Llama3-405B",
        heads: 128,
        kv_heads: 8,
        head_dim: 128,
        intermediate: 53248,
        weight: 1,
    },
];

/// Feature-dimension scale: hidden sizes shrink 1/64 so the replay's
/// GEMMs are service-sized on this container while keeping the models'
/// relative proportions.
const SCALE: usize = 64;
const TP: usize = 8;

impl ModelTenant {
    /// (k, n) for the two GEMM families the tenant replays: the fused
    /// QKV attention projection and the MLP up-projection, both sharded
    /// over TP ranks and scaled by [`SCALE`].
    fn shapes(&self) -> [(usize, usize); 2] {
        let hidden = self.heads * self.head_dim;
        let k = (hidden / SCALE).max(8);
        let qkv = (self.heads + 2 * self.kv_heads) * self.head_dim;
        let n_attn = (qkv / TP / (SCALE / TP)).max(8);
        let n_mlp = (self.intermediate / TP / (SCALE / TP)).max(8);
        [(k, n_attn), (k, n_mlp)]
    }
}

/// The skinny-m mix that dominates serving traffic (decode + small
/// prefill), per the aiter runner's M sweep lower end.
const SKINNY_M: [usize; 4] = [1, 2, 4, 8];

/// The full M sweep on the canonical (k = n = 128) shape: each power of
/// two appears exactly once per replay, spread evenly through the trace.
fn sweep_ms(cap: usize) -> Vec<usize> {
    (0..).map(|i| 1usize << i).take_while(|&m| m <= cap).collect()
}

const CANONICAL_K: usize = 128;
const CANONICAL_N: usize = 128;

/// Everything fixed about one replay request, derivable from its index:
/// tenant, shape, and the seed for its `A` operand. `A` itself is
/// generated at submit time (a million prebuilt operands would not fit).
#[derive(Clone, Copy)]
struct ReqSpec {
    tenant: u32,
    /// Index into the prebuilt weight set; `usize::MAX` = canonical sweep.
    bucket: usize,
    m: usize,
    k: usize,
}

/// Deterministic request mix: tenant by weighted share of traffic,
/// shape uniformly between the tenant's two families, skinny m; every
/// `total / sweep_len`-th request is the next canonical M-sweep point.
fn replay_spec(i: usize, total: usize, sweep: &[usize], rng: &mut me_numerics::Rng64) -> ReqSpec {
    let stride = (total / sweep.len()).max(1);
    if i % stride == 0 && i / stride < sweep.len() {
        return ReqSpec {
            tenant: (i / stride % MODELS.len()) as u32,
            bucket: usize::MAX,
            m: sweep[i / stride],
            k: CANONICAL_K,
        };
    }
    let tenant = rng.range_usize(0, MODELS.len());
    let fam = rng.range_usize(0, 2);
    let m = SKINNY_M[rng.range_usize(0, SKINNY_M.len())];
    let (k, _n) = MODELS[tenant].shapes()[fam];
    ReqSpec { tenant: tenant as u32, bucket: tenant * 2 + fam, m, k }
}

/// Build the shared weight (B) operands: two per tenant plus the
/// canonical sweep shape at the end.
fn replay_weights() -> Vec<Arc<Mat<f64>>> {
    let mut weights = Vec::new();
    for (t, model) in MODELS.iter().enumerate() {
        for (f, (k, n)) in model.shapes().into_iter().enumerate() {
            weights.push(Arc::new(bench_matrix(k, n, 9_000 + (t * 2 + f) as u64)));
        }
    }
    weights.push(Arc::new(bench_matrix(CANONICAL_K, CANONICAL_N, 9_500)));
    weights
}

fn replay_job(spec: ReqSpec, weights: &[Arc<Mat<f64>>], variant: KernelVariant, seed: u64) -> Job {
    let bucket = if spec.bucket == usize::MAX { weights.len() - 1 } else { spec.bucket };
    let a = Arc::new(bench_matrix(spec.m, spec.k, seed));
    Job::gemm(variant, 1.0, a, Arc::clone(&weights[bucket])).with_tenant(TenantId(spec.tenant))
}

fn replay_config(capacity: usize) -> ServeConfig {
    ServeConfig {
        shards: 2,
        shard_threads: 2,
        queue_capacity: capacity,
        batch_max: 32,
        weight_cache_bytes: 64 << 20,
        tenant_weights: MODELS.iter().map(|m| m.weight).collect(),
        ..Default::default()
    }
}

/// Closed-loop calibration burst: `count` requests submitted flat-out,
/// drained in submission order. Returns (req/s, closed-loop p99 ns).
fn calibrate(
    count: usize,
    sweep: &[usize],
    weights: &[Arc<Mat<f64>>],
    variant: KernelVariant,
    seed: u64,
) -> (f64, u64) {
    let sched = Scheduler::new(replay_config(4096));
    let mut rng = me_numerics::Rng64::seed_from_u64(seed);
    let t0 = Instant::now();
    let mut pending: std::collections::VecDeque<Ticket> = std::collections::VecDeque::new();
    for i in 0..count {
        let spec = replay_spec(i, count, sweep, &mut rng);
        let job = replay_job(spec, weights, variant, seed ^ (i as u64) << 1);
        // Closed-ish loop: cap outstanding work at the queue depth so
        // calibration measures service rate, not queue-build rate.
        while pending.len() >= 2048 {
            let t = pending.pop_front().expect("nonempty");
            assert!(matches!(t.wait().outcome, Outcome::Ok(_)), "calibration request failed");
        }
        match sched.submit(job) {
            Ok(t) => pending.push_back(t),
            Err(e) => panic!("calibration burst overflowed the queue: {e}"),
        }
    }
    for t in pending {
        assert!(matches!(t.wait().outcome, Outcome::Ok(_)), "calibration request failed");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "calibration conservation: {stats:?}");
    assert_eq!(stats.enqueued, count as u64);
    (count as f64 / elapsed, stats.p99_ns)
}

/// Outcome tally sent back by the collector thread.
#[derive(Default)]
struct ReplayTally {
    ok: u64,
    timed_out: u64,
    shed: u64,
    failed: u64,
}

/// The open-loop replay: `total` requests, Poisson-ish arrivals at
/// `rate` req/s split over `SUBMITTERS` independent streams, against a
/// fresh scheduler. Returns (elapsed s, accepted, rejected,
/// tally, stats, per-tenant stats).
fn open_loop_replay(
    total: usize,
    rate: f64,
    sweep: &[usize],
    weights: &[Arc<Mat<f64>>],
    variant: KernelVariant,
) -> (f64, u64, u64, ReplayTally, StatsSnapshot, Vec<me_serve::TenantSnapshot>) {
    // Two paced streams: enough to exercise MPMC admission, few enough
    // that pacing overhead cannot starve the shard threads on the small
    // CPU budgets this bench must run under.
    const SUBMITTERS: usize = 2;
    let sched = Arc::new(Scheduler::new(replay_config(4096)));
    let (tx, rx) = std::sync::mpsc::channel::<Ticket>();
    let collector = std::thread::spawn(move || {
        let mut tally = ReplayTally::default();
        for t in rx {
            match t.wait().outcome {
                Outcome::Ok(_) => tally.ok += 1,
                Outcome::TimedOut => tally.timed_out += 1,
                Outcome::Shed => tally.shed += 1,
                Outcome::Failed(msg) => {
                    tally.failed += 1;
                    eprintln!("replay request failed: {msg}");
                }
            }
        }
        tally
    });
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for s in 0..SUBMITTERS {
        let sched = Arc::clone(&sched);
        let tx = tx.clone();
        let weights = weights.to_vec();
        let sweep = sweep.to_vec();
        let per = total / SUBMITTERS + usize::from(s < total % SUBMITTERS);
        let lambda = rate / SUBMITTERS as f64;
        handles.push(std::thread::spawn(move || {
            // Superposed per-submitter Poisson streams: exponential gaps
            // at rate λ/SUBMITTERS each.
            let mut rng = me_numerics::Rng64::seed_from_u64(0xAA77 + s as u64);
            let mut arr = me_numerics::Rng64::seed_from_u64(0x5151 ^ s as u64);
            let mut next = Instant::now();
            let mut accepted = 0u64;
            let mut rejected = 0u64;
            for i in 0..per {
                let gap = -(1.0 - arr.next_f64()).ln() / lambda;
                next += Duration::from_secs_f64(gap);
                let now = Instant::now();
                // Sleep-only pacing: once the schedule runs more than
                // ~2 ms ahead, sleep it off; below that, submit
                // immediately (micro-bursts). Sub-millisecond spinning
                // would burn the very cores the shards serve on, and an
                // overloaded open loop must not wait at all — the
                // backlog is the signal.
                if next > now + Duration::from_millis(2) {
                    std::thread::sleep(next - now);
                }
                let spec = replay_spec(s + i * SUBMITTERS, total, &sweep, &mut rng);
                let job = replay_job(spec, &weights, variant, (s as u64) << 40 | i as u64);
                match sched.submit(job) {
                    Ok(t) => {
                        accepted += 1;
                        tx.send(t).expect("collector alive");
                    }
                    // Upstream shed: the open loop drops what a full
                    // queue rejects, and accounts for it separately.
                    Err(SubmitError::QueueFull) => rejected += 1,
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
            (accepted, rejected)
        }));
    }
    drop(tx);
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for h in handles {
        let (a, r) = h.join().expect("submitter panicked");
        accepted += a;
        rejected += r;
    }
    let tally = collector.join().expect("collector panicked");
    let elapsed = t0.elapsed().as_secs_f64();
    let tenants = sched.tenant_stats();
    let sched = Arc::try_unwrap(sched).map_err(|_| "threads joined").expect("sole owner");
    let stats = sched.shutdown();
    (elapsed, accepted, rejected, tally, stats, tenants)
}

fn run_replay(smoke: bool, variant: KernelVariant) {
    let (total, cal_count, cal_reps, sweep_cap) =
        if smoke { (10_000, 4_000, 3, 1_024) } else { (1_000_000, 20_000, 3, 32_768) };
    let sweep = sweep_ms(sweep_cap);
    let weights = replay_weights();
    println!(
        "serve_replay: {total} requests, {} tenants, skinny m {SKINNY_M:?}, M sweep 1..={sweep_cap}",
        MODELS.len()
    );

    // Calibration: best-of-N closed-loop service rate.
    let mut rate_closed = 0.0f64;
    let mut p99_closed = u64::MAX;
    for rep in 0..cal_reps {
        let (rate, p99) = calibrate(cal_count, &sweep, &weights, variant, 200 + rep);
        rate_closed = rate_closed.max(rate);
        p99_closed = p99_closed.min(p99);
    }
    println!(
        "  calibration (best of {cal_reps}): {rate_closed:.0} req/s, closed-loop p99 {:.2} ms",
        p99_closed as f64 / 1e6
    );

    // Gate 1 SLO: generous floor, or 3x the closed-loop p99, whichever
    // is larger.
    let slo_ns = (3 * p99_closed).max(250_000_000);

    // The replay proper: open loop at 60 % of the calibrated capacity.
    let rate = 0.6 * rate_closed;
    let (elapsed, accepted, rejected, tally, stats, tenants) =
        open_loop_replay(total, rate, &sweep, &weights, variant);
    let achieved = accepted as f64 / elapsed;
    println!(
        "  open loop: {total} arrivals at {rate:.0}/s target -> {achieved:.0}/s served in {elapsed:.1} s \
         ({accepted} accepted, {rejected} upstream-shed), p99 {:.2} ms (SLO {:.0} ms)",
        stats.p99_ns as f64 / 1e6,
        slo_ns as f64 / 1e6
    );

    // Write the report before asserting, so failures leave evidence.
    let mut report = String::new();
    let _ = writeln!(report, "# serve_replay report");
    let _ = writeln!(report, "mode: {}", if smoke { "smoke" } else { "full" });
    let _ = writeln!(report, "requests: {total}");
    let _ = writeln!(report, "kernel: {}", variant.name());
    let _ = writeln!(report, "skinny_m: {SKINNY_M:?}");
    let _ = writeln!(report, "m_sweep: 1..={sweep_cap} (powers of two, once each)");
    let _ = writeln!(report, "\n## tenants (weight, attention kxn, mlp kxn)");
    for (t, m) in MODELS.iter().enumerate() {
        let [attn, mlp] = m.shapes();
        let _ = writeln!(
            report,
            "tenant {t} {}: weight {}, attn {}x{}, mlp {}x{}",
            m.name, m.weight, attn.0, attn.1, mlp.0, mlp.1
        );
    }
    let _ = writeln!(report, "\n## calibration (closed loop, best of {cal_reps})");
    let _ = writeln!(report, "closed_loop_rate_rps: {rate_closed:.1}");
    let _ = writeln!(report, "closed_loop_p99_ms: {:.3}", p99_closed as f64 / 1e6);
    let _ = writeln!(report, "\n## open loop replay (60% of calibrated capacity)");
    let _ = writeln!(report, "target_rate_rps: {rate:.1}");
    let _ = writeln!(report, "achieved_rate_rps: {achieved:.1}");
    let _ = writeln!(report, "elapsed_s: {elapsed:.2}");
    let _ = writeln!(report, "accepted: {accepted}");
    let _ = writeln!(report, "upstream_shed_queue_full: {rejected}");
    let _ = writeln!(
        report,
        "outcomes: ok {} timed_out {} shed {} failed {}",
        tally.ok, tally.timed_out, tally.shed, tally.failed
    );
    let _ = writeln!(
        report,
        "latency_ms: p50 {:.3} p95 {:.3} p99 {:.3} (SLO {:.1})",
        stats.p50_ns as f64 / 1e6,
        stats.p95_ns as f64 / 1e6,
        stats.p99_ns as f64 / 1e6,
        slo_ns as f64 / 1e6
    );
    let _ = writeln!(report, "\n## per-tenant books");
    for ts in &tenants {
        let _ = writeln!(
            report,
            "tenant {} ({}): enqueued {} ok {} timed_out {} shed {} failed {} conserved {}",
            ts.tenant,
            MODELS[ts.tenant as usize % MODELS.len()].name,
            ts.enqueued,
            ts.completed_ok,
            ts.timed_out,
            ts.shed,
            ts.failed,
            ts.is_conserved()
        );
    }
    let _ = writeln!(report, "\n## gates");
    let gate_slo = stats.p99_ns <= slo_ns;
    let gate_conserved = stats.is_conserved()
        && stats.enqueued == accepted
        && stats.rejected_full == rejected
        && tenants.iter().all(|t| t.is_conserved())
        && tenants.iter().map(|t| t.enqueued).sum::<u64>() == stats.enqueued;
    let _ = writeln!(report, "p99_within_slo: {gate_slo}");
    let _ = writeln!(report, "conservation_exact: {gate_conserved}");
    let path = artifact_path("serve_replay.txt");
    std::fs::write(&path, &report).expect("write replay report");
    println!("  report: {}", path.display());

    assert!(
        gate_slo,
        "replay gate: open-loop p99 {:.2} ms exceeded the SLO {:.2} ms at 60% load",
        stats.p99_ns as f64 / 1e6,
        slo_ns as f64 / 1e6
    );
    assert!(
        gate_conserved,
        "replay gate: conservation broken: accepted {accepted} rejected {rejected} {stats:?} {tenants:?}"
    );
    assert_eq!(
        tally.ok + tally.timed_out + tally.shed + tally.failed,
        accepted,
        "replay gate: collector tally must cover every accepted request"
    );
}
