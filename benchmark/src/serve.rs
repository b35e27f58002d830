//! `serve-decode` and `serve-mixed`: closed-loop request serving.
//!
//! One client thread keeps [`WINDOW`] requests in flight against a
//! `Scheduler` with one shard and a pool width of 1: a new request goes
//! out only when an earlier one has resolved. Requests are GEMMs of
//! five LLM tenants' attention and MLP projections (TP = 8, feature
//! dimensions scaled 1/64), weighted 4:3:2:2:1 for deficit round-robin,
//! with traffic shares equal to the weights.
//!
//! * `serve-decode`: skinny requests (m in {1, 2, 4, 8}) against one
//!   weight set per tenant, which fits the default weight cache.
//! * `serve-mixed`: the same, plus one prefill request (m in the
//!   hundreds) in every [`PREFILL_EVERY`], against [`MIXED_LAYERS`]
//!   weight sets per tenant with Zipf popularity, whose packed size
//!   exceeds the default cache.
//!
//! Operands come from fixed pools generated from the seed, and every
//! `Ok` result is checked bitwise (through a 64-bit digest) against the
//! serial `gemm_tiled_with` of the same operands.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use me_linalg::{
    gemm_tiled_prepacked_with, gemm_tiled_with, pack_b_matrix, selected_kernel, KernelVariant, Mat,
};
use me_numerics::Rng64;
use me_serve::{
    BucketKey, Job, Outcome, Scheduler, ServeConfig, StatsSnapshot, TenantId, Ticket, WeightCache,
    DEFAULT_WEIGHT_CACHE_BYTES,
};

use crate::host::{peak_rss_mib, thread_cpu_s, CpuClock, StateSampler, StealClock};
use crate::metrics::Report;
use crate::stats::{median, Hist};
use crate::trace::{self, Breakdown};
use crate::{busy_share, report_trace, time_setups, trace_path, Args, Phase};

/// Requests in flight: deep enough that the shard keeps a backlog while
/// the client waits to be woken (with 64, one run on a quiet host left
/// the shard idle a fifth of the time).
const WINDOW: usize = 256;
/// How long the client blocks on its oldest request before it sweeps
/// the window again; bounds how late a resolution is stamped.
const POLL: Duration = Duration::from_micros(100);
/// Completions per throughput window: two full prefill cycles.
const RATE_WINDOW: usize = 4000;
const SKINNY_M: [usize; 4] = [1, 2, 4, 8];
const PREFILL_M: [usize; 2] = [128, 256];
/// A operands per (tenant, skinny m).
const A_POOL: usize = 4;
/// One prefill request in this many on `serve-mixed`.
const PREFILL_EVERY: u64 = 100;
/// Weight sets per tenant on `serve-mixed`: about 97 MB of f64 weights,
/// 1.5 times the default 64 MiB weight cache.
const MIXED_LAYERS: usize = 28;
/// Requests in the single-thread GEMM probes.
const PROBE_REQUESTS: u64 = 2000;
/// Requests the client generates at a time, outside the time it is
/// charged for.
const GEN_BATCH: usize = 256;
/// Requests the traced phase issues at most, which bounds the spans
/// held in memory.
const TRACED_REQUESTS: u64 = 60_000;

/// One tenant: a serving model's GEMM shapes and its fair-share weight.
struct Model {
    heads: usize,
    kv_heads: usize,
    head_dim: usize,
    intermediate: usize,
    weight: u64,
}

/// Qwen3-32B, Qwen3-30B, Qwen3-235B, Llama3-70B, Llama3-405B.
const MODELS: [Model; 5] = [
    Model {
        heads: 64,
        kv_heads: 8,
        head_dim: 80,
        intermediate: 25600,
        weight: 4,
    },
    Model {
        heads: 16,
        kv_heads: 16,
        head_dim: 128,
        intermediate: 6144,
        weight: 3,
    },
    Model {
        heads: 32,
        kv_heads: 32,
        head_dim: 128,
        intermediate: 12288,
        weight: 2,
    },
    Model {
        heads: 64,
        kv_heads: 8,
        head_dim: 128,
        intermediate: 28672,
        weight: 2,
    },
    Model {
        heads: 128,
        kv_heads: 8,
        head_dim: 128,
        intermediate: 53248,
        weight: 1,
    },
];
const SCALE: usize = 64;
const TP: usize = 8;

impl Model {
    /// (k, n) of the fused QKV projection and the MLP up-projection.
    fn shapes(&self) -> [(usize, usize); 2] {
        let k = self.heads * self.head_dim / SCALE;
        let qkv = (self.heads + 2 * self.kv_heads) * self.head_dim;
        [(k, qkv / TP / (SCALE / TP)), (k, self.intermediate / SCALE)]
    }
}

/// The traffic mix of one serve workload.
pub struct Mix {
    layers: usize,
    /// Zipf exponent of layer popularity.
    zipf_s: f64,
    prefill: bool,
}

impl Mix {
    pub fn decode() -> Mix {
        Mix {
            layers: 1,
            zipf_s: 0.0,
            prefill: false,
        }
    }

    pub fn mixed() -> Mix {
        Mix {
            layers: MIXED_LAYERS,
            zipf_s: 1.0,
            prefill: true,
        }
    }
}

/// Everything generated from the seed before the program is touched.
struct Inputs {
    /// Index `(tenant * layers + layer) * 2 + family`.
    weights: Vec<Arc<Mat<f64>>>,
    /// Per tenant, the A operands: `SKINNY_M × A_POOL`, then `PREFILL_M`.
    a: Vec<Vec<Arc<Mat<f64>>>>,
    /// Digest of the serial product, index `weight * variants + a`.
    digests: Vec<u64>,
    variants: usize,
    layers: usize,
    layer_cdf: Vec<f64>,
    kernel: KernelVariant,
}

#[derive(Clone, Copy)]
struct Req {
    tenant: usize,
    weight: usize,
    variant: usize,
}

impl Inputs {
    fn generate(seed: u64, mix: &Mix) -> Inputs {
        let kernel = selected_kernel();
        let mut rng = Rng64::seed_from_u64(seed ^ 0x5345_5256_4500_0001);
        let mut fill =
            |r: usize, c: usize| Arc::new(Mat::from_fn(r, c, |_, _| rng.range_f64(-1.0, 1.0)));
        let mut weights = Vec::new();
        for model in &MODELS {
            for _ in 0..mix.layers {
                for (k, n) in model.shapes() {
                    weights.push(fill(k, n));
                }
            }
        }
        let prefill: &[usize] = if mix.prefill { &PREFILL_M } else { &[] };
        let a: Vec<Vec<Arc<Mat<f64>>>> = MODELS
            .iter()
            .map(|model| {
                let k = model.shapes()[0].0;
                let skinny = SKINNY_M
                    .iter()
                    .flat_map(|&m| std::iter::repeat_n(m, A_POOL));
                skinny
                    .chain(prefill.iter().copied())
                    .map(|m| fill(m, k))
                    .collect()
            })
            .collect();
        let variants = a[0].len();
        let layers = mix.layers;
        let mut digests = Vec::with_capacity(weights.len() * variants);
        for (w, b) in weights.iter().enumerate() {
            for x in &a[w / (2 * layers)] {
                let mut c = Mat::zeros(x.rows(), b.cols());
                gemm_tiled_with(kernel, 1.0, x, b, 0.0, &mut c);
                digests.push(digest(&c));
            }
        }
        let mut acc = 0.0;
        let mut layer_cdf: Vec<f64> = (0..layers)
            .map(|l| {
                acc += 1.0 / ((l + 1) as f64).powf(mix.zipf_s);
                acc
            })
            .collect();
        layer_cdf.iter_mut().for_each(|p| *p /= acc);
        Inputs {
            weights,
            a,
            digests,
            variants,
            layers,
            layer_cdf,
            kernel,
        }
    }

    fn job(&self, r: Req) -> Job {
        let a = Arc::clone(&self.a[r.tenant][r.variant]);
        Job::gemm(self.kernel, 1.0, a, Arc::clone(&self.weights[r.weight]))
            .with_tenant(TenantId(r.tenant as u32))
    }

    fn flops(&self, r: Req) -> f64 {
        let w = &self.weights[r.weight];
        2.0 * (self.a[r.tenant][r.variant].rows() * w.rows() * w.cols()) as f64
    }

    fn expected(&self, r: Req) -> u64 {
        self.digests[r.weight * self.variants + r.variant]
    }
}

/// The request stream: a pure function of the seed.
struct ReqGen {
    rng: Rng64,
    issued: u64,
    prefill: bool,
    /// Every (tenant, family, prefill m) in a seed-shuffled order; the
    /// prefill requests cycle through it, so each cycle carries the same
    /// prefill work whatever the seed.
    prefill_cycle: Vec<(usize, usize, usize)>,
}

impl ReqGen {
    fn new(seed: u64, mix: &Mix) -> ReqGen {
        let mut rng = Rng64::seed_from_u64(seed ^ 0x5245_5155_4553_5400);
        let mut prefill_cycle: Vec<(usize, usize, usize)> = (0..MODELS.len())
            .flat_map(|t| (0..2).flat_map(move |f| (0..PREFILL_M.len()).map(move |m| (t, f, m))))
            .collect();
        for i in (1..prefill_cycle.len()).rev() {
            prefill_cycle.swap(i, rng.range_usize(0, i + 1));
        }
        ReqGen {
            rng,
            issued: 0,
            prefill: mix.prefill,
            prefill_cycle,
        }
    }

    fn next(&mut self, inputs: &Inputs) -> Req {
        let i = self.issued;
        self.issued += 1;
        let u = self.rng.next_f64();
        let layer = inputs
            .layer_cdf
            .iter()
            .position(|&p| u < p)
            .unwrap_or(inputs.layers - 1);
        let (tenant, family, variant) = if self.prefill && i % PREFILL_EVERY == PREFILL_EVERY - 1 {
            let c = (i / PREFILL_EVERY) as usize % self.prefill_cycle.len();
            let (t, f, m) = self.prefill_cycle[c];
            (t, f, SKINNY_M.len() * A_POOL + m)
        } else {
            let total: u64 = MODELS.iter().map(|m| m.weight).sum();
            let mut pick = self.rng.range_usize(0, total as usize) as u64;
            let tenant = MODELS
                .iter()
                .position(|m| {
                    let hit = pick < m.weight;
                    pick = pick.saturating_sub(m.weight);
                    hit
                })
                .unwrap_or(0);
            (
                tenant,
                self.rng.range_usize(0, 2),
                self.rng.range_usize(0, SKINNY_M.len() * A_POOL),
            )
        };
        Req {
            tenant,
            weight: (tenant * inputs.layers + layer) * 2 + family,
            variant,
        }
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        shard_threads: 1,
        tenant_weights: MODELS.iter().map(|m| m.weight).collect(),
        ..ServeConfig::default()
    }
}

/// What the client keeps about a request in flight.
struct Meta {
    req: Req,
    /// Before `submit` was called.
    submit_at: Instant,
    /// When `submit` returned.
    admitted_at: Instant,
}

/// Where a throughput window opened.
#[derive(Clone, Copy)]
struct Mark {
    /// Client and shard CPU time, s.
    client: f64,
    shard: f64,
    /// Client CPU time spent on the benchmark's own work, s.
    bench: f64,
    completed: u64,
    flops: f64,
    at: Instant,
}

/// Samples of one measured phase, in memory that does not grow with
/// the request rate.
struct Samples {
    /// Submit to resolution.
    latency: Hist,
    /// `submit` returning to resolution.
    resolve: Hist,
    /// Time inside `submit`.
    submit: Hist,
    /// Over the closed windows: completions, flops, shard CPU, client
    /// program CPU and wall time, s.
    window_completed: u64,
    window_flops: f64,
    shard_cpu: f64,
    client_cpu: f64,
    window_wall: f64,
    /// Time the client spent blocked in `wait_timeout`, s.
    blocked: f64,
    /// Completions, sampled or not.
    completed: u64,
    wall: f64,
}

impl Samples {
    fn new() -> Samples {
        Samples {
            latency: Hist::new(1e-6, 1.0),
            resolve: Hist::new(1e-6, 1.0),
            submit: Hist::new(1e-8, 1e-3),
            window_completed: 0,
            window_flops: 0.0,
            shard_cpu: 0.0,
            client_cpu: 0.0,
            window_wall: 0.0,
            blocked: 0.0,
            completed: 0,
            wall: 0.0,
        }
    }
}

/// Outcome tallies, compared against the scheduler's own counters.
#[derive(Default)]
struct Tally {
    ok: u64,
    timed_out: u64,
    shed: u64,
    failed: u64,
    rejected: u64,
}

/// The closed loop for `window`, or until `max_requests` have gone out.
///
/// Throughput is the completions of the windows of at least
/// [`RATE_WINDOW`] completions each, over the program's CPU time in
/// them: the shard thread's and the client thread's (`clock` reads the
/// client first), less the client's own work (request generation,
/// checks, sample keeping), which is bracketed by reads of its CPU
/// clock. The first [`WINDOW`]
/// completions of a phase, and those after the window closes, are
/// checked but not sampled: they ran above or below the steady load.
#[allow(clippy::too_many_arguments)]
fn measure(
    sched: &Scheduler,
    clock: &CpuClock,
    inputs: &Inputs,
    gen: &mut ReqGen,
    window: Duration,
    max_requests: u64,
    report: &mut Report,
    tally: &mut Tally,
) -> Samples {
    let mut s = Samples::new();
    let mut inflight: VecDeque<(Ticket, Meta)> = VecDeque::with_capacity(WINDOW);
    let mut done: Vec<(Outcome, Meta, Instant)> = Vec::with_capacity(WINDOW);
    let mut pending: VecDeque<Req> = VecDeque::with_capacity(GEN_BATCH);
    let (mut flops, mut bench, mut issued) = (0.0, 0.0, 0u64);
    let mark = |completed, flops, bench| {
        let cpu = clock.read();
        Mark {
            client: cpu[0],
            shard: cpu[1],
            bench,
            completed,
            flops,
            at: Instant::now(),
        }
    };
    let mut open: Option<Mark> = None;
    let start = Instant::now();
    let deadline = start + window;
    loop {
        if Instant::now() < deadline && issued < max_requests {
            while inflight.len() < WINDOW {
                if pending.is_empty() {
                    let b0 = thread_cpu_s();
                    pending.extend((0..GEN_BATCH).map(|_| gen.next(inputs)));
                    bench += thread_cpu_s() - b0;
                }
                let req = pending.pop_front().expect("the batch is not empty");
                let job = inputs.job(req);
                let submit_at = Instant::now();
                let res = {
                    let _s = trace::span("me-serve", "submit");
                    sched.submit(job)
                };
                let admitted_at = Instant::now();
                issued += 1;
                report.attempted += 1;
                s.submit.record((admitted_at - submit_at).as_secs_f64());
                match res {
                    Ok(ticket) => inflight.push_back((
                        ticket,
                        Meta {
                            req,
                            submit_at,
                            admitted_at,
                        },
                    )),
                    Err(_) => {
                        tally.rejected += 1;
                        report.failed += 1;
                    }
                }
            }
        } else if inflight.is_empty() {
            break;
        }

        // Take every resolved request; if none has resolved, block on
        // the oldest for at most POLL.
        {
            let _s = trace::span("me-serve", "wait");
            let mut i = 0;
            while i < inflight.len() {
                if inflight[i].0.is_resolved() {
                    let (ticket, meta) = inflight.remove(i).expect("index is in range");
                    let at = Instant::now();
                    done.push((ticket.wait().outcome, meta, at));
                } else {
                    i += 1;
                }
            }
            if done.is_empty() {
                let (ticket, meta) = inflight.pop_front().expect("a request is in flight");
                let t = Instant::now();
                match ticket.wait_timeout(POLL) {
                    Ok(c) => {
                        let at = Instant::now();
                        s.blocked += (at - t).as_secs_f64();
                        done.push((c.outcome, meta, at));
                    }
                    Err(ticket) => {
                        s.blocked += t.elapsed().as_secs_f64();
                        inflight.push_front((ticket, meta));
                    }
                }
            }
        }

        if !done.is_empty() {
            let b0 = thread_cpu_s();
            let check_span = trace::span("bench", "check");
            for (outcome, meta, at) in done.drain(..) {
                let ok = match &outcome {
                    Outcome::Ok(c) => digest(c) == inputs.expected(meta.req),
                    _ => true,
                };
                report.check(ok, || "served result differs from the serial GEMM".into());
                match outcome {
                    Outcome::Ok(_) => tally.ok += 1,
                    Outcome::TimedOut => tally.timed_out += 1,
                    Outcome::Shed => tally.shed += 1,
                    Outcome::Failed(_) => tally.failed += 1,
                }
                if !matches!(outcome, Outcome::Ok(_)) {
                    report.failed += 1;
                }
                s.completed += 1;
                flops += inputs.flops(meta.req);
                if s.completed > WINDOW as u64 && at < deadline {
                    s.latency.record((at - meta.submit_at).as_secs_f64());
                    s.resolve.record((at - meta.admitted_at).as_secs_f64());
                }
            }
            drop(check_span);
            bench += thread_cpu_s() - b0;
        }

        if Instant::now() >= deadline || s.completed < WINDOW as u64 {
            continue;
        }
        match open {
            None => open = Some(mark(s.completed, flops, bench)),
            Some(o) if s.completed - o.completed >= RATE_WINDOW as u64 => {
                let m = mark(s.completed, flops, bench);
                let client = (m.client - o.client) - (m.bench - o.bench);
                s.window_completed += m.completed - o.completed;
                s.window_flops += m.flops - o.flops;
                s.shard_cpu += m.shard - o.shard;
                s.client_cpu += client;
                s.window_wall += (m.at - o.at).as_secs_f64();
                open = Some(m);
            }
            Some(_) => {}
        }
    }
    s.wall = start.elapsed().as_secs_f64();
    s
}

/// Digest of a result's bits (FNV-1a over the f64 words, row-major).
fn digest(c: &Mat<f64>) -> u64 {
    c.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Set-up's warm-up pass: one request for every (weight, skinny A)
/// pair, so every weight is packed once and every shape has run.
fn warm_up(sched: &Scheduler, inputs: &Inputs, report: &mut Report) {
    let mut inflight: VecDeque<(Ticket, Req)> = VecDeque::with_capacity(WINDOW);
    let settle = |ticket: Ticket, req: Req, report: &mut Report| {
        let ok = match ticket.wait().outcome {
            Outcome::Ok(c) => digest(&c) == inputs.expected(req),
            _ => false,
        };
        report.check(ok, || {
            "warm-up request failed or differs from the serial GEMM".into()
        });
    };
    for weight in 0..inputs.weights.len() {
        let tenant = weight / (2 * inputs.layers);
        for variant in 0..SKINNY_M.len() * A_POOL {
            let req = Req {
                tenant,
                weight,
                variant,
            };
            match sched.submit(inputs.job(req)) {
                Ok(t) => inflight.push_back((t, req)),
                Err(e) => report.check(false, || format!("warm-up submit refused: {e}")),
            }
            if inflight.len() == WINDOW {
                let (t, r) = inflight.pop_front().expect("window is full");
                settle(t, r, report);
            }
        }
    }
    for (t, r) in inflight {
        settle(t, r, report);
    }
}

pub fn run(args: &Args, mix: Mix) -> Report {
    let inputs = Inputs::generate(args.seed, &mix);
    let mut report = Report::default();
    let (setup_s, sched) = time_setups(|| {
        let sched = Scheduler::new(config());
        warm_up(&sched, &inputs, &mut report);
        sched
    });
    // The client (this thread) and the shard thread.
    let clock = CpuClock::new(true, &["me-serve-shard"]);
    report.check(clock.threads() == 2, || {
        format!("found {} shard threads", clock.threads() - 1)
    });
    let mut gen = ReqGen::new(args.seed, &mix);
    let mut tally = Tally::default();
    let before = sched.stats();
    let steal = StealClock::start();
    let mut run = |window, max_requests, report: &mut Report| {
        measure(
            &sched,
            &clock,
            &inputs,
            &mut gen,
            window,
            max_requests,
            report,
            &mut tally,
        )
    };
    let mut traced = None;
    if !args.trace {
        let sampler = StateSampler::start(clock.tids()[1..].to_vec());
        let s = run(args.measure, u64::MAX, &mut report);
        let busy = busy_share(&mut report, sampler);
        report.set("setup_s", setup_s);
        let cpu = s.shard_cpu + s.client_cpu;
        report.set("gflops", s.window_flops / cpu * busy / 1e9);
        report.set("req_per_s", s.window_completed as f64 / cpu * busy);
    } else {
        let phase = args.measure / 3;
        let sampler = StateSampler::start(clock.tids()[1..].to_vec());
        let mut u = run(phase, u64::MAX, &mut report);
        let busy = busy_share(&mut report, sampler);
        report.set("busy_share", busy);
        let t0 = trace::start();
        let t = run(phase, TRACED_REQUESTS, &mut report);
        traced = Some((t0, trace::stop(), u.completed, u.wall, t.completed, t.wall));
        report.set("serve.submit_us_p50", u.submit.quantile(0.5) * 1e6);
        report.set("serve.submit_us_p99", u.submit.quantile(0.99) * 1e6);
        report.set("serve.resolve_ms_p50", u.resolve.quantile(0.5) * 1e3);
        report.set("latency_p50_ms", u.latency.quantile(0.5) * 1e3);
        report.set("latency_p99_ms", u.latency.quantile(0.99) * 1e3);
        report.set("host.cpu_share", u.shard_cpu / u.window_wall);
        report.set("serve.client_wait_share", u.blocked / u.wall);
        report.set(
            "serve.client_cpu_share",
            u.client_cpu / (u.client_cpu + u.shard_cpu),
        );
        probe_layers(&inputs, args.seed, &mix, &mut report);
    }
    report.steal_share = steal.share();
    check_counters(&sched, &before, &tally, args.trace, &mut report);
    let last = sched.shutdown();
    report.check(last.is_conserved(), || {
        format!("not conserved after shutdown: {last:?}")
    });
    // The shard thread has exited, so its spans are flushed.
    if let Some((t0, t1, u_ops, u_wall, t_ops, t_wall)) = traced {
        let b = Breakdown::collect(t0, t1, &trace_path(args));
        let phase = |ops, wall_s| Phase { ops, wall_s };
        report_trace(
            &mut report,
            &b,
            &phase(u_ops, u_wall),
            &phase(t_ops, t_wall),
        );
    }
    if !args.trace {
        report.set("peak_rss_mib", peak_rss_mib());
    }
    report
}

/// Conservation, the scheduler's counters against the client's own
/// tally, and the counter-based layer metrics.
fn check_counters(
    sched: &Scheduler,
    before: &StatsSnapshot,
    tally: &Tally,
    trace: bool,
    report: &mut Report,
) {
    let after = sched.stats();
    report.check(after.is_conserved(), || format!("not conserved: {after:?}"));
    report.check(after.double_resolves == 0, || {
        format!("{} double resolves", after.double_resolves)
    });
    for t in sched.tenant_stats() {
        report.check(t.is_conserved(), || format!("tenant not conserved: {t:?}"));
    }
    let d = |f: fn(&StatsSnapshot) -> u64| (f(&after) - f(before)) as f64;
    let outcomes = [
        ("serve.outcome_ok", tally.ok, d(|s| s.completed_ok)),
        (
            "serve.outcome_timed_out",
            tally.timed_out,
            d(|s| s.timed_out),
        ),
        ("serve.outcome_shed", tally.shed, d(|s| s.shed)),
        ("serve.outcome_failed", tally.failed, d(|s| s.failed)),
        (
            "serve.rejected_full",
            tally.rejected,
            d(|s| s.rejected_full),
        ),
    ];
    for (name, seen, counted) in outcomes {
        report.check(seen as f64 == counted, || {
            format!("{name}: client saw {seen}, scheduler counted {counted}")
        });
        if trace {
            report.set(name, counted);
        }
    }
    if !trace {
        return;
    }
    let batches = d(|s| s.batches).max(1.0);
    report.set("serve.batch_mean", d(|s| s.batched_requests) / batches);
    report.set("serve.rows_per_batch", d(|s| s.stacked_rows) / batches);
    let lookups = d(|s| s.cache_hits) + d(|s| s.cache_misses);
    report.set(
        "serve.cache_hit_ratio",
        d(|s| s.cache_hits) / lookups.max(1.0),
    );
    report.set("serve.cache_lookups", lookups);
    report.set("serve.cache_evictions", d(|s| s.cache_evictions));
    report.set("serve.pack_bytes_saved", d(|s| s.cache_pack_bytes_saved));
    report.set("serve.queue_high_water", after.queue_high_water as f64);
    report.set("serve.retries", d(|s| s.retries));
}

/// Layer probes on the workload's own operands: `WeightCache` hit and
/// miss, B-pack, and the single-thread GEMM paths over a sample of the
/// request stream.
fn probe_layers(inputs: &Inputs, seed: u64, mix: &Mix, report: &mut Report) {
    let kernel = inputs.kernel;
    let blocking = me_linalg::blocking_for(kernel);
    let cache = WeightCache::new(DEFAULT_WEIGHT_CACHE_BYTES);
    let key = |w: usize| {
        let tenant = w / (2 * inputs.layers);
        BucketKey::of(&inputs.job(Req {
            tenant,
            weight: w,
            variant: 0,
        }))
    };
    let (mut miss, mut hit, mut pack) = (Vec::new(), Vec::new(), Vec::new());
    for (w, b) in inputs.weights.iter().enumerate() {
        let t = Instant::now();
        drop(cache.get_or_pack(key(w), b, kernel));
        miss.push(t.elapsed().as_secs_f64());
        for _ in 0..5 {
            let t = Instant::now();
            drop(cache.get_or_pack(key(w), b, kernel));
            hit.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        drop(pack_b_matrix(b, blocking));
        pack.push(t.elapsed().as_secs_f64());
    }
    report.set("serve.cache_miss_ms", median(&mut miss) * 1e3);
    report.set("serve.cache_hit_us", median(&mut hit) * 1e6);
    report.set("linalg.pack_b_ms", median(&mut pack) * 1e3);

    let mut gen = ReqGen::new(seed, mix);
    let (mut prepacked, mut t_plain, mut flops, mut bytes) = (Vec::new(), 0.0, 0.0, 0.0);
    for _ in 0..PROBE_REQUESTS {
        let req = gen.next(inputs);
        let a = &inputs.a[req.tenant][req.variant];
        let b = &inputs.weights[req.weight];
        let packed = cache.get_or_pack(key(req.weight), b, kernel);
        let mut c = Mat::zeros(a.rows(), b.cols());
        let t = Instant::now();
        gemm_tiled_prepacked_with(kernel, 1.0, a, &packed, 0.0, &mut c);
        prepacked.push(t.elapsed().as_secs_f64());
        report.check(digest(&c) == inputs.expected(req), || {
            "prepacked GEMM differs from the serial GEMM".into()
        });
        let t = Instant::now();
        gemm_tiled_with(kernel, 1.0, a, b, 0.0, &mut c);
        t_plain += t.elapsed().as_secs_f64();
        flops += inputs.flops(req);
        bytes += (8 * (a.rows() * a.cols() + b.rows() * b.cols() + a.rows() * b.cols())) as f64;
    }
    let n = PROBE_REQUESTS as f64;
    report.set("linalg.prepacked_1t_ms", median(&mut prepacked) * 1e3);
    report.set("linalg.gemm_1t_gflops", flops / t_plain / 1e9);
    report.set("linalg.flops", flops / n);
    report.set("linalg.bytes_computed", bytes / n);
    report.set("linalg.flops_per_byte", flops / bytes);
}
