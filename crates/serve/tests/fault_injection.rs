//! Deterministic fault-injection suite: exactly-once completion under
//! chaos.
//!
//! Each test replays seeded [`FaultPlan`]s — panics, transient failures,
//! forced timeouts, and delays injected at enqueue/dequeue/execute — and
//! asserts the scheduler's core contract on every one: **every accepted
//! request resolves exactly once** (0 lost, 0 duplicated) with one of the
//! four terminal outcomes, and the conservation counters balance after
//! drain. The headline test runs ≥1000 plans across pool widths
//! {1, 2, 8}.

use std::sync::Arc;
use std::time::Duration;

use me_linalg::{KernelVariant, Mat};
use me_ozaki::OzakiConfig;
use me_serve::{
    FaultConfig, FaultPlan, Job, Outcome, Scheduler, ServeConfig, TenantId, INJECTED_PANIC,
};

fn mat(m: usize, n: usize, seed: u64) -> Arc<Mat<f64>> {
    let mut rng = me_numerics::Rng64::seed_from_u64(seed);
    Arc::new(Mat::from_fn(m, n, |_, _| rng.range_f64(-1.0, 1.0)))
}

fn chaotic() -> FaultConfig {
    FaultConfig {
        p_panic: 0.08,
        p_transient: 0.25,
        p_force_timeout: 0.10,
        p_delay: 0.25,
        max_delay: Duration::from_micros(40),
    }
}

#[derive(Default)]
struct Tally {
    ok: u64,
    timed_out: u64,
    shed: u64,
    failed: u64,
    retries: u64,
    recovered: u64, // Ok after more than one attempt
}

/// Run one seeded plan through a fresh scheduler and assert the
/// exactly-once contract; returns the outcome tally for aggregate
/// coverage assertions.
fn run_plan(seed: u64, width: usize, tally: &mut Tally) {
    let plan = FaultPlan::new(seed, chaotic());
    let sched = Scheduler::new(ServeConfig {
        shards: 2,
        shard_threads: width,
        queue_capacity: 64,
        batch_max: 8,
        max_retries: 2,
        backoff_base: Duration::from_micros(100),
        fault_plan: Some(plan),
        tenant_weights: vec![1, 2, 3],
        ..Default::default()
    });
    let b_shared = mat(3, 2, seed ^ 0xb);
    let mut tickets = Vec::new();
    for i in 0..6u64 {
        let job = match i {
            0..=2 => Job::gemm(
                KernelVariant::Scalar,
                1.0,
                mat(1 + i as usize, 3, seed + i),
                Arc::clone(&b_shared),
            ),
            3 => Job::gemm(KernelVariant::Scalar, 2.0, mat(2, 3, seed + i), Arc::clone(&b_shared))
                .with_timeout(Duration::from_millis(250)),
            4 => Job::ozaki(OzakiConfig::dgemm_tc(), mat(2, 3, seed + i), mat(3, 2, seed ^ i)),
            // A zero timeout is already expired at dequeue: guarantees
            // TimedOut coverage in every single plan.
            _ => Job::ozaki(OzakiConfig::sgemm_tc(), mat(2, 3, seed + i), mat(3, 2, seed ^ i))
                .with_timeout(Duration::ZERO),
        };
        // Spread the trace over 3 tenants so per-tenant books are
        // exercised under the same chaos as the global books.
        let job = job.with_tenant(TenantId((i % 3) as u32));
        tickets.push(sched.submit(job).expect("all 6 submissions fit a 64-deep queue"));
    }
    // Per-tenant conservation: once every ticket is resolved the tenant
    // counters are final (a request's bumps happen-before its ticket
    // resolution), so the three ledgers must each balance and sum to the
    // global ones — under the same chaos as the global conservation gate.
    while !tickets.iter().all(|t| t.is_resolved()) {
        std::thread::yield_now();
    }
    let tenants = sched.tenant_stats();
    assert_eq!(tenants.len(), 3, "seed {seed} width {width}");
    let mut sums = [0u64; 5];
    for ts in &tenants {
        assert!(ts.is_conserved(), "seed {seed} width {width} tenant {}: {ts:?}", ts.tenant);
        assert_eq!(ts.enqueued, 2, "seed {seed} width {width}: 6 jobs fold into 3 tenants");
        sums[0] += ts.enqueued;
        sums[1] += ts.completed_ok;
        sums[2] += ts.timed_out;
        sums[3] += ts.shed;
        sums[4] += ts.failed;
    }
    let stats = sched.shutdown();
    assert_eq!(
        sums,
        [stats.enqueued, stats.completed_ok, stats.timed_out, stats.shed, stats.failed],
        "seed {seed} width {width}: tenant ledgers must sum to the global books"
    );
    assert!(stats.is_conserved(), "seed {seed} width {width}: conservation broken: {stats:?}");
    assert_eq!(stats.enqueued, 6, "seed {seed} width {width}");
    assert_eq!(stats.double_resolves, 0, "seed {seed} width {width}: duplicated completion");
    tally.retries += stats.retries;
    for t in tickets {
        assert!(t.is_resolved(), "seed {seed} width {width}: lost request {}", t.id());
        assert_eq!(
            t.resolutions(),
            1,
            "seed {seed} width {width}: request {} resolved more than once",
            t.id()
        );
        let c = t.wait();
        match c.outcome {
            Outcome::Ok(_) => {
                tally.ok += 1;
                if c.attempts > 1 {
                    tally.recovered += 1;
                }
            }
            Outcome::TimedOut => tally.timed_out += 1,
            Outcome::Shed => tally.shed += 1,
            Outcome::Failed(_) => tally.failed += 1,
        }
    }
}

/// The headline gate: ≥1000 seeded fault plans, widths {1, 2, 8},
/// 0 lost and 0 duplicated completions on every plan.
#[test]
fn thousand_seeded_plans_resolve_exactly_once() {
    let mut tally = Tally::default();
    let mut plans = 0u64;
    for (w, width) in [1usize, 2, 8].into_iter().enumerate() {
        for i in 0..334u64 {
            run_plan(1_000_000 * (w as u64 + 1) + i, width, &mut tally);
            plans += 1;
        }
    }
    assert!(plans >= 1000, "suite must replay at least 1000 plans, ran {plans}");
    // Coverage: chaos actually exercised every terminal outcome and the
    // retry machinery (shed excepted — shedding has its own watermark
    // test; this config disables it).
    assert!(tally.ok > 0, "no request ever completed Ok");
    assert!(tally.timed_out > 0, "no request ever timed out");
    assert!(tally.failed > 0, "no injected panic/exhausted retry ever surfaced as Failed");
    assert!(tally.retries > 0, "no transient failure was ever retried");
    assert!(tally.recovered > 0, "no retried request ever recovered to Ok");
}

/// An injected panic fails its own handle and nothing else: with
/// p_panic = 1 every request fails with the injected payload, the shard
/// threads survive to drain, and the books still balance.
#[test]
fn injected_panics_poison_only_their_own_request() {
    let plan = FaultPlan::new(42, FaultConfig { p_panic: 1.0, ..FaultConfig::default() });
    let sched = Scheduler::new(ServeConfig {
        shards: 1,
        shard_threads: 2,
        fault_plan: Some(plan),
        ..Default::default()
    });
    let b = mat(3, 2, 1);
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            sched
                .submit(Job::gemm(KernelVariant::Scalar, 1.0, mat(2, 3, i), Arc::clone(&b)))
                .expect("queue has room")
        })
        .collect();
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "{stats:?}");
    assert_eq!(stats.failed, 4);
    for t in tickets {
        match t.wait().outcome {
            Outcome::Failed(msg) => {
                assert!(msg.contains(INJECTED_PANIC), "unexpected failure message: {msg}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }
}

/// Transient failures retry with backoff and can recover: with a redraw
/// per attempt, some request must succeed on attempt ≥ 2.
#[test]
fn transient_faults_retry_and_recover() {
    let plan = FaultPlan::new(7, FaultConfig { p_transient: 0.6, ..FaultConfig::default() });
    let sched = Scheduler::new(ServeConfig {
        shards: 1,
        shard_threads: 1,
        max_retries: 5,
        backoff_base: Duration::from_micros(50),
        fault_plan: Some(plan),
        ..Default::default()
    });
    let b = mat(3, 2, 2);
    let tickets: Vec<_> = (0..20)
        .map(|i| {
            sched
                .submit(Job::gemm(KernelVariant::Scalar, 1.0, mat(2, 3, 100 + i), Arc::clone(&b)))
                .expect("queue has room")
        })
        .collect();
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "{stats:?}");
    assert!(stats.retries > 0, "p_transient = 0.6 never produced a retry: {stats:?}");
    let mut recovered = 0;
    for t in tickets {
        let c = t.wait();
        if matches!(c.outcome, Outcome::Ok(_)) && c.attempts >= 2 {
            recovered += 1;
        }
    }
    assert!(recovered > 0, "no request recovered via retry");
}

/// A forced timeout resolves TimedOut before any execution attempt.
#[test]
fn forced_timeouts_resolve_without_executing() {
    let plan = FaultPlan::new(9, FaultConfig { p_force_timeout: 1.0, ..FaultConfig::default() });
    let sched = Scheduler::new(ServeConfig {
        shards: 1,
        shard_threads: 1,
        fault_plan: Some(plan),
        ..Default::default()
    });
    let b = mat(3, 2, 3);
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            sched
                .submit(Job::gemm(KernelVariant::Scalar, 1.0, mat(2, 3, 200 + i), Arc::clone(&b)))
                .expect("queue has room")
        })
        .collect();
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "{stats:?}");
    assert_eq!(stats.timed_out, 4);
    for t in tickets {
        let c = t.wait();
        assert!(matches!(c.outcome, Outcome::TimedOut), "expected TimedOut");
        assert_eq!(c.attempts, 0, "forced timeout must preempt execution");
    }
}

/// Regression repro (Issue 7): a retry whose backoff `ready_at` lands at
/// or past the request deadline must resolve `TimedOut` immediately at
/// requeue time — not sit out the full backoff in the delayed queue and
/// then dispatch a doomed (or worse, late-but-live) execution.
///
/// Every execution draws `Transient` (p = 1), so each request wants to
/// retry; the backoff base (250 ms) dwarfs the 20 ms deadline, so the
/// first requeue is already dead. Before the fix this test spent
/// ~250 ms per request and `retries_timed_out` did not exist; now the
/// whole drain finishes well inside one backoff window.
#[test]
fn dead_on_requeue_retries_resolve_timed_out_immediately() {
    let backoff = Duration::from_millis(250);
    let plan = FaultPlan::new(0xDEAD, FaultConfig { p_transient: 1.0, ..FaultConfig::default() });
    let sched = Scheduler::new(ServeConfig {
        shards: 1,
        shard_threads: 1,
        max_retries: 3,
        backoff_base: backoff,
        fault_plan: Some(plan),
        ..Default::default()
    });
    let b = mat(3, 2, 4);
    let started = std::time::Instant::now();
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            sched
                .submit(
                    Job::gemm(KernelVariant::Scalar, 1.0, mat(2, 3, 300 + i), Arc::clone(&b))
                        .with_timeout(Duration::from_millis(20)),
                )
                .expect("queue has room")
        })
        .collect();
    let stats = sched.shutdown();
    let elapsed = started.elapsed();
    assert!(stats.is_conserved(), "{stats:?}");
    assert_eq!(stats.timed_out, 4, "every always-transient request must time out: {stats:?}");
    assert!(stats.retries_timed_out >= 4, "dead-on-requeue retries must be accounted: {stats:?}");
    assert!(
        elapsed < backoff,
        "dead retries must not serve their backoff: drained in {elapsed:?} \
         with a {backoff:?} backoff base"
    );
    for t in tickets {
        let c = t.wait();
        assert!(matches!(c.outcome, Outcome::TimedOut), "expected TimedOut, got {:?}", c.outcome);
        assert_eq!(c.attempts, 1, "exactly the first execution runs; the retry is stillborn");
    }
}

/// The drain-side half of the same bug: a delayed retry whose deadline
/// expires *while it waits* (ready_at was still inside the deadline at
/// requeue time) must be resolved `TimedOut` by the delayed-queue drain,
/// never promoted to execution.
#[test]
fn delayed_retries_expiring_in_queue_resolve_timed_out() {
    let plan = FaultPlan::new(0xBEEF, FaultConfig { p_transient: 1.0, ..FaultConfig::default() });
    let sched = Scheduler::new(ServeConfig {
        shards: 1,
        shard_threads: 1,
        max_retries: 3,
        // ready_at = now + 30 ms, deadline = now + 45 ms: legal to
        // requeue, but the deadline passes before much can happen.
        backoff_base: Duration::from_millis(30),
        fault_plan: Some(plan),
        ..Default::default()
    });
    let b = mat(3, 2, 5);
    let tickets: Vec<_> = (0..3)
        .map(|i| {
            sched
                .submit(
                    Job::gemm(KernelVariant::Scalar, 1.0, mat(2, 3, 400 + i), Arc::clone(&b))
                        .with_timeout(Duration::from_millis(45)),
                )
                .expect("queue has room")
        })
        .collect();
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "{stats:?}");
    assert_eq!(stats.timed_out, 3, "{stats:?}");
    for t in tickets {
        assert!(matches!(t.wait().outcome, Outcome::TimedOut));
    }
}
