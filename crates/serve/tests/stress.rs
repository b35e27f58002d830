//! Oversubscription stress: shards × pool width well beyond the
//! machine's cores, a 10k mixed-shape request storm from concurrent
//! submitters, and the invariants that must survive it — the drain
//! completes (no deadlock), the accounting balances to the request, and
//! the ready-queue high-water never exceeds the configured capacity.

use std::sync::Arc;

use me_linalg::{KernelVariant, Mat};
use me_ozaki::OzakiConfig;
use me_serve::{Job, Scheduler, ServeConfig, SubmitError, TenantId};

fn mat(m: usize, n: usize, seed: u64) -> Arc<Mat<f64>> {
    let mut rng = me_numerics::Rng64::seed_from_u64(seed);
    Arc::new(Mat::from_fn(m, n, |_, _| rng.range_f64(-1.0, 1.0)))
}

const STORM: usize = 10_000;
const SUBMITTERS: usize = 4;
const CAPACITY: usize = 256;

#[test]
fn ten_k_storm_drains_without_deadlock() {
    let sched = Arc::new(Scheduler::new(ServeConfig {
        shards: 4,
        shard_threads: 2, // 4 × 2 pool lanes ≫ this container's cores
        queue_capacity: CAPACITY,
        batch_max: 32,
        ..Default::default()
    }));
    assert_eq!(sched.shards(), 4);

    // Four shared-B weight sets so the storm populates several GEMM
    // buckets, plus an Ozaki bucket every 16th request.
    let k = 16usize;
    let n = 16usize;
    let weights: Vec<Arc<Mat<f64>>> = (0..4).map(|i| mat(k, n, 900 + i)).collect();

    let mut handles = Vec::new();
    for s in 0..SUBMITTERS {
        let sched = Arc::clone(&sched);
        let weights = weights.clone();
        handles.push(std::thread::spawn(move || {
            let mut accepted = 0u64;
            let mut rejected = 0u64;
            let mut resolved = 0u64;
            let mut tickets = Vec::new();
            for i in 0..STORM / SUBMITTERS {
                let seed = (s * STORM + i) as u64;
                let m = 1 + i % 8;
                let job = if i % 16 == 15 {
                    Job::ozaki(OzakiConfig::dgemm_tc(), mat(m, k, seed), mat(k, n, seed ^ 1))
                } else {
                    let b = Arc::clone(&weights[i % weights.len()]);
                    let alpha = if i % 2 == 0 { 1.0 } else { 0.5 };
                    Job::gemm(KernelVariant::Scalar, alpha, mat(m, k, seed), b)
                };
                match sched.submit(job) {
                    Ok(t) => {
                        accepted += 1;
                        tickets.push(t);
                    }
                    Err(SubmitError::QueueFull) => rejected += 1,
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
                // Bound per-thread ticket backlog so waits interleave
                // with submissions (more realistic than wait-at-end).
                if tickets.len() >= 512 {
                    for t in tickets.drain(..) {
                        assert!(t.resolutions() <= 1);
                        t.wait();
                        resolved += 1;
                    }
                }
            }
            for t in tickets {
                t.wait();
                resolved += 1;
            }
            (accepted, rejected, resolved)
        }));
    }
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut resolved = 0u64;
    for h in handles {
        let (a, r, w) = h.join().expect("submitter panicked");
        accepted += a;
        rejected += r;
        resolved += w;
    }
    assert_eq!(accepted + rejected, STORM as u64, "every submission accounted for");
    assert_eq!(resolved, accepted, "every accepted request resolved");

    let sched = Arc::try_unwrap(sched).map_err(|_| "submitters done").expect("sole owner");
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "{stats:?}");
    assert_eq!(stats.enqueued, accepted);
    assert_eq!(stats.rejected_full, rejected);
    assert!(
        stats.queue_high_water <= CAPACITY as u64,
        "high-water {} exceeded capacity {CAPACITY}",
        stats.queue_high_water
    );
    assert_eq!(stats.double_resolves, 0);
    // A 10k storm against a single-digit drain rate must coalesce: the
    // batching layer is what this scheduler exists for.
    assert!(stats.max_batch >= 2, "storm never coalesced a batch: {stats:?}");
}

/// Snapshot monotonicity: while submitters hammer a live scheduler,
/// successive unlocked-read snapshots never show a cumulative counter
/// decrease and never show `resolved() > enqueued` — globally or per
/// tenant. This is the observable contract of the stats memory-ordering
/// protocol (outcome bumps are `Release`, snapshots `Acquire` the
/// outcome counters *first*; see `stats.rs`): a torn or reordered read
/// would surface here as a dip or an over-resolved book.
#[test]
fn snapshots_are_monotone_while_hammered() {
    let sched = Arc::new(Scheduler::new(ServeConfig {
        shards: 2,
        shard_threads: 2,
        queue_capacity: CAPACITY,
        batch_max: 8,
        tenant_weights: vec![1, 2],
        ..Default::default()
    }));
    let k = 12usize;
    let b = mat(k, k, 7_000);
    let mut handles = Vec::new();
    for s in 0..SUBMITTERS as u64 {
        let sched = Arc::clone(&sched);
        let b = Arc::clone(&b);
        handles.push(std::thread::spawn(move || {
            for i in 0..800u64 {
                let job = Job::gemm(
                    KernelVariant::Scalar,
                    1.0,
                    mat(1 + (i % 4) as usize, k, s * 10_000 + i),
                    Arc::clone(&b),
                )
                .with_tenant(TenantId((i % 2) as u32));
                match sched.submit(job) {
                    Ok(t) => drop(t), // resolution still counted; no need to wait
                    Err(SubmitError::QueueFull) => std::thread::yield_now(),
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
        }));
    }
    let mut prev = sched.stats();
    let mut prev_tenants = sched.tenant_stats();
    while handles.iter().any(|h| !h.is_finished()) {
        let cur = sched.stats();
        for (label, a, b) in [
            ("enqueued", prev.enqueued, cur.enqueued),
            ("completed_ok", prev.completed_ok, cur.completed_ok),
            ("timed_out", prev.timed_out, cur.timed_out),
            ("shed", prev.shed, cur.shed),
            ("failed", prev.failed, cur.failed),
            ("rejected_full", prev.rejected_full, cur.rejected_full),
            ("retries", prev.retries, cur.retries),
            ("latency_count", prev.latency_count, cur.latency_count),
        ] {
            assert!(b >= a, "cumulative counter {label} decreased: {a} -> {b}");
        }
        assert!(
            cur.resolved() <= cur.enqueued,
            "snapshot shows more resolutions than admissions: {cur:?}"
        );
        let cur_tenants = sched.tenant_stats();
        for (p, c) in prev_tenants.iter().zip(&cur_tenants) {
            assert!(c.enqueued >= p.enqueued, "tenant {} enqueued dipped", c.tenant);
            assert!(c.completed_ok >= p.completed_ok, "tenant {} ok dipped", c.tenant);
            assert!(
                c.resolved() <= c.enqueued,
                "tenant {} over-resolved in snapshot: {c:?}",
                c.tenant
            );
        }
        prev = cur;
        prev_tenants = cur_tenants;
    }
    for h in handles {
        h.join().expect("submitter panicked");
    }
    let sched = Arc::try_unwrap(sched).map_err(|_| "submitters done").expect("sole owner");
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "{stats:?}");
}

/// Drop-head shedding keeps the ready queue at the watermark: park the
/// shard behind a deliberately large head request, pile small requests
/// behind it, and the oldest of the backlog must resolve Shed while the
/// books still balance.
#[test]
fn shedding_bounds_the_backlog() {
    let sched = Scheduler::new(ServeConfig {
        shards: 1,
        shard_threads: 1,
        queue_capacity: 64,
        shed_watermark: 4,
        batch_max: 8,
        ..Default::default()
    });
    let k = 96usize;
    let b = mat(k, k, 1);
    // Head: big enough to hold the shard for many milliseconds in a
    // debug build, so the 32 followers are all queued when it finishes.
    let head = sched
        .submit(Job::gemm(KernelVariant::Scalar, 1.0, mat(k, k, 2), Arc::clone(&b)))
        .expect("empty queue accepts the head");
    let followers: Vec<_> = (0..32)
        .map(|i| {
            sched
                .submit(Job::gemm(KernelVariant::Scalar, 1.0, mat(1, k, 10 + i), Arc::clone(&b)))
                .expect("64-deep queue holds 32 followers")
        })
        .collect();
    head.wait();
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "{stats:?}");
    assert!(stats.shed > 0, "backlog of 32 over watermark 4 must shed: {stats:?}");
    let shed_ids: Vec<u64> =
        followers.iter().filter(|t| t.resolutions() == 1).map(|t| t.id()).collect();
    assert_eq!(shed_ids.len(), 32, "every follower resolved exactly once");
}
