//! Weighted-fair admission and SLO-percentile property tests.
//!
//! The scheduler's deficit round-robin (DESIGN.md §14) promises
//! *work-conserving weighted fairness*: when several tenants are
//! backlogged, dequeues converge to the configured weight ratio; when
//! only one tenant has work, it gets the full shard (no idling on
//! credit). These tests pin both properties deterministically — one
//! shard, one thread, a large "plug" job to build the backlog — so the
//! dequeue order is a pure function of the DRR state, not of thread
//! timing. The SLO tests pin the percentile plumbing end-to-end:
//! snapshot p50/p95/p99 come from the same histogram the scheduler
//! records into, and quantiles are ordered and conservative.

use std::sync::Arc;
use std::time::Duration;

use me_linalg::{KernelVariant, Mat};
use me_numerics::Rng64;
use me_serve::{Job, Outcome, Scheduler, ServeConfig, TenantId, Ticket};

fn mat(m: usize, n: usize, seed: u64) -> Arc<Mat<f64>> {
    let mut rng = Rng64::seed_from_u64(seed);
    Arc::new(Mat::from_fn(m, n, |_, _| rng.range_f64(-1.0, 1.0)))
}

/// Build a single-shard, single-thread ring scheduler with the given
/// weights and a queue deep enough for the whole test backlog.
fn plugged_scheduler(weights: Vec<u64>) -> Scheduler {
    Scheduler::new(ServeConfig {
        shards: 1,
        shard_threads: 1,
        queue_capacity: 1024,
        batch_max: 1, // one dequeue per DRR decision: order == fairness
        tenant_weights: weights,
        ..Default::default()
    })
}

/// Occupy the single shard thread long enough for the caller to build a
/// backlog behind it. 384³ scalar FLOPs dwarf the microseconds the
/// submit loop needs; the short sleep afterwards lets the shard thread
/// dequeue the plug before the backlog starts arriving, so every
/// backlog request resolves strictly after it.
fn submit_plug(sched: &Scheduler) -> Ticket {
    let n = 384;
    let plug = sched
        .submit(Job::gemm(KernelVariant::Scalar, 1.0, mat(n, n, 0xa1), mat(n, n, 0xa2)))
        .expect("plug fits");
    std::thread::sleep(Duration::from_millis(10));
    plug
}

/// Resolution order stamps for a batch of tickets, tagged by tenant.
fn orders(tickets: Vec<(u32, Ticket)>) -> Vec<(u64, u32)> {
    let mut out: Vec<(u64, u32)> = tickets
        .into_iter()
        .map(|(tenant, t)| {
            let c = t.wait();
            assert!(matches!(c.outcome, Outcome::Ok(_)), "tenant {tenant}: {:?}", c.outcome);
            (c.order, tenant)
        })
        .collect();
    out.sort_unstable();
    out
}

/// Two backlogged tenants with weights 1:3 are served ≈1:3.
///
/// While the plug executes, 200 requests per tenant pile up in the ring;
/// once it finishes, the DRR dequeues from a fully backlogged state. In
/// any window where both tenants still have work, weight-3 tenant 1 must
/// receive 3 of every 4 grants (±banked-credit jitter of one quantum).
/// Over the first 160 post-plug resolutions the exact DRR count is 120;
/// the assertion allows [100, 140] so scheduler-internal batching of the
/// ring drain cannot flake it.
#[test]
fn two_tenants_converge_to_weight_ratio_under_saturation() {
    let sched = plugged_scheduler(vec![1, 3]);
    assert_eq!(sched.tenant_weights(), &[1, 3]);
    // Pre-build every matrix so the submit loop is tight (pure pushes).
    let b0 = mat(3, 2, 100);
    let b1 = mat(3, 2, 200);
    let a0: Vec<_> = (0..200).map(|i| mat(2, 3, 1_000 + i)).collect();
    let a1: Vec<_> = (0..200).map(|i| mat(2, 3, 2_000 + i)).collect();
    let plug = submit_plug(&sched);
    let mut tickets = Vec::new();
    for i in 0..200usize {
        for (tenant, a, b) in [(0u32, &a0[i], &b0), (1u32, &a1[i], &b1)] {
            let job = Job::gemm(KernelVariant::Scalar, 1.0, Arc::clone(a), Arc::clone(b))
                .with_tenant(TenantId(tenant));
            tickets.push((tenant, sched.submit(job).expect("backlog fits")));
        }
    }
    let plug_order = plug.wait().order;
    let resolved = orders(tickets);
    let post_plug: Vec<u32> = resolved
        .iter()
        .filter(|(order, _)| *order > plug_order)
        .map(|&(_, tenant)| tenant)
        .collect();
    assert_eq!(post_plug.len(), 400, "every backlogged request resolves");
    let window = &post_plug[..160];
    let t1 = window.iter().filter(|&&t| t == 1).count();
    assert!(
        (100..=140).contains(&t1),
        "weight-3 tenant got {t1}/160 grants in the saturated window; \
         expected ≈120 (DRR 1:3), window head: {:?}",
        &window[..24.min(window.len())]
    );
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "{stats:?}");
}

/// Work conservation: a sole backlogged tenant is served strictly FIFO
/// at full rate — a low weight never idles the shard or reorders a
/// single-tenant stream.
#[test]
fn sole_backlogged_tenant_is_served_fifo() {
    // Tenant 0 has the minimum weight in a 1:7 split, and is the only
    // one submitting.
    let sched = plugged_scheduler(vec![1, 7]);
    let b = mat(3, 2, 300);
    let a: Vec<_> = (0..120).map(|i| mat(2, 3, 3_000 + i)).collect();
    let plug = submit_plug(&sched);
    let tickets: Vec<(u32, Ticket)> = a
        .iter()
        .map(|a| {
            let job = Job::gemm(KernelVariant::Scalar, 1.0, Arc::clone(a), Arc::clone(&b))
                .with_tenant(TenantId(0));
            (0u32, sched.submit(job).expect("fits"))
        })
        .collect();
    let plug_order = plug.wait().order;
    let resolved = orders(tickets);
    // Submission order == resolution order for the post-plug stream
    // (orders() sorted by stamp; with one bucket and batch_max 1 the
    // stamps must be consecutive and increasing).
    let post: Vec<u64> = resolved
        .iter()
        .map(|&(order, _)| order)
        .filter(|&o| o > plug_order)
        .collect();
    assert_eq!(post.len(), 120);
    for pair in post.windows(2) {
        assert_eq!(pair[1], pair[0] + 1, "single-tenant stream reordered or interleaved");
    }
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "{stats:?}");
}

/// Per-tenant books balance and sum to the global books, and tenant ids
/// beyond the weight table fold modulo the slot count.
#[test]
fn tenant_books_balance_and_fold_modulo() {
    let sched = plugged_scheduler(vec![2, 1, 1]);
    let b = mat(3, 2, 400);
    let tickets: Vec<_> = (0..90u32)
        .map(|i| {
            // Tenant ids 0..9 fold into 3 slots: id % 3.
            let job = Job::gemm(KernelVariant::Scalar, 1.0, mat(2, 3, 4_000 + u64::from(i)), Arc::clone(&b))
                .with_tenant(TenantId(i % 9));
            sched.submit(job).expect("fits")
        })
        .collect();
    for t in tickets {
        t.wait();
    }
    let tenants = sched.tenant_stats();
    assert_eq!(tenants.len(), 3);
    let mut sum_enq = 0u64;
    let mut sum_ok = 0u64;
    for ts in &tenants {
        assert!(ts.is_conserved(), "tenant {}: {ts:?}", ts.tenant);
        assert_eq!(ts.enqueued, 30, "ids fold modulo 3: {ts:?}");
        sum_enq += ts.enqueued;
        sum_ok += ts.completed_ok;
    }
    let stats = sched.shutdown();
    assert_eq!(sum_enq, stats.enqueued, "tenant books must sum to global books");
    assert_eq!(sum_ok, stats.completed_ok);
    assert!(stats.is_conserved(), "{stats:?}");
}

/// The snapshot's SLO percentiles are wired to the recorded latencies:
/// count matches resolutions, the quantiles are ordered, and every
/// recorded latency is ≤ the p100-style upper bound implied by the
/// histogram.
#[test]
fn snapshot_percentiles_track_recorded_latencies() {
    let sched = Scheduler::new(ServeConfig {
        shards: 1,
        shard_threads: 2,
        queue_capacity: 256,
        ..Default::default()
    });
    let b = mat(4, 3, 500);
    let tickets: Vec<_> = (0..64u64)
        .map(|i| {
            sched
                .submit(Job::gemm(KernelVariant::Scalar, 1.0, mat(2, 4, 5_000 + i), Arc::clone(&b)))
                .expect("fits")
        })
        .collect();
    for t in tickets {
        assert!(matches!(t.wait().outcome, Outcome::Ok(_)));
    }
    let hist = sched.latency_histogram();
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "{stats:?}");
    assert_eq!(stats.latency_count, 64, "one latency sample per resolution");
    assert!(hist.is_consistent());
    assert_eq!(hist.count, 64);
    assert!(
        stats.p50_ns <= stats.p95_ns && stats.p95_ns <= stats.p99_ns,
        "quantiles out of order: {stats:?}"
    );
    assert!(stats.p50_ns > 0, "a real GEMM takes nonzero time");
    assert_eq!(stats.p50_ns, hist.quantile(0.50), "snapshot p50 is the histogram's");
    assert_eq!(stats.p99_ns, hist.quantile(0.99), "snapshot p99 is the histogram's");
}
