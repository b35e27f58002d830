//! Property tests for the `me-serve` scheduler, at the facade level.
//!
//! Three properties the serving layer promises (DESIGN.md §10):
//!
//! 1. **FIFO within a bucket** — same-bucket requests resolve in
//!    submission order (observable through the global resolution
//!    sequence number stamped on each completion).
//! 2. **Batching is bitwise-invisible** — a request coalesced into a
//!    row-stacked batch returns exactly the bits the serial
//!    `gemm_tiled_with` reference produces for it alone; batching is a
//!    throughput optimization, never a numerical one.
//! 3. **Conservation** — after a drain, every accepted request resolved
//!    exactly once: `enqueued == ok + timed_out + shed + failed` with
//!    zero double resolutions, and rejected submissions are accounted
//!    separately.

use std::sync::Arc;
use std::time::Duration;

use matrix_engines::linalg::{gemm_tiled_with, KernelVariant, Mat};
use matrix_engines::ozaki::OzakiConfig;
use matrix_engines::serve::{Job, Outcome, Scheduler, ServeConfig, SubmitError};

fn mat(m: usize, n: usize, seed: u64) -> Arc<Mat<f64>> {
    let mut rng = matrix_engines::numerics::Rng64::seed_from_u64(seed);
    Arc::new(Mat::from_fn(m, n, |_, _| rng.range_f64(-1.0, 1.0)))
}

/// Serial reference for a served GEMM request: `C = alpha · A · B` into a
/// fresh output, exactly as the scheduler allocates it.
fn serial_reference(variant: KernelVariant, alpha: f64, a: &Mat<f64>, b: &Mat<f64>) -> Mat<f64> {
    let mut c = Mat::zeros(a.rows(), b.cols());
    gemm_tiled_with(variant, alpha, a, b, 0.0, &mut c);
    c
}

#[test]
fn fifo_order_within_a_bucket() {
    let sched = Scheduler::new(ServeConfig {
        shards: 1,
        shard_threads: 1,
        batch_max: 8,
        ..Default::default()
    });
    let b = mat(5, 4, 1);
    let tickets: Vec<_> = (0..48)
        .map(|i| {
            sched
                .submit(Job::gemm(
                    KernelVariant::Scalar,
                    1.0,
                    mat(1 + i % 3, 5, 10 + i as u64),
                    Arc::clone(&b),
                ))
                .expect("queue has room")
        })
        .collect();
    let mut last_order = None;
    for (i, t) in tickets.into_iter().enumerate() {
        let c = t.wait();
        assert!(matches!(c.outcome, Outcome::Ok(_)), "request {i} did not complete Ok");
        if let Some(prev) = last_order {
            assert!(
                c.order > prev,
                "request {i} resolved at sequence {} after a later submission resolved at {prev}",
                c.order
            );
        }
        last_order = Some(c.order);
    }
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "{stats:?}");
}

#[test]
fn batched_results_are_bitwise_identical_to_serial() {
    for variant in [KernelVariant::Scalar, KernelVariant::Avx2] {
        let sched = Scheduler::new(ServeConfig {
            shards: 1,
            shard_threads: 1,
            batch_max: 64,
            ..Default::default()
        });
        let k = 96usize;
        let n = 96usize;
        let alpha = 1.5;
        let b = mat(k, n, 2);
        // The head request is large enough to occupy the single-lane
        // shard for many milliseconds (debug build), so the followers
        // queue up behind it and coalesce into a row-stacked batch.
        let head_a = mat(k, k, 3);
        let head = sched
            .submit(Job::gemm(variant, alpha, Arc::clone(&head_a), Arc::clone(&b)))
            .expect("empty queue accepts the head");
        let followers: Vec<(Arc<Mat<f64>>, matrix_engines::serve::Ticket)> = (0..24)
            .map(|i| {
                let a = mat(1 + (i as usize % 5), k, 100 + i);
                let t = sched
                    .submit(Job::gemm(variant, alpha, Arc::clone(&a), Arc::clone(&b)))
                    .expect("queue has room");
                (a, t)
            })
            .collect();
        match head.wait().outcome {
            Outcome::Ok(c) => {
                let expect = serial_reference(variant, alpha, &head_a, &b);
                assert_eq!(c.as_slice(), expect.as_slice(), "head diverged ({variant:?})");
            }
            other => panic!("head: {other:?}"),
        }
        for (i, (a, t)) in followers.into_iter().enumerate() {
            match t.wait().outcome {
                Outcome::Ok(c) => {
                    let expect = serial_reference(variant, alpha, &a, &b);
                    assert_eq!(
                        c.as_slice(),
                        expect.as_slice(),
                        "follower {i} ({variant:?}): batched bits diverged from serial"
                    );
                }
                other => panic!("follower {i}: {other:?}"),
            }
        }
        let stats = sched.shutdown();
        assert!(stats.is_conserved(), "{stats:?}");
        assert!(
            stats.stacked_rows > 0 && stats.max_batch >= 2,
            "followers never coalesced into a stacked batch ({variant:?}): {stats:?}"
        );
    }
}

#[test]
fn conservation_counters_balance_after_drain() {
    let sched = Scheduler::new(ServeConfig {
        shards: 2,
        shard_threads: 2,
        queue_capacity: 32,
        batch_max: 8,
        ..Default::default()
    });
    let k = 8usize;
    let b = mat(k, 6, 4);
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut tickets = Vec::new();
    for i in 0..400u64 {
        let job = if i % 7 == 6 {
            Job::ozaki(OzakiConfig::dgemm_tc(), mat(2, k, i), mat(k, 6, i ^ 1))
        } else if i % 13 == 12 {
            // Already-expired deadline: deterministic TimedOut coverage.
            Job::gemm(KernelVariant::Scalar, 1.0, mat(2, k, i), Arc::clone(&b))
                .with_timeout(Duration::ZERO)
        } else {
            Job::gemm(KernelVariant::Scalar, 1.0, mat(1 + (i as usize % 4), k, i), Arc::clone(&b))
        };
        match sched.submit(job) {
            Ok(t) => {
                accepted += 1;
                tickets.push(t);
            }
            Err(SubmitError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    for t in tickets {
        assert!(t.resolutions() <= 1, "duplicated resolution before wait");
        t.wait();
    }
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "{stats:?}");
    assert_eq!(stats.enqueued, accepted);
    assert_eq!(stats.rejected_full, rejected);
    assert_eq!(accepted + rejected, 400);
    assert_eq!(stats.completed_ok + stats.timed_out + stats.shed + stats.failed, stats.enqueued);
    assert!(stats.timed_out > 0, "the zero-deadline requests must time out");
    // Submissions after shutdown are rejected and never counted enqueued.
    let late = Scheduler::new(ServeConfig { shards: 1, shard_threads: 1, ..Default::default() });
    let b2 = mat(k, 6, 5);
    drop(late.submit(Job::gemm(KernelVariant::Scalar, 1.0, mat(2, k, 6), Arc::clone(&b2))));
    let snap = late.shutdown();
    assert!(snap.is_conserved(), "{snap:?}");
}

/// `ME_AUTOTUNE=startup` / `ServeConfig::autotune`: the first scheduler
/// startup runs the quick blocking sweep and persists the artifact; the
/// second startup *loads* that artifact instead of re-sweeping. A
/// re-sweep re-times every candidate, so its gflops fields would differ
/// — byte-identical artifact content after the second startup proves the
/// load path was taken. The blocking winners it installs keep `kc ≥ 128`
/// (the autotune grid invariant), so concurrently running bitwise suites
/// are unaffected.
#[test]
fn startup_autotune_persists_then_reuses_artifact() {
    use matrix_engines::serve::AutotunePolicy;
    let dir = std::env::temp_dir().join(format!("me_autotune_reuse_{}", std::process::id()));
    let path = dir.join("autotune.json");
    let _ = std::fs::remove_file(&path);
    let cfg = || ServeConfig {
        shards: 1,
        shard_threads: 1,
        autotune: Some(AutotunePolicy::Startup),
        autotune_path: Some(path.clone()),
        ..Default::default()
    };

    let first = Scheduler::new(cfg());
    let after_first =
        std::fs::read_to_string(&path).expect("first startup must persist the autotune artifact");
    assert!(after_first.contains("\"entries\""), "artifact shape: {after_first}");
    first.shutdown();

    let second = Scheduler::new(cfg());
    let after_second = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        after_first, after_second,
        "second startup must load the artifact, not re-sweep (timings would differ)"
    );
    // The loaded winners still serve jobs correctly end to end.
    let a = mat(6, 24, 91);
    let b = mat(24, 5, 92);
    let t = second
        .submit(Job::gemm(KernelVariant::Scalar, 1.0, Arc::clone(&a), Arc::clone(&b)))
        .unwrap();
    let out = t.wait();
    match out.outcome {
        Outcome::Ok(c) => {
            let want = serial_reference(KernelVariant::Scalar, 1.0, &a, &b);
            for (x, y) in c.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        other => panic!("unexpected outcome: {other:?}"),
    }
    second.shutdown();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
