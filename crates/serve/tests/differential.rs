//! Golden replay: seeded fault traces resolve to pinned per-request
//! fingerprints.
//!
//! Every seeded trace runs under a configuration whose outcomes are
//! *schedule-independent* (no wall-clock deadlines, no shedding, faults
//! drawn purely from `(stage, request id, attempt)`), so each request's
//! outcome label and result bits are a pure function of the seed. The
//! suite folds them, in submit order, into FNV-1a digests and compares
//! against constants captured when the scheduler still carried a second,
//! mutex-guarded queue beside the lock-free ring: both queues produced
//! these exact digests, so the constants pin the ring to the behaviour
//! it was differentially proven against.
//!
//! Each fingerprint is the outcome label (Ok / Failed) plus, on Ok, the
//! result shape and the exact bit pattern of every element — coalescing
//! must remain a pure batching optimization. The conservation books
//! (`enqueued == ok + failed`, zero double-resolves) are checked on
//! every run.

use std::sync::Arc;
use std::time::Duration;

use me_linalg::{KernelVariant, Mat};
use me_numerics::Rng64;
use me_ozaki::OzakiConfig;
use me_serve::{FaultConfig, FaultPlan, Job, Outcome, Scheduler, ServeConfig, TenantId};

fn mat(m: usize, n: usize, seed: u64) -> Arc<Mat<f64>> {
    let mut rng = Rng64::seed_from_u64(seed);
    Arc::new(Mat::from_fn(m, n, |_, _| rng.range_f64(-1.0, 1.0)))
}

/// Digest of the faulted replays: seeds 7000–7011, 14000–14011 and
/// 21000–21011 at widths 1, 2 and 8 (864 requests).
const FAULTED_DIGEST: u64 = 0x5838_fc1f_6335_743e;
/// Ok / Failed split of those 864 requests.
const FAULTED_OK: u64 = 751;
const FAULTED_FAILED: u64 = 113;
/// Digest of the fault-free replays at widths 1, 2 and 8.
const FAULT_FREE_DIGEST: u64 = 0xa2c4_3126_556c_0f0d;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one completion: label word 0 then shape and bits for Ok,
    /// label word 1 for Failed.
    fn fingerprint(&mut self, fp: &Fingerprint) {
        match fp {
            Fingerprint::Ok { shape, bits } => {
                self.word(0);
                self.word(shape.0 as u64);
                self.word(shape.1 as u64);
                for &b in bits {
                    self.word(b);
                }
            }
            Fingerprint::Failed => self.word(1),
        }
    }
}

/// The fingerprint of one completion: the outcome label plus, for Ok,
/// the exact bit pattern of the result.
enum Fingerprint {
    Ok { shape: (usize, usize), bits: Vec<u64> },
    Failed,
}

fn ok_fingerprint(c: &Mat<f64>) -> Fingerprint {
    Fingerprint::Ok { shape: c.shape(), bits: c.as_slice().iter().map(|v| v.to_bits()).collect() }
}

/// Build the seeded job list for one trace: a mix of shared-B GEMM
/// buckets (coalescable), unique-B GEMMs, and Ozaki jobs, spread over 3
/// tenants, in submit order; job construction is a pure function of
/// `seed`.
fn trace_jobs(seed: u64) -> Vec<Job> {
    let mut rng = Rng64::seed_from_u64(seed);
    let b_shared_a = mat(4, 3, seed ^ 0xaaaa);
    let b_shared_b = mat(3, 5, seed ^ 0xbbbb);
    let mut jobs = Vec::new();
    for i in 0..24u64 {
        let tenant = TenantId((i % 3) as u32);
        let job = match rng.next_u64() % 4 {
            0 => Job::gemm(
                KernelVariant::Scalar,
                1.0,
                mat(1 + (i as usize % 4), 4, seed.wrapping_add(i)),
                Arc::clone(&b_shared_a),
            ),
            1 => Job::gemm(
                KernelVariant::Scalar,
                0.5,
                mat(2, 3, seed.wrapping_add(1000 + i)),
                Arc::clone(&b_shared_b),
            ),
            2 => Job::gemm(
                KernelVariant::Scalar,
                1.0,
                mat(3, 4, seed.wrapping_add(2000 + i)),
                mat(4, 2, seed.wrapping_add(3000 + i)),
            ),
            _ => Job::ozaki(
                OzakiConfig::dgemm_tc(),
                mat(2, 4, seed.wrapping_add(4000 + i)),
                mat(4, 3, seed.wrapping_add(5000 + i)),
            ),
        };
        jobs.push(job.with_tenant(tenant));
    }
    jobs
}

/// Replay one seeded fault trace; fingerprints in submit order.
fn run_faulted(seed: u64, width: usize) -> Vec<Fingerprint> {
    // Panics and transients only: FaultPlan::decide is a pure function
    // of (stage, id, attempt), and ids are assigned in submit order, so
    // fault draws do not depend on the schedule. No deadlines, no
    // shedding — those depend on wall-clock scheduling.
    let plan = FaultPlan::new(
        seed,
        FaultConfig {
            p_panic: 0.10,
            p_transient: 0.20,
            p_force_timeout: 0.0,
            p_delay: 0.0,
            max_delay: Duration::ZERO,
        },
    );
    let sched = Scheduler::new(ServeConfig {
        shards: 2,
        shard_threads: width,
        queue_capacity: 64,
        batch_max: 8,
        max_retries: 2,
        backoff_base: Duration::from_micros(50),
        fault_plan: Some(plan),
        tenant_weights: vec![1, 2, 3],
        ..Default::default()
    });
    let tickets: Vec<_> = trace_jobs(seed)
        .into_iter()
        .map(|job| sched.submit(job).expect("trace fits a 64-deep queue"))
        .collect();
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "seed {seed}: {stats:?}");
    assert_eq!(stats.enqueued, 24, "seed {seed}");
    assert_eq!(stats.double_resolves, 0, "seed {seed}");
    assert_eq!(stats.shed, 0, "seed {seed}: shedding must be off");
    assert_eq!(stats.timed_out, 0, "seed {seed}: no deadline may fire");
    tickets
        .into_iter()
        .map(|t| match t.wait().outcome {
            Outcome::Ok(c) => ok_fingerprint(&c),
            Outcome::Failed(_) => Fingerprint::Failed,
            other => panic!("seed {seed}: schedule-dependent outcome {other:?}"),
        })
        .collect()
}

/// Replay one seeded trace with no faults; every request must succeed.
fn run_fault_free(seed: u64, width: usize) -> Vec<Fingerprint> {
    let sched = Scheduler::new(ServeConfig {
        shards: 1,
        shard_threads: width,
        queue_capacity: 64,
        batch_max: 8,
        ..Default::default()
    });
    let tickets: Vec<_> =
        trace_jobs(seed).into_iter().map(|job| sched.submit(job).expect("room")).collect();
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "width {width}: {stats:?}");
    assert_eq!(stats.completed_ok, 24, "width {width}: {stats:?}");
    tickets
        .into_iter()
        .map(|t| match t.wait().outcome {
            Outcome::Ok(c) => ok_fingerprint(&c),
            other => panic!("width {width}: unexpected {other:?}"),
        })
        .collect()
}

/// The headline gate: seeded fault traces × widths {1, 2, 8} reproduce
/// the golden per-request outcome labels and Ok payload bits.
#[test]
fn faulted_replays_match_golden_digest() {
    let mut h = Fnv::new();
    let mut ok_seen = 0u64;
    let mut failed_seen = 0u64;
    for (w, width) in [1usize, 2, 8].into_iter().enumerate() {
        for i in 0..12u64 {
            let seed = 7_000 * (w as u64 + 1) + i;
            for fp in run_faulted(seed, width) {
                match fp {
                    Fingerprint::Ok { .. } => ok_seen += 1,
                    Fingerprint::Failed => failed_seen += 1,
                }
                h.fingerprint(&fp);
            }
        }
    }
    // The chaos mix must actually exercise both terminal labels, or the
    // digest below pins less than it claims.
    assert!(ok_seen > 0, "no trace ever produced an Ok");
    assert!(failed_seen > 0, "no trace ever produced a Failed");
    assert_eq!((ok_seen, failed_seen), (FAULTED_OK, FAULTED_FAILED), "outcome split moved");
    assert_eq!(h.0, FAULTED_DIGEST, "faulted replay digest {:#018x} moved", h.0);
}

/// Fault-free determinism: without any injected faults, every request
/// succeeds and the payloads reproduce the golden digest — the
/// coalescing path itself (the hot one) is pinned bit for bit.
#[test]
fn fault_free_replays_match_golden_digest() {
    let mut h = Fnv::new();
    for width in [1usize, 2, 8] {
        for fp in run_fault_free(0x5eed ^ width as u64, width) {
            h.fingerprint(&fp);
        }
    }
    assert_eq!(h.0, FAULT_FREE_DIGEST, "fault-free replay digest {:#018x} moved", h.0);
}
