//! Request and completion types: what callers submit and what they get
//! back.
//!
//! A [`Job`] owns its operands through `Arc<Mat<f64>>`, so a request costs
//! two reference-count bumps to enqueue — no matrix copies cross the
//! submission queue. Completion is a per-request [`Ticket`]: a one-shot
//! slot the scheduler resolves **exactly once** with one of the four
//! terminal [`Outcome`]s; [`Ticket::wait`] blocks until then. The
//! scheduler resolves tickets from its shard thread in FIFO order within
//! a batch, stamping each with a global resolution sequence number so
//! tests can assert bucket-level FIFO without instrumenting the clock.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use me_linalg::{KernelVariant, Mat};
use me_ozaki::{OzakiConfig, TargetAccuracy};

/// A GEMM request: `C = alpha · A · B` with a pinned micro-kernel
/// variant (`C` is freshly allocated by the scheduler; there is no `beta`
/// term because a served request has no pre-existing output to scale).
///
/// Requests that share the *same* `Arc` for `B` (the "weights" of a
/// served model), the same `alpha`, and the same variant land in the same
/// bucket and are coalesced by row-stacking their `A` operands into one
/// large GEMM — bitwise-identical to running each request alone, because
/// the packed core's per-element FMA order never depends on the row
/// partition (see `me-linalg::blas3`).
#[derive(Debug, Clone)]
pub struct GemmJob {
    /// Micro-kernel variant to pin (resolved through
    /// [`KernelVariant::resolve_supported`] at execution).
    pub variant: KernelVariant,
    /// Scale applied to the product.
    pub alpha: f64,
    /// Left operand, `m × k`.
    pub a: Arc<Mat<f64>>,
    /// Right operand, `k × n`; sharing one `Arc` across requests enables
    /// stacked batching.
    pub b: Arc<Mat<f64>>,
}

/// An Ozaki-scheme emulated-GEMM request: `C = A · B` at the accuracy
/// target in `cfg`. Batched requests execute per-request (fanned over the
/// shard's pool) — each is the exact serial [`me_ozaki::ozaki_gemm`].
#[derive(Debug, Clone)]
pub struct OzakiJob {
    /// Engine precision / accuracy-target configuration.
    pub cfg: OzakiConfig,
    /// Left operand, `m × k`.
    pub a: Arc<Mat<f64>>,
    /// Right operand, `k × n`.
    pub b: Arc<Mat<f64>>,
}

/// The work a request carries.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// Plain (hardware-precision) GEMM.
    Gemm(GemmJob),
    /// Ozaki-scheme emulated GEMM.
    Ozaki(OzakiJob),
}

/// The tenant a request is billed to for weighted-fair admission.
///
/// Tenant ids map onto the scheduler's configured weight slots modulo
/// the slot count ([`crate::ServeConfig::tenant_weights`]); with a
/// single slot (the default) every tenant shares one FIFO class and
/// scheduling is exactly the pre-tenant behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TenantId(pub u32);

/// A schedulable request: the job plus its per-request deadline policy
/// and the tenant it is billed to.
#[derive(Debug, Clone)]
pub struct Job {
    /// What to compute.
    pub kind: JobKind,
    /// Optional timeout measured from submission; a request that cannot
    /// complete before its deadline resolves [`Outcome::TimedOut`].
    pub timeout: Option<Duration>,
    /// Tenant billed for this request (default tenant 0).
    pub tenant: TenantId,
}

impl Job {
    /// A GEMM job with no deadline.
    pub fn gemm(variant: KernelVariant, alpha: f64, a: Arc<Mat<f64>>, b: Arc<Mat<f64>>) -> Self {
        Job {
            kind: JobKind::Gemm(GemmJob { variant, alpha, a, b }),
            timeout: None,
            tenant: TenantId::default(),
        }
    }

    /// An Ozaki job with no deadline.
    pub fn ozaki(cfg: OzakiConfig, a: Arc<Mat<f64>>, b: Arc<Mat<f64>>) -> Self {
        Job {
            kind: JobKind::Ozaki(OzakiJob { cfg, a, b }),
            timeout: None,
            tenant: TenantId::default(),
        }
    }

    /// Attach a timeout (deadline = submission instant + `timeout`).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Bill the request to `tenant` for weighted-fair admission.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// The request's output shape `(m, n)`.
    pub fn out_shape(&self) -> (usize, usize) {
        match &self.kind {
            JobKind::Gemm(g) => (g.a.rows(), g.b.cols()),
            JobKind::Ozaki(o) => (o.a.rows(), o.b.cols()),
        }
    }

    /// Validate operand shapes: the inner dimensions must agree. Checked
    /// at submission so a malformed request is a caller-visible error,
    /// never a panic on a shard thread.
    pub fn shape_ok(&self) -> bool {
        match &self.kind {
            JobKind::Gemm(g) => g.a.cols() == g.b.rows(),
            JobKind::Ozaki(o) => o.a.cols() == o.b.rows(),
        }
    }
}

/// Batching bucket identity: requests in the same bucket may be coalesced
/// into one batched execution, and the bucket hash picks the shard.
///
/// For GEMM the key is `(B identity, k, n, alpha bits, variant)` — `B`
/// *identity* (the `Arc` pointer), not content, so only genuinely shared
/// weights stack. For Ozaki it is the operand shape plus every
/// accuracy-relevant config field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BucketKey {
    /// Stackable GEMM bucket.
    Gemm {
        /// `Arc::as_ptr` of the shared right operand.
        b_ident: usize,
        /// Inner dimension.
        k: usize,
        /// Output columns.
        n: usize,
        /// `alpha.to_bits()` — bitwise, so `-0.0` and `0.0` are distinct
        /// buckets rather than a float comparison.
        alpha_bits: u64,
        /// Pinned micro-kernel variant.
        variant: KernelVariant,
    },
    /// Ozaki bucket (per-request execution, pool fan-out).
    Ozaki {
        /// `Arc::as_ptr` of the right operand.
        b_ident: usize,
        /// Inner dimension.
        k: usize,
        /// Output columns.
        n: usize,
        /// `(mul_precision, acc_precision)` of the emulated engine.
        precision: (u32, u32),
        /// Accuracy-target discriminant.
        target: u8,
        /// Inner-dimension blocking.
        k_block: usize,
    },
}

impl BucketKey {
    /// Compute the bucket for a job.
    pub fn of(job: &Job) -> BucketKey {
        match &job.kind {
            JobKind::Gemm(g) => BucketKey::Gemm {
                b_ident: Arc::as_ptr(&g.b) as usize,
                k: g.b.rows(),
                n: g.b.cols(),
                alpha_bits: g.alpha.to_bits(),
                variant: g.variant,
            },
            JobKind::Ozaki(o) => BucketKey::Ozaki {
                b_ident: Arc::as_ptr(&o.b) as usize,
                k: o.b.rows(),
                n: o.b.cols(),
                precision: (o.cfg.mul_precision, o.cfg.acc_precision),
                target: match o.cfg.target {
                    TargetAccuracy::Exact => 0,
                    TargetAccuracy::DgemmEquivalent => 1,
                    TargetAccuracy::SgemmEquivalent => 2,
                },
                k_block: o.cfg.k_block,
            },
        }
    }

    /// Stable 64-bit hash (SplitMix64 over the key fields), used for
    /// shard placement: `shard = hash % nshards`.
    pub fn shard_hash(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            let mut z = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        match *self {
            BucketKey::Gemm { b_ident, k, n, alpha_bits, variant } => {
                let mut h = mix(0x47_45_4d_4d, b_ident as u64);
                h = mix(h, k as u64);
                h = mix(h, n as u64);
                h = mix(h, alpha_bits);
                mix(h, variant as u64)
            }
            BucketKey::Ozaki { b_ident, k, n, precision, target, k_block } => {
                let mut h = mix(0x4f_5a_41_4b, b_ident as u64);
                h = mix(h, k as u64);
                h = mix(h, n as u64);
                h = mix(h, (u64::from(precision.0) << 32) | u64::from(precision.1));
                h = mix(h, u64::from(target));
                mix(h, k_block as u64)
            }
        }
    }
}

/// Terminal state of a request. Every accepted submission resolves to
/// exactly one of these.
#[derive(Debug)]
pub enum Outcome {
    /// The computed result.
    Ok(Mat<f64>),
    /// The deadline expired before (or during) execution.
    TimedOut,
    /// Load-shedding dropped the request to bound queue latency.
    Shed,
    /// The request failed (panic in its job, or retries exhausted); the
    /// string describes why.
    Failed(String),
}

impl Outcome {
    /// Short label for counters and assertions.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Ok(_) => "ok",
            Outcome::TimedOut => "timed_out",
            Outcome::Shed => "shed",
            Outcome::Failed(_) => "failed",
        }
    }
}

/// A resolved completion: the outcome plus resolution metadata.
#[derive(Debug)]
pub struct Completion {
    /// Terminal outcome.
    pub outcome: Outcome,
    /// Global resolution sequence number (monotone across the scheduler):
    /// within one bucket, resolutions are FIFO in submission order.
    pub order: u64,
    /// Execution attempts consumed (0 for requests resolved without ever
    /// executing, e.g. shed or timed out while queued).
    pub attempts: u32,
}

/// Shared one-shot completion slot. `resolutions` counts resolve calls —
/// the exactly-once suites assert it never reaches 2.
#[derive(Debug)]
pub(crate) struct TicketState {
    slot: Mutex<Option<Completion>>,
    ready: Condvar,
    resolutions: AtomicU32,
}

impl TicketState {
    pub(crate) fn new() -> Arc<TicketState> {
        Arc::new(TicketState {
            slot: Mutex::new(None),
            ready: Condvar::new(),
            resolutions: AtomicU32::new(0),
        })
    }

    /// Resolve the ticket. Returns `false` (and leaves the first outcome
    /// in place) if it was already resolved — the caller counts that as a
    /// duplication bug.
    pub(crate) fn resolve(&self, completion: Completion) -> bool {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        self.resolutions.fetch_add(1, Ordering::Relaxed);
        if slot.is_some() {
            return false;
        }
        *slot = Some(completion);
        self.ready.notify_all();
        true
    }
}

/// The caller's handle to one submitted request.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) state: Arc<TicketState>,
    pub(crate) id: u64,
}

impl Ticket {
    /// The request id assigned at submission (unique per scheduler).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// How many times the scheduler resolved this ticket so far. Exposed
    /// for the exactly-once suites; always 0 or 1 in a correct scheduler.
    pub fn resolutions(&self) -> u32 {
        self.state.resolutions.load(Ordering::Relaxed)
    }

    /// Whether the request has resolved (non-blocking).
    pub fn is_resolved(&self) -> bool {
        self.state.slot.lock().unwrap_or_else(|e| e.into_inner()).is_some()
    }

    /// Block until the request resolves and take the completion.
    pub fn wait(self) -> Completion {
        let mut slot = self.state.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(c) = slot.take() {
                return c;
            }
            slot = self.state.ready.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// [`Self::wait`] with an upper bound; returns the ticket back on
    /// timeout so the caller may keep waiting.
    pub fn wait_timeout(self, dur: Duration) -> Result<Completion, Ticket> {
        let deadline = Instant::now() + dur;
        {
            let mut slot = self.state.slot.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(c) = slot.take() {
                    return Ok(c);
                }
                let now = Instant::now();
                let Some(left) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
                else {
                    break;
                };
                let (guard, _) =
                    self.state.ready.wait_timeout(slot, left).unwrap_or_else(|e| e.into_inner());
                slot = guard;
            }
        }
        Err(self)
    }
}

/// Why a submission was not accepted. A rejected submission creates no
/// ticket and is **not** part of the conservation accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The target shard's bounded queue is full — backpressure; the
    /// caller should retry later or shed work upstream.
    QueueFull,
    /// The scheduler is draining and accepts no new work.
    ShuttingDown,
    /// The job's operand shapes are inconsistent (inner-dimension
    /// mismatch).
    BadShape,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "rejected: shard queue full"),
            SubmitError::ShuttingDown => write!(f, "rejected: scheduler shutting down"),
            SubmitError::BadShape => write!(f, "rejected: operand shape mismatch"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc_mat(m: usize, n: usize) -> Arc<Mat<f64>> {
        Arc::new(Mat::from_fn(m, n, |i, j| (i * n + j) as f64))
    }

    #[test]
    fn same_shared_b_same_bucket() {
        let b = arc_mat(4, 6);
        let j1 = Job::gemm(KernelVariant::Scalar, 1.0, arc_mat(2, 4), Arc::clone(&b));
        let j2 = Job::gemm(KernelVariant::Scalar, 1.0, arc_mat(5, 4), Arc::clone(&b));
        assert_eq!(BucketKey::of(&j1), BucketKey::of(&j2), "m may differ within a bucket");
    }

    #[test]
    fn distinct_b_or_alpha_or_variant_split_buckets() {
        let b = arc_mat(4, 6);
        let base = Job::gemm(KernelVariant::Scalar, 1.0, arc_mat(2, 4), Arc::clone(&b));
        let other_b = Job::gemm(KernelVariant::Scalar, 1.0, arc_mat(2, 4), arc_mat(4, 6));
        let other_alpha = Job::gemm(KernelVariant::Scalar, 2.0, arc_mat(2, 4), Arc::clone(&b));
        let other_variant = Job::gemm(KernelVariant::Avx2, 1.0, arc_mat(2, 4), Arc::clone(&b));
        for j in [&other_b, &other_alpha, &other_variant] {
            assert_ne!(BucketKey::of(&base), BucketKey::of(j));
        }
    }

    #[test]
    fn ozaki_targets_split_buckets() {
        let b = arc_mat(4, 6);
        let a = arc_mat(2, 4);
        let dg = Job::ozaki(OzakiConfig::dgemm_tc(), Arc::clone(&a), Arc::clone(&b));
        let sg = Job::ozaki(OzakiConfig::sgemm_tc(), Arc::clone(&a), Arc::clone(&b));
        assert_ne!(BucketKey::of(&dg), BucketKey::of(&sg));
    }

    #[test]
    fn ticket_resolves_exactly_once() {
        let state = TicketState::new();
        let t = Ticket { state: Arc::clone(&state), id: 7 };
        assert!(!t.is_resolved());
        assert!(state.resolve(Completion { outcome: Outcome::TimedOut, order: 0, attempts: 0 }));
        assert!(!state.resolve(Completion { outcome: Outcome::Shed, order: 1, attempts: 0 }));
        assert_eq!(t.resolutions(), 2, "both calls are counted");
        let c = t.wait();
        assert_eq!(c.outcome.label(), "timed_out", "first resolution wins");
    }

    #[test]
    fn wait_timeout_returns_ticket_when_unresolved() {
        let state = TicketState::new();
        let t = Ticket { state, id: 1 };
        let t = match t.wait_timeout(Duration::from_millis(5)) {
            Err(t) => t,
            Ok(_) => unreachable!("nothing resolved it"),
        };
        assert_eq!(t.id(), 1);
    }

    #[test]
    fn bad_shape_detected() {
        let j = Job::gemm(KernelVariant::Scalar, 1.0, arc_mat(2, 3), arc_mat(4, 6));
        assert!(!j.shape_ok());
        assert!(Job::gemm(KernelVariant::Scalar, 1.0, arc_mat(2, 4), arc_mat(4, 6)).shape_ok());
    }
}
