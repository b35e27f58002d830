//! Deterministic fault injection for the scheduler.
//!
//! A [`FaultPlan`] decides, for every `(stage, request, attempt)` triple,
//! whether to inject a panic, a transient failure, an artificial delay, or
//! a forced timeout. The decision is a pure function of the plan's seed
//! and the triple — it is derived by reseeding the in-tree
//! [`Rng64`](me_numerics::Rng64) per decision, **never** by advancing a
//! shared stream — so the injected fault set is identical no matter how
//! the OS interleaves shard threads and pool workers. That is what lets
//! the fault suite replay thousands of seeded plans and assert
//! exactly-once completion accounting on every one of them.
//!
//! The plan is plain data owned by [`ServeConfig`](crate::ServeConfig);
//! production schedulers simply leave it unset and pay a single `Option`
//! check per stage.

use std::time::Duration;

/// Scheduler stage at which a fault decision is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStage {
    /// While the request is being admitted to its shard queue (delays
    /// only: the submitter is the caller's thread).
    Enqueue,
    /// When the shard thread pops the request for execution (forced
    /// timeouts and delays).
    Dequeue,
    /// Inside the request's execution attempt on the shard's pool
    /// (panics, transient failures, delays).
    Execute,
}

impl FaultStage {
    fn salt(self) -> u64 {
        match self {
            FaultStage::Enqueue => 0x45_4e51,
            FaultStage::Dequeue => 0x44_4551,
            FaultStage::Execute => 0x45_5845,
        }
    }
}

/// A single injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault at this site.
    None,
    /// Sleep for the given duration before proceeding.
    Delay(Duration),
    /// Fail this execution attempt with a retryable error.
    Transient,
    /// Panic inside the execution attempt (`std::panic::panic_any` with
    /// [`INJECTED_PANIC`] as payload); the scheduler must fail the
    /// request's own handle and keep the shard alive.
    Panic,
    /// Treat the request's deadline as already expired at dequeue.
    ForceTimeout,
}

/// Payload carried by injected panics, so tests (and the scheduler's
/// failure messages) can tell an injected panic from a genuine one.
pub const INJECTED_PANIC: &str = "me-serve: injected fault panic";

/// Per-stage fault probabilities. All probabilities are independent draws
/// in the order panic → transient → force-timeout → delay; the first hit
/// wins, so the expected rates are slightly below the raw knobs when
/// several are nonzero.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability of an injected panic at `Execute`.
    pub p_panic: f64,
    /// Probability of a transient (retryable) failure at `Execute`.
    pub p_transient: f64,
    /// Probability of a forced timeout at `Dequeue`.
    pub p_force_timeout: f64,
    /// Probability of an artificial delay at any stage.
    pub p_delay: f64,
    /// Upper bound on injected delays (drawn uniformly from 0..max).
    pub max_delay: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            p_panic: 0.0,
            p_transient: 0.0,
            p_force_timeout: 0.0,
            p_delay: 0.0,
            max_delay: Duration::from_millis(1),
        }
    }
}

/// A seeded, schedule-independent fault plan.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Build a plan from a seed and per-stage probabilities.
    pub fn new(seed: u64, cfg: FaultConfig) -> Self {
        FaultPlan { seed, cfg }
    }

    /// The plan's seed (for failure-report labelling).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decide the fault for one `(stage, request, attempt)` site. Pure:
    /// the same triple always yields the same fault for the same plan.
    pub fn decide(&self, stage: FaultStage, request_id: u64, attempt: u32) -> Fault {
        let mix = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(stage.salt())
            .wrapping_add(request_id.wrapping_mul(0x2545_f491_4f6c_dd1d))
            .wrapping_add(u64::from(attempt) << 17);
        let mut rng = me_numerics::Rng64::seed_from_u64(mix);
        if stage == FaultStage::Execute {
            if rng.chance(self.cfg.p_panic) {
                return Fault::Panic;
            }
            if rng.chance(self.cfg.p_transient) {
                return Fault::Transient;
            }
        }
        if stage == FaultStage::Dequeue && rng.chance(self.cfg.p_force_timeout) {
            return Fault::ForceTimeout;
        }
        if rng.chance(self.cfg.p_delay) {
            let nanos = (self.cfg.max_delay.as_nanos() as u64).max(1);
            return Fault::Delay(Duration::from_nanos(rng.next_u64() % nanos));
        }
        Fault::None
    }

    /// Apply a decided delay fault (no-op for every other variant): the
    /// single sleep point shared by all injection sites.
    pub fn apply_delay(fault: Fault) {
        if let Fault::Delay(d) = fault {
            if !d.is_zero() {
                std::thread::sleep(d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic() -> FaultConfig {
        FaultConfig {
            p_panic: 0.2,
            p_transient: 0.3,
            p_force_timeout: 0.2,
            p_delay: 0.3,
            max_delay: Duration::from_micros(50),
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::new(1234, chaotic());
        for req in 0..64u64 {
            for attempt in 0..4u32 {
                for stage in [FaultStage::Enqueue, FaultStage::Dequeue, FaultStage::Execute] {
                    let a = plan.decide(stage, req, attempt);
                    let b = plan.decide(stage, req, attempt);
                    assert_eq!(a, b, "stage={stage:?} req={req} attempt={attempt}");
                }
            }
        }
    }

    #[test]
    fn stages_restrict_fault_kinds() {
        let plan = FaultPlan::new(99, chaotic());
        for req in 0..512u64 {
            match plan.decide(FaultStage::Enqueue, req, 0) {
                Fault::None | Fault::Delay(_) => {}
                other => panic!("enqueue produced {other:?}"),
            }
            match plan.decide(FaultStage::Dequeue, req, 0) {
                Fault::None | Fault::Delay(_) | Fault::ForceTimeout => {}
                other => panic!("dequeue produced {other:?}"),
            }
        }
    }

    #[test]
    fn attempts_redraw_independently() {
        // A transient failure on attempt 0 must not imply one on attempt
        // 1 — retries have to be able to succeed. With p = 0.3 the chance
        // that some request among 256 never clears in 4 attempts without
        // a single differing draw is vanishing; assert at least one
        // request transitions Transient -> None across attempts.
        let plan = FaultPlan::new(7, FaultConfig { p_transient: 0.3, ..FaultConfig::default() });
        let mut saw_recovery = false;
        for req in 0..256u64 {
            let first = plan.decide(FaultStage::Execute, req, 0);
            let second = plan.decide(FaultStage::Execute, req, 1);
            if first == Fault::Transient && second == Fault::None {
                saw_recovery = true;
            }
        }
        assert!(saw_recovery, "retries never see a different draw");
    }

    #[test]
    fn zero_config_is_silent() {
        let plan = FaultPlan::new(5, FaultConfig::default());
        for req in 0..128u64 {
            for stage in [FaultStage::Enqueue, FaultStage::Dequeue, FaultStage::Execute] {
                assert_eq!(plan.decide(stage, req, 0), Fault::None);
            }
        }
    }

    #[test]
    fn delays_respect_the_bound() {
        let cfg = FaultConfig { p_delay: 1.0, max_delay: Duration::from_micros(10), ..chaotic() };
        let plan = FaultPlan::new(
            3,
            FaultConfig { p_panic: 0.0, p_transient: 0.0, p_force_timeout: 0.0, ..cfg },
        );
        for req in 0..256u64 {
            match plan.decide(FaultStage::Enqueue, req, 0) {
                Fault::Delay(d) => assert!(d < Duration::from_micros(10)),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }
}
