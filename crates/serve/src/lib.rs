//! # me-serve — a batched, sharded GEMM request scheduler
//!
//! The paper's utilization argument (Sec. IV, Table V) is that matrix
//! engines only pay off when the work arriving at them is big enough to
//! fill the tiles; real HPC/inference *services* instead see streams of
//! small, heterogeneous GEMMs. This crate closes that gap in software:
//! it accepts GEMM and Ozaki-GEMM requests through bounded per-shard
//! queues, buckets them by (shared-operand identity, shape, precision,
//! kernel variant), and **coalesces compatible requests into one batched
//! execution** — row-stacking shared-`B` GEMMs into a single `(Σmᵢ) ×
//! k × n` call so the packed core amortizes its B-pack and fills its MR
//! tiles, bitwise-identically to running each request alone.
//!
//! Robustness is first-class, not best-effort:
//!
//! - **Backpressure** — a full shard queue rejects with
//!   [`SubmitError::QueueFull`]; no unbounded buffering.
//! - **Deadlines** — per-request timeouts, checked at dequeue and again
//!   after execution ([`Outcome::TimedOut`]).
//! - **Retry** — transient failures re-enqueue with exponential backoff,
//!   bounded by [`ServeConfig::max_retries`].
//! - **Load shedding** — drop-head beyond a watermark
//!   ([`Outcome::Shed`]) keeps queue latency bounded.
//! - **Panic isolation** — a panicking job fails its own [`Ticket`]
//!   ([`Outcome::Failed`]); the shard and every other request survive.
//! - **Graceful drain** — [`Scheduler::shutdown`] (and `Drop`) stops
//!   intake, resolves everything already admitted (including in-flight
//!   retries), and joins the shard threads.
//!
//! Every accepted request resolves **exactly once**; the
//! [`StatsSnapshot`] conservation counters
//! (`enqueued == ok + timed_out + shed + failed`, `double_resolves == 0`)
//! make that auditable, and the fault-injection suite replays thousands
//! of seeded [`FaultPlan`]s to prove it holds under panics, delays,
//! forced timeouts, and retries at every pool width.
//!
//! ```
//! use std::sync::Arc;
//! use me_serve::{Job, Scheduler, ServeConfig, Outcome};
//! use me_linalg::{KernelVariant, Mat};
//!
//! let sched = Scheduler::new(ServeConfig { shards: 1, shard_threads: 1, ..Default::default() });
//! let b = Arc::new(Mat::from_fn(4, 3, |i, j| (i + j) as f64));
//! let a = Arc::new(Mat::from_fn(2, 4, |i, j| (i * 4 + j) as f64));
//! let ticket = sched.submit(Job::gemm(KernelVariant::Scalar, 1.0, a, b)).unwrap();
//! match ticket.wait().outcome {
//!     Outcome::Ok(c) => assert_eq!((c.rows(), c.cols()), (2, 3)),
//!     other => panic!("unexpected outcome: {other:?}"),
//! }
//! let stats = sched.shutdown();
//! assert!(stats.is_conserved());
//! ```

pub mod cache;
pub mod fault;
pub mod request;
pub mod ring;
mod scheduler;
mod stats;

pub use cache::{CacheStats, WeightCache, DEFAULT_WEIGHT_CACHE_BYTES};
pub use fault::{Fault, FaultConfig, FaultPlan, FaultStage, INJECTED_PANIC};
pub use request::{
    BucketKey, Completion, GemmJob, Job, JobKind, Outcome, OzakiJob, SubmitError, TenantId, Ticket,
};
pub use ring::MpmcRing;
pub use scheduler::{Scheduler, ServeConfig};
pub use stats::{StatsSnapshot, TenantSnapshot};

/// Environment variable consulted by [`resolve_shards`] when the
/// requested shard count is `0`.
pub const SHARDS_ENV: &str = "ME_SHARDS";

/// Resolve the shard count for a scheduler.
///
/// Priority: an explicit positive `requested` wins; else a positive
/// integer in `ME_SHARDS`; else `min(4, available parallelism)`. Always
/// at least 1.
///
/// **Startup-read contract** (DESIGN.md §10): like
/// [`me_par::resolve_threads`], this reads the environment at
/// [`Scheduler::new`] time only — mutating `ME_SHARDS` afterwards never
/// retargets a live scheduler, and tests that set it must serialize
/// through [`me_par::env_lock`].
// me-verify: env-startup
pub fn resolve_shards(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(raw) = std::env::var(SHARDS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
        .max(1)
}

/// Environment variable consulted by [`resolve_weight_cache`] when the
/// configured capacity is `usize::MAX` (auto). Accepts a byte count with
/// an optional `k` / `m` / `g` suffix (binary units); `0` disables the
/// cache.
pub const WEIGHT_CACHE_ENV: &str = "ME_WEIGHT_CACHE";

/// Resolve the prepacked-B weight-cache capacity in bytes.
///
/// Priority: an explicit `requested` other than `usize::MAX` wins (`0`
/// disables caching); else a parseable `ME_WEIGHT_CACHE` (bytes, with
/// optional `k`/`m`/`g` binary suffix, `0` = disabled); else
/// [`DEFAULT_WEIGHT_CACHE_BYTES`].
///
/// **Startup-read contract** (DESIGN.md §10): like [`resolve_shards`],
/// this reads the environment at [`Scheduler::new`] time only — mutating
/// `ME_WEIGHT_CACHE` afterwards never resizes a live scheduler's cache,
/// and tests that set it must serialize through [`me_par::env_lock`].
// me-verify: env-startup
pub fn resolve_weight_cache(requested: usize) -> usize {
    if requested != usize::MAX {
        return requested;
    }
    if let Ok(raw) = std::env::var(WEIGHT_CACHE_ENV) {
        if let Some(bytes) = parse_byte_size(&raw) {
            return bytes;
        }
    }
    DEFAULT_WEIGHT_CACHE_BYTES
}

/// Environment variable consulted by [`resolve_tenant_weights`] when
/// [`ServeConfig::tenant_weights`] is empty. Accepts a comma-separated
/// list of positive integers, e.g. `"1,3"` for a 1:3 two-tenant split.
pub const TENANT_WEIGHTS_ENV: &str = "ME_TENANT_WEIGHTS";

/// Resolve the per-tenant weighted-fair admission weights.
///
/// Priority: a non-empty explicit `requested` wins; else a fully
/// parseable `ME_TENANT_WEIGHTS` comma list; else a single tenant
/// (`vec![1]`, which disables fairness accounting and reproduces the
/// legacy single-stream dequeue order exactly). Every weight is clamped
/// to at least 1 so deficit round-robin always makes progress.
///
/// **Startup-read contract** (DESIGN.md §10): like [`resolve_shards`],
/// this reads the environment at [`Scheduler::new`] time only — mutating
/// `ME_TENANT_WEIGHTS` afterwards never reweights a live scheduler, and
/// tests that set it must serialize through [`me_par::env_lock`].
// me-verify: env-startup
pub fn resolve_tenant_weights(requested: &[u64]) -> Vec<u64> {
    if !requested.is_empty() {
        return requested.iter().map(|&w| w.max(1)).collect();
    }
    if let Ok(raw) = std::env::var(TENANT_WEIGHTS_ENV) {
        let parsed: Option<Vec<u64>> = raw
            .split(',')
            .map(|part| part.trim().parse::<u64>().ok().map(|w| w.max(1)))
            .collect();
        if let Some(weights) = parsed {
            if !weights.is_empty() {
                return weights;
            }
        }
    }
    vec![1]
}

/// Environment variable consulted by [`resolve_autotune`] when
/// [`ServeConfig::autotune`] is `None`. Accepts `startup` (run the
/// GEMMbench blocking sweep at [`Scheduler::new`], loading a persisted
/// artifact when one exists) or `off` (case-insensitive).
pub const AUTOTUNE_ENV: &str = "ME_AUTOTUNE";

/// When the serving layer runs the GEMM blocking autotune sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutotunePolicy {
    /// Never touch the dispatch table; compiled defaults / `ME_BLOCKING`
    /// only. The default: library code must not sweep implicitly.
    Off,
    /// Run [`me_linalg::blas3::autotune::ensure_autotuned`] once during
    /// [`Scheduler::new`]: load the persisted artifact if present, else
    /// run the quick sweep and persist it, then install the winners.
    Startup,
}

/// Resolve the autotune policy for a scheduler.
///
/// Priority: an explicit `Some(policy)` wins; else `ME_AUTOTUNE`
/// (`"startup"` / `"off"`, case-insensitive); else
/// [`AutotunePolicy::Off`].
///
/// **Startup-read contract** (DESIGN.md §10): like [`resolve_shards`],
/// this reads the environment at [`Scheduler::new`] time only — setting
/// `ME_AUTOTUNE` afterwards never retunes a live scheduler, and tests
/// that set it must serialize through [`me_par::env_lock`].
// me-verify: env-startup
pub fn resolve_autotune(requested: Option<AutotunePolicy>) -> AutotunePolicy {
    if let Some(policy) = requested {
        return policy;
    }
    if let Ok(raw) = std::env::var(AUTOTUNE_ENV) {
        match raw.trim().to_ascii_lowercase().as_str() {
            "startup" => return AutotunePolicy::Startup,
            "off" => return AutotunePolicy::Off,
            _ => {}
        }
    }
    AutotunePolicy::Off
}

/// Parse a byte count with an optional `k`/`m`/`g` binary suffix
/// (case-insensitive): `"1048576"`, `"64m"`, `"2G"`. `None` on anything
/// else, including overflow.
fn parse_byte_size(raw: &str) -> Option<usize> {
    let s = raw.trim();
    let (digits, shift) = match s.char_indices().last()? {
        (i, 'k') | (i, 'K') => (&s[..i], 10u32),
        (i, 'm') | (i, 'M') => (&s[..i], 20),
        (i, 'g') | (i, 'G') => (&s[..i], 30),
        _ => (s, 0),
    };
    let base: usize = digits.trim().parse().ok()?;
    base.checked_mul(1 << shift)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_cache_size_parsing() {
        assert_eq!(parse_byte_size("0"), Some(0));
        assert_eq!(parse_byte_size("1048576"), Some(1 << 20));
        assert_eq!(parse_byte_size("64m"), Some(64 << 20));
        assert_eq!(parse_byte_size(" 2G "), Some(2 << 30));
        assert_eq!(parse_byte_size("8k"), Some(8 << 10));
        // Values whose scaled size overflows usize must not parse: a bare
        // shift wraps 2^34 GiB to 0 (silently disabling the cache) and
        // 2^34 + 1 GiB to 1 GiB.
        let wraps = [
            format!("{}g", 1u64 << 34),
            format!("{}g", (1u64 << 34) + 1),
            format!("{}m", 1u64 << 44),
            format!("{}k", 1u64 << 54),
            format!("{}k", usize::MAX),
        ];
        for bad in wraps.iter().map(String::as_str).chain(["", "m", "-1", "64q", "1.5m"]) {
            assert_eq!(parse_byte_size(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn weight_cache_resolution_priority() {
        let _guard = me_par::env_lock().lock().unwrap_or_else(|e| e.into_inner());
        let saved = std::env::var(WEIGHT_CACHE_ENV).ok();
        std::env::remove_var(WEIGHT_CACHE_ENV);
        assert_eq!(resolve_weight_cache(0), 0, "explicit 0 disables");
        assert_eq!(resolve_weight_cache(123), 123, "explicit size wins");
        assert_eq!(resolve_weight_cache(usize::MAX), DEFAULT_WEIGHT_CACHE_BYTES);
        std::env::set_var(WEIGHT_CACHE_ENV, "16m");
        assert_eq!(resolve_weight_cache(usize::MAX), 16 << 20);
        assert_eq!(resolve_weight_cache(77), 77, "explicit beats env");
        std::env::set_var(WEIGHT_CACHE_ENV, "garbage");
        assert_eq!(resolve_weight_cache(usize::MAX), DEFAULT_WEIGHT_CACHE_BYTES);
        std::env::remove_var(WEIGHT_CACHE_ENV);
        if let Some(v) = saved {
            std::env::set_var(WEIGHT_CACHE_ENV, v);
        }
    }

    #[test]
    fn tenant_weight_resolution_priority() {
        let _guard = me_par::env_lock().lock().unwrap_or_else(|e| e.into_inner());
        let saved = std::env::var(TENANT_WEIGHTS_ENV).ok();
        std::env::remove_var(TENANT_WEIGHTS_ENV);
        assert_eq!(resolve_tenant_weights(&[]), vec![1], "default single tenant");
        assert_eq!(resolve_tenant_weights(&[2, 5]), vec![2, 5], "explicit wins");
        assert_eq!(resolve_tenant_weights(&[0, 3]), vec![1, 3], "zero clamps to 1");
        std::env::set_var(TENANT_WEIGHTS_ENV, "1, 3 ,2");
        assert_eq!(resolve_tenant_weights(&[]), vec![1, 3, 2]);
        assert_eq!(resolve_tenant_weights(&[7]), vec![7], "explicit beats env");
        std::env::set_var(TENANT_WEIGHTS_ENV, "1,oops");
        assert_eq!(resolve_tenant_weights(&[]), vec![1], "bad list falls back whole");
        std::env::set_var(TENANT_WEIGHTS_ENV, "0,4");
        assert_eq!(resolve_tenant_weights(&[]), vec![1, 4], "env zero clamps to 1");
        std::env::remove_var(TENANT_WEIGHTS_ENV);
        if let Some(v) = saved {
            std::env::set_var(TENANT_WEIGHTS_ENV, v);
        }
    }

    #[test]
    fn autotune_resolution_priority() {
        let _guard = me_par::env_lock().lock().unwrap_or_else(|e| e.into_inner());
        let saved = std::env::var(AUTOTUNE_ENV).ok();
        std::env::remove_var(AUTOTUNE_ENV);
        assert_eq!(resolve_autotune(None), AutotunePolicy::Off, "default is off");
        assert_eq!(resolve_autotune(Some(AutotunePolicy::Startup)), AutotunePolicy::Startup);
        std::env::set_var(AUTOTUNE_ENV, " Startup ");
        assert_eq!(resolve_autotune(None), AutotunePolicy::Startup);
        assert_eq!(
            resolve_autotune(Some(AutotunePolicy::Off)),
            AutotunePolicy::Off,
            "explicit beats env"
        );
        std::env::set_var(AUTOTUNE_ENV, "off");
        assert_eq!(resolve_autotune(None), AutotunePolicy::Off);
        std::env::set_var(AUTOTUNE_ENV, "garbage");
        assert_eq!(resolve_autotune(None), AutotunePolicy::Off, "garbage falls back");
        std::env::remove_var(AUTOTUNE_ENV);
        if let Some(v) = saved {
            std::env::set_var(AUTOTUNE_ENV, v);
        }
    }

    #[test]
    fn explicit_request_wins() {
        let _guard = me_par::env_lock().lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(resolve_shards(3), 3);
        assert_eq!(resolve_shards(1), 1);
    }

    #[test]
    fn env_and_fallback_resolution() {
        let _guard = me_par::env_lock().lock().unwrap_or_else(|e| e.into_inner());
        let saved = std::env::var(SHARDS_ENV).ok();
        std::env::set_var(SHARDS_ENV, "7");
        assert_eq!(resolve_shards(0), 7);
        std::env::set_var(SHARDS_ENV, "0");
        let auto = resolve_shards(0);
        assert!((1..=4).contains(&auto), "garbage env falls back to auto, got {auto}");
        std::env::set_var(SHARDS_ENV, "not-a-number");
        assert_eq!(resolve_shards(0), auto);
        std::env::remove_var(SHARDS_ENV);
        assert_eq!(resolve_shards(0), auto);
        if let Some(v) = saved {
            std::env::set_var(SHARDS_ENV, v);
        }
    }
}
