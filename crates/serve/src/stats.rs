//! Conservation counters, per-tenant accounting, and latency percentiles
//! for the scheduler.
//!
//! Every accepted submission increments `enqueued`; every resolution
//! increments exactly one of `completed_ok` / `timed_out` / `shed` /
//! `failed`. After a drain the books must balance:
//! `enqueued == completed_ok + timed_out + shed + failed` — the property
//! the fault-injection and stress suites assert over thousands of seeded
//! schedules. The counters are plain atomics (no locks on the hot path)
//! and are independent of the `trace` feature, so the invariants hold and
//! are checkable under `--no-default-features` too.
//!
//! ## Memory-ordering contract (per field)
//!
//! The shard queues are lock-free: no queue mutex orders counter
//! traffic, so every snapshot read races live bumps. The orderings below
//! are chosen so a *point-in-time* [`StatsSnapshot`] is still internally
//! coherent — specifically `resolved() ≤ enqueued` always holds, and
//! successive snapshots never decrease (the monotonicity suite):
//!
//! | field(s)                                   | bump              | snapshot load | why |
//! |--------------------------------------------|-------------------|---------------|-----|
//! | `completed_ok`,`timed_out`,`shed`,`failed` | `Release`         | `Acquire`     | the resolving thread observed the request's admission (ring slot `Acquire`), so an `Acquire` read of the outcome makes the matching `enqueued` bump visible to loads that follow |
//! | `enqueued` (total and per-tenant)          | `Relaxed`¹        | `Relaxed`²    | ¹ bumped strictly before the request becomes consumable (inside the ring publish window); ² loaded *after* the outcome `Acquire`s, so it can never lag them |
//! | everything else (diagnostics)              | `Relaxed`         | `Relaxed`     | monotone counters with no cross-field invariant tighter than "snapshot of a monotone counter" |
//!
//! The latency histogram's buckets are `Relaxed`; a snapshot rebuilds
//! `count` as the sum of the bucket reads, so the derived
//! [`me_trace::Histogram`] is consistent by construction even if it
//! straddles concurrent records.

use std::sync::atomic::{AtomicU64, Ordering};

use me_trace::{Histogram, HIST_BUCKETS};

/// Lock-free log2 latency histogram (same bucketing rule as
/// [`me_trace::Histogram`], shared via [`Histogram::bucket_index`]), kept
/// in `ServeStats` so percentiles work under `--no-default-features`
/// where the me-trace collector is a no-op.
#[derive(Debug)]
pub(crate) struct AtomicHistogram {
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl AtomicHistogram {
    /// Record one value (Relaxed: diagnostics, no cross-field invariant).
    // me-verify: hot
    pub(crate) fn record(&self, value: u64) {
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[Histogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Materialize a consistent [`Histogram`]: `count` is derived from
    /// the bucket reads, so `is_consistent()` holds even mid-record.
    pub(crate) fn to_histogram(&self) -> Histogram {
        let mut h = Histogram::default();
        for (dst, src) in h.buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        h.count = h.buckets.iter().sum();
        h.sum = u128::from(self.sum.load(Ordering::Relaxed));
        h
    }
}

/// Per-tenant conservation counters (one slot per configured tenant
/// weight; tenant ids map to slots modulo the tenant count).
#[derive(Debug, Default)]
pub(crate) struct TenantCounters {
    pub(crate) enqueued: AtomicU64,
    pub(crate) completed_ok: AtomicU64,
    pub(crate) timed_out: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) failed: AtomicU64,
}

/// Live counters, shared between the submitter-side API and the shard
/// threads. See the module docs for the per-field ordering contract.
#[derive(Debug)]
pub(crate) struct ServeStats {
    pub(crate) enqueued: AtomicU64,
    pub(crate) completed_ok: AtomicU64,
    pub(crate) timed_out: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) rejected_full: AtomicU64,
    pub(crate) rejected_shutdown: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) retries_timed_out: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batched_requests: AtomicU64,
    pub(crate) stacked_rows: AtomicU64,
    pub(crate) max_batch: AtomicU64,
    pub(crate) queue_high_water: AtomicU64,
    pub(crate) double_resolves: AtomicU64,
    /// Submission→resolution latency in nanoseconds, log2-bucketed.
    pub(crate) latency: AtomicHistogram,
    /// One slot per configured tenant (always ≥ 1).
    pub(crate) tenants: Vec<TenantCounters>,
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats::new(1)
    }
}

impl ServeStats {
    /// Build the counter block with `tenants` per-tenant slots (min 1).
    pub(crate) fn new(tenants: usize) -> ServeStats {
        ServeStats {
            enqueued: AtomicU64::new(0),
            completed_ok: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected_full: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            retries_timed_out: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            stacked_rows: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
            double_resolves: AtomicU64::new(0),
            latency: AtomicHistogram::default(),
            tenants: (0..tenants.max(1)).map(|_| TenantCounters::default()).collect(),
        }
    }

    /// Relaxed bump for diagnostics and admission-side counters (the
    /// admission counters get their ordering from the publish they
    /// precede — the ring slot release).
    // me-verify: hot
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Release bump for terminal-outcome counters: pairs with the
    /// `Acquire` loads in [`ServeStats::snapshot`] so any snapshot that
    /// sees the resolution also sees its admission.
    // me-verify: hot
    pub(crate) fn bump_outcome(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn record_max(counter: &AtomicU64, value: u64) {
        counter.fetch_max(value, Ordering::Relaxed);
    }

    /// Map a tenant id to its counter slot.
    pub(crate) fn tenant_slot(&self, tenant: u32) -> &TenantCounters {
        &self.tenants[tenant as usize % self.tenants.len()]
    }

    /// Point-in-time snapshot. Outcome counters are loaded first with
    /// `Acquire` (totals, then per-tenant), *then* the admission and
    /// diagnostic counters — the load order that makes
    /// `resolved() ≤ enqueued` hold in every snapshot (module docs).
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let completed_ok = self.completed_ok.load(Ordering::Acquire);
        let timed_out = self.timed_out.load(Ordering::Acquire);
        let shed = self.shed.load(Ordering::Acquire);
        let failed = self.failed.load(Ordering::Acquire);
        let latency = self.latency.to_histogram();
        StatsSnapshot {
            completed_ok,
            timed_out,
            shed,
            failed,
            enqueued: self.enqueued.load(Ordering::Relaxed),
            rejected_full: self.rejected_full.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            retries_timed_out: self.retries_timed_out.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            stacked_rows: self.stacked_rows.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            double_resolves: self.double_resolves.load(Ordering::Relaxed),
            latency_count: latency.count,
            p50_ns: latency.quantile(0.50),
            p95_ns: latency.quantile(0.95),
            p99_ns: latency.quantile(0.99),
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            cache_pack_bytes_saved: 0,
        }
    }

    /// Per-tenant snapshots, same load-order contract as
    /// [`ServeStats::snapshot`] within each slot.
    pub(crate) fn tenant_snapshots(&self) -> Vec<TenantSnapshot> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let completed_ok = t.completed_ok.load(Ordering::Acquire);
                let timed_out = t.timed_out.load(Ordering::Acquire);
                let shed = t.shed.load(Ordering::Acquire);
                let failed = t.failed.load(Ordering::Acquire);
                TenantSnapshot {
                    tenant: i as u32,
                    completed_ok,
                    timed_out,
                    shed,
                    failed,
                    enqueued: t.enqueued.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// The full latency histogram (for exporters and SLO calibration).
    pub(crate) fn latency_histogram(&self) -> Histogram {
        self.latency.to_histogram()
    }
}

/// A point-in-time copy of the scheduler's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Accepted submissions (tickets issued).
    pub enqueued: u64,
    /// Requests resolved `Ok`.
    pub completed_ok: u64,
    /// Requests resolved `TimedOut`.
    pub timed_out: u64,
    /// Requests resolved `Shed`.
    pub shed: u64,
    /// Requests resolved `Failed`.
    pub failed: u64,
    /// Submissions rejected with `QueueFull` (no ticket issued).
    pub rejected_full: u64,
    /// Submissions rejected with `ShuttingDown` (no ticket issued).
    pub rejected_shutdown: u64,
    /// Re-enqueues after a transient failure.
    pub retries: u64,
    /// Retried requests resolved `TimedOut` without another execution
    /// because their deadline fell within (or before) the backoff window
    /// — at requeue time or while waiting in the delayed queue. Counted
    /// inside `timed_out` for conservation; this is the diagnostic split.
    pub retries_timed_out: u64,
    /// Batched executions run.
    pub batches: u64,
    /// Requests that went through a batched execution.
    pub batched_requests: u64,
    /// Total A-rows executed through the row-stacked GEMM path.
    pub stacked_rows: u64,
    /// Largest batch coalesced.
    pub max_batch: u64,
    /// Highest ready-queue depth observed on any shard.
    pub queue_high_water: u64,
    /// Resolutions that found their ticket already resolved. Always 0 in
    /// a correct scheduler; the exactly-once suites assert it.
    pub double_resolves: u64,
    /// Requests with a recorded submission→resolution latency (equals
    /// `resolved()` modulo in-flight records).
    pub latency_count: u64,
    /// p50 submission→resolution latency in ns (log2-bucket upper bound;
    /// ≥ the exact sample quantile by less than one bucket width).
    pub p50_ns: u64,
    /// p95 latency in ns (same bucket-bound convention).
    pub p95_ns: u64,
    /// p99 latency in ns (same bucket-bound convention).
    pub p99_ns: u64,
    /// Weight-cache lookups served from a live prepacked entry (0 when
    /// the cache is disabled).
    pub cache_hits: u64,
    /// Weight-cache lookups that had to pack B (cold key, stale blocking,
    /// or a lost insert race). `cache_hits + cache_misses` equals the
    /// number of cache lookups.
    pub cache_misses: u64,
    /// Weight-cache entries evicted (LRU capacity pressure or a blocking
    /// change invalidation).
    pub cache_evictions: u64,
    /// Packed-B bytes that did not have to be rebuilt thanks to cache
    /// hits — the repack work the cache saved.
    pub cache_pack_bytes_saved: u64,
}

impl StatsSnapshot {
    /// Requests resolved so far, over all terminal outcomes.
    pub fn resolved(&self) -> u64 {
        self.completed_ok + self.timed_out + self.shed + self.failed
    }

    /// The conservation invariant: every accepted request has resolved
    /// exactly once (call after a drain).
    pub fn is_conserved(&self) -> bool {
        self.enqueued == self.resolved() && self.double_resolves == 0
    }
}

/// A point-in-time copy of one tenant's conservation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Tenant slot index (tenant ids map in modulo the slot count).
    pub tenant: u32,
    /// Accepted submissions for this tenant.
    pub enqueued: u64,
    /// Requests resolved `Ok`.
    pub completed_ok: u64,
    /// Requests resolved `TimedOut`.
    pub timed_out: u64,
    /// Requests resolved `Shed`.
    pub shed: u64,
    /// Requests resolved `Failed`.
    pub failed: u64,
}

impl TenantSnapshot {
    /// Requests resolved so far for this tenant.
    pub fn resolved(&self) -> u64 {
        self.completed_ok + self.timed_out + self.shed + self.failed
    }

    /// Per-tenant conservation (call after a drain).
    pub fn is_conserved(&self) -> bool {
        self.enqueued == self.resolved()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_balances() {
        let s = ServeStats::default();
        for _ in 0..5 {
            ServeStats::bump(&s.enqueued);
        }
        ServeStats::bump_outcome(&s.completed_ok);
        ServeStats::bump_outcome(&s.timed_out);
        ServeStats::bump_outcome(&s.shed);
        ServeStats::bump_outcome(&s.failed);
        assert!(!s.snapshot().is_conserved(), "one request still open");
        ServeStats::bump_outcome(&s.completed_ok);
        let snap = s.snapshot();
        assert_eq!(snap.resolved(), 5);
        assert!(snap.is_conserved());
    }

    #[test]
    fn high_water_is_a_max() {
        let s = ServeStats::default();
        for depth in [3u64, 9, 1, 7] {
            ServeStats::record_max(&s.queue_high_water, depth);
        }
        assert_eq!(s.snapshot().queue_high_water, 9);
    }

    #[test]
    fn double_resolves_break_conservation() {
        let s = ServeStats::default();
        ServeStats::bump(&s.enqueued);
        ServeStats::bump_outcome(&s.completed_ok);
        ServeStats::bump(&s.double_resolves);
        assert!(!s.snapshot().is_conserved());
    }

    #[test]
    fn latency_percentiles_come_from_the_histogram() {
        let s = ServeStats::default();
        for v in [100u64, 200, 400, 800, 100_000] {
            s.latency.record(v);
        }
        let snap = s.snapshot();
        assert_eq!(snap.latency_count, 5);
        assert!(snap.p50_ns <= snap.p95_ns && snap.p95_ns <= snap.p99_ns);
        // p99 → rank 5 → 100_000 lives in bucket 17 (bound 131071).
        assert_eq!(snap.p99_ns, (1 << 17) - 1);
        // p50 → rank 3 → 400, bucket 9 (bound 511).
        assert_eq!(snap.p50_ns, 511);
    }

    #[test]
    fn tenant_slots_wrap_modulo() {
        let s = ServeStats::new(3);
        ServeStats::bump(&s.tenant_slot(0).enqueued);
        ServeStats::bump(&s.tenant_slot(3).enqueued);
        ServeStats::bump(&s.tenant_slot(5).enqueued);
        let snaps = s.tenant_snapshots();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].enqueued, 2, "tenants 0 and 3 share slot 0");
        assert_eq!(snaps[2].enqueued, 1);
        assert!(snaps[1].is_conserved(), "empty slot is trivially conserved");
    }
}
