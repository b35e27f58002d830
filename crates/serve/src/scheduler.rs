//! The sharded, batching scheduler.
//!
//! Data path: [`Scheduler::submit`] hashes the request's [`BucketKey`] to
//! a shard and admits it to that shard's bounded queue (backpressure: a
//! full queue rejects with [`SubmitError::QueueFull`]). Each shard owns
//! one scheduler thread and one [`me_par::WorkerPool`]; the thread pops
//! the queue head, coalesces up to `batch_max` same-bucket requests
//! (FIFO within the bucket, non-matching requests keep their relative
//! order), and executes the batch:
//!
//! - **GEMM buckets** share one `B` operand (`Arc` identity), one alpha,
//!   and one kernel variant, so the batch row-stacks the `A` operands
//!   into a single `(Σmᵢ) × k × n` GEMM on the shard's pool. This is the
//!   batching payoff the paper's utilization argument needs: one B-pack
//!   per batch instead of per request, full MR-tile occupancy for skinny
//!   requests — and it is **bitwise identical** to running each request
//!   alone, because the packed core's per-element FMA order never
//!   depends on the row partition (`me-linalg::blas3`'s fixed-kernel
//!   guarantee).
//! - **Ozaki buckets** execute per request, fanned over the pool; each
//!   request is the exact serial [`me_ozaki::ozaki_gemm`].
//!
//! ## The shard queue
//!
//! Each shard's queue is a bounded lock-free Vyukov MPMC ring
//! ([`crate::ring::MpmcRing`]) fronted by a single atomic admission gate
//! (closed-bit + logical depth in one word). Producers never take a
//! lock; the shard thread drains the ring into a consumer-local ready
//! queue and parks on a `Condvar` **only at the idle edge** (SeqCst-fence
//! Dekker handshake against the producers — DESIGN.md §14), then serves
//! tenants by deficit-weighted fair selection. `tests/differential.rs`
//! pins seeded replays of this path to golden per-request digests.
//!
//! Robustness: per-request deadlines (checked at dequeue and again
//! after execution), bounded retries with exponential backoff for
//! transient failures, drop-head load shedding beyond the configured
//! watermark, and panic isolation — a panicking
//! job fails its own ticket and never takes down the shard. The shard
//! thread alone resolves tickets, in batch FIFO order, stamping a global
//! resolution sequence number and the submission→resolution latency
//! (p50/p95/p99 in [`StatsSnapshot`]); the conservation counters account
//! for every accepted request exactly once, per tenant and in total.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use me_linalg::{
    gemm_parallel_on_prepacked_with, gemm_parallel_on_with, gemm_tiled_prepacked_with,
    gemm_tiled_with, Mat, PackedB,
};
use me_ozaki::ozaki_gemm;

use crate::cache::{CacheStats, WeightCache};
use crate::fault::{Fault, FaultPlan, FaultStage, INJECTED_PANIC};
use crate::request::{
    BucketKey, Completion, Job, JobKind, Outcome, SubmitError, Ticket, TicketState,
};
use crate::ring::MpmcRing;
use crate::stats::{ServeStats, StatsSnapshot, TenantSnapshot};

/// Ceiling on the retry-backoff exponent (backoff = base · 2^min(attempt, CAP)).
const BACKOFF_EXP_CAP: u32 = 10;
// The backoff multiplier is `1u32 << exp`: a cap at or beyond the u32
// width would make the shift overflow (or, pre-hardening, wrap to a
// silent zero backoff). Fail the build, not the retry path.
const _: () = assert!(BACKOFF_EXP_CAP < 32, "backoff exponent cap must fit a u32 shift");

/// Scheduler configuration. `Default` is a production-shaped setup:
/// auto shards/threads, a 1024-deep queue per shard, batches of up to 64,
/// two retries with 1 ms base backoff, shedding disabled (watermark =
/// capacity), single-tenant, no fault injection.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard count; `0` = auto ([`crate::resolve_shards`]: `ME_SHARDS`,
    /// else min(4, available parallelism)). Read once at
    /// [`Scheduler::new`] — see DESIGN.md §10 for the startup-read
    /// contract.
    pub shards: usize,
    /// Worker-pool width per shard; `0` = auto
    /// ([`me_par::resolve_threads`]: `ME_THREADS`, else the OS).
    pub shard_threads: usize,
    /// Bounded per-shard queue capacity (ready + delayed); a full queue
    /// rejects new submissions with [`SubmitError::QueueFull`]. Retries
    /// re-enter above this bound so an admitted request is never lost.
    pub queue_capacity: usize,
    /// Drop-head shedding watermark: when a shard starts a cycle with
    /// more than this many ready requests, the oldest excess resolves
    /// [`Outcome::Shed`]. `0` means "= capacity" (shedding only via
    /// backpressure).
    pub shed_watermark: usize,
    /// Maximum requests coalesced into one batched execution.
    pub batch_max: usize,
    /// Retries allowed after a transient failure before the request
    /// resolves [`Outcome::Failed`].
    pub max_retries: u32,
    /// Base of the exponential retry backoff.
    pub backoff_base: Duration,
    /// Deterministic fault plan (tests/benches only; `None` in
    /// production).
    pub fault_plan: Option<FaultPlan>,
    /// Prepacked-B weight cache bound in bytes of packed payload.
    /// `usize::MAX` = auto ([`crate::resolve_weight_cache`]:
    /// `ME_WEIGHT_CACHE`, else 64 MiB); `0` disables the cache entirely
    /// (every batch re-packs, the pre-cache behavior). Resolved once at
    /// [`Scheduler::new`] under the §10 startup-read contract.
    pub weight_cache_bytes: usize,
    /// Per-tenant weights for deficit-weighted fair selection; empty =
    /// auto ([`crate::resolve_tenant_weights`]:
    /// `ME_TENANT_WEIGHTS` comma list, else single-tenant FIFO). Tenant
    /// ids map onto slots modulo the weight count; zero weights clamp
    /// to 1.
    pub tenant_weights: Vec<u64>,
    /// Startup blocking-autotune policy; `None` = auto
    /// ([`crate::resolve_autotune`]: `ME_AUTOTUNE` `startup`/`off`, else
    /// off). With [`AutotunePolicy::Startup`] resolved, `Scheduler::new`
    /// runs the quick GEMMbench sweep once — loading the persisted
    /// artifact instead when one exists — and installs the winners
    /// before any shard worker starts. Read once under the §10
    /// startup-read contract.
    pub autotune: Option<crate::AutotunePolicy>,
    /// Autotune artifact location; `None` = `artifacts/autotune.json`
    /// (the path the benches share). Only consulted when the resolved
    /// policy is [`AutotunePolicy::Startup`].
    pub autotune_path: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 0,
            shard_threads: 0,
            queue_capacity: 1024,
            shed_watermark: 0,
            batch_max: 64,
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            fault_plan: None,
            weight_cache_bytes: usize::MAX,
            tenant_weights: Vec::new(),
            autotune: None,
            autotune_path: None,
        }
    }
}

/// One admitted request, as it lives in a shard queue.
struct Pending {
    id: u64,
    key: BucketKey,
    job: JobKind,
    deadline: Option<Instant>,
    attempt: u32,
    /// Tenant slot (already reduced modulo the configured slot count).
    tenant: u32,
    /// Submission instant, for the latency histogram.
    submitted: Instant,
    ticket: Arc<TicketState>,
}

/// A retried request waiting out its backoff.
struct Delayed {
    ready_at: Instant,
    seq: u64,
    pending: Pending,
}

/// Closed bit of a shard queue's admission gate; the low 63 bits hold
/// the logical queue depth (in-ring + consumer-local ready + delayed +
/// admissions between gate-CAS and ring-publish).
const GATE_CLOSED: u64 = 1 << 63;

/// One shard's lock-free queue: admissions CAS the gate (bound +
/// shutdown in one atomic word) and publish through the MPMC ring; the
/// park mutex/condvar pair is touched **only** on the idle edge (empty
/// ring) and by shutdown, never on the hot path.
struct RingQueue {
    ring: MpmcRing<Pending>,
    /// `GATE_CLOSED` bit + logical depth. One word, so the shard
    /// thread's exit check (`closed && depth == 0`) can never race an
    /// in-flight admission: an admission either CASes depth up before
    /// the close (the exit check sees it) or observes the closed bit and
    /// rejects.
    gate: AtomicU64,
    /// Parking lot for the shard thread's idle edge.
    park: Mutex<()>,
    cv: Condvar,
    /// Whether the shard thread is (about to be) parked; producers skip
    /// the park lock entirely while this is false. The SeqCst
    /// store/fence handshake against `ring` publish makes the skip safe
    /// (DESIGN.md §14).
    parked: AtomicBool,
    capacity: u64,
}

impl RingQueue {
    /// Wake the shard thread if it is parked (or about to park). The
    /// notify happens under the park lock, so a consumer that re-checked
    /// the ring under that same lock either saw our push or is already
    /// waiting on the condvar.
    // me-verify: hot
    fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) {
            let _guard = self.park.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }
}

/// Everything a shard thread needs, cloneable into the thread.
#[derive(Clone)]
struct ShardCtx {
    stats: Arc<ServeStats>,
    order: Arc<AtomicU64>,
    plan: Option<FaultPlan>,
    width: usize,
    batch_max: usize,
    shed_watermark: usize,
    max_retries: u32,
    backoff_base: Duration,
    /// Resolved per-tenant weights (len ≥ 1, all ≥ 1).
    tenant_weights: Arc<[u64]>,
    /// Shared prepacked-B weight cache; `None` = caching disabled.
    cache: Option<Arc<WeightCache>>,
}

/// The batched, sharded GEMM request scheduler. See the module docs for
/// the data path; see [`ServeConfig`] for the knobs.
///
/// Dropping the scheduler (or calling [`Scheduler::shutdown`]) drains
/// gracefully: no new submissions are accepted, every already-admitted
/// request — including in-flight retries — resolves, and the shard
/// threads are joined.
pub struct Scheduler {
    queues: Vec<Arc<RingQueue>>,
    threads: Vec<Option<JoinHandle<()>>>,
    stats: Arc<ServeStats>,
    order: Arc<AtomicU64>,
    next_id: AtomicU64,
    accepting: AtomicBool,
    plan: Option<FaultPlan>,
    pool_width: usize,
    tenant_weights: Arc<[u64]>,
    cache: Option<Arc<WeightCache>>,
}

impl Scheduler {
    /// Build and start a scheduler. Shard count, pool width, tenant
    /// weights, and cache size resolve through [`crate::resolve_shards`] /
    /// [`me_par::resolve_threads`] / [`crate::resolve_tenant_weights`] /
    /// [`crate::resolve_weight_cache`] **here, once** — environment
    /// changes after construction do not retarget a live scheduler.
    pub fn new(config: ServeConfig) -> Scheduler {
        if crate::resolve_autotune(config.autotune) == crate::AutotunePolicy::Startup {
            let path = config
                .autotune_path
                .clone()
                .unwrap_or_else(|| std::path::PathBuf::from("artifacts/autotune.json"));
            let sweep = me_linalg::blas3::autotune::SweepConfig::QUICK;
            match me_linalg::blas3::autotune::ensure_autotuned(&path, sweep) {
                Ok(_) => me_trace::counter_add("serve.autotune_startup", 1),
                // A failed sweep must not take the serving layer down:
                // the compiled blocking defaults are always valid.
                Err(e) => eprintln!(
                    "me-serve: startup autotune failed ({e}); keeping compiled blocking defaults"
                ),
            }
        }
        let nshards = crate::resolve_shards(config.shards);
        let width = me_par::resolve_threads(config.shard_threads);
        let capacity = config.queue_capacity.max(1);
        let watermark = if config.shed_watermark == 0 {
            capacity
        } else {
            config.shed_watermark.clamp(1, capacity)
        };
        let tenant_weights: Arc<[u64]> =
            crate::resolve_tenant_weights(&config.tenant_weights).into();
        let stats = Arc::new(ServeStats::new(tenant_weights.len()));
        let order = Arc::new(AtomicU64::new(0));
        let cache_bytes = crate::resolve_weight_cache(config.weight_cache_bytes);
        let cache = if cache_bytes == 0 {
            None
        } else {
            Some(Arc::new(WeightCache::new(cache_bytes)))
        };
        let mut queues = Vec::with_capacity(nshards);
        let mut threads = Vec::with_capacity(nshards);
        for i in 0..nshards {
            let queue = Arc::new(RingQueue {
                ring: MpmcRing::new(capacity),
                gate: AtomicU64::new(0),
                park: Mutex::new(()),
                cv: Condvar::new(),
                parked: AtomicBool::new(false),
                capacity: capacity as u64,
            });
            let ctx = ShardCtx {
                stats: Arc::clone(&stats),
                order: Arc::clone(&order),
                plan: config.fault_plan,
                width,
                batch_max: config.batch_max.max(1),
                shed_watermark: watermark,
                max_retries: config.max_retries,
                backoff_base: config.backoff_base,
                tenant_weights: Arc::clone(&tenant_weights),
                cache: cache.clone(),
            };
            let builder = std::thread::Builder::new().name(format!("me-serve-shard-{i}"));
            // If the OS refuses the spawn, the shard runs in synchronous
            // fallback mode: submissions targeting it execute inline on
            // the caller's thread (see `submit`). Nothing is lost, only
            // the asynchrony.
            let thread_queue = Arc::clone(&queue);
            let handle = builder.spawn(move || shard_loop(ctx, &thread_queue)).ok();
            queues.push(queue);
            threads.push(handle);
        }
        Scheduler {
            queues,
            threads,
            stats,
            order,
            next_id: AtomicU64::new(0),
            accepting: AtomicBool::new(true),
            plan: config.fault_plan,
            pool_width: width,
            tenant_weights,
            cache,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Worker-pool width each shard executes with.
    pub fn pool_width(&self) -> usize {
        self.pool_width
    }

    /// The resolved per-tenant weights (len ≥ 1, every weight ≥ 1).
    pub fn tenant_weights(&self) -> &[u64] {
        &self.tenant_weights
    }

    /// Snapshot the conservation counters, with the weight-cache
    /// counters folded in when caching is enabled.
    pub fn stats(&self) -> StatsSnapshot {
        self.snapshot_with_cache()
    }

    /// Per-tenant conservation snapshots, one per configured weight
    /// slot.
    pub fn tenant_stats(&self) -> Vec<TenantSnapshot> {
        self.stats.tenant_snapshots()
    }

    /// The full submission→resolution latency histogram (log2 buckets,
    /// nanoseconds) — the source of the snapshot's p50/p95/p99 fields,
    /// exposed for SLO calibration and exporters.
    pub fn latency_histogram(&self) -> me_trace::Histogram {
        self.stats.latency_histogram()
    }

    /// Snapshot the prepacked-B weight cache counters; `None` when the
    /// cache is disabled (`weight_cache_bytes == 0` or
    /// `ME_WEIGHT_CACHE=0`).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    fn snapshot_with_cache(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        if let Some(cs) = self.cache_stats() {
            snap.cache_hits = cs.hits;
            snap.cache_misses = cs.misses;
            snap.cache_evictions = cs.evictions;
            snap.cache_pack_bytes_saved = cs.pack_bytes_saved;
        }
        snap
    }

    /// Submit a request. On success the returned [`Ticket`] resolves
    /// exactly once; on failure no ticket exists and the request is not
    /// part of the conservation accounting.
    pub fn submit(&self, job: Job) -> Result<Ticket, SubmitError> {
        let _s = me_trace::span("serve.enqueue", "serve");
        if !job.shape_ok() {
            return Err(SubmitError::BadShape);
        }
        if !self.accepting.load(Ordering::Acquire) {
            ServeStats::bump(&self.stats.rejected_shutdown);
            return Err(SubmitError::ShuttingDown);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let deadline = job.timeout.map(|t| now + t);
        if let Some(plan) = &self.plan {
            FaultPlan::apply_delay(plan.decide(FaultStage::Enqueue, id, 0));
        }
        let key = BucketKey::of(&job);
        let shard = (key.shard_hash() % self.queues.len() as u64) as usize;
        let tenant = job.tenant.0 % self.tenant_weights.len() as u32;
        let ticket_state = TicketState::new();
        let pending = Pending {
            id,
            key,
            job: job.kind,
            deadline,
            attempt: 0,
            tenant,
            submitted: now,
            ticket: Arc::clone(&ticket_state),
        };
        self.admit(&self.queues[shard], pending, self.threads[shard].is_some())?;
        Ok(Ticket { state: ticket_state, id })
    }

    /// Admission: one CAS on the gate decides shutdown/backpressure, then
    /// the value publishes through the lock-free ring. The `enqueued` counters are bumped inside the
    /// ring's claimed-slot window (after the gate admitted, before the
    /// publishing sequence store), so the shard thread can never resolve
    /// a request whose admission a snapshot has not seen.
    // me-verify: hot
    fn admit(&self, rq: &RingQueue, pending: Pending, has_thread: bool) -> Result<(), SubmitError> {
        let mut g = rq.gate.load(Ordering::Relaxed);
        loop {
            if g & GATE_CLOSED != 0 {
                ServeStats::bump(&self.stats.rejected_shutdown);
                return Err(SubmitError::ShuttingDown);
            }
            if g & !GATE_CLOSED >= rq.capacity {
                ServeStats::bump(&self.stats.rejected_full);
                me_trace::counter_add("serve.rejected", 1);
                return Err(SubmitError::QueueFull);
            }
            match rq.gate.compare_exchange_weak(g, g + 1, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(current) => g = current,
            }
        }
        let depth = (g & !GATE_CLOSED) + 1;
        let tenant = pending.tenant;
        if !has_thread {
            // Synchronous fallback shard (spawn failed at startup): the
            // request leaves the logical queue immediately.
            ServeStats::bump(&self.stats.enqueued);
            ServeStats::bump(&self.stats.tenant_slot(tenant).enqueued);
            me_trace::counter_add("serve.enqueued", 1);
            rq.gate.fetch_sub(1, Ordering::Relaxed);
            self.execute_inline(pending);
            return Ok(());
        }
        let stats = &self.stats;
        match rq.ring.push_with(pending, || {
            ServeStats::bump(&stats.enqueued);
            ServeStats::bump(&stats.tenant_slot(tenant).enqueued);
            ServeStats::record_max(&stats.queue_high_water, depth);
        }) {
            Ok(()) => {
                me_trace::counter_add("serve.enqueued", 1);
                me_trace::hist_record("serve.queue_depth", depth);
                rq.wake();
                Ok(())
            }
            Err(_rejected) => {
                // Unreachable by construction: the ring's physical size
                // is ≥ the gate bound and retries never re-enter the
                // ring, so an admitted push always finds a slot. Keep
                // the books balanced anyway (no enqueued bump happened —
                // the hook only runs on a claimed slot).
                rq.gate.fetch_sub(1, Ordering::Relaxed);
                ServeStats::bump(&self.stats.rejected_full);
                me_trace::counter_add("serve.rejected", 1);
                Err(SubmitError::QueueFull)
            }
        }
    }

    /// Execute a request synchronously on the caller's thread (spawn
    /// failed at startup). `max_retries` pins to 0, so `execute_batch`
    /// can never hand back a retry here.
    fn execute_inline(&self, pending: Pending) {
        let ctx = ShardCtx {
            stats: Arc::clone(&self.stats),
            order: Arc::clone(&self.order),
            plan: self.plan,
            width: 1,
            batch_max: 1,
            shed_watermark: usize::MAX,
            max_retries: 0,
            backoff_base: Duration::ZERO,
            tenant_weights: Arc::clone(&self.tenant_weights),
            cache: self.cache.clone(),
        };
        let pool = me_par::WorkerPool::new(1);
        let retries = execute_batch(&ctx, &pool, vec![pending]);
        for p in retries {
            // Defensive: impossible with max_retries = 0, but a dropped
            // Pending would leak an unresolved ticket.
            resolve(&ctx, p, Outcome::Failed("internal: retry on fallback shard".to_string()));
        }
    }

    /// Stop accepting, drain every queue (including pending retries),
    /// resolve everything, and join the shard threads. Returns the final
    /// counter snapshot, on which
    /// [`StatsSnapshot::is_conserved`] must hold.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.begin_shutdown();
        for handle in self.threads.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
        self.snapshot_with_cache()
    }

    fn begin_shutdown(&self) {
        self.accepting.store(false, Ordering::Release);
        for rq in &self.queues {
            rq.gate.fetch_or(GATE_CLOSED, Ordering::Relaxed);
            // Notify under the park lock: the shard thread re-checks the
            // closed bit under this same lock before waiting, so the
            // wakeup cannot be lost.
            let _guard = rq.park.lock().unwrap_or_else(|e| e.into_inner());
            rq.cv.notify_all();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.threads.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("shards", &self.queues.len())
            .field("pool_width", &self.pool_width)
            .field("tenants", &self.tenant_weights.len())
            .finish()
    }
}

/// Move every due delayed entry into the ready queue, oldest first.
///
/// Entries whose **deadline** has already expired are drained into
/// `dead` instead of being dispatched — the caller resolves them
/// `TimedOut`. Before this check, a retried request whose deadline
/// passed mid-backoff would still be promoted and executed dead. Both
/// queues are consumer-local to the shard thread, so no lock is
/// involved.
fn promote_due(
    delayed: &mut Vec<Delayed>,
    ready: &mut VecDeque<Pending>,
    now: Instant,
    stats: &ServeStats,
    dead: &mut Vec<Pending>,
) {
    if delayed.is_empty() {
        return;
    }
    let mut i = 0;
    while i < delayed.len() {
        if delayed[i].pending.deadline.is_some_and(|d| d <= now) {
            let d = delayed.swap_remove(i);
            dead.push(d.pending);
        } else {
            i += 1;
        }
    }
    delayed.sort_by_key(|d| (d.ready_at, d.seq));
    while delayed.first().is_some_and(|d| d.ready_at <= now) {
        let d = delayed.remove(0);
        ready.push_back(d.pending);
        ServeStats::record_max(&stats.queue_high_water, ready.len() as u64);
    }
}

/// Deficit-weighted round-robin tenant selection.
///
/// Classic DRR with a per-request cost of 1: each round-robin visit
/// grants a tenant its weight in credit; the first backlogged tenant
/// with positive credit is served, and every admitted request charges
/// one credit to *its own* tenant. Over a saturated window the served
/// ratio converges to the weight ratio regardless of batch size (a
/// tenant that got a big batch goes correspondingly deep into deficit
/// and waits proportionally longer). Banked credit is capped at one
/// weight quantum so an idle tenant cannot burst past its share later,
/// and a sole-backlogged tenant resets all credit (fairness is about
/// contention; there is nothing to arbitrate).
struct FairState {
    weights: Arc<[u64]>,
    deficit: Vec<i64>,
    /// Scratch: which tenants have backlogged work this cycle.
    active: Vec<bool>,
    cursor: usize,
}

impl FairState {
    fn new(weights: Arc<[u64]>) -> FairState {
        let n = weights.len();
        FairState { weights, deficit: vec![0; n], active: vec![false; n], cursor: 0 }
    }

    /// Pick the queue index of the request to serve next, or `None` on
    /// an empty queue. Single-tenant configurations always pick the
    /// head — exactly the legacy FIFO.
    fn select(&mut self, ready: &VecDeque<Pending>) -> Option<usize> {
        if ready.is_empty() {
            return None;
        }
        let t = self.weights.len();
        if t <= 1 {
            return Some(0);
        }
        for a in self.active.iter_mut() {
            *a = false;
        }
        let mut nactive = 0usize;
        for p in ready {
            let s = p.tenant as usize;
            if !self.active[s] {
                self.active[s] = true;
                nactive += 1;
            }
        }
        if nactive == 1 {
            // No contention: serve FIFO and clear banked credit so the
            // idle period does not distort the next contended window.
            for d in self.deficit.iter_mut() {
                *d = 0;
            }
            return Some(0);
        }
        // Deficit round-robin: a tenant keeps the turn while it has both
        // work and unspent credit; the quantum (its weight, in requests)
        // is granted only when the rotation *arrives* at a tenant — so a
        // weight-w tenant is served w requests per cycle, not one.
        loop {
            let i = self.cursor;
            if self.active[i] && self.deficit[i] > 0 {
                return ready.iter().position(|p| p.tenant as usize == i);
            }
            self.cursor = (self.cursor + 1) % t;
            let j = self.cursor;
            if !self.active[j] {
                // An idle tenant's banked credit would distort the next
                // contended window; clear it as the rotation passes.
                self.deficit[j] = 0;
                continue;
            }
            // Cap the bank at one quantum so credit cannot accumulate
            // across cycles the tenant spent unserved.
            self.deficit[j] = (self.deficit[j] + self.weights[j] as i64)
                .min(self.weights[j] as i64);
            if self.deficit[j] > 0 {
                return ready.iter().position(|p| p.tenant as usize == j);
            }
        }
    }

    /// Charge one served request to its tenant.
    fn charge(&mut self, tenant: u32) {
        if self.weights.len() > 1 {
            self.deficit[tenant as usize] -= 1;
        }
    }
}

/// Coalesce a batch out of the local ready queue: fair-select the next
/// request to serve, then collect up to `batch_max` members of its
/// bucket **in full queue order** (requests earlier in the queue that
/// share the bucket ride along, so FIFO-per-bucket is preserved),
/// charging each admitted request to its own tenant.
fn coalesce_fair(
    fair: &mut FairState,
    ready: &mut VecDeque<Pending>,
    batch_max: usize,
) -> Vec<Pending> {
    let Some(idx) = fair.select(ready) else {
        return Vec::new();
    };
    let key = ready[idx].key;
    let mut batch = Vec::new();
    let mut rest = VecDeque::with_capacity(ready.len());
    for p in ready.drain(..) {
        if batch.len() < batch_max && p.key == key {
            fair.charge(p.tenant);
            batch.push(p);
        } else {
            rest.push_back(p);
        }
    }
    *ready = rest;
    batch
}

/// The shard loop. The shard thread is the ring's only
/// consumer: it drains admissions into a consumer-local ready queue (no
/// lock), promotes due retries, fair-selects and coalesces a batch, and
/// parks on the condvar only when there is genuinely nothing to do.
///
/// Exit condition: the gate reads exactly `GATE_CLOSED` (closed, logical
/// depth 0) and the local delayed queue is empty. Depth counts every
/// admission from its gate-CAS until it leaves the queue into a batch /
/// shed / dead set, so an in-flight admission (gate bumped, ring push
/// not yet visible) holds the loop alive — a drained scheduler can never
/// strand a request.
fn shard_loop(ctx: ShardCtx, rq: &RingQueue) {
    me_trace::register_current_thread();
    let pool = me_par::WorkerPool::new(ctx.width);
    let mut ready: VecDeque<Pending> = VecDeque::new();
    let mut delayed: Vec<Delayed> = Vec::new();
    let mut delay_seq: u64 = 0;
    let mut fair = FairState::new(Arc::clone(&ctx.tenant_weights));
    loop {
        while let Some(p) = rq.ring.pop() {
            ready.push_back(p);
        }
        let mut dead: Vec<Pending> = Vec::new();
        let now = Instant::now();
        promote_due(&mut delayed, &mut ready, now, &ctx.stats, &mut dead);
        if ready.is_empty() && dead.is_empty() {
            if rq.gate.load(Ordering::Relaxed) == GATE_CLOSED && delayed.is_empty() {
                return;
            }
            // Idle edge. Dekker handshake with producers: publish the
            // intent to park, fence, then re-check the ring — either a
            // racing producer's post-publish fence sees `parked` and
            // takes the park lock to notify, or our re-check sees its
            // item and we back out.
            rq.parked.store(true, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            if !rq.ring.is_empty() {
                rq.parked.store(false, Ordering::Relaxed);
                continue;
            }
            {
                let guard = rq.park.lock().unwrap_or_else(|e| e.into_inner());
                // Re-check under the lock: producers and shutdown notify
                // while holding it, so a wakeup between our pre-lock
                // check and the wait cannot be lost.
                let closed = rq.gate.load(Ordering::Relaxed) & GATE_CLOSED != 0;
                if rq.ring.is_empty() && !(closed && delayed.is_empty()) {
                    if let Some(next) = delayed.iter().map(|d| d.ready_at).min() {
                        let wait = next
                            .saturating_duration_since(Instant::now())
                            .max(Duration::from_micros(50));
                        let _ = rq.cv.wait_timeout(guard, wait).unwrap_or_else(|e| e.into_inner());
                    } else {
                        drop(rq.cv.wait(guard).unwrap_or_else(|e| e.into_inner()));
                    }
                }
            }
            rq.parked.store(false, Ordering::Relaxed);
            continue;
        }
        // Drop-head load shedding: beyond the watermark, the oldest
        // requests resolve Shed so queue latency stays bounded.
        let mut shed: Vec<Pending> = Vec::new();
        while ready.len() > ctx.shed_watermark {
            if let Some(p) = ready.pop_front() {
                shed.push(p);
            }
        }
        let batch = coalesce_fair(&mut fair, &mut ready, ctx.batch_max);
        // Everything resolved or handed to execution has left the
        // logical queue; free its admission-gate depth in one step.
        let leaving = (dead.len() + shed.len() + batch.len()) as u64;
        if leaving > 0 {
            rq.gate.fetch_sub(leaving, Ordering::Relaxed);
        }
        for p in dead {
            ServeStats::bump(&ctx.stats.retries_timed_out);
            me_trace::counter_add("serve.retry_timeout", 1);
            resolve(&ctx, p, Outcome::TimedOut);
        }
        for p in shed {
            resolve(&ctx, p, Outcome::Shed);
        }
        if !batch.is_empty() {
            let retries = execute_batch(&ctx, &pool, batch);
            requeue(&ctx, rq, &mut delayed, &mut delay_seq, retries);
        }
        me_trace::flush_thread();
    }
}

/// Compute a retry's wakeup instant; `None` when the deadline expires
/// within (or before) the backoff window — the caller resolves it
/// `TimedOut` instead of waiting out a pointless backoff.
fn retry_schedule(ctx: &ShardCtx, pending: &Pending, now: Instant) -> Option<Instant> {
    let exp = (pending.attempt.saturating_sub(1)).min(BACKOFF_EXP_CAP);
    // `checked_shl` + the compile-time cap assert: a future
    // BACKOFF_EXP_CAP bump can never wrap the multiplier to a silent
    // zero backoff; saturate to the 1 s ceiling instead.
    let backoff = 1u32
        .checked_shl(exp)
        .and_then(|mult| ctx.backoff_base.checked_mul(mult))
        .unwrap_or(Duration::from_secs(1));
    let ready_at = now + backoff;
    if pending.deadline.is_some_and(|d| ready_at >= d) {
        None
    } else {
        Some(ready_at)
    }
}

/// Requeue retries: the delayed queue is consumer-local, so no lock —
/// but each re-entering request re-claims admission-gate depth (retries
/// re-enter above the capacity bound, so an admitted request is never
/// lost to backpressure).
fn requeue(
    ctx: &ShardCtx,
    rq: &RingQueue,
    delayed: &mut Vec<Delayed>,
    delay_seq: &mut u64,
    retries: Vec<Pending>,
) {
    let now = Instant::now();
    for pending in retries {
        match retry_schedule(ctx, &pending, now) {
            None => {
                ServeStats::bump(&ctx.stats.retries_timed_out);
                me_trace::counter_add("serve.retry_timeout", 1);
                resolve(ctx, pending, Outcome::TimedOut);
            }
            Some(ready_at) => {
                ServeStats::bump(&ctx.stats.retries);
                me_trace::counter_add("serve.retry", 1);
                rq.gate.fetch_add(1, Ordering::Relaxed);
                let seq = *delay_seq;
                *delay_seq += 1;
                delayed.push(Delayed { ready_at, seq, pending });
            }
        }
    }
}

/// Result of one execution attempt.
enum ExecResult {
    Done(Mat<f64>),
    Transient,
    Panicked(String),
}

/// One batch member during execution.
struct Slot {
    pending: Pending,
    /// `None` while runnable; `Some` once a terminal outcome is known
    /// before/without execution (forced timeout, expired deadline).
    pre: Option<Outcome>,
    result: Option<ExecResult>,
}

fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("job panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("job panicked: {s}")
    } else {
        "job panicked".to_string()
    }
}

/// Execute one coalesced batch and resolve every member in FIFO order.
/// Members that failed transiently and still have retry budget are
/// returned to the caller for requeueing (their `attempt` already
/// incremented).
fn execute_batch(ctx: &ShardCtx, pool: &me_par::WorkerPool, batch: Vec<Pending>) -> Vec<Pending> {
    let _b = me_trace::span("serve.batch", "serve");
    ServeStats::bump(&ctx.stats.batches);
    ctx.stats
        .batched_requests
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    ServeStats::record_max(&ctx.stats.max_batch, batch.len() as u64);
    me_trace::hist_record("serve.batch_size", batch.len() as u64);

    // Dequeue stage: forced timeouts, injected delays, expired deadlines.
    let now = Instant::now();
    let mut slots: Vec<Slot> = batch
        .into_iter()
        .map(|pending| {
            let mut pre = None;
            if let Some(plan) = &ctx.plan {
                match plan.decide(FaultStage::Dequeue, pending.id, pending.attempt) {
                    Fault::ForceTimeout => pre = Some(Outcome::TimedOut),
                    fault => FaultPlan::apply_delay(fault),
                }
            }
            if pre.is_none() && pending.deadline.is_some_and(|d| d <= now) {
                pre = Some(Outcome::TimedOut);
            }
            Slot { pending, pre, result: None }
        })
        .collect();

    let stackable = matches!(slots.first().map(|s| &s.pending.key), Some(BucketKey::Gemm { .. }));
    let runnable = slots.iter().filter(|s| s.pre.is_none()).count();
    if runnable > 0 {
        if stackable && runnable > 1 {
            execute_stacked_gemm(ctx, pool, &mut slots);
        } else {
            execute_fan_out(ctx, pool, &mut slots);
        }
    }

    // Resolution, FIFO within the batch; transient failures with budget
    // left go back to the caller for requeueing.
    let mut retries: Vec<Pending> = Vec::new();
    let now = Instant::now();
    for slot in slots {
        let Slot { mut pending, pre, result } = slot;
        let outcome = if let Some(outcome) = pre {
            outcome
        } else {
            match result {
                Some(ExecResult::Done(c)) => {
                    pending.attempt += 1;
                    if pending.deadline.is_some_and(|d| d <= now) {
                        Outcome::TimedOut
                    } else {
                        Outcome::Ok(c)
                    }
                }
                Some(ExecResult::Transient) => {
                    pending.attempt += 1;
                    if pending.attempt <= ctx.max_retries {
                        retries.push(pending);
                        continue;
                    }
                    Outcome::Failed(format!(
                        "transient failure persisted through {} attempts",
                        pending.attempt
                    ))
                }
                Some(ExecResult::Panicked(msg)) => {
                    pending.attempt += 1;
                    Outcome::Failed(msg)
                }
                // Defensive: a runnable slot the executor skipped would
                // be a scheduler bug; fail it loudly rather than lose it.
                None => Outcome::Failed("internal: request was never executed".to_string()),
            }
        };
        resolve(ctx, pending, outcome);
    }
    retries
}

/// Decide the execute-stage fault for a slot.
fn execute_fault(ctx: &ShardCtx, pending: &Pending) -> Fault {
    match &ctx.plan {
        Some(plan) => plan.decide(FaultStage::Execute, pending.id, pending.attempt),
        None => Fault::None,
    }
}

/// Row-stacked execution of a shared-B GEMM bucket: one big GEMM on the
/// pool, then per-request row extraction. Injected panics/failures are
/// screened per request *before* stacking so they fail only their own
/// handle; a genuine panic inside the stacked GEMM fails every stacked
/// member (never the shard).
fn execute_stacked_gemm(ctx: &ShardCtx, pool: &me_par::WorkerPool, slots: &mut [Slot]) {
    let _s = me_trace::span("serve.exec_stacked", "serve");
    let mut members: Vec<usize> = Vec::with_capacity(slots.len());
    for (i, slot) in slots.iter_mut().enumerate() {
        if slot.pre.is_some() {
            continue;
        }
        match execute_fault(ctx, &slot.pending) {
            Fault::Panic => slot.result = Some(ExecResult::Panicked(INJECTED_PANIC.to_string())),
            Fault::Transient => slot.result = Some(ExecResult::Transient),
            fault => {
                FaultPlan::apply_delay(fault);
                members.push(i);
            }
        }
    }
    if members.is_empty() {
        return;
    }
    // All members share (B, k, n, alpha, variant) by bucket construction.
    let JobKind::Gemm(first) = &slots[members[0]].pending.job else {
        // A non-GEMM job can never carry a Gemm bucket key; treat it as a
        // failed member rather than poisoning the batch.
        slots[members[0]].result =
            Some(ExecResult::Panicked("internal: non-GEMM job in GEMM bucket".to_string()));
        return;
    };
    let variant = first.variant;
    let alpha = first.alpha;
    let b = Arc::clone(&first.b);
    let key = slots[members[0]].pending.key;
    let (k, n) = (b.rows(), b.cols());
    let total_m: usize = members
        .iter()
        .map(|&i| match &slots[i].pending.job {
            JobKind::Gemm(g) => g.a.rows(),
            JobKind::Ozaki(_) => 0,
        })
        .sum();
    ctx.stats.stacked_rows.fetch_add(total_m as u64, Ordering::Relaxed);
    let mut a_stack = Mat::<f64>::zeros(total_m, k);
    let mut r0 = 0usize;
    let mut offsets: Vec<(usize, usize)> = Vec::with_capacity(members.len());
    for &i in &members {
        if let JobKind::Gemm(g) = &slots[i].pending.job {
            let m = g.a.rows();
            for r in 0..m {
                a_stack.row_mut(r0 + r).copy_from_slice(g.a.row(r));
            }
            offsets.push((r0, m));
            r0 += m;
        }
    }
    let mut c_stack = Mat::<f64>::zeros(total_m, n);
    // Weight-cache fast path: fetch (or pack exactly once) the prepacked
    // B panels for this bucket. Bitwise-identical to the fresh-pack call
    // below — same pack routine, same kc grid (validated on lookup).
    let packed: Option<Arc<PackedB<f64>>> =
        ctx.cache.as_ref().map(|wc| wc.get_or_pack(key, &b, variant));
    let run = catch_unwind(AssertUnwindSafe(|| match &packed {
        Some(p) => gemm_parallel_on_prepacked_with(pool, variant, alpha, &a_stack, p, 0.0, &mut c_stack),
        None => gemm_parallel_on_with(pool, variant, alpha, &a_stack, &b, 0.0, &mut c_stack),
    }));
    match run {
        Ok(()) => {
            for (&i, &(r0, m)) in members.iter().zip(&offsets) {
                let data = c_stack.as_slice()[r0 * n..(r0 + m) * n].to_vec();
                slots[i].result = Some(ExecResult::Done(Mat::from_vec(m, n, data)));
            }
        }
        Err(payload) => {
            let msg = describe_panic(payload.as_ref());
            for &i in &members {
                slots[i].result = Some(ExecResult::Panicked(msg.clone()));
            }
        }
    }
}

/// Run one slot's attempt with its decided fault, isolated by
/// `catch_unwind` so a panic — injected or genuine — fails only this
/// slot.
// me-verify: hot
fn attempt_one(
    job: &JobKind,
    key: BucketKey,
    cache: Option<&WeightCache>,
    fault: Fault,
    pool: &me_par::WorkerPool,
    use_pool: bool,
) -> ExecResult {
    let run = catch_unwind(AssertUnwindSafe(|| {
        if fault == Fault::Panic {
            std::panic::panic_any(INJECTED_PANIC);
        }
        FaultPlan::apply_delay(fault);
        if fault == Fault::Transient {
            return None;
        }
        Some(run_one(job, key, cache, pool, use_pool))
    }));
    match run {
        Ok(Some(c)) => ExecResult::Done(c),
        Ok(None) => ExecResult::Transient,
        Err(payload) => ExecResult::Panicked(describe_panic(payload.as_ref())),
    }
}

/// Per-request execution fanned over the shard's pool (Ozaki buckets and
/// singleton GEMM batches). A batch with exactly one runnable member runs
/// it on the shard thread with the whole pool at its disposal; larger
/// fan-outs run one serial request per pool lane.
fn execute_fan_out(ctx: &ShardCtx, pool: &me_par::WorkerPool, slots: &mut [Slot]) {
    let runnable: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.pre.is_none())
        .map(|(i, _)| i)
        .collect();
    let cache = ctx.cache.as_deref();
    if let [only] = runnable[..] {
        let fault = execute_fault(ctx, &slots[only].pending);
        let key = slots[only].pending.key;
        slots[only].result = Some(attempt_one(&slots[only].pending.job, key, cache, fault, pool, true));
        return;
    }
    let mut work: Vec<(&Pending, &mut Option<ExecResult>, Fault)> = Vec::new();
    for slot in slots.iter_mut() {
        if slot.pre.is_some() {
            continue;
        }
        let fault = execute_fault(ctx, &slot.pending);
        work.push((&slot.pending, &mut slot.result, fault));
    }
    pool.for_each_mut_tagged("serve.exec", &mut work, |_, item| {
        let (pending, result, fault) = item;
        **result = Some(attempt_one(&pending.job, pending.key, cache, *fault, pool, false));
    });
}

/// Compute one request. A batch with a single runnable member may use the
/// whole pool for it (`use_pool` — the fan-out is trivially this one job,
/// run inline by `for_each_mut`, so the pool is free); members of a
/// multi-request fan-out run serial, one request per pool lane.
// me-verify: hot
fn run_one(
    job: &JobKind,
    key: BucketKey,
    cache: Option<&WeightCache>,
    pool: &me_par::WorkerPool,
    use_pool: bool,
) -> Mat<f64> {
    match job {
        JobKind::Gemm(g) => {
            let mut c = Mat::zeros(g.a.rows(), g.b.cols());
            let packed = cache.map(|wc| wc.get_or_pack(key, &g.b, g.variant));
            match (&packed, use_pool) {
                (Some(p), true) => {
                    gemm_parallel_on_prepacked_with(pool, g.variant, g.alpha, &g.a, p, 0.0, &mut c)
                }
                (Some(p), false) => {
                    gemm_tiled_prepacked_with(g.variant, g.alpha, &g.a, p, 0.0, &mut c)
                }
                (None, true) => {
                    gemm_parallel_on_with(pool, g.variant, g.alpha, &g.a, &g.b, 0.0, &mut c)
                }
                (None, false) => gemm_tiled_with(g.variant, g.alpha, &g.a, &g.b, 0.0, &mut c),
            }
            c
        }
        JobKind::Ozaki(o) => ozaki_gemm(&o.a, &o.b, &o.cfg).c,
    }
}

/// Resolve one ticket with its terminal outcome, stamping the global
/// resolution order and the submission→resolution latency. Double
/// resolutions are counted, never overwritten. Outcome counters bump
/// `Release` (total and per-tenant) so snapshots stay coherent — see the
/// stats.rs ordering contract.
// me-verify: hot
fn resolve(ctx: &ShardCtx, pending: Pending, outcome: Outcome) {
    let tenant = ctx.stats.tenant_slot(pending.tenant);
    let (stat, tstat, counter): (&AtomicU64, &AtomicU64, &'static str) = match &outcome {
        Outcome::Ok(_) => (&ctx.stats.completed_ok, &tenant.completed_ok, "serve.completed"),
        Outcome::TimedOut => (&ctx.stats.timed_out, &tenant.timed_out, "serve.timeout"),
        Outcome::Shed => (&ctx.stats.shed, &tenant.shed, "serve.shed"),
        Outcome::Failed(_) => (&ctx.stats.failed, &tenant.failed, "serve.failed"),
    };
    let latency_ns = pending.submitted.elapsed().as_nanos() as u64;
    ctx.stats.latency.record(latency_ns);
    me_trace::hist_record("serve.latency_ns", latency_ns);
    ServeStats::bump_outcome(tstat);
    ServeStats::bump_outcome(stat);
    me_trace::counter_add(counter, 1);
    let order = ctx.order.fetch_add(1, Ordering::Relaxed);
    let completion = Completion { outcome, order, attempts: pending.attempt };
    if !pending.ticket.resolve(completion) {
        ServeStats::bump(&ctx.stats.double_resolves);
        me_trace::counter_add("serve.double_resolve", 1);
    }
}
