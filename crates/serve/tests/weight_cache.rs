//! Prepacked-B weight-cache suite: eviction order, ref-count safety,
//! counter conservation, and the cached-vs-fresh bitwise differential.
//!
//! The cache's contract (DESIGN.md §12) has four load-bearing claims,
//! each pinned by one test here:
//!
//! 1. **LRU order** — eviction removes the least-recently-*used* entry,
//!    where a hit counts as a use, observable via `keys_lru_order`.
//! 2. **Ref-count safety** — an `Arc<PackedB>` handed out by a lookup
//!    stays valid and numerically correct after the cache evicts the
//!    entry mid-compute.
//! 3. **Counter conservation** — `hits + misses == lookups`, including
//!    oversized never-cached packs and stale-`kc` invalidations.
//! 4. **Bitwise identity** — a scheduler with the cache enabled produces
//!    byte-identical results to one with the cache disabled and to the
//!    serial fresh-pack reference, across every runnable kernel variant.
//!
//! The blocking override installed by the stale-`kc` test is process
//! global, so every test that packs or compares GEMM bytes serializes
//! through one file-local gate mutex.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use me_linalg::{
    available_variants, blocking_for, gemm_tiled_prepacked_with, gemm_tiled_with, pack_b_matrix,
    set_blocking_override, Blocking, KernelVariant, Mat,
};
use me_numerics::Rng64;
use me_serve::WeightCache;
use me_serve::{BucketKey, Job, Outcome, Scheduler, ServeConfig};

/// Serialize tests: the stale-kc case mutates the process-wide blocking
/// override, which every pack and every fresh GEMM reads.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

fn mat(rows: usize, cols: usize, seed: u64) -> Arc<Mat<f64>> {
    let mut rng = Rng64::seed_from_u64(seed);
    Arc::new(Mat::from_fn(rows, cols, |_, _| rng.range_f64(-1.0, 1.0)))
}

fn key_of(b: &Arc<Mat<f64>>, variant: KernelVariant) -> BucketKey {
    BucketKey::Gemm {
        b_ident: Arc::as_ptr(b) as usize,
        k: b.rows(),
        n: b.cols(),
        alpha_bits: 1.0f64.to_bits(),
        variant,
    }
}

#[test]
fn lru_eviction_follows_recency_not_insertion() {
    let _g = gate();
    let variant = KernelVariant::Scalar;
    let (k, n) = (48, 40);
    let b1 = mat(k, n, 0x11);
    let b2 = mat(k, n, 0x22);
    let b3 = mat(k, n, 0x33);
    let (k1, k2, k3) = (key_of(&b1, variant), key_of(&b2, variant), key_of(&b3, variant));

    // All three Bs share a shape, so every entry is the same size; a
    // capacity of exactly two entries forces the third insert to evict.
    let entry_bytes = pack_b_matrix(b1.as_ref(), blocking_for(variant)).bytes();
    let cache = WeightCache::new(2 * entry_bytes);

    let _ = cache.get_or_pack(k1, &b1, variant); // miss
    let _ = cache.get_or_pack(k2, &b2, variant); // miss
    assert_eq!(cache.keys_lru_order(), vec![k1, k2], "insertion order is the initial recency");

    let _ = cache.get_or_pack(k1, &b1, variant); // hit: k1 becomes most recent
    assert_eq!(cache.keys_lru_order(), vec![k2, k1], "a hit must refresh recency");

    let _ = cache.get_or_pack(k3, &b3, variant); // miss: evicts k2, NOT k1
    assert_eq!(
        cache.keys_lru_order(),
        vec![k1, k3],
        "eviction must take the least-recently-used entry (k2), not the oldest insert (k1)"
    );

    let stats = cache.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.bytes_used, 2 * entry_bytes as u64, "two equal-size entries resident");
}

#[test]
fn evicted_entry_stays_valid_mid_compute() {
    let _g = gate();
    let variant = KernelVariant::Scalar;
    let (m, k, n) = (5, 64, 56);
    let a = mat(m, k, 0xA1);
    let b1 = mat(k, n, 0xB1);
    let b2 = mat(k, n, 0xB2);

    // Capacity of one entry: fetching b2 evicts b1 while we still hold
    // b1's panels.
    let entry_bytes = pack_b_matrix(b1.as_ref(), blocking_for(variant)).bytes();
    let cache = WeightCache::new(entry_bytes);

    let held = cache.get_or_pack(key_of(&b1, variant), &b1, variant);
    let _ = cache.get_or_pack(key_of(&b2, variant), &b2, variant);
    assert_eq!(cache.len(), 1, "one-entry capacity must have evicted b1");
    assert_eq!(cache.stats().evictions, 1);
    assert_eq!(cache.keys_lru_order(), vec![key_of(&b2, variant)], "only b2 remains resident");

    // The evicted panels must still compute, bitwise equal to a fresh
    // pack: the Arc we hold is the only thing keeping them alive.
    let mut cached = Mat::zeros(m, n);
    gemm_tiled_prepacked_with(variant, 1.0, a.as_ref(), held.as_ref(), 0.0, &mut cached);
    let mut fresh = Mat::zeros(m, n);
    gemm_tiled_with(variant, 1.0, a.as_ref(), b1.as_ref(), 0.0, &mut fresh);
    assert_eq!(
        cached.as_slice(),
        fresh.as_slice(),
        "post-eviction compute must stay bitwise identical to a fresh pack"
    );
}

#[test]
fn hit_miss_counters_conserve_across_all_lookup_paths() {
    let _g = gate();
    let variant = KernelVariant::Scalar;
    let (k, n) = (32, 24);
    let b_small = mat(k, n, 0xC1);
    let b_big = mat(256, 256, 0xC2);
    let small_bytes = pack_b_matrix(b_small.as_ref(), blocking_for(variant)).bytes();
    let cache = WeightCache::new(small_bytes);
    let mut lookups = 0u64;

    // Cold miss, then repeated hits.
    for _ in 0..5 {
        let _ = cache.get_or_pack(key_of(&b_small, variant), &b_small, variant);
        lookups += 1;
    }

    // Oversized B: packs, never inserted, every lookup a miss.
    for _ in 0..2 {
        let p = cache.get_or_pack(key_of(&b_big, variant), &b_big, variant);
        assert!(p.bytes() > cache.capacity_bytes(), "test premise: b_big exceeds capacity");
        lookups += 1;
    }
    assert_eq!(cache.len(), 1, "the oversized pack must never become resident");

    // Stale kc: change the variant's blocking, the resident entry is
    // invalidated (miss + eviction), then the repacked entry hits again.
    let tuned = Blocking { kc: 16, ..Blocking::DEFAULT }.normalized();
    set_blocking_override(variant, Some(tuned));
    let repacked = cache.get_or_pack(key_of(&b_small, variant), &b_small, variant);
    lookups += 1;
    assert_eq!(repacked.blocking().kc, 16, "repack must use the new blocking");
    let _ = cache.get_or_pack(key_of(&b_small, variant), &b_small, variant);
    lookups += 1;
    set_blocking_override(variant, None);

    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        lookups,
        "every lookup is exactly one hit or one miss: {stats:?}"
    );
    assert_eq!(stats.hits, 5, "4 warm small hits + 1 post-repack hit");
    assert_eq!(stats.misses, 4, "cold + 2 oversized + 1 stale-kc invalidation");
    assert_eq!(stats.evictions, 1, "only the stale-kc invalidation evicts here");
    assert!(
        stats.pack_bytes_saved >= 4 * small_bytes as u64,
        "hits must account the repack work they saved"
    );
}

/// Run one request mix through a scheduler and return the output bytes
/// per request, in submission order.
fn run_requests(
    sched: &Scheduler,
    requests: &[(KernelVariant, Arc<Mat<f64>>, Arc<Mat<f64>>)],
) -> Vec<Vec<f64>> {
    let tickets: Vec<_> = requests
        .iter()
        .map(|(v, a, b)| {
            sched
                .submit(Job::gemm(*v, 1.0, Arc::clone(a), Arc::clone(b)))
                .expect("queue sized for the whole mix")
        })
        .collect();
    tickets
        .into_iter()
        .map(|t| match t.wait().outcome {
            Outcome::Ok(c) => c.as_slice().to_vec(),
            other => panic!("request must complete: {other:?}"),
        })
        .collect()
}

#[test]
fn cached_scheduler_matches_uncached_and_serial_bitwise() {
    let _g = gate();
    let variants = available_variants();
    // Shared weight matrices (steady-state inference traffic) plus one
    // per-request B (cold every time) per variant.
    let shapes = [(1usize, 96usize, 80usize), (2, 64, 96), (3, 80, 64)];
    let mut requests: Vec<(KernelVariant, Arc<Mat<f64>>, Arc<Mat<f64>>)> = Vec::new();
    for (vi, &variant) in variants.iter().enumerate() {
        for (si, &(m, k, n)) in shapes.iter().enumerate() {
            let seed = (vi as u64) << 16 | (si as u64) << 8;
            let weight = mat(k, n, seed ^ 0xB00);
            for rep in 0..4u64 {
                requests.push((variant, mat(m, k, seed + rep), Arc::clone(&weight)));
            }
            requests.push((variant, mat(m, k, seed + 9), mat(k, n, seed ^ 0xC01)));
        }
    }

    let config = |cache_bytes: usize| ServeConfig {
        shards: 2,
        shard_threads: 2,
        queue_capacity: requests.len(),
        batch_max: 4,
        weight_cache_bytes: cache_bytes,
        ..Default::default()
    };

    // Pass 1 warms the cache: each distinct B misses once (twice if two
    // shard threads race on it). The warm passes replay the same Arcs,
    // so every lookup hits a live entry. Every pass looks up each of the
    // 6 distinct B per variant at least once, so 15 warm passes make
    // >= 90 warm lookups even on a scalar-only host, and put the hit
    // rate at 15/16 when nothing races.
    let warm_passes = 15;
    let cached_sched = Scheduler::new(config(64 << 20));
    let cached = run_requests(&cached_sched, &requests);
    for _ in 0..warm_passes {
        let warmed = run_requests(&cached_sched, &requests);
        assert_eq!(cached, warmed, "a warm cache must not change a single result byte");
    }
    assert!(cached_sched.cache_stats().is_some(), "an enabled cache exposes live stats");
    let cached_stats = cached_sched.shutdown();

    let uncached_sched = Scheduler::new(config(0));
    let uncached = run_requests(&uncached_sched, &requests);
    assert!(uncached_sched.cache_stats().is_none(), "cache_stats is None when disabled");
    let uncached_stats = uncached_sched.shutdown();

    for (i, ((c, u), (variant, a, b))) in cached.iter().zip(&uncached).zip(&requests).enumerate() {
        assert_eq!(c, u, "request {i} ({variant:?}): cached and uncached bytes diverge");
        let mut serial = Mat::zeros(a.rows(), b.cols());
        gemm_tiled_with(*variant, 1.0, a.as_ref(), b.as_ref(), 0.0, &mut serial);
        assert_eq!(
            c,
            serial.as_slice(),
            "request {i} ({variant:?}): cached bytes diverge from the serial reference"
        );
    }

    assert!(cached_stats.is_conserved() && uncached_stats.is_conserved());
    assert!(
        cached_stats.cache_hits > 0,
        "repeated shared-weight traffic must hit: {cached_stats:?}"
    );
    assert!(cached_stats.cache_misses > 0, "cold keys must miss: {cached_stats:?}");
    let hit_rate = cached_stats.cache_hits as f64
        / (cached_stats.cache_hits + cached_stats.cache_misses) as f64;
    assert!(hit_rate >= 0.9, "steady-state replay must hit >= 90%: {cached_stats:?}");
    assert_eq!(
        uncached_stats.cache_hits + uncached_stats.cache_misses,
        0,
        "a disabled cache must report zero lookups"
    );
}
