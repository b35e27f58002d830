//! The prepacked-B weight cache.
//!
//! The Table V replay is inference-shaped: thousands of skinny requests
//! (`m ∈ {1, 2}`) multiply against a handful of long-lived weight
//! matrices. Without a cache every coalesced batch re-packs `B` into the
//! NR-column/KC-block panel layout from scratch, so the replay is
//! pack-dominated, not FLOP-dominated. [`WeightCache`] makes the pack a
//! one-time cost: a bounded, LRU-evicted map from the GEMM [`BucketKey`]
//! to an `Arc<PackedB<f64>>` built by [`me_linalg::pack_b_matrix`] —
//! steady-state traffic packs each weight matrix exactly once, and the
//! prepacked GEMM path consumes the stored panels **bitwise-identically**
//! to a fresh pack (the §12 layout contract).
//!
//! Three hazards shape the design:
//!
//! - **ABA on the key.** `BucketKey::Gemm` keys on `Arc::as_ptr(&b)`; a
//!   freed-and-reallocated weight matrix could reuse the address. Every
//!   entry therefore pins its `B` with a strong `Arc<Mat<f64>>` clone —
//!   while the entry lives, the allocation cannot be recycled, so a key
//!   match implies the same matrix.
//! - **Eviction mid-compute.** Lookups hand out `Arc<PackedB<f64>>`
//!   clones; evicting an entry only drops the cache's reference, so a
//!   batch already computing against the panels finishes safely on its
//!   own clone (the ref-counted half of the design).
//! - **Stale blocking.** `kc` is the one numerically observable blocking
//!   parameter. An entry packed under a `kc` that no longer matches the
//!   variant's current [`blocking_for`] would silently change result
//!   bits vs the fresh-pack arm, so such entries are invalidated and
//!   repacked on lookup (counted as misses).
//!
//! Locking: the map sits behind one `Mutex`, but the expensive pack runs
//! *outside* it (lock → probe → unlock; pack; lock → insert). Two shards
//! racing on the same cold key may both pack — the loser's work is
//! dropped in favor of the incumbent entry (both are byte-identical), and
//! each race party counts one miss, keeping
//! `hits + misses == lookups` exact.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use me_linalg::{blocking_for, pack_b_matrix, KernelVariant, Mat, PackedB};

use crate::request::BucketKey;

/// Default capacity when `ME_WEIGHT_CACHE` is unset and the config asks
/// for auto sizing: 64 MiB of packed panels (a few dozen Table V weight
/// matrices).
pub const DEFAULT_WEIGHT_CACHE_BYTES: usize = 64 * 1024 * 1024;

struct Entry {
    /// Strong pin on the weight matrix: defeats `Arc::as_ptr` ABA reuse
    /// for as long as the entry lives.
    _b_pin: Arc<Mat<f64>>,
    packed: Arc<PackedB<f64>>,
    bytes: usize,
    /// Tick of the most recent hit or insertion (LRU recency).
    last_use: u64,
}

struct Inner {
    map: HashMap<BucketKey, Entry>,
    bytes_used: usize,
    tick: u64,
}

/// A point-in-time copy of the cache counters.
///
/// Conservation: `hits + misses` equals the number of lookups, and
/// `pack_bytes_saved` grows by the packed size on every hit — the serve
/// bench derives its ≥90 % hit-rate gate from these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a live entry.
    pub hits: u64,
    /// Lookups that had to pack (cold key, stale blocking, or a lost
    /// insert race).
    pub misses: u64,
    /// Entries removed to make room (LRU) or invalidated by a blocking
    /// change.
    pub evictions: u64,
    /// Packed bytes that did **not** have to be rebuilt thanks to hits.
    pub pack_bytes_saved: u64,
    /// Live entries right now.
    pub entries: u64,
    /// Packed payload bytes currently held.
    pub bytes_used: u64,
}

/// Bounded, LRU-evicted map from GEMM bucket to prepacked B panels.
/// Shared across every shard of a [`crate::Scheduler`]; all methods are
/// `&self` and thread-safe.
pub struct WeightCache {
    inner: Mutex<Inner>,
    capacity_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    pack_bytes_saved: AtomicU64,
}

impl WeightCache {
    /// A cache bounded to `capacity_bytes` of packed payload.
    pub fn new(capacity_bytes: usize) -> WeightCache {
        WeightCache {
            inner: Mutex::new(Inner { map: HashMap::new(), bytes_used: 0, tick: 0 }),
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            pack_bytes_saved: AtomicU64::new(0),
        }
    }

    /// The configured payload bound in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Packed payload bytes currently held.
    pub fn bytes_used(&self) -> usize {
        self.lock().bytes_used
    }

    /// Snapshot the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        let (entries, bytes_used) = {
            let inner = self.lock();
            (inner.map.len() as u64, inner.bytes_used as u64)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            pack_bytes_saved: self.pack_bytes_saved.load(Ordering::Relaxed),
            entries,
            bytes_used,
        }
    }

    /// The keys currently cached, least-recently-used first (test/debug
    /// introspection for the eviction-order suite).
    pub fn keys_lru_order(&self) -> Vec<BucketKey> {
        let inner = self.lock();
        let mut keyed: Vec<(u64, BucketKey)> =
            inner.map.iter().map(|(k, e)| (e.last_use, *k)).collect();
        keyed.sort_by_key(|&(t, _)| t);
        keyed.into_iter().map(|(_, k)| k).collect()
    }

    /// Fetch the prepacked panels for `(key, b, variant)`, packing and
    /// inserting on a miss. The returned `Arc` stays valid regardless of
    /// later evictions. The entry is validated against the variant's
    /// *current* blocking `kc` (the numerically observable parameter) —
    /// a stale entry is evicted and repacked so cached and fresh GEMMs
    /// stay bitwise-identical.
    pub fn get_or_pack(
        &self,
        key: BucketKey,
        b: &Arc<Mat<f64>>,
        variant: KernelVariant,
    ) -> Arc<PackedB<f64>> {
        let blocking = blocking_for(variant.resolve_supported());
        {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                if entry.packed.blocking().kc == blocking.kc {
                    entry.last_use = tick;
                    let packed = Arc::clone(&entry.packed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.pack_bytes_saved.fetch_add(entry.bytes as u64, Ordering::Relaxed);
                    me_trace::counter_add("serve.cache.hit", 1);
                    me_trace::counter_add("serve.cache.pack_bytes_saved", entry.bytes as u64);
                    return packed;
                }
                // Stale kc: the panels would replay a different FMA grid.
                if let Some(old) = inner.map.remove(&key) {
                    inner.bytes_used = inner.bytes_used.saturating_sub(old.bytes);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    me_trace::counter_add("serve.cache.evict", 1);
                }
            }
        }
        // Miss: pack outside the lock so a large B never stalls other
        // shards' lookups.
        self.misses.fetch_add(1, Ordering::Relaxed);
        me_trace::counter_add("serve.cache.miss", 1);
        let packed = {
            let _s = me_trace::span("serve.cache.pack", "serve");
            Arc::new(pack_b_matrix(b.as_ref(), blocking))
        };
        let bytes = packed.bytes();
        if bytes > self.capacity_bytes {
            // Too large to ever cache: hand it to this batch uncached.
            return packed;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            // Lost an insert race; the incumbent is byte-identical (same
            // pack routine, same blocking), so share it and drop ours.
            if entry.packed.blocking().kc == blocking.kc {
                entry.last_use = tick;
                return Arc::clone(&entry.packed);
            }
        }
        while inner.bytes_used + bytes > self.capacity_bytes {
            let Some(victim) = inner.map.iter().min_by_key(|(_, e)| e.last_use).map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(old) = inner.map.remove(&victim) {
                inner.bytes_used = inner.bytes_used.saturating_sub(old.bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                me_trace::counter_add("serve.cache.evict", 1);
            }
        }
        inner.bytes_used += bytes;
        inner.map.insert(
            key,
            Entry { _b_pin: Arc::clone(b), packed: Arc::clone(&packed), bytes, last_use: tick },
        );
        packed
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl std::fmt::Debug for WeightCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("WeightCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("stats", &stats)
            .finish()
    }
}
