//! The recording machinery (feature `enabled`): a process epoch, a
//! runtime on/off gate, thread-local span buffers, and a mutex-sharded
//! global collector.
//!
//! Hot-path cost model:
//!
//! - tracing **off at runtime**: [`span`] is one relaxed atomic load and
//!   returns an inert guard; [`counter_add`] / [`hist_record`] are the
//!   same load and an early return.
//! - tracing **on**: a span start reads the monotonic clock once; the
//!   guard's drop reads it again and appends one event to a thread-local
//!   `Vec`. The vector drains into one of [`NSHARDS`] mutex shards when
//!   it reaches [`FLUSH_THRESHOLD`] entries or on [`flush_thread`], so a
//!   worker's per-span cost never includes a contended lock.
//!
//! Visibility contract: a snapshot sees everything flushed before it.
//! `me-par` workers flush after every job *before* reporting it done, so
//! once a `parallel_for` returns, every span its jobs emitted is visible
//! to [`take_snapshot`]. Plain `join`ed threads flush automatically when
//! they exit (the thread-local buffer flushes on drop). Caveat for
//! `std::thread::scope`: the scope unblocks when each closure *returns*,
//! which precedes the thread's TLS destructors — a scoped thread that
//! should be visible to a snapshot taken right after the scope must call
//! [`flush_thread`] at the end of its closure.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::types::{CounterSample, Histogram, Trace, TraceEvent};

/// Number of collector shards; a thread's shard is `tid % NSHARDS`.
const NSHARDS: usize = 8;
/// Thread-local buffer size that triggers an automatic flush.
const FLUSH_THRESHOLD: usize = 256;
/// Hard cap on buffered events per shard: beyond it events are dropped
/// (and counted), bounding memory if a caller enables tracing and never
/// snapshots.
const MAX_EVENTS_PER_SHARD: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// One shard of the global collector.
struct Shard {
    events: Vec<TraceEvent>,
    samples: Vec<CounterSample>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    dropped: u64,
}

impl Shard {
    const fn new() -> Self {
        Shard {
            events: Vec::new(),
            samples: Vec::new(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            dropped: 0,
        }
    }
}

static SHARDS: [Mutex<Shard>; NSHARDS] = [const { Mutex::new(Shard::new()) }; NSHARDS];
/// Registered measured lanes: tid → thread name.
static THREAD_NAMES: Mutex<BTreeMap<u32, String>> = Mutex::new(BTreeMap::new());
/// Virtual (modeled-time) lanes: name → lane id, in registration order.
static VIRTUAL_LANES: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn shard_for(tid: u32) -> &'static Mutex<Shard> {
    &SHARDS[tid as usize % NSHARDS]
}

/// Per-thread buffer; created lazily on first use, flushed on thread
/// exit by the drop of its TLS slot.
struct Local {
    tid: u32,
    events: Vec<TraceEvent>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl Local {
    fn new() -> Self {
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{tid}"));
        lock(&THREAD_NAMES).insert(tid, name);
        Local { tid, events: Vec::new(), counters: BTreeMap::new(), hists: BTreeMap::new() }
    }

    fn flush(&mut self) {
        if self.events.is_empty() && self.counters.is_empty() && self.hists.is_empty() {
            return;
        }
        let mut shard = lock(shard_for(self.tid));
        let room = MAX_EVENTS_PER_SHARD.saturating_sub(shard.events.len());
        if self.events.len() > room {
            shard.dropped += (self.events.len() - room) as u64;
            self.events.truncate(room);
        }
        shard.events.append(&mut self.events);
        for (k, v) in std::mem::take(&mut self.counters) {
            *shard.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in std::mem::take(&mut self.hists) {
            shard.hists.entry(k).or_default().merge(&h);
        }
    }
}

struct LocalSlot(RefCell<Local>);

impl Drop for LocalSlot {
    fn drop(&mut self) {
        self.0.borrow_mut().flush();
    }
}

thread_local! {
    static LOCAL: LocalSlot = LocalSlot(RefCell::new(Local::new()));
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> Option<R> {
    LOCAL.try_with(|slot| f(&mut slot.0.borrow_mut())).ok()
}

/// Turn runtime collection on or off. Turning it on pins the trace epoch
/// on first use; turning it off leaves already-buffered data in place
/// for a later [`take_snapshot`].
pub fn set_enabled(on: bool) {
    if on {
        EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Release);
}

/// Whether spans/counters are currently being recorded (compiled in
/// *and* runtime-enabled).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the trace epoch; `0` when tracing is off (the
/// clock is only read while recording).
#[inline]
pub fn now_ns() -> u64 {
    if !is_enabled() {
        return 0;
    }
    now_ns_raw()
}

fn now_ns_raw() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// RAII span guard: records a completed interval on the current thread's
/// lane when dropped. Obtain via [`span`] / [`span_owned`] or the
/// [`crate::span!`] macro.
pub struct SpanGuard {
    name: Option<Cow<'static, str>>,
    cat: &'static str,
    start_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            let end = now_ns_raw();
            let start = self.start_ns;
            let cat = self.cat;
            let _ = with_local(|l| {
                l.events.push(TraceEvent {
                    name,
                    cat,
                    tid: l.tid,
                    virtual_lane: false,
                    start_ns: start,
                    dur_ns: end.saturating_sub(start),
                });
                if l.events.len() >= FLUSH_THRESHOLD {
                    l.flush();
                }
            });
        }
    }
}

/// Open a span with a static name; the returned guard records the
/// interval when dropped. Inert (no clock read, no allocation) when
/// tracing is off.
// me-verify: hot
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { name: None, cat, start_ns: 0 };
    }
    SpanGuard { name: Some(Cow::Borrowed(name)), cat, start_ns: now_ns_raw() }
}

/// [`span`] with an owned (formatted) name — for cold paths like
/// per-experiment labels, not per-panel kernels.
pub fn span_owned(name: String, cat: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { name: None, cat, start_ns: 0 };
    }
    SpanGuard { name: Some(Cow::Owned(name)), cat, start_ns: now_ns_raw() }
}

/// Add `delta` to the named monotonic counter.
// me-verify: hot
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    let _ = with_local(|l| *l.counters.entry(name).or_insert(0) += delta);
}

/// Record one value into the named log2-bucketed histogram.
// me-verify: hot
#[inline]
pub fn hist_record(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    let _ = with_local(|l| l.hists.entry(name).or_default().record(value));
}

/// Ensure the current thread has a lane (tid + name) in the registry,
/// even if it never records a span — pool workers call this at spawn so
/// every worker shows up as a timeline lane.
pub fn register_current_thread() {
    let _ = with_local(|_| ());
}

/// Flush the current thread's buffered spans, counters, and histograms
/// into the global collector, making them visible to [`take_snapshot`].
pub fn flush_thread() {
    let _ = with_local(Local::flush);
}

fn virtual_lane_id(lane: &str) -> u32 {
    let mut lanes = lock(&VIRTUAL_LANES);
    if let Some(idx) = lanes.iter().position(|l| l == lane) {
        idx as u32
    } else {
        lanes.push(lane.to_string());
        (lanes.len() - 1) as u32
    }
}

/// Emit a span on a named *virtual* (modeled-time) lane: `start_ns` and
/// `dur_ns` are simulated time, not wall clock. Used by the execution
/// model so modeled operations and measured spans share one trace.
pub fn emit_virtual_span(
    lane: &str,
    name: impl Into<Cow<'static, str>>,
    cat: &'static str,
    start_ns: u64,
    dur_ns: u64,
) {
    if !is_enabled() {
        return;
    }
    let tid = virtual_lane_id(lane);
    let mut shard = lock(shard_for(tid));
    if shard.events.len() >= MAX_EVENTS_PER_SHARD {
        shard.dropped += 1;
        return;
    }
    shard.events.push(TraceEvent {
        name: name.into(),
        cat,
        tid,
        virtual_lane: true,
        start_ns,
        dur_ns,
    });
}

/// Emit a sampled counter value (e.g. modeled power) on a named virtual
/// lane at simulated time `t_ns`.
pub fn emit_virtual_sample(lane: &str, name: impl Into<Cow<'static, str>>, t_ns: u64, value: f64) {
    if !is_enabled() {
        return;
    }
    let tid = virtual_lane_id(lane);
    let mut shard = lock(shard_for(tid));
    shard.samples.push(CounterSample { name: name.into(), tid, virtual_lane: true, t_ns, value });
}

/// Drain the collector into a [`Trace`] snapshot. Flushes the *calling*
/// thread first; other threads' unflushed buffers are not included —
/// pool workers flush per job and plain threads flush on exit, so join
/// (or finish the `parallel_for`) before snapshotting.
pub fn take_snapshot() -> Trace {
    flush_thread();
    let mut trace = Trace::default();
    let mut dropped = 0u64;
    for shard in &SHARDS {
        let mut s = lock(shard);
        trace.events.append(&mut s.events);
        trace.samples.append(&mut s.samples);
        for (k, v) in std::mem::take(&mut s.counters) {
            *trace.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in std::mem::take(&mut s.hists) {
            trace.hists.entry(k).or_default().merge(&h);
        }
        dropped += std::mem::take(&mut s.dropped);
    }
    if dropped > 0 {
        *trace.counters.entry("trace.dropped_events").or_insert(0) += dropped;
    }
    trace.thread_names = lock(&THREAD_NAMES).clone();
    let lanes = lock(&VIRTUAL_LANES);
    for (idx, name) in lanes.iter().enumerate() {
        trace.virtual_lanes.insert(idx as u32, name.clone());
    }
    // Deterministic export order regardless of flush interleaving.
    trace.events.sort_by(|a, b| {
        (a.virtual_lane, a.tid, a.start_ns, b.dur_ns).cmp(&(
            b.virtual_lane,
            b.tid,
            b.start_ns,
            a.dur_ns,
        ))
    });
    trace.samples.sort_by(|a, b| {
        (a.virtual_lane, a.tid, a.t_ns)
            .partial_cmp(&(b.virtual_lane, b.tid, b.t_ns))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests below mutate process-global collector state; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn isolated() -> MutexGuard<'static, ()> {
        let g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let _ = take_snapshot(); // drain leftovers from other tests
        g
    }

    #[test]
    fn spans_record_name_cat_and_duration() {
        let _g = isolated();
        set_enabled(true);
        {
            let _outer = span("outer", "t");
            let _inner = span("inner", "t");
            std::hint::black_box(0);
        }
        set_enabled(false);
        let tr = take_snapshot();
        let names = tr.span_names();
        assert!(names.contains(&"outer") && names.contains(&"inner"), "{names:?}");
        for e in &tr.events {
            assert!(!e.virtual_lane);
            assert_eq!(e.cat, "t");
        }
        // RAII: inner closed before outer, so inner nests inside outer.
        let outer = tr.events.iter().find(|e| e.name == "outer").map(|e| (e.start_ns, e.dur_ns));
        let inner = tr.events.iter().find(|e| e.name == "inner").map(|e| (e.start_ns, e.dur_ns));
        let ((os, od), (is_, id)) = (outer.unwrap_or((0, 0)), inner.unwrap_or((0, 0)));
        assert!(os <= is_ && is_ + id <= os + od, "inner not nested");
    }

    #[test]
    fn disabled_runtime_records_nothing() {
        let _g = isolated();
        {
            let _s = span("ghost", "t");
            counter_add("ghost", 1);
            hist_record("ghost", 42);
        }
        let tr = take_snapshot();
        assert!(tr.events.iter().all(|e| e.name != "ghost"));
        assert!(!tr.counters.contains_key("ghost"));
        assert!(!tr.hists.contains_key("ghost"));
    }

    #[test]
    fn counters_and_hists_merge_across_threads() {
        let _g = isolated();
        set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for v in 0..10u64 {
                        counter_add("merge.count", 2);
                        hist_record("merge.hist", v);
                    }
                    // `scope` unblocks when this closure returns, which is
                    // *before* the thread's TLS destructors (and thus the
                    // drop-flush) run — flush explicitly so the snapshot
                    // below is guaranteed to see this thread's data.
                    flush_thread();
                });
            }
        });
        set_enabled(false);
        let tr = take_snapshot();
        assert_eq!(tr.counters.get("merge.count"), Some(&80));
        let h = tr.hists.get("merge.hist").cloned().unwrap_or_default();
        assert_eq!(h.count, 40);
        assert!(h.is_consistent());
        assert_eq!(h.sum, 4 * (0..10u64).sum::<u64>() as u128);
    }

    #[test]
    fn virtual_spans_live_on_named_lanes() {
        let _g = isolated();
        set_enabled(true);
        emit_virtual_span("v100", "modeled.dgemm", "modeled", 0, 1_000_000);
        emit_virtual_sample("v100", "power_w", 500_000, 286.5);
        set_enabled(false);
        let tr = take_snapshot();
        let ev = tr.events.iter().find(|e| e.name == "modeled.dgemm");
        assert!(ev.is_some_and(|e| e.virtual_lane && e.dur_ns == 1_000_000));
        assert_eq!(tr.samples.len(), 1);
        assert!(tr.virtual_lanes.values().any(|n| n == "v100"));
    }

    #[test]
    fn snapshot_drains() {
        let _g = isolated();
        set_enabled(true);
        drop(span("once", "t"));
        set_enabled(false);
        let first = take_snapshot();
        assert!(first.events.iter().any(|e| e.name == "once"));
        let second = take_snapshot();
        assert!(second.events.iter().all(|e| e.name != "once"));
    }
}
