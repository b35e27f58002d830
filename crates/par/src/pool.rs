//! The persistent worker pool.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, TryLockError};
use std::thread::JoinHandle;

/// Type-erased pointer to the submitted `Fn(usize) + Sync` closure. The
/// pointee lives on the submitter's stack; see the safety argument on
/// [`WorkerPool::parallel_for`] for why workers may dereference it.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and `parallel_for` keeps it alive until every claimed index has finished,
// so sending the pointer to the workers is sound.
unsafe impl Send for JobPtr {}

/// Submission state shared between the submitter and the workers.
struct State {
    /// The current job, if a submission is in flight.
    job: Option<JobPtr>,
    /// Total indices in the current submission.
    njobs: usize,
    /// Next unclaimed index (claims are `next` fetch-and-increment under
    /// the lock; `next >= njobs` means nothing is left to claim).
    next: usize,
    /// Indices claimed but not yet finished.
    active: usize,
    /// First panic payload observed across the jobs, propagated to the
    /// submitter after the batch drains.
    panic: Option<Box<dyn Any + Send>>,
    /// Tells the workers to exit (set once, by `Drop`).
    shutdown: bool,
    /// Trace timestamp of the current batch's submission; claim latency
    /// (`par.queue_wait_ns`) is measured against it. Always 0 when
    /// tracing is off.
    batch_start_ns: u64,
    /// Span tag of the current batch (e.g. a GEMM kernel-variant tag),
    /// emitted nested inside each `par.job` span so the timeline shows
    /// what ran on which lane. `None` for untagged batches.
    tag: Option<&'static str>,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for work (or shutdown).
    work: Condvar,
    /// The submitter waits here for the last in-flight job.
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A persistent pool of `threads - 1` parked worker threads; the
/// submitting thread is the remaining executor, so a pool created with
/// `threads = t` runs batches on exactly `t` threads and a pool of 1 runs
/// everything inline with zero synchronization.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Serializes submissions: one batch owns the pool at a time.
    submit: Mutex<()>,
}

impl WorkerPool {
    /// Spawn a pool that executes batches on `threads` threads total
    /// (`threads - 1` parked workers plus the submitter; `0` is treated
    /// as 1). If the OS refuses a spawn the pool degrades to fewer
    /// workers — submissions still complete on the threads that exist.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                njobs: 0,
                next: 0,
                active: 0,
                panic: None,
                shutdown: false,
                batch_start_ns: 0,
                tag: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(threads - 1);
        for id in 1..threads {
            let sh = Arc::clone(&shared);
            let builder = std::thread::Builder::new().name(format!("me-par-{id}"));
            if let Ok(handle) = builder.spawn(move || worker_loop(&sh)) {
                workers.push(handle);
            }
        }
        WorkerPool { shared, workers, threads, submit: Mutex::new(()) }
    }

    /// Total executor count (workers + the submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f(0), f(1), …, f(njobs - 1)` across the pool and return once
    /// every call has finished. Indices are claimed dynamically, so uneven
    /// jobs load-balance. The submitting thread participates. If any job
    /// panics, the remaining jobs still run and the first panic payload is
    /// re-raised here.
    ///
    /// Reentrant or concurrent submissions are safe: a submission that
    /// finds the pool busy (including a job submitting to its own pool)
    /// simply runs its batch inline on the calling thread.
    ///
    /// # Safety argument (for the internal lifetime erasure)
    ///
    /// `f` is borrowed for the duration of the call and handed to workers
    /// as a raw pointer. Workers only dereference it between claiming an
    /// index (`next < njobs`, under the state lock) and reporting it done
    /// (`active -= 1`). Before returning, this function (a) exhausts the
    /// index space so no further claims are possible and (b) blocks until
    /// `active == 0`, then clears the job slot. Hence no worker can touch
    /// the pointer after `parallel_for` returns — the same discipline
    /// `std::thread::scope` enforces with lifetimes.
    pub fn parallel_for<F: Fn(usize) + Sync>(&self, njobs: usize, f: F) {
        self.parallel_for_tagged(None, njobs, f);
    }

    /// [`Self::parallel_for`] with an optional batch tag: every job emits
    /// a span named `tag` nested inside its `par.job` span, on whichever
    /// lane ran it. The GEMM fronts use this to plumb the active kernel
    /// variant into the worker timelines.
    pub fn parallel_for_tagged<F: Fn(usize) + Sync>(
        &self,
        tag: Option<&'static str>,
        njobs: usize,
        f: F,
    ) {
        if njobs == 0 {
            return;
        }
        let _batch = me_trace::span("par.batch", "par");
        let _guard = match self.submit.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                // Pool busy (possibly a reentrant call from a job): run
                // inline — correct, just not parallel.
                me_trace::counter_add("par.inline_batches", 1);
                for i in 0..njobs {
                    run_job(tag, || f(i));
                }
                return;
            }
        };
        if self.workers.is_empty() || njobs == 1 {
            for i in 0..njobs {
                run_job(tag, || f(i));
            }
            return;
        }

        let obj: &(dyn Fn(usize) + Sync + '_) = &f;
        // SAFETY: erases the borrow lifetime from the trait-object type.
        // The pointer is only dereferenced while this call is blocked (see
        // the safety argument above), during which `f` is alive.
        let obj: &'static (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(obj) };
        let ptr = JobPtr(obj as *const (dyn Fn(usize) + Sync));
        {
            let mut st = self.shared.lock();
            st.job = Some(ptr);
            st.njobs = njobs;
            st.next = 0;
            st.active = 0;
            st.panic = None;
            st.batch_start_ns = me_trace::now_ns();
            st.tag = tag;
            self.shared.work.notify_all();
        }

        // The submitter is an executor too.
        loop {
            let i = {
                let mut st = self.shared.lock();
                if st.next < st.njobs {
                    let i = st.next;
                    st.next += 1;
                    st.active += 1;
                    Some(i)
                } else {
                    None
                }
            };
            let Some(i) = i else { break };
            me_trace::counter_add("par.claims_submitter", 1);
            let result = catch_unwind(AssertUnwindSafe(|| run_job(tag, || f(i))));
            let mut st = self.shared.lock();
            st.active -= 1;
            if let Err(payload) = result {
                st.panic.get_or_insert(payload);
            }
        }

        let mut st = self.shared.lock();
        while st.active > 0 {
            st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
        st.tag = None;
        let panic = st.panic.take();
        drop(st);
        // Workers flushed their spans before reporting done, so a
        // snapshot taken as soon as this returns (or unwinds) sees the
        // whole batch; flush the submitter's lane to match.
        me_trace::flush_thread();
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }

    /// Run `f(i, &mut items[i])` for every element, in parallel. The
    /// workhorse for disjoint-ownership fan-outs (matrix row panels,
    /// per-line splits): each job receives exclusive access to its element
    /// with no copying and no interior mutability in the caller.
    pub fn for_each_mut<T: Send, F: Fn(usize, &mut T) + Sync>(&self, items: &mut [T], f: F) {
        self.for_each_mut_inner(None, items, f);
    }

    /// [`Self::for_each_mut`] with a batch tag: every job's `par.job` span
    /// gets a nested span named `tag`, so the timeline shows which kernel
    /// (or phase) each lane was running. See
    /// [`Self::parallel_for_tagged`].
    pub fn for_each_mut_tagged<T: Send, F: Fn(usize, &mut T) + Sync>(
        &self,
        tag: &'static str,
        items: &mut [T],
        f: F,
    ) {
        self.for_each_mut_inner(Some(tag), items, f);
    }

    fn for_each_mut_inner<T: Send, F: Fn(usize, &mut T) + Sync>(
        &self,
        tag: Option<&'static str>,
        items: &mut [T],
        f: F,
    ) {
        if items.len() <= 1 || self.workers.is_empty() {
            for (i, item) in items.iter_mut().enumerate() {
                run_job(tag, || f(i, item));
            }
            return;
        }
        let cells: Vec<Mutex<Option<&mut T>>> =
            items.iter_mut().map(|r| Mutex::new(Some(r))).collect();
        self.parallel_for_tagged(tag, cells.len(), |i| {
            let taken = cells[i].lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(item) = taken {
                f(i, item);
            }
        });
    }
}

/// Run one job body under its `par.job` span, with the batch tag (if any)
/// as a nested span — the single point every execution path (worker,
/// submitter, inline fallback) funnels through, so tagged batches look
/// identical in the trace no matter where they ran.
// me-verify: hot
#[inline]
fn run_job<F: FnOnce()>(tag: Option<&'static str>, f: F) {
    let _job = me_trace::span("par.job", "par");
    let _tag = tag.map(|t| me_trace::span(t, "par"));
    f();
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("workers", &self.workers.len())
            .finish()
    }
}

// me-verify: hot
fn worker_loop(shared: &Shared) {
    // Give this worker a timeline lane even if it never claims a job.
    me_trace::register_current_thread();
    loop {
        // Claim the next index of the current job, or park.
        let (ptr, i, batch_start_ns, tag) = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(ptr) = st.job {
                    if st.next < st.njobs {
                        let i = st.next;
                        st.next += 1;
                        st.active += 1;
                        break (ptr, i, st.batch_start_ns, st.tag);
                    }
                }
                st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        me_trace::counter_add("par.claims_worker", 1);
        me_trace::hist_record(
            "par.queue_wait_ns",
            me_trace::now_ns().saturating_sub(batch_start_ns),
        );
        // SAFETY: the submitter keeps the closure alive until this claim
        // is reported done below (see `parallel_for`).
        let f = unsafe { &*ptr.0 };
        let result = catch_unwind(AssertUnwindSafe(|| run_job(tag, || f(i))));
        // Flush before reporting done: once the submitter's
        // `parallel_for` returns, every span this job emitted must be
        // visible to a snapshot.
        me_trace::flush_thread();
        let mut st = shared.lock();
        st.active -= 1;
        if let Err(payload) = result {
            st.panic.get_or_insert(payload);
        }
        if st.active == 0 && st.next >= st.njobs {
            shared.done.notify_all();
        }
    }
}

/// The process-wide default pool, created on first use with
/// [`crate::resolve_threads`]`(0)` executors. Callers that want a specific
/// width (benches, tests) build their own [`WorkerPool`].
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(crate::resolve_threads(0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn covers_every_index_exactly_once() {
        let pool = WorkerPool::new(4);
        for njobs in [0usize, 1, 2, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..njobs).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for(njobs, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "njobs={njobs}");
        }
    }

    #[test]
    fn pool_of_one_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut seen = vec![false; 5];
        // Inline execution: a plain &mut capture works because nothing
        // crosses a thread.
        let cells: Vec<Mutex<bool>> = seen.iter().map(|_| Mutex::new(false)).collect();
        pool.parallel_for(5, |i| {
            *cells[i].lock().unwrap_or_else(|e| e.into_inner()) = true;
        });
        for (s, c) in seen.iter_mut().zip(&cells) {
            *s = *c.lock().unwrap_or_else(|e| e.into_inner());
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn for_each_mut_gives_exclusive_access() {
        let pool = WorkerPool::new(3);
        let mut items: Vec<u64> = (0..97).collect();
        pool.for_each_mut(&mut items, |i, v| {
            *v += i as u64 + 1;
        });
        for (i, v) in items.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64 + 1);
        }
    }

    #[test]
    fn jobs_may_borrow_the_stack() {
        let pool = WorkerPool::new(4);
        let input: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let mut out = vec![0.0f64; 256];
        pool.for_each_mut(&mut out, |i, o| {
            *o = input[i] * 2.0;
        });
        assert_eq!(out[255], 510.0);
    }

    #[test]
    fn reentrant_submission_falls_back_inline() {
        let pool = WorkerPool::new(2);
        let count = AtomicUsize::new(0);
        pool.parallel_for(4, |_| {
            // Submitting to the busy pool from inside a job must not
            // deadlock; it runs inline.
            pool.parallel_for(3, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn panics_propagate_after_the_batch_drains() {
        let pool = WorkerPool::new(3);
        let done = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(16, |i| {
                assert!(i != 7, "job 7 fails");
                done.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "the panic must reach the submitter");
        assert_eq!(done.load(Ordering::Relaxed), 15, "other jobs still ran");
        // The pool survives a panicking batch.
        let after = AtomicUsize::new(0);
        pool.parallel_for(8, |_| {
            after.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn panic_payload_is_reraised_verbatim() {
        // The pool must resume_unwind the *original* payload, not wrap it
        // in a new panic: callers that panic_any a typed value (or match
        // on the message) see exactly what the job threw.
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(4, |i| {
                if i == 2 {
                    std::panic::panic_any(String::from("payload-42"));
                }
            });
        }));
        let payload = result.expect_err("batch with a panicking job must panic");
        let s = payload.downcast_ref::<String>().expect("original String payload survives");
        assert_eq!(s, "payload-42");
    }

    #[test]
    fn for_each_mut_covers_every_index_exactly_once_at_each_width() {
        // Exactly-once coverage over the width × length grid, including
        // the inline width-1 pool, a pool narrower than the item count,
        // and a pool wider than it.
        for width in [1usize, 2, 8] {
            let pool = WorkerPool::new(width);
            for len in [0usize, 1, 7, 64, 129] {
                let mut hits = vec![0u32; len];
                pool.for_each_mut(&mut hits, |i, h| {
                    assert!(i < len, "index {i} out of range at len {len}");
                    *h += 1;
                });
                assert!(
                    hits.iter().all(|&h| h == 1),
                    "width={width} len={len}: every index must run exactly once, got {hits:?}"
                );
            }
        }
    }

    #[test]
    fn tagged_variants_cover_every_index_exactly_once() {
        // The tagged entry points are the same scheduler with an extra
        // span; coverage semantics must be identical, across the pooled,
        // inline (width 1), and reentrant paths.
        for width in [1usize, 4] {
            let pool = WorkerPool::new(width);
            let hits: Vec<AtomicUsize> = (0..33).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for_tagged(Some("test.tag"), 33, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "width={width}");
            let mut items: Vec<u64> = (0..17).collect();
            pool.for_each_mut_tagged("test.tag", &mut items, |i, v| {
                *v += i as u64;
            });
            for (i, v) in items.iter().enumerate() {
                assert_eq!(*v, 2 * i as u64, "width={width}");
            }
        }
    }

    #[test]
    fn sequential_batches_reuse_the_workers() {
        let pool = WorkerPool::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.parallel_for(32, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * 32);
    }

    #[test]
    fn global_pool_is_usable() {
        let count = AtomicUsize::new(0);
        global().parallel_for(10, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(8);
        drop(pool); // must not hang
    }
}
