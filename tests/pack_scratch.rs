//! Steady-state allocation audit of the GEMM pack-buffer scratch.
//!
//! The packed GEMM used to allocate two fresh pack buffers per call; they
//! are now hoisted into a per-thread reusable scratch
//! (`me_linalg::mat::with_pack_scratch`), and every *growth* of that
//! scratch increments the `linalg.pack_scratch_grow` trace counter. This
//! test proves the zero-steady-state-allocation claim with the counter
//! itself: after one warm-up call at a given shape, repeated GEMMs — at
//! the same or any smaller shape, serial or on a persistent worker pool —
//! must not grow the scratch again.
//!
//! Lives in its own integration-test binary (single `#[test]`) because it
//! drains the process-global trace collector; sharing a process with other
//! trace-reading tests would race on the counters. Compiled to a no-op
//! pass when the workspace is built with `--no-default-features` (the
//! counter infrastructure itself is compiled out there).

use matrix_engines::linalg::{gemm_parallel_on, gemm_tiled, Mat};
use me_numerics::Rng64;
use me_par::WorkerPool;

fn gen_mat(rng: &mut Rng64, rows: usize, cols: usize) -> Mat<f64> {
    Mat::from_fn(rows, cols, |_, _| rng.range_f64(-1.0, 1.0))
}

/// Drain the collector and return the number of scratch growths recorded
/// since the previous drain.
fn drain_grow_count() -> u64 {
    let t = me_trace::take_snapshot();
    t.counters.get("linalg.pack_scratch_grow").copied().unwrap_or(0)
}

#[test]
fn pack_scratch_reaches_zero_allocation_steady_state() {
    if !me_trace::compiled() {
        eprintln!("pack_scratch: tracing compiled out; nothing to measure");
        return;
    }
    me_trace::set_enabled(true);
    let mut rng = Rng64::seed_from_u64(0xA110C);
    let n = 96;
    let a = gen_mat(&mut rng, n, n);
    let b = gen_mat(&mut rng, n, n);
    let mut c = Mat::zeros(n, n);

    // --- Serial path -------------------------------------------------
    let _ = drain_grow_count(); // discard anything earlier in the process
    gemm_tiled(1.0, &a, &b, 0.0, &mut c);
    let cold = drain_grow_count();
    assert!(cold > 0, "first pack at {n}³ must grow the scratch (counter is wired)");

    for _ in 0..8 {
        gemm_tiled(1.0, &a, &b, 0.0, &mut c);
    }
    // A smaller problem must reuse the same capacity too.
    let small = 33;
    let sa = gen_mat(&mut rng, small, small);
    let sb = gen_mat(&mut rng, small, small);
    let mut sc = Mat::zeros(small, small);
    for _ in 0..4 {
        gemm_tiled(1.0, &sa, &sb, 0.0, &mut sc);
    }
    let steady = drain_grow_count();
    assert_eq!(steady, 0, "serial steady state allocated: {steady} scratch growths after warm-up");

    // --- Parallel path: per-worker scratch on a persistent pool ------
    // Warm-up is nondeterministic here: each pool thread grows its own
    // thread-local scratch the first time it happens to claim a panel, and
    // which threads participate in a given run is a scheduling accident.
    // The steady-state claim is therefore phrased as convergence: within a
    // bounded number of runs the pool must reach — and hold for three
    // consecutive runs — zero scratch growths.
    let pool = WorkerPool::new(4);
    let mut cp = Mat::zeros(n, n);
    let mut streak = 0;
    let mut rounds = 0;
    while streak < 3 {
        rounds += 1;
        assert!(rounds <= 50, "pool never reached a zero-allocation steady state in {rounds} runs");
        gemm_parallel_on(&pool, 1.0, &a, &b, 0.0, &mut cp);
        if drain_grow_count() == 0 {
            streak += 1;
        } else {
            streak = 0;
        }
    }
    assert_eq!(cp.as_slice(), c.as_slice(), "warm-pool result must stay bitwise serial");

    // --- Growth is still observable when genuinely needed ------------
    let big = 160;
    let ba = gen_mat(&mut rng, big, big);
    let bb = gen_mat(&mut rng, big, big);
    let mut bc = Mat::zeros(big, big);
    gemm_tiled(1.0, &ba, &bb, 0.0, &mut bc);
    let regrow = drain_grow_count();
    assert!(regrow > 0, "a larger shape must be allowed to grow the scratch");

    // --- Skinny-k sizing audit (Issue 7) -----------------------------
    // The pack scratch used to be sized `ntiles_n * NR * KC` even when
    // `k < KC`, over-allocating by KC/k×. It is now sized by
    // `kc.min(k)`, which the grow counter can see: warming at a skinny
    // inner dimension must leave a scratch *small enough* that a deeper
    // k at the same n is forced to grow it again. Under the old
    // KC-sized allocation this growth never happens, so the assertion
    // below is the regression tripwire. A fresh process isn't needed —
    // k=8 with n=512 exceeds the 160³ B-scratch above only in the old
    // over-allocated sizing, never in the fixed one.
    let (wide_n, skinny_k, deep_k) = (512, 8, 64);
    let ska = gen_mat(&mut rng, 16, skinny_k);
    let skb = gen_mat(&mut rng, skinny_k, wide_n);
    let mut skc = Mat::zeros(16, wide_n);
    gemm_tiled(1.0, &ska, &skb, 0.0, &mut skc);
    let _ = drain_grow_count(); // warm-up at (k=8, n=512), whatever it cost
    for _ in 0..4 {
        gemm_tiled(1.0, &ska, &skb, 0.0, &mut skc);
    }
    assert_eq!(
        drain_grow_count(),
        0,
        "repeated skinny-k GEMMs must hold the zero-allocation steady state"
    );
    let dka = gen_mat(&mut rng, 16, deep_k);
    let dkb = gen_mat(&mut rng, deep_k, wide_n);
    let mut dkc = Mat::zeros(16, wide_n);
    gemm_tiled(1.0, &dka, &dkb, 0.0, &mut dkc);
    assert!(
        drain_grow_count() > 0,
        "k=8→64 at n=512 must regrow the B scratch: a no-grow here means the \
         skinny-k pack over-allocated to full KC again"
    );
}
