//! Reuse safety of the per-thread Ozaki workspace.
//!
//! Every Ozaki call keeps its lines, slice panels, exponents, tile
//! buffers and accumulators in one reused arena per thread
//! (`me_ozaki::workspace`). This test interleaves, on one thread, calls
//! that grow and shrink that arena — four shapes, three input ranges
//! (so slice counts go up and down), lines that are NaN, subnormal, zero
//! or exact after one slice (so whole tiles and single lines of a reused
//! panel go dead), every substrate plus the f32-word simulated engine
//! (`acc_precision: 40`, never bf16), `ozaki_dot` and `ozaki_gemv`,
//! serially and on a 3-wide pool — and checks that
//! - every result is bitwise the same call's on a freshly spawned thread,
//!   whose arena is empty;
//! - a zero column of B gives a zero column of C, whatever the arena held
//!   before (stale INT8 column sums or tiles would not);
//! - after one warm-up pass the arena never grows again
//!   (`ozaki.workspace_grow` stays 0);
//! - every slice panel an engine call reads starts on a 64-byte boundary
//!   (`ozaki.aligned_panels` counts every packed panel).
//!
//! Its own binary, with a single test, because it drains the
//! process-global trace counters. A no-op when tracing is compiled out.

use me_linalg::{selected_kernel, Mat};
use me_ozaki::perf::ranged_matrix;
use me_ozaki::workspace::{ALIGNED_PANELS, WORKSPACE_GROW};
use me_ozaki::{
    ozaki_dot, ozaki_gemm_on, ozaki_gemv, HostF16Engine, Int8Engine, OzakiConfig, SliceEngine,
};
use me_par::WorkerPool;

/// A row of A holding a NaN.
const NAN_ROW: usize = 1;
/// A row of A whose every element is subnormal.
const SUBNORMAL_ROW: usize = 2;
/// A column of B of zeros.
const ZERO_COL: usize = 1;

/// The shapes (m, k, n): full tiles, ragged tiles over two k-chunks, one
/// long line each, and a small square.
const SHAPES: [(usize, usize, usize); 4] =
    [(128, 128, 128), (37, 300, 29), (1, 700, 1), (9, 14, 9)];
/// Input ranges, in decades.
const RANGES: [f64; 3] = [2.0, 16.0, 30.0];

/// A and B of one case: `ranged_matrix` operands with a NaN row, a
/// subnormal row, a zero column, rows 16..32 of A and columns 32..64 of B
/// small integers (exact after one slice: from the second slice on, whole
/// tiles of every engine layout are dead), where the shape has them.
fn operands((m, k, n): (usize, usize, usize), decades: f64, seed: u64) -> (Mat<f64>, Mat<f64>) {
    let mut a = ranged_matrix(m, k, decades, seed);
    let mut b = ranged_matrix(k, n, decades, seed + 1);
    let small = |i: usize, p: usize| ((i * 7 + p * 3) % 5) as f64 - 2.0;
    if m > SUBNORMAL_ROW {
        a[(NAN_ROW, k / 2)] = f64::NAN;
        for p in 0..k {
            a[(SUBNORMAL_ROW, p)] = (p as f64 + 1.0) * if p % 2 == 0 { 1e-318 } else { -3e-319 };
        }
    }
    for i in (16..32).filter(|&i| i < m) {
        for p in 0..k {
            a[(i, p)] = small(i, p);
        }
    }
    if n > ZERO_COL {
        for p in 0..k {
            b[(p, ZERO_COL)] = 0.0;
        }
    }
    for j in (32..64).filter(|&j| j < n) {
        for p in 0..k {
            b[(p, j)] = small(j, p);
        }
    }
    (a, b)
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// One GEMM on `engine`, serially or on `pool`; C's bits. Checks that B's
/// zero column gives zeros outside the NaN row.
fn gemm<E: SliceEngine>(
    a: &Mat<f64>,
    b: &Mat<f64>,
    engine: &E,
    pool: Option<&WorkerPool>,
) -> Vec<u64> {
    let c = ozaki_gemm_on(a, b, engine, selected_kernel(), pool).c;
    if b.cols() > ZERO_COL {
        for i in (0..a.rows()).filter(|&i| i != NAN_ROW || a.rows() <= SUBNORMAL_ROW) {
            assert_eq!(c[(i, ZERO_COL)].to_bits(), 0, "row {i} of B's zero column");
        }
    }
    bits(c.as_slice())
}

/// One call of a pass.
#[derive(Debug, Clone, Copy)]
enum Call {
    /// A GEMM on substrate `engine` (simulated-me, f32 words, host-f16,
    /// host-int8), serial or pooled.
    Gemm { engine: usize, pooled: bool },
    /// `ozaki_dot` of A's first row and B's first column.
    Dot { f32_words: bool },
    /// `ozaki_gemv` of A and B's first column.
    Gemv { f32_words: bool },
}

/// Every call of one case, in order.
const CALLS: [Call; 12] = [
    Call::Gemm { engine: 0, pooled: false },
    Call::Gemm { engine: 1, pooled: false },
    Call::Gemm { engine: 2, pooled: false },
    Call::Gemm { engine: 3, pooled: false },
    Call::Gemm { engine: 0, pooled: true },
    Call::Gemm { engine: 1, pooled: true },
    Call::Gemm { engine: 2, pooled: true },
    Call::Gemm { engine: 3, pooled: true },
    Call::Dot { f32_words: false },
    Call::Dot { f32_words: true },
    Call::Gemv { f32_words: false },
    Call::Gemv { f32_words: true },
];

/// The simulated matrix engine, or its f32-word form.
fn config(f32_words: bool) -> OzakiConfig {
    let acc_precision = if f32_words { 40 } else { 24 };
    OzakiConfig { acc_precision, ..OzakiConfig::dgemm_tc() }
}

/// `call` on `(a, b)`; its result's bits.
fn run(call: Call, (a, b): &(Mat<f64>, Mat<f64>), pool: &WorkerPool) -> Vec<u64> {
    let x = b.col_vec(0);
    match call {
        Call::Gemm { engine, pooled } => {
            let pool = pooled.then_some(pool);
            match engine {
                0 => gemm(a, b, &config(false), pool),
                1 => gemm(a, b, &config(true), pool),
                2 => gemm(a, b, &HostF16Engine::default(), pool),
                _ => gemm(a, b, &Int8Engine::default(), pool),
            }
        }
        Call::Dot { f32_words } => bits(&[ozaki_dot(a.row(0), &x, &config(f32_words))]),
        Call::Gemv { f32_words } => bits(&ozaki_gemv(a, &x, &config(f32_words))),
    }
}

/// Every case: each shape at each range, the ranges going up for one
/// shape and down for the next.
fn cases() -> Vec<(Mat<f64>, Mat<f64>)> {
    let mut out = Vec::new();
    for (s, &shape) in SHAPES.iter().enumerate() {
        for r in 0..RANGES.len() {
            let r = if s % 2 == 0 { r } else { RANGES.len() - 1 - r };
            out.push(operands(shape, RANGES[r], (10 * s + r) as u64 + 1));
        }
    }
    out
}

/// Every call of every case, in order, on this thread.
fn pass(cases: &[(Mat<f64>, Mat<f64>)], pool: &WorkerPool) -> Vec<Vec<u64>> {
    cases.iter().flat_map(|case| CALLS.map(|call| run(call, case, pool))).collect()
}

/// The counters since the last drain: (arena growths, aligned panels,
/// panels packed).
fn drain() -> (u64, u64, u64) {
    let counters = me_trace::take_snapshot().counters;
    let read = |name: &str| counters.get(name).copied().unwrap_or(0);
    let packs = [OzakiConfig::TRACE, Int8Engine::TRACE, HostF16Engine::TRACE]
        .iter()
        .map(|t| read(t.panel_packs))
        .sum();
    (read(WORKSPACE_GROW), read(ALIGNED_PANELS), packs)
}

#[test]
fn reused_workspace_matches_a_fresh_one_and_stops_growing() {
    if !me_trace::compiled() {
        eprintln!("workspace_reuse: tracing compiled out; nothing to measure");
        return;
    }
    me_trace::set_enabled(true);
    let pool = WorkerPool::new(3);
    let cases = cases();

    // The reference: every call on a freshly spawned thread, whose arena
    // is empty.
    let fresh: Vec<Vec<u64>> = std::thread::scope(|s| {
        let pool = &pool;
        let calls = cases.iter().flat_map(|case| CALLS.map(|call| (call, case)));
        calls
            .map(|(call, case)| s.spawn(move || run(call, case, pool)).join().expect("fresh call"))
            .collect()
    });

    drain();
    let warm = pass(&cases, &pool);
    let (grew, aligned, packs) = drain();
    assert!(grew > 0, "the warm-up pass must grow the arena (counter is wired)");
    assert!(packs > 0 && aligned == packs, "{aligned} of {packs} panels 64-byte aligned");
    let steady = pass(&cases, &pool);
    let (grew, aligned, packs) = drain();
    assert_eq!(grew, 0, "the arena grew {grew} times after a warm-up pass");
    assert!(packs > 0 && aligned == packs, "{aligned} of {packs} panels 64-byte aligned");

    assert_eq!(warm.len(), fresh.len());
    for (i, ((w, s), f)) in warm.iter().zip(&steady).zip(&fresh).enumerate() {
        let (case, call) = (i / CALLS.len(), CALLS[i % CALLS.len()]);
        assert!(w == f, "case {case} {call:?}: the warm-up pass differs from a fresh thread");
        assert!(s == f, "case {case} {call:?}: the steady pass differs from a fresh thread");
    }
}
