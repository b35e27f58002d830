//! Every slice is packed once per GEMM.
//!
//! The driver packs each slice of A and of B into its engine's panel
//! layout as the split writes it, and the engine calls only compute. The
//! per-substrate `<prefix>.panel_packs` counter must therefore read
//! exactly `s_a + s_b` per call — not one pack per slice pair or per
//! k-chunk — serially and on a 3-wide pool, whose row panels start on the
//! engine's tile grid.

use me_linalg::{selected_kernel, Mat};
use me_ozaki::perf::ranged_matrix;
use me_ozaki::{ozaki_gemm_on, HostF16Engine, Int8Engine, OzakiConfig, OzakiReport, SliceEngine};
use me_par::WorkerPool;

/// One traced call of `engine`, and the counters it left.
fn traced<E: SliceEngine>(
    a: &Mat<f64>,
    b: &Mat<f64>,
    engine: &E,
    pool: Option<&WorkerPool>,
) -> (OzakiReport, u64, u64) {
    drop(me_trace::take_snapshot());
    let r = ozaki_gemm_on(a, b, engine, selected_kernel(), pool);
    let counters = me_trace::take_snapshot().counters;
    let read = |name| counters.get(name).copied().unwrap_or(0);
    (r, read(E::TRACE.panel_packs), read(E::TRACE.engine_calls))
}

fn check<E: SliceEngine>(label: &str, engine: &E, pool: &WorkerPool) {
    // k = 300 spans two k-chunks at k_block 256; 37 rows and 29 columns
    // leave ragged tiles on every layout.
    let a = ranged_matrix(37, 300, 16.0, 71);
    let b = ranged_matrix(300, 29, 16.0, 72);
    let (serial, packs, calls) = traced(&a, &b, engine, None);
    assert!(serial.s_a > 1 && serial.s_b > 1, "{label}: want several slices");
    assert_eq!(packs, (serial.s_a + serial.s_b) as u64, "{label}: serial panel packs");
    assert_eq!(calls, serial.engine_calls as u64, "{label}: serial engine calls");
    let (pooled, packs, _) = traced(&a, &b, engine, Some(pool));
    assert_eq!(packs, (pooled.s_a + pooled.s_b) as u64, "{label}: pooled panel packs");
    let bits = |r: &OzakiReport| r.c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&pooled), bits(&serial), "{label}: pool changed the bits");
}

#[test]
fn each_slice_is_packed_once_per_call() {
    if !me_trace::compiled() {
        // --no-default-features build: no counters to read.
        return;
    }
    me_trace::set_enabled(true);
    let pool = WorkerPool::new(3);
    check("simulated-me", &OzakiConfig::dgemm_tc(), &pool);
    check("host-f16", &HostF16Engine::default(), &pool);
    check("host-int8", &Int8Engine::default(), &pool);
}
