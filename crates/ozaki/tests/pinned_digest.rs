//! Pinned output digest of every Ozaki front end.
//!
//! The digests below were captured from the divide-and-`round_ties_even`
//! split and the per-slice pack pass that preceded the fused split. They
//! fold the bits of every result element plus the schedule counters, so
//! any change to the split, the packing, the engine calls or the fold
//! that moves a single output bit fails here — on every kernel variant
//! (`ME_KERNEL`), in debug and in release builds.
//!
//! Coverage: each `OzakiBackend` at both truncating targets, serial and
//! on a 3-wide pool; a square 128³ product, a ragged 37×300×29 one and one
//! with k beyond `k_block` (two k-chunks, the second ragged); input ranges
//! 1e0, 1e16 and 1e32, plus a 1e16 case whose every third row of A and
//! every fourth column of B is scaled by 1e-300 (subnormal line maxima and
//! grids below 2^-1022). `ozaki_dot`, `ozaki_gemv` and the systolic-array
//! executor share the split and are pinned too.

use me_engine::systolic::SystolicArray;
use me_linalg::{selected_kernel, Mat};
use me_ozaki::perf::ranged_matrix;
use me_ozaki::{
    ozaki_dot, ozaki_gemm_on, ozaki_gemm_systolic, ozaki_gemv, HostF16Engine, Int8Engine,
    OzakiConfig, OzakiReport, SliceEngine, TargetAccuracy,
};
use me_par::WorkerPool;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn report(&mut self, r: &OzakiReport) {
        for x in r.c.as_slice() {
            self.word(x.to_bits());
        }
        for c in [r.s_a, r.s_b, r.products_computed, r.engine_calls] {
            self.word(c as u64);
        }
    }
}

/// (m, k, n): square, ragged, and k beyond the default `k_block` of 256.
const SHAPES: [(usize, usize, usize); 3] = [(128, 128, 128), (37, 300, 29), (19, 600, 23)];

/// Input range in decades, and whether lines are scaled by 1e-300.
const RANGES: [(f64, bool); 4] = [(0.0, false), (16.0, false), (32.0, false), (16.0, true)];

fn operands(m: usize, k: usize, n: usize, decades: f64, tiny: bool, seed: u64) -> [Mat<f64>; 2] {
    let mut a = ranged_matrix(m, k, decades, seed);
    let mut b = ranged_matrix(k, n, decades, seed + 1);
    if tiny {
        for i in (0..m).step_by(3) {
            for p in 0..k {
                a[(i, p)] *= 1e-300;
            }
        }
        for j in (0..n).step_by(4) {
            for p in 0..k {
                b[(p, j)] *= 1e-300;
            }
        }
    }
    [a, b]
}

/// Digest of `engines` over every shape, range, and width.
fn gemm_digest<E: SliceEngine>(engines: [E; 2], pool: &WorkerPool) -> u64 {
    let mut h = Fnv::new();
    for (si, &(m, k, n)) in SHAPES.iter().enumerate() {
        for (ri, &(decades, tiny)) in RANGES.iter().enumerate() {
            let [a, b] = operands(m, k, n, decades, tiny, (10 * si + ri) as u64);
            for engine in &engines {
                let serial = ozaki_gemm_on(&a, &b, engine, selected_kernel(), None);
                let pooled = ozaki_gemm_on(&a, &b, engine, selected_kernel(), Some(pool));
                h.report(&serial);
                h.report(&pooled);
            }
        }
    }
    h.0
}

#[test]
fn simulated_me_digest_is_pinned() {
    let pool = WorkerPool::new(3);
    let d = gemm_digest([OzakiConfig::dgemm_tc(), OzakiConfig::sgemm_tc()], &pool);
    assert_eq!(d, 0x5929_7ef9_7061_4b7d, "simulated-me digest {d:#018x}");
}

#[test]
fn host_int8_digest_is_pinned() {
    let pool = WorkerPool::new(3);
    let d = gemm_digest([Int8Engine::default(), Int8Engine::sgemm_equivalent()], &pool);
    assert_eq!(d, 0x5210_dfe8_11f6_dbc9, "host-int8 digest {d:#018x}");
}

#[test]
fn host_f16_digest_is_pinned() {
    let pool = WorkerPool::new(3);
    let d = gemm_digest([HostF16Engine::default(), HostF16Engine::sgemm_equivalent()], &pool);
    assert_eq!(d, 0x5929_7ef9_7061_4b7d, "host-f16 digest {d:#018x}");
}

#[test]
fn dot_gemv_and_systolic_digest_is_pinned() {
    let mut h = Fnv::new();
    let exact = OzakiConfig { target: TargetAccuracy::Exact, ..OzakiConfig::default() };
    let chunked = OzakiConfig { k_block: 64, ..OzakiConfig::dgemm_tc() };
    for (ri, &(decades, tiny)) in RANGES.iter().enumerate() {
        let [a, b] = operands(13, 300, 5, decades, tiny, 100 + ri as u64);
        for cfg in [OzakiConfig::dgemm_tc(), OzakiConfig::sgemm_tc(), exact, chunked] {
            let x: Vec<f64> = (0..300).map(|p| b[(p, 0)]).collect();
            let y: Vec<f64> = (0..300).map(|p| b[(p, 1)]).collect();
            h.word(ozaki_dot(&x, &y, &cfg).to_bits());
            h.word(ozaki_dot(a.row(0), &x, &cfg).to_bits());
            for v in ozaki_gemv(&a, &x, &cfg) {
                h.word(v.to_bits());
            }
        }
        let [a, b] = operands(6, 40, 5, decades, tiny, 200 + ri as u64);
        let r =
            ozaki_gemm_systolic(&a, &b, &OzakiConfig::dgemm_tc(), &SystolicArray::tensor_core());
        h.report(&r.report);
    }
    assert_eq!(h.0, 0xfc6e_e4bd_45ff_e0b1, "dot/gemv/systolic digest {:#018x}", h.0);
}
