//! Backend selection: one `ozaki_gemm`-shaped entry point over the three
//! compute substrates.
//!
//! The repo carries three [`crate::gemm::SliceEngine`]s under one driver:
//! the simulated f16-multiply/f32-accumulate matrix engine
//! ([`OzakiConfig`], the paper's Tensor-Core model, integer `f32` slices
//! on the host's f32 engine tile), the host f16 path ([`HostF16Engine`],
//! the same kernel core on binary16-stored slices) and the host INT8 path
//! ([`Int8Engine`], real `i8×i8→i32` micro-kernels). [`OzakiBackend`]
//! makes the choice a *config*, so callers — the serving layer, the
//! benches, the energy policy work queued in ROADMAP item 5 — route
//! through one function and A/B the substrates without changing call
//! sites.

use crate::gemm::{ozaki_gemm_on, with_pool, OzakiConfig, OzakiReport};
use crate::host_f16::HostF16Engine;
use crate::int8::Int8Engine;
use me_linalg::{selected_kernel, KernelVariant, Mat};
use me_par::WorkerPool;

/// Which substrate executes the slice-pair products.
#[derive(Debug, Clone, Copy)]
pub enum OzakiBackend {
    /// The simulated f16/f32 matrix engine (Tensor-Core model): integer
    /// `f32` slice panels on the host's dispatched f32 engine tile, or,
    /// on an AMX host where every chunk sum is exact, bf16 slice panels
    /// on AMX `tdpbf16ps` tiles.
    SimulatedMe(OzakiConfig),
    /// Host INT8 kernels (i8×i8→i32: AMX `tdpbusd` tiles, or an 8×32
    /// register tile of AVX-512 VNNI `vpdpbusd` / AVX2 `vpmaddwd` /
    /// scalar, per the process kernel dispatch).
    HostInt8(Int8Engine),
    /// Host f16 widening kernels (binary16 panels widened to f32 one
    /// contiguous tile block per engine call; scalar / AVX2 / AVX-512 per
    /// the process kernel dispatch). The same engine-call core as `SimulatedMe`,
    /// differing only in slice storage, so bitwise-equal to it at matched
    /// slice counts.
    HostF16(HostF16Engine),
}

impl Default for OzakiBackend {
    fn default() -> Self {
        OzakiBackend::SimulatedMe(OzakiConfig::dgemm_tc())
    }
}

impl OzakiBackend {
    /// The simulated Tensor-Core backend at DGEMM-equivalent accuracy.
    pub fn dgemm_tc() -> Self {
        OzakiBackend::SimulatedMe(OzakiConfig::dgemm_tc())
    }

    /// The host INT8 backend at DGEMM-equivalent accuracy.
    pub fn host_int8() -> Self {
        OzakiBackend::HostInt8(Int8Engine::default())
    }

    /// The host f16 backend at DGEMM-equivalent accuracy.
    pub fn host_f16() -> Self {
        OzakiBackend::HostF16(HostF16Engine::default())
    }

    /// Short label for reports and bench output.
    pub fn label(&self) -> &'static str {
        match self {
            OzakiBackend::SimulatedMe(_) => "simulated-me",
            OzakiBackend::HostInt8(_) => "host-int8",
            OzakiBackend::HostF16(_) => "host-f16",
        }
    }

    /// [`ozaki_gemm_on`] on this backend's engine.
    fn run(
        &self,
        a: &Mat<f64>,
        b: &Mat<f64>,
        kernel: KernelVariant,
        pool: Option<&WorkerPool>,
    ) -> OzakiReport {
        match self {
            OzakiBackend::SimulatedMe(cfg) => ozaki_gemm_on(a, b, cfg, kernel, pool),
            OzakiBackend::HostInt8(engine) => ozaki_gemm_on(a, b, engine, kernel, pool),
            OzakiBackend::HostF16(engine) => ozaki_gemm_on(a, b, engine, kernel, pool),
        }
    }
}

/// Emulated GEMM through the selected backend (serial).
pub fn ozaki_gemm_backend(a: &Mat<f64>, b: &Mat<f64>, backend: &OzakiBackend) -> OzakiReport {
    backend.run(a, b, selected_kernel(), None)
}

/// Emulated GEMM through the selected backend, row-parallel
/// (`threads == 0` resolves through `ME_THREADS`/the OS). Every backend
/// is bitwise identical to its serial path at any width.
pub fn ozaki_gemm_backend_parallel(
    a: &Mat<f64>,
    b: &Mat<f64>,
    backend: &OzakiBackend,
    threads: usize,
) -> OzakiReport {
    with_pool(a.rows(), threads, |pool| backend.run(a, b, selected_kernel(), pool))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::reference_gemm;
    use crate::perf::ranged_matrix;
    use me_linalg::available_variants;

    #[test]
    fn both_backends_hit_dgemm_accuracy_through_one_entry() {
        let a = ranged_matrix(9, 12, 8.0, 31);
        let b = ranged_matrix(12, 7, 8.0, 32);
        let c_ref = reference_gemm(&a, &b);
        for backend in
            [OzakiBackend::dgemm_tc(), OzakiBackend::host_int8(), OzakiBackend::host_f16()]
        {
            let r = ozaki_gemm_backend(&a, &b, &backend);
            let err = me_numerics::max_rel_err(r.c.as_slice(), c_ref.as_slice());
            assert!(err < 1e-12, "{}: rel err {err}", backend.label());
        }
    }

    #[test]
    fn backend_parallel_matches_serial_bitwise() {
        let a = ranged_matrix(14, 10, 10.0, 33);
        let b = ranged_matrix(10, 8, 10.0, 34);
        for backend in
            [OzakiBackend::dgemm_tc(), OzakiBackend::host_int8(), OzakiBackend::host_f16()]
        {
            let s = ozaki_gemm_backend(&a, &b, &backend);
            let p = ozaki_gemm_backend_parallel(&a, &b, &backend, 4);
            for (x, y) in s.c.as_slice().iter().zip(p.c.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{}", backend.label());
            }
        }
    }

    #[test]
    fn host_f16_backend_matches_simulated_me_bitwise() {
        // The PR 8 INT8 pin, restated for f16: both default backends run
        // β = required_beta(256, 24, 11), identical splits and schedules,
        // and §9-fixed chunk sums — bit-for-bit equal C through the
        // backend-selection entry point, no configuration fudge.
        let a = ranged_matrix(12, 18, 11.0, 35);
        let b = ranged_matrix(18, 9, 11.0, 36);
        let sim = ozaki_gemm_backend(&a, &b, &OzakiBackend::dgemm_tc());
        let host = ozaki_gemm_backend(&a, &b, &OzakiBackend::host_f16());
        assert_eq!(sim.s_a, host.s_a, "matched slice counts");
        assert_eq!(sim.products_computed, host.products_computed);
        for (x, y) in sim.c.as_slice().iter().zip(host.c.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "simulated-me vs host-f16");
        }
    }

    #[test]
    fn labels_and_default() {
        assert_eq!(OzakiBackend::default().label(), "simulated-me");
        assert_eq!(OzakiBackend::host_int8().label(), "host-int8");
        assert_eq!(OzakiBackend::host_f16().label(), "host-f16");
    }

    #[test]
    fn every_substrate_kernel_and_width_matches_scalar_serial_bitwise() {
        // The bitwise contract as one table: each substrate, on every
        // kernel the host can run, serially and at 2/3/5/8 threads
        // (uneven row panels at m = 23), returns the scalar serial bits
        // and the same schedule. k = 300 spans two k-chunks, the second
        // ragged.
        let a = ranged_matrix(23, 300, 9.0, 55);
        let b = ranged_matrix(300, 7, 9.0, 56);
        let pools: Vec<WorkerPool> = [2, 3, 5, 8].into_iter().map(WorkerPool::new).collect();
        let widths = std::iter::once(None).chain(pools.iter().map(Some));
        let bits = |c: &Mat<f64>| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for backend in
            [OzakiBackend::dgemm_tc(), OzakiBackend::host_int8(), OzakiBackend::host_f16()]
        {
            let k_block = match backend {
                OzakiBackend::SimulatedMe(cfg) => cfg.k_block,
                OzakiBackend::HostInt8(engine) => engine.k_block,
                OzakiBackend::HostF16(engine) => engine.k_block,
            };
            let want = backend.run(&a, &b, KernelVariant::Scalar, None);
            let schedule = |r: &OzakiReport| {
                (r.s_a, r.s_b, r.beta, r.products_computed, r.products_skipped, r.engine_calls)
            };
            for v in available_variants() {
                for pool in widths.clone() {
                    let threads = pool.map_or(1, WorkerPool::threads);
                    let label = format!("{} {v} at {threads} threads", backend.label());
                    let r = backend.run(&a, &b, v, pool);
                    assert_eq!(r.kernel, v.resolve_supported(), "{label}");
                    let chunks = 300usize.div_ceil(k_block);
                    assert_eq!(r.engine_calls, r.products_computed * chunks, "{label}");
                    assert_eq!(r.products_computed + r.products_skipped, r.s_a * r.s_b, "{label}");
                    assert_eq!(schedule(&r), schedule(&want), "{label}");
                    assert_eq!(bits(&r.c), bits(&want.c), "{label}");
                }
            }
        }
    }
}
