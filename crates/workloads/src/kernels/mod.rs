//! Real executable mini-kernels backing the workload models.
//!
//! Every kernel computes actual numbers on real data and returns a
//! [`KernelStats`] with its operation counts and a checksum (so no kernel
//! can be optimized away, and tests can verify numerical sanity). Kernels
//! are deliberately small — the calibrated runtime weights live in the
//! benchmark mixes, not here — but each one has the *compute and memory
//! access pattern* of the application class it stands for.

mod dense;
mod nn;
mod science;

pub use dense::*;
pub use nn::*;
pub use science::*;

use me_profiler::RegionClass;

/// Identifier for every mini-kernel in the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// Dense matrix-matrix multiply (the directly ME-accelerable kernel).
    Gemm,
    /// Hand-written small-block GEMM (SU(3)-style 3x3 complex blocks, the
    /// lattice-QCD inner kernel the paper's manual instrumentation tags as
    /// GEMM in milc/dmilc).
    BlockGemm,
    /// LU panel factorization (LAPACK getrf).
    LuFactor,
    /// Cholesky factorization (LAPACK potrf).
    Cholesky,
    /// Symmetric eigendecomposition (LAPACK syev; NTChem-style
    /// diagonalization).
    SymEig,
    /// Triangular solve with multiple RHS (BLAS-3 trsm).
    Trsm,
    /// Symmetric rank-k update (BLAS-3 syrk).
    Syrk,
    /// Dense matrix-vector product (BLAS-2 gemv).
    Gemv,
    /// Vector dot / axpy bundle (BLAS-1).
    VectorOps,
    /// 7-point stencil sweep (structured-grid PDE).
    Stencil7,
    /// 27-point stencil sweep (high-order structured grid).
    Stencil27,
    /// Sparse matrix-vector product on CSR (unstructured PDE / graphs).
    SpMV,
    /// One conjugate-gradient iteration (SpMV + dots + axpys).
    CgIteration,
    /// Radix-2 complex FFT.
    Fft,
    /// Lennard-Jones molecular-dynamics force loop.
    MdForces,
    /// Direct N-body gravitational interactions.
    NBody,
    /// SU(3)-like complex 3x3 streaming multiplies, *not* instrumented as
    /// GEMM (the RIKEN QCD code path).
    LatticeSu3,
    /// Smith-Waterman sequence alignment (bioinformatics).
    SmithWaterman,
    /// Breadth-first search over a synthetic graph (combinatorial).
    GraphBfs,
    /// Monte-Carlo cross-section lookup (XSBench-style).
    McLookup,
    /// Adaptive-mesh refinement flagging pass.
    AmrRefine,
    /// Sorting (integer keys; data-movement bound).
    Sort,
    /// Branchy integer state machine (compilers/interpreters: gcc, perl).
    IntegerLogic,
}

/// Operation counts and a checksum from one kernel execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelStats {
    /// Floating-point operations performed (0 for integer kernels).
    pub flops: f64,
    /// Approximate bytes touched.
    pub bytes: f64,
    /// Checksum of the results (prevents dead-code elimination; lets tests
    /// verify determinism).
    pub checksum: f64,
}

impl KernelId {
    /// The region class the paper's instrumentation would assign to this
    /// kernel: GEMM-like kernels via the library wrapper or manual source
    /// inspection, BLAS/LAPACK via the MKL wrapper, the rest "other".
    pub fn region_class(self) -> RegionClass {
        match self {
            KernelId::Gemm | KernelId::BlockGemm => RegionClass::Gemm,
            KernelId::LuFactor | KernelId::Cholesky | KernelId::SymEig => RegionClass::Lapack,
            KernelId::Trsm | KernelId::Syrk => RegionClass::BlasL3NonGemm,
            KernelId::Gemv => RegionClass::BlasL2,
            KernelId::VectorOps => RegionClass::BlasL1,
            _ => RegionClass::Other,
        }
    }

    /// The symbol name the region would carry in an `nm` dump / profile.
    pub fn symbol(self) -> &'static str {
        match self {
            KernelId::Gemm => "dgemm",
            KernelId::BlockGemm => "mult_su3_nn",
            KernelId::LuFactor => "dgetrf",
            KernelId::Cholesky => "dpotrf",
            KernelId::SymEig => "dsyevd",
            KernelId::Trsm => "dtrsm",
            KernelId::Syrk => "dsyrk",
            KernelId::Gemv => "dgemv",
            KernelId::VectorOps => "daxpy",
            KernelId::Stencil7 => "stencil7",
            KernelId::Stencil27 => "stencil27",
            KernelId::SpMV => "spmv_csr",
            KernelId::CgIteration => "cg_iteration",
            KernelId::Fft => "fft_radix2",
            KernelId::MdForces => "lj_forces",
            KernelId::NBody => "nbody_step",
            KernelId::LatticeSu3 => "su3_stream",
            KernelId::SmithWaterman => "smith_waterman",
            KernelId::GraphBfs => "graph_bfs",
            KernelId::McLookup => "xs_lookup",
            KernelId::AmrRefine => "amr_refine",
            KernelId::Sort => "sort_keys",
            KernelId::IntegerLogic => "int_state_machine",
        }
    }
}

/// Execute a kernel at problem size `n` (each kernel documents its own
/// interpretation of `n`; all are safe for `n == 0`).
pub fn execute_kernel(id: KernelId, n: usize) -> KernelStats {
    match id {
        KernelId::Gemm => dense::gemm_kernel(n),
        KernelId::BlockGemm => dense::block_gemm_kernel(n),
        KernelId::LuFactor => dense::lu_kernel(n),
        KernelId::Cholesky => dense::cholesky_kernel(n),
        KernelId::SymEig => dense::sym_eig_kernel(n),
        KernelId::Trsm => dense::trsm_kernel(n),
        KernelId::Syrk => dense::syrk_kernel(n),
        KernelId::Gemv => dense::gemv_kernel(n),
        KernelId::VectorOps => dense::vector_ops_kernel(n),
        KernelId::Stencil7 => science::stencil7_kernel(n),
        KernelId::Stencil27 => science::stencil27_kernel(n),
        KernelId::SpMV => science::spmv_kernel(n),
        KernelId::CgIteration => science::cg_kernel(n),
        KernelId::Fft => science::fft_kernel(n),
        KernelId::MdForces => science::md_kernel(n),
        KernelId::NBody => science::nbody_kernel(n),
        KernelId::LatticeSu3 => science::su3_kernel(n),
        KernelId::SmithWaterman => science::smith_waterman_kernel(n),
        KernelId::GraphBfs => science::bfs_kernel(n),
        KernelId::McLookup => science::mc_lookup_kernel(n),
        KernelId::AmrRefine => science::amr_kernel(n),
        KernelId::Sort => science::sort_kernel(n),
        KernelId::IntegerLogic => science::integer_logic_kernel(n),
    }
}

/// All kernel ids (for exhaustive tests).
pub fn all_kernels() -> Vec<KernelId> {
    use KernelId::*;
    vec![
        Gemm,
        BlockGemm,
        LuFactor,
        Cholesky,
        SymEig,
        Trsm,
        Syrk,
        Gemv,
        VectorOps,
        Stencil7,
        Stencil27,
        SpMV,
        CgIteration,
        Fft,
        MdForces,
        NBody,
        LatticeSu3,
        SmithWaterman,
        GraphBfs,
        McLookup,
        AmrRefine,
        Sort,
        IntegerLogic,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_runs_and_is_deterministic() {
        for id in all_kernels() {
            let a = execute_kernel(id, 24);
            let b = execute_kernel(id, 24);
            assert!(a.checksum.is_finite(), "{id:?} produced non-finite checksum");
            assert_eq!(a.checksum.to_bits(), b.checksum.to_bits(), "{id:?} not deterministic");
            assert!(a.flops >= 0.0 && a.bytes >= 0.0);
        }
    }

    #[test]
    fn every_kernel_survives_n_zero_and_one() {
        for id in all_kernels() {
            for n in [0, 1] {
                let s = execute_kernel(id, n);
                assert!(s.checksum.is_finite(), "{id:?} n={n}");
            }
        }
    }

    #[test]
    fn classification_matches_paper_methodology() {
        assert_eq!(KernelId::Gemm.region_class(), RegionClass::Gemm);
        assert_eq!(KernelId::BlockGemm.region_class(), RegionClass::Gemm);
        assert_eq!(KernelId::LatticeSu3.region_class(), RegionClass::Other);
        assert_eq!(KernelId::VectorOps.region_class(), RegionClass::BlasL1);
        assert_eq!(KernelId::Gemv.region_class(), RegionClass::BlasL2);
        assert_eq!(KernelId::LuFactor.region_class(), RegionClass::Lapack);
        assert_eq!(KernelId::Stencil27.region_class(), RegionClass::Other);
    }

    #[test]
    fn symbols_classify_consistently() {
        // The symbol each kernel reports must classify (via the Score-P-like
        // wrapper) to the same class the kernel claims, except the manually
        // instrumented ones (BlockGemm) and plain code (Other).
        for id in all_kernels() {
            let by_symbol = me_profiler::classify_symbol(id.symbol());
            let claimed = id.region_class();
            if matches!(id, KernelId::BlockGemm) {
                // found by manual inspection, not symbol matching
                assert_eq!(by_symbol, RegionClass::Other);
            } else if claimed != RegionClass::Other {
                assert_eq!(by_symbol, claimed, "{id:?}");
            }
        }
    }

    #[test]
    fn flops_scale_with_n() {
        let small = execute_kernel(KernelId::Gemm, 16);
        let large = execute_kernel(KernelId::Gemm, 32);
        assert!(large.flops > 7.0 * small.flops, "GEMM flops must scale ~n^3");
    }
}
