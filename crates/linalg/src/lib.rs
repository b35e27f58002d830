//! # me-linalg
//!
//! From-scratch dense linear algebra substrate: the BLAS/LAPACK stack the
//! paper's measurements assume (OpenBLAS, MKL, cuBLAS) rebuilt in safe Rust.
//!
//! The crate provides:
//!
//! - a row-major dense matrix type [`Mat`] generic over [`Scalar`]
//!   (`f32`/`f64`),
//! - BLAS level 1 ([`blas1`]), level 2 ([`blas2`]) and level 3 ([`blas3`])
//!   routines, with multiple GEMM code paths (naive scalar, cache-blocked,
//!   micro-tiled "SIMD-style", and thread-parallel) so the scalar-vs-
//!   vectorized comparison of the paper's Table II exercises genuinely
//!   different kernels,
//! - a LAPACK-lite layer ([`lapack`]): LU with partial pivoting, Cholesky,
//!   triangular solves, and an HPL-style dense solver with the TOP500
//!   residual check, used as the real compute inside the HPL workload model.
//!
//! All routines are written for clarity first, but follow the blocking and
//! allocation-avoidance idioms of high-performance Rust (preallocated
//! packing buffers, `chunks_exact`, zero-copy row-panel views fanned over
//! the persistent `me-par` worker pool).
//!
//! The parallel GEMM carries a *fixed-kernel guarantee*: `GemmAlgo::
//! Parallel` runs the identical packed micro-kernel as `GemmAlgo::Tiled`
//! on borrowed disjoint panels of C ([`Mat::split_rows_mut`]), so its
//! results are bitwise identical to the serial path at every thread count.

pub mod blas1;
pub mod blas2;
pub mod blas3;
pub mod eig;
pub mod lapack;
pub mod mat;
pub mod mixed;
pub mod qr;

pub use blas3::{
    amx_bf16_supported, amx_int8_supported, available_variants, avx2_supported, avx512_supported,
    blocking_for, dot_i8_scalar, fold_tile, gemm, gemm_bf16_f32, gemm_blocked, gemm_f32_f32,
    gemm_half, gemm_half_f32, gemm_half_parallel_with, gemm_half_with, gemm_i8_i32,
    gemm_i8_i32_simd, gemm_naive, gemm_parallel, gemm_parallel_on, gemm_parallel_on_prepacked_with,
    gemm_parallel_on_with, gemm_parallel_with, gemm_tiled, gemm_tiled_prepacked_with,
    gemm_tiled_with, gemm_tiled_with_blocking, pack_b_matrix, selected_kernel,
    set_blocking_override, set_kernel_override, slice_pass, vnni_supported, Blocking,
    BlockingDispatch, FoldSum, GemmAlgo, HalfKind, HalfMat, KernelDispatch, KernelVariant, PackedB,
    PanelChunk, PanelFormat, PanelLayout, PanelWord, SliceLanes, SliceWord, VariantWork,
    BLOCKING_ENV, KERNEL_ENV, SUM_WORDS,
};
pub use eig::{sym_eig, SymEig};
pub use lapack::{getrf, getrs, hpl_residual, hpl_solve, potrf};
pub use mat::{AlignedBuf, Mat, MatMut, Pod, Regions, Scalar};
pub use mixed::{ir_solve, IrResult};
pub use qr::{lstsq, qr, Qr};
