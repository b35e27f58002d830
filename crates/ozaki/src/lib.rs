//! # me-ozaki
//!
//! The Ozaki scheme (paper §IV-B, Table VIII): emulating high-precision
//! GEMM with low-precision matrix engines via error-free transformations.
//!
//! The scheme slices the input matrices element-wise into sums of
//! low-precision pieces such that every pairwise product of slices is
//! *exact* in the matrix engine's accumulator:
//!
//! 1. [`split::split_rows`] extracts, per row of `A`, the top `β` significand
//!    bits relative to the row's maximum exponent (Rump extraction); the
//!    remainder is split again, and so on. Columns of `B` are treated
//!    symmetrically. `β` is chosen so that a `k`-long dot product of two
//!    `β`-bit integer slices stays below the accumulator's mantissa capacity
//!    (`2β + ⌈log₂k⌉ ≤ 24` for f16-multiply/f32-accumulate Tensor Cores).
//! 2. Slice pairs are multiplied on the (simulated) matrix engine — in this
//!    reproduction the inner GEMM genuinely runs in `f32` arithmetic on
//!    integer-valued matrices, through the host's dispatched f32
//!    micro-kernel (`me_linalg::gemm_f32_f32`), which is bit-exact for the
//!    same reason the hardware is — or, on an AMX host where every chunk
//!    sum is exact, on the host's own matrix engine (bf16 slices on
//!    `tdpbf16ps`). The host-f16 substrate drives the f32 kernel core on
//!    binary16-stored slices; the host-INT8 substrate runs `i8×i8→i32`
//!    kernels (AMX `tdpbusd` where the host has it). All three are
//!    [`SliceEngine`]s under one driver ([`gemm::ozaki_gemm_on`]): an
//!    engine decides only the slice width β, the stored slice word and the
//!    engine call.
//! 3. The exact partial products are scaled back by powers of two (integer
//!    exponent bookkeeping) and accumulated in a deterministic double-double
//!    accumulator, giving **bitwise-reproducible** results independent of
//!    slice or thread order — feature (1) the paper highlights.
//!
//! The number of slices depends on the *dynamic range* of the input (the
//! paper's Table VIII degrades from 1e+8 to 1e+32 input ranges); the
//! [`perf`] module projects the resulting throughput/power on the simulated
//! V100, regenerating Table VIII.

pub mod backend;
pub mod bounds;
pub mod energy;
pub mod engine_exec;
pub mod gemm;
pub mod host_f16;
pub mod int8;
pub mod perf;
pub mod split;
pub mod workspace;

pub use backend::{ozaki_gemm_backend, ozaki_gemm_backend_parallel, OzakiBackend};
pub use bounds::{plan, truncation_bound, SplitPlan};
pub use energy::{host_f16_vs_me_vs_int8_rows, int8_vs_f16_rows, EnergyRow};
pub use engine_exec::{ozaki_gemm_systolic, EngineOzakiResult};
pub use gemm::{
    ozaki_dot, ozaki_gemm, ozaki_gemm_on, ozaki_gemm_parallel, ozaki_gemv, OzakiConfig,
    OzakiReport, SliceEngine, TargetAccuracy,
};
pub use host_f16::HostF16Engine;
pub use int8::Int8Engine;
pub use perf::{project_emulated, table8_rows, EmulatedGemmPerf, Table8Row};
pub use split::{
    required_beta, split_cols, split_cols_parallel, split_rows, split_rows_parallel, SplitMatrix,
};
