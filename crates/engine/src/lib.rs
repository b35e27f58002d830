//! # me-engine
//!
//! The matrix-engine and device simulator: the substitute substrate for all
//! hardware the paper measures (NVIDIA V100/A100 Tensor Cores, AVX2 Xeons,
//! IBM Power10 MMA, Google TPUs, Huawei Ascend — Table I and Table VI).
//!
//! The simulator models the three quantities every experiment in the paper
//! depends on:
//!
//! 1. **Throughput** — a roofline-style execution model
//!    ([`exec::ExecutionModel`]): GEMM time is the max of compute time
//!    (peak flop/s × a size-dependent efficiency curve) and memory time
//!    (bytes / bandwidth), per engine type (scalar FPU, SIMD vector unit,
//!    systolic matrix engine) and numeric format.
//! 2. **Power** — an activity-based model ([`power::PowerModel`]):
//!    `P = idle + (TDP − idle) · activity`, with activity depending on the
//!    engine/format pair and utilization, clamped by a TDP governor that
//!    throttles frequency exactly like the paper's Fig 1 observes (SGEMM
//!    and DGEMM pin the device at its TDP; the Tensor-Core path draws
//!    less).
//! 3. **Energy** — integration of the power trace over the modeled time,
//!    yielding the Gflop/J columns of Tables II and VIII and Fig 2.
//!
//! Every published spec the model uses (peaks, TDPs, die sizes) is encoded
//! in [`catalog`], which doubles as the data source for Table I.

pub mod catalog;
pub mod exec;
pub mod format;
pub mod memory;
pub mod power;
pub mod sampler;
pub mod simd;
pub mod systolic;

pub use catalog::{Device, DeviceKind, EngineKind};
pub use exec::{ExecResult, ExecutionModel, GemmShape, HostParallelism};
pub use format::NumericFormat;
pub use me_numerics::{Bytes, Flops, Joules, Seconds, Watts};
pub use memory::MemoryHierarchy;
pub use power::{PowerModel, TdpGovernor};
pub use sampler::{PowerSample, PowerSampler, PowerTrace};
pub use simd::{simd_axpy, simd_dot, SimdStats, VectorUnit};
pub use systolic::{
    modeled_cycles, systolic_gemm, systolic_gemv, CycleStats, SystolicArray, SystolicResult,
};
