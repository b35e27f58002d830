//! # matrix-engines
//!
//! A comprehensive Rust reproduction of Domke et al., *"Matrix Engines for
//! High Performance Computing: A Paragon of Performance or Grasping at
//! Straws?"* (IPDPS 2021).
//!
//! The paper is a measurement and cost-benefit study of matrix engines
//! (Tensor Cores, AMX, MMA, TPU-style systolic arrays) for HPC. This crate
//! is the facade over the workspace that rebuilds every substrate the paper
//! measures on — device simulators, a software BLAS/LAPACK stack, bit-exact
//! low-precision formats, the Ozaki high-precision-emulation scheme, a
//! Score-P-style profiler, 77 HPC workload models, 12 DL workload models,
//! a Spack-shaped package ecosystem, and a K-computer job-log corpus — and
//! regenerates every table and figure of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use matrix_engines::prelude::*;
//!
//! // How much would a 4x matrix engine save the K computer?
//! let k = MachineMix::k_computer_default();
//! let saving = k.node_hour_reduction(MeSpeedup::Finite(4.0));
//! assert!((saving - 0.053).abs() < 0.01); // the paper's 5.3%
//!
//! // Emulate an f64 GEMM on an f16 matrix engine (Ozaki scheme).
//! let a = Mat::from_fn(8, 8, |i, j| 1.0 / (1.0 + (i + j) as f64));
//! let b = Mat::eye(8);
//! let r = ozaki_gemm(&a, &b, &OzakiConfig::dgemm_tc());
//! assert!(r.c.max_abs_diff(&a) < 1e-14);
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every artifact.

pub use me_core as core;
pub use me_engine as engine;
pub use me_linalg as linalg;
pub use me_model as model;
pub use me_numerics as numerics;
pub use me_ozaki as ozaki;
pub use me_par as par;
pub use me_profiler as profiler;
pub use me_report as report;
pub use me_serve as serve;
pub use me_survey as survey;
pub use me_trace as trace;
pub use me_workloads as workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use me_core::experiments;
    pub use me_engine::{
        catalog, Device, EngineKind, ExecutionModel, GemmShape, HostParallelism, NumericFormat,
        PowerSampler, TdpGovernor,
    };
    pub use me_par::WorkerPool;
    pub use me_linalg::{gemm, ir_solve, sym_eig, GemmAlgo, Mat};
    pub use me_model::{MachineMix, MeSpeedup};
    pub use me_numerics::{Bf16, FloatFormat, Tf32, F16};
    pub use me_ozaki::{
        ozaki_gemm, ozaki_gemm_backend, ozaki_gemm_parallel, Int8Engine,
        OzakiBackend, OzakiConfig, TargetAccuracy,
    };
    pub use me_profiler::{Profiler, RegionClass};
    pub use me_serve::{Job, Outcome, Scheduler, ServeConfig};
    pub use me_survey::{generate_k_corpus, spack_ecosystem};
    pub use me_workloads::{all_benchmarks, dl_models, run_benchmark, PrecisionMode};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let d = catalog::v100();
        assert!(d.has_matrix_engine());
        assert_eq!(all_benchmarks().len(), 77);
    }
}
