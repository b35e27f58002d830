//! Roofline-style execution model for GEMM and BLAS operations on a
//! modeled device.
//!
//! Time for a GEMM is `max(compute, memory)`:
//!
//! - `compute = flops / (peak · eff(size) · eff_scale)` where
//!   `eff(s) = s / (s + half)` with `s` the cubic-mean dimension — a
//!   saturation curve that reproduces the measured ramp of cuBLAS on V100
//!   (Table VIII: 92.3/125 Tflop/s at n=8192 on Tensor Cores) and of
//!   OpenBLAS on the Xeon (Table II),
//! - `memory = bytes / bandwidth` with `bytes = (mk + kn + 2mn) · width`.
//!
//! BLAS level-1/2 operations get the level-dependent engine efficiency of
//! the paper's §V-B1: systolic matrix engines are nearly useless below
//! level 3 because one array dimension idles while a vector streams
//! through.

use crate::catalog::{Device, EngineKind};
use crate::format::NumericFormat;

/// Shape of a GEMM: `C (m×n) += A (m×k) · B (k×n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmShape {
    /// Rows of A and C.
    pub m: usize,
    /// Columns of B and C.
    pub n: usize,
    /// Shared inner dimension.
    pub k: usize,
}

impl GemmShape {
    /// Square shape `n×n×n`.
    pub fn square(n: usize) -> Self {
        GemmShape { m: n, n, k: n }
    }

    /// Floating-point operations (`2·m·n·k`, the convention of the paper).
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Bytes moved assuming one streaming pass of A and B and a
    /// read-modify-write of C.
    pub fn bytes(&self, elem_bytes: usize) -> f64 {
        let (m, n, k) = (self.m as f64, self.n as f64, self.k as f64);
        (m * k + k * n + 2.0 * m * n) * elem_bytes as f64
    }

    /// Cubic-mean dimension, the size argument of the efficiency curve.
    pub fn mean_dim(&self) -> f64 {
        (self.m as f64 * self.n as f64 * self.k as f64).cbrt()
    }
}

/// Outcome of a modeled operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecResult {
    /// Modeled wall time in seconds.
    pub time_s: f64,
    /// Floating-point operations performed.
    pub flops: f64,
    /// Achieved throughput in Gflop/s.
    pub gflops: f64,
    /// Average power draw in W (including idle).
    pub avg_power_w: f64,
    /// Energy in J.
    pub energy_j: f64,
}

impl ExecResult {
    /// Energy efficiency in Gflop/J.
    pub fn gflops_per_joule(&self) -> f64 {
        self.total_flops().gflops_per_joule(self.energy())
    }

    /// A zero-work result.
    pub fn empty() -> Self {
        ExecResult { time_s: 0.0, flops: 0.0, gflops: 0.0, avg_power_w: 0.0, energy_j: 0.0 }
    }

    /// Modeled wall time as a typed duration.
    pub fn time(&self) -> me_numerics::Seconds {
        me_numerics::Seconds(self.time_s)
    }

    /// Operation count as a typed quantity.
    pub fn total_flops(&self) -> me_numerics::Flops {
        me_numerics::Flops(self.flops)
    }

    /// Average power draw as a typed quantity.
    pub fn avg_power(&self) -> me_numerics::Watts {
        me_numerics::Watts(self.avg_power_w)
    }

    /// Energy as a typed quantity.
    pub fn energy(&self) -> me_numerics::Joules {
        me_numerics::Joules(self.energy_j)
    }

    /// Emit this result as a *modeled-time* span on the named virtual
    /// trace lane, starting at simulated time `start_ns`, and return the
    /// simulated end time — so a sequence of modeled operations chains
    /// into a contiguous timeline that renders next to measured spans in
    /// the same Chrome trace. A no-op (returning `start_ns + duration`)
    /// when tracing is off.
    pub fn emit_modeled_span(&self, lane: &str, name: &'static str, start_ns: u64) -> u64 {
        let dur_ns = if self.time_s.is_finite() && self.time_s > 0.0 {
            (self.time_s * 1e9).round().min(u64::MAX as f64) as u64
        } else {
            0
        };
        me_trace::emit_virtual_span(lane, name, "modeled", start_ns, dur_ns);
        start_ns.saturating_add(dur_ns)
    }
}

/// Errors from the execution model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The device has no engine of that kind supporting that format.
    Unsupported { device: &'static str, engine: EngineKind, format: NumericFormat },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Unsupported { device, engine, format } => {
                write!(f, "{device}: no {} support on the {} engine", format, engine.label())
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// The host-side thread-count knob shared between the *modeled* and the
/// *measured* parallelism.
///
/// The measured side (`me_linalg::gemm_parallel`, `me_ozaki::
/// ozaki_gemm_parallel`, the scaling benches) and this execution model both
/// resolve the same way — an explicit count wins, otherwise the `ME_THREADS`
/// environment variable, otherwise the OS ([`me_par::resolve_threads`]) —
/// so a modeled speedup and a benchmarked speedup always refer to the same
/// worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostParallelism {
    /// Requested worker count; `0` means resolve automatically.
    pub threads: usize,
}

impl Default for HostParallelism {
    fn default() -> Self {
        Self::auto()
    }
}

impl HostParallelism {
    /// Resolve the count from `ME_THREADS` / the OS at use time.
    pub fn auto() -> Self {
        HostParallelism { threads: 0 }
    }

    /// Pin an explicit worker count.
    pub fn fixed(threads: usize) -> Self {
        HostParallelism { threads }
    }

    /// The worker count this knob resolves to right now (≥ 1).
    pub fn effective(&self) -> usize {
        me_par::resolve_threads(self.threads)
    }

    /// Amdahl-law speedup over serial for a kernel whose fraction
    /// `parallel_fraction` (clamped to `[0, 1]`) scales with the workers:
    /// `1 / ((1 − f) + f/t)` at `t = effective()` threads.
    pub fn modeled_speedup(&self, parallel_fraction: f64) -> f64 {
        let f = parallel_fraction.clamp(0.0, 1.0);
        let t = self.effective() as f64;
        1.0 / ((1.0 - f) + f / t)
    }
}

/// BLAS level for the level-efficiency ablation (§V-B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlasLevel {
    /// Vector-vector.
    L1,
    /// Matrix-vector.
    L2,
    /// Matrix-matrix.
    L3,
}

/// The execution model bound to one device.
#[derive(Debug, Clone)]
pub struct ExecutionModel {
    device: Device,
}

impl ExecutionModel {
    /// Bind the model to a device.
    pub fn new(device: Device) -> Self {
        ExecutionModel { device }
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Size-dependent fraction of peak achieved for an engine.
    pub fn efficiency(&self, engine: EngineKind, mean_dim: f64) -> f64 {
        let half = self.device.eff_half_for(engine);
        let scale = self.device.eff_scale_for(engine);
        (mean_dim / (mean_dim + half)) * scale
    }

    /// Model a GEMM on the given engine and format.
    pub fn gemm(
        &self,
        shape: GemmShape,
        engine: EngineKind,
        fmt: NumericFormat,
    ) -> Result<ExecResult, ExecError> {
        let peak = self.device.peak_gflops(engine, fmt).ok_or(ExecError::Unsupported {
            device: self.device.name,
            engine,
            format: fmt,
        })?;
        let flops = shape.flops();
        if flops == 0.0 {
            return Ok(ExecResult::empty());
        }
        let eff = self.efficiency(engine, shape.mean_dim());
        let compute_s = flops / (peak * 1e9 * eff);
        let memory_s = shape.bytes(fmt.bytes()) / (self.device.mem_bw_gbs * 1e9);
        let time_s = compute_s.max(memory_s);
        let util = compute_s / time_s; // < 1 when memory-bound
        let activity = self.device.activity(engine, fmt) * util;
        let power = self.device.idle_w + (self.device.tdp_w - self.device.idle_w) * activity;
        Ok(ExecResult {
            time_s,
            flops,
            gflops: flops / 1e9 / time_s,
            avg_power_w: power,
            energy_j: power * time_s,
        })
    }

    /// Model a generic flop-and-byte region (non-GEMM kernels in workload
    /// models): time = max(flops/peak·eff_flat, bytes/bw).
    ///
    /// `eff_flat` is a flat fraction of peak (no size ramp), with a default
    /// of 0.35 matching typical stencil/SpMV arithmetic efficiency.
    pub fn region(
        &self,
        flops: f64,
        bytes: f64,
        engine: EngineKind,
        fmt: NumericFormat,
        eff_flat: f64,
    ) -> Result<ExecResult, ExecError> {
        let peak = self.device.peak_gflops(engine, fmt).ok_or(ExecError::Unsupported {
            device: self.device.name,
            engine,
            format: fmt,
        })?;
        if flops == 0.0 && bytes == 0.0 {
            return Ok(ExecResult::empty());
        }
        let compute_s = flops / (peak * 1e9 * eff_flat.max(1e-6));
        let memory_s = bytes / (self.device.mem_bw_gbs * 1e9);
        let time_s = compute_s.max(memory_s).max(1e-12);
        let util = if time_s > 0.0 { compute_s / time_s } else { 0.0 };
        let activity = self.device.activity(engine, fmt) * util.clamp(0.0, 1.0);
        let power = self.device.idle_w + (self.device.tdp_w - self.device.idle_w) * activity;
        Ok(ExecResult {
            time_s,
            flops,
            gflops: flops / 1e9 / time_s,
            avg_power_w: power,
            energy_j: power * time_s,
        })
    }

    /// Engine efficiency multiplier per BLAS level (§V-B1): a systolic
    /// matrix engine of width `w` runs level-2 at ~`1/w` of its GEMM rate
    /// (one operand is a vector, so `w−1` columns of the array idle) and
    /// level-1 at ~`1/w²`; SIMD engines are equally efficient at all
    /// levels (modulo memory bounds); scalar FPUs likewise.
    pub fn blas_level_factor(&self, engine: EngineKind, level: BlasLevel) -> f64 {
        match engine {
            EngineKind::MatrixEngine => {
                // Effective systolic width: use 4 for cube-style (V100) and
                // larger for TPU-style arrays; derive from me_shape when
                // parseable, default 4.
                let w = self
                    .device
                    .me_shape
                    .and_then(|s| s.split('x').next())
                    .and_then(|t| t.parse::<f64>().ok())
                    .unwrap_or(4.0);
                match level {
                    BlasLevel::L3 => 1.0,
                    BlasLevel::L2 => 1.0 / w,
                    BlasLevel::L1 => 1.0 / (w * w),
                }
            }
            EngineKind::Simd | EngineKind::Scalar => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{v100, xeon_e5_2650v4_2s};
    use EngineKind::*;
    use NumericFormat::*;

    #[test]
    fn v100_matches_table8_baselines() {
        let m = ExecutionModel::new(v100());
        let s = GemmShape::square(8192);

        // cublasGemmEx (f16/f32 mixed on TCs): paper 92.28 Tflop/s, 270.9 W.
        let tc = m.gemm(s, MatrixEngine, F16xF32).unwrap();
        assert!((tc.gflops / 1000.0 - 92.28).abs() < 1.5, "TC {}", tc.gflops / 1000.0);
        assert!((tc.avg_power_w - 270.9).abs() < 3.0, "TC power {}", tc.avg_power_w);
        assert!((tc.gflops_per_joule() - 340.7).abs() < 10.0);

        // cublasSgemm: paper 14.54 Tflop/s, 276.1 W, 52.66 Gflop/J.
        let sg = m.gemm(s, Simd, F32).unwrap();
        assert!((sg.gflops / 1000.0 - 14.54).abs() < 0.2, "SGEMM {}", sg.gflops / 1000.0);
        assert!((sg.avg_power_w - 276.1).abs() < 2.0);
        assert!((sg.gflops_per_joule() - 52.66).abs() < 2.0);

        // cublasDgemm: paper 7.20 Tflop/s, 286.5 W, 25.14 Gflop/J.
        let dg = m.gemm(s, Simd, F64).unwrap();
        assert!((dg.gflops / 1000.0 - 7.20).abs() < 0.1, "DGEMM {}", dg.gflops / 1000.0);
        assert!((dg.avg_power_w - 286.5).abs() < 2.0);
    }

    #[test]
    fn xeon_matches_table2() {
        // Table II: 30 reps of n=5000 GEMM = 7.5 Tflop total.
        let m = ExecutionModel::new(xeon_e5_2650v4_2s());
        let s = GemmShape::square(5000);
        let reps = 30.0;

        let dgemm_scalar = m.gemm(s, Scalar, F64).unwrap();
        let t = dgemm_scalar.time_s * reps;
        assert!((t - 34.22).abs() < 2.0, "scalar DGEMM walltime {t}");
        assert!((dgemm_scalar.gflops_per_joule() - 1.23).abs() < 0.1);

        let dgemm_avx = m.gemm(s, Simd, F64).unwrap();
        let t = dgemm_avx.time_s * reps;
        assert!((t - 12.49).abs() < 1.0, "AVX2 DGEMM walltime {t}");
        assert!((dgemm_avx.gflops_per_joule() - 2.92).abs() < 0.2);

        let sgemm_scalar = m.gemm(s, Scalar, F32).unwrap();
        assert!((sgemm_scalar.time_s * reps - 16.79).abs() < 1.0);
        assert!((sgemm_scalar.gflops_per_joule() - 2.65).abs() < 0.2);

        let sgemm_avx = m.gemm(s, Simd, F32).unwrap();
        assert!((sgemm_avx.time_s * reps - 6.36).abs() < 0.5);
        assert!((sgemm_avx.gflops_per_joule() - 5.92).abs() < 0.3);

        // The paper's headline: ~2.3x average energy-efficiency gain.
        let gain_d = dgemm_avx.gflops_per_joule() / dgemm_scalar.gflops_per_joule();
        let gain_s = sgemm_avx.gflops_per_joule() / sgemm_scalar.gflops_per_joule();
        let avg = (gain_d + gain_s) / 2.0;
        assert!((avg - 2.3).abs() < 0.2, "avg vectorization energy gain {avg}");
    }

    #[test]
    fn unsupported_combinations_error() {
        let m = ExecutionModel::new(v100());
        // V100 Tensor Cores have no f64 mode (that's the A100's addition).
        assert!(m.gemm(GemmShape::square(128), MatrixEngine, F64).is_err());
    }

    #[test]
    fn small_gemm_is_inefficient() {
        let m = ExecutionModel::new(v100());
        let small = m.gemm(GemmShape::square(64), MatrixEngine, F16xF32).unwrap();
        let large = m.gemm(GemmShape::square(16384), MatrixEngine, F16xF32).unwrap();
        assert!(
            small.gflops < 0.1 * large.gflops,
            "launch/tile overhead must dominate small GEMMs"
        );
    }

    #[test]
    fn memory_bound_skinny_gemm() {
        // A rank-1-ish update is bandwidth bound: utilization < 1 lowers
        // power below the flat-out value.
        let m = ExecutionModel::new(v100());
        let skinny = m.gemm(GemmShape { m: 8192, n: 8192, k: 1 }, Simd, F32).unwrap();
        let fat = m.gemm(GemmShape::square(8192), Simd, F32).unwrap();
        assert!(skinny.gflops < 0.05 * fat.gflops);
        assert!(skinny.avg_power_w < fat.avg_power_w);
    }

    #[test]
    fn zero_work() {
        let m = ExecutionModel::new(v100());
        let r = m.gemm(GemmShape { m: 0, n: 8, k: 8 }, Simd, F32).unwrap();
        assert_eq!(r.time_s, 0.0);
        assert_eq!(r.energy_j, 0.0);
    }

    #[test]
    fn blas_level_factors() {
        let m = ExecutionModel::new(v100());
        assert_eq!(m.blas_level_factor(MatrixEngine, BlasLevel::L3), 1.0);
        assert_eq!(m.blas_level_factor(MatrixEngine, BlasLevel::L2), 0.25);
        assert_eq!(m.blas_level_factor(MatrixEngine, BlasLevel::L1), 0.0625);
        assert_eq!(m.blas_level_factor(Simd, BlasLevel::L1), 1.0);
    }

    #[test]
    fn host_parallelism_knob() {
        let p = HostParallelism::fixed(4);
        assert_eq!(p.effective(), 4);
        // Amdahl: fully parallel → t, fully serial → 1.
        assert!((p.modeled_speedup(1.0) - 4.0).abs() < 1e-12);
        assert!((p.modeled_speedup(0.0) - 1.0).abs() < 1e-12);
        // 90% parallel at 4 threads: 1 / (0.1 + 0.9/4) ≈ 3.077.
        assert!((p.modeled_speedup(0.9) - 1.0 / (0.1 + 0.9 / 4.0)).abs() < 1e-12);
        // Out-of-range fractions clamp instead of going negative.
        assert!((p.modeled_speedup(1.5) - 4.0).abs() < 1e-12);
        assert!((HostParallelism::fixed(1).modeled_speedup(1.0) - 1.0).abs() < 1e-12);
        // Auto resolves to at least one worker.
        assert!(HostParallelism::auto().effective() >= 1);
        assert_eq!(HostParallelism::default(), HostParallelism::auto());
    }

    #[test]
    fn region_model_respects_roofline() {
        let m = ExecutionModel::new(v100());
        // 1 Gflop with tiny data: compute bound.
        let r = m.region(1e9, 1e3, Simd, F32, 0.5).unwrap();
        assert!(r.time_s > 1e-4);
        // Tiny flops, lots of bytes: memory bound.
        let r2 = m.region(1e3, 1e9, Simd, F32, 0.5).unwrap();
        assert!((r2.time_s - 1e9 / (900.0 * 1e9)).abs() < 1e-6);
        assert!(r2.avg_power_w < r.avg_power_w);
    }
}
