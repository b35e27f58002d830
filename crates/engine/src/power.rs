//! Power model and TDP governor.
//!
//! The paper's Fig 1 makes two observations this module reproduces:
//!
//! 1. SGEMM and DGEMM on the V100 draw power "close to the TDP (300 W)" —
//!    the activity model in [`crate::catalog::Device::activity`] yields
//!    276–287 W for them,
//! 2. "SGEMM or DGEMM cannot run concurrently with HGEMM" without
//!    compromise — the [`TdpGovernor`] enforces that: when the summed
//!    activity of concurrently-running engines exceeds the TDP headroom,
//!    every engine is frequency-throttled by the same factor, stretching
//!    runtime. This is the quantitative form of the paper's dark-silicon
//!    argument (§V-A1).
//!
//! All power quantities cross this module's public API as typed
//! [`Watts`] (and energies as [`Joules`]) rather than bare `f64`s; the
//! device catalog keeps raw SI floats and this is where they get their
//! dimension.

use crate::catalog::{Device, EngineKind};
use crate::exec::{ExecResult, ExecutionModel, GemmShape};
use crate::format::NumericFormat;
use me_numerics::{Seconds, Watts};

/// Stand-alone power calculator for a device.
#[derive(Debug, Clone)]
pub struct PowerModel {
    device: Device,
}

impl PowerModel {
    /// Bind to a device.
    pub fn new(device: Device) -> Self {
        PowerModel { device }
    }

    /// Instantaneous power at a given activity in `[0, 1]`.
    pub fn power_at(&self, activity: f64) -> Watts {
        let a = activity.clamp(0.0, 1.0);
        Watts(self.device.idle_w + (self.device.tdp_w - self.device.idle_w) * a)
    }

    /// Idle power.
    pub fn idle(&self) -> Watts {
        Watts(self.device.idle_w)
    }

    /// TDP cap.
    pub fn tdp(&self) -> Watts {
        Watts(self.device.tdp_w)
    }

    /// Flat-out power for an (engine, format) pair.
    pub fn flat_out(&self, engine: EngineKind, fmt: NumericFormat) -> Watts {
        self.power_at(self.device.activity(engine, fmt))
    }
}

/// Result of a concurrent (multi-engine) run under the TDP governor.
#[derive(Debug, Clone)]
pub struct ConcurrentResult {
    /// Per-op results after throttling, in submission order.
    pub ops: Vec<ExecResult>,
    /// The common throttle factor applied (1.0 = no throttling).
    pub throttle: f64,
    /// Total power while all ops run (capped at TDP).
    pub combined_power: Watts,
}

/// TDP governor: models concurrent execution of several GEMMs on different
/// engines of the same device.
#[derive(Debug, Clone)]
pub struct TdpGovernor {
    model: ExecutionModel,
}

impl TdpGovernor {
    /// Bind to a device.
    pub fn new(device: Device) -> Self {
        TdpGovernor { model: ExecutionModel::new(device) }
    }

    /// The underlying execution model.
    pub fn model(&self) -> &ExecutionModel {
        &self.model
    }

    /// Run several GEMMs concurrently (one per engine). If the summed
    /// activity exceeds 1.0 the governor throttles every engine by
    /// `1 / total_activity`, stretching each op's runtime by the same
    /// factor — the paper's observation that FPUs and TCs cannot both run
    /// flat out.
    pub fn run_concurrent(
        &self,
        ops: &[(GemmShape, EngineKind, NumericFormat)],
    ) -> Result<ConcurrentResult, crate::exec::ExecError> {
        let device = self.model.device();
        let idle = Watts(device.idle_w);
        let headroom = Watts(device.tdp_w) - idle;
        let mut standalone = Vec::with_capacity(ops.len());
        let mut total_activity = 0.0;
        for &(shape, engine, fmt) in ops {
            let r = self.model.gemm(shape, engine, fmt)?;
            let util = if r.time_s > 0.0 { 1.0 } else { 0.0 };
            total_activity += device.activity(engine, fmt) * util;
            standalone.push(r);
        }
        let throttle = if total_activity > 1.0 { 1.0 / total_activity } else { 1.0 };
        let combined_power = idle + headroom * total_activity.min(1.0);
        let ops_out = standalone
            .into_iter()
            .map(|r| {
                if r.time_s == 0.0 {
                    return r;
                }
                let time = Seconds(r.time_s / throttle);
                // Energy attribution: each op's share of the combined power,
                // proportional to its standalone activity.
                let share = r.avg_power() - idle;
                let total_share = headroom * total_activity;
                let frac = if total_share > Watts::ZERO { share / total_share } else { 0.0 };
                let power = idle * frac + (combined_power - idle) * frac;
                ExecResult {
                    time_s: time.0,
                    flops: r.flops,
                    gflops: r.flops / 1e9 / time.0,
                    avg_power_w: power.0,
                    energy_j: (power * time).0,
                }
            })
            .collect();
        Ok(ConcurrentResult { ops: ops_out, throttle, combined_power })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::v100;
    use EngineKind::*;
    use NumericFormat::*;

    #[test]
    fn power_model_bounds() {
        let p = PowerModel::new(v100());
        assert_eq!(p.power_at(0.0), Watts(40.0));
        assert_eq!(p.power_at(1.0), Watts(300.0));
        assert_eq!(p.power_at(2.0), Watts(300.0), "clamped at TDP");
        assert!(p.flat_out(Simd, F64) > p.flat_out(MatrixEngine, F16xF32));
    }

    #[test]
    fn fig1_gemm_power_ordering() {
        // Paper Fig 1: DGEMM > SGEMM > HGEMM-TC in power; S/DGEMM near TDP.
        let p = PowerModel::new(v100());
        let d = p.flat_out(Simd, F64);
        let s = p.flat_out(Simd, F32);
        let h = p.flat_out(MatrixEngine, F16xF32);
        assert!(d > s && s > h, "power ordering violated: {d} {s} {h}");
        assert!(d > p.tdp() * 0.93, "DGEMM must run close to TDP");
        assert!(s > p.tdp() * 0.9, "SGEMM must run close to TDP");
    }

    #[test]
    fn concurrent_fpu_plus_tc_throttles() {
        // Dark-silicon experiment (§V-A1): running DGEMM and HGEMM-TC at
        // once exceeds the TDP headroom, so both slow down.
        let gov = TdpGovernor::new(v100());
        let shape = GemmShape::square(8192);
        let solo_d = gov.model().gemm(shape, Simd, F64).unwrap();
        let solo_h = gov.model().gemm(shape, MatrixEngine, F16xF32).unwrap();
        let both =
            gov.run_concurrent(&[(shape, Simd, F64), (shape, MatrixEngine, F16xF32)]).unwrap();
        assert!(both.throttle < 1.0, "must throttle, got {}", both.throttle);
        assert!(both.ops[0].time_s > solo_d.time_s);
        assert!(both.ops[1].time_s > solo_h.time_s);
        assert!(both.combined_power <= Watts(300.0 + 1e-9));
        // Throughput loss matches the throttle factor.
        let loss = both.ops[0].gflops / solo_d.gflops;
        assert!((loss - both.throttle).abs() < 1e-9);
    }

    #[test]
    fn concurrent_single_op_unthrottled() {
        let gov = TdpGovernor::new(v100());
        let shape = GemmShape::square(4096);
        let solo = gov.model().gemm(shape, Simd, F32).unwrap();
        let conc = gov.run_concurrent(&[(shape, Simd, F32)]).unwrap();
        assert_eq!(conc.throttle, 1.0);
        assert!((conc.ops[0].time_s - solo.time_s).abs() < 1e-12);
    }

    #[test]
    fn concurrent_energy_accounting_is_consistent() {
        let gov = TdpGovernor::new(v100());
        let shape = GemmShape::square(8192);
        let both =
            gov.run_concurrent(&[(shape, Simd, F64), (shape, MatrixEngine, F16xF32)]).unwrap();
        // Summed attributed power must not exceed the combined draw.
        let sum = both.ops.iter().fold(Watts::ZERO, |acc, o| acc + o.avg_power());
        assert!(sum <= both.combined_power + Watts(1e-9), "{sum} vs {}", both.combined_power);
    }

    #[test]
    fn empty_concurrent_run() {
        let gov = TdpGovernor::new(v100());
        let r = gov.run_concurrent(&[]).unwrap();
        assert_eq!(r.throttle, 1.0);
        assert!(r.ops.is_empty());
    }
}
