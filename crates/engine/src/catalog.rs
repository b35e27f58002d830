//! Device catalog: every processor the paper references, with its published
//! specifications.
//!
//! This module is the data source for Table I (the ME hardware survey) and
//! provides the device models behind Table II (Xeon E5-2650v4), Fig 1 /
//! Table IV / Table VIII (Tesla V100-SXM2), and Fig 2 (the consumer-to-
//! datacenter GPU range plus the Xeon Gold 6148).
//!
//! Peak numbers are the vendor-published peaks the paper quotes; efficiency
//! and activity calibrations (documented per field) were fitted once against
//! the paper's measured values and are *not* per-experiment knobs.

use crate::format::NumericFormat;

/// Which execution engine inside a device performs an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Plain FPU pipeline (models a no-SIMD / "scalar" build).
    Scalar,
    /// SIMD vector unit (AVX2/AVX-512/SVE or GPU CUDA cores).
    Simd,
    /// Matrix engine (Tensor Core, AMX tile unit, MMA, systolic array).
    MatrixEngine,
}

impl EngineKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Scalar => "scalar",
            EngineKind::Simd => "simd",
            EngineKind::MatrixEngine => "matrix-engine",
        }
    }
}

/// Market segment, mirroring the "Type" column of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// General-purpose CPU.
    GeneralCpu,
    /// General-purpose (HPC) GPU.
    GeneralGpu,
    /// Consumer GPU.
    ConsumerGpu,
    /// AI accelerator (TPU-class).
    AiAccelerator,
}

/// A modeled device.
///
/// `peaks` is the full (engine, format) → peak Gflop/s table. Devices with
/// undisclosed performance (Sapphire Rapids AMX, Gaudi) have empty or
/// partial tables, exactly like the dashes in the paper's Table I.
#[derive(Debug, Clone)]
pub struct Device {
    /// Marketing name.
    pub name: &'static str,
    /// Vendor.
    pub vendor: &'static str,
    /// Market segment.
    pub kind: DeviceKind,
    /// Process node in nm.
    pub process_nm: u32,
    /// Die size in mm² (None where undisclosed).
    pub die_mm2: Option<f64>,
    /// Matrix-engine shape as the vendor describes it ("4x4x4", "128x128").
    pub me_shape: Option<&'static str>,
    /// Thermal design power in W.
    pub tdp_w: f64,
    /// Idle power in W.
    pub idle_w: f64,
    /// Memory bandwidth in GB/s.
    pub mem_bw_gbs: f64,
    /// Peak throughput table: (engine, format, Gflop/s).
    pub peaks: Vec<(EngineKind, NumericFormat, f64)>,
    /// GEMM efficiency half-size per engine (the matrix size at which the
    /// engine reaches 50% of peak; larger = slower ramp). Calibrated:
    /// V100 Tensor Cores hit 92.3/125 Tflop/s at n=8192 with 2900; V100
    /// CUDA cores hit 14.5/15.7 with 654 (paper Table VIII).
    pub eff_half: Vec<(EngineKind, f64)>,
    /// Multiplier on the efficiency curve per engine (CPU BLAS reaches a
    /// lower fraction of peak than cuBLAS; Xeon AVX2 fitted to Table II).
    pub eff_scale: Vec<(EngineKind, f64)>,
    /// Activity factor overrides per (engine, format): fraction of
    /// (TDP − idle) drawn when the engine runs flat out.
    pub activity_overrides: Vec<(EngineKind, NumericFormat, f64)>,
}

impl Device {
    /// Peak Gflop/s for an (engine, format) pair, if supported.
    pub fn peak_gflops(&self, engine: EngineKind, fmt: NumericFormat) -> Option<f64> {
        self.peaks.iter().find(|(e, f, _)| *e == engine && *f == fmt).map(|&(_, _, p)| p)
    }

    /// Whether the device has a matrix engine at all.
    pub fn has_matrix_engine(&self) -> bool {
        self.me_shape.is_some() || self.peaks.iter().any(|(e, _, _)| *e == EngineKind::MatrixEngine)
    }

    /// The formats the device's matrix engine supports (Table I "Support").
    pub fn me_formats(&self) -> Vec<NumericFormat> {
        self.peaks
            .iter()
            .filter(|(e, _, _)| *e == EngineKind::MatrixEngine)
            .map(|&(_, f, _)| f)
            .collect()
    }

    /// Compute density in Gflop/s/mm² for a format on the fastest engine
    /// (the GF/mm² columns of Table I).
    pub fn compute_density(&self, fmt: NumericFormat) -> Option<f64> {
        let die = self.die_mm2?;
        let peak = self
            .peaks
            .iter()
            .filter(|(_, f, _)| *f == fmt)
            .map(|&(_, _, p)| p)
            .fold(None, |m: Option<f64>, p| Some(m.map_or(p, |mv| mv.max(p))));
        peak.map(|p| p / die)
    }

    /// Efficiency half-size for an engine (default values per engine kind).
    pub fn eff_half_for(&self, engine: EngineKind) -> f64 {
        self.eff_half.iter().find(|(e, _)| *e == engine).map(|&(_, h)| h).unwrap_or(match engine {
            EngineKind::Scalar => 200.0,
            EngineKind::Simd => 650.0,
            EngineKind::MatrixEngine => 2900.0,
        })
    }

    /// Efficiency scale for an engine (default 1.0).
    pub fn eff_scale_for(&self, engine: EngineKind) -> f64 {
        self.eff_scale.iter().find(|(e, _)| *e == engine).map(|&(_, s)| s).unwrap_or(1.0)
    }

    /// Activity factor (fraction of TDP-above-idle) for a flat-out
    /// (engine, format) run.
    ///
    /// Defaults calibrated on the paper's measurements:
    /// V100 HGEMM-TC 270.9 W, SGEMM 276.1 W, DGEMM 286.5 W (Table VIII).
    pub fn activity(&self, engine: EngineKind, fmt: NumericFormat) -> f64 {
        if let Some(&(_, _, a)) =
            self.activity_overrides.iter().find(|(e, f, _)| *e == engine && *f == fmt)
        {
            return a;
        }
        match (engine, fmt) {
            (EngineKind::MatrixEngine, _) => 0.888,
            (EngineKind::Simd, NumericFormat::F64) => 0.948,
            (EngineKind::Simd, NumericFormat::F32) => 0.908,
            (EngineKind::Simd, _) => 0.89,
            (EngineKind::Scalar, NumericFormat::F64) => 0.787,
            (EngineKind::Scalar, NumericFormat::F32) => 0.72,
            (EngineKind::Scalar, _) => 0.7,
        }
    }
}

use DeviceKind::*;
use EngineKind::*;
use NumericFormat::*;

/// NVIDIA Tesla V100-SXM2: the paper's main measurement platform
/// (Fig 1, Table IV, Table VIII). 125 Tflop/s f16 TCs, 815 mm², 12 nm.
pub fn v100() -> Device {
    Device {
        name: "NVIDIA Tesla V100",
        vendor: "NVIDIA",
        kind: GeneralGpu,
        process_nm: 12,
        die_mm2: Some(815.0),
        me_shape: Some("4x4x4"),
        tdp_w: 300.0,
        idle_w: 40.0,
        mem_bw_gbs: 900.0,
        peaks: vec![
            (Simd, F64, 7_800.0),
            (Simd, F32, 15_700.0),
            (Simd, F16, 31_400.0),
            (MatrixEngine, F16xF32, 125_000.0),
            (MatrixEngine, F16, 125_000.0),
        ],
        eff_half: vec![],
        eff_scale: vec![],
        activity_overrides: vec![],
    }
}

/// NVIDIA Tesla A100: adds FP64 and TF32 Tensor Cores (Table I).
pub fn a100() -> Device {
    Device {
        name: "NVIDIA Tesla A100",
        vendor: "NVIDIA",
        kind: GeneralGpu,
        process_nm: 7,
        die_mm2: Some(826.0),
        me_shape: Some("4x4x4"),
        tdp_w: 400.0,
        idle_w: 50.0,
        mem_bw_gbs: 1_555.0,
        peaks: vec![
            (Simd, F64, 9_700.0),
            (Simd, F32, 19_500.0),
            (MatrixEngine, F64, 19_500.0),
            (MatrixEngine, Tf32, 156_000.0),
            (MatrixEngine, F16xF32, 312_000.0),
            (MatrixEngine, F16, 312_000.0),
            (MatrixEngine, Bf16, 312_000.0),
            // INT8 Tensor-Core peak (624 TOPS dense): Table I lists no INT
            // details, but §V anticipates integer-only engines, and the
            // INT8 Ozaki emulation (me-ozaki::energy) charges its slice
            // products here.
            (MatrixEngine, I8, 624_000.0),
        ],
        eff_half: vec![],
        eff_scale: vec![],
        activity_overrides: vec![],
    }
}

/// NVIDIA Tesla P100-PCIE: the pre-Tensor-Core datacenter GPU (Fig 2 and
/// the A100-vs-P100 comparison of §II-B; 18.7 Tflop/s f16 peak).
pub fn p100() -> Device {
    Device {
        name: "NVIDIA Tesla P100",
        vendor: "NVIDIA",
        kind: GeneralGpu,
        process_nm: 16,
        die_mm2: Some(610.0),
        me_shape: None,
        tdp_w: 250.0,
        idle_w: 30.0,
        mem_bw_gbs: 732.0,
        peaks: vec![(Simd, F64, 4_700.0), (Simd, F32, 9_300.0), (Simd, F16, 18_700.0)],
        eff_half: vec![],
        eff_scale: vec![],
        activity_overrides: vec![],
    }
}

/// NVIDIA GTX 1060 (consumer, Pascal; Fig 2).
pub fn gtx1060() -> Device {
    Device {
        name: "NVIDIA GTX 1060",
        vendor: "NVIDIA",
        kind: ConsumerGpu,
        process_nm: 16,
        die_mm2: Some(200.0),
        me_shape: None,
        tdp_w: 120.0,
        idle_w: 10.0,
        mem_bw_gbs: 192.0,
        peaks: vec![(Simd, F64, 137.0), (Simd, F32, 4_400.0), (Simd, F16, 69.0)],
        eff_half: vec![],
        eff_scale: vec![],
        activity_overrides: vec![],
    }
}

/// NVIDIA GTX 1080 Ti (consumer, Pascal; Fig 2).
pub fn gtx1080ti() -> Device {
    Device {
        name: "NVIDIA GTX 1080 Ti",
        vendor: "NVIDIA",
        kind: ConsumerGpu,
        process_nm: 16,
        die_mm2: Some(471.0),
        me_shape: None,
        tdp_w: 250.0,
        idle_w: 12.0,
        mem_bw_gbs: 484.0,
        peaks: vec![(Simd, F64, 354.0), (Simd, F32, 11_300.0), (Simd, F16, 177.0)],
        eff_half: vec![],
        eff_scale: vec![],
        activity_overrides: vec![],
    }
}

/// NVIDIA RTX 2070 (consumer, Turing: has Tensor Cores; Fig 2).
pub fn rtx2070() -> Device {
    Device {
        name: "NVIDIA RTX 2070",
        vendor: "NVIDIA",
        kind: ConsumerGpu,
        process_nm: 12,
        die_mm2: Some(445.0),
        me_shape: Some("4x4x4"),
        tdp_w: 175.0,
        idle_w: 10.0,
        mem_bw_gbs: 448.0,
        peaks: vec![
            (Simd, F64, 233.0),
            (Simd, F32, 7_500.0),
            (Simd, F16, 15_000.0),
            (MatrixEngine, F16xF32, 29_900.0),
            (MatrixEngine, F16, 59_800.0),
        ],
        eff_half: vec![],
        eff_scale: vec![],
        activity_overrides: vec![],
    }
}

/// NVIDIA RTX 2080 Ti (consumer, Turing; Fig 2).
pub fn rtx2080ti() -> Device {
    Device {
        name: "NVIDIA RTX 2080 Ti",
        vendor: "NVIDIA",
        kind: ConsumerGpu,
        process_nm: 12,
        die_mm2: Some(754.0),
        me_shape: Some("4x4x4"),
        tdp_w: 250.0,
        idle_w: 12.0,
        mem_bw_gbs: 616.0,
        peaks: vec![
            (Simd, F64, 420.0),
            (Simd, F32, 13_400.0),
            (Simd, F16, 26_900.0),
            (MatrixEngine, F16xF32, 53_800.0),
            (MatrixEngine, F16, 107_600.0),
        ],
        eff_half: vec![],
        eff_scale: vec![],
        activity_overrides: vec![],
    }
}

/// Dual-socket Intel Xeon E5-2650v4 — "System 1" of Table VI, the testbed
/// for Table II (scalar vs AVX2 energy efficiency) and the 77-benchmark
/// profiling study.
///
/// Peaks: 2 sockets × 12 cores. The "scalar" engine models the no-AVX
/// OpenBLAS build of Table II (SSE2: 4 f64 flop/cycle/core at 2.4 GHz
/// turbo); the SIMD engine models the AVX2 build (16 f64 flop/cycle at
/// 2.0 GHz AVX turbo). Efficiency scale 0.88 on SIMD fits the measured
/// 600 Gflop/s DGEMM of Table II.
pub fn xeon_e5_2650v4_2s() -> Device {
    Device {
        name: "2x Intel Xeon E5-2650v4",
        vendor: "Intel",
        kind: GeneralCpu,
        process_nm: 14,
        die_mm2: Some(2.0 * 246.0),
        me_shape: None,
        tdp_w: 210.0,
        idle_w: 60.0,
        mem_bw_gbs: 153.6,
        peaks: vec![
            (Scalar, F64, 230.0),
            (Scalar, F32, 460.0),
            (Simd, F64, 768.0),
            (Simd, F32, 1_536.0),
        ],
        eff_half: vec![],
        eff_scale: vec![(Simd, 0.88)],
        activity_overrides: vec![(Simd, F64, 0.967), (Simd, F32, 0.927)],
    }
}

/// Intel Xeon Gold 6148 — "System 2" of Table VI (the ABCI CPU used as the
/// CPU reference point in Fig 2). AVX-512: 32 f64 flop/cycle/core.
pub fn xeon_gold_6148() -> Device {
    Device {
        name: "Intel Xeon Gold 6148",
        vendor: "Intel",
        kind: GeneralCpu,
        process_nm: 14,
        die_mm2: Some(485.0),
        me_shape: None,
        tdp_w: 150.0,
        idle_w: 40.0,
        mem_bw_gbs: 128.0,
        peaks: vec![
            (Scalar, F64, 192.0),
            (Scalar, F32, 384.0),
            (Simd, F64, 1_200.0),
            (Simd, F32, 2_400.0),
        ],
        eff_half: vec![],
        eff_scale: vec![(Simd, 0.85)],
        activity_overrides: vec![],
    }
}

/// IBM POWER10 (Table I): 4x4 MMA, full f16/f32/f64 support, 602 mm².
/// Performance computed as the paper does: 16 SMT8 cores at 4 GHz.
pub fn power10() -> Device {
    Device {
        name: "IBM Power10",
        vendor: "IBM",
        kind: GeneralCpu,
        process_nm: 7,
        die_mm2: Some(602.0),
        me_shape: Some("4x4"),
        tdp_w: 300.0,
        idle_w: 50.0,
        mem_bw_gbs: 410.0,
        peaks: vec![
            (MatrixEngine, F16xF32, 16_400.0),
            (MatrixEngine, F16, 16_400.0),
            (MatrixEngine, F32, 8_200.0),
            (MatrixEngine, F64, 4_100.0),
            (Simd, F64, 2_048.0),
            (Simd, F32, 4_096.0),
        ],
        eff_half: vec![],
        eff_scale: vec![],
        activity_overrides: vec![],
    }
}

/// Intel Sapphire Rapids (Table I): AMX listed for completeness —
/// 16x32 tile unit, bf16 (and INT8) support, performance undisclosed at
/// the paper's writing.
pub fn sapphire_rapids() -> Device {
    Device {
        name: "Intel Sapphire Rapids",
        vendor: "Intel",
        kind: GeneralCpu,
        process_nm: 10,
        die_mm2: None,
        me_shape: Some("16x32"),
        tdp_w: 350.0,
        idle_w: 60.0,
        mem_bw_gbs: 300.0,
        peaks: vec![], // performance unknown (Table I dashes)
        eff_half: vec![],
        eff_scale: vec![],
        activity_overrides: vec![],
    }
}

/// Google TPUv2 (Table I): 128x128 systolic array, bf16, 45 Tflop/s.
pub fn tpu_v2() -> Device {
    Device {
        name: "Google TPUv2",
        vendor: "Google",
        kind: AiAccelerator,
        process_nm: 20,
        die_mm2: None,
        me_shape: Some("128x128"),
        tdp_w: 280.0,
        idle_w: 30.0,
        mem_bw_gbs: 700.0,
        peaks: vec![(MatrixEngine, Bf16, 45_000.0), (MatrixEngine, F16, 45_000.0)],
        eff_half: vec![],
        eff_scale: vec![],
        activity_overrides: vec![],
    }
}

/// Google TPUv3 (Table I): 128x128 systolic array, bf16, 90 Tflop/s.
pub fn tpu_v3() -> Device {
    Device {
        name: "Google TPUv3",
        vendor: "Google",
        kind: AiAccelerator,
        process_nm: 16,
        die_mm2: None,
        me_shape: Some("128x128"),
        tdp_w: 450.0,
        idle_w: 40.0,
        mem_bw_gbs: 900.0,
        peaks: vec![(MatrixEngine, Bf16, 90_000.0), (MatrixEngine, F16, 90_000.0)],
        eff_half: vec![],
        eff_scale: vec![],
        activity_overrides: vec![],
    }
}

/// Habana Labs Gaudi (Table I): shared ME, details undisclosed.
pub fn gaudi() -> Device {
    Device {
        name: "Habana Labs Gaudi",
        vendor: "Habana Labs",
        kind: AiAccelerator,
        process_nm: 16,
        die_mm2: Some(500.0),
        me_shape: Some("Shared"),
        tdp_w: 350.0,
        idle_w: 40.0,
        mem_bw_gbs: 1_000.0,
        peaks: vec![], // performance undisclosed (Table I dashes)
        eff_half: vec![],
        eff_scale: vec![],
        activity_overrides: vec![],
    }
}

/// Huawei Ascend 910 (Table I): 16x16x16 cube unit, 256 Tflop/s f16,
/// 1228 mm² including the Nimbus co-accelerator and HBM stacks.
pub fn ascend910() -> Device {
    Device {
        name: "Huawei Ascend 910",
        vendor: "Huawei",
        kind: AiAccelerator,
        process_nm: 7,
        die_mm2: Some(1_228.0),
        me_shape: Some("16x16x16"),
        tdp_w: 310.0,
        idle_w: 40.0,
        mem_bw_gbs: 1_200.0,
        peaks: vec![(MatrixEngine, F16xF32, 256_000.0), (MatrixEngine, F16, 256_000.0)],
        eff_half: vec![],
        eff_scale: vec![],
        activity_overrides: vec![],
    }
}

/// Fujitsu A64FX — the SVE-based Fugaku CPU the paper cites (§II-A) as the
/// refined SIMD lineage *without* a matrix engine: the natural
/// counterfactual for the ME-vs-SIMD silicon discussion. 48 cores, 512-bit
/// SVE, HBM2.
pub fn a64fx() -> Device {
    Device {
        name: "Fujitsu A64FX",
        vendor: "Fujitsu",
        kind: GeneralCpu,
        process_nm: 7,
        die_mm2: Some(400.0),
        me_shape: None,
        tdp_w: 160.0,
        idle_w: 40.0,
        mem_bw_gbs: 1_024.0,
        peaks: vec![
            (Scalar, F64, 340.0),
            (Scalar, F32, 680.0),
            (Simd, F64, 2_700.0),
            (Simd, F32, 5_400.0),
            (Simd, F16, 10_800.0),
        ],
        eff_half: vec![],
        eff_scale: vec![(Simd, 0.9)],
        activity_overrides: vec![],
    }
}

/// The eight devices of Table I, in the paper's row order.
pub fn table1_devices() -> Vec<Device> {
    vec![sapphire_rapids(), power10(), v100(), a100(), tpu_v2(), tpu_v3(), gaudi(), ascend910()]
}

/// The seven chips of the paper's Fig 2 (ResNet50 energy-efficiency range).
pub fn fig2_devices() -> Vec<Device> {
    vec![xeon_gold_6148(), gtx1060(), gtx1080ti(), rtx2070(), rtx2080ti(), p100(), v100()]
}

/// The GF/mm² compute densities the paper's Table I quotes, as
/// `(device name, format, declared density)`. These are *independent*
/// copies of the published numbers: `me-verify` cross-checks them
/// against [`Device::compute_density`] (peak ÷ die area) so a typo in
/// either a peak or a die size in this catalog is caught.
pub fn declared_densities() -> Vec<(&'static str, NumericFormat, f64)> {
    vec![
        ("NVIDIA Tesla V100", F16, 153.4),
        ("NVIDIA Tesla V100", F32, 19.3),
        ("NVIDIA Tesla V100", F64, 9.6),
        ("NVIDIA Tesla A100", F16, 377.7),
        ("NVIDIA Tesla A100", F32, 23.6),
        ("NVIDIA Tesla A100", F64, 23.6),
        ("IBM Power10", F16, 27.2),
        ("IBM Power10", F32, 13.6),
        ("IBM Power10", F64, 6.8),
        ("Huawei Ascend 910", F16, 208.5),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_table1_densities() {
        let d = v100();
        // Paper Table I: 153.4 GF/mm² f16, 19.3 f32, 9.6 f64.
        let f16 = d.compute_density(F16).unwrap();
        assert!((f16 - 153.4).abs() < 0.5, "f16 density {f16}");
        let f32d = d.compute_density(F32).unwrap();
        assert!((f32d - 19.3).abs() < 0.1, "f32 density {f32d}");
        let f64d = d.compute_density(F64).unwrap();
        assert!((f64d - 9.6).abs() < 0.1, "f64 density {f64d}");
    }

    #[test]
    fn a100_outperforms_ascend() {
        // Paper §II-B ranks the A100 above the Ascend 910 in both peak and
        // density; encode the ordering and the exact peak ratio.
        let a = a100().peak_gflops(MatrixEngine, F16).unwrap();
        let h = ascend910().peak_gflops(MatrixEngine, F16).unwrap();
        assert!(h < a);
        assert!((h / a - 256.0 / 312.0).abs() < 1e-12);
        let ad = a100().compute_density(F16).unwrap();
        let hd = ascend910().compute_density(F16).unwrap();
        assert!(hd < ad, "A100 also wins on density ({ad} vs {hd})");
    }

    #[test]
    fn power10_density_is_18pct_of_v100() {
        // Paper §II-B: "IBM Power10 only reaches 18% of the compute-density
        // of an NVIDIA V100".
        let p10 = power10().compute_density(F16).unwrap();
        let v = v100().compute_density(F16).unwrap();
        let ratio = p10 / v;
        assert!((ratio - 0.18).abs() < 0.01, "density ratio {ratio}");
    }

    #[test]
    fn ascend_density_is_7_7x_power10() {
        // Paper §II-B: Ascend 910 has "nearly an order of magnitude (7.7x)"
        // more compute density than Power10.
        let h = ascend910().compute_density(F16).unwrap();
        let p = power10().compute_density(F16).unwrap();
        let ratio = h / p;
        assert!((ratio - 7.7).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn undisclosed_devices_have_no_peaks() {
        assert!(sapphire_rapids().peaks.is_empty());
        assert!(gaudi().peaks.is_empty());
        assert!(sapphire_rapids().compute_density(F16).is_none());
    }

    #[test]
    fn hybrid_support_flags() {
        assert!(v100().has_matrix_engine());
        assert!(!p100().has_matrix_engine());
        assert!(!xeon_e5_2650v4_2s().has_matrix_engine());
        let a100_fmts = a100().me_formats();
        assert!(a100_fmts.contains(&F64), "A100 MEs support f64 (Table I)");
        assert!(!v100().me_formats().contains(&F64), "V100 MEs are f16-only");
    }

    #[test]
    fn table1_has_eight_rows() {
        assert_eq!(table1_devices().len(), 8);
    }

    #[test]
    fn a64fx_is_simd_only_but_dense() {
        // The SVE counterfactual: no ME, yet strong f64 throughput and the
        // best f64 density among the CPUs in the catalog.
        let a = a64fx();
        assert!(!a.has_matrix_engine());
        let d64 = a.compute_density(F64).unwrap();
        let xeon64 =
            xeon_gold_6148().peak_gflops(Simd, F64).unwrap() / xeon_gold_6148().die_mm2.unwrap();
        assert!(d64 > xeon64, "A64FX f64 density {d64} must beat the Xeon {xeon64}");
    }

    #[test]
    fn activities_are_physical() {
        for d in table1_devices().into_iter().chain(fig2_devices()) {
            for &(e, f, _) in &d.peaks {
                let a = d.activity(e, f);
                assert!(a > 0.0 && a <= 1.0, "{}: activity {a} out of range", d.name);
            }
            assert!(d.idle_w < d.tdp_w, "{}: idle above TDP", d.name);
        }
    }
}
