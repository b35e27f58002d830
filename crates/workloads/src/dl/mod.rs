//! Deep-learning workload models — Table IV (FP32→mixed speedups, Tensor
//! Core occupancy) and Fig 2 (ResNet50 energy efficiency across chips).
//!
//! ## Model construction
//!
//! Each of the 12 workloads (7 full models + 5 single layers, §III-C1) is a
//! three-component cost model per sample:
//!
//! 1. **TC-eligible GEMM work** (`tc_gflops` at characteristic GEMM
//!    dimension `gemm_dim`) — runs on CUDA cores in fp32 mode and on Tensor
//!    Cores in mixed mode (unless `tc_capable` is false: Cosmoflow's 3D
//!    convolutions had no TC implementation, Table IV),
//! 2. **other compute** (`other_gflops`, flat-efficiency SIMD work:
//!    elementwise ops, normalization, optimizer) — mixed mode divides its
//!    time by `other_mixed_speedup` (f16 halves the memory traffic of
//!    memory-bound elementwise kernels; < 1 models NCF's regression),
//! 3. **host↔device transfers** (`transfer_mb` over PCIe).
//!
//! The parameters are *inverse-calibrated*: [`DlModel::calibrate`] takes the
//! paper's measured (speedup, %TC, %Mem) for the V100 and solves for the
//! component costs; the benchmarker then recomputes everything forward from
//! the cost model — on the V100 it reproduces Table IV, and on any other
//! device of the catalog it *predicts* (that is how the Fig 2 cross-device
//! series is produced, including the CPU reference point).

pub mod layers;
pub mod layers_ext;

use me_engine::{catalog, Device, EngineKind, ExecutionModel, NumericFormat};

/// PCIe gen3 x16 effective bandwidth (GB/s) for host↔device transfers.
const PCIE_GBS: f64 = 12.5;
/// Flat efficiency of non-GEMM compute relative to SIMD peak.
const OTHER_EFF: f64 = 0.30;

/// Execution precision mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrecisionMode {
    /// Pure FP32 on the SIMD/CUDA cores.
    Fp32,
    /// Mixed precision: TC-eligible work on the matrix engine (f16 multiply
    /// / f32 accumulate), the rest in (partly) reduced precision.
    Mixed,
}

/// A calibrated DL workload model.
#[derive(Debug, Clone)]
pub struct DlModel {
    /// Workload name (Table IV spelling).
    pub name: &'static str,
    /// TC-eligible GEMM Gflops per sample.
    pub tc_gflops: f64,
    /// Characteristic GEMM mean dimension (drives engine efficiency).
    pub gemm_dim: f64,
    /// Non-GEMM compute Gflops per sample (flat-efficiency SIMD work).
    pub other_gflops: f64,
    /// Mixed-mode speedup of the non-GEMM part (f16 traffic reduction;
    /// < 1 models conversion-overhead regressions like NCF).
    pub other_mixed_speedup: f64,
    /// Host↔device transfer volume per sample, MB.
    pub transfer_mb: f64,
    /// Whether the TC-eligible work has a Tensor-Core implementation.
    pub tc_capable: bool,
}

/// Result of running a model on a device in one precision mode.
#[derive(Debug, Clone, Copy)]
pub struct DlRunResult {
    /// Samples per second.
    pub throughput: f64,
    /// Time on the matrix engine per sample, s (0 in fp32 mode).
    pub tc_time_s: f64,
    /// Non-TC compute time per sample, s.
    pub other_time_s: f64,
    /// Host↔device transfer time per sample, s.
    pub mem_time_s: f64,
    /// Average power over the run, W.
    pub avg_power_w: f64,
    /// Energy per sample, J.
    pub energy_per_sample_j: f64,
}

impl DlRunResult {
    /// Total time per sample.
    pub fn total_time_s(&self) -> f64 {
        self.tc_time_s + self.other_time_s + self.mem_time_s
    }

    /// %TC: share of total runtime spent on Tensor Cores (Table IV).
    pub fn pct_tc(&self) -> f64 {
        100.0 * self.tc_time_s / self.total_time_s()
    }

    /// %TC comp: share of compute time (excluding transfers) on TCs.
    pub fn pct_tc_comp(&self) -> f64 {
        let comp = self.tc_time_s + self.other_time_s;
        if comp == 0.0 {
            0.0
        } else {
            100.0 * self.tc_time_s / comp
        }
    }

    /// %Mem: share of total runtime in host↔device transfers.
    pub fn pct_mem(&self) -> f64 {
        100.0 * self.mem_time_s / self.total_time_s()
    }

    /// Energy efficiency in samples per joule.
    pub fn samples_per_joule(&self) -> f64 {
        1.0 / self.energy_per_sample_j
    }
}

fn v100_rates(gemm_dim: f64) -> (f64, f64, f64) {
    let model = ExecutionModel::new(catalog::v100());
    let eff_s = model.efficiency(EngineKind::Simd, gemm_dim);
    let eff_t = model.efficiency(EngineKind::MatrixEngine, gemm_dim);
    let f32_rate = 15_700.0 * eff_s; // Gflop/s
    let tc_rate = 125_000.0 * eff_t;
    let other_rate = 15_700.0 * OTHER_EFF;
    (f32_rate, tc_rate, other_rate)
}

impl DlModel {
    /// Inverse-calibrate a model from the paper's Table IV row measured on
    /// the V100:
    ///
    /// - `speedup` — FP32→mixed throughput improvement (compute-only, which
    ///   is how the per-kernel numbers were collected with nvprof),
    /// - `pct_tc` — % of mixed-mode runtime on Tensor Cores,
    /// - `pct_mem` — % of mixed-mode runtime in host↔device transfers,
    /// - `gemm_dim` — characteristic GEMM size (large for transformers and
    ///   VGG-style convs, small for NCF's MLP),
    /// - `fp32_throughput` — absolute samples/s in fp32 on the V100 (sets
    ///   the scale; only ratios matter for Table IV).
    pub fn calibrate(
        name: &'static str,
        speedup: f64,
        pct_tc: f64,
        pct_mem: f64,
        gemm_dim: f64,
        fp32_throughput: f64,
        tc_capable: bool,
    ) -> DlModel {
        let (f32_rate, tc_rate, other_rate) = v100_rates(gemm_dim);
        let t = pct_tc / 100.0;
        let m = pct_mem / 100.0;

        if !tc_capable {
            // Cosmoflow-style: TC part never moves to TCs. The speedup comes
            // from the f16 traffic reduction on the "other" part alone.
            // Fix the other:tc ratio from the speedup at an assumed f16
            // benefit of 1.3.
            let o_speed = 1.3;
            // (1 + x) / (1 + x/o) = speedup  =>  x = (speedup-1)/(1 - speedup/o)
            let x = (speedup - 1.0) / (1.0 - speedup / o_speed).max(1e-9);
            let x = x.max(0.1);
            // Scale from fp32 throughput: t_tc_fp32 (1 + x) + t_mem = 1/thr.
            let total_fp32 = 1.0 / fp32_throughput;
            // Transfers are m of the *mixed* total; mixed total ≈ total_fp32/speedup.
            let t_mem = m * total_fp32 / speedup;
            let t_tc_fp32 = (total_fp32 - t_mem) / (1.0 + x);
            let t_other_fp32 = x * t_tc_fp32;
            return DlModel {
                name,
                tc_gflops: t_tc_fp32 * f32_rate,
                gemm_dim,
                other_gflops: t_other_fp32 * other_rate,
                other_mixed_speedup: o_speed,
                transfer_mb: t_mem * PCIE_GBS * 1000.0,
                tc_capable,
            };
        }

        // Mixed-mode time budget (normalized to 1): t_tc = t, t_mem = m,
        // t_other = 1 - t - m.
        let t_tc = t;
        let t_mem = m;
        let t_other_mixed = (1.0 - t - m).max(1e-6);
        // FP32 compute times from the compute-only speedup:
        // speedup = (t_tc_fp32 + t_other_fp32) / (t_tc + t_other_mixed)
        let t_tc_fp32 = t_tc * tc_rate / f32_rate;
        // When the mixed run is essentially all-TC (the single-layer GEMM:
        // t_other ≈ 0), keep other out of the calibration — the achievable
        // speedup is the raw TC/CUDA-core throughput ratio.
        let (t_other_fp32, o_speed) = if t_other_mixed < 0.01 {
            (t_other_mixed, 1.0)
        } else {
            let tof = (speedup * (t_tc + t_other_mixed) - t_tc_fp32).max(0.2 * t_other_mixed);
            ((tof), (tof / t_other_mixed).clamp(0.5, 8.0))
        };

        // Absolute scale from the fp32 throughput target.
        let total_fp32_rel = t_tc_fp32 + t_other_fp32 + t_mem;
        let unit = 1.0 / fp32_throughput / total_fp32_rel; // seconds per rel-unit
        DlModel {
            name,
            tc_gflops: t_tc * unit * tc_rate,
            gemm_dim,
            other_gflops: t_other_fp32 * unit * other_rate,
            other_mixed_speedup: o_speed,
            transfer_mb: t_mem * unit * PCIE_GBS * 1000.0,
            tc_capable,
        }
    }
}

/// Run a DL model on a device in the given precision mode.
///
/// Returns `None` when the mode is unsupported (mixed on a device without
/// a matrix engine).
pub fn run_dl_benchmark(
    model: &DlModel,
    device: &Device,
    mode: PrecisionMode,
) -> Option<DlRunResult> {
    let exec = ExecutionModel::new(device.clone());
    let f32_peak = device.peak_gflops(EngineKind::Simd, NumericFormat::F32)?;
    let eff_s = exec.efficiency(EngineKind::Simd, model.gemm_dim);

    let use_tc = mode == PrecisionMode::Mixed && model.tc_capable;
    let (tc_time, tc_power_share) = if use_tc {
        let tc_peak = device.peak_gflops(EngineKind::MatrixEngine, NumericFormat::F16xF32)?;
        let eff_t = exec.efficiency(EngineKind::MatrixEngine, model.gemm_dim);
        (
            model.tc_gflops / (tc_peak * eff_t),
            device.activity(EngineKind::MatrixEngine, NumericFormat::F16xF32),
        )
    } else {
        (
            model.tc_gflops / (f32_peak * eff_s),
            device.activity(EngineKind::Simd, NumericFormat::F32),
        )
    };
    if mode == PrecisionMode::Mixed && !device.has_matrix_engine() {
        return None;
    }

    let other_rate = f32_peak * OTHER_EFF;
    let mut other_time = model.other_gflops / other_rate;
    if mode == PrecisionMode::Mixed {
        other_time /= model.other_mixed_speedup;
    }
    let mem_time = model.transfer_mb / 1000.0 / PCIE_GBS;

    let total = tc_time + other_time + mem_time;
    // Power: weighted by phase; transfers run the device near idle.
    let p = |activity: f64| device.idle_w + (device.tdp_w - device.idle_w) * activity;
    let simd_act = device.activity(EngineKind::Simd, NumericFormat::F32);
    let avg_power =
        (p(tc_power_share) * tc_time + p(simd_act * 0.9) * other_time + p(0.15) * mem_time) / total;
    let energy = avg_power * total;

    let (tc_time_s, other_time_s) =
        if use_tc { (tc_time, other_time) } else { (0.0, other_time + tc_time) };
    Some(DlRunResult {
        throughput: 1.0 / total,
        tc_time_s,
        other_time_s,
        mem_time_s: mem_time,
        avg_power_w: avg_power,
        energy_per_sample_j: energy,
    })
}

/// The 12 DL workloads of Table IV, calibrated to the paper's V100
/// measurements: (speedup, %TC, %Mem) columns plus a characteristic GEMM
/// dimension and an absolute fp32 throughput scale.
pub fn dl_models() -> Vec<DlModel> {
    vec![
        DlModel::calibrate("BERT", 3.39, 50.86, 7.97, 5000.0, 50.0, true),
        DlModel::calibrate("Cosmoflow", 1.16, 0.04, 22.90, 1500.0, 60.0, false),
        DlModel::calibrate("VGG16", 1.71, 12.30, 3.45, 3000.0, 220.0, true),
        DlModel::calibrate("Resnet50", 1.97, 16.32, 2.76, 2000.0, 360.0, true),
        DlModel::calibrate("DeepLabV3", 1.75, 16.33, 0.69, 2200.0, 55.0, true),
        DlModel::calibrate("SSD300", 1.78, 8.55, 1.32, 1800.0, 140.0, true),
        DlModel::calibrate("NCF", 0.97, 22.37, 16.50, 256.0, 40_000.0, true),
        DlModel::calibrate("GEMM", 7.59, 20.08, 79.90, 8192.0, 13.0, true),
        DlModel::calibrate("GRU", 3.67, 6.59, 11.94, 1200.0, 2000.0, true),
        DlModel::calibrate("LSTM", 5.69, 11.63, 16.03, 1400.0, 1500.0, true),
        DlModel::calibrate("Conv2D", 1.12, 0.27, 16.78, 64.0, 5000.0, true),
        DlModel::calibrate("Attention", 3.49, 44.49, 23.55, 4000.0, 800.0, true),
    ]
}

/// One Table IV row recomputed on the simulated V100.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Workload name.
    pub benchmark: &'static str,
    /// FP32→mixed compute throughput improvement.
    pub speedup: f64,
    /// % of mixed runtime on Tensor Cores.
    pub pct_tc: f64,
    /// % of mixed compute time on Tensor Cores.
    pub pct_tc_comp: f64,
    /// % of mixed runtime in host↔device transfers.
    pub pct_mem: f64,
}

/// Regenerate Table IV on the simulated V100.
pub fn table4_rows() -> Vec<Table4Row> {
    let v100 = catalog::v100();
    dl_models()
        .iter()
        .map(|m| {
            let fp32 = run_dl_benchmark(m, &v100, PrecisionMode::Fp32).expect("fp32 runs");
            let mixed = run_dl_benchmark(m, &v100, PrecisionMode::Mixed).expect("V100 has TCs");
            let speedup =
                (fp32.tc_time_s + fp32.other_time_s) / (mixed.tc_time_s + mixed.other_time_s);
            Table4Row {
                benchmark: m.name,
                speedup,
                pct_tc: mixed.pct_tc(),
                pct_tc_comp: mixed.pct_tc_comp(),
                pct_mem: mixed.pct_mem(),
            }
        })
        .collect()
}

/// One Fig 2 series point: device × mode → throughput and energy
/// efficiency for ResNet50 training.
#[derive(Debug, Clone)]
pub struct Fig2Point {
    /// Device name.
    pub device: String,
    /// Precision mode.
    pub mode: PrecisionMode,
    /// Images per second.
    pub throughput: f64,
    /// Average power, W.
    pub power_w: f64,
    /// Images per joule (the paper's energy-efficiency axis).
    pub samples_per_joule: f64,
}

/// Regenerate Fig 2: ResNet50 across the seven chips, fp32 everywhere plus
/// mixed precision where Tensor Cores exist.
pub fn fig2_points() -> Vec<Fig2Point> {
    let resnet = dl_models().into_iter().find(|m| m.name == "Resnet50").unwrap();
    let mut out = Vec::new();
    for dev in catalog::fig2_devices() {
        if let Some(r) = run_dl_benchmark(&resnet, &dev, PrecisionMode::Fp32) {
            out.push(Fig2Point {
                device: dev.name.to_string(),
                mode: PrecisionMode::Fp32,
                throughput: r.throughput,
                power_w: r.avg_power_w,
                samples_per_joule: r.samples_per_joule(),
            });
        }
        if dev.has_matrix_engine() {
            if let Some(r) = run_dl_benchmark(&resnet, &dev, PrecisionMode::Mixed) {
                out.push(Fig2Point {
                    device: dev.name.to_string(),
                    mode: PrecisionMode::Mixed,
                    throughput: r.throughput,
                    power_w: r.avg_power_w,
                    samples_per_joule: r.samples_per_joule(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str) -> Table4Row {
        table4_rows().into_iter().find(|r| r.benchmark == name).unwrap()
    }

    #[test]
    fn table4_speedups_match_paper() {
        // Paper Table IV speedups; calibration should land within ~15%.
        let targets = [
            ("BERT", 3.39),
            ("VGG16", 1.71),
            ("Resnet50", 1.97),
            ("DeepLabV3", 1.75),
            ("SSD300", 1.78),
            ("GRU", 3.67),
            ("LSTM", 5.69),
            ("Attention", 3.49),
        ];
        for (name, target) in targets {
            let r = row(name);
            assert!(
                (r.speedup - target).abs() / target < 0.15,
                "{name}: speedup {} vs paper {target}",
                r.speedup
            );
        }
    }

    #[test]
    fn table4_tc_occupancy_matches_paper() {
        let targets = [
            ("BERT", 50.86),
            ("VGG16", 12.30),
            ("Resnet50", 16.32),
            ("Attention", 44.49),
            ("GEMM", 20.08),
        ];
        for (name, target) in targets {
            let r = row(name);
            assert!((r.pct_tc - target).abs() < 6.0, "{name}: %TC {} vs paper {target}", r.pct_tc);
        }
    }

    #[test]
    fn cosmoflow_and_ncf_are_the_exceptions() {
        // Cosmoflow: no TC implementation → ~0 %TC, small speedup.
        let cf = row("Cosmoflow");
        assert!(cf.pct_tc < 1.0, "Cosmoflow %TC {}", cf.pct_tc);
        assert!(cf.speedup > 1.0 && cf.speedup < 1.4, "Cosmoflow speedup {}", cf.speedup);
        // NCF: regression (speedup <= 1).
        let ncf = row("NCF");
        assert!(ncf.speedup <= 1.05, "NCF speedup {}", ncf.speedup);
    }

    #[test]
    fn gemm_layer_is_transfer_dominated() {
        let g = row("GEMM");
        assert!(g.pct_mem > 60.0, "GEMM %Mem {}", g.pct_mem);
        assert!(g.pct_tc_comp > 90.0, "GEMM %TC comp {}", g.pct_tc_comp);
        assert!(g.speedup > 5.0, "GEMM speedup {}", g.speedup);
    }

    #[test]
    fn transformers_have_highest_tc_occupancy() {
        // Paper §III-C3: Transformers (BERT, Attention) ~4x, ConvNets ~2x.
        let rows = table4_rows();
        let bert = row("BERT");
        for r in &rows {
            if !matches!(r.benchmark, "BERT" | "Attention") {
                assert!(bert.pct_tc > r.pct_tc, "BERT %TC must top {}", r.benchmark);
            }
        }
    }

    #[test]
    fn fig2_v100_mixed_doubles_efficiency() {
        // Paper Fig 2: TCs double ResNet50 image throughput at roughly the
        // same power → ~2x samples/J.
        let pts = fig2_points();
        let v_fp32 = pts
            .iter()
            .find(|p| p.device.contains("V100") && p.mode == PrecisionMode::Fp32)
            .unwrap();
        let v_mixed = pts
            .iter()
            .find(|p| p.device.contains("V100") && p.mode == PrecisionMode::Mixed)
            .unwrap();
        let thr_ratio = v_mixed.throughput / v_fp32.throughput;
        assert!(thr_ratio > 1.6 && thr_ratio < 2.6, "throughput ratio {thr_ratio}");
        let eff_ratio = v_mixed.samples_per_joule / v_fp32.samples_per_joule;
        assert!(eff_ratio > 1.5, "efficiency ratio {eff_ratio}");
    }

    #[test]
    fn fig2_cpu_is_least_efficient() {
        let pts = fig2_points();
        let cpu = pts.iter().find(|p| p.device.contains("Xeon")).unwrap();
        for p in &pts {
            if !p.device.contains("Xeon") {
                assert!(
                    p.samples_per_joule > cpu.samples_per_joule,
                    "{} must beat the CPU",
                    p.device
                );
            }
        }
    }

    #[test]
    fn fig2_generational_efficiency_is_marginal() {
        // Paper: consumer → datacenter fp32 energy efficiency improves only
        // marginally (less than ~3x across the whole range).
        let pts = fig2_points();
        let fp32: Vec<&Fig2Point> = pts
            .iter()
            .filter(|p| p.mode == PrecisionMode::Fp32 && !p.device.contains("Xeon"))
            .collect();
        let min = fp32.iter().map(|p| p.samples_per_joule).fold(f64::MAX, f64::min);
        let max = fp32.iter().map(|p| p.samples_per_joule).fold(0.0f64, f64::max);
        assert!(max / min < 3.5, "GPU fp32 efficiency spread {}x", max / min);
    }

    #[test]
    fn twelve_models() {
        assert_eq!(dl_models().len(), 12);
        assert_eq!(table4_rows().len(), 12);
    }

    #[test]
    fn mixed_unavailable_without_me() {
        let resnet = dl_models().into_iter().find(|m| m.name == "Resnet50").unwrap();
        let p100 = catalog::p100();
        assert!(run_dl_benchmark(&resnet, &p100, PrecisionMode::Mixed).is_none());
        assert!(run_dl_benchmark(&resnet, &p100, PrecisionMode::Fp32).is_some());
    }
}

/// Run a model with batching: host↔device transfers amortize over the
/// batch (pipelined copies), while compute scales linearly — the standard
/// reason DL throughput grows with batch size until compute-bound.
pub fn run_dl_benchmark_batched(
    model: &DlModel,
    device: &Device,
    mode: PrecisionMode,
    batch: usize,
) -> Option<DlRunResult> {
    let single = run_dl_benchmark(model, device, mode)?;
    let b = batch.max(1) as f64;
    // Compute times scale with batch; transfers overlap all but the first
    // sample's latency (double buffering).
    let tc = single.tc_time_s * b;
    let other = single.other_time_s * b;
    let mem = single.mem_time_s * (1.0 + 0.15 * (b - 1.0)); // 85% overlapped
    let total = tc + other + mem;
    let energy = single.avg_power_w * total; // same mix, same average power
    Some(DlRunResult {
        throughput: b / total,
        tc_time_s: tc,
        other_time_s: other,
        mem_time_s: mem,
        avg_power_w: single.avg_power_w,
        energy_per_sample_j: energy / b,
    })
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    #[test]
    fn batching_amortizes_transfers() {
        let gemm = dl_models().into_iter().find(|m| m.name == "GEMM").unwrap();
        let v100 = catalog::v100();
        let b1 = run_dl_benchmark_batched(&gemm, &v100, PrecisionMode::Mixed, 1).unwrap();
        let b16 = run_dl_benchmark_batched(&gemm, &v100, PrecisionMode::Mixed, 16).unwrap();
        assert!(b16.throughput > 2.0 * b1.throughput, "{} vs {}", b16.throughput, b1.throughput);
        assert!(b16.pct_mem() < b1.pct_mem());
        assert!(b16.energy_per_sample_j < b1.energy_per_sample_j);
    }

    #[test]
    fn compute_bound_models_barely_benefit() {
        let bert = dl_models().into_iter().find(|m| m.name == "BERT").unwrap();
        let v100 = catalog::v100();
        let b1 = run_dl_benchmark_batched(&bert, &v100, PrecisionMode::Mixed, 1).unwrap();
        let b16 = run_dl_benchmark_batched(&bert, &v100, PrecisionMode::Mixed, 16).unwrap();
        let gain = b16.throughput / b1.throughput;
        assert!(gain < 1.15, "BERT is compute-bound; batching gain {gain}");
    }

    #[test]
    fn batch_one_matches_unbatched() {
        let m = dl_models().into_iter().find(|m| m.name == "Resnet50").unwrap();
        let v100 = catalog::v100();
        let a = run_dl_benchmark(&m, &v100, PrecisionMode::Fp32).unwrap();
        let b = run_dl_benchmark_batched(&m, &v100, PrecisionMode::Fp32, 1).unwrap();
        assert!((a.throughput - b.throughput).abs() < 1e-9);
    }
}
