//! Performance projection for the emulated GEMMs — regenerates Table VIII.
//!
//! The paper measures cuBLAS and the Ozaki-scheme GEMM-TC implementations at
//! `m=n=k=8192` on a V100, at three input dynamic ranges. Here:
//!
//! - the cuBLAS rows come straight from the [`me_engine`] execution model
//!   (calibrated on the same table's baselines),
//! - the GEMM-TC rows are *derived from the real algorithm*: we run the
//!   actual splitter on a sampled matrix with the requested dynamic range to
//!   measure how many slices / slice-pair products the accuracy target
//!   needs, then charge each product as one f16 Tensor-Core GEMM plus the
//!   f64 split/scale/sum overhead on the CUDA cores.

use crate::gemm::{OzakiConfig, SliceEngine, TargetAccuracy};
use me_engine::{catalog, EngineKind, ExecutionModel, GemmShape, NumericFormat};
use me_linalg::Mat;

/// One row of Table VIII.
#[derive(Debug, Clone)]
pub struct Table8Row {
    /// Implementation name (cuBLAS routine or emulated GEMM).
    pub implementation: String,
    /// Condition column (mixed-precision note or input range).
    pub condition: String,
    /// Effective throughput in Tflop/s (`2n³ / runtime`, the paper's
    /// convention — emulated GEMMs do more raw work than `2n³`).
    pub tflops: f64,
    /// Average power in W.
    pub watt: f64,
    /// Energy efficiency in Gflop/J.
    pub gflops_per_joule: f64,
}

/// Cost breakdown of one emulated GEMM at full size.
#[derive(Debug, Clone)]
pub struct EmulatedGemmPerf {
    /// Number of slices per operand.
    pub slices: usize,
    /// Slice-pair GEMMs executed.
    pub products: usize,
    /// Time spent in engine GEMMs, s.
    pub engine_time_s: f64,
    /// Time spent in f64 split/scale/sum overhead, s.
    pub overhead_time_s: f64,
    /// Total modeled time, s.
    pub total_time_s: f64,
    /// Average power over the run, W.
    pub avg_power_w: f64,
    /// Effective Tflop/s by the paper's `2n³/t` convention.
    pub effective_tflops: f64,
}

/// Sample matrix with entries `(u − 0.5) · 10^(v·decades)`, `u, v` uniform —
/// the input-range construction the paper (and Mukunoki et al.) use.
pub fn ranged_matrix(m: usize, n: usize, decades: f64, seed: u64) -> Mat<f64> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    Mat::from_fn(m, n, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = (state >> 33) as f64 / (1u64 << 32) as f64; // [0,1)
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let v = (state >> 33) as f64 / (1u64 << 32) as f64;
        (u - 0.5) * (10.0f64).powf(v * decades)
    })
}

/// Project the full-size (n×n×n) cost of an emulated GEMM on `engine`
/// whose slice behaviour was measured on a small sample with the same
/// dynamic range, charged on the engine's device
/// ([`SliceEngine::charged_on`]): the V100's f16 Tensor Cores for the
/// simulated ME, the A100's INT8 Tensor Cores for INT8 (the device the
/// energy comparison in [`crate::energy`] runs on), and an AVX-512 host's
/// f32 SIMD units for host f16.
///
/// The slice count scales from the sample because the bits the target needs
/// are range- and k-dependent, not n-dependent: we measure `bits =
/// slices·β_sample` on the sample and re-derive the slice count at the full
/// problem's β (β shrinks as k grows, per [`SliceEngine::beta`]).
pub fn project_emulated<E: SliceEngine>(
    n: usize,
    decades: f64,
    engine: &E,
    sample_n: usize,
    seed: u64,
) -> EmulatedGemmPerf {
    let (slices, products) = schedule_from_sample(engine, n, decades, sample_n, seed);
    let (device, kind, fmt) = E::charged_on();
    charge_emulated(&ExecutionModel::new(device), kind, fmt, n, slices, products)
}

/// Measure the input's exponent spread with the real splitter and derive
/// `engine`'s slice count and pair-product count for an `n`-order GEMM.
///
/// An *exact* split of a sample with the requested dynamic range tells
/// us how many bits below the per-line maximum the inputs carry
/// (53 mantissa bits + the exponent spread φ). The published DGEMM-TC
/// derives its split count d the same way: enough slices that the input
/// information the accuracy target needs is represented, which is what
/// makes the split count range-dependent (Table VIII's degradation from
/// 1e+8 to 1e+32 inputs). The target needs the fraction `t_bits/53` of
/// that information; wider ranges spread it over more slices,
/// proportionally for every target.
pub(crate) fn schedule_from_sample<E: SliceEngine>(
    engine: &E,
    n: usize,
    decades: f64,
    sample_n: usize,
    seed: u64,
) -> (usize, usize) {
    let beta_sample = engine.beta(sample_n);
    let t_bits = match engine.target() {
        TargetAccuracy::SgemmEquivalent => 24.0,
        _ => 53.0,
    };
    let a = ranged_matrix(sample_n, sample_n, decades, seed);
    let exact = crate::split::split_rows(&a, beta_sample, 512);
    let bits_total = exact.len() as f64 * beta_sample as f64; // ≈ 53 + φ
    let spread_bits = (bits_total - 53.0).max(0.0);

    let slices = ((t_bits * (1.0 + spread_bits / 53.0)) / engine.beta(n) as f64).ceil() as usize;
    let cutoff = slices + 1;
    let mut products = 0usize;
    for p in 0..slices {
        for q in 0..slices {
            if p + q < cutoff {
                products += 1;
            }
        }
    }
    (slices, products)
}

/// Charge an emulated GEMM's schedule on a device model: `products`
/// engine GEMMs at `(engine_kind, engine_fmt)` — `MatrixEngine` for the
/// Tensor-Core substrates, `Simd` for the host-SIMD f16 arm — plus the
/// f64 split/scale/sum overhead on the general cores.
pub(crate) fn charge_emulated(
    model: &ExecutionModel,
    engine_kind: EngineKind,
    engine_fmt: NumericFormat,
    n: usize,
    slices: usize,
    products: usize,
) -> EmulatedGemmPerf {
    let shape = GemmShape::square(n);
    let engine_gemm = model
        .gemm(shape, engine_kind, engine_fmt)
        .expect("engine gemm on the charged device");
    let engine_time = engine_gemm.time_s * products as f64;
    let engine_energy = engine_gemm.energy_j * products as f64;

    // Overhead: split passes (FP64, ~6 flops/elem/slice over A and B),
    // integer scaling of each slice pair operand (2 elem-passes/product),
    // and the final f64 scale+sum (~8 flops/elem/product over C).
    let elems = (n * n) as f64;
    let split_flops = 6.0 * elems * 2.0 * slices as f64;
    let scale_flops = 2.0 * elems * products as f64;
    let sum_flops = 8.0 * elems * products as f64;
    let overhead_bytes = (2.0 * slices as f64 + 4.0 * products as f64) * elems * 8.0;
    let overhead = model
        .region(
            split_flops + scale_flops + sum_flops,
            overhead_bytes,
            EngineKind::Simd,
            NumericFormat::F64,
            0.25,
        )
        .expect("overhead region");

    let total = engine_time + overhead.time_s;
    let energy = engine_energy + overhead.energy_j;
    let eff_flops = shape.flops();
    EmulatedGemmPerf {
        slices,
        products,
        engine_time_s: engine_time,
        overhead_time_s: overhead.time_s,
        total_time_s: total,
        avg_power_w: energy / total,
        effective_tflops: eff_flops / total / 1e12,
    }
}

/// Regenerate Table VIII: cuBLAS baselines + SGEMM-TC / DGEMM-TC at input
/// ranges 1e+8, 1e+16, 1e+32, on the simulated V100 at m=n=k=8192.
pub fn table8_rows() -> Vec<Table8Row> {
    let n = 8192;
    let model = ExecutionModel::new(catalog::v100());
    let shape = GemmShape::square(n);
    let mut rows = Vec::new();

    let tc = model.gemm(shape, EngineKind::MatrixEngine, NumericFormat::F16xF32).unwrap();
    rows.push(Table8Row {
        implementation: "cublasGemmEx".into(),
        condition: "FP16/FP32-mixed".into(),
        tflops: tc.gflops / 1e3,
        watt: tc.avg_power_w,
        gflops_per_joule: tc.gflops_per_joule(),
    });
    let sg = model.gemm(shape, EngineKind::Simd, NumericFormat::F32).unwrap();
    rows.push(Table8Row {
        implementation: "cublasSgemm".into(),
        condition: "-".into(),
        tflops: sg.gflops / 1e3,
        watt: sg.avg_power_w,
        gflops_per_joule: sg.gflops_per_joule(),
    });
    let dg = model.gemm(shape, EngineKind::Simd, NumericFormat::F64).unwrap();
    rows.push(Table8Row {
        implementation: "cublasDgemm".into(),
        condition: "-".into(),
        tflops: dg.gflops / 1e3,
        watt: dg.avg_power_w,
        gflops_per_joule: dg.gflops_per_joule(),
    });

    for (cfg, name) in [(OzakiConfig::sgemm_tc(), "SGEMM-TC"), (OzakiConfig::dgemm_tc(), "DGEMM-TC")]
    {
        for (decades, label) in [(8.0, "input range: 1e+8"), (16.0, "input range: 1e+16"), (32.0, "input range: 1e+32")] {
            let p = project_emulated(n, decades, &cfg, 48, 0x5eed + decades as u64);
            rows.push(Table8Row {
                implementation: name.into(),
                condition: label.into(),
                tflops: p.effective_tflops,
                watt: p.avg_power_w,
                gflops_per_joule: p.effective_tflops * 1000.0 / p.avg_power_w,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table8_shape_holds() {
        let rows = table8_rows();
        assert_eq!(rows.len(), 9);
        let get = |imp: &str, cond: &str| {
            rows.iter()
                .find(|r| r.implementation == imp && r.condition.contains(cond))
                .unwrap_or_else(|| panic!("missing row {imp} {cond}"))
        };
        let tc = get("cublasGemmEx", "");
        let s = get("cublasSgemm", "");
        let d = get("cublasDgemm", "");
        // Baselines (calibrated): 92.28 / 14.54 / 7.20 Tflop/s.
        assert!((tc.tflops - 92.28).abs() < 2.0, "{}", tc.tflops);
        assert!((s.tflops - 14.54).abs() < 0.3);
        assert!((d.tflops - 7.20).abs() < 0.2);

        // Emulated GEMMs: slower than their cuBLAS counterparts on V100
        // (the paper's conclusion), monotonically degrading with range.
        let s8 = get("SGEMM-TC", "1e+8");
        let s16 = get("SGEMM-TC", "1e+16");
        let s32 = get("SGEMM-TC", "1e+32");
        assert!(s8.tflops < s.tflops);
        assert!(s8.tflops > s16.tflops && s16.tflops > s32.tflops, "{} {} {}", s8.tflops, s16.tflops, s32.tflops);

        let d8 = get("DGEMM-TC", "1e+8");
        let d16 = get("DGEMM-TC", "1e+16");
        let d32 = get("DGEMM-TC", "1e+32");
        assert!(d8.tflops < d.tflops);
        assert!(d8.tflops > d16.tflops && d16.tflops > d32.tflops);

        // SGEMM-TC beats DGEMM-TC at equal range (fewer slices).
        assert!(s8.tflops > d8.tflops);
        assert!(s32.tflops > d32.tflops);

        // Magnitudes in the paper's ballpark (order of magnitude check):
        // paper: SGEMM-TC 4.72/2.14/1.76, DGEMM-TC 1.10/0.72/0.62 Tflop/s.
        assert!(s8.tflops > 1.0 && s8.tflops < 15.0, "{}", s8.tflops);
        assert!(d8.tflops > 0.3 && d8.tflops < 4.0, "{}", d8.tflops);
        assert!(d32.tflops > 0.1 && d32.tflops < 2.0, "{}", d32.tflops);
    }

    #[test]
    fn emulated_power_below_tdp() {
        for r in table8_rows() {
            assert!(r.watt > 100.0 && r.watt <= 300.0, "{}: {} W", r.implementation, r.watt);
        }
    }

    #[test]
    fn projection_internals_consistent() {
        let p = project_emulated(8192, 8.0, &OzakiConfig::dgemm_tc(), 32, 7);
        assert!(p.slices >= 10, "DGEMM-TC at 1e8 needs >= 10 slices, got {}", p.slices);
        assert!(p.products > p.slices);
        assert!((p.engine_time_s + p.overhead_time_s - p.total_time_s).abs() < 1e-12);
        assert!(p.effective_tflops > 0.0);
    }
}
