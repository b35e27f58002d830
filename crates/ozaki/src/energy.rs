//! Energy comparison: FP16 matrix-engine emulation vs INT8 emulation.
//!
//! The paper's §V asks whether narrower integer engines are the better
//! substrate for Ozaki-style emulation: INT8 Tensor Cores offer 2× the
//! throughput of FP16 (624 vs 312 TOPS on the A100, me-engine's Table I
//! catalog) at the cost of narrower slices (β = 6 vs β ≥ 7), i.e. more
//! slice-pair products per GEMM. This module settles the trade on the
//! analytic [`crate::perf`] model: both substrates run the *same*
//! range-derived schedule policy on the *same* device (A100), so the
//! comparison isolates the engine format.
//!
//! The rows are rendered into `artifacts/ozaki_int8.txt` by the
//! `ozaki_int8` bench and pinned by `tests/paper_headlines.rs`.

use crate::gemm::{OzakiConfig, SliceEngine};
use crate::host_f16::HostF16Engine;
use crate::int8::Int8Engine;
use crate::perf::{charge_emulated, schedule_from_sample};
use me_engine::{catalog, EngineKind, ExecutionModel, NumericFormat};

/// One (substrate, input-range) cell of the FP16-vs-INT8 comparison.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Substrate label: `"f16-host"`, `"f16-me"` or `"int8"`.
    pub config: &'static str,
    /// Input dynamic range in decades (Table VIII's 8 / 16 / 32).
    pub range_decades: f64,
    /// Slices per operand at this range.
    pub slices: usize,
    /// Slice-pair products executed on the engine.
    pub products: usize,
    /// Effective FP64-equivalent throughput.
    pub tflops: f64,
    /// Average power draw over the emulated GEMM.
    pub watt: f64,
    /// Total energy for one n×n emulated GEMM.
    pub joules: f64,
    /// Energy efficiency in effective Gflop/J.
    pub gflops_per_joule: f64,
}

/// Problem size for the comparison (matches Table VIII's n = 8192).
const N: usize = 8192;
const SAMPLE_N: usize = 48;
/// Table VIII's input ranges, in decades.
const RANGES: [f64; 3] = [8.0, 16.0, 32.0];

/// One cell: `engine`'s schedule at `decades`, its slice products charged
/// as `(kind, fmt)` GEMMs on `model`.
fn row<E: SliceEngine>(
    config: &'static str,
    engine: &E,
    model: &ExecutionModel,
    kind: EngineKind,
    fmt: NumericFormat,
    decades: f64,
) -> EnergyRow {
    let seed = 0x5eed ^ decades.to_bits();
    let (slices, products) = schedule_from_sample(engine, N, decades, SAMPLE_N, seed);
    let perf = charge_emulated(model, kind, fmt, N, slices, products);
    let joules = perf.avg_power_w * perf.total_time_s;
    let eff_flops = perf.effective_tflops * 1e12 * perf.total_time_s;
    EnergyRow {
        config,
        range_decades: decades,
        slices: perf.slices,
        products: perf.products,
        tflops: perf.effective_tflops,
        watt: perf.avg_power_w,
        joules,
        gflops_per_joule: eff_flops / 1e9 / joules,
    }
}

/// The six-row comparison: FP16-ME and INT8 emulation on the A100 at
/// n = 8192 for input ranges of 8, 16 and 32 decades, DGEMM-equivalent
/// accuracy on both.
pub fn int8_vs_f16_rows() -> Vec<EnergyRow> {
    let a100 = ExecutionModel::new(catalog::a100());
    let me = EngineKind::MatrixEngine;
    RANGES
        .iter()
        .flat_map(|&d| {
            [
                // The FP16 substrate on the A100's FP16 Tensor Cores, so
                // the device is held fixed across the comparison.
                row("f16-me", &OzakiConfig::dgemm_tc(), &a100, me, NumericFormat::F16xF32, d),
                row("int8", &Int8Engine::default(), &a100, me, NumericFormat::I8, d),
            ]
        })
        .collect()
}

/// The complete three-substrate comparison: FP16-host (the measured
/// [`crate::host_f16`] path, charged on the Xeon Gold 6148's f32 SIMD
/// peak), FP16-ME and INT8 (both on the A100's Tensor Cores), at n = 8192
/// for input ranges of 8, 16 and 32 decades — nine rows, three per range,
/// DGEMM-equivalent accuracy everywhere.
///
/// The host arm runs the *same* schedule as FP16-ME (identical β by
/// construction, see `host_f16_matches_simulated_me_bitwise`); only the
/// charged substrate differs, which is exactly the paper's §V question:
/// what does the matrix engine buy over the host SIMD units it displaced.
pub fn host_f16_vs_me_vs_int8_rows() -> Vec<EnergyRow> {
    let a100 = ExecutionModel::new(catalog::a100());
    let xeon = ExecutionModel::new(catalog::xeon_gold_6148());
    let (me, simd) = (EngineKind::MatrixEngine, EngineKind::Simd);
    RANGES
        .iter()
        .flat_map(|&d| {
            [
                row("f16-host", &HostF16Engine::default(), &xeon, simd, NumericFormat::F32, d),
                row("f16-me", &OzakiConfig::dgemm_tc(), &a100, me, NumericFormat::F16xF32, d),
                row("int8", &Int8Engine::default(), &a100, me, NumericFormat::I8, d),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_rows_three_ranges_two_substrates() {
        let rows = int8_vs_f16_rows();
        assert_eq!(rows.len(), 6);
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].config, "f16-me");
            assert_eq!(pair[1].config, "int8");
            assert_eq!(pair[0].range_decades, pair[1].range_decades);
        }
    }

    #[test]
    fn int8_beats_f16_on_throughput_and_efficiency_at_every_range() {
        // The 2× engine peak more than pays for the extra slice products
        // from β = 6 vs β = 7 slices at every Table VIII range.
        for pair in int8_vs_f16_rows().chunks(2) {
            let (f16, i8r) = (&pair[0], &pair[1]);
            assert!(
                i8r.tflops > f16.tflops,
                "range 1e{}: int8 {} TFLOP/s vs f16 {}",
                f16.range_decades,
                i8r.tflops,
                f16.tflops
            );
            assert!(
                i8r.gflops_per_joule > f16.gflops_per_joule,
                "range 1e{}: int8 {} Gflop/J vs f16 {}",
                f16.range_decades,
                i8r.gflops_per_joule,
                f16.gflops_per_joule
            );
        }
    }

    #[test]
    fn power_stays_below_device_tdp() {
        for r in int8_vs_f16_rows() {
            assert!(r.watt > 0.0 && r.watt <= 400.0, "{}: {} W", r.config, r.watt);
        }
    }

    #[test]
    fn more_slices_at_wider_range() {
        let rows = int8_vs_f16_rows();
        // Within each substrate, slices grow monotonically with range.
        for cfg in ["f16-me", "int8"] {
            let s: Vec<usize> = rows.iter().filter(|r| r.config == cfg).map(|r| r.slices).collect();
            assert!(s[0] <= s[1] && s[1] <= s[2], "{cfg}: {s:?}");
        }
    }

    #[test]
    fn nine_rows_three_ranges_three_substrates() {
        let rows = host_f16_vs_me_vs_int8_rows();
        assert_eq!(rows.len(), 9);
        for triple in rows.chunks(3) {
            assert_eq!(triple[0].config, "f16-host");
            assert_eq!(triple[1].config, "f16-me");
            assert_eq!(triple[2].config, "int8");
            assert_eq!(triple[0].range_decades, triple[1].range_decades);
            assert_eq!(triple[1].range_decades, triple[2].range_decades);
            // Same β, same schedule: the host arm runs the f16-me schedule
            // verbatim, so the comparison isolates the substrate.
            assert_eq!(triple[0].slices, triple[1].slices);
            assert_eq!(triple[0].products, triple[1].products);
        }
    }

    #[test]
    fn matrix_engine_dominates_host_simd_at_every_range() {
        // The paper's §V gap: A100 FP16 Tensor Cores (312 TFLOP/s) vs the
        // Xeon 6148's f32 SIMD peak (2.4 TFLOP/s) on the identical slice
        // schedule — two orders of magnitude in effective throughput, and
        // better energy per flop despite the CPU's lower TDP.
        for triple in host_f16_vs_me_vs_int8_rows().chunks(3) {
            let (host, me) = (&triple[0], &triple[1]);
            assert!(
                me.tflops > 10.0 * host.tflops,
                "range 1e{}: f16-me {} TFLOP/s vs f16-host {}",
                host.range_decades,
                me.tflops,
                host.tflops
            );
            assert!(
                me.gflops_per_joule > host.gflops_per_joule,
                "range 1e{}: f16-me {} Gflop/J vs f16-host {}",
                host.range_decades,
                me.gflops_per_joule,
                host.gflops_per_joule
            );
        }
    }

    #[test]
    fn host_rows_stay_below_cpu_tdp() {
        for r in host_f16_vs_me_vs_int8_rows() {
            let cap = if r.config == "f16-host" { 150.0 } else { 400.0 };
            assert!(r.watt > 0.0 && r.watt <= cap, "{}: {} W", r.config, r.watt);
        }
    }
}
