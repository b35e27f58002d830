//! The silicon-budget question of §II-C: *"with Moore's law ending, adding
//! architecture support is no longer free, but comes at the expense of
//! removing something else."*
//!
//! This module prices the alternatives: given a die-area budget, compare
//! spending it on a matrix engine (accelerating only the GEMM fraction)
//! against spending it on more general cores/SIMD (accelerating
//! everything, at general-purpose compute density). Combined with a
//! workload's GEMM fraction it answers which investment buys more
//! machine-level throughput — the paper's central trade-off, quantified.

/// An option for spending die area.
#[derive(Debug, Clone)]
pub struct SiliconOption {
    /// Option label.
    pub name: String,
    /// Compute density of the added silicon, Gflop/s per mm² (in the
    /// workload's precision).
    pub density_gf_mm2: f64,
    /// Fraction of the workload the added silicon can accelerate
    /// (1.0 for general cores, the GEMM fraction for an ME).
    pub applicable_fraction: f64,
}

/// Machine-level speedup from adding `area_mm2` of an option to a baseline
/// device with `base_gflops` of general throughput, running a workload
/// where the option applies to `applicable_fraction` of the time.
///
/// The accelerated fraction's new rate is `base + added` (the added silicon
/// works alongside the existing units on the portion it applies to).
pub fn machine_speedup(opt: &SiliconOption, area_mm2: f64, base_gflops: f64) -> f64 {
    assert!(area_mm2 >= 0.0 && base_gflops > 0.0);
    let added = opt.density_gf_mm2 * area_mm2;
    let f = opt.applicable_fraction.clamp(0.0, 1.0);
    let accel = (base_gflops + added) / base_gflops;
    1.0 / ((1.0 - f) + f / accel)
}

/// The break-even GEMM fraction: the workload GEMM share above which an ME
/// (with `me_density`) beats general silicon (with `general_density`) for
/// the same area. Returns `None` if the ME never wins (density ratio ≤ 1).
pub fn break_even_gemm_fraction(
    me_density: f64,
    general_density: f64,
    area_mm2: f64,
    base_gflops: f64,
) -> Option<f64> {
    if me_density <= general_density {
        return None;
    }
    // Bisect on the GEMM fraction.
    let wins = |f: f64| {
        let me =
            SiliconOption { name: "me".into(), density_gf_mm2: me_density, applicable_fraction: f };
        let gen = SiliconOption {
            name: "general".into(),
            density_gf_mm2: general_density,
            applicable_fraction: 1.0,
        };
        machine_speedup(&me, area_mm2, base_gflops) >= machine_speedup(&gen, area_mm2, base_gflops)
    };
    if !wins(1.0) {
        return None;
    }
    if wins(0.0) {
        return Some(0.0);
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if wins(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn me() -> SiliconOption {
        // V100-class TC density (Table I: 153 GF/mm² f16), applied to a
        // workload that is 10% GEMM.
        SiliconOption { name: "ME".into(), density_gf_mm2: 153.0, applicable_fraction: 0.10 }
    }

    fn general() -> SiliconOption {
        // General CUDA-core density: 15.7 Tflop/s f32 over 815 mm² ≈ 19.
        SiliconOption { name: "general".into(), density_gf_mm2: 19.3, applicable_fraction: 1.0 }
    }

    #[test]
    fn zero_area_is_identity() {
        assert_eq!(machine_speedup(&me(), 0.0, 15_700.0), 1.0);
        assert_eq!(machine_speedup(&general(), 0.0, 15_700.0), 1.0);
    }

    #[test]
    fn low_gemm_workloads_prefer_general_silicon() {
        // At 10% GEMM (the HPC average neighborhood), 100 mm² of general
        // silicon beats 100 mm² of 8x-denser ME silicon.
        let s_me = machine_speedup(&me(), 100.0, 15_700.0);
        let s_gen = machine_speedup(&general(), 100.0, 15_700.0);
        assert!(
            s_gen > s_me,
            "general {s_gen} must beat ME {s_me} at 10% GEMM — the paper's conclusion"
        );
    }

    #[test]
    fn gemm_dominated_workloads_prefer_the_me() {
        let mut m = me();
        m.applicable_fraction = 0.95; // DL training
        let s_me = machine_speedup(&m, 100.0, 15_700.0);
        let s_gen = machine_speedup(&general(), 100.0, 15_700.0);
        assert!(s_me > s_gen, "ME {s_me} must beat general {s_gen} at 95% GEMM");
    }

    #[test]
    fn break_even_is_between_the_extremes() {
        let be = break_even_gemm_fraction(153.0, 19.3, 100.0, 15_700.0).unwrap();
        assert!(be > 0.1 && be < 0.95, "break-even fraction {be}");
        // And it is consistent: just above wins, just below loses.
        let mut m = me();
        m.applicable_fraction = be + 0.02;
        assert!(
            machine_speedup(&m, 100.0, 15_700.0) >= machine_speedup(&general(), 100.0, 15_700.0)
        );
        m.applicable_fraction = be - 0.02;
        assert!(
            machine_speedup(&m, 100.0, 15_700.0) <= machine_speedup(&general(), 100.0, 15_700.0)
        );
    }

    #[test]
    fn no_break_even_when_me_is_not_denser() {
        assert!(break_even_gemm_fraction(10.0, 19.3, 100.0, 15_700.0).is_none());
    }

    #[test]
    fn speedup_monotone_in_area() {
        let s1 = machine_speedup(&me(), 50.0, 15_700.0);
        let s2 = machine_speedup(&me(), 200.0, 15_700.0);
        assert!(s2 > s1);
        // But bounded by Amdahl: 10% GEMM caps at 1/0.9.
        assert!(s2 < 1.0 / 0.9 + 1e-9);
    }
}
