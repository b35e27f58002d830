//! Model-invariant auditor.
//!
//! The static scanner checks the *source*; this module checks the
//! *data*: every device in the `me-engine` catalog and every domain
//! table in the `me-model` extrapolation must satisfy the physical and
//! arithmetic invariants the paper's tables rely on:
//!
//! - **density** — the GF/mm² figures of Table I equal peak flop/s ÷
//!   die area (cross-checked against an independently-stated copy of
//!   the published numbers, [`me_engine::catalog::declared_densities`]);
//! - **power** — `TDP ≥ idle > 0` for every device, and activity
//!   factors lie in `(0, 1]`;
//! - **memory** — modeled memory time scales with *bytes*, not element
//!   counts: a memory-bound GEMM must take ~2× longer in f64 than f32;
//! - **mixes** — domain shares of every machine mix sum to 1,
//!   accelerable fractions lie in `[0, 1]`, and the Amdahl reduction is
//!   monotone in the speedup hypothesis.
//!
//! All energy/power arithmetic goes through the typed units of
//! [`me_numerics::units`] so the auditor itself cannot commit the
//! dimensional mix-ups it polices.

use me_engine::catalog::{self, Device};
use me_engine::{EngineKind, ExecutionModel, GemmShape, NumericFormat};
use me_model::{MachineMix, MeSpeedup};
use me_numerics::{Joules, Seconds, Watts};

/// Relative tolerance for the declared-vs-computed density cross-check
/// (the paper rounds Table I to one decimal).
pub const DENSITY_TOLERANCE: f64 = 0.02;

/// Run the full audit: catalog plus model. Returns violation messages
/// (empty = everything holds).
pub fn audit_all() -> Vec<String> {
    let mut v = audit_catalog();
    v.extend(audit_model());
    v
}

/// Audit one device's intrinsic invariants.
pub fn audit_device(d: &Device) -> Vec<String> {
    let mut v = Vec::new();
    let tdp = Watts(d.tdp_w);
    let idle = Watts(d.idle_w);
    if !(tdp > Watts::ZERO) {
        v.push(format!("{}: TDP {tdp} must be positive", d.name));
    }
    if !(idle > Watts::ZERO) {
        v.push(format!("{}: idle power {idle} must be positive", d.name));
    }
    if idle > tdp {
        v.push(format!("{}: idle power {idle} exceeds TDP {tdp}", d.name));
    }
    if !(d.mem_bw_gbs > 0.0) {
        v.push(format!("{}: memory bandwidth {} GB/s must be positive", d.name, d.mem_bw_gbs));
    }
    if let Some(die) = d.die_mm2 {
        if !(die > 0.0) {
            v.push(format!("{}: die area {die} mm² must be positive", d.name));
        }
    }
    for &(engine, fmt, peak) in &d.peaks {
        if !(peak > 0.0) {
            v.push(format!(
                "{}: peak for ({}, {fmt:?}) is {peak} Gflop/s, must be positive",
                d.name,
                engine.label()
            ));
        }
        let a = d.activity(engine, fmt);
        if !(a > 0.0 && a <= 1.0) {
            v.push(format!(
                "{}: activity factor {a} for ({}, {fmt:?}) outside (0, 1]",
                d.name,
                engine.label()
            ));
        }
    }
    for i in 0..d.peaks.len() {
        for j in i + 1..d.peaks.len() {
            if d.peaks[i].0 == d.peaks[j].0 && d.peaks[i].1 == d.peaks[j].1 {
                v.push(format!(
                    "{}: duplicate peak entry for ({}, {:?})",
                    d.name,
                    d.peaks[i].0.label(),
                    d.peaks[i].1
                ));
            }
        }
    }
    v
}

/// Cross-check one declared GF/mm² figure against `peak ÷ die`.
pub fn check_density(d: &Device, fmt: NumericFormat, declared: f64) -> Option<String> {
    let Some(computed) = d.compute_density(fmt) else {
        return Some(format!(
            "{}: Table I declares {declared} GF/mm² for {fmt:?} but the catalog cannot compute a density (missing die size or peak)",
            d.name
        ));
    };
    let rel = (computed - declared).abs() / declared;
    if rel > DENSITY_TOLERANCE {
        return Some(format!(
            "{}: {fmt:?} density mismatch: declared {declared} GF/mm², computed {computed:.2} (peak ÷ die), off by {:.1}%",
            d.name,
            rel * 100.0
        ));
    }
    None
}

/// Memory-time invariant: on a memory-bound shape, f64 must take ~2× the
/// time of f32 (bytes, not element counts, divide the bandwidth).
pub fn check_memory_uses_bytes(d: &Device) -> Option<String> {
    // A rank-1-ish update: huge output, tiny compute → memory-bound on
    // any device in the catalog.
    let shape = GemmShape { m: 4096, n: 4096, k: 1 };
    // Static half: the byte formula itself must scale with element size.
    if (shape.bytes(8) - 2.0 * shape.bytes(4)).abs() > 1e-6 {
        return Some(format!(
            "{}: GemmShape::bytes(8) != 2 × bytes(4) — byte accounting is not element-size linear",
            d.name
        ));
    }
    // Model half: the executed times must show the same 2× ratio.
    let model = ExecutionModel::new(d.clone());
    let t64 = model.gemm(shape, EngineKind::Simd, NumericFormat::F64).ok()?;
    let t32 = model.gemm(shape, EngineKind::Simd, NumericFormat::F32).ok()?;
    let (t64, t32) = (t64.time(), t32.time());
    if !(t32 > Seconds::ZERO) {
        return Some(format!("{}: zero modeled time for a memory-bound GEMM", d.name));
    }
    let ratio = t64 / t32;
    if (ratio - 2.0).abs() > 0.1 {
        return Some(format!(
            "{}: memory-bound f64/f32 time ratio is {ratio:.3}, expected ~2 — memory time may be counting elements, not bytes",
            d.name
        ));
    }
    None
}

/// Audit the whole device catalog (Table I + Fig 2 + the measurement
/// platforms), including the declared-density cross-check.
pub fn audit_catalog() -> Vec<String> {
    let mut v = Vec::new();
    let mut devices: Vec<Device> = catalog::table1_devices();
    devices.extend(catalog::fig2_devices());
    devices.push(catalog::xeon_e5_2650v4_2s());
    devices.push(catalog::a64fx());
    let mut seen: Vec<&str> = Vec::new();
    for d in &devices {
        if seen.contains(&d.name) {
            continue;
        }
        seen.push(d.name);
        v.extend(audit_device(d));
        // Bytes-vs-elements check needs both f64 and f32 SIMD peaks.
        let has = |f| d.peak_gflops(EngineKind::Simd, f).is_some();
        if has(NumericFormat::F64) && has(NumericFormat::F32) {
            v.extend(check_memory_uses_bytes(d));
        }
    }
    for (name, fmt, declared) in catalog::declared_densities() {
        let Some(d) = devices.iter().find(|d| d.name == name) else {
            v.push(format!("declared density references unknown device `{name}`"));
            continue;
        };
        v.extend(check_density(d, fmt, declared));
    }
    v
}

/// Audit one machine mix's Amdahl invariants.
pub fn audit_mix(mix: &MachineMix) -> Vec<String> {
    let mut v = Vec::new();
    let share_sum: f64 = mix.entries.iter().map(|e| e.share).sum();
    if (share_sum - 1.0).abs() > 1e-9 {
        v.push(format!("{}: domain shares sum to {share_sum}, expected 1", mix.name));
    }
    for e in &mix.entries {
        if !(0.0..=1.0).contains(&e.accelerable) {
            v.push(format!(
                "{}: domain {} accelerable fraction {} outside [0, 1]",
                mix.name, e.domain, e.accelerable
            ));
        }
        if e.share < 0.0 {
            v.push(format!("{}: domain {} has negative share {}", mix.name, e.domain, e.share));
        }
    }
    // A speedup of 1 saves nothing; reductions grow monotonically with
    // the hypothesis and cap at the total accelerable fraction.
    if mix.node_hour_reduction(MeSpeedup::Finite(1.0)).abs() > 1e-12 {
        v.push(format!("{}: speedup 1 must give zero reduction", mix.name));
    }
    let cap = mix.total_accelerable();
    if !(0.0..=1.0).contains(&cap) {
        v.push(format!("{}: total accelerable fraction {cap} outside [0, 1]", mix.name));
    }
    let mut prev = 0.0;
    for s in [1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 128.0] {
        let r = mix.node_hour_reduction(MeSpeedup::Finite(s));
        if r + 1e-12 < prev {
            v.push(format!("{}: reduction not monotone at speedup {s}", mix.name));
        }
        if r > cap + 1e-12 {
            v.push(format!("{}: reduction at speedup {s} exceeds the s→∞ cap {cap}", mix.name));
        }
        prev = r;
    }
    v
}

/// Audit the extrapolation model: the three published machine mixes plus
/// the typed energy-accounting identities.
pub fn audit_model() -> Vec<String> {
    let mut v = Vec::new();
    for mix in
        [MachineMix::k_computer_default(), MachineMix::anl_default(), MachineMix::future_default()]
    {
        v.extend(audit_mix(&mix));
    }
    // BERT occupancy (Fig 4c input) must be a proper fraction.
    let occ = me_model::bert_occupancy_from_tc_comp(55.26);
    if !(occ > 0.0 && occ < 1.0) {
        v.push(format!("bert_occupancy_from_tc_comp(55.26) = {occ}, expected a fraction"));
    }
    // Dimensional identities of the typed energy API: a year of 1 W is
    // the Julian-year second count in joules, and saved power × window
    // recovers saved energy exactly.
    let year = MachineMix::annual_energy(Watts(1.0));
    if (year.0 - 365.25 * 24.0 * 3600.0).abs() > 1e-3 {
        v.push(format!("annual_energy(1 W) = {year}, expected one Julian year in joules"));
    }
    let mix = MachineMix::k_computer_default();
    let budget = MachineMix::annual_energy(Watts(12.66e6));
    let speedup = MeSpeedup::Finite(4.0);
    let saved = mix.energy_saved(budget, speedup);
    if saved > budget || saved < Joules::ZERO {
        v.push(format!("energy_saved {saved} outside [0, budget {budget}]"));
    }
    let window = Seconds(365.25 * 24.0 * 3600.0);
    let p = mix.power_saved(budget, window, speedup);
    let roundtrip = p * window;
    if ((roundtrip - saved) / saved).abs() > 1e-12 {
        v.push(format!("power_saved × window = {roundtrip} != energy_saved {saved}"));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately-broken device spec: idle above TDP, a negative
    /// peak, zero bandwidth, and a duplicate peak entry.
    fn broken_device() -> Device {
        let mut d = catalog::v100();
        d.name = "Broken Fixture";
        d.tdp_w = 100.0;
        d.idle_w = 150.0;
        d.mem_bw_gbs = 0.0;
        d.peaks.push((EngineKind::Simd, NumericFormat::F64, -5.0));
        d
    }

    #[test]
    fn shipping_catalog_is_clean() {
        let v = audit_catalog();
        assert!(v.is_empty(), "catalog violations: {v:#?}");
    }

    #[test]
    fn shipping_model_is_clean() {
        let v = audit_model();
        assert!(v.is_empty(), "model violations: {v:#?}");
    }

    #[test]
    fn broken_fixture_trips_every_power_and_peak_check() {
        let v = audit_device(&broken_device());
        assert!(v.iter().any(|m| m.contains("exceeds TDP")), "{v:#?}");
        assert!(
            v.iter().any(|m| m.contains("must be positive") && m.contains("Gflop/s")),
            "{v:#?}"
        );
        assert!(v.iter().any(|m| m.contains("bandwidth")), "{v:#?}");
        assert!(v.iter().any(|m| m.contains("duplicate peak")), "{v:#?}");
    }

    #[test]
    fn density_check_catches_a_wrong_die_size() {
        let mut d = catalog::v100();
        d.die_mm2 = Some(400.0); // true: 815 mm²
        let msg = check_density(&d, NumericFormat::F16, 153.4);
        assert!(msg.is_some_and(|m| m.contains("density mismatch")));
        // And the honest spec passes.
        assert!(check_density(&catalog::v100(), NumericFormat::F16, 153.4).is_none());
    }

    #[test]
    fn density_check_catches_a_missing_die() {
        let mut d = catalog::v100();
        d.die_mm2 = None;
        let msg = check_density(&d, NumericFormat::F16, 153.4);
        assert!(msg.is_some_and(|m| m.contains("cannot compute")));
    }

    #[test]
    fn memory_check_accepts_the_shipping_v100() {
        assert_eq!(check_memory_uses_bytes(&catalog::v100()), None);
    }

    #[test]
    fn mix_audit_catches_bad_shares_and_nonmonotonicity() {
        // Bypass MachineMix::new (which asserts) to build invalid data,
        // exactly what the auditor must catch if construction paths drift.
        let mix = MachineMix {
            name: "broken".into(),
            entries: vec![me_model::MixEntry {
                domain: "x".into(),
                representative: "y".into(),
                share: 0.7,
                accelerable: 1.4,
            }],
        };
        let v = audit_mix(&mix);
        assert!(v.iter().any(|m| m.contains("shares sum")), "{v:#?}");
        assert!(v.iter().any(|m| m.contains("outside [0, 1]")), "{v:#?}");
    }

    #[test]
    fn full_audit_is_clean() {
        let v = audit_all();
        assert!(v.is_empty(), "{v:#?}");
    }
}
