//! The Fig 4 extrapolation model: machine mixes, ME speedup hypotheses,
//! and the Amdahl aggregation over a machine's science-domain shares.
//!
//! Energy-facing helpers take and return the typed units of
//! [`me_numerics::units`] ([`Joules`], [`Watts`], [`Seconds`]) so a
//! node-hour/energy mix-up is a compile error, not a silent factor.

use me_numerics::{Joules, Seconds, Watts};

/// A matrix-engine speedup hypothesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeSpeedup {
    /// Finite speedup factor (> 1).
    Finite(f64),
    /// The limiting case of an infinitely fast engine.
    Infinite,
}

impl MeSpeedup {
    /// The Amdahl saving factor `1 − 1/s`.
    pub fn saving_factor(self) -> f64 {
        match self {
            MeSpeedup::Finite(s) => {
                assert!(s >= 1.0, "speedup must be >= 1, got {s}");
                1.0 - 1.0 / s
            }
            MeSpeedup::Infinite => 1.0,
        }
    }
}

/// One domain (or workload-class) entry of a machine's mix.
#[derive(Debug, Clone)]
pub struct MixEntry {
    /// Domain label.
    pub domain: String,
    /// Representative application the fraction was measured on.
    pub representative: String,
    /// Share of the machine's node-hours (sums to 1 across the mix).
    pub share: f64,
    /// Fraction of the representative's runtime a ME can accelerate
    /// (GEMM + (Sca)LAPACK, per the paper's Fig 4 assumption).
    pub accelerable: f64,
}

/// A machine's workload mix.
#[derive(Debug, Clone)]
pub struct MachineMix {
    /// Machine name.
    pub name: String,
    /// Mix entries.
    pub entries: Vec<MixEntry>,
}

impl MachineMix {
    /// Construct a mix, validating shares and fractions.
    pub fn new(name: &str, entries: Vec<MixEntry>) -> MachineMix {
        let share_sum: f64 = entries.iter().map(|e| e.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-6, "{name}: shares sum to {share_sum}, expected 1");
        for e in &entries {
            assert!(
                (0.0..=1.0).contains(&e.accelerable),
                "{}: accelerable fraction {} out of range",
                e.domain,
                e.accelerable
            );
            assert!(e.share >= 0.0, "{}: negative share", e.domain);
        }
        MachineMix { name: name.to_string(), entries }
    }

    /// Relative node-hour reduction under an ME speedup hypothesis.
    pub fn node_hour_reduction(&self, speedup: MeSpeedup) -> f64 {
        let f = speedup.saving_factor();
        self.entries.iter().map(|e| e.share * e.accelerable * f).sum()
    }

    /// Node-hours consumed after ME adoption, relative to today (1.0).
    pub fn relative_node_hours(&self, speedup: MeSpeedup) -> f64 {
        1.0 - self.node_hour_reduction(speedup)
    }

    /// Sweep the reduction over a range of speedups (for the continuous
    /// Fig 4 ablation curve).
    pub fn sweep(&self, speedups: &[f64]) -> Vec<(f64, f64)> {
        speedups.iter().map(|&s| (s, self.node_hour_reduction(MeSpeedup::Finite(s)))).collect()
    }

    /// The machine-wide accelerable fraction (the `s → ∞` reduction).
    pub fn total_accelerable(&self) -> f64 {
        self.node_hour_reduction(MeSpeedup::Infinite)
    }

    /// K computer (Fig 4a): domain shares from the K annual report, RIKEN
    /// Fiber representatives. Material science is represented by FFB,
    /// MODYLAS and QCD in equal fractions (all ≈ 0 accelerable); "other"
    /// applications are assumed to spend 10% in GEMM.
    ///
    /// `chem`, `phys` are the accelerable fractions of NTChem and mVMC as
    /// measured by the profiling pipeline (paper: 0.2673 and 0.1435).
    pub fn k_computer(chem: f64, phys: f64) -> MachineMix {
        MachineMix::new(
            "K computer",
            vec![
                mix("material science", "FFB+MODYLAS+QCD", 0.45, 0.0),
                mix("chemistry", "NTChem", 0.23, chem),
                mix("geoscience", "NICAM", 0.13, 0.0),
                mix("biology", "NGSA", 0.12, 0.0),
                mix("physics", "mVMC", 0.065, phys),
                mix("other", "(assumed)", 0.005, 0.10),
            ],
        )
    }

    /// K computer with the paper's measured fractions.
    pub fn k_computer_default() -> MachineMix {
        Self::k_computer(0.2578 + 0.0095, 0.1435)
    }

    /// Argonne LCF (Fig 4b): Laghos represents the 30% physics share,
    /// Nekbone the 22% engineering share, 20% "other" at 10% GEMM, and the
    /// remaining 28% of node-hours in domains without dense algebra.
    pub fn anl(laghos: f64, nekbone: f64) -> MachineMix {
        MachineMix::new(
            "ANL",
            vec![
                mix("physics", "Laghos", 0.30, laghos),
                mix("engineering", "Nekbone", 0.22, nekbone),
                mix("other", "(assumed)", 0.20, 0.10),
                mix("remaining", "(no dense algebra)", 0.28, 0.0),
            ],
        )
    }

    /// ANL with the paper's measured fractions.
    pub fn anl_default() -> MachineMix {
        Self::anl(0.4124, 0.0458)
    }

    /// Fictional future system (Fig 4c): `ai_share` of cycles on AI/DL
    /// (BERT at 83.2% GEMM occupancy, the paper's footnote 15), the rest
    /// spread equally over eight science domains, each represented by its
    /// highest-GEMM application.
    pub fn future_system(ai_share: f64, ai_occupancy: f64) -> MachineMix {
        assert!((0.0..1.0).contains(&ai_share));
        let science = (1.0 - ai_share) / 8.0;
        MachineMix::new(
            "Future system",
            vec![
                mix("AI/DL", "BERT", ai_share, ai_occupancy),
                mix("math/CS", "HPL", science, 0.7681),
                mix("physics", "Laghos", science, 0.4124),
                mix("chemistry", "NTChem", science, 0.2673),
                mix("material science", "socorro", science, 0.1025),
                mix("engineering", "Nekbone", science, 0.0458),
                mix("lattice QCD", "QCD", science, 0.0),
                mix("geoscience", "NICAM", science, 0.0),
                mix("bioscience", "NGSA", science, 0.0),
            ],
        )
    }

    /// Future system with the paper's parameters (20% AI, BERT at 83.2%).
    pub fn future_default() -> MachineMix {
        Self::future_system(0.20, 0.832)
    }

    /// Energy saved out of an energy budget by ME adoption: node-hours are
    /// proportional to energy at fixed mean node power, so the budget
    /// shrinks by the node-hour reduction (the §III-A "energy consumption"
    /// remark quantified at machine scale).
    pub fn energy_saved(&self, budget: Joules, speedup: MeSpeedup) -> Joules {
        budget * self.node_hour_reduction(speedup)
    }

    /// Mean power saved over an accounting window — e.g. a machine's annual
    /// energy budget over one year gives the average MW that an ME frees up.
    pub fn power_saved(&self, budget: Joules, window: Seconds, speedup: MeSpeedup) -> Watts {
        self.energy_saved(budget, speedup) / window
    }

    /// Annual energy budget of a machine drawing `mean_power` around the
    /// clock (convenience for [`MachineMix::energy_saved`]).
    pub fn annual_energy(mean_power: Watts) -> Joules {
        mean_power * Seconds(365.25 * 24.0 * 3600.0)
    }
}

fn mix(domain: &str, representative: &str, share: f64, accelerable: f64) -> MixEntry {
    MixEntry {
        domain: domain.to_string(),
        representative: representative.to_string(),
        share,
        accelerable,
    }
}

/// BERT's GEMM occupancy derived the way the paper's footnote 15 does:
/// from the %TC-comp `p` measured in Table IV, assuming TCs give a 4x
/// speedup over the FP16 baseline: `4p / (4p + (100 − p))`.
pub fn bert_occupancy_from_tc_comp(pct_tc_comp: f64) -> f64 {
    let p = pct_tc_comp;
    4.0 * p / (4.0 * p + (100.0 - p))
}

/// Plain Amdahl: overall speedup when a fraction `f` runs `s`× faster.
pub fn amdahl_speedup(f: f64, s: f64) -> f64 {
    assert!((0.0..=1.0).contains(&f));
    assert!(s >= 1.0);
    1.0 / ((1.0 - f) + f / s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_k_computer() {
        let k = MachineMix::k_computer_default();
        // Paper: 4x ME → 5.3% reduction, infinite → 7.1%.
        let r4 = k.node_hour_reduction(MeSpeedup::Finite(4.0));
        assert!((r4 - 0.053).abs() < 0.003, "K 4x reduction {r4}");
        let rinf = k.node_hour_reduction(MeSpeedup::Infinite);
        assert!((rinf - 0.071).abs() < 0.003, "K infinite reduction {rinf}");
    }

    #[test]
    fn fig4b_anl() {
        let anl = MachineMix::anl_default();
        // Paper: 4x ME → 11.5% reduction.
        let r4 = anl.node_hour_reduction(MeSpeedup::Finite(4.0));
        assert!((r4 - 0.115).abs() < 0.004, "ANL 4x reduction {r4}");
    }

    #[test]
    fn fig4c_future_system() {
        let f = MachineMix::future_default();
        // Paper: 4x → 23.8%, infinite → 32.8%. The representative choice
        // reproduces the paper within ~1 percentage point.
        let r4 = f.node_hour_reduction(MeSpeedup::Finite(4.0));
        assert!((r4 - 0.238).abs() < 0.015, "future 4x reduction {r4}");
        let rinf = f.node_hour_reduction(MeSpeedup::Infinite);
        assert!((rinf - 0.328).abs() < 0.015, "future infinite reduction {rinf}");
    }

    #[test]
    fn bert_occupancy_footnote() {
        // Footnote 15: 83.2% derived from BERT's %TC comp of 55.26.
        let occ = bert_occupancy_from_tc_comp(55.26);
        assert!((occ - 0.832).abs() < 0.002, "derived occupancy {occ}");
    }

    #[test]
    fn reduction_monotone_in_speedup() {
        let k = MachineMix::k_computer_default();
        let sweep = k.sweep(&[1.0, 2.0, 4.0, 8.0, 16.0, 1000.0]);
        for w in sweep.windows(2) {
            assert!(w[1].1 >= w[0].1, "reduction must be monotone: {sweep:?}");
        }
        assert_eq!(sweep[0].1, 0.0, "speedup 1 saves nothing");
        let limit = k.node_hour_reduction(MeSpeedup::Infinite);
        assert!(sweep.last().unwrap().1 <= limit);
        assert!((sweep.last().unwrap().1 - limit).abs() < 1e-3);
    }

    #[test]
    fn the_papers_conclusion_holds() {
        // §VII: "an overall science throughput improvement of ≈1.1x ...
        // might justify the investment" — existing machines' relative
        // node-hours shrink by only ~5-12%, i.e. ≤ 1.13x throughput.
        for m in [MachineMix::k_computer_default(), MachineMix::anl_default()] {
            let rel = m.relative_node_hours(MeSpeedup::Finite(4.0));
            let throughput_gain = 1.0 / rel;
            assert!(
                throughput_gain < 1.15,
                "{}: gain {throughput_gain} contradicts the paper's conclusion",
                m.name
            );
        }
    }

    #[test]
    fn ai_share_sensitivity() {
        // More AI -> more benefit (the Fig 4c lever).
        let lo = MachineMix::future_system(0.1, 0.832).node_hour_reduction(MeSpeedup::Finite(4.0));
        let hi = MachineMix::future_system(0.5, 0.832).node_hour_reduction(MeSpeedup::Finite(4.0));
        assert!(hi > lo);
    }

    #[test]
    fn amdahl_identities() {
        assert_eq!(amdahl_speedup(0.0, 8.0), 1.0);
        assert!((amdahl_speedup(1.0, 8.0) - 8.0).abs() < 1e-12);
        assert!((amdahl_speedup(0.5, 2.0) - 1.0 / 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shares sum")]
    fn rejects_bad_shares() {
        MachineMix::new("bad", vec![mix("a", "x", 0.5, 0.1)]);
    }

    #[test]
    #[should_panic(expected = "speedup must be >= 1")]
    fn rejects_slowdowns() {
        MeSpeedup::Finite(0.5).saving_factor();
    }

    #[test]
    fn typed_energy_accounting() {
        // K drew ~12.7 MW; a 4x ME frees its node-hour reduction of that.
        let k = MachineMix::k_computer_default();
        let budget = MachineMix::annual_energy(Watts(12.7e6));
        let saved = k.energy_saved(budget, MeSpeedup::Finite(4.0));
        let frac = saved / budget;
        assert!((frac - k.node_hour_reduction(MeSpeedup::Finite(4.0))).abs() < 1e-12);
        // Back out the mean power over the same year: reduction × 12.7 MW.
        let year = Seconds(365.25 * 24.0 * 3600.0);
        let p = k.power_saved(budget, year, MeSpeedup::Finite(4.0));
        assert!((p / Watts(12.7e6) - frac).abs() < 1e-12, "power saved {p}");
        // Infinite speedup saves more than any finite one.
        assert!(k.energy_saved(budget, MeSpeedup::Infinite) > saved);
    }
}
