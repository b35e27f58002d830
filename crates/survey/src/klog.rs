//! K-computer batch-job record analysis (paper §III-A).
//!
//! RIKEN's operational database recorded, for every MPI-launched job, the
//! application binary's symbol table (via `nm`). The paper queries one year
//! of records (Apr'18–Mar'19: 487,563 jobs over 543 M node-hours, 96% of
//! node-hours with symbol data) for GEMM symbols and attributes 53.4% of
//! covered node-hours to applications that *could* have executed GEMM.
//!
//! Here the corpus is generated synthetically with the published marginals
//! (job/node-hour totals, coverage, the K annual report's domain mix) and
//! the attribution query is executed for real: each job exposes an
//! `nm`-style symbol list, and the analyzer searches it with the same
//! classifier the profiler uses.

use me_numerics::Rng64;
use me_profiler::{classify_symbol, RegionClass};

/// Science domains of the K computer's annual utilization report (§IV-A):
/// material science 45%, chemistry 23%, geoscience 13%, biology 12%,
/// physics 6.5%, other 0.5%.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KDomain {
    /// Material science (45% of node-hours).
    MaterialScience,
    /// Chemistry (23%).
    Chemistry,
    /// Geoscience (13%).
    Geoscience,
    /// Biology (12%).
    Biology,
    /// Physics (6.5%).
    Physics,
    /// Other (0.5%).
    Other,
}

impl KDomain {
    /// All domains with their node-hour shares.
    pub fn shares() -> [(KDomain, f64); 6] {
        [
            (KDomain::MaterialScience, 0.45),
            (KDomain::Chemistry, 0.23),
            (KDomain::Geoscience, 0.13),
            (KDomain::Biology, 0.12),
            (KDomain::Physics, 0.065),
            (KDomain::Other, 0.005),
        ]
    }

    /// Probability (by node-hours) that an application in this domain links
    /// a GEMM symbol. Calibrated so the weighted total reproduces the
    /// paper's 53.4%: chemistry and physics codes link dense solvers almost
    /// always, geoscience stencils rarely.
    pub fn gemm_link_probability(self) -> f64 {
        match self {
            KDomain::MaterialScience => 0.50,
            KDomain::Chemistry => 0.75,
            KDomain::Geoscience => 0.30,
            KDomain::Biology => 0.45,
            KDomain::Physics => 0.70,
            KDomain::Other => 0.60,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            KDomain::MaterialScience => "material science",
            KDomain::Chemistry => "chemistry",
            KDomain::Geoscience => "geoscience",
            KDomain::Biology => "biology",
            KDomain::Physics => "physics",
            KDomain::Other => "other",
        }
    }
}

/// One batch-job record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id.
    pub id: u32,
    /// Science domain.
    pub domain: KDomain,
    /// Node-hours consumed.
    pub node_hours: f64,
    /// Whether symbol-table data was collected (96% of node-hours; absent
    /// for interactive/non-parallel jobs or when disabled by the user).
    pub has_symbol_data: bool,
    /// Whether the binary links GEMM symbols (drives `nm_symbols`).
    links_gemm: bool,
}

impl JobRecord {
    /// The `nm`-style symbol list of the job's binary (None when symbol
    /// collection was disabled). Fujitsu's compiler selectively includes
    /// individual math-kernel functions (paper footnote 5), so GEMM-linking
    /// binaries expose `dgemm_`-style entries directly.
    pub fn nm_symbols(&self) -> Option<Vec<&'static str>> {
        if !self.has_symbol_data {
            return None;
        }
        let mut syms = vec!["main", "mpi_init_", "mpi_finalize_", "compute_step_"];
        match self.domain {
            KDomain::MaterialScience => syms.push("force_loop_"),
            KDomain::Chemistry => syms.push("integral_kernel_"),
            KDomain::Geoscience => syms.push("advect_stencil_"),
            KDomain::Biology => syms.push("align_reads_"),
            KDomain::Physics => syms.push("update_lattice_"),
            KDomain::Other => syms.push("user_kernel_"),
        }
        if self.links_gemm {
            syms.push("dgemm_");
            syms.push("dgemv_");
        }
        Some(syms)
    }
}

/// Aggregates of the attribution query.
#[derive(Debug, Clone, PartialEq)]
pub struct KlogSummary {
    /// Total jobs in the corpus.
    pub total_jobs: usize,
    /// Total node-hours.
    pub total_node_hours: f64,
    /// Node-hours with symbol data.
    pub covered_node_hours: f64,
    /// Node-hours attributable to GEMM-linking applications.
    pub gemm_node_hours: f64,
}

impl KlogSummary {
    /// Fraction of covered node-hours with GEMM symbols (paper: 53.4%).
    pub fn gemm_share_of_covered(&self) -> f64 {
        if self.covered_node_hours == 0.0 {
            0.0
        } else {
            self.gemm_node_hours / self.covered_node_hours
        }
    }

    /// Symbol coverage by node-hours (paper: 96%).
    pub fn coverage(&self) -> f64 {
        if self.total_node_hours == 0.0 {
            0.0
        } else {
            self.covered_node_hours / self.total_node_hours
        }
    }
}

/// Shape parameters of the corpus generator.
#[derive(Debug, Clone)]
pub struct KCorpusShape {
    /// Number of jobs (paper: 487,563).
    pub jobs: usize,
    /// Total node-hours (paper: 543 million).
    pub total_node_hours: f64,
    /// Fraction of node-hours with symbol data (paper: 0.96).
    pub symbol_coverage: f64,
}

impl Default for KCorpusShape {
    fn default() -> Self {
        KCorpusShape { jobs: 487_563, total_node_hours: 543.0e6, symbol_coverage: 0.96 }
    }
}

/// Generate one year of K-computer job records.
pub fn generate_k_corpus(seed: u64) -> Vec<JobRecord> {
    generate_k_corpus_with(KCorpusShape::default(), seed)
}

/// Generate a corpus with an explicit shape (smaller corpora for tests).
pub fn generate_k_corpus_with(shape: KCorpusShape, seed: u64) -> Vec<JobRecord> {
    let mut rng = Rng64::seed_from_u64(seed);
    let shares = KDomain::shares();
    let mut jobs = Vec::with_capacity(shape.jobs);
    // Log-normal-ish job sizes: most jobs are small, node-hours dominated
    // by a heavy tail, like real batch systems.
    let mut raw_sizes: Vec<f64> = Vec::with_capacity(shape.jobs);
    let mut total_raw = 0.0;
    for _ in 0..shape.jobs {
        let z: f64 = rng.range_f64(-1.0, 1.0) + rng.range_f64(-1.0, 1.0);
        let size = (2.0 * z).exp();
        raw_sizes.push(size);
        total_raw += size;
    }
    let scale = shape.total_node_hours / total_raw;

    for (i, raw) in raw_sizes.into_iter().enumerate() {
        // Domain sampled by node-hour share (so the node-hour mix matches
        // the annual report in expectation).
        let mut pick: f64 = rng.next_f64();
        let mut domain = KDomain::Other;
        for (d, s) in shares {
            if pick < s {
                domain = d;
                break;
            }
            pick -= s;
        }
        let has_symbol_data = rng.chance(shape.symbol_coverage);
        let links_gemm = rng.chance(domain.gemm_link_probability());
        jobs.push(JobRecord {
            id: i as u32,
            domain,
            node_hours: raw * scale,
            has_symbol_data,
            links_gemm,
        });
    }
    jobs
}

/// Run the attribution query: search every job's symbol table for GEMM
/// entries (with the same classifier the profiler uses) and attribute its
/// node-hours.
pub fn attribute_gemm(jobs: &[JobRecord]) -> KlogSummary {
    let mut total_nh = 0.0;
    let mut covered = 0.0;
    let mut gemm = 0.0;
    for j in jobs {
        total_nh += j.node_hours;
        if let Some(syms) = j.nm_symbols() {
            covered += j.node_hours;
            if syms.iter().any(|s| classify_symbol(s) == RegionClass::Gemm) {
                gemm += j.node_hours;
            }
        }
    }
    KlogSummary {
        total_jobs: jobs.len(),
        total_node_hours: total_nh,
        covered_node_hours: covered,
        gemm_node_hours: gemm,
    }
}

/// Per-domain node-hour shares of a corpus (input to Fig 4a).
pub fn domain_node_hours(jobs: &[JobRecord]) -> Vec<(KDomain, f64)> {
    let mut acc: Vec<(KDomain, f64)> = KDomain::shares().iter().map(|&(d, _)| (d, 0.0)).collect();
    for j in jobs {
        if let Some(e) = acc.iter_mut().find(|(d, _)| *d == j.domain) {
            e.1 += j.node_hours;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus(seed: u64) -> Vec<JobRecord> {
        generate_k_corpus_with(
            KCorpusShape { jobs: 40_000, total_node_hours: 543.0e6, symbol_coverage: 0.96 },
            seed,
        )
    }

    #[test]
    fn corpus_matches_published_marginals() {
        let jobs = small_corpus(1);
        let s = attribute_gemm(&jobs);
        assert_eq!(s.total_jobs, 40_000);
        assert!((s.total_node_hours - 543.0e6).abs() < 1.0, "node-hour normalization");
        assert!((s.coverage() - 0.96).abs() < 0.02, "coverage {}", s.coverage());
        // The paper's headline: ~53.4% of covered node-hours GEMM-linked.
        let share = s.gemm_share_of_covered();
        assert!((share - 0.534).abs() < 0.03, "GEMM share {share}");
    }

    #[test]
    fn full_size_corpus_generates() {
        let jobs = generate_k_corpus(7);
        assert_eq!(jobs.len(), 487_563);
        let s = attribute_gemm(&jobs);
        assert!((s.gemm_share_of_covered() - 0.534).abs() < 0.02);
    }

    #[test]
    fn domain_mix_matches_annual_report() {
        let jobs = small_corpus(3);
        let by_domain = domain_node_hours(&jobs);
        let total: f64 = by_domain.iter().map(|(_, h)| h).sum();
        for (d, share) in KDomain::shares() {
            let got = by_domain.iter().find(|(x, _)| *x == d).unwrap().1 / total;
            assert!((got - share).abs() < 0.03, "{}: share {got} vs report {share}", d.label());
        }
    }

    #[test]
    fn symbols_classify_via_profiler_pipeline() {
        let jobs = small_corpus(5);
        let with = jobs.iter().find(|j| j.has_symbol_data && j.links_gemm).unwrap();
        let syms = with.nm_symbols().unwrap();
        assert!(syms.contains(&"dgemm_"));
        let without = jobs.iter().find(|j| !j.has_symbol_data).unwrap();
        assert!(without.nm_symbols().is_none());
    }

    #[test]
    fn attribution_ignores_uncovered_jobs() {
        let jobs = vec![
            JobRecord {
                id: 0,
                domain: KDomain::Chemistry,
                node_hours: 100.0,
                has_symbol_data: false,
                links_gemm: true,
            },
            JobRecord {
                id: 1,
                domain: KDomain::Physics,
                node_hours: 50.0,
                has_symbol_data: true,
                links_gemm: true,
            },
        ];
        let s = attribute_gemm(&jobs);
        assert_eq!(s.covered_node_hours, 50.0);
        assert_eq!(s.gemm_node_hours, 50.0);
        assert_eq!(s.gemm_share_of_covered(), 1.0);
    }

    #[test]
    fn empty_corpus() {
        let s = attribute_gemm(&[]);
        assert_eq!(s.gemm_share_of_covered(), 0.0);
        assert_eq!(s.coverage(), 0.0);
    }

    #[test]
    fn heavy_tail_job_sizes() {
        // A batch corpus is dominated by its largest jobs: the top 10% of
        // jobs should hold well over a third of the node-hours.
        let jobs = small_corpus(9);
        let mut nh: Vec<f64> = jobs.iter().map(|j| j.node_hours).collect();
        nh.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let total: f64 = nh.iter().sum();
        let top: f64 = nh[..nh.len() / 10].iter().sum();
        assert!(top / total > 0.35, "top-decile share {}", top / total);
    }
}

// ---------------------------------------------------------------------------
// Power and failure statistics (§III-A: the K database "collected multiple
// metrics of the executed application and the system, such as power
// consumption and failure statistics").
// ---------------------------------------------------------------------------

/// Power/energy metrics attributed to a job (derived, not stored: the
/// corpus keeps jobs lean and derives per-job power from its domain's
/// typical intensity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobPower {
    /// Mean per-node power draw, W.
    pub node_power_w: f64,
    /// Total energy, MWh.
    pub energy_mwh: f64,
}

/// Typical per-node power by domain (K nodes: ~58 W idle-ish to ~100 W at
/// full load; dense-algebra codes run hotter, mirroring Table II's
/// activity effect).
pub fn job_power(job: &JobRecord) -> JobPower {
    let base = 60.0;
    let dynamic = match job.domain {
        KDomain::Chemistry | KDomain::Physics => 38.0, // dense/solver heavy
        KDomain::MaterialScience => 32.0,
        KDomain::Biology => 25.0,
        KDomain::Geoscience => 28.0, // bandwidth-bound stencils
        KDomain::Other => 30.0,
    };
    let gemm_bonus = if job.links_gemm { 4.0 } else { 0.0 };
    let node_power_w = base + dynamic + gemm_bonus;
    JobPower { node_power_w, energy_mwh: node_power_w * job.node_hours / 1e6 }
}

/// Machine-level energy summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergySummary {
    /// Total energy, GWh.
    pub total_gwh: f64,
    /// Energy in GEMM-linked jobs, GWh.
    pub gemm_gwh: f64,
    /// Mean per-node power, W.
    pub mean_node_power_w: f64,
}

/// Aggregate energy across a corpus.
pub fn energy_summary(jobs: &[JobRecord]) -> EnergySummary {
    let mut total_wh = 0.0;
    let mut gemm_wh = 0.0;
    let mut power_nh = 0.0;
    let mut nh = 0.0;
    for j in jobs {
        let p = job_power(j);
        let wh = p.node_power_w * j.node_hours;
        total_wh += wh;
        if j.links_gemm {
            gemm_wh += wh;
        }
        power_nh += p.node_power_w * j.node_hours;
        nh += j.node_hours;
    }
    EnergySummary {
        total_gwh: total_wh / 1e9,
        gemm_gwh: gemm_wh / 1e9,
        mean_node_power_w: if nh > 0.0 { power_nh / nh } else { 0.0 },
    }
}

/// The paper's §III-A implication: an ME that halves GEMM-linked node-hours
/// would cut "energy consumption (and, possibly, repair-costs)". This
/// estimates the energy saving of an ME with the given speedup applied to
/// the GEMM-linked jobs' accelerable time.
pub fn me_energy_saving_gwh(jobs: &[JobRecord], gemm_time_fraction: f64, speedup: f64) -> f64 {
    assert!((0.0..=1.0).contains(&gemm_time_fraction));
    assert!(speedup >= 1.0);
    let s = energy_summary(jobs);
    s.gemm_gwh * gemm_time_fraction * (1.0 - 1.0 / speedup)
}

#[cfg(test)]
mod power_tests {
    use super::*;

    fn corpus() -> Vec<JobRecord> {
        generate_k_corpus_with(
            KCorpusShape { jobs: 20_000, total_node_hours: 543.0e6, symbol_coverage: 0.96 },
            77,
        )
    }

    #[test]
    fn k_scale_energy_is_plausible() {
        // K: ~82,944 nodes × ~94 W/node × 8760 h ≈ 60-70 GWh/yr of node
        // power (the real machine drew ~12.7 MW total including cooling).
        let s = energy_summary(&corpus());
        assert!(s.total_gwh > 40.0 && s.total_gwh < 80.0, "total {} GWh", s.total_gwh);
        assert!(s.mean_node_power_w > 80.0 && s.mean_node_power_w < 105.0);
        assert!(s.gemm_gwh < s.total_gwh);
        // GEMM-linked jobs run slightly hotter, so their energy share
        // slightly exceeds their ~53.4% node-hour share.
        let share = s.gemm_gwh / s.total_gwh;
        assert!(share > 0.5 && share < 0.62, "GEMM energy share {share}");
    }

    #[test]
    fn me_saving_bounded_and_monotone() {
        let jobs = corpus();
        let s4 = me_energy_saving_gwh(&jobs, 0.2, 4.0);
        let s8 = me_energy_saving_gwh(&jobs, 0.2, 8.0);
        let cap = energy_summary(&jobs).gemm_gwh * 0.2;
        assert!(s4 > 0.0 && s4 < s8 && s8 < cap);
    }

    #[test]
    fn gemm_jobs_draw_more_power() {
        let jobs = corpus();
        let with = jobs.iter().find(|j| j.links_gemm && j.domain == KDomain::Chemistry).unwrap();
        let without =
            jobs.iter().find(|j| !j.links_gemm && j.domain == KDomain::Chemistry).unwrap();
        assert!(job_power(with).node_power_w > job_power(without).node_power_w);
    }
}

// ---------------------------------------------------------------------------
// Failure statistics (§III-A: the K database also recorded failure
// statistics; §III-A concludes MEs could reduce "repair-costs").
// ---------------------------------------------------------------------------

/// Simple reliability model: failures arrive at a constant per-node-hour
/// rate, so a job's failure probability is `1 − exp(−λ·nh)`.
#[derive(Debug, Clone, Copy)]
pub struct FailureModel {
    /// Failures per node-hour (K-scale machines see a node failure every
    /// few hours across ~82k nodes → λ ≈ 1e-6 per node-hour).
    pub lambda_per_node_hour: f64,
}

impl FailureModel {
    /// K-computer-like reliability.
    pub fn k_like() -> Self {
        FailureModel { lambda_per_node_hour: 1.0e-6 }
    }

    /// Probability that a job of the given size sees at least one failure.
    pub fn job_failure_probability(&self, node_hours: f64) -> f64 {
        1.0 - (-self.lambda_per_node_hour * node_hours).exp()
    }

    /// Expected failures across a corpus.
    pub fn expected_failures(&self, jobs: &[JobRecord]) -> f64 {
        jobs.iter().map(|j| self.lambda_per_node_hour * j.node_hours).sum()
    }

    /// Expected failures avoided if an ME removed `reduction` of the
    /// node-hours (the §III-A "repair-costs" remark, quantified).
    pub fn failures_avoided(&self, jobs: &[JobRecord], reduction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&reduction));
        self.expected_failures(jobs) * reduction
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;

    #[test]
    fn k_scale_failure_counts_are_plausible() {
        // 543M node-hours at 1e-6 failures/node-hour ≈ 543 failures/year —
        // the right order for a machine of K's size and era.
        let jobs = generate_k_corpus_with(
            KCorpusShape { jobs: 20_000, total_node_hours: 543.0e6, symbol_coverage: 0.96 },
            3,
        );
        let f = FailureModel::k_like();
        let expected = f.expected_failures(&jobs);
        assert!((expected - 543.0).abs() < 1.0, "expected failures {expected}");
    }

    #[test]
    fn large_jobs_fail_more() {
        let f = FailureModel::k_like();
        assert!(f.job_failure_probability(1e6) > f.job_failure_probability(1e3));
        assert_eq!(f.job_failure_probability(0.0), 0.0);
        assert!(f.job_failure_probability(1e12) <= 1.0);
    }

    #[test]
    fn me_reduces_repair_events() {
        let jobs = generate_k_corpus_with(
            KCorpusShape { jobs: 10_000, total_node_hours: 543.0e6, symbol_coverage: 0.96 },
            5,
        );
        let f = FailureModel::k_like();
        // Fig 4a's 5.3% node-hour reduction avoids ~29 failures a year.
        let avoided = f.failures_avoided(&jobs, 0.053);
        assert!((avoided - 543.0 * 0.053).abs() < 0.5, "{avoided}");
    }
}
