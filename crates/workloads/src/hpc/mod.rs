//! The 77 HPC (proxy-)applications of Table V, modeled as kernel mixes,
//! plus the runner that profiles them (regenerating Fig 3).

mod inputs;
mod registry;

pub use inputs::{effective_regions, profile_with_input, InputSize};
pub use registry::all_benchmarks;

use crate::kernels::{execute_kernel, KernelId};
use me_profiler::{Fig3Fractions, Profiler, RegionClass};

/// Benchmark suite of origin (Table V's "Set" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// TOP500 benchmarks (HPL, HPCG).
    Top500,
    /// ECP proxy applications.
    Ecp,
    /// RIKEN CCS Fiber miniapp suite.
    Riken,
    /// SPEC CPU 2017.
    SpecCpu,
    /// SPEC OMP 2012.
    SpecOmp,
    /// SPEC MPI 2007.
    SpecMpi,
}

impl Suite {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Suite::Top500 => "TOP500",
            Suite::Ecp => "ECP",
            Suite::Riken => "RIKEN",
            Suite::SpecCpu => "SPEC CPU",
            Suite::SpecOmp => "SPEC OMP",
            Suite::SpecMpi => "SPEC MPI",
        }
    }
}

/// Principal science/engineering domain (Table V's domain column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Math / computer science.
    MathCs,
    /// Physics.
    Physics,
    /// Geoscience / earth science.
    Geoscience,
    /// Material science / engineering.
    MaterialScience,
    /// Bioscience.
    Bioscience,
    /// Engineering (mechanics, CFD).
    Engineering,
    /// Chemistry.
    Chemistry,
    /// Artificial intelligence (classic search/games, not DL).
    Ai,
    /// Lattice QCD.
    LatticeQcd,
}

impl Domain {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Domain::MathCs => "Math/Computer Science",
            Domain::Physics => "Physics",
            Domain::Geoscience => "Geoscience/Earthscience",
            Domain::MaterialScience => "Material Science/Engineering",
            Domain::Bioscience => "Bioscience",
            Domain::Engineering => "Engineering (Mechanics, CFD)",
            Domain::Chemistry => "Chemistry",
            Domain::Ai => "Artificial Intelligence",
            Domain::LatticeQcd => "Lattice QCD",
        }
    }
}

/// One profiled region of a benchmark's kernel mix.
#[derive(Debug, Clone)]
pub struct Region {
    /// The mini-kernel that executes for this region.
    pub kernel: KernelId,
    /// Fraction of the benchmark's (included) runtime this region takes —
    /// calibrated against the paper's Fig 3 measurements.
    pub weight: f64,
}

/// A benchmark model: identity plus kernel mix.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name as Table V spells it.
    pub name: &'static str,
    /// Suite of origin.
    pub suite: Suite,
    /// Principal domain.
    pub domain: Domain,
    /// Kernel mix (weights sum to 1).
    pub regions: Vec<Region>,
}

impl Benchmark {
    /// The calibrated GEMM fraction of the mix (for quick assertions).
    pub fn gemm_weight(&self) -> f64 {
        self.regions
            .iter()
            .filter(|r| r.kernel.region_class() == RegionClass::Gemm)
            .map(|r| r.weight)
            .sum()
    }
}

/// Total modeled application runtime in seconds (arbitrary unit — only the
/// fractions matter downstream, exactly as in the paper).
const MODEL_RUNTIME_S: f64 = 100.0;
/// Modeled init/post-processing time, excluded by the profiler's rules.
const MODEL_INITPOST_S: f64 = 12.0;

/// Execute a benchmark's kernel mix under the profiler.
///
/// Every region genuinely runs its mini-kernel at a size derived from
/// `scale` (so the pipeline executes real numerics), and records a modeled
/// duration proportional to its calibrated weight. An init/post phase is
/// recorded too, exercising the paper's exclusion rule.
///
/// Returns the sum of kernel checksums (a liveness witness).
pub fn run_benchmark(bench: &Benchmark, profiler: &Profiler, scale: usize) -> f64 {
    let total_w: f64 = bench.regions.iter().map(|r| r.weight).sum();
    assert!(
        (total_w - 1.0).abs() < 1e-9,
        "{}: region weights sum to {total_w}, expected 1",
        bench.name
    );
    profiler.record(RegionClass::InitPost, "init", MODEL_INITPOST_S / 2.0);
    let mut check = 0.0;
    for region in &bench.regions {
        let n = kernel_size(region.kernel, scale);
        let stats = execute_kernel(region.kernel, n);
        check += stats.checksum;
        let class = region.kernel.region_class();
        profiler.record(class, region.kernel.symbol(), region.weight * MODEL_RUNTIME_S);
    }
    profiler.record(RegionClass::InitPost, "post", MODEL_INITPOST_S / 2.0);
    check
}

/// Problem size per kernel at a given scale (kernels have different
/// complexity orders; keep wall time balanced).
fn kernel_size(kernel: KernelId, scale: usize) -> usize {
    let s = scale.max(1);
    match kernel {
        KernelId::Gemm
        | KernelId::LuFactor
        | KernelId::Cholesky
        | KernelId::SymEig
        | KernelId::Trsm
        | KernelId::Syrk => 8 * s,
        KernelId::Gemv | KernelId::SpMV | KernelId::CgIteration | KernelId::AmrRefine => 8 * s,
        KernelId::Stencil7 | KernelId::Stencil27 => 4 + 2 * s,
        KernelId::MdForces | KernelId::NBody | KernelId::SmithWaterman => 16 * s,
        KernelId::VectorOps | KernelId::Fft | KernelId::Sort => 128 * s,
        KernelId::BlockGemm | KernelId::LatticeSu3 => 64 * s,
        KernelId::GraphBfs | KernelId::McLookup | KernelId::IntegerLogic => 256 * s,
    }
}

/// Run a benchmark standalone and return its Fig 3 fractions.
pub fn profile_benchmark(bench: &Benchmark, scale: usize) -> Fig3Fractions {
    let profiler = Profiler::new();
    run_benchmark(bench, &profiler, scale);
    profiler.profile().fig3_fractions()
}

/// Profile all 77 benchmarks: one (name, fractions) row per Fig 3 bar.
pub fn profile_all(scale: usize) -> Vec<(&'static str, Suite, Fig3Fractions)> {
    all_benchmarks().iter().map(|b| (b.name, b.suite, profile_benchmark(b, scale))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seventy_seven_benchmarks() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 77, "Table V lists 77 HPC benchmarks");
        // Suite counts from the paper: 2 + 11 + 8 + 24 + 14 + 18.
        let count = |s: Suite| all.iter().filter(|b| b.suite == s).count();
        assert_eq!(count(Suite::Top500), 2);
        assert_eq!(count(Suite::Ecp), 11);
        assert_eq!(count(Suite::Riken), 8);
        assert_eq!(count(Suite::SpecCpu), 24);
        assert_eq!(count(Suite::SpecOmp), 14);
        assert_eq!(count(Suite::SpecMpi), 18);
    }

    #[test]
    fn names_unique_within_suite() {
        let all = all_benchmarks();
        let mut seen = std::collections::HashSet::new();
        for b in &all {
            assert!(seen.insert((b.suite, b.name)), "duplicate: {:?} {}", b.suite, b.name);
        }
    }

    #[test]
    fn weights_sum_to_one() {
        for b in all_benchmarks() {
            let s: f64 = b.regions.iter().map(|r| r.weight).sum();
            assert!((s - 1.0).abs() < 1e-9, "{}: {s}", b.name);
            for r in &b.regions {
                assert!(r.weight > 0.0, "{}: zero/negative weight", b.name);
            }
        }
    }

    #[test]
    fn fig3_headline_numbers() {
        // Run the real pipeline and check the paper's reported fractions.
        let find = |name: &str| {
            let b = all_benchmarks().into_iter().find(|b| b.name == name).unwrap();
            profile_benchmark(&b, 1)
        };
        let hpl = find("HPL");
        assert!((hpl.gemm - 0.7681).abs() < 1e-3, "HPL GEMM {}", hpl.gemm);
        let laghos = find("Laghos");
        assert!((laghos.gemm - 0.4124).abs() < 1e-3);
        let ntchem = find("NTChem");
        assert!((ntchem.gemm - 0.2578).abs() < 1e-3);
        let nekbone = find("Nekbone");
        assert!((nekbone.gemm - 0.0458).abs() < 1e-3);
        let milc = find("milc");
        assert!((milc.gemm - 0.4016).abs() < 1e-3);
        let dmilc = find("dmilc");
        assert!((dmilc.gemm - 0.3557).abs() < 1e-3);
        let botsspar = find("botsspar");
        assert!((botsspar.gemm - 0.189).abs() < 1e-3);
        let bt = find("bt331");
        assert!((bt.gemm - 0.1416).abs() < 1e-3);
        let socorro = find("socorro");
        assert!((socorro.gemm - 0.0952).abs() < 1e-3);
        let minife = find("miniFE");
        assert!((minife.blas_non_gemm - 0.0938).abs() < 1e-3);
        assert_eq!(minife.gemm, 0.0);
        let mvmc = find("mVMC");
        assert!((mvmc.blas_non_gemm - 0.1641).abs() < 1e-3);
        assert!((mvmc.lapack - 0.1435).abs() < 1e-3);
    }

    #[test]
    fn only_the_papers_benchmarks_have_gemm() {
        // Fig 3 / §III-D3: nine benchmarks perform GEMM; everything else
        // must profile to zero GEMM.
        let gemm_apps =
            ["HPL", "Laghos", "NTChem", "Nekbone", "botsspar", "bt331", "milc", "dmilc", "socorro"];
        for b in all_benchmarks() {
            let has = b.gemm_weight() > 0.0;
            let expected = gemm_apps.contains(&b.name);
            assert_eq!(has, expected, "{} GEMM presence mismatch", b.name);
        }
    }

    #[test]
    fn average_gemm_fraction_is_about_3_5_percent() {
        // §III-D3: assuming an idealized equal node-hour distribution over
        // the 77 benchmarks, the average GEMM time is ~3.5%.
        let all = all_benchmarks();
        let avg: f64 = all.iter().map(|b| b.gemm_weight()).sum::<f64>() / all.len() as f64;
        assert!((avg - 0.035).abs() < 0.005, "average GEMM fraction {avg}");
    }

    #[test]
    fn profiling_pipeline_excludes_initpost() {
        let b = all_benchmarks().into_iter().find(|b| b.name == "HPL").unwrap();
        let profiler = Profiler::new();
        run_benchmark(&b, &profiler, 1);
        let prof = profiler.profile();
        assert!(prof.total() > prof.total_included());
        assert_eq!(prof.seconds_in(RegionClass::InitPost), 12.0);
    }

    #[test]
    fn profile_all_returns_77_rows() {
        let rows = profile_all(1);
        assert_eq!(rows.len(), 77);
        for (name, _, f) in &rows {
            assert!((f.sum() - 1.0).abs() < 1e-9, "{name}: fractions sum {}", f.sum());
        }
    }
}
