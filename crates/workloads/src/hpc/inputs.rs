//! Input-size configurations (§III-D1).
//!
//! SPEC benchmarks ship `test`, `train`, and `ref` inputs; the paper runs
//! `train` and notes (§III-D3) that for some benchmarks "the type of input
//! results in alternative code paths, bypassing the GEMM operations". This
//! module models that: an [`InputSize`] scales the problem and can turn a
//! benchmark's dense regions *dormant*, letting the ablations quantify how
//! much the Fig 3 picture depends on input choice.

use super::{Benchmark, Region};
use me_profiler::{Fig3Fractions, Profiler};

/// SPEC-style input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSize {
    /// Smallest input: short runtime, dense code paths often bypassed
    /// (problem too small to trigger the blocked/dense branches).
    Test,
    /// The paper's choice: representative compute patterns.
    Train,
    /// Largest input: same patterns as train, longer runtime.
    Ref,
}

impl InputSize {
    /// Problem-scale multiplier relative to `train`.
    pub fn scale_factor(self) -> usize {
        match self {
            InputSize::Test => 1,
            InputSize::Train => 2,
            InputSize::Ref => 4,
        }
    }

    /// Whether dense-algebra regions are exercised at this size. The
    /// `test` inputs of the GEMM-bearing SPEC benchmarks take the
    /// small-problem code path (the "dormant regions" of §III-D3).
    pub fn dense_regions_active(self) -> bool {
        !matches!(self, InputSize::Test)
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            InputSize::Test => "test",
            InputSize::Train => "train",
            InputSize::Ref => "ref",
        }
    }
}

/// A benchmark's effective kernel mix at an input size: with dense regions
/// dormant, their weight folds into the benchmark's "other" kernels.
pub fn effective_regions(bench: &Benchmark, input: InputSize) -> Vec<Region> {
    // Input-size selection only exists for the SPEC suites (§III-D1); the
    // TOP500/ECP/RIKEN configurations are fixed by the study.
    let spec = matches!(
        bench.suite,
        super::Suite::SpecCpu | super::Suite::SpecOmp | super::Suite::SpecMpi
    );
    if input.dense_regions_active() || !spec {
        return bench.regions.clone();
    }
    let dense_weight: f64 = bench
        .regions
        .iter()
        .filter(|r| r.kernel.region_class() != me_profiler::RegionClass::Other)
        .map(|r| r.weight)
        .sum();
    let others: Vec<&Region> = bench
        .regions
        .iter()
        .filter(|r| r.kernel.region_class() == me_profiler::RegionClass::Other)
        .collect();
    if others.is_empty() {
        // Degenerate: a purely-dense mix keeps its regions even at `test`
        // (HPL has no meaningful non-dense mode).
        return bench.regions.clone();
    }
    let extra = dense_weight / others.len() as f64;
    others.into_iter().map(|r| Region { kernel: r.kernel, weight: r.weight + extra }).collect()
}

/// Profile a benchmark at a given input size.
pub fn profile_with_input(bench: &Benchmark, input: InputSize) -> Fig3Fractions {
    let regions = effective_regions(bench, input);
    let tmp = Benchmark { name: bench.name, suite: bench.suite, domain: bench.domain, regions };
    let profiler = Profiler::new();
    super::run_benchmark(&tmp, &profiler, input.scale_factor());
    profiler.profile().fig3_fractions()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpc::all_benchmarks;

    fn bench(name: &str) -> Benchmark {
        all_benchmarks().into_iter().find(|b| b.name == name).unwrap()
    }

    #[test]
    fn train_matches_the_papers_fractions() {
        let b = bench("botsspar");
        let f = profile_with_input(&b, InputSize::Train);
        assert!((f.gemm - 0.189).abs() < 1e-3);
    }

    #[test]
    fn test_inputs_make_gemm_dormant() {
        // §III-D3: small inputs bypass the dense code paths.
        let b = bench("bt331");
        let f = profile_with_input(&b, InputSize::Test);
        assert_eq!(f.gemm, 0.0, "test input must bypass GEMM");
        assert!((f.sum() - 1.0).abs() < 1e-9);
        let f_train = profile_with_input(&b, InputSize::Train);
        assert!(f_train.gemm > 0.1);
    }

    #[test]
    fn ref_matches_train_patterns() {
        // §III-D1: "we expect no major changes in compute patterns" between
        // input sizes (other than the test-size bypass).
        let b = bench("NTChem");
        let train = profile_with_input(&b, InputSize::Train);
        let reff = profile_with_input(&b, InputSize::Ref);
        assert!((train.gemm - reff.gemm).abs() < 1e-9);
        assert!((train.lapack - reff.lapack).abs() < 1e-9);
    }

    #[test]
    fn non_spec_suites_ignore_input_sizes() {
        // TOP500/ECP/RIKEN configurations are fixed by the study (§III-D1).
        for name in ["HPL", "Laghos", "NTChem"] {
            let b = bench(name);
            let t = profile_with_input(&b, InputSize::Test);
            let tr = profile_with_input(&b, InputSize::Train);
            assert!((t.gemm - tr.gemm).abs() < 1e-12, "{name}");
        }
    }

    #[test]
    fn non_dense_benchmarks_unchanged() {
        let b = bench("lbm");
        for i in [InputSize::Test, InputSize::Train, InputSize::Ref] {
            let f = profile_with_input(&b, i);
            assert_eq!(f.gemm, 0.0);
            assert!((f.sum() - 1.0).abs() < 1e-9, "{}", i.label());
        }
    }
}
