//! HPC workload profiling (paper §III-D): the Fig 3 pipeline end to end,
//! plus the K-computer and Spack software surveys (§III-A, §III-B).
//!
//! Run with `cargo run --release --example hpc_profiling`.

use matrix_engines::prelude::*;
use me_survey::klog;

fn main() {
    // --- Fig 3: profile all 77 benchmarks through the Score-P-like
    //     pipeline and print the stacked utilization chart ---
    println!("{}", me_core::experiments::fig3().rendered);

    // Per-suite aggregate: which suites carry any dense algebra at all?
    println!("Per-suite mean GEMM fraction:");
    let rows = me_workloads::hpc::profile_all(1);
    for suite in [
        me_workloads::Suite::Top500,
        me_workloads::Suite::Ecp,
        me_workloads::Suite::Riken,
        me_workloads::Suite::SpecCpu,
        me_workloads::Suite::SpecOmp,
        me_workloads::Suite::SpecMpi,
    ] {
        let in_suite: Vec<f64> =
            rows.iter().filter(|(_, s, _)| *s == suite).map(|(_, _, f)| f.gemm).collect();
        let mean = in_suite.iter().sum::<f64>() / in_suite.len() as f64;
        println!(
            "  {:<9} {:>5.1}% over {} benchmarks",
            suite.label(),
            100.0 * mean,
            in_suite.len()
        );
    }

    // --- §III-A: the K-computer symbol-table attribution ---
    println!();
    let corpus = klog::generate_k_corpus_with(
        klog::KCorpusShape { jobs: 100_000, total_node_hours: 543.0e6, symbol_coverage: 0.96 },
        2018,
    );
    let s = klog::attribute_gemm(&corpus);
    println!(
        "K computer (synthetic corpus): {} jobs, {:.0}M node-hours, {:.1}% symbol coverage",
        s.total_jobs,
        s.total_node_hours / 1e6,
        100.0 * s.coverage()
    );
    println!(
        "GEMM-linked: {:.0}M node-hours = {:.1}% of covered (paper: 53.4% best case)",
        s.gemm_node_hours / 1e6,
        100.0 * s.gemm_share_of_covered()
    );
    println!("Per-domain node-hours:");
    for (d, h) in klog::domain_node_hours(&corpus) {
        println!("  {:<18} {:>7.1}M", d.label(), h / 1e6);
    }

    // --- §III-B: Spack dependency distances ---
    println!();
    println!("{}", me_core::experiments::table3().rendered);

    // A sample of what the generated ecosystem looks like.
    let eco = spack_ecosystem(1);
    let providers = eco.provider_indices();
    println!("BLAS providers (distance 0): {} packages", providers.len());
    for &i in providers.iter().take(5) {
        println!("  {}", eco.packages[i].name);
    }
    println!("  ...");
}
