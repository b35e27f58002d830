//! Cross-crate integration tests for the simulated substrates: the
//! systolic/SIMD datapaths, the memory hierarchy, mixed-precision
//! refinement, the input-size ablation, and the silicon/overhead models —
//! verifying that the layers compose the way the experiment drivers use
//! them.

use matrix_engines::prelude::*;
use me_engine::systolic::{systolic_gemm, SystolicArray};

/// The cycle-level simulator and the analytic execution model must agree
/// on ordering: shapes with better simulated utilization achieve better
/// modeled throughput.
#[test]
fn systolic_utilization_tracks_model_efficiency() {
    let arr = SystolicArray::tensor_core();
    let model = ExecutionModel::new(catalog::v100());
    let mut last_util = 0.0;
    let mut last_eff = 0.0;
    for k in [8usize, 64, 512] {
        let a = Mat::from_fn(16, k, |i, j| ((i + j) % 5) as f64 - 2.0);
        let b = Mat::from_fn(k, 16, |i, j| ((i * j) % 3) as f64 - 1.0);
        let sim = systolic_gemm(&arr, &a, &b);
        let eff =
            model.efficiency(EngineKind::MatrixEngine, GemmShape { m: 16, n: 16, k }.mean_dim());
        assert!(sim.stats.utilization() > last_util, "k={k}");
        assert!(eff > last_eff, "k={k}");
        last_util = sim.stats.utilization();
        last_eff = eff;
    }
}

/// Ozaki on the simulated Tensor-Core datapath produces bitwise the same
/// result as the plain implementation AND matches the f64 reference to
/// DGEMM-equivalent accuracy — the full §IV-B story through every layer.
#[test]
fn ozaki_through_all_layers() {
    use matrix_engines::ozaki::gemm::reference_gemm;
    let a = me_ozaki::perf::ranged_matrix(14, 18, 12.0, 3);
    let b = me_ozaki::perf::ranged_matrix(18, 10, 12.0, 4);
    let cfg = OzakiConfig::dgemm_tc();

    let plain = ozaki_gemm(&a, &b, &cfg);
    let parallel = me_ozaki::ozaki_gemm_parallel(&a, &b, &cfg, 4);
    let engine = me_ozaki::ozaki_gemm_systolic(&a, &b, &cfg, &SystolicArray::tensor_core());

    for ((x, y), z) in
        plain.c.as_slice().iter().zip(parallel.c.as_slice()).zip(engine.report.c.as_slice())
    {
        assert_eq!(x.to_bits(), y.to_bits(), "parallel mismatch");
        assert_eq!(x.to_bits(), z.to_bits(), "engine mismatch");
    }
    let c_ref = reference_gemm(&a, &b);
    for i in 0..14 {
        let amax: f64 = (0..18).map(|p| a[(i, p)].abs()).fold(0.0, f64::max);
        for j in 0..10 {
            let bmax: f64 = (0..18).map(|p| b[(p, j)].abs()).fold(0.0, f64::max);
            let err = (plain.c[(i, j)] - c_ref[(i, j)]).abs();
            assert!(err <= 1e-12 * (amax * bmax * 18.0).max(c_ref[(i, j)].abs()));
        }
    }
}

/// The mixed-precision IR solver beats the accuracy of a pure low-precision
/// solve by orders of magnitude — the §V-A3 opportunity, end to end.
#[test]
fn ir_recovers_what_low_precision_loses() {
    let n = 32;
    let a =
        Mat::from_fn(n, n, |i, j| if i == j { 6.0 } else { ((i * 13 + j * 7) % 11) as f64 / 22.0 });
    let b: Vec<f64> = (0..n).map(|i| ((i * 3) % 7) as f64 - 3.0).collect();

    // Pure f16 solve: factorize the demoted matrix, no refinement.
    let a16 = a.map(|x| FloatFormat::F16.quantize(x));
    let x16 = matrix_engines::linalg::hpl_solve(&a16, &b).unwrap();
    let res16 = matrix_engines::linalg::hpl_residual(&a, &x16, &b);

    // f16 + refinement.
    let ir = matrix_engines::linalg::ir_solve(&a, &b, FloatFormat::F16, 1e-13, 40).unwrap();
    assert!(ir.converged);
    let res_ir = matrix_engines::linalg::hpl_residual(&a, &ir.x, &b);
    assert!(
        res_ir < res16 / 1e3,
        "IR residual {res_ir} must be far below the pure-f16 residual {res16}"
    );
}

/// Input-size ablation composes with the Fig 4 model: profiling SPEC with
/// `test` inputs would erase the SPEC benchmarks' contribution.
#[test]
fn input_sizes_change_the_fig3_picture() {
    use me_workloads::hpc::{profile_with_input, InputSize};
    let all = all_benchmarks();
    let gemm_at = |input: InputSize| -> f64 {
        all.iter().map(|b| profile_with_input(b, input).gemm).sum::<f64>() / all.len() as f64
    };
    let train = gemm_at(InputSize::Train);
    let test = gemm_at(InputSize::Test);
    assert!((train - 0.035).abs() < 0.005, "train avg {train}");
    assert!(test < train, "test inputs must lower the average ({test} vs {train})");
    // The SPEC GEMM carriers (botsspar, bt331, milc, dmilc, socorro)
    // account for the difference.
    assert!((train - test - (0.189 + 0.1416 + 0.4016 + 0.3557 + 0.0952) / 77.0).abs() < 1e-3);
}

/// Memory-hierarchy staging (§V-B5) is visible but does not flip the
/// ME-vs-SIMD verdict for level-3 work.
#[test]
fn staging_overhead_is_second_order_for_gemm() {
    let h = me_engine::MemoryHierarchy::v100_like();
    let model = ExecutionModel::new(catalog::v100());
    let n = 4096;
    let tc =
        model.gemm(GemmShape::square(n), EngineKind::MatrixEngine, NumericFormat::F16xF32).unwrap();
    let staging = h.staging_time(n, n, n, 2);
    assert!(staging < 0.5 * tc.time_s, "staging {staging} vs TC gemm {}", tc.time_s);
    // While for a GEMV-shaped op the ME's advantage is already gone before
    // staging (level factor 1/4), making staging the last straw.
    let l2_factor =
        model.blas_level_factor(EngineKind::MatrixEngine, me_engine::exec::BlasLevel::L2);
    assert!(l2_factor <= 0.25);
}

/// Silicon model composed with measured workload fractions: at the 77-app
/// average GEMM share, general silicon wins; at HPL's share, the ME wins.
#[test]
fn silicon_verdict_by_workload() {
    let rows = me_workloads::hpc::profile_all(1);
    let avg_gemm: f64 = rows.iter().map(|(_, _, f)| f.gemm).sum::<f64>() / rows.len() as f64;
    let hpl_gemm = rows.iter().find(|(n, _, _)| *n == "HPL").unwrap().2.gemm;

    let speedup = |frac: f64| {
        me_model::machine_speedup(
            &me_model::SiliconOption {
                name: "me".into(),
                density_gf_mm2: 153.0,
                applicable_fraction: frac,
            },
            100.0,
            15_700.0,
        )
    };
    let general = me_model::machine_speedup(
        &me_model::SiliconOption {
            name: "general".into(),
            density_gf_mm2: 19.3,
            applicable_fraction: 1.0,
        },
        100.0,
        15_700.0,
    );
    assert!(speedup(avg_gemm) < general, "average HPC workload: general silicon wins");
    assert!(speedup(hpl_gemm) > general, "HPL-like workload: the ME wins");
}

/// The K-computer energy analysis composes with the ME model: the energy
/// saving implied by §III-A is bounded by the Fig 4a node-hour saving.
#[test]
fn klog_energy_consistent_with_fig4() {
    let jobs = matrix_engines::survey::klog::generate_k_corpus_with(
        matrix_engines::survey::klog::KCorpusShape {
            jobs: 30_000,
            total_node_hours: 543.0e6,
            symbol_coverage: 0.96,
        },
        11,
    );
    let summary = matrix_engines::survey::klog::energy_summary(&jobs);
    // Fig 4a says ~5.3% of node-hours at 4x; GEMM-linked jobs spending
    // ~10% of their time in GEMM gives the same order of energy saving.
    let saving = matrix_engines::survey::klog::me_energy_saving_gwh(&jobs, 0.10, 4.0);
    let fraction = saving / summary.total_gwh;
    assert!(fraction > 0.01 && fraction < 0.08, "energy-saving fraction {fraction}");
}
