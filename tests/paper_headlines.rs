//! End-to-end integration tests: every headline claim of the paper,
//! reproduced through the full pipeline.

use matrix_engines::prelude::*;

/// §II-B / Table I: the compute-density hierarchy of ME hardware.
#[test]
fn table1_density_hierarchy() {
    let v100 = catalog::v100().compute_density(NumericFormat::F16).unwrap();
    let a100 = catalog::a100().compute_density(NumericFormat::F16).unwrap();
    let p10 = catalog::power10().compute_density(NumericFormat::F16).unwrap();
    let ascend = catalog::ascend910().compute_density(NumericFormat::F16).unwrap();
    // A100 > Ascend > V100 > Power10 (Table I's GF/mm² column).
    assert!(a100 > ascend && ascend > v100 && v100 > p10);
    // Paper: Power10 ≈ 18% of V100's density, Ascend ≈ 7.7x Power10.
    assert!((p10 / v100 - 0.18).abs() < 0.01);
    assert!((ascend / p10 - 7.7).abs() < 0.2);
}

/// Table II: vectorization roughly doubles CPU GEMM energy efficiency.
#[test]
fn table2_vectorization_gain() {
    let model = ExecutionModel::new(catalog::xeon_e5_2650v4_2s());
    let shape = GemmShape::square(5000);
    let mut gains = Vec::new();
    for fmt in [NumericFormat::F64, NumericFormat::F32] {
        let scalar = model.gemm(shape, EngineKind::Scalar, fmt).unwrap();
        let simd = model.gemm(shape, EngineKind::Simd, fmt).unwrap();
        assert!(simd.time_s < scalar.time_s);
        gains.push(simd.gflops_per_joule() / scalar.gflops_per_joule());
    }
    let avg = gains.iter().sum::<f64>() / 2.0;
    assert!((avg - 2.3).abs() < 0.2, "paper: 2.3x average, got {avg}");
}

/// Fig 1: SGEMM/DGEMM run near TDP; the TC path draws visibly less; and
/// the three traces are ordered DGEMM > SGEMM > HGEMM-TC.
#[test]
fn fig1_power_traces() {
    let model = ExecutionModel::new(catalog::v100());
    let sampler = PowerSampler::new(me_numerics::Watts(40.0));
    let shape = GemmShape::square(16384);
    let mut plateaus = Vec::new();
    for (engine, fmt) in [
        (EngineKind::Simd, NumericFormat::F64),
        (EngineKind::Simd, NumericFormat::F32),
        (EngineKind::MatrixEngine, NumericFormat::F16xF32),
    ] {
        let op = model.gemm(shape, engine, fmt).unwrap();
        let tr = sampler.trace_op("x", &op, me_numerics::Seconds(20.0), me_numerics::Seconds(2.0));
        plateaus.push(tr.peak_power().0);
    }
    let (d, s, h) = (plateaus[0], plateaus[1], plateaus[2]);
    assert!(d > s && s > h, "power ordering: D={d} S={s} H={h}");
    assert!(d > 280.0 && s > 270.0, "S/DGEMM near the 300W TDP");
    assert!(h < 275.0, "TC path below the FPU paths");
}

/// §III-A: ~53.4% of K-computer node-hours are GEMM-linked, best case.
#[test]
fn klog_attribution() {
    let corpus = matrix_engines::survey::klog::generate_k_corpus_with(
        matrix_engines::survey::klog::KCorpusShape {
            jobs: 50_000,
            total_node_hours: 543.0e6,
            symbol_coverage: 0.96,
        },
        99,
    );
    let s = matrix_engines::survey::klog::attribute_gemm(&corpus);
    assert!((s.gemm_share_of_covered() - 0.534).abs() < 0.03);
    assert!((s.coverage() - 0.96).abs() < 0.01);
}

/// Table III: ~70% of packages depend on BLAS, ~51% excluding py-*/R-*.
#[test]
fn table3_spack_shares() {
    let eco = spack_ecosystem(2021);
    let full = eco.table3(false);
    assert_eq!(full[0].count, 14);
    assert_eq!(full[4].count, 3061);
    assert!((full[4].percent - 70.03).abs() < 0.1);
    let folded = eco.table3(true);
    assert!((folded[4].percent - 51.45).abs() < 6.0);
}

/// Table IV + §III-C3: DL speedups are 2x (ConvNets) to 4x (Transformers),
/// far below the 7.6x of pure GEMM.
#[test]
fn table4_dl_speedup_bands() {
    let rows = me_workloads::dl::table4_rows();
    let get = |n: &str| rows.iter().find(|r| r.benchmark == n).unwrap();
    for conv in ["VGG16", "Resnet50", "DeepLabV3", "SSD300"] {
        let s = get(conv).speedup;
        assert!((1.4..2.6).contains(&s), "{conv}: {s}");
    }
    for tr in ["BERT", "Attention"] {
        let s = get(tr).speedup;
        assert!((2.8..4.5).contains(&s), "{tr}: {s}");
    }
    let gemm = get("GEMM").speedup;
    assert!(gemm > get("BERT").speedup, "pure GEMM tops everything");
    assert!(get("NCF").speedup <= 1.05, "NCF regresses");
    assert!(get("Cosmoflow").pct_tc < 1.0, "no TC path for 3D convs");
}

/// Fig 2: Tensor Cores double ResNet50 throughput at similar power.
#[test]
fn fig2_resnet_energy() {
    let pts = me_workloads::dl::fig2_points();
    let v_fp32 = pts
        .iter()
        .find(|p| p.device.contains("V100") && p.mode == PrecisionMode::Fp32)
        .unwrap();
    let v_mixed = pts
        .iter()
        .find(|p| p.device.contains("V100") && p.mode == PrecisionMode::Mixed)
        .unwrap();
    assert!(v_mixed.throughput / v_fp32.throughput > 1.6);
    assert!((v_mixed.power_w - v_fp32.power_w).abs() / v_fp32.power_w < 0.25);
}

/// Fig 3 / §III-D3: the profiled fractions across all 77 benchmarks.
#[test]
fn fig3_fractions_full_pipeline() {
    let rows = me_workloads::hpc::profile_all(1);
    assert_eq!(rows.len(), 77);
    let get = |n: &str| rows.iter().find(|(b, _, _)| *b == n).unwrap().2;
    assert!((get("HPL").gemm - 0.7681).abs() < 1e-3);
    assert!((get("Laghos").gemm - 0.4124).abs() < 1e-3);
    assert!((get("NTChem").gemm - 0.2578).abs() < 1e-3);
    assert!((get("milc").gemm - 0.4016).abs() < 1e-3);
    assert!((get("mVMC").lapack - 0.1435).abs() < 1e-3);
    // Only 9 of 77 have direct GEMM; 12 have any dense-library usage.
    let with_gemm = rows.iter().filter(|(_, _, f)| f.gemm > 0.0).count();
    assert_eq!(with_gemm, 9);
    let with_dense = rows
        .iter()
        .filter(|(_, _, f)| f.gemm + f.blas_non_gemm + f.lapack > 0.0)
        .count();
    assert!((10..=12).contains(&with_dense), "dense users: {with_dense}");
}

/// Fig 4: the three machines' node-hour reductions, from the measured
/// fractions (wired through the profiling pipeline, not the constants).
#[test]
fn fig4_from_measured_fractions() {
    let rows = me_workloads::hpc::profile_all(1);
    let acc = |n: &str| {
        let f = rows.iter().find(|(b, _, _)| *b == n).unwrap().2;
        f.accelerable()
    };
    // Wire the measured fractions into the model.
    let k = MachineMix::k_computer(acc("NTChem"), acc("mVMC"));
    let r4 = k.node_hour_reduction(MeSpeedup::Finite(4.0));
    assert!((r4 - 0.053).abs() < 0.004, "K 4x from measured fractions: {r4}");

    let anl = MachineMix::anl(acc("Laghos"), acc("Nekbone"));
    let r4 = anl.node_hour_reduction(MeSpeedup::Finite(4.0));
    assert!((r4 - 0.115).abs() < 0.005, "ANL 4x from measured fractions: {r4}");
}

/// Table VIII: the Ozaki emulation hierarchy on the simulated V100.
#[test]
fn table8_hierarchy() {
    let rows = me_ozaki::table8_rows();
    let t = |imp: &str, cond: &str| {
        rows.iter()
            .find(|r| r.implementation == imp && r.condition.contains(cond))
            .unwrap()
            .tflops
    };
    // cuBLAS order: GemmEx >> Sgemm > Dgemm.
    assert!(t("cublasGemmEx", "") > 6.0 * t("cublasSgemm", ""));
    assert!(t("cublasSgemm", "") > t("cublasDgemm", ""));
    // Emulations slower than their cuBLAS counterparts, degrade with range.
    assert!(t("SGEMM-TC", "1e+8") < t("cublasSgemm", ""));
    assert!(t("DGEMM-TC", "1e+8") < t("cublasDgemm", ""));
    assert!(t("SGEMM-TC", "1e+8") > t("SGEMM-TC", "1e+16"));
    assert!(t("SGEMM-TC", "1e+16") > t("SGEMM-TC", "1e+32"));
    assert!(t("DGEMM-TC", "1e+8") > t("DGEMM-TC", "1e+32"));
}

/// §IV-B: the Ozaki scheme really does emulate f64 GEMM on the f16 engine.
#[test]
fn ozaki_end_to_end_accuracy() {
    use matrix_engines::ozaki::gemm::reference_gemm;
    let a = Mat::from_fn(20, 24, |i, j| ((i * 7 + j * 3) as f64).sin() * 100.0);
    let b = Mat::from_fn(24, 16, |i, j| ((i + j * 5) as f64).cos());
    let r = ozaki_gemm(&a, &b, &OzakiConfig::dgemm_tc());
    let c_ref = reference_gemm(&a, &b);
    let err = matrix_engines::numerics::max_rel_err(r.c.as_slice(), c_ref.as_slice());
    assert!(err < 1e-13, "DGEMM-equivalent accuracy: {err}");
}

/// §VII: the conclusion — ~1.1x science throughput for existing machines.
#[test]
fn conclusion_one_point_one_x() {
    for m in [MachineMix::k_computer_default(), MachineMix::anl_default()] {
        let gain = 1.0 / m.relative_node_hours(MeSpeedup::Finite(4.0));
        assert!(gain > 1.0 && gain < 1.15, "{}: {gain}", m.name);
    }
}

// ---------------------------------------------------------------------
// Golden snapshots: the EXPERIMENTS.md headline numbers, pinned at exact
// tolerances. The tests above accept anything inside the paper's bands;
// these pin the *currently measured* values so an innocent-looking
// change that silently moves a published number fails loudly here. If a
// change moves one intentionally, update the constant AND the matching
// row in EXPERIMENTS.md in the same commit.
// ---------------------------------------------------------------------

/// Golden: Table II row values — 30×n=5000 walltimes and Gflop/J on the
/// modeled Xeon E5-2650v4, exactly as EXPERIMENTS.md records them.
#[test]
fn golden_table2_energy_ratios() {
    let model = ExecutionModel::new(catalog::xeon_e5_2650v4_2s());
    let shape = GemmShape::square(5000);
    let reps = 30.0;
    // (format, engine, walltime s, Gflop/J) — EXPERIMENTS.md "Measured".
    let golden: [(NumericFormat, EngineKind, f64, f64); 4] = [
        (NumericFormat::F64, EngineKind::Scalar, 33.913, 1.2421),
        (NumericFormat::F64, EngineKind::Simd, 12.540, 2.9168),
        (NumericFormat::F32, EngineKind::Scalar, 16.957, 2.6328),
        (NumericFormat::F32, EngineKind::Simd, 6.270, 6.0094),
    ];
    for (fmt, engine, time, eff) in golden {
        let op = model.gemm(shape, engine, fmt).unwrap();
        assert!(
            (op.time_s * reps - time).abs() < 5e-3,
            "{fmt:?}/{engine:?} walltime drifted: {} vs pinned {time}",
            op.time_s * reps
        );
        assert!(
            (op.gflops_per_joule() - eff).abs() < 5e-4,
            "{fmt:?}/{engine:?} efficiency drifted: {} vs pinned {eff}",
            op.gflops_per_joule()
        );
    }
    let gain = |fmt| {
        let s = model.gemm(shape, EngineKind::Scalar, fmt).unwrap().gflops_per_joule();
        let v = model.gemm(shape, EngineKind::Simd, fmt).unwrap().gflops_per_joule();
        v / s
    };
    let avg = (gain(NumericFormat::F64) + gain(NumericFormat::F32)) / 2.0;
    assert!((avg - 2.31542).abs() < 5e-5, "avg energy-efficiency gain drifted: {avg}");
}

/// Golden: Fig 4 node-hour reductions from the measured Fig 3 fractions,
/// at finite 4x and the infinite-engine limit.
#[test]
fn golden_fig4_node_hour_reductions() {
    let rows = me_workloads::hpc::profile_all(1);
    let acc = |n: &str| rows.iter().find(|(b, _, _)| *b == n).unwrap().2.accelerable();
    let k = MachineMix::k_computer(acc("NTChem"), acc("mVMC"));
    let anl = MachineMix::anl(acc("Laghos"), acc("Nekbone"));
    let golden: [(&MachineMix, MeSpeedup, f64); 4] = [
        (&k, MeSpeedup::Finite(4.0), 0.0534799),
        (&k, MeSpeedup::Infinite, 0.0713065),
        (&anl, MeSpeedup::Finite(4.0), 0.1153470),
        (&anl, MeSpeedup::Infinite, 0.1537960),
    ];
    for (mix, s, pinned) in golden {
        let r = mix.node_hour_reduction(s);
        assert!(
            (r - pinned).abs() < 1e-6,
            "{} @ {s:?} drifted: {r} vs pinned {pinned}",
            mix.name
        );
    }
}

/// Golden: Table VIII throughputs (Tflop/s on the modeled V100) and the
/// Ozaki accuracy bounds EXPERIMENTS.md reports next to them.
#[test]
fn golden_table8_ozaki() {
    let rows = me_ozaki::table8_rows();
    let t = |imp: &str, cond: &str| {
        rows.iter()
            .find(|r| r.implementation == imp && r.condition.contains(cond))
            .unwrap()
            .tflops
    };
    let golden: [(&str, &str, f64); 9] = [
        ("cublasGemmEx", "", 92.3188),
        ("cublasSgemm", "", 14.5458),
        ("cublasDgemm", "", 7.2266),
        ("SGEMM-TC", "1e+8", 3.9609),
        ("SGEMM-TC", "1e+16", 2.9022),
        ("SGEMM-TC", "1e+32", 2.2239),
        ("DGEMM-TC", "1e+8", 0.9999),
        ("DGEMM-TC", "1e+16", 0.8545),
        ("DGEMM-TC", "1e+32", 0.5686),
    ];
    for (imp, cond, pinned) in golden {
        let got = t(imp, cond);
        assert!(
            (got - pinned).abs() < 5e-4,
            "Table VIII {imp} @{cond} drifted: {got} vs pinned {pinned}"
        );
    }
    // Error bounds on the accuracy fixture: DGEMM-equivalent emulation is
    // exact to the f64 reference on this input; SGEMM-equivalent lands at
    // a pinned 7.354e-13.
    use matrix_engines::ozaki::gemm::reference_gemm;
    let a = Mat::from_fn(20, 24, |i, j| ((i * 7 + j * 3) as f64).sin() * 100.0);
    let b = Mat::from_fn(24, 16, |i, j| ((i + j * 5) as f64).cos());
    let c_ref = reference_gemm(&a, &b);
    let dg = ozaki_gemm(&a, &b, &OzakiConfig::dgemm_tc());
    let dg_err = matrix_engines::numerics::max_rel_err(dg.c.as_slice(), c_ref.as_slice());
    assert!(dg_err <= 1e-15, "DGEMM-TC error bound drifted: {dg_err:e}");
    let sg = ozaki_gemm(&a, &b, &OzakiConfig::sgemm_tc());
    let sg_err = matrix_engines::numerics::max_rel_err(sg.c.as_slice(), c_ref.as_slice());
    assert!(
        (sg_err / 7.354e-13 - 1.0).abs() < 1e-3,
        "SGEMM-TC error drifted: {sg_err:e} vs pinned 7.354e-13"
    );
}

/// §V (the "grasping at straws" prospective): the INT8 Ozaki emulation
/// meets or beats the f16-slice path at equal slice count. At β = 6 (the
/// i8 cap) both substrates run the identical schedule, so the INT8
/// result is bitwise equal to the f16-engine result — error "meets" by
/// construction — while the host kernels and the modeled A100 engine run
/// strictly faster.
#[test]
fn int8_matches_f16_emulation_at_equal_slice_count() {
    use matrix_engines::ozaki::int8::Int8Engine;
    let a = Mat::from_fn(20, 24, |i, j| ((i * 7 + j * 3) as f64).sin() * 100.0);
    let b = Mat::from_fn(24, 16, |i, j| ((i + j * 5) as f64).cos());
    let engine = Int8Engine::default();
    let cfg6 = OzakiConfig { mul_precision: 6, ..OzakiConfig::dgemm_tc() };
    let ri = ozaki_gemm(&a, &b, &engine);
    let rf = ozaki_gemm(&a, &b, &cfg6);
    assert_eq!(ri.beta, 6);
    assert_eq!(ri.beta, rf.beta);
    assert_eq!(ri.s_a, rf.s_a, "equal slice count is the premise");
    assert_eq!(ri.products_computed, rf.products_computed);
    for (x, y) in ri.c.as_slice().iter().zip(rf.c.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "matched-beta paths must agree bitwise");
    }
}

/// Golden: INT8 emulation accuracy pins on the Table VIII fixture,
/// alongside the nine throughput pins above, plus the A100
/// FP16-vs-INT8 substrate ordering from the energy model.
#[test]
fn golden_int8_ozaki() {
    use matrix_engines::ozaki::int8::Int8Engine;
    use matrix_engines::ozaki::{int8_vs_f16_rows, project_emulated};
    use matrix_engines::ozaki::gemm::reference_gemm;
    let a = Mat::from_fn(20, 24, |i, j| ((i * 7 + j * 3) as f64).sin() * 100.0);
    let b = Mat::from_fn(24, 16, |i, j| ((i + j * 5) as f64).cos());
    let c_ref = reference_gemm(&a, &b);

    // DGEMM-equivalent INT8 emulation is exact to the f64 reference on
    // this fixture — the same pin the f16 path holds.
    let dg = ozaki_gemm(&a, &b, &Int8Engine::default());
    let dg_err = matrix_engines::numerics::max_rel_err(dg.c.as_slice(), c_ref.as_slice());
    assert!(dg_err <= 1e-15, "INT8 DGEMM-equivalent error drifted: {dg_err:e}");

    // SGEMM-equivalent INT8 lands on a pinned error: same 1e-12 class as
    // the f16 path's 7.354e-13 on this fixture (the β = 6 schedule
    // truncates on a different slice boundary than β = 7, hence the
    // different constant), orders of magnitude inside the f32-grade
    // target. The exact meets-or-beats claim is the matched-β bitwise
    // equality in `int8_matches_f16_emulation_at_equal_slice_count`.
    let sg = ozaki_gemm(&a, &b, &Int8Engine::sgemm_equivalent());
    let sg_err = matrix_engines::numerics::max_rel_err(sg.c.as_slice(), c_ref.as_slice());
    assert!(
        (sg_err / 3.6066e-12 - 1.0).abs() < 1e-3,
        "INT8 SGEMM-equivalent error drifted: {sg_err:e} vs pinned 3.6066e-12"
    );

    // A100 substrate comparison: INT8 beats FP16-ME on effective TFLOP/s
    // and Gflop/J at every Table VIII range.
    for pair in int8_vs_f16_rows().chunks(2) {
        assert!(pair[1].tflops > pair[0].tflops, "range 1e{}", pair[0].range_decades);
        assert!(pair[1].gflops_per_joule > pair[0].gflops_per_joule);
    }

    // Projected INT8 emulated-DGEMM throughput on the A100 at the
    // Table VIII operating point (n=8192, 1e+16 range): 13 slices of
    // β = 6, 103 scheduled products, 2.77 effective Tflop/s.
    let p = project_emulated(8192, 16.0, &Int8Engine::default(), 48, 0x5eed + 16);
    assert_eq!((p.slices, p.products), (13, 103), "INT8 schedule drifted");
    assert!(
        (p.effective_tflops - 2.7698).abs() < 5e-4,
        "INT8 projected throughput drifted: {}",
        p.effective_tflops
    );
}

/// §V measured on real silicon: the Ozaki scheme on the *host's* f16
/// widening kernels (this is the arm the paper could only model — here
/// it actually runs). DGEMM-grade accuracy, and bitwise equality with
/// the simulated Tensor-Core engine at the default matched β, with no
/// configuration fudge: `HostF16Engine::default()` and
/// `OzakiConfig::dgemm_tc()` share β = required_beta(256, 24, 11) by
/// construction.
#[test]
fn host_f16_emulation_matches_simulated_me() {
    use matrix_engines::ozaki::gemm::reference_gemm;
    use matrix_engines::ozaki::host_f16::HostF16Engine;
    let a = Mat::from_fn(20, 24, |i, j| ((i * 7 + j * 3) as f64).sin() * 100.0);
    let b = Mat::from_fn(24, 16, |i, j| ((i + j * 5) as f64).cos());
    let c_ref = reference_gemm(&a, &b);

    // Measured host-FP16 Table VIII arm: DGEMM-equivalent accuracy on the
    // accuracy fixture, same pin the simulated engine and INT8 hold.
    let host = ozaki_gemm(&a, &b, &HostF16Engine::default());
    let err = matrix_engines::numerics::max_rel_err(host.c.as_slice(), c_ref.as_slice());
    assert!(err <= 1e-15, "host-FP16 DGEMM-equivalent error drifted: {err:e}");

    // Matched-β bitwise pin: identical slice counts, schedules, and §9
    // chunk sums → bit-for-bit the simulated engine's C.
    let sim = ozaki_gemm(&a, &b, &OzakiConfig::dgemm_tc());
    assert_eq!(host.beta, sim.beta, "default βs must match by construction");
    assert_eq!(host.s_a, sim.s_a, "matched slice count is the premise");
    assert_eq!(host.products_computed, sim.products_computed);
    for (x, y) in host.c.as_slice().iter().zip(sim.c.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "host-f16 vs simulated-me");
    }
}

/// Golden: the three-substrate energy table (host-FP16 SIMD vs FP16-ME
/// vs INT8 Tensor Cores) and the projected host-FP16 throughput at the
/// Table VIII operating point.
#[test]
fn golden_host_f16_energy_table() {
    use matrix_engines::ozaki::host_f16::HostF16Engine;
    use matrix_engines::ozaki::{host_f16_vs_me_vs_int8_rows, project_emulated};

    // Substrate ordering at every Table VIII range: the matrix engine
    // dominates the host SIMD arm it displaced by >10× on effective
    // throughput and on energy efficiency — the paper's §V gap made
    // concrete on the same slice schedule.
    let rows = host_f16_vs_me_vs_int8_rows();
    assert_eq!(rows.len(), 9);
    for triple in rows.chunks(3) {
        let (host, me, i8r) = (&triple[0], &triple[1], &triple[2]);
        assert_eq!((host.config, me.config, i8r.config), ("f16-host", "f16-me", "int8"));
        assert_eq!((host.slices, host.products), (me.slices, me.products));
        assert!(me.tflops > 10.0 * host.tflops, "range 1e{}", host.range_decades);
        assert!(me.gflops_per_joule > host.gflops_per_joule);
        assert!(i8r.tflops > me.tflops, "int8 stays fastest");
    }

    // Projected host-FP16 emulated-DGEMM throughput on the Xeon 6148's
    // f32 SIMD units at the Table VIII operating point (n=8192, 1e+16
    // range): 12 slices of β = 7, 89 scheduled products, 20.6 effective
    // Gflop/s — two orders of magnitude under the modeled engines, which
    // is the quantified price of emulating without a matrix engine.
    let p = project_emulated(8192, 16.0, &HostF16Engine::default(), 48, 0x5eed + 16);
    assert_eq!((p.slices, p.products), (12, 89), "host-FP16 schedule drifted");
    assert!(
        (p.effective_tflops - 0.020602).abs() < 5e-5,
        "host-FP16 projected throughput drifted: {}",
        p.effective_tflops
    );
    assert!(p.avg_power_w <= 150.0, "host arm exceeds the CPU TDP: {}", p.avg_power_w);
}

/// All experiment drivers produce artifacts.
#[test]
fn run_all_artifacts() {
    let arts = me_core::run_all();
    assert_eq!(arts.len(), 12);
    let ids: Vec<&str> = arts.iter().map(|a| a.id).collect();
    for want in ["Table I", "Table II", "Table III", "Table IV", "Table V", "Table VIII", "Fig 1", "Fig 2", "Fig 3", "Fig 4"] {
        assert!(ids.contains(&want), "missing artifact {want}");
    }
}
