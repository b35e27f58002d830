//! `me-paper` — command-line front end for the reproduction.
//!
//! ```text
//! me-paper                 # run every table/figure + ablations
//! me-paper table4 fig3     # run selected artifacts
//! me-paper --list          # list artifact ids
//! me-paper --export DIR    # write all artifacts as text files into DIR
//! me-paper --trace ...     # also record a per-experiment timeline and
//!                          # write artifacts/me_paper_trace.json (Chrome
//!                          # trace) + artifacts/me_paper_metrics.prom
//! ```

use me_core::experiments;

fn artifact_by_key(key: &str) -> Option<me_core::ExperimentArtifact> {
    match key.to_ascii_lowercase().as_str() {
        "table1" => Some(experiments::table1()),
        "table2" => Some(experiments::table2()),
        "table3" => Some(experiments::table3()),
        "table4" => Some(experiments::table4()),
        "table5" => Some(experiments::table5()),
        "table6" | "table7" | "table67" => Some(experiments::table6_7()),
        "table8" => Some(experiments::table8()),
        "fig1" => Some(experiments::fig1()),
        "fig2" => Some(experiments::fig2()),
        "fig3" => Some(experiments::fig3()),
        "fig4" => Some(experiments::fig4()),
        "klog" => Some(experiments::klog()),
        "dark-silicon" | "darksilicon" => Some(experiments::dark_silicon()),
        "silicon" => Some(experiments::silicon_ablation()),
        "overhead" => Some(experiments::overhead_ablation()),
        "blas-level" | "blaslevel" => Some(experiments::blas_level_ablation()),
        "scaling" => Some(experiments::scaling_ablation()),
        "representatives" | "reps" => Some(experiments::representative_ablation()),
        _ => None,
    }
}

const KEYS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table67",
    "table8",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "klog",
    "dark-silicon",
    "silicon",
    "overhead",
    "blas-level",
    "scaling",
    "representatives",
];

/// Snapshot the collector and write the Chrome timeline + Prometheus
/// dump under `artifacts/`; returns the paths written.
fn write_trace_artifacts() -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
    let trace = me_trace::take_snapshot();
    let dir = std::path::Path::new("artifacts");
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join("me_paper_trace.json");
    let prom_path = dir.join("me_paper_metrics.prom");
    std::fs::write(&json_path, trace.to_chrome_json())?;
    std::fs::write(&prom_path, trace.to_prometheus())?;
    Ok((json_path, prom_path))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "me-paper: reproduce the tables and figures of 'Matrix Engines for HPC' (IPDPS'21)"
        );
        println!("usage: me-paper [--list] [--export DIR] [--trace] [ARTIFACT ...]");
        println!("artifacts: {}", KEYS.join(", "));
        return;
    }
    let trace_mode = args.iter().any(|a| a == "--trace");
    if trace_mode {
        if !me_trace::compiled() {
            eprintln!("me-paper: built without the `trace` feature; --trace is unavailable");
            std::process::exit(2);
        }
        me_trace::set_enabled(true);
    }
    if args.iter().any(|a| a == "--list") {
        for k in KEYS {
            println!("{k}");
        }
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--export") {
        let dir = args
            .get(pos + 1)
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("artifacts"));
        match experiments::export_csv(&dir) {
            Ok(files) => {
                println!("wrote {} artifacts to {}", files.len(), dir.display());
            }
            Err(e) => {
                eprintln!("export failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let keys: Vec<String> = args.iter().filter(|a| *a != "--trace").cloned().collect();
    let selected: Vec<me_core::ExperimentArtifact> = if keys.is_empty() {
        let _g = me_trace::span("experiment.all", "core");
        experiments::run_all_extended()
    } else {
        let mut v = Vec::new();
        for a in &keys {
            // One span per experiment: the timeline shows where each
            // artifact's wall-clock went across the pool lanes.
            let _g = me_trace::span_owned(format!("experiment.{a}"), "core");
            match artifact_by_key(a) {
                Some(art) => v.push(art),
                None => {
                    eprintln!("unknown artifact '{a}' (try --list)");
                    std::process::exit(2);
                }
            }
        }
        v
    };

    for a in selected {
        println!("================================================================");
        println!("{}  —  {}", a.id, a.headline);
        println!("================================================================");
        println!("{}", a.rendered);
    }

    if trace_mode {
        match write_trace_artifacts() {
            Ok((json, prom)) => {
                println!("trace: {} (chrome://tracing), {}", json.display(), prom.display());
            }
            Err(e) => {
                eprintln!("me-paper: failed to write trace artifacts: {e}");
                std::process::exit(1);
            }
        }
    }
}
