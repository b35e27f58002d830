//! `me-verify`: run the static-analysis and model-audit pass over the
//! workspace.
//!
//! ```text
//! me-verify [--root DIR] [--allowlist FILE] [--deny-warnings]
//!           [--format text|json|sarif] [--json-out FILE] [--sarif-out FILE]
//!           [--update-allow] [--explain RULE]
//! ```
//!
//! Exit status is nonzero on any model-audit violation, any
//! error-severity lint diagnostic that the allowlist does not cover,
//! or — under `--deny-warnings` — any diagnostic at all. Misconfig
//! (bad flags, unreadable allowlist, empty scan) exits 2.

use std::path::PathBuf;
use std::process::ExitCode;

use me_verify::{output, parse_allowlist, verify_tree, Severity};

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Options {
    root: PathBuf,
    allowlist: Option<PathBuf>,
    deny_warnings: bool,
    format: Format,
    json_out: Option<PathBuf>,
    sarif_out: Option<PathBuf>,
    update_allow: bool,
    explain: Option<String>,
}

const USAGE: &str = "usage: me-verify [--root DIR] [--allowlist FILE] [--deny-warnings]
                 [--format text|json|sarif] [--json-out FILE] [--sarif-out FILE]
                 [--update-allow] [--explain RULE]

  --root DIR        workspace root to scan (default: .)
  --allowlist FILE  allowlist path (default: <root>/verify.allow)
  --deny-warnings   treat warning-severity diagnostics as errors
  --format FMT      stdout rendering: text (default), json, or sarif
  --json-out FILE   additionally write the JSON report to FILE
  --sarif-out FILE  additionally write the SARIF 2.1.0 report to FILE
  --update-allow    rewrite the allowlist's counts to the tree's actual
                    violation counts (stale entries shrink or drop) and exit
  --explain RULE    print what a rule checks and why, then exit";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        allowlist: None,
        deny_warnings: false,
        format: Format::Text,
        json_out: None,
        sarif_out: None,
        update_allow: false,
        explain: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = args.next().map(PathBuf::from).ok_or("--root needs a value")?;
            }
            "--allowlist" => {
                opts.allowlist =
                    Some(args.next().map(PathBuf::from).ok_or("--allowlist needs a value")?);
            }
            "--deny-warnings" => opts.deny_warnings = true,
            "--format" => {
                let v = args.next().ok_or("--format needs a value")?;
                opts.format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--json-out" => {
                opts.json_out =
                    Some(args.next().map(PathBuf::from).ok_or("--json-out needs a value")?);
            }
            "--sarif-out" => {
                opts.sarif_out =
                    Some(args.next().map(PathBuf::from).ok_or("--sarif-out needs a value")?);
            }
            "--update-allow" => opts.update_allow = true,
            "--explain" => {
                opts.explain = Some(args.next().ok_or("--explain needs a rule id")?);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("me-verify: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(rule) = &opts.explain {
        return match output::explain(rule) {
            Some(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "me-verify: unknown rule `{rule}`; known rules: {}",
                    output::rule_ids().join(", ")
                );
                ExitCode::from(2)
            }
        };
    }
    let allow_path = opts.allowlist.clone().unwrap_or_else(|| opts.root.join("verify.allow"));
    let allow_text = match std::fs::read_to_string(&allow_path) {
        Ok(t) => t,
        // A missing default allowlist just means "no exemptions".
        Err(_) if opts.allowlist.is_none() => String::new(),
        Err(e) => {
            eprintln!("me-verify: cannot read {}: {e}", allow_path.display());
            return ExitCode::from(2);
        }
    };
    let entries = match parse_allowlist(&allow_text) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("me-verify: {}: {e}", allow_path.display());
            return ExitCode::from(2);
        }
    };
    if opts.update_allow {
        return update_allow(&opts, &allow_path, &allow_text);
    }
    let report = match verify_tree(&opts.root, &entries) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("me-verify: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    // A run that scanned nothing is a misconfiguration (typo'd --root),
    // not a clean workspace; passing it would green-light anything.
    if report.files_scanned == 0 {
        eprintln!("me-verify: no Rust sources under {} — wrong --root?", opts.root.display());
        return ExitCode::from(2);
    }

    let json = output::to_json(&report, opts.deny_warnings);
    let sarif = output::to_sarif(&report);
    for (path, body) in [(&opts.json_out, &json), (&opts.sarif_out, &sarif)] {
        if let Some(p) = path {
            if let Err(e) = std::fs::write(p, body) {
                eprintln!("me-verify: cannot write {}: {e}", p.display());
                return ExitCode::from(2);
            }
        }
    }

    match opts.format {
        Format::Json => print!("{json}"),
        Format::Sarif => print!("{sarif}"),
        Format::Text => {
            for d in &report.diagnostics {
                let tag = match d.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                };
                println!("{d} [{tag}]");
            }
            for v in &report.audit_violations {
                println!("audit: {v}");
            }
            println!(
                "me-verify: {} files scanned, {} diagnostics ({} allowlisted), {} audit violations",
                report.files_scanned,
                report.diagnostics.len(),
                report.suppressed,
                report.audit_violations.len()
            );
        }
    }
    if report.failed(opts.deny_warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `--update-allow`: recompute raw violation counts and rewrite the
/// allowlist in place so every budget is exact again.
fn update_allow(opts: &Options, allow_path: &std::path::Path, allow_text: &str) -> ExitCode {
    let counts = match me_verify::raw_counts(&opts.root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("me-verify: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let new_text = me_verify::allow::rewrite_counts(allow_text, &counts);
    if new_text == allow_text {
        println!("me-verify: {} is already exact", allow_path.display());
        return ExitCode::SUCCESS;
    }
    if let Err(e) = std::fs::write(allow_path, &new_text) {
        eprintln!("me-verify: cannot write {}: {e}", allow_path.display());
        return ExitCode::from(2);
    }
    println!("me-verify: rewrote {} with exact counts", allow_path.display());
    ExitCode::SUCCESS
}
