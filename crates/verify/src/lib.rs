//! # me-verify
//!
//! The workspace's self-contained static-analysis and model-audit pass,
//! written against the same zero-external-crate constraint as the rest
//! of the reproduction.
//!
//! Two halves:
//!
//! 1. **Source scanner + lints** ([`scan`], [`lints`]) — a hand-rolled
//!    Rust lexer masks comments (including nested block comments),
//!    strings (including raw strings), and char literals, then textual
//!    rules run over the remaining code, skipping `#[cfg(test)]`
//!    regions. Diagnostics print as `file:line rule-id message` and are
//!    filtered through a committed allowlist ([`allow`], `verify.allow`
//!    at the workspace root).
//! 2. **Model auditor** ([`audit`]) — invariant checks over the
//!    `me-engine` device catalog (Table I densities = peak ÷ die,
//!    TDP ≥ idle, byte-based memory time) and the `me-model` domain
//!    tables (shares sum to 1, monotone Amdahl reductions), computed
//!    with the typed units of `me_numerics`.
//!
//! The `me-verify` binary runs both halves over a workspace tree; the
//! integration tests run them over *this* workspace and over seeded
//! violations.

pub mod allow;
pub mod audit;
pub mod envs;
pub mod fma;
pub mod hotpath;
pub mod ir;
pub mod lints;
pub mod locks;
pub mod output;
pub mod scan;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use allow::{apply_allowlist, apply_allowlist_counted, parse_allowlist, AllowEntry};
pub use ir::FileIr;
pub use scan::{mask_source, MaskedSource};

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the run unconditionally.
    Error,
    /// Fails the run only under `--deny-warnings`.
    Warning,
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// `/`-separated path relative to the scanned root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (e.g. `no-unwrap`).
    pub rule: &'static str,
    /// Severity class of the rule.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} {} {}", self.file, self.line, self.rule, self.message)
    }
}

/// Everything one verification run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Lint diagnostics that survived the allowlist.
    pub diagnostics: Vec<Diagnostic>,
    /// Model-audit violations (always fatal).
    pub audit_violations: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of diagnostics the allowlist suppressed.
    pub suppressed: usize,
}

impl Report {
    /// Should the run fail? Audit violations and error-severity lints
    /// always do; warnings only under `deny_warnings`.
    pub fn failed(&self, deny_warnings: bool) -> bool {
        !self.audit_violations.is_empty()
            || self.diagnostics.iter().any(|d| d.severity == Severity::Error || deny_warnings)
    }
}

/// The library-source files the scanner covers: every `.rs` under a
/// `src/` directory of the root package or a workspace crate. Test
/// trees, benches, and examples are out of scope (they are *supposed*
/// to unwrap). Paths come back sorted, relative, `/`-separated.
pub fn library_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut roots = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<_> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        roots.extend(crate_dirs.into_iter().map(|p| p.join("src")));
    }
    let mut files = Vec::new();
    for r in roots {
        if r.is_dir() {
            collect_rs(&r, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// All per-file rules over one already-scanned file: the textual lints
/// of [`lints`] plus the IR-based rule families (annotation validation,
/// env-read discipline, hot-path allocations, the fma contract). The
/// cross-file `lock-order` rule lives in [`verify_tree`], which sees
/// the whole tree.
fn lint_masked(rel_path: &str, src: &str, masked: &MaskedSource, ir: &FileIr) -> Vec<Diagnostic> {
    let mut diags = lints::lint_file(rel_path, src, masked);
    diags.extend(ir.annotation_diagnostics(rel_path, masked));
    diags.extend(envs::env_read(rel_path, masked, ir));
    diags.extend(hotpath::no_alloc_hot(rel_path, masked, ir));
    diags.extend(fma::fma_contract(rel_path, masked));
    diags.sort_by_key(|d| d.line);
    diags
}

/// Lint one file's contents as `rel_path` (exposed for the seeded-
/// violation tests; [`verify_tree`] uses the same rules for every
/// library source, plus the cross-file lock-order analysis).
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let masked = scan::mask_source(src);
    let ir = ir::FileIr::build(src, &masked);
    lint_masked(rel_path, src, &masked, &ir)
}

/// Run the full pass over a workspace tree: scan + lint every library
/// source, build the workspace-wide lock graph, apply the allowlist
/// (warning on stale budgets), audit the models.
pub fn verify_tree(root: &Path, allowlist: &[AllowEntry]) -> io::Result<Report> {
    let files = library_sources(root)?;
    let mut diags = Vec::new();
    let mut lock_files = Vec::new();
    for path in &files {
        let src = fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        let masked = scan::mask_source(&src);
        let file_ir = ir::FileIr::build(&src, &masked);
        diags.extend(lint_masked(&rel, &src, &masked, &file_ir));
        lock_files.push(locks::collect_file(&rel, &masked, &file_ir));
    }
    diags.extend(locks::lock_order(&lock_files));
    let before = diags.len();
    let (mut diags, used) = allow::apply_allowlist_counted(diags, allowlist);
    let suppressed = before - diags.len();
    // Staleness: a budget the code no longer consumes must shrink, or
    // new violations could creep in under it unnoticed.
    for (entry, &n) in allowlist.iter().zip(used.iter()) {
        if n < entry.max_count {
            diags.push(Diagnostic {
                file: "verify.allow".to_string(),
                line: entry.line,
                rule: "stale-allow",
                severity: Severity::Warning,
                message: format!(
                    "budget `{} {} {}` only matched {n} diagnostic(s) — run \
                     `me-verify --update-allow` to shrink it",
                    entry.path, entry.rule, entry.max_count
                ),
            });
        }
    }
    diags.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok(Report {
        suppressed,
        diagnostics: diags,
        audit_violations: audit::audit_all(),
        files_scanned: files.len(),
    })
}

/// Raw per-`(path, rule)` diagnostic counts for a tree, ignoring any
/// allowlist — the input `--update-allow` rewrites budgets from.
pub fn raw_counts(root: &Path) -> io::Result<std::collections::BTreeMap<(String, String), usize>> {
    let report = verify_tree(root, &[])?;
    let mut counts = std::collections::BTreeMap::new();
    for d in report.diagnostics {
        *counts.entry((d.file, d.rule.to_string())).or_insert(0) += 1;
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_renders_as_file_line_rule_message() {
        let d = Diagnostic {
            file: "crates/x/src/lib.rs".into(),
            line: 42,
            rule: "no-unwrap",
            severity: Severity::Error,
            message: "`.unwrap()` in library code".into(),
        };
        assert_eq!(d.to_string(), "crates/x/src/lib.rs:42 no-unwrap `.unwrap()` in library code");
    }

    #[test]
    fn report_failure_policy() {
        let warn = Diagnostic {
            file: "f".into(),
            line: 1,
            rule: "missing-docs",
            severity: Severity::Warning,
            message: "m".into(),
        };
        let mut r = Report { diagnostics: vec![warn], ..Report::default() };
        assert!(!r.failed(false), "warnings pass by default");
        assert!(r.failed(true), "warnings fail under --deny-warnings");
        r.diagnostics[0].severity = Severity::Error;
        assert!(r.failed(false), "errors always fail");
        let audit_only = Report { audit_violations: vec!["broken".into()], ..Report::default() };
        assert!(audit_only.failed(false), "audit violations always fail");
    }
}
