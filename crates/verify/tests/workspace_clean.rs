//! Integration tests: the shipping workspace must verify clean, and a
//! seeded violation in a scratch tree must be caught end-to-end.

use std::fs;
use std::path::{Path, PathBuf};

use me_verify::{parse_allowlist, verify_tree, Severity};

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/verify sits two levels under the root")
        .to_path_buf()
}

#[test]
fn workspace_verifies_clean_with_the_committed_allowlist() {
    let root = workspace_root();
    let allow_text =
        fs::read_to_string(root.join("verify.allow")).expect("committed allowlist exists");
    let entries = parse_allowlist(&allow_text).expect("allowlist parses");
    let report = verify_tree(&root, &entries).expect("scan succeeds");
    assert!(
        report.diagnostics.is_empty(),
        "non-allowlisted diagnostics:\n{}",
        report.diagnostics.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert!(report.audit_violations.is_empty(), "audit: {:#?}", report.audit_violations);
    assert!(report.files_scanned >= 60, "only {} files scanned", report.files_scanned);
    assert!(report.suppressed > 0, "the allowlist should be load-bearing");
    assert!(!report.failed(true));
}

#[test]
fn workspace_allowlist_has_no_slack() {
    // Shrinking any entry's budget by one must surface a diagnostic:
    // stale entries would otherwise mask future regressions.
    let root = workspace_root();
    let allow_text = fs::read_to_string(root.join("verify.allow")).expect("allowlist exists");
    let entries = parse_allowlist(&allow_text).expect("parses");
    for i in 0..entries.len() {
        let mut tightened = entries.clone();
        tightened[i].max_count -= 1;
        let report = verify_tree(&root, &tightened).expect("scan succeeds");
        assert!(
            !report.diagnostics.is_empty(),
            "allowlist entry {} ({} {}) has slack: count can drop to {}",
            i,
            tightened[i].path,
            tightened[i].rule,
            tightened[i].max_count
        );
    }
}

/// A scratch workspace tree under the OS temp dir; removed on drop.
struct ScratchTree {
    root: PathBuf,
}

impl ScratchTree {
    fn new(tag: &str, file: &str, source: &str) -> ScratchTree {
        let root = std::env::temp_dir().join(format!("me-verify-{tag}-{}", std::process::id()));
        let src = root.join("src");
        fs::create_dir_all(&src).expect("temp tree creation");
        fs::write(src.join(file), source).expect("temp source write");
        ScratchTree { root }
    }
}

impl Drop for ScratchTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn seeded_violations_in_a_temp_file_are_caught() {
    let seeded = "\
//! Scratch module.

/// Documented, but full of violations.
pub fn bad(x: Option<f64>) -> f64 {
    let v = x.unwrap();
    if v == 0.25 {
        panic!(\"kaboom\");
    }
    v
}

pub fn undocumented() {}
";
    let tree = ScratchTree::new("seeded", "bad.rs", seeded);
    let report = verify_tree(&tree.root, &[]).expect("scan succeeds");
    assert_eq!(report.files_scanned, 1);
    let fired: Vec<(&str, usize)> = report.diagnostics.iter().map(|d| (d.rule, d.line)).collect();
    assert!(fired.contains(&("no-unwrap", 5)), "{fired:?}");
    assert!(fired.contains(&("no-unwrap", 7)), "panic! flagged: {fired:?}");
    assert!(fired.contains(&("float-eq", 6)), "{fired:?}");
    assert!(fired.contains(&("missing-docs", 12)), "{fired:?}");
    assert!(report.failed(false), "seeded errors must fail the run");
    for d in &report.diagnostics {
        assert!(d.file.starts_with("src/"), "paths are root-relative: {}", d.file);
    }
}

#[test]
fn seeded_violation_respects_exact_allowlist_budget() {
    let seeded = "\
//! Scratch module.

/// Two unwraps, budget for one.
pub fn two(a: Option<u32>, b: Option<u32>) -> u32 {
    a.unwrap() + b.unwrap()
}
";
    let tree = ScratchTree::new("budget", "two.rs", seeded);
    let entries = parse_allowlist("src/two.rs no-unwrap 1\n").expect("parses");
    let report = verify_tree(&tree.root, &entries).expect("scan succeeds");
    assert_eq!(report.suppressed, 1);
    assert_eq!(report.diagnostics.len(), 1, "{:#?}", report.diagnostics);
    assert_eq!(report.diagnostics[0].rule, "no-unwrap");
    assert_eq!(report.diagnostics[0].severity, Severity::Error);
}

#[test]
fn test_gated_code_in_a_temp_file_is_exempt() {
    let seeded = "\
//! Scratch module.

/// Fine.
pub fn lib() -> u32 { 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x: Option<u32> = Some(1);
        assert_eq!(x.unwrap(), 1);
        assert!(0.25 == 0.25);
    }
}
";
    let tree = ScratchTree::new("gated", "gated.rs", seeded);
    let report = verify_tree(&tree.root, &[]).expect("scan succeeds");
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}
