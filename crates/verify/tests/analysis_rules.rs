//! verify_tree-level behavior of the v2 analyses over scratch trees:
//! the lock graph is workspace-wide (cycles split across files are
//! caught), oversized allowlist budgets warn stale, and the
//! `--update-allow` recount/rewrite round trip converges to a clean run.

use std::fs;
use std::path::PathBuf;

use me_verify::allow::rewrite_counts;
use me_verify::output::{to_json, to_sarif};
use me_verify::{parse_allowlist, raw_counts, verify_tree, Severity};

/// A scratch workspace tree under the OS temp dir; removed on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str, files: &[(&str, &str)]) -> Scratch {
        let root =
            std::env::temp_dir().join(format!("me-verify-rules-{tag}-{}", std::process::id()));
        let src = root.join("src");
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&src).expect("scratch tree creation");
        for (name, body) in files {
            fs::write(src.join(name), body).expect("scratch source write");
        }
        Scratch { root }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const LOCKS_AB: &str = "\
//! One half of a cross-file ordering cycle.

use std::sync::Mutex;

/// Takes `alpha` then `beta`.
pub fn forward(alpha: &Mutex<u32>, beta: &Mutex<u32>) -> u32 {
    let ga = alpha.lock().unwrap_or_else(|e| e.into_inner());
    let gb = beta.lock().unwrap_or_else(|e| e.into_inner());
    *ga + *gb
}
";

const LOCKS_BA: &str = "\
//! The other half: reverse order, different file.

use std::sync::Mutex;

/// Takes `beta` then `alpha`.
pub fn backward(alpha: &Mutex<u32>, beta: &Mutex<u32>) -> u32 {
    let gb = beta.lock().unwrap_or_else(|e| e.into_inner());
    let ga = alpha.lock().unwrap_or_else(|e| e.into_inner());
    *ga - *gb
}
";

#[test]
fn lock_cycles_are_detected_across_files() {
    // Each file is order-consistent on its own; only the union of the
    // two acquisition graphs contains the alpha <-> beta cycle.
    let tree = Scratch::new("xfile", &[("ab.rs", LOCKS_AB), ("ba.rs", LOCKS_BA)]);
    let report = verify_tree(&tree.root, &[]).expect("scan succeeds");
    let edges: Vec<(&str, usize)> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "lock-order")
        .map(|d| (d.file.as_str(), d.line))
        .collect();
    assert_eq!(edges, [("src/ab.rs", 8), ("src/ba.rs", 8)], "{:#?}", report.diagnostics);
    assert_eq!(report.diagnostics.len(), 2, "nothing but the cycle fires");
    assert!(report.failed(false));
}

const ONE_UNWRAP: &str = "\
//! One violation under an oversized budget.

/// Unwraps once.
pub fn once(x: Option<u32>) -> u32 {
    x.unwrap()
}
";

#[test]
fn oversized_budgets_warn_stale_and_update_allow_shrinks_them() {
    let tree = Scratch::new("stale", &[("one.rs", ONE_UNWRAP)]);
    let allow_text = "# scratch allowlist\nsrc/one.rs no-unwrap 2\n";
    let entries = parse_allowlist(allow_text).expect("allowlist parses");
    let report = verify_tree(&tree.root, &entries).expect("scan succeeds");
    assert_eq!(report.suppressed, 1);
    let stale: Vec<_> = report.diagnostics.iter().filter(|d| d.rule == "stale-allow").collect();
    assert_eq!(stale.len(), 1, "{:#?}", report.diagnostics);
    assert_eq!(stale[0].severity, Severity::Warning);
    assert_eq!(stale[0].file, "verify.allow");
    assert_eq!(stale[0].line, 2, "points at the oversized entry's own line");
    assert!(!report.failed(false), "staleness is a warning");
    assert!(report.failed(true), "--deny-warnings makes it binding");

    // The --update-allow path: recount without the allowlist, rewrite
    // the budget text, and the tightened list verifies clean.
    let counts = raw_counts(&tree.root).expect("recount succeeds");
    let rewritten = rewrite_counts(allow_text, &counts);
    assert!(rewritten.contains("# scratch allowlist"), "comments survive: {rewritten}");
    assert!(rewritten.contains("src/one.rs no-unwrap 1"), "budget shrank: {rewritten}");
    let tightened = parse_allowlist(&rewritten).expect("rewritten text parses");
    let clean = verify_tree(&tree.root, &tightened).expect("rescan succeeds");
    assert!(clean.diagnostics.is_empty(), "{:#?}", clean.diagnostics);
    assert!(!clean.failed(true));
}

#[test]
fn machine_readable_renderings_carry_the_findings() {
    let tree = Scratch::new("output", &[("one.rs", ONE_UNWRAP)]);
    let report = verify_tree(&tree.root, &[]).expect("scan succeeds");
    assert_eq!(report.diagnostics.len(), 1);

    let json = to_json(&report, false);
    assert!(json.contains("\"rule\": \"no-unwrap\""), "{json}");
    assert!(json.contains("\"file\": \"src/one.rs\""), "{json}");
    assert!(json.contains("\"failed\": true"), "{json}");

    let sarif = to_sarif(&report);
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"ruleId\": \"no-unwrap\""), "{sarif}");
    assert!(sarif.contains("\"uri\": \"src/one.rs\""), "{sarif}");
}
