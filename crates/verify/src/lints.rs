//! Lint rules over masked source.
//!
//! Four rules, all operating on the output of [`crate::scan::mask_source`]
//! so comments, strings, and char literals can never match, and all
//! skipping `#[cfg(test)]` regions:
//!
//! | rule id            | forbids                                              |
//! |--------------------|------------------------------------------------------|
//! | `no-unwrap`        | `.unwrap()`, `.expect(`, `panic!` in library code    |
//! | `no-as-narrowing`  | bare `as f32` in the numeric kernels (`me-numerics`, |
//! |                    | `me-ozaki`) — use `narrow_f32_exact` instead         |
//! | `float-eq`         | `==`/`!=` against a nonzero float literal            |
//! | `missing-docs`     | public items without a doc comment                   |
//! | `no-unsafe`        | any `unsafe` in library code — every sanctioned site |
//! |                    | carries an exact budget in `verify.allow`            |
//! | `unsafe-safety`    | an `unsafe` without an adjacent `// SAFETY:` comment |
//! |                    | or `/// # Safety` doc section                        |
//!
//! Exact-zero comparisons (`x == 0.0`) are deliberately *not* flagged:
//! comparing against literal zero is IEEE-exact and idiomatic in the
//! numeric kernels (splitting loops, singularity checks). Everything
//! else goes through the committed allowlist (see [`crate::allow`]).

use crate::scan::MaskedSource;
use crate::{Diagnostic, Severity};

/// Paths (relative, `/`-separated) whose kernels must use checked
/// `f64 → f32` conversion instead of a bare `as` cast.
const NARROWING_SCOPES: [&str; 2] = ["crates/numerics/src/", "crates/ozaki/src/"];

/// Run every lint rule over one masked file. `rel_path` is the
/// `/`-separated path reported in diagnostics and used for scoping.
pub fn lint_file(rel_path: &str, src: &str, masked: &MaskedSource) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    no_unwrap(rel_path, masked, &mut diags);
    if NARROWING_SCOPES.iter().any(|s| rel_path.starts_with(s)) {
        no_as_narrowing(rel_path, masked, &mut diags);
    }
    float_eq(rel_path, masked, &mut diags);
    missing_docs(rel_path, src, masked, &mut diags);
    unsafe_rules(rel_path, src, masked, &mut diags);
    diags.sort_by_key(|d| d.line);
    diags
}

/// `no-unsafe` + `unsafe-safety`: every `unsafe` keyword in library code
/// is flagged (so each sanctioned site must hold an exact budget in the
/// committed allowlist), and independently each one must sit next to a
/// written safety argument — a `// SAFETY:` comment or a `/// # Safety`
/// doc section reachable by walking upward over comments, attributes,
/// blank lines, and continuation lines of the same statement.
fn unsafe_rules(path: &str, src: &str, m: &MaskedSource, diags: &mut Vec<Diagnostic>) {
    let bytes = m.masked.as_bytes();
    let masked_lines: Vec<&str> = m.masked.lines().collect();
    let src_lines: Vec<&str> = src.lines().collect();
    for at in find_all(&m.masked, "unsafe") {
        if m.in_test(at) {
            continue;
        }
        // Keyword boundary: not the tail/head of a longer identifier.
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        let after = at + "unsafe".len();
        if after < bytes.len() && is_ident_byte(bytes[after]) {
            continue;
        }
        let line = m.line_of(at);
        diags.push(Diagnostic {
            file: path.to_string(),
            line,
            rule: "no-unsafe",
            severity: Severity::Error,
            message: "`unsafe` in library code; every site needs an exact verify.allow budget"
                .into(),
        });
        if !has_adjacent_safety(line - 1, &masked_lines, &src_lines) {
            diags.push(Diagnostic {
                file: path.to_string(),
                line,
                rule: "unsafe-safety",
                severity: Severity::Error,
                message: "`unsafe` without an adjacent `// SAFETY:` comment or `# Safety` doc"
                    .into(),
            });
        }
    }
}

/// Walk upward from the (0-based) line holding an `unsafe` keyword,
/// looking for a safety argument. Comment content is read from the
/// *original* source (comments are blanked in the masked text); the walk
/// continues over comments, attributes, blank lines, and lines that are
/// continuations of the statement containing the `unsafe` (no `;`/`{`/`}`
/// terminator yet), and stops at the previous statement boundary.
fn has_adjacent_safety(idx: usize, masked_lines: &[&str], src_lines: &[&str]) -> bool {
    let marks = |s: &str| s.contains("SAFETY:") || s.contains("# Safety");
    if src_lines.get(idx).copied().is_some_and(marks) {
        return true;
    }
    let mut l = idx;
    while l > 0 {
        l -= 1;
        if src_lines.get(l).copied().is_some_and(marks) {
            return true;
        }
        let code = masked_lines.get(l).map_or("", |s| s.trim());
        let boundary = code.ends_with(';') || code.ends_with('{') || code.ends_with('}');
        if boundary {
            return false;
        }
    }
    false
}

/// `no-unwrap`: `.unwrap()`, `.expect(`, and `panic!` are forbidden in
/// library code. `.unwrap_or_else(..)` and friends are fine (the match
/// requires the exact call), as are the assert macros.
fn no_unwrap(path: &str, m: &MaskedSource, diags: &mut Vec<Diagnostic>) {
    for (needle, what) in
        [(".unwrap()", "`.unwrap()`"), (".expect(", "`.expect(..)`"), ("panic!", "`panic!`")]
    {
        for at in find_all(&m.masked, needle) {
            if m.in_test(at) {
                continue;
            }
            // `panic!` must be a macro call, not the tail of an ident
            // (`should_panic!` does not exist, but be safe) and not a
            // path segment of the assert machinery.
            if needle == "panic!" && at > 0 && is_ident_byte(m.masked.as_bytes()[at - 1]) {
                continue;
            }
            diags.push(Diagnostic {
                file: path.to_string(),
                line: m.line_of(at),
                rule: "no-unwrap",
                severity: Severity::Error,
                message: format!("{what} in library code; return a Result or handle the None"),
            });
        }
    }
}

/// `no-as-narrowing`: a bare `as f32` silently rounds; the Ozaki-split
/// kernels rely on every narrowing being exact, so they must go through
/// `me_numerics::formats::narrow_f32_exact` (which checks the round-trip).
fn no_as_narrowing(path: &str, m: &MaskedSource, diags: &mut Vec<Diagnostic>) {
    let bytes = m.masked.as_bytes();
    for at in find_all(&m.masked, "as f32") {
        if m.in_test(at) {
            continue;
        }
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + "as f32".len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if !(before_ok && after_ok) {
            continue;
        }
        diags.push(Diagnostic {
            file: path.to_string(),
            line: m.line_of(at),
            rule: "no-as-narrowing",
            severity: Severity::Error,
            message: "bare `as f32` narrowing in a numeric kernel; use narrow_f32_exact".into(),
        });
    }
}

/// `float-eq`: `==`/`!=` where either operand is a nonzero float
/// literal. Zero comparisons are exact and allowed; everything else is
/// almost always a rounding bug waiting to happen.
fn float_eq(path: &str, m: &MaskedSource, diags: &mut Vec<Diagnostic>) {
    let bytes = m.masked.as_bytes();
    for op in ["==", "!="] {
        for at in find_all(&m.masked, op) {
            if m.in_test(at) {
                continue;
            }
            // Skip `<=`, `>=`, pattern `=>`: require a clean operator.
            if at > 0 && matches!(bytes[at - 1], b'<' | b'>' | b'=' | b'!') {
                continue;
            }
            if at + op.len() < bytes.len() && bytes[at + op.len()] == b'=' {
                continue;
            }
            let lhs = token_before(bytes, at);
            let rhs = token_after(bytes, at + op.len());
            if is_nonzero_float_literal(&lhs) || is_nonzero_float_literal(&rhs) {
                diags.push(Diagnostic {
                    file: path.to_string(),
                    line: m.line_of(at),
                    rule: "float-eq",
                    severity: Severity::Error,
                    message: format!(
                        "exact float comparison `{} {op} {}`; compare with a tolerance",
                        if lhs.is_empty() { "_" } else { &lhs },
                        if rhs.is_empty() { "_" } else { &rhs },
                    ),
                });
            }
        }
    }
}

/// `missing-docs`: a `pub` item (fn, struct, enum, trait, mod, const,
/// static, type, macro) with no doc comment or `#[doc]` attribute above
/// it. `pub use` re-exports and `pub(crate)`-restricted items are out of
/// scope.
fn missing_docs(path: &str, src: &str, m: &MaskedSource, diags: &mut Vec<Diagnostic>) {
    const ITEM_STARTS: [&str; 11] = [
        "pub fn ",
        "pub unsafe fn ",
        "pub async fn ",
        "pub const fn ",
        "pub struct ",
        "pub enum ",
        "pub trait ",
        "pub mod ",
        "pub const ",
        "pub static ",
        "pub type ",
    ];
    let masked_lines: Vec<&str> = m.masked.lines().collect();
    let src_lines: Vec<&str> = src.lines().collect();
    for (idx, line) in masked_lines.iter().enumerate() {
        let trimmed = line.trim_start();
        let Some(item) = ITEM_STARTS.iter().find(|s| trimmed.starts_with(**s)) else {
            continue;
        };
        let offset = m.line_starts.get(idx).copied().unwrap_or(0);
        if m.in_test(offset) {
            continue;
        }
        let rest = &trimmed[item.len()..];
        // `pub mod x;` — an out-of-line module: its docs are the `//!`
        // header of its own file, not a comment at the declaration.
        if *item == "pub mod " && rest.trim_end().ends_with(';') {
            continue;
        }
        // `pub struct $name(..)` inside a macro_rules! template: docs
        // arrive through a `$(#[$meta])*` passthrough at expansion time.
        if rest.starts_with('$') {
            continue;
        }
        if documented_above(idx, &masked_lines, &src_lines, &m.doc_lines) {
            continue;
        }
        let name = rest.split(|c: char| !c.is_alphanumeric() && c != '_').next().unwrap_or("");
        diags.push(Diagnostic {
            file: path.to_string(),
            line: idx + 1,
            rule: "missing-docs",
            severity: Severity::Warning,
            message: format!("public item `{name}` has no doc comment"),
        });
    }
}

/// Walk upward from the item line over attributes, blank lines, and
/// masked-out ordinary comments, looking for a doc comment or a
/// `#[doc` attribute.
fn documented_above(
    item_line: usize,
    masked_lines: &[&str],
    src_lines: &[&str],
    doc_lines: &[bool],
) -> bool {
    let mut l = item_line;
    while l > 0 {
        l -= 1;
        if doc_lines.get(l).copied().unwrap_or(false) {
            return true;
        }
        let masked = masked_lines.get(l).map_or("", |s| s.trim());
        let original = src_lines.get(l).map_or("", |s| s.trim());
        if masked.starts_with("#[doc") {
            return true;
        }
        let is_attr_ish = masked.starts_with("#[")
            || masked.starts_with(')')
            || masked.ends_with(']')
            || masked.ends_with(',');
        let is_masked_comment = masked.is_empty() && !original.is_empty();
        let is_blank = original.is_empty();
        if is_attr_ish || is_masked_comment || is_blank {
            continue;
        }
        return false;
    }
    false
}

/// All byte offsets of `needle` in `hay`.
fn find_all(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = hay[from..].find(needle) {
        out.push(from + p);
        from += p + needle.len();
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The operand token ending just before byte `at` (skipping spaces):
/// contiguous identifier/number/path/field characters.
fn token_before(bytes: &[u8], at: usize) -> String {
    let mut end = at;
    while end > 0 && bytes[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_token_byte(bytes[start - 1]) {
        start -= 1;
    }
    String::from_utf8_lossy(&bytes[start..end]).into_owned()
}

/// The operand token starting just after byte `from` (skipping spaces).
fn token_after(bytes: &[u8], from: usize) -> String {
    let mut start = from;
    while start < bytes.len() && bytes[start] == b' ' {
        start += 1;
    }
    // A leading sign belongs to a literal operand.
    let mut end = start;
    if end < bytes.len() && bytes[end] == b'-' {
        end += 1;
    }
    while end < bytes.len() && is_token_byte(bytes[end]) {
        end += 1;
    }
    String::from_utf8_lossy(&bytes[start..end]).into_owned()
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':')
}

/// Is `tok` a float literal with a nonzero value? Accepts `1.5`,
/// `2.0e-3`, `1.0_f64`, `3f32`; rejects idents, integers, and all-zero
/// literals like `0.0` / `-0.0` / `0.` .
fn is_nonzero_float_literal(tok: &str) -> bool {
    let t = tok.strip_prefix('-').unwrap_or(tok);
    let t = t
        .strip_suffix("_f64")
        .or_else(|| t.strip_suffix("_f32"))
        .or_else(|| t.strip_suffix("f64"))
        .or_else(|| t.strip_suffix("f32"))
        .unwrap_or(t);
    if t.is_empty() || !t.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let has_float_shape = t.contains('.')
        || t.contains('e')
        || t.contains('E')
        || t.len() < tok.trim_start_matches('-').len();
    if !has_float_shape {
        return false;
    }
    // Mantissa digits all zero → an exact-zero literal, which is fine.
    let mantissa = t.split(['e', 'E']).next().unwrap_or(t);
    mantissa.chars().any(|c| c.is_ascii_digit() && c != '0')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::mask_source;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_file(path, src, &mask_source(src))
    }

    #[test]
    fn unwrap_expect_panic_flagged_in_library_code() {
        let src = "fn f() {\n    x.unwrap();\n    y.expect(\"msg\");\n    panic!(\"boom\");\n}\n";
        let d = run("crates/x/src/lib.rs", src);
        let rules: Vec<_> = d.iter().filter(|d| d.rule == "no-unwrap").map(|d| d.line).collect();
        assert_eq!(rules, vec![2, 3, 4]);
    }

    #[test]
    fn unwrap_or_else_and_tests_are_clean() {
        let src = "fn f() {\n    x.unwrap_or_else(|| 0);\n    y.unwrap_or(1);\n}\n#[cfg(test)]\nmod tests {\n    fn t() { z.unwrap(); }\n}\n";
        let d = run("crates/x/src/lib.rs", src);
        assert!(d.iter().all(|d| d.rule != "no-unwrap"), "{d:?}");
    }

    #[test]
    fn unwrap_in_comment_or_string_is_clean() {
        let src = "// call .unwrap() here\nfn f() { let s = \".unwrap()\"; }\n";
        let d = run("crates/x/src/lib.rs", src);
        assert!(d.iter().all(|d| d.rule != "no-unwrap"), "{d:?}");
    }

    #[test]
    fn as_f32_flagged_only_in_kernel_scopes() {
        let src = "fn f(x: f64) -> f32 { x as f32 }\n";
        let in_scope = run("crates/numerics/src/lib.rs", src);
        assert_eq!(in_scope.iter().filter(|d| d.rule == "no-as-narrowing").count(), 1);
        let out_of_scope = run("crates/engine/src/lib.rs", src);
        assert!(out_of_scope.iter().all(|d| d.rule != "no-as-narrowing"));
    }

    #[test]
    fn float_eq_flags_nonzero_literals_only() {
        let src = "fn f(a: f64) {\n    if a == 0.1 {}\n    if a == 0.0 {}\n    if 2.5 != a {}\n    if a == b {}\n    if n == 3 {}\n}\n";
        let d = run("crates/x/src/lib.rs", src);
        let lines: Vec<_> = d.iter().filter(|d| d.rule == "float-eq").map(|d| d.line).collect();
        assert_eq!(lines, vec![2, 4], "{d:?}");
    }

    #[test]
    fn float_eq_ignores_le_ge_and_match_arms() {
        let src = "fn f(a: f64) -> f64 {\n    if a <= 1.5 { return 0.0 }\n    match x { 1 => 2.0, _ => 3.0 }\n}\n";
        let d = run("crates/x/src/lib.rs", src);
        assert!(d.iter().all(|d| d.rule != "float-eq"), "{d:?}");
    }

    #[test]
    fn missing_docs_flags_undocumented_pub_items() {
        let src = "/// Documented.\npub fn good() {}\n\npub fn bad() {}\n\npub(crate) fn internal() {}\npub use std::fmt;\n";
        let d = run("crates/x/src/lib.rs", src);
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "missing-docs").collect();
        assert_eq!(hits.len(), 1, "{d:?}");
        assert_eq!(hits[0].line, 4);
        assert!(hits[0].message.contains("`bad`"));
    }

    #[test]
    fn missing_docs_skips_mod_decls_and_macro_templates() {
        let src = "pub mod out_of_line;\nmacro_rules! m {\n    ($name:ident) => {\n        pub struct $name(f64);\n    };\n}\npub mod inline {}\n";
        let d = run("crates/x/src/lib.rs", src);
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "missing-docs").collect();
        assert_eq!(hits.len(), 1, "{d:?}");
        assert!(hits[0].message.contains("`inline`"), "inline mod still checked");
    }

    #[test]
    fn missing_docs_sees_through_attributes_and_blank_lines() {
        let src = "/// Doc.\n#[derive(Debug)]\n#[repr(C)]\npub struct S;\n\n/// Doc two.\n\npub enum E { A }\n";
        let d = run("crates/x/src/lib.rs", src);
        assert!(d.iter().all(|d| d.rule != "missing-docs"), "{d:?}");
    }

    #[test]
    fn unsafe_flagged_and_safety_comment_checked() {
        // A bare unsafe block: both rules fire on the same line.
        let src = "fn f() {\n    let p = unsafe { *ptr };\n}\n";
        let d = run("crates/x/src/lib.rs", src);
        assert_eq!(d.iter().filter(|d| d.rule == "no-unsafe").count(), 1, "{d:?}");
        assert_eq!(d.iter().filter(|d| d.rule == "unsafe-safety").count(), 1, "{d:?}");
        assert!(d.iter().all(|d| d.rule != "unsafe-safety" || d.line == 2));

        // A commented site satisfies unsafe-safety but still counts for
        // the no-unsafe budget.
        let src = "fn f() {\n    // SAFETY: ptr is valid for the whole call.\n    let p = unsafe { *ptr };\n}\n";
        let d = run("crates/x/src/lib.rs", src);
        assert_eq!(d.iter().filter(|d| d.rule == "no-unsafe").count(), 1, "{d:?}");
        assert!(d.iter().all(|d| d.rule != "unsafe-safety"), "{d:?}");
    }

    #[test]
    fn unsafe_safety_sees_through_attrs_docs_and_continuations() {
        // `# Safety` doc section above attributes on an unsafe fn.
        let src = "/// Kernel.\n///\n/// # Safety\n///\n/// Caller checks CPUID.\n#[target_feature(enable = \"avx2\")]\nunsafe fn k() {}\n";
        let d = run("crates/x/src/lib.rs", src);
        assert!(d.iter().all(|d| d.rule != "unsafe-safety"), "{d:?}");

        // SAFETY comment above a multi-line statement whose later line
        // holds the `unsafe` keyword.
        let src = "fn f() {\n    let q = r;\n    // SAFETY: lifetime erased, pointee outlives the call.\n    let obj: &'static X =\n        unsafe { std::mem::transmute(o) };\n}\n";
        let d = run("crates/x/src/lib.rs", src);
        assert!(d.iter().all(|d| d.rule != "unsafe-safety"), "{d:?}");

        // A statement boundary between comment and unsafe breaks adjacency.
        let src = "fn f() {\n    // SAFETY: stale argument.\n    let q = r;\n    let p = unsafe { *ptr };\n}\n";
        let d = run("crates/x/src/lib.rs", src);
        assert_eq!(d.iter().filter(|d| d.rule == "unsafe-safety").count(), 1, "{d:?}");
    }

    #[test]
    fn unsafe_in_tests_strings_and_idents_is_clean() {
        let src = "fn f() {\n    let unsafely = 1;\n    let s = \"unsafe { }\";\n}\n#[cfg(test)]\nmod tests {\n    fn t() { unsafe { x() } }\n}\n";
        let d = run("crates/x/src/lib.rs", src);
        assert!(d.iter().all(|d| d.rule != "no-unsafe" && d.rule != "unsafe-safety"), "{d:?}");
    }

    #[test]
    fn nonzero_float_literal_classifier() {
        for yes in ["0.1", "2.5", "1.0e-9", "-3.25", "1.5_f64", "100.0"] {
            assert!(is_nonzero_float_literal(yes), "{yes}");
        }
        for no in ["0.0", "-0.0", "0.", "0.000", "0e0", "x", "a.b", "3", "f64::NAN", ""] {
            assert!(!is_nonzero_float_literal(no), "{no}");
        }
    }
}
