//! Golden-fixture suite for the scanner: `tests/fixtures/golden/tricky.rs`
//! packs the token streams that have historically broken hand-rolled
//! Rust lexers (nested block comments, raw strings holding fake code,
//! lifetimes adjacent to char literals, escaped quotes in byte strings,
//! `#[cfg(test)]` gating), and every finding the rules produce over it
//! must match the fixture's `EXPECT` markers exactly.

use std::path::Path;

use me_verify::{lint_source, mask_source};

fn fixture_source() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden/tricky.rs");
    std::fs::read_to_string(path).expect("golden fixture is committed")
}

/// `(rule, 1-based line)` pairs declared by the fixture's markers.
fn expected(src: &str) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = src
        .lines()
        .enumerate()
        .filter_map(|(idx, line)| {
            line.split("// EXPECT: ").nth(1).map(|rule| (rule.trim().to_string(), idx + 1))
        })
        .collect();
    out.sort();
    out
}

/// 1-based line of the first line containing `needle`.
fn line_of(src: &str, needle: &str) -> usize {
    src.lines().position(|l| l.contains(needle)).map(|i| i + 1).expect("needle present")
}

#[test]
fn findings_match_the_expect_markers_exactly() {
    let src = fixture_source();
    let want = expected(&src);
    assert_eq!(want.len(), 5, "fixture declares five findings: {want:?}");
    let mut got: Vec<(String, usize)> = lint_source("golden/tricky.rs", &src)
        .iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect();
    got.sort();
    assert_eq!(got, want, "finding list must equal the EXPECT markers");
}

#[test]
fn comment_and_string_contents_are_blanked() {
    let src = fixture_source();
    let m = mask_source(&src);
    let masked_line = |n: usize| m.masked.lines().nth(n - 1).expect("masked keeps line structure");

    // The nested block comment blanks to whitespace, including the
    // inner `*/` that a non-nesting lexer would stop at.
    let block = masked_line(line_of(&src, "A block comment"));
    assert!(block.trim().is_empty(), "nested block comment not blanked: {block:?}");

    // The raw string's fake unwrap/test-gate/brace payload is gone, but
    // the code around it (`let guide = ...;`) survives.
    let raw = masked_line(line_of(&src, "r#\"call"));
    assert!(raw.contains("let guide ="), "code around raw string kept: {raw:?}");
    for gone in [".unwrap()", "cfg(test)", "mod tests", "{"] {
        assert!(!raw.contains(gone), "raw-string payload `{gone}` leaked: {raw:?}");
    }

    // The escaped quote inside the byte string does not end it early:
    // nothing after `b"` on that line is left unmasked.
    let bytes = masked_line(line_of(&src, "b\"escaped"));
    assert!(!bytes.contains('q') && !bytes.contains('}'), "byte-string leak: {bytes:?}");

    // The char literal blanks; the lifetimes two lines up do not eat
    // the rest of the line as a phantom char literal.
    assert!(!masked_line(line_of(&src, "let marker")).contains('q'));
    let lt = masked_line(line_of(&src, "pub fn lifetimes"));
    assert!(lt.contains("<'a, 'b>") && lt.contains("&'a str"), "lifetimes kept: {lt:?}");
}

#[test]
fn test_gate_and_doc_lines_are_tracked() {
    let src = fixture_source();
    let m = mask_source(&src);
    let offset_of = |needle: &str| src.find(needle).expect("needle present");

    // The real #[cfg(test)] module is gated; library code is not; the
    // fake gate inside the raw string gates nothing.
    assert!(m.test_mask[offset_of("fn gated()")], "tests module is test-masked");
    assert!(!m.test_mask[offset_of("fn env_peek()")], "library code is live");
    assert!(!m.test_mask[offset_of("let bytes")], "string payload must not gate");

    // Doc comments are flagged as doc lines; code lines are not.
    let line_no = |needle: &str| src.lines().position(|l| l.contains(needle)).expect("line");
    assert!(m.doc_lines[line_no("Lifetime ticks")]);
    assert!(!m.doc_lines[line_no("pub fn lifetimes")]);
}
