//! A hand-rolled Rust source scanner.
//!
//! The lints in [`crate::lints`] are textual, so they need the text
//! pre-masked: anything that *looks* like code but isn't — comments
//! (line, block, nested block), string literals (plain, byte, raw with
//! any number of `#`s), and char literals — must not produce matches.
//! [`mask_source`] produces a byte-for-byte copy of the input where all
//! such regions are blanked to spaces (newlines preserved, so byte
//! offsets and line numbers stay aligned with the original), plus two
//! side tables: which lines are doc comments (the `missing-docs` rule
//! needs them) and which bytes sit inside a `#[cfg(test)]` item (every
//! rule skips those).
//!
//! This is a scanner, not a parser: it tracks exactly the token-level
//! state needed to answer "is this byte code?", which is the level of
//! fidelity the lint rules require.

/// A source file after masking.
#[derive(Debug, Clone)]
pub struct MaskedSource {
    /// Same length as the input; every non-code byte replaced by a space
    /// (newlines kept, so offsets and line numbers match the original).
    pub masked: String,
    /// Per line (0-based): true when the line is a doc comment
    /// (`///`, `//!`, or inside `/** .. */` / `/*! .. */`).
    pub doc_lines: Vec<bool>,
    /// Per byte: true when the byte is inside an item gated by a
    /// `#[cfg(test)]`-style attribute (the attribute itself included).
    pub test_mask: Vec<bool>,
    /// Per byte: true when the byte was blanked as part of a *comment*
    /// (line, block, doc). Distinguishes a genuine `// me-verify:`
    /// annotation from string contents that merely look like one — both
    /// are spaces in `masked`.
    pub comment_mask: Vec<bool>,
    /// Byte offset of the start of each line (for offset → line lookup).
    pub line_starts: Vec<usize>,
}

impl MaskedSource {
    /// 1-based line number containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i, // insertion point i means line i (1-based)
        }
    }

    /// Whether byte `offset` is inside a `#[cfg(test)]` region.
    pub fn in_test(&self, offset: usize) -> bool {
        self.test_mask.get(offset).copied().unwrap_or(false)
    }

    /// Whether byte `offset` was blanked as part of a comment.
    pub fn in_comment(&self, offset: usize) -> bool {
        self.comment_mask.get(offset).copied().unwrap_or(false)
    }
}

/// Mask a Rust source file: blank comments, strings, and char literals;
/// record doc-comment lines and `#[cfg(test)]` regions.
pub fn mask_source(src: &str) -> MaskedSource {
    let bytes = src.as_bytes();
    let n = bytes.len();
    let mut masked = bytes.to_vec();
    let mut line_starts = vec![0usize];
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' && i + 1 < n {
            line_starts.push(i + 1);
        }
    }
    let line_count = line_starts.len();
    let mut doc_lines = vec![false; line_count];
    let line_of = |off: usize| -> usize {
        match line_starts.binary_search(&off) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    };

    let blank = |masked: &mut [u8], from: usize, to: usize| {
        for b in masked.iter_mut().take(to).skip(from) {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };

    let mut comment_mask = vec![false; n];
    let mark_comment = |comment_mask: &mut [bool], from: usize, to: usize| {
        for m in comment_mask.iter_mut().take(to).skip(from) {
            *m = true;
        }
    };

    let mut i = 0;
    while i < n {
        match bytes[i] {
            b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                // Line comment; `///` (but not `////`) and `//!` are docs.
                let is_doc = (src[i..].starts_with("///") && !src[i..].starts_with("////"))
                    || src[i..].starts_with("//!");
                if is_doc {
                    doc_lines[line_of(i)] = true;
                }
                let end = src[i..].find('\n').map_or(n, |p| i + p);
                blank(&mut masked, i, end);
                mark_comment(&mut comment_mask, i, end);
                i = end;
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                // Block comment with nesting; `/**` (not `/***`, not the
                // empty `/**/`) and `/*!` are docs.
                let is_doc = (src[i..].starts_with("/**")
                    && !src[i..].starts_with("/***")
                    && !src[i..].starts_with("/**/"))
                    || src[i..].starts_with("/*!");
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if src[i..].starts_with("/*") {
                        depth += 1;
                        i += 2;
                    } else if src[i..].starts_with("*/") {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                if is_doc {
                    for l in line_of(start)..=line_of(i.saturating_sub(1)) {
                        doc_lines[l] = true;
                    }
                }
                blank(&mut masked, start, i);
                mark_comment(&mut comment_mask, start, i);
            }
            b'"' => {
                let end = skip_string(bytes, i);
                blank(&mut masked, i, end);
                i = end;
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let end = skip_raw_string(bytes, i);
                blank(&mut masked, i, end);
                i = end;
            }
            // Plain byte strings honor backslash escapes, so they lex
            // like ordinary strings, not raw ones (`b"say \"hi\""`).
            b'b' if i + 1 < n
                && bytes[i + 1] == b'"'
                && (i == 0 || !is_ident_byte(bytes[i - 1])) =>
            {
                let end = skip_string(bytes, i + 1);
                blank(&mut masked, i, end);
                i = end;
            }
            b'\'' => {
                if let Some(end) = char_literal_end(bytes, i) {
                    blank(&mut masked, i, end);
                    i = end;
                } else {
                    // A lifetime (`'a`) — leave as code.
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }

    let masked = String::from_utf8_lossy(&masked).into_owned();
    let test_mask = mark_test_regions(&masked);
    MaskedSource { masked, doc_lines, test_mask, comment_mask, line_starts }
}

/// Is `r"`, `r#"`, `br"`, `br#"` … a *raw* string opener at `i`?
/// (`r#ident` raw identifiers and plain identifiers ending in `r`/`b`
/// must not match. Plain `b"…"` byte strings are escape-aware and are
/// handled by [`skip_string`], not here.)
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // Must not be the tail of an identifier (`var"` is not valid Rust
    // anyway, but `xr#...` would mis-lex).
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return false;
    }
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if j < bytes.len() && bytes[j] == b'r' {
        j += 1;
        while j < bytes.len() && bytes[j] == b'#' {
            j += 1;
        }
        return j < bytes.len() && bytes[j] == b'"';
    }
    false
}

/// Skip a plain (or byte) string starting at the opening quote; returns
/// the index just past the closing quote.
fn skip_string(bytes: &[u8], mut i: usize) -> usize {
    debug_assert_eq!(bytes[i], b'"');
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skip a raw or raw-byte string (`r"…"`, `r##"…"##`, `br#"…"#`);
/// returns the index just past the final `"` + hashes.
fn skip_raw_string(bytes: &[u8], mut i: usize) -> usize {
    if bytes[i] == b'b' {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'r' {
        i += 1;
    }
    let mut hashes = 0usize;
    while i < bytes.len() && bytes[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'"' {
        i += 1;
    } else {
        return i; // b"..." with zero r: opening quote handled above
    }
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut k = 0usize;
            while k < hashes && i + 1 + k < bytes.len() && bytes[i + 1 + k] == b'#' {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// If a char literal starts at `i` (an apostrophe), return the index just
/// past its closing quote; `None` when it is a lifetime.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let n = bytes.len();
    if i + 1 >= n {
        return None;
    }
    if bytes[i + 1] == b'\\' {
        // Escaped char: scan to the closing quote.
        let mut j = i + 2;
        while j < n {
            match bytes[j] {
                b'\\' => j += 2,
                b'\'' => return Some(j + 1),
                b'\n' => return None,
                _ => j += 1,
            }
        }
        return None;
    }
    // Unescaped: rustc's rule exactly — a char literal is `'` + one
    // character + `'`. If the byte after exactly one (possibly
    // multi-byte) character is not a closing quote, this apostrophe
    // starts a lifetime or loop label (`'a`, `'static`, `'outer:`).
    // Scanning further would mis-lex `<'a, 'b>` by pairing the two
    // lifetimes' quotes into a bogus `'a, '` literal.
    if bytes[i + 1] == b'\'' || bytes[i + 1] == b'\n' {
        return None;
    }
    let char_len = utf8_len(bytes[i + 1]);
    match bytes.get(i + 1 + char_len) {
        Some(b'\'') => Some(i + 2 + char_len),
        _ => None,
    }
}

/// Length of the UTF-8 sequence starting with lead byte `b` (1 for
/// continuation bytes, which cannot start a char — the closing-quote
/// check then fails harmlessly).
fn utf8_len(b: u8) -> usize {
    match b {
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        0xf0..=0xf7 => 4,
        _ => 1,
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Mark the byte span of every item gated by a `#[cfg(test)]`-like
/// attribute. Works on *masked* text, so `test` inside strings or
/// comments cannot produce false regions, and brace matching is not
/// confused by braces in literals.
fn mark_test_regions(masked: &str) -> Vec<bool> {
    let bytes = masked.as_bytes();
    let n = bytes.len();
    let mut mask = vec![false; n];
    let mut search = 0usize;
    while let Some(p) = masked[search..].find("#[cfg(") {
        let attr_start = search + p;
        let paren_open = attr_start + "#[cfg".len();
        let Some(paren_close) = matching(bytes, paren_open, b'(', b')') else {
            break;
        };
        let content = &masked[paren_open + 1..paren_close];
        search = paren_close + 1;
        if !contains_ident(content, "test") {
            continue;
        }
        // End of the attribute: the `]` after the cfg parens.
        let Some(attr_end) = masked[paren_close..].find(']').map(|q| paren_close + q + 1) else {
            break;
        };
        // The gated item runs to the first top-level `;` (e.g. a gated
        // `use`) or through the matching brace of the first `{`.
        let mut j = attr_end;
        let mut item_end = None;
        while j < n {
            match bytes[j] {
                b';' => {
                    item_end = Some(j + 1);
                    break;
                }
                b'{' => {
                    item_end = matching(bytes, j, b'{', b'}').map(|e| e + 1);
                    break;
                }
                _ => j += 1,
            }
        }
        let end = item_end.unwrap_or(n);
        for m in mask.iter_mut().take(end).skip(attr_start) {
            *m = true;
        }
        search = end.max(search);
    }
    mask
}

/// Index of the delimiter matching the opener at `open` (depth-counted),
/// on masked text.
fn matching(bytes: &[u8], open: usize, lo: u8, hi: u8) -> Option<usize> {
    debug_assert_eq!(bytes[open], lo);
    let mut depth = 0usize;
    for (off, &b) in bytes.iter().enumerate().skip(open) {
        if b == lo {
            depth += 1;
        } else if b == hi {
            depth -= 1;
            if depth == 0 {
                return Some(off);
            }
        }
    }
    None
}

/// Does `text` contain `ident` as a whole word (non-identifier bytes or
/// boundaries on both sides)?
fn contains_ident(text: &str, ident: &str) -> bool {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(p) = text[from..].find(ident) {
        let at = from + p;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + ident.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
        from = at + ident.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_blanked_and_docs_recorded() {
        let src = "/// doc line\nlet x = 1; // trailing unwrap() mention\n//! inner doc\n";
        let m = mask_source(src);
        assert!(!m.masked.contains("doc line"));
        assert!(!m.masked.contains("unwrap"));
        assert!(m.masked.contains("let x = 1;"));
        assert!(m.doc_lines[0], "/// is a doc line");
        assert!(!m.doc_lines[1], "trailing // is not a doc line");
        assert!(m.doc_lines[2], "//! is a doc line");
    }

    #[test]
    fn nested_block_comments_are_blanked() {
        let src = "a /* outer /* inner .unwrap() */ still comment */ b";
        let m = mask_source(src);
        assert!(!m.masked.contains("unwrap"));
        assert!(!m.masked.contains("still comment"));
        assert!(m.masked.starts_with('a'));
        assert!(m.masked.ends_with('b'));
    }

    #[test]
    fn block_doc_comments_mark_all_their_lines() {
        let src = "/** one\ntwo\n*/\nfn f() {}\n";
        let m = mask_source(src);
        assert!(m.doc_lines[0] && m.doc_lines[1] && m.doc_lines[2]);
        assert!(!m.doc_lines[3]);
    }

    #[test]
    fn strings_with_escapes_are_blanked() {
        let src = r#"let s = "quoted \" .unwrap() \\"; let t = 2;"#;
        let m = mask_source(src);
        assert!(!m.masked.contains("unwrap"));
        assert!(m.masked.contains("let t = 2;"));
    }

    #[test]
    fn raw_strings_with_hashes_are_blanked() {
        let src = "let s = r#\"contains .unwrap() and \"quotes\"\"#; let u = 3;";
        let m = mask_source(src);
        assert!(!m.masked.contains("unwrap"));
        assert!(m.masked.contains("let u = 3;"));
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        let src = "let r#type = 1; let after = 2;";
        let m = mask_source(src);
        assert!(m.masked.contains("let after = 2;"));
    }

    #[test]
    fn char_literals_masked_lifetimes_kept() {
        let src = "let c = '\"'; let q: &'static str = x; let nl = '\\n';";
        let m = mask_source(src);
        // The quote char literal must not open a string.
        assert!(m.masked.contains("let q: &'static str = x;"));
        assert!(!m.masked.contains("'\\n'"));
    }

    #[test]
    fn adjacent_lifetimes_are_not_a_char_literal() {
        // Regression: the old lookahead paired the quotes of `'a` and
        // `'b` into a bogus `'a, '` literal, swallowing the code after.
        let src = "fn f<'a, 'b>(x: &'a str, y: &'b str) { use_it(x, y).unwrap() }";
        let m = mask_source(src);
        assert_eq!(m.masked, src, "lifetimes must survive masking untouched");
        let src2 = "impl<'a, T> Iter<'a, T> { fn g(&'a self) { self.v.unwrap() } }";
        let m2 = mask_source(src2);
        assert!(m2.masked.contains(".unwrap()"), "code after lifetimes stays visible");
    }

    #[test]
    fn loop_labels_are_not_char_literals() {
        let src = "'outer: for i in 0..n { break 'outer; } done();";
        let m = mask_source(src);
        assert_eq!(m.masked, src);
    }

    #[test]
    fn multibyte_char_literals_are_masked() {
        let src = "let c = 'λ'; let d: &'static str = s;";
        let m = mask_source(src);
        assert!(!m.masked.contains('λ'));
        assert!(m.masked.contains("let d: &'static str = s;"));
    }

    #[test]
    fn byte_strings_honor_escapes() {
        // Regression: `b"…"` used to be lexed as a raw string, so the
        // escaped quote terminated it early and the tail leaked as code.
        let src = r#"let s = b"say \"hi\" now"; let t = 4;"#;
        let m = mask_source(src);
        assert!(!m.masked.contains("say"));
        assert!(!m.masked.contains("now"));
        assert!(m.masked.contains("let t = 4;"));
    }

    #[test]
    fn raw_byte_strings_still_lex_raw() {
        // In `br#"…"#` a backslash is literal, not an escape.
        let src = "let s = br#\"back \\\" slash\"#; let v = 5;";
        let m = mask_source(src);
        assert!(!m.masked.contains("slash"));
        assert!(m.masked.contains("let v = 5;"));
    }

    #[test]
    fn raw_strings_with_hashes_inside_doc_comments() {
        // A doc comment quoting a raw string must stay one comment line:
        // the `"` inside it must not open a real string.
        let src = "/// Use `r##\"x\"##` to quote.\nfn f() { body().unwrap() }\n// plain: r#\"y\"#\nlet z = 6;\n";
        let m = mask_source(src);
        assert!(m.doc_lines[0], "doc line recorded");
        assert!(!m.masked.contains("r##"), "doc contents blanked");
        assert!(m.masked.contains(".unwrap()"), "code after the doc survives");
        assert!(m.masked.contains("let z = 6;"), "code after the plain comment survives");
    }

    #[test]
    fn raw_string_containing_doc_and_cfg_text_is_inert() {
        // The converse: doc-comment-looking and cfg(test)-looking text
        // inside a raw string must produce no doc lines or test regions.
        let src = "let s = r##\"\n/// not a doc\n#[cfg(test)]\nmod tests {}\n\"##;\nfn real() {}\n";
        let m = mask_source(src);
        assert!(m.doc_lines.iter().all(|&d| !d), "no doc lines from string contents");
        assert!(m.test_mask.iter().all(|&t| !t), "no test regions from string contents");
        assert!(m.masked.contains("fn real() {}"));
    }

    #[test]
    fn cfg_test_mod_region_is_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap() }\n}\nfn after() {}\n";
        let m = mask_source(src);
        let unwrap_at = m.masked.find(".unwrap()").expect("unwrap stays in masked code");
        assert!(m.in_test(unwrap_at), "unwrap inside cfg(test) mod");
        let lib_at = m.masked.find("fn lib").expect("present");
        let after_at = m.masked.find("fn after").expect("present");
        assert!(!m.in_test(lib_at));
        assert!(!m.in_test(after_at));
    }

    #[test]
    fn cfg_all_test_and_gated_use_are_marked() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nfn helper() { a.unwrap() }\n#[cfg(test)]\nuse std::fmt;\nfn code() {}\n";
        let m = mask_source(src);
        let unwrap_at = m.masked.find(".unwrap()").expect("present");
        assert!(m.in_test(unwrap_at), "cfg(all(test, ..)) counts as test");
        let use_at = m.masked.find("use std").expect("present");
        assert!(m.in_test(use_at), "gated use runs to the semicolon");
        let code_at = m.masked.find("fn code").expect("present");
        assert!(!m.in_test(code_at));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        // `test` appears as an ident, so the conservative scanner marks
        // it; but a plain feature cfg must not.
        let src = "#[cfg(feature = \"testing\")]\nfn f() { a.unwrap() }\n";
        let m = mask_source(src);
        let unwrap_at = m.masked.find(".unwrap()").expect("present");
        assert!(!m.in_test(unwrap_at), "feature string is masked, no test ident");
    }

    #[test]
    fn comment_mask_separates_comments_from_strings() {
        let src = "let s = \"// not a comment\"; // a real comment\n";
        let m = mask_source(src);
        let in_string = src.find("not").expect("present");
        let in_comment = src.find("real").expect("present");
        assert!(!m.in_comment(in_string), "string contents are not comment bytes");
        assert!(m.in_comment(in_comment), "trailing comment bytes are marked");
        assert!(m.in_comment(src.find("// a").expect("present")), "the slashes too");
    }

    #[test]
    fn line_numbers_align_with_original() {
        let src = "line one\nline two\nline three\n";
        let m = mask_source(src);
        assert_eq!(m.line_of(0), 1);
        assert_eq!(m.line_of(src.find("two").expect("present")), 2);
        assert_eq!(m.line_of(src.find("three").expect("present")), 3);
    }
}
