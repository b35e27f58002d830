//! A lightweight token-tree/IR layer over [`crate::scan`]: function
//! items, brace structure, and `// me-verify:` annotations.
//!
//! The concurrency and determinism rules ([`crate::locks`],
//! [`crate::envs`], [`crate::hotpath`], [`crate::fma`]) need more than
//! "is this byte code?" — they need to know *which function* a byte
//! belongs to, where that function's body ends, and what the author
//! promised about it. This module recovers exactly that much structure
//! from the masked text:
//!
//! - every `fn` item: name, header line, brace-matched body span;
//! - every matched `{ … }` pair (guard-scope reasoning in the
//!   lock-order rule);
//! - every `// me-verify: <keys>` annotation, attached to the function
//!   it precedes.
//!
//! ## Annotation grammar
//!
//! A line comment `// me-verify: key[, key …]`, placed either on the
//! lines directly above a `fn` item (doc comments, attributes, other
//! comments, and blank lines may intervene — the same adjacency rule as
//! the `unsafe-safety` walker) or trailing on the header line itself.
//! Recognized keys:
//!
//! - `hot` — the function body must stay allocation-free
//!   (checked by the `no-alloc-hot` rule);
//! - `env-startup` — the function is a sanctioned startup-time
//!   environment reader (exempts it from the `env-read` rule).
//!
//! Unknown keys and annotations that attach to no function are reported
//! as `bad-annotation` warnings: a typo must not silently disable a
//! rule.
//!
//! Like the scanner, this is deliberately not a parser. It finds `fn`
//! keywords and balances delimiters on masked text, which is exactly
//! enough for intra-procedural rules and degrades safely (a function it
//! fails to see is simply not checked — and the negative fixtures in CI
//! pin the cases that must be seen).

use crate::scan::MaskedSource;
use crate::{Diagnostic, Severity};

/// Annotation key marking a function body as an allocation-free hot
/// path.
pub const KEY_HOT: &str = "hot";
/// Annotation key sanctioning startup-time environment reads.
pub const KEY_ENV_STARTUP: &str = "env-startup";

const KNOWN_KEYS: [&str; 2] = [KEY_HOT, KEY_ENV_STARTUP];
const ANN_MARKER: &str = "me-verify:";

/// One `fn` item recovered from the masked text.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The identifier after `fn`.
    pub name: String,
    /// Byte offset of the `fn` keyword.
    pub fn_offset: usize,
    /// 1-based line of the `fn` keyword.
    pub header_line: usize,
    /// Body byte range, from the opening `{` to just past the matching
    /// `}`; `None` for bodyless declarations (trait method signatures).
    pub body: Option<(usize, usize)>,
    /// `me-verify:` annotation keys attached to this function.
    pub keys: Vec<String>,
}

impl FnInfo {
    /// Does this function carry the given annotation key?
    pub fn has_key(&self, key: &str) -> bool {
        self.keys.iter().any(|k| k == key)
    }
}

/// One `// me-verify:` annotation line.
#[derive(Debug, Clone)]
struct AnnLine {
    /// 0-based line index.
    line_idx: usize,
    /// Byte offset of the `//` that starts the comment.
    offset: usize,
    /// Parsed keys (verbatim, including unknown ones).
    keys: Vec<String>,
    /// Did the attachment walk reach a `fn` item?
    attached: bool,
}

/// Function items, brace pairs, and annotations for one file.
#[derive(Debug, Clone)]
pub struct FileIr {
    /// All recovered `fn` items, in source order.
    pub fns: Vec<FnInfo>,
    /// All matched `{ … }` pairs on masked text, as byte offsets of the
    /// opener and its closer, sorted by opener.
    pub braces: Vec<(usize, usize)>,
    anns: Vec<AnnLine>,
}

impl FileIr {
    /// Build the IR for one file. `src` is the original text (the
    /// annotation comments live there — the masked copy blanks them),
    /// `masked` its scan result.
    pub fn build(src: &str, masked: &MaskedSource) -> FileIr {
        let braces = brace_pairs(masked.masked.as_bytes());
        let mut anns = find_annotations(src, masked);
        let mut fns = find_fns(masked, &braces);
        attach_annotations(src, masked, &mut fns, &mut anns);
        FileIr { fns, braces, anns }
    }

    /// The innermost function whose body contains byte `offset`.
    pub fn enclosing_fn(&self, offset: usize) -> Option<&FnInfo> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(open, close)| open <= offset && offset < close))
            .min_by_key(|f| {
                let (open, close) = f.body.unwrap_or((0, usize::MAX));
                close - open
            })
    }

    /// End (exclusive, just past `}`) of the innermost brace block
    /// containing `offset`; the file length when none does.
    pub fn block_end(&self, offset: usize, file_len: usize) -> usize {
        self.braces
            .iter()
            .filter(|&&(open, close)| open < offset && offset <= close)
            .min_by_key(|&&(open, close)| close - open)
            .map_or(file_len, |&(_, close)| close + 1)
    }

    /// Diagnostics for malformed annotations: unknown keys and
    /// annotations that attach to no function. Annotations inside
    /// `#[cfg(test)]` regions are exempt (test helpers may demo them).
    pub fn annotation_diagnostics(&self, rel_path: &str, masked: &MaskedSource) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for ann in &self.anns {
            if masked.in_test(ann.offset) {
                continue;
            }
            for key in &ann.keys {
                if !KNOWN_KEYS.contains(&key.as_str()) {
                    out.push(Diagnostic {
                        file: rel_path.to_string(),
                        line: ann.line_idx + 1,
                        rule: "bad-annotation",
                        severity: Severity::Warning,
                        message: format!(
                            "unknown `me-verify:` key `{key}` (known: {})",
                            KNOWN_KEYS.join(", ")
                        ),
                    });
                }
            }
            if !ann.attached {
                out.push(Diagnostic {
                    file: rel_path.to_string(),
                    line: ann.line_idx + 1,
                    rule: "bad-annotation",
                    severity: Severity::Warning,
                    message: "`me-verify:` annotation does not precede a `fn` item".to_string(),
                });
            }
        }
        out
    }
}

/// All matched `{ … }` pairs on masked bytes, sorted by opener offset.
fn brace_pairs(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut stack = Vec::new();
    let mut pairs = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'{' => stack.push(i),
            b'}' => {
                if let Some(open) = stack.pop() {
                    pairs.push((open, i));
                }
            }
            _ => {}
        }
    }
    pairs.sort_unstable();
    pairs
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Find every `fn` item on masked text: keyword, name, body span.
fn find_fns(masked: &MaskedSource, braces: &[(usize, usize)]) -> Vec<FnInfo> {
    let text = &masked.masked;
    let bytes = text.as_bytes();
    let n = bytes.len();
    let mut fns = Vec::new();
    let mut from = 0usize;
    while let Some(p) = text[from..].find("fn") {
        let at = from + p;
        from = at + 2;
        // Ident boundaries: reject `info`, `fnord`, `Fn`.
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        if at + 2 < n && is_ident_byte(bytes[at + 2]) {
            continue;
        }
        // Name: next token must be an identifier (fn *types* like
        // `fn(usize) -> T` have none and are skipped).
        let mut j = at + 2;
        while j < n && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < n && is_ident_byte(bytes[j]) {
            j += 1;
        }
        if j == name_start {
            continue;
        }
        let name = text[name_start..j].to_string();
        // Body: first `{` at delimiter depth 0 after the signature;
        // a depth-0 `;` first means a bodyless declaration.
        let mut depth = 0usize;
        let mut body = None;
        let mut k = j;
        while k < n {
            match bytes[k] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth = depth.saturating_sub(1),
                b'{' if depth == 0 => {
                    let close =
                        braces.iter().find(|&&(open, _)| open == k).map(|&(_, close)| close);
                    body = close.map(|c| (k, c + 1));
                    break;
                }
                b';' if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        fns.push(FnInfo {
            name,
            fn_offset: at,
            header_line: masked.line_of(at),
            body,
            keys: Vec::new(),
        });
    }
    fns
}

/// Find every `// me-verify:` annotation comment. Works against the
/// original text (comments are blanked in the masked copy) but uses the
/// scanner's comment mask to reject look-alikes inside string literals.
fn find_annotations(src: &str, masked: &MaskedSource) -> Vec<AnnLine> {
    let mut anns = Vec::new();
    for (idx, &line_start) in masked.line_starts.iter().enumerate() {
        let line_end =
            masked.line_starts.get(idx + 1).map_or(src.len(), |&next| next.saturating_sub(1));
        let line = &src[line_start..line_end.max(line_start)];
        // Doc comments are prose, not annotations.
        if masked.doc_lines.get(idx).copied().unwrap_or(false) {
            continue;
        }
        // The marker must sit inside a real comment, not inside a
        // string literal whose contents merely look like an annotation
        // (both are blanked in the masked copy; the comment mask tells
        // them apart).
        let Some(mark) = line
            .match_indices(ANN_MARKER)
            .map(|(p, _)| p)
            .find(|&p| masked.in_comment(line_start + p))
        else {
            continue;
        };
        let keys_text = &line[mark + ANN_MARKER.len()..];
        let keys: Vec<String> =
            keys_text.split(',').map(|k| k.trim().to_string()).filter(|k| !k.is_empty()).collect();
        anns.push(AnnLine { line_idx: idx, offset: line_start + mark, keys, attached: false });
    }
    anns
}

/// Attach each annotation to the `fn` item it precedes (or shares a
/// header line with), walking down over doc comments, attributes, other
/// comments, and blank lines.
fn attach_annotations(src: &str, masked: &MaskedSource, fns: &mut [FnInfo], anns: &mut [AnnLine]) {
    for ann in anns.iter_mut() {
        // Trailing form: annotation on a fn header line.
        if let Some(f) =
            fns.iter_mut().find(|f| f.header_line == ann.line_idx + 1 && f.fn_offset < ann.offset)
        {
            f.keys.extend(ann.keys.iter().cloned());
            ann.attached = true;
            continue;
        }
        // Preceding form: walk down from the annotation line until the
        // first line that is neither blank, comment, nor attribute; it
        // must hold a `fn` keyword at or before the name position.
        let mut l = ann.line_idx + 1;
        let line_count = masked.line_starts.len();
        while l < line_count {
            let start = masked.line_starts[l];
            let end = masked.line_starts.get(l + 1).map_or(src.len(), |&e| e);
            let code = masked.masked[start..end.min(src.len())].trim();
            if code.is_empty() {
                // Blank or pure-comment line (doc comments included).
                l += 1;
                continue;
            }
            if code.starts_with("#[") || code.starts_with("#!") {
                l += 1;
                continue;
            }
            // Visibility + fn keyword live on this line for every fn in
            // this codebase; accept when the line's fn starts here.
            if let Some(f) = fns.iter_mut().find(|f| f.header_line == l + 1) {
                f.keys.extend(ann.keys.iter().cloned());
                ann.attached = true;
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::mask_source;

    fn ir_of(src: &str) -> FileIr {
        FileIr::build(src, &mask_source(src))
    }

    #[test]
    fn finds_fns_with_bodies_and_names() {
        let src = "pub fn alpha(x: usize) -> usize { x + 1 }\nfn beta<T: Fn(usize)>(f: T) where T: Sized { f(2); }\ntrait T { fn gamma(&self) -> u32; }\n";
        let ir = ir_of(src);
        let names: Vec<_> = ir.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta", "gamma"]);
        assert!(ir.fns[0].body.is_some());
        assert!(ir.fns[1].body.is_some(), "generics with Fn bounds do not confuse body search");
        assert!(ir.fns[2].body.is_none(), "trait signature has no body");
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "type Cb = fn(usize) -> u32;\nfn real() {}\n";
        let ir = ir_of(src);
        let names: Vec<_> = ir.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["real"]);
    }

    #[test]
    fn enclosing_fn_picks_the_innermost() {
        let src = "fn outer() {\n    fn inner() { let x = 1; }\n    let y = 2;\n}\n";
        let ir = ir_of(src);
        let x_at = src.find("let x").expect("present");
        let y_at = src.find("let y").expect("present");
        assert_eq!(ir.enclosing_fn(x_at).map(|f| f.name.as_str()), Some("inner"));
        assert_eq!(ir.enclosing_fn(y_at).map(|f| f.name.as_str()), Some("outer"));
    }

    #[test]
    fn annotations_attach_over_docs_and_attrs() {
        let src = "/// Doc.\n// me-verify: hot\n#[inline]\npub fn fast() { work(); }\n\n// me-verify: env-startup\nfn reader() {}\nfn plain() {}\n";
        let ir = ir_of(src);
        let fast = ir.fns.iter().find(|f| f.name == "fast").expect("fast");
        assert!(fast.has_key(KEY_HOT));
        let reader = ir.fns.iter().find(|f| f.name == "reader").expect("reader");
        assert!(reader.has_key(KEY_ENV_STARTUP));
        let plain = ir.fns.iter().find(|f| f.name == "plain").expect("plain");
        assert!(plain.keys.is_empty());
    }

    #[test]
    fn trailing_annotation_attaches_to_its_header_line() {
        let src = "pub fn quick() { // me-verify: hot\n    tight();\n}\n";
        let ir = ir_of(src);
        assert!(ir.fns[0].has_key(KEY_HOT));
    }

    #[test]
    fn annotation_text_inside_strings_is_ignored() {
        let src = "fn f() { let s = \"// me-verify: hot\"; use_it(s); }\n";
        let ir = ir_of(src);
        assert!(ir.fns[0].keys.is_empty());
        let m = mask_source(src);
        assert!(ir.annotation_diagnostics("f.rs", &m).is_empty());
    }

    #[test]
    fn unknown_keys_and_orphans_warn() {
        let src = "// me-verify: hott\nfn f() {}\n\n// me-verify: hot\nstatic X: u32 = 1;\n";
        let m = mask_source(src);
        let ir = FileIr::build(src, &m);
        let diags = ir.annotation_diagnostics("f.rs", &m);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.rule == "bad-annotation"));
        assert!(diags[0].message.contains("hott"));
        assert!(diags[1].message.contains("does not precede"));
    }

    #[test]
    fn block_end_is_innermost() {
        let src = "fn f() { if c { let g = 1; } tail(); }";
        let ir = ir_of(src);
        let g_at = src.find("let g").expect("present");
        let inner_close = src.rfind("} tail").expect("present");
        assert_eq!(ir.block_end(g_at, src.len()), inner_close + 1);
    }
}
