//! The `fma-contract` rule: ukernel accumulator updates go through
//! `mul_add`.
//!
//! The bitwise-identity guarantee (DESIGN §9) holds because every
//! kernel variant performs exactly one correctly-rounded FMA per
//! accumulator per ascending-`k` step — `f64::mul_add`/`f32::mul_add`
//! on the scalar path, `vfmadd` intrinsics on the SIMD paths. A
//! split multiply-then-add (`acc += a * b` compiled as two roundings,
//! or one rounding under `-Cffast-math`-style contraction, depending on
//! codegen flags) silently forks the rounding stream and the variants
//! stop agreeing bit-for-bit.
//!
//! This rule freezes the contract syntactically in kernel files (any
//! library source whose path contains `ukernel`): an assignment whose
//! right-hand side combines a bare `*` with a bare `+`/`-` at top
//! level, or a compound `+=`/`-=` whose right-hand side contains a bare
//! `*`, is an error. Multiplies feeding `mul_add(…)` arguments or index
//! arithmetic (`ap[p * MR]`) sit inside parentheses/brackets and are
//! not flagged.

use crate::scan::MaskedSource;
use crate::{Diagnostic, Severity};

/// Does the rule apply to this file at all?
pub fn in_scope(rel_path: &str) -> bool {
    rel_path.contains("ukernel")
}

/// Flag split multiply/accumulate assignments in a ukernel file.
pub fn fma_contract(rel_path: &str, masked: &MaskedSource) -> Vec<Diagnostic> {
    if !in_scope(rel_path) {
        return Vec::new();
    }
    let text = &masked.masked;
    let bytes = text.as_bytes();
    let n = bytes.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < n {
        let b = bytes[i];
        // Compound accumulations: `lhs += rhs` / `lhs -= rhs`.
        if (b == b'+' || b == b'-') && bytes.get(i + 1) == Some(&b'=') {
            let rhs_start = i + 2;
            let rhs_end = stmt_end(bytes, rhs_start);
            if !masked.in_test(i) && has_top_level_op(bytes, rhs_start, rhs_end, b'*') {
                out.push(diag(rel_path, masked.line_of(i), "compound"));
            }
            i = rhs_end;
            continue;
        }
        // Plain assignments: `lhs = rhs` with both `*` and `+`/`-` bare.
        if b == b'=' {
            let prev_op = i > 0
                && matches!(bytes[i - 1], b'=' | b'<' | b'>' | b'!' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^');
            let next_op = bytes.get(i + 1).is_some_and(|&c| c == b'=' || c == b'>');
            if prev_op || next_op {
                i += 1;
                continue;
            }
            let rhs_start = i + 1;
            let rhs_end = stmt_end(bytes, rhs_start);
            if !masked.in_test(i)
                && has_top_level_op(bytes, rhs_start, rhs_end, b'*')
                && (has_top_level_op(bytes, rhs_start, rhs_end, b'+')
                    || has_top_level_op(bytes, rhs_start, rhs_end, b'-'))
            {
                out.push(diag(rel_path, masked.line_of(i), "split"));
            }
            i = rhs_end;
            continue;
        }
        i += 1;
    }
    out.sort_by_key(|d| d.line);
    out
}

fn diag(rel_path: &str, line: usize, kind: &str) -> Diagnostic {
    Diagnostic {
        file: rel_path.to_string(),
        line,
        rule: "fma-contract",
        severity: Severity::Error,
        message: format!(
            "{} multiply/accumulate in a ukernel file — fold it into one `mul_add` so every \
             variant performs one rounding per step",
            if kind == "compound" { "compound `*` then `+=`" } else { "split `*` then `+`/`-`" }
        ),
    }
}

/// End of the expression starting at `from`: first `;`, `{`, or
/// depth-closing `}`/`)`/`]`/`,` at relative depth 0.
fn stmt_end(bytes: &[u8], from: usize) -> usize {
    let mut depth = 0usize;
    let mut i = from;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            b';' | b'{' | b'}' if depth == 0 => return i,
            b',' if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// Is there a *binary* occurrence of `op` at delimiter depth 0 in
/// `[from, to)`? Binary means the previous non-space byte ends an
/// operand (identifier, closing delimiter) — so unary minus and `*deref`
/// do not count, and anything inside `(…)`/`[…]`/`{…}` is invisible.
fn has_top_level_op(bytes: &[u8], from: usize, to: usize, op: u8) -> bool {
    let mut depth = 0usize;
    let mut prev_nonspace = 0u8;
    let mut i = from;
    while i < to {
        let b = bytes[i];
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth = depth.saturating_sub(1),
            _ => {}
        }
        if b == op && depth == 0 {
            let binary = prev_nonspace.is_ascii_alphanumeric()
                || prev_nonspace == b'_'
                || prev_nonspace == b')'
                || prev_nonspace == b']';
            // `->` return arrows and `*=`/`+=` compounds are not binary
            // arithmetic.
            let next = bytes.get(i + 1).copied().unwrap_or(b' ');
            if binary && next != b'=' && !(op == b'-' && next == b'>') {
                return true;
            }
        }
        if !b.is_ascii_whitespace() {
            prev_nonspace = b;
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::mask_source;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        fma_contract(path, &mask_source(src))
    }

    #[test]
    fn split_mul_add_assignment_is_flagged() {
        let src = "fn dot(acc: &mut [f64], a: &[f64], b: &[f64]) { acc[0] = acc[0] + a[0] * b[0]; }";
        let d = run("src/ukernel.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "fma-contract");
    }

    #[test]
    fn compound_mul_accumulate_is_flagged() {
        let src = "fn dot(acc: &mut [f64], a: &[f64], b: &[f64]) { acc[0] += a[0] * b[0]; }";
        let d = run("src/ukernel.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn mul_add_calls_are_clean() {
        let src = "fn dot(acc: &mut [f64], a: &[f64], b: &[f64]) { acc[0] = a[0].mul_add(b[0], acc[0]); }";
        assert!(run("src/ukernel.rs", src).is_empty());
    }

    #[test]
    fn index_arithmetic_is_invisible() {
        let src = "fn pack(ap: &[f64], p: usize) -> &[f64] { &ap[p * 4..(p + 1) * 4] }";
        assert!(run("src/ukernel.rs", src).is_empty());
    }

    #[test]
    fn plain_add_without_mul_is_clean() {
        let src = "fn f(a: f64, b: f64) -> f64 { let c = a + b; c }";
        assert!(run("src/ukernel.rs", src).is_empty());
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let src = "fn f(a: f64, b: f64, c: f64) -> f64 { let d = a * b + c; d }";
        assert!(run("src/other.rs", src).is_empty());
        assert_eq!(run("src/ukernel_bad.rs", src).len(), 1);
    }

    #[test]
    fn compound_without_mul_is_clean() {
        let src = "fn f(acc: &mut f64, x: f64) { *acc += x; }";
        assert!(run("src/ukernel.rs", src).is_empty());
    }

    #[test]
    fn deref_and_unary_minus_are_not_binary_ops() {
        let src = "fn f(p: *const f64, x: f64) -> f64 { let v = -x; let w = unsafe { *p }; v + w }";
        assert!(run("src/ukernel.rs", src).is_empty());
    }
}
