//! The committed allowlist.
//!
//! Format: one entry per line, `path rule-id max-count`, `#` starts a
//! comment, blank lines ignored. `path` is the `/`-separated path
//! relative to the workspace root, exactly as diagnostics print it.
//!
//! ```text
//! # narrow_f32_exact's own implementation is the sanctioned cast site
//! crates/numerics/src/formats.rs no-as-narrowing 1
//! ```
//!
//! An entry suppresses up to `max-count` diagnostics of that rule in
//! that file, lowest line first; any excess is still reported. Counts
//! are deliberately exact rather than open-ended so a regression that
//! adds one more violation to an already-allowlisted file still fails.

use crate::Diagnostic;

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// `/`-separated path relative to the workspace root.
    pub path: String,
    /// Rule id the entry applies to.
    pub rule: String,
    /// Maximum number of diagnostics suppressed for (path, rule).
    pub max_count: usize,
    /// 1-based line of the entry in the allowlist file (0 for entries
    /// constructed in code); staleness warnings point here.
    pub line: usize,
}

/// Parse allowlist text. Returns the entries or a message naming the
/// first malformed line.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(path), Some(rule), Some(count)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("allowlist line {}: expected `path rule-id max-count`", idx + 1));
        };
        if parts.next().is_some() {
            return Err(format!("allowlist line {}: trailing fields", idx + 1));
        }
        let max_count: usize = count
            .parse()
            .map_err(|_| format!("allowlist line {}: bad count `{count}`", idx + 1))?;
        entries.push(AllowEntry {
            path: path.to_string(),
            rule: rule.to_string(),
            max_count,
            line: idx + 1,
        });
    }
    Ok(entries)
}

/// Apply the allowlist: suppress up to `max_count` diagnostics per
/// (path, rule), lowest line first; return the survivors (still sorted
/// by file then line).
pub fn apply_allowlist(diags: Vec<Diagnostic>, entries: &[AllowEntry]) -> Vec<Diagnostic> {
    apply_allowlist_counted(diags, entries).0
}

/// Like [`apply_allowlist`], additionally returning how many
/// diagnostics each entry actually suppressed (same order as
/// `entries`). The staleness check compares that usage against
/// `max_count`: budgets must shrink with the code.
pub fn apply_allowlist_counted(
    mut diags: Vec<Diagnostic>,
    entries: &[AllowEntry],
) -> (Vec<Diagnostic>, Vec<usize>) {
    diags.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    let mut budgets: Vec<(&AllowEntry, usize)> = entries.iter().map(|e| (e, e.max_count)).collect();
    let mut used = vec![0usize; entries.len()];
    diags.retain(|d| {
        for (i, (entry, left)) in budgets.iter_mut().enumerate() {
            if entry.path == d.file && entry.rule == d.rule && *left > 0 {
                *left -= 1;
                used[i] += 1;
                return false;
            }
        }
        true
    });
    (diags, used)
}

/// Rewrite allowlist text so every entry's count matches `actual`
/// (keyed by `(path, rule)`). Entries whose actual count is zero are
/// dropped; comments, blank lines, and inline notes are preserved.
/// This backs `me-verify --update-allow`.
pub fn rewrite_counts(
    text: &str,
    actual: &std::collections::BTreeMap<(String, String), usize>,
) -> String {
    let mut out = String::new();
    for raw in text.lines() {
        let code = raw.split('#').next().unwrap_or("").trim();
        let mut parts = code.split_whitespace();
        let (path, rule) = match (parts.next(), parts.next(), parts.next()) {
            (Some(p), Some(r), Some(_)) => (p, r),
            // Not an entry line (comment/blank/malformed): keep as-is.
            _ => {
                out.push_str(raw);
                out.push('\n');
                continue;
            }
        };
        let count = actual.get(&(path.to_string(), rule.to_string())).copied().unwrap_or(0);
        if count == 0 {
            continue; // budget fully paid down: drop the entry
        }
        let comment = raw.find('#').map(|i| &raw[i..]);
        out.push_str(&format!("{path} {rule} {count}"));
        if let Some(c) = comment {
            out.push_str("  ");
            out.push_str(c);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;

    fn diag(file: &str, line: usize, rule: &'static str) -> Diagnostic {
        Diagnostic { file: file.into(), line, rule, severity: Severity::Error, message: "m".into() }
    }

    #[test]
    fn parses_entries_comments_and_blanks() {
        let text = "# header\n\ncrates/a/src/lib.rs no-unwrap 3  # inline note\ncrates/b/src/x.rs float-eq 1\n";
        let e = parse_allowlist(text).expect("parses");
        assert_eq!(e.len(), 2);
        assert_eq!(
            e[0],
            AllowEntry {
                path: "crates/a/src/lib.rs".into(),
                rule: "no-unwrap".into(),
                max_count: 3,
                line: 3,
            }
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_allowlist("just-a-path\n").is_err());
        assert!(parse_allowlist("p r not-a-number\n").is_err());
        assert!(parse_allowlist("p r 1 extra\n").is_err());
    }

    #[test]
    fn suppresses_up_to_count_lowest_lines_first() {
        let diags = vec![
            diag("f.rs", 30, "no-unwrap"),
            diag("f.rs", 10, "no-unwrap"),
            diag("f.rs", 20, "no-unwrap"),
        ];
        let entries = parse_allowlist("f.rs no-unwrap 2\n").expect("parses");
        let left = apply_allowlist(diags, &entries);
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].line, 30, "the excess violation (highest line) survives");
    }

    #[test]
    fn other_rules_and_files_unaffected() {
        let diags = vec![
            diag("f.rs", 1, "no-unwrap"),
            diag("f.rs", 2, "float-eq"),
            diag("g.rs", 3, "no-unwrap"),
        ];
        let entries = parse_allowlist("f.rs no-unwrap 99\n").expect("parses");
        let left = apply_allowlist(diags, &entries);
        assert_eq!(left.len(), 2);
    }

    #[test]
    fn counted_apply_reports_per_entry_usage() {
        let diags = vec![diag("f.rs", 1, "no-unwrap"), diag("f.rs", 2, "no-unwrap")];
        let entries = parse_allowlist("f.rs no-unwrap 5\ng.rs float-eq 2\n").expect("parses");
        let (left, used) = apply_allowlist_counted(diags, &entries);
        assert!(left.is_empty());
        assert_eq!(used, vec![2, 0], "budget of 5 only consumed 2; unused entry consumed 0");
    }

    #[test]
    fn rewrite_counts_shrinks_drops_and_preserves_comments() {
        let text = "# header comment\n\nf.rs no-unwrap 5  # five sites\ng.rs float-eq 2\n";
        let mut actual = std::collections::BTreeMap::new();
        actual.insert(("f.rs".to_string(), "no-unwrap".to_string()), 3);
        // g.rs's violations are gone entirely.
        let new = rewrite_counts(text, &actual);
        assert_eq!(new, "# header comment\n\nf.rs no-unwrap 3  # five sites\n");
    }
}
