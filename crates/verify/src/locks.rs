//! The `lock-order` rule: a workspace-wide lock-acquisition graph.
//!
//! The parallel stack keeps a deliberately simple locking story — one
//! `Mutex` + two `Condvar`s in `me-par::pool`, one `Mutex`/`Condvar`
//! pair per shard in `me-serve::scheduler`, short-scope sharded guards
//! in the `me-trace` collector (DESIGN §11). This rule mechanizes that
//! story:
//!
//! 1. index every `Mutex` acquisition site (`recv.lock()`,
//!    `recv.try_lock()`, and the collector's free-function `lock(expr)`
//!    helper) in every library source;
//! 2. track guard scopes intra-procedurally (a `let`-bound guard lives
//!    from its acquisition to the end of its innermost block, or to an
//!    explicit `drop(guard)`);
//! 3. record an edge *held → acquired* for every acquisition made while
//!    another guard is live, then flag every edge that participates in
//!    a cycle of the workspace-wide graph (including reacquisition
//!    self-edges);
//! 4. flag any `Condvar::wait`/`wait_timeout`/`wait_while` whose guard
//!    argument releases one lock while a *different* lock is still
//!    held — the parked thread would keep that other lock pinned.
//!
//! Lock identity is the last path segment of the receiver (so
//! `self.shared.lock()` and `shared.lock()` are the same node,
//! `ctx.queue.lock()` is `queue`). That is a *name-based* abstraction:
//! two distinct locks that share a field name alias into one node
//! (conservative for cycles either way: the rule may miss an aliased
//! cycle, never invents an order that holds). The analysis is
//! intra-procedural — a guard passed into a callee is not tracked — and
//! `#[cfg(test)]` regions are skipped like every other rule.

use crate::ir::FileIr;
use crate::scan::MaskedSource;
use crate::{Diagnostic, Severity};

/// One "acquired `acquired` while holding `held`" observation.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// File of the inner acquisition.
    pub file: String,
    /// 1-based line of the inner acquisition.
    pub line: usize,
    /// Lock already held at that point.
    pub held: String,
    /// Lock being acquired.
    pub acquired: String,
}

/// One "waited on a Condvar while holding an unrelated lock"
/// observation. These are violations on their own, cycle or not.
#[derive(Debug, Clone)]
pub struct WaitViolation {
    /// File of the wait call.
    pub file: String,
    /// 1-based line of the wait call.
    pub line: usize,
    /// The Condvar's name (last path segment).
    pub condvar: String,
    /// Lock the wait releases (the guard argument's lock).
    pub released: String,
    /// The unrelated lock still held across the wait.
    pub held: String,
}

/// Everything the lock scanner extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct FileLocks {
    /// Nested-acquisition edges.
    pub edges: Vec<LockEdge>,
    /// Condvar waits holding an unrelated lock.
    pub waits: Vec<WaitViolation>,
}

/// A guard binding: `let NAME = …lock()…;` and the span it is live.
#[derive(Debug, Clone)]
struct Guard {
    name: String,
    lock: String,
    /// Offset of the acquisition needle (the guard is live after this).
    acquire_at: usize,
    /// Offset past which the guard is dead (innermost block end or an
    /// explicit `drop(name)`).
    scope_end: usize,
}

/// An acquisition site: offset of the needle plus the lock's name.
#[derive(Debug, Clone)]
struct Acquire {
    offset: usize,
    lock: String,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Collect lock edges and wait violations for one file.
pub fn collect_file(rel_path: &str, masked: &MaskedSource, ir: &FileIr) -> FileLocks {
    let mut out = FileLocks::default();
    for f in &ir.fns {
        let Some((open, close)) = f.body else { continue };
        if masked.in_test(f.fn_offset) {
            continue;
        }
        analyze_body(rel_path, masked, ir, open, close, &mut out);
    }
    out
}

fn analyze_body(
    rel_path: &str,
    masked: &MaskedSource,
    ir: &FileIr,
    open: usize,
    close: usize,
    out: &mut FileLocks,
) {
    let text = &masked.masked;
    let bytes = text.as_bytes();
    let acquires = find_acquires(text, open, close);
    let guards = find_guards(text, ir, open, close, &acquires);

    // Edges: every acquisition made while some other guard is live.
    for a in &acquires {
        for g in guards.iter().filter(|g| g.acquire_at < a.offset && a.offset < g.scope_end) {
            out.edges.push(LockEdge {
                file: rel_path.to_string(),
                line: masked.line_of(a.offset),
                held: g.lock.clone(),
                acquired: a.lock.clone(),
            });
        }
    }

    // Waits: `cv.wait(guard)` / `cv.wait_timeout(guard, …)` /
    // `cv.wait_while(guard, …)` with another guard of a different lock
    // still live.
    for needle in [".wait(", ".wait_timeout(", ".wait_while("] {
        let mut from = open;
        while let Some(p) = text[from..close].find(needle) {
            let at = from + p;
            from = at + needle.len();
            let paren = at + needle.len() - 1;
            let Some(arg) = first_arg_ident(bytes, paren) else { continue };
            // The argument must resolve to a known guard (filters
            // non-Condvar `.wait()` APIs); pick the innermost live one.
            let Some(guard) = guards
                .iter()
                .filter(|g| g.name == arg && g.acquire_at < at && at < g.scope_end)
                .max_by_key(|g| g.acquire_at)
            else {
                continue;
            };
            let condvar = receiver_last_segment(bytes, at).unwrap_or_else(|| "?".to_string());
            for other in guards
                .iter()
                .filter(|g| g.acquire_at < at && at < g.scope_end && g.lock != guard.lock)
            {
                out.waits.push(WaitViolation {
                    file: rel_path.to_string(),
                    line: masked.line_of(at),
                    condvar: condvar.clone(),
                    released: guard.lock.clone(),
                    held: other.lock.clone(),
                });
            }
        }
    }
}

/// All acquisition sites in `[open, close)`: `recv.lock(`,
/// `recv.try_lock(`, and free-function `lock(expr)`.
fn find_acquires(text: &str, open: usize, close: usize) -> Vec<Acquire> {
    let bytes = text.as_bytes();
    let mut sites = Vec::new();
    for needle in [".lock(", ".try_lock("] {
        let mut from = open;
        while let Some(p) = text[from..close].find(needle) {
            let at = from + p;
            from = at + needle.len();
            if let Some(lock) = receiver_last_segment(bytes, at) {
                sites.push(Acquire { offset: at, lock });
            }
        }
    }
    // Free-function form `lock(&SOME_MUTEX)` (the me-trace helper):
    // `lock` must not be a method call or the tail of an identifier.
    let mut from = open;
    while let Some(p) = text[from..close].find("lock(") {
        let at = from + p;
        from = at + "lock(".len();
        if at > open {
            let prev = bytes[at - 1];
            if is_ident_byte(prev) || prev == b'.' {
                continue;
            }
        }
        if let Some(lock) = free_lock_arg(bytes, at + "lock".len()) {
            sites.push(Acquire { offset: at, lock });
        }
    }
    sites.sort_by_key(|a| a.offset);
    sites
}

/// All guard bindings in `[open, close)`: a `let` whose initializer's
/// first acquisition is one of `acquires`.
fn find_guards(
    text: &str,
    ir: &FileIr,
    open: usize,
    close: usize,
    acquires: &[Acquire],
) -> Vec<Guard> {
    let bytes = text.as_bytes();
    let mut guards: Vec<Guard> = Vec::new();
    let mut from = open;
    while let Some(p) = text[from..close].find("let") {
        let at = from + p;
        from = at + 3;
        if (at > 0 && is_ident_byte(bytes[at - 1]))
            || (at + 3 < close && is_ident_byte(bytes[at + 3]))
        {
            continue;
        }
        let Some(name) = pattern_first_ident(bytes, at + 3, close) else { continue };
        // `let Some(x) = …` / `let Ok(x) = …` patterns never bind a raw
        // guard in this codebase; the RHS-acquisition filter below also
        // rejects them, so no special case is needed.
        let Some(eq) = find_assign_eq(bytes, at, close) else { continue };
        let end = stmt_end(bytes, eq + 1, close);
        let Some(acq) = acquires.iter().find(|a| a.offset > eq && a.offset < end) else {
            continue;
        };
        // The acquisition must belong to *this* binding's initializer
        // expression, not to an inner statement of a block expression
        // (`let i = { let st = x.lock(); … };` binds a value, and the
        // guard `st` dies at the inner block's close).
        if bytes[eq..acq.offset].iter().any(|&b| b == b'{' || b == b';') {
            continue;
        }
        // Scope: innermost block around the `let`, shortened by an
        // explicit `drop(name)`.
        let mut scope_end = ir.block_end(at, text.len()).min(close);
        let drop_needle = format!("drop({name})");
        let mut dfrom = end;
        while let Some(dp) = text[dfrom..scope_end].find(&drop_needle) {
            let dat = dfrom + dp;
            dfrom = dat + drop_needle.len();
            if dat > 0 && is_ident_byte(bytes[dat - 1]) {
                continue;
            }
            scope_end = dat;
            break;
        }
        guards.push(Guard { name, lock: acq.lock.clone(), acquire_at: acq.offset, scope_end });
    }
    guards
}

/// First identifier of a `let` pattern: skips `mut`, enters a tuple
/// pattern's first position.
fn pattern_first_ident(bytes: &[u8], mut i: usize, close: usize) -> Option<String> {
    loop {
        while i < close && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < close && bytes[i] == b'(' {
            i += 1;
            continue;
        }
        let start = i;
        while i < close && is_ident_byte(bytes[i]) {
            i += 1;
        }
        if i == start {
            return None;
        }
        let word = std::str::from_utf8(&bytes[start..i]).ok()?;
        if word == "mut" {
            continue;
        }
        return Some(word.to_string());
    }
}

/// The `=` that starts the initializer of a `let` at `at` (skips `==`,
/// `=>`, and type-annotation colons don't matter).
fn find_assign_eq(bytes: &[u8], at: usize, close: usize) -> Option<usize> {
    let mut i = at;
    let mut depth = 0usize;
    while i < close {
        match bytes[i] {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' | b'>' => depth = depth.saturating_sub(1),
            b';' | b'{' => return None,
            b'=' if depth == 0 => {
                let prev_op = i > 0 && matches!(bytes[i - 1], b'=' | b'<' | b'>' | b'!');
                let next_op = bytes.get(i + 1).is_some_and(|&b| b == b'=' || b == b'>');
                if !prev_op && !next_op {
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// End of the statement starting at `from`: the first `;` at relative
/// delimiter depth 0, or the `}` that closes the enclosing block.
fn stmt_end(bytes: &[u8], from: usize, close: usize) -> usize {
    let mut depth = 0usize;
    let mut i = from;
    while i < close {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            b'}' => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            b';' if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    close
}

/// Last path segment of the method receiver ending just before the `.`
/// of a `.lock(`/`.wait(` needle at `at` (e.g. `self.shared` → `shared`,
/// `cells[i]` → `cells`, `env_lock()` → `env_lock`).
fn receiver_last_segment(bytes: &[u8], at: usize) -> Option<String> {
    let mut i = at; // bytes[at] == b'.'
    let mut seg_end = None;
    loop {
        if i == 0 {
            break;
        }
        let b = bytes[i - 1];
        if b == b')' || b == b']' {
            // Skip the balanced group backwards.
            let (hi, lo) = if b == b')' { (b')', b'(') } else { (b']', b'[') };
            let mut depth = 0usize;
            while i > 0 {
                let c = bytes[i - 1];
                if c == hi {
                    depth += 1;
                } else if c == lo {
                    depth -= 1;
                    if depth == 0 {
                        i -= 1;
                        break;
                    }
                }
                i -= 1;
            }
            continue;
        }
        if is_ident_byte(b) {
            if seg_end.is_none() {
                seg_end = Some(i);
            }
            i -= 1;
            continue;
        }
        if b == b'.' {
            if let Some(end) = seg_end {
                return ident_at(bytes, i, end);
            }
            // A call/index group directly before the dot (`f().lock()`):
            // keep walking to find the call's name.
            i -= 1;
            continue;
        }
        if b == b':' {
            // `::` path separator: the segment so far is the name.
            break;
        }
        break;
    }
    seg_end.and_then(|end| ident_at(bytes, i, end))
}

fn ident_at(bytes: &[u8], start: usize, end: usize) -> Option<String> {
    if start >= end {
        return None;
    }
    std::str::from_utf8(&bytes[start..end]).ok().map(|s| s.to_string())
}

/// Lock name for the free-function form `lock(EXPR)` with the paren at
/// `paren`: the first identifier of the argument, skipping `&`/`mut`
/// (`lock(&THREAD_NAMES)` → `THREAD_NAMES`, `lock(shard_for(tid))` →
/// `shard_for`).
fn free_lock_arg(bytes: &[u8], paren: usize) -> Option<String> {
    first_arg_ident(bytes, paren)
}

/// First identifier inside the parens opening at `paren`.
fn first_arg_ident(bytes: &[u8], paren: usize) -> Option<String> {
    let mut i = paren + 1;
    let n = bytes.len();
    while i < n && (bytes[i].is_ascii_whitespace() || bytes[i] == b'&' || bytes[i] == b'*') {
        i += 1;
    }
    let mut start = i;
    while i < n && is_ident_byte(bytes[i]) {
        i += 1;
    }
    if std::str::from_utf8(&bytes[start..i]) == Ok("mut") {
        while i < n && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        start = i;
        while i < n && is_ident_byte(bytes[i]) {
            i += 1;
        }
    }
    ident_at(bytes, start, i)
}

/// Fold per-file observations into diagnostics: every wait violation,
/// plus every edge that participates in a cycle of the workspace-wide
/// lock graph (self-edges included).
pub fn lock_order(files: &[FileLocks]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let edges: Vec<&LockEdge> = files.iter().flat_map(|f| f.edges.iter()).collect();
    let adj: Vec<(&str, &str)> =
        edges.iter().map(|e| (e.held.as_str(), e.acquired.as_str())).collect();
    for e in &edges {
        let cyclic = if e.held == e.acquired { true } else { reaches(&adj, &e.acquired, &e.held) };
        if !cyclic {
            continue;
        }
        let message = if e.held == e.acquired {
            format!("reacquiring `{}` while a guard for it is still live", e.held)
        } else {
            format!(
                "acquiring `{}` while holding `{}` — the reverse order also occurs, so these \
                 locks form an order cycle",
                e.acquired, e.held
            )
        };
        out.push(Diagnostic {
            file: e.file.clone(),
            line: e.line,
            rule: "lock-order",
            severity: Severity::Error,
            message,
        });
    }
    for w in files.iter().flat_map(|f| f.waits.iter()) {
        out.push(Diagnostic {
            file: w.file.clone(),
            line: w.line,
            rule: "lock-order",
            severity: Severity::Error,
            message: format!(
                "`{}.wait` releases `{}` but `{}` stays held — a parked thread keeps `{}` locked",
                w.condvar, w.released, w.held, w.held
            ),
        });
    }
    out.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    out
}

/// Is `to` reachable from `from` over the edge list?
fn reaches(adj: &[(&str, &str)], from: &str, to: &str) -> bool {
    let mut stack = vec![from];
    let mut seen = vec![from];
    while let Some(node) = stack.pop() {
        for &(a, b) in adj {
            if a == node && !seen.contains(&b) {
                if b == to {
                    return true;
                }
                seen.push(b);
                stack.push(b);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::FileIr;
    use crate::scan::mask_source;

    fn analyze(src: &str) -> FileLocks {
        let m = mask_source(src);
        let ir = FileIr::build(src, &m);
        collect_file("f.rs", &m, &ir)
    }

    #[test]
    fn nested_acquisition_records_an_edge() {
        let src = "fn f(a: &M, b: &M) { let ga = a.lock(); let gb = b.lock(); use2(ga, gb); }";
        let l = analyze(src);
        assert_eq!(l.edges.len(), 1);
        assert_eq!((l.edges[0].held.as_str(), l.edges[0].acquired.as_str()), ("a", "b"));
    }

    #[test]
    fn scoped_guard_does_not_leak_past_its_block() {
        let src = "fn f(a: &M, b: &M) { { let ga = a.lock(); touch(ga); } let gb = b.lock(); }";
        let l = analyze(src);
        assert!(l.edges.is_empty(), "guard died at its block close: {:?}", l.edges);
    }

    #[test]
    fn explicit_drop_ends_the_guard() {
        let src = "fn f(a: &M, b: &M) { let ga = a.lock(); drop(ga); let gb = b.lock(); }";
        let l = analyze(src);
        assert!(l.edges.is_empty(), "drop(ga) ended the guard: {:?}", l.edges);
    }

    #[test]
    fn dotted_receivers_use_last_segment() {
        let src = "fn f(&self) { let g = self.shared.state.lock(); let h = self.other.lock(); }";
        let l = analyze(src);
        assert_eq!(l.edges.len(), 1);
        assert_eq!((l.edges[0].held.as_str(), l.edges[0].acquired.as_str()), ("state", "other"));
    }

    #[test]
    fn free_function_lock_helper_is_tracked() {
        let src = "fn f() { let s = lock(&NAMES); let t = lock(shard_for(tid)); }";
        let l = analyze(src);
        assert_eq!(l.edges.len(), 1);
        assert_eq!(
            (l.edges[0].held.as_str(), l.edges[0].acquired.as_str()),
            ("NAMES", "shard_for")
        );
    }

    #[test]
    fn wait_with_foreign_guard_held_is_flagged() {
        let src = "fn f(&self) { let g = self.submit.lock(); let mut st = self.state.lock(); \
                   while !st.done { st = self.cv.wait(st); } drop(g); }";
        let l = analyze(src);
        assert_eq!(l.waits.len(), 1);
        let w = &l.waits[0];
        assert_eq!(
            (w.released.as_str(), w.held.as_str(), w.condvar.as_str()),
            ("state", "submit", "cv")
        );
    }

    #[test]
    fn wait_releasing_its_own_lock_is_clean() {
        let src = "fn f(&self) { let mut st = self.state.lock(); \
                   while !st.done { st = self.cv.wait(st); } }";
        let l = analyze(src);
        assert!(l.waits.is_empty());
    }

    #[test]
    fn cycles_are_flagged_across_functions() {
        let src = "fn ab(a: &M, b: &M) { let ga = a.lock(); let gb = b.lock(); }\n\
                   fn ba(a: &M, b: &M) { let gb = b.lock(); let ga = a.lock(); }";
        let l = analyze(src);
        let d = lock_order(&[l]);
        assert_eq!(d.len(), 2, "both directions of the cycle are flagged: {d:?}");
        assert!(d.iter().all(|x| x.rule == "lock-order"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "fn ab(a: &M, b: &M) { let ga = a.lock(); let gb = b.lock(); }\n\
                   fn ab2(a: &M, b: &M) { let ga = a.lock(); let gb = b.lock(); }";
        let l = analyze(src);
        assert_eq!(l.edges.len(), 2);
        assert!(lock_order(&[l]).is_empty(), "a consistent partial order has no cycles");
    }

    #[test]
    fn reacquisition_is_a_self_edge() {
        let src = "fn f(a: &M) { let ga = a.lock(); let gb = a.lock(); }";
        let l = analyze(src);
        let d = lock_order(&[l]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("reacquiring"));
    }

    #[test]
    fn test_regions_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(a: &M, b: &M) { let ga = a.lock(); let gb = b.lock(); }\n}\n";
        let l = analyze(src);
        assert!(l.edges.is_empty());
    }
}
