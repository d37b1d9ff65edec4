//! Concurrency-discipline analysis: the `// lock:` site registry, the
//! static lock-order acquisition graph, and the condvar / guard / atomic
//! lints layered on top of the token scanner in `lib.rs`.
//!
//! The registry grammar (same-line comment, or in the comment block
//! directly above the declaration):
//!
//! * `// lock: <name>` — registers a `Mutex`/`RwLock` declaration under a
//!   stable dotted name (e.g. `store.stripe`). Every lock declared in a
//!   [`LOCK_REGISTRY_FILES`] module **must** carry one; the scanner fails
//!   otherwise.
//! * `// lock: <name> pairs <lock>` — registers a `Condvar` and names the
//!   mutex its waiters hold. `guard-across-notify` uses the pairing to
//!   allow the canonical "notify under the paired guard" idiom while
//!   flagging notifies performed under an *unrelated* guard.
//! * `// lock: acquires <a>[, <b>…]` — on a `fn`: calls to this function
//!   acquire those registered locks (used for guard-returning helpers like
//!   `read_stripe`). Unresolvable acquisitions *inside* the function body
//!   are attributed to the same set.
//!
//! Acquisition tracking is heuristic but conservative in the direction
//! that matters: a `let`-bound guard is live until its block closes or an
//! explicit `drop(name)`; everything else is a statement temporary, live
//! until the statement's `;` (or the `}` closing the expression it is
//! embedded in — which is exactly how `if let` scrutinees and struct-
//! literal temporaries behave). A second acquisition inside a live span
//! adds a directed edge; a cycle anywhere in the workspace union fails
//! the scan. `.read(`/`.write(` receivers that resolve to nothing are
//! skipped silently (too many innocent `io::Write` lookalikes);
//! unresolvable `.lock(` calls in registry files are findings.
//!
//! Self-edges (re-acquiring the same named lock) are deliberately *not*
//! edges: stripe re-entrancy is `lock-discipline`'s job and multi-lock
//! `acquires` attributions would otherwise manufacture false cycles.

use std::path::PathBuf;

use crate::{
    binding_name, depth_after, fn_body_end, is_ident, Allow, Finding, LineInfo, Lint, HOT_PATHS,
};

/// Modules whose lock declarations must be registered via `// lock:`.
/// Suffix-matched, like [`HOT_PATHS`], so the fixture tree exercises the
/// same enforcement.
pub(crate) const LOCK_REGISTRY_FILES: &[&str] = &[
    "crates/infer/src/store.rs",
    "crates/infer/src/pipeline.rs",
    "crates/infer/src/supervisor.rs",
    "crates/infer/src/serving.rs",
    "crates/tensor/src/parallel.rs",
    "crates/obs/src/registry.rs",
];

/// Files beyond [`HOT_PATHS`] that the `atomic-ordering` lint covers.
const ATOMIC_SCOPE_EXTRA: &[&str] = &["crates/infer/src/faults.rs"];

/// Statement fragments that mark a `Relaxed` atomic as a pure counter
/// (monotonic accounting nobody branches on for correctness). `PendingSlot`
/// state and circuit-breaker trip thresholds must use Acquire/Release and
/// are exactly what this allowlist excludes.
const RELAXED_COUNTERS: &[&str] = &[
    "served",
    "shed",
    "failures",
    "recoveries",
    "workers_lost",
    "retries",
    "restarts",
    "detected",
    "quarantined",
    "clock",
    "counter",
    "fired",
    "wakeups",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteKind {
    Lock,
    Condvar,
}

/// One registered synchronization site.
#[derive(Debug, Clone)]
struct Site {
    /// Registered dotted name (`store.stripe`).
    name: String,
    /// Declaring field / binding / static identifier (`stripes`, `0`).
    field: String,
    /// Enclosing struct for field declarations.
    ctx: Option<String>,
    /// For condvars: the registered name of the paired lock.
    pairs: Option<String>,
    kind: SiteKind,
    /// 0-based declaration line.
    line: usize,
}

/// A `fn` annotated `// lock: acquires …` (0-based body span, inclusive).
struct Acquirer {
    name: String,
    start: usize,
    end: usize,
    locks: Vec<String>,
}

/// One directed acquisition-order edge: `from` was held when `to` was
/// acquired at `file:line` (1-based).
#[derive(Debug, Clone)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub file: PathBuf,
    pub line: usize,
}

/// Per-file analysis output consumed by the tree-level graph pass.
#[derive(Debug, Default)]
pub(crate) struct FileLocks {
    /// Registered lock-kind site names (condvars excluded).
    pub(crate) nodes: Vec<String>,
    pub(crate) edges: Vec<Edge>,
}

/// A resolved acquisition with its live span.
struct Acq {
    line: usize,
    col: usize,
    locks: Vec<String>,
    /// Last live line, 0-based inclusive.
    end: usize,
}

/// Parsed `// lock:` annotation.
#[derive(Debug)]
enum LockNote {
    Site { name: String, pairs: Option<String> },
    Acquires(Vec<String>),
}

fn has_word(code: &str, word: &str) -> bool {
    find_word(code, word).is_some()
}

/// First occurrence of `word` in `code` with non-identifier characters on
/// both sides.
fn find_word(code: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(p) = code[from..].find(word).map(|p| p + from) {
        let before = p == 0 || !is_ident(code[..p].chars().next_back().unwrap_or(' '));
        let after = code[p + word.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident(c));
        if before && after {
            return Some(p);
        }
        from = p + word.len();
    }
    None
}

/// Char columns of every `.name(` call on the line (column of the `.`).
fn method_calls(code: &str, name: &str) -> Vec<usize> {
    let pat = format!(".{name}(");
    let chars: Vec<char> = code.chars().collect();
    let mut cols = Vec::new();
    for start in 0..chars.len() {
        if chars[start] != '.' {
            continue;
        }
        let cand: String = chars[start..(start + pat.len()).min(chars.len())]
            .iter()
            .collect();
        if cand == pat {
            cols.push(start);
        }
    }
    cols
}

/// Parse the `lock:` annotation on this line's comment, if the comment
/// (after doc-comment slashes) *starts* with `lock:` — prose mentioning
/// "lock:" mid-sentence never registers anything.
fn lock_note_on(line: &LineInfo) -> Option<LockNote> {
    let t = line
        .comment
        .trim_start_matches(|c: char| c == '/' || c == '!' || c == '*' || c.is_whitespace())
        .trim();
    let rest = t.strip_prefix("lock:")?.trim();
    if let Some(list) = rest.strip_prefix("acquires ") {
        let locks: Vec<String> = list
            .split(',')
            .map(|s| s.trim().trim_end_matches('.').to_string())
            .filter(|s| !s.is_empty())
            .collect();
        return (!locks.is_empty()).then_some(LockNote::Acquires(locks));
    }
    let mut words = rest.split_whitespace();
    let name = words.next()?.to_string();
    let pairs = match words.next() {
        Some("pairs") => Some(words.next()?.to_string()),
        _ => None,
    };
    Some(LockNote::Site { name, pairs })
}

/// Annotation for the declaration on line `idx`: same-line, or in the
/// comment/attribute block directly above.
fn note_for(lines: &[LineInfo], idx: usize) -> Option<LockNote> {
    if let Some(n) = lock_note_on(&lines[idx]) {
        return Some(n);
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        let code = l.code.trim();
        if code.starts_with("#[") {
            continue;
        }
        if code.is_empty() && !l.comment.trim().is_empty() {
            if let Some(n) = lock_note_on(l) {
                return Some(n);
            }
            continue;
        }
        break;
    }
    None
}

/// Innermost struct / impl context at the *start* of each line.
#[derive(Debug, Clone, Default)]
struct Ctx {
    strukt: Option<String>,
    imp: Option<String>,
}

#[derive(Clone)]
enum Frame {
    Struct(String),
    Impl(String),
    Other,
}

fn contexts(lines: &[LineInfo]) -> Vec<Ctx> {
    let mut stack: Vec<Frame> = Vec::new();
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        let mut ctx = Ctx::default();
        for f in stack.iter().rev() {
            match f {
                Frame::Struct(n) if ctx.strukt.is_none() => ctx.strukt = Some(n.clone()),
                Frame::Impl(n) if ctx.imp.is_none() => ctx.imp = Some(n.clone()),
                _ => {}
            }
        }
        out.push(ctx);
        let code = &line.code;
        let mut pending = if let Some(n) = struct_header(code) {
            Some(Frame::Struct(n))
        } else {
            impl_header(code).map(Frame::Impl)
        };
        for c in code.chars() {
            match c {
                '{' => stack.push(pending.take().unwrap_or(Frame::Other)),
                '}' => {
                    stack.pop();
                }
                ';' => pending = None,
                _ => {}
            }
        }
    }
    out
}

/// `struct NAME` header → NAME.
fn struct_header(code: &str) -> Option<String> {
    let p = find_word(code, "struct")?;
    let name: String = code[p + "struct".len()..]
        .trim_start()
        .chars()
        .take_while(|&c| is_ident(c))
        .collect();
    (!name.is_empty()).then_some(name)
}

/// `impl [<…>] TYPE` / `impl [<…>] TRAIT for TYPE` header → TYPE.
fn impl_header(code: &str) -> Option<String> {
    let p = find_word(code, "impl")?;
    let mut rest = code[p + "impl".len()..].trim_start();
    if rest.starts_with('<') {
        let mut depth = 0i32;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = rest[cut..].trim_start();
    }
    if let Some(f) = rest.find(" for ") {
        rest = rest[f + " for ".len()..].trim_start();
    }
    let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
    (!name.is_empty()).then_some(name)
}

/// Walk backwards from the `.` at `(li, ci)` and reconstruct the dotted
/// receiver path, crossing line boundaries for split method chains and
/// skipping balanced `[…]` / `(…)` index/call groups.
fn receiver_before(lines: &[LineInfo], mut li: usize, mut ci: usize) -> String {
    let mut out: Vec<char> = Vec::new();
    let mut depth = 0i32;
    loop {
        let code: Vec<char> = lines[li].code.chars().collect();
        let mut ci_ = ci.min(code.len());
        while ci_ > 0 {
            ci_ -= 1;
            let c = code[ci_];
            if depth > 0 {
                match c {
                    ']' | ')' => depth += 1,
                    '[' | '(' => depth -= 1,
                    _ => {}
                }
                continue;
            }
            match c {
                ']' | ')' => depth += 1,
                _ if is_ident(c) || c == '.' => out.push(c),
                _ if c.is_whitespace() => {
                    if !(out.is_empty() || out.last() == Some(&'.')) {
                        return out.iter().rev().collect();
                    }
                }
                _ => return out.iter().rev().collect(),
            }
        }
        if li == 0 || !(out.is_empty() || out.last() == Some(&'.')) {
            return out.iter().rev().collect();
        }
        li -= 1;
        ci = lines[li].code.chars().count();
    }
}

/// Resolve a receiver path to a registered lock name: `self.<field>`
/// against the current impl context first, then a unique field-name match
/// across the file's sites.
fn resolve(sites: &[Site], imp: Option<&str>, recv: &str) -> Option<String> {
    if recv.is_empty() {
        return None;
    }
    let (selfish, path) = match recv.strip_prefix("self.") {
        Some(r) => (true, r),
        None => (false, recv),
    };
    let field = path.rsplit('.').next().unwrap_or(path);
    if selfish {
        if let Some(i) = imp {
            if let Some(s) = sites
                .iter()
                .find(|s| s.ctx.as_deref() == Some(i) && s.field == field)
            {
                return Some(s.name.clone());
            }
        }
    }
    let mut names: Vec<&str> = sites
        .iter()
        .filter(|s| s.field == field)
        .map(|s| s.name.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    match names.as_slice() {
        [one] => Some((*one).to_string()),
        _ => None,
    }
}

fn site_by_name<'a>(sites: &'a [Site], name: &str) -> Option<&'a Site> {
    sites.iter().find(|s| s.name == name)
}

/// Collect (and enforce) registered sites in a registry file.
fn collect_sites(
    path: &str,
    lines: &[LineInfo],
    in_test: &[bool],
    ctxs: &[Ctx],
    out: &mut Vec<Finding>,
) -> Vec<Site> {
    let lockish = |s: &str| s.contains("Mutex<") || s.contains("RwLock<") || has_word(s, "Condvar");
    let kind_of = |s: &str| {
        if has_word(s, "Condvar") && !s.contains("Mutex<") && !s.contains("RwLock<") {
            SiteKind::Condvar
        } else {
            SiteKind::Lock
        }
    };
    let mut sites = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let t = line.code.trim();
        if t.starts_with("use ") || t.starts_with("pub use ") || t.starts_with("fn ") {
            continue;
        }
        let mut decl: Option<(String, Option<String>, SiteKind)> = None;
        if has_word(t, "struct") && t.contains('(') && lockish(t) {
            // One-line tuple struct: `struct PendingSlot<T>(Mutex<…>);`.
            if let Some(sname) = struct_header(t) {
                decl = Some(("0".to_string(), Some(sname), kind_of(t)));
            }
        } else if let Some(strukt) = ctxs[idx].strukt.clone() {
            if let Some(cp) = t.find(':') {
                let (pre, ty) = t.split_at(cp);
                let fname = pre.split_whitespace().last().unwrap_or("");
                if lockish(ty) && !fname.is_empty() && fname.chars().all(is_ident) {
                    decl = Some((fname.to_string(), Some(strukt), kind_of(ty)));
                }
            }
        } else if has_word(t, "let")
            && (t.contains("Mutex::new(")
                || t.contains("RwLock::new(")
                || t.contains("Condvar::new("))
        {
            if let Some(n) = binding_name(t) {
                let kind = if t.contains("Condvar::new(")
                    && !t.contains("Mutex::new(")
                    && !t.contains("RwLock::new(")
                {
                    SiteKind::Condvar
                } else {
                    SiteKind::Lock
                };
                decl = Some((n, None, kind));
            }
        } else if has_word(t, "static") && lockish(t) {
            let after = t[find_word(t, "static").unwrap_or(0) + "static".len()..].trim_start();
            let after = after.strip_prefix("mut ").unwrap_or(after).trim_start();
            let fname: String = after.chars().take_while(|&c| is_ident(c)).collect();
            if !fname.is_empty() {
                decl = Some((fname, None, kind_of(t)));
            }
        }
        let Some((field, ctx, kind)) = decl else {
            continue;
        };
        match note_for(lines, idx) {
            Some(LockNote::Site { name, pairs }) => {
                if kind == SiteKind::Condvar && pairs.is_none() {
                    out.push(Finding {
                        lint: Lint::LockOrder,
                        file: PathBuf::from(path),
                        line: idx + 1,
                        msg: format!(
                            "condvar `{field}` must declare its paired lock: \
                             `// lock: {name} pairs <lock>`"
                        ),
                    });
                }
                if kind == SiteKind::Lock && pairs.is_some() {
                    out.push(Finding {
                        lint: Lint::LockOrder,
                        file: PathBuf::from(path),
                        line: idx + 1,
                        msg: format!("`pairs` is only valid on Condvar sites (`{field}`)"),
                    });
                }
                sites.push(Site {
                    name,
                    field,
                    ctx,
                    pairs,
                    kind,
                    line: idx,
                });
            }
            _ => out.push(Finding {
                lint: Lint::LockOrder,
                file: PathBuf::from(path),
                line: idx + 1,
                msg: format!(
                    "unregistered lock site `{field}` — annotate with `// lock: <name>` \
                     (condvars: `// lock: <name> pairs <lock>`)"
                ),
            }),
        }
    }
    for s in &sites {
        if s.kind != SiteKind::Condvar {
            continue;
        }
        let Some(p) = &s.pairs else { continue };
        if !sites
            .iter()
            .any(|o| o.kind == SiteKind::Lock && &o.name == p)
        {
            out.push(Finding {
                lint: Lint::LockOrder,
                file: PathBuf::from(path),
                line: s.line + 1,
                msg: format!(
                    "condvar `{}` pairs `{p}`, which is not a registered lock in this file",
                    s.name
                ),
            });
        }
    }
    sites
}

/// Collect `// lock: acquires …`-annotated fns.
fn collect_acquirers(lines: &[LineInfo], in_test: &[bool]) -> Vec<Acquirer> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let Some(p) = find_word(&line.code, "fn") else {
            continue;
        };
        let Some(LockNote::Acquires(locks)) = note_for(lines, idx) else {
            continue;
        };
        let name: String = line.code[p + 2..]
            .trim_start()
            .chars()
            .take_while(|&c| is_ident(c))
            .collect();
        if name.is_empty() {
            continue;
        }
        out.push(Acquirer {
            name,
            start: idx,
            end: fn_body_end(lines, idx),
            locks,
        });
    }
    out
}

fn enclosing_acquirer(acquirers: &[Acquirer], idx: usize) -> Option<&Acquirer> {
    acquirers
        .iter()
        .filter(|a| a.start <= idx && idx <= a.end)
        .max_by_key(|a| a.start)
}

/// First line of the (backward-joined) statement containing line `idx`.
fn stmt_start(lines: &[LineInfo], idx: usize) -> usize {
    let mut j = idx;
    while j > 0 {
        let prev = lines[j - 1].code.trim();
        if prev.is_empty()
            || prev.ends_with(';')
            || prev.ends_with('{')
            || prev.ends_with('}')
            || prev.ends_with(',')
        {
            break;
        }
        j -= 1;
    }
    j
}

/// End line (0-based inclusive) of a statement-temporary guard created at
/// `(li, ci)`: lives until the statement's `;` at relative brace depth 0,
/// or the `}` that closes the enclosing expression.
fn temp_span(lines: &[LineInfo], li: usize, ci: usize) -> usize {
    let mut d = 0i32;
    let mut line = li;
    let mut first = true;
    loop {
        let code: Vec<char> = lines[line].code.chars().collect();
        let start = if first { ci } else { 0 };
        for &c in code.iter().skip(start) {
            match c {
                ';' if d == 0 => return line,
                '{' => d += 1,
                '}' => {
                    d -= 1;
                    if d <= 0 {
                        return line;
                    }
                }
                _ => {}
            }
        }
        first = false;
        line += 1;
        if line >= lines.len() {
            return lines.len() - 1;
        }
    }
}

/// End line of a `let`-bound guard declared on `idx`: block scope, cut
/// short by `drop(name)` or a test-region boundary.
fn binding_span(
    lines: &[LineInfo],
    in_test: &[bool],
    depths: &[i32],
    stmt: usize,
    idx: usize,
    name: Option<&str>,
) -> usize {
    // The binding lives at the depth of its enclosing block — the depth
    // *before* the statement, not after the acquisition line (whose own
    // initializer may open braces, e.g. `let g = match x.lock() {`).
    let live = if stmt == 0 {
        depths[0]
    } else {
        depths[stmt - 1]
    };
    let mut end = idx;
    let mut j = idx + 1;
    while j < lines.len() && depths[j] >= live && !in_test[j] {
        if let Some(n) = name {
            if lines[j].code.contains(&format!("drop({n})")) {
                break;
            }
        }
        end = j;
        j += 1;
    }
    end
}

/// Collect every resolved acquisition with its live span. Unresolvable
/// `.lock(` calls in registry files become findings; ambiguous
/// `.read(`/`.write(` receivers are skipped.
#[allow(clippy::too_many_arguments)]
fn collect_acquisitions(
    path: &str,
    lines: &[LineInfo],
    in_test: &[bool],
    ctxs: &[Ctx],
    sites: &[Site],
    acquirers: &[Acquirer],
    registry: bool,
    out: &mut Vec<Finding>,
) -> Vec<Acq> {
    let depths = depth_after(lines);
    let mut raw: Vec<(usize, usize, Vec<String>)> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let code = &line.code;
        for (method, strict) in [("lock", true), ("read", false), ("write", false)] {
            for col in method_calls(code, method) {
                let recv = receiver_before(lines, idx, col);
                let locks = match resolve(sites, ctxs[idx].imp.as_deref(), &recv) {
                    Some(n) => {
                        // A resolved condvar `.read()` can't happen; keep
                        // only lock-kind resolutions as acquisitions.
                        match site_by_name(sites, &n) {
                            Some(s) if s.kind == SiteKind::Lock => Some(vec![n]),
                            _ => None,
                        }
                    }
                    None => enclosing_acquirer(acquirers, idx).map(|a| a.locks.clone()),
                };
                match locks {
                    Some(l) => raw.push((idx, col, l)),
                    None if strict && registry => out.push(Finding {
                        lint: Lint::LockOrder,
                        file: PathBuf::from(path),
                        line: idx + 1,
                        msg: format!(
                            "unresolvable lock acquisition `{recv}.lock()` — register the \
                             lock with `// lock: <name>` or annotate the enclosing fn \
                             with `// lock: acquires <name>`"
                        ),
                    }),
                    None => {}
                }
            }
        }
        for a in acquirers {
            let mut from = 0;
            let pat = format!("{}(", a.name);
            while let Some(p) = code[from..].find(&pat).map(|p| p + from) {
                from = p + pat.len();
                let bounded = p == 0 || !is_ident(code[..p].chars().next_back().unwrap_or(' '));
                let is_def = code[..p].trim_end().ends_with("fn");
                if bounded && !is_def && !(a.start <= idx && idx <= a.end) {
                    raw.push((idx, p, a.locks.clone()));
                }
            }
        }
    }
    raw.sort_by_key(|&(l, c, _)| (l, c));
    raw.into_iter()
        .map(|(idx, col, locks)| {
            let start = stmt_start(lines, idx);
            let is_binding = has_word(&lines[start].code, "let")
                && !lines[start].code.contains("if let")
                && !lines[start].code.contains("while let");
            let end = if is_binding {
                binding_span(
                    lines,
                    in_test,
                    &depths,
                    start,
                    idx,
                    binding_name(&lines[start].code).as_deref(),
                )
            } else {
                temp_span(lines, idx, col)
            };
            Acq {
                line: idx,
                col,
                locks,
                end,
            }
        })
        .collect()
}

fn lock_order_allowed(allows: &[Allow], line0: usize) -> bool {
    allows
        .iter()
        .any(|a| a.lint == Lint::LockOrder && (a.start..=a.end).contains(&line0))
}

/// Directed edges: lock A (live) → lock B (acquired inside A's span).
fn build_edges(path: &str, allows: &[Allow], acqs: &[Acq]) -> Vec<Edge> {
    let mut edges = Vec::new();
    for a in acqs {
        for b in acqs {
            if (b.line, b.col) <= (a.line, a.col) || b.line > a.end {
                continue;
            }
            if lock_order_allowed(allows, b.line) || lock_order_allowed(allows, a.line) {
                continue;
            }
            for la in &a.locks {
                for lb in &b.locks {
                    if la != lb {
                        edges.push(Edge {
                            from: la.clone(),
                            to: lb.clone(),
                            file: PathBuf::from(path),
                            line: b.line + 1,
                        });
                    }
                }
            }
        }
    }
    edges
}

/// `guard-across-notify`: a live guard at a notify on a condvar paired
/// with a *different* lock, or at a `catch_unwind` boundary.
#[allow(clippy::too_many_arguments)]
fn guard_lints(
    path: &str,
    lines: &[LineInfo],
    in_test: &[bool],
    ctxs: &[Ctx],
    sites: &[Site],
    acqs: &[Acq],
    registry: bool,
    out: &mut Vec<Finding>,
) {
    let live_at = |line: usize, col: usize| -> Vec<&Acq> {
        acqs.iter()
            .filter(|a| (a.line, a.col) < (line, col) && line <= a.end)
            .collect()
    };
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let code = &line.code;
        for method in ["notify_one", "notify_all"] {
            for col in method_calls(code, method) {
                let held = live_at(idx, col);
                if held.is_empty() {
                    continue;
                }
                let recv = receiver_before(lines, idx, col);
                let pair = resolve(sites, ctxs[idx].imp.as_deref(), &recv)
                    .and_then(|n| site_by_name(sites, &n).and_then(|s| s.pairs.clone()));
                match pair {
                    Some(p) => {
                        for a in &held {
                            if let Some(off) = a.locks.iter().find(|l| **l != p) {
                                out.push(Finding {
                                    lint: Lint::GuardAcrossNotify,
                                    file: PathBuf::from(path),
                                    line: idx + 1,
                                    msg: format!(
                                        "`{method}` on a condvar paired with `{p}` while the \
                                         guard on `{off}` (line {}) is live — the woken thread \
                                         convoys behind an unrelated lock; drop the guard first",
                                        a.line + 1
                                    ),
                                });
                            }
                        }
                    }
                    None if registry => out.push(Finding {
                        lint: Lint::GuardAcrossNotify,
                        file: PathBuf::from(path),
                        line: idx + 1,
                        msg: format!(
                            "`{method}` on unresolved condvar `{recv}` while a guard is \
                             live — register the condvar (`// lock: <name> pairs <lock>`) \
                             so pairing can be checked"
                        ),
                    }),
                    None => {}
                }
            }
        }
        if has_word(code, "catch_unwind") {
            for a in live_at(idx, usize::MAX) {
                out.push(Finding {
                    lint: Lint::GuardAcrossNotify,
                    file: PathBuf::from(path),
                    line: idx + 1,
                    msg: format!(
                        "guard on `{}` (line {}) held across catch_unwind — a panic inside \
                         would poison the lock for every other thread; drop it first",
                        a.locks.join(", "),
                        a.line + 1
                    ),
                });
            }
        }
    }
}

/// `condvar-predicate`: every `Condvar::wait`/`wait_timeout` must sit in a
/// `while`/`loop` predicate re-check (a dropped wakeup is survivable only
/// if waits re-check).
fn lint_condvar_predicate(
    path: &str,
    lines: &[LineInfo],
    in_test: &[bool],
    out: &mut Vec<Finding>,
) {
    for idx in 0..lines.len() {
        if in_test[idx] {
            continue;
        }
        for method in ["wait", "wait_timeout"] {
            for col in method_calls(&lines[idx].code, method) {
                let chars: Vec<char> = lines[idx].code.chars().collect();
                let open = col + 1 + method.len();
                // `.wait()` with no argument is not a Condvar wait (e.g.
                // `ScopeLatch::wait`); a Condvar wait consumes its guard.
                let arg = chars
                    .iter()
                    .skip(open + 1)
                    .find(|c| !c.is_whitespace())
                    .copied();
                if arg == Some(')') {
                    continue;
                }
                if !wait_in_loop(lines, idx, col) {
                    out.push(Finding {
                        lint: Lint::CondvarPredicate,
                        file: PathBuf::from(path),
                        line: idx + 1,
                        msg: format!(
                            "Condvar::{method} outside a while/loop predicate re-check — \
                             a spurious or dropped wakeup silently corrupts the protocol; \
                             wrap the wait in `while !<predicate>`"
                        ),
                    });
                }
            }
        }
    }
}

/// Is the wait at `(idx, col)` under a `while`/`loop` block inside its
/// enclosing fn?
fn wait_in_loop(lines: &[LineInfo], idx: usize, col: usize) -> bool {
    let mut f = idx;
    let start = loop {
        if find_word(&lines[f].code, "fn").is_some() && fn_body_end(lines, f) >= idx {
            break f;
        }
        if f == 0 {
            return false;
        }
        f -= 1;
    };
    let mut stack: Vec<bool> = Vec::new();
    for (l, line) in lines.iter().enumerate().take(idx + 1).skip(start) {
        let code: Vec<char> = line.code.chars().collect();
        let mut loopish =
            find_word(&line.code, "while").is_some() || find_word(&line.code, "loop").is_some();
        for (k, &c) in code.iter().enumerate() {
            if l == idx && k >= col {
                break;
            }
            match c {
                '{' => {
                    stack.push(loopish);
                    loopish = false;
                }
                '}' => {
                    stack.pop();
                }
                _ => {}
            }
        }
    }
    stack.iter().any(|&b| b)
}

/// `atomic-ordering`: `Ordering::Relaxed` in the concurrency-bearing
/// modules is only legal on pure counters (allowlist fragment match on
/// the backward-joined statement).
fn lint_atomic_ordering(path: &str, lines: &[LineInfo], in_test: &[bool], out: &mut Vec<Finding>) {
    let scoped = HOT_PATHS.iter().any(|h| path.ends_with(h))
        || ATOMIC_SCOPE_EXTRA.iter().any(|h| path.ends_with(h));
    if !scoped {
        return;
    }
    for idx in 0..lines.len() {
        if in_test[idx] || !has_word(&lines[idx].code, "Relaxed") {
            continue;
        }
        let start = stmt_start(lines, idx);
        let stmt: String = lines[start..=idx]
            .iter()
            .map(|l| l.code.trim())
            .collect::<Vec<_>>()
            .join(" ");
        if RELAXED_COUNTERS.iter().any(|c| stmt.contains(c)) {
            continue;
        }
        out.push(Finding {
            lint: Lint::AtomicOrdering,
            file: PathBuf::from(path),
            line: idx + 1,
            msg: "Ordering::Relaxed outside the pure-counter allowlist — PendingSlot \
                  state and circuit-breaker atomics \
                  synchronize decisions and need Acquire/Release (or annotate: \
                  // audit: allow(atomic-ordering) — <why no ordering is needed>)"
                .into(),
        });
    }
}

/// Per-file entry point, called from `scan_file` after masking.
pub(crate) fn analyze(
    path: &str,
    lines: &[LineInfo],
    in_test: &[bool],
    allows: &[Allow],
    out: &mut Vec<Finding>,
) -> FileLocks {
    let registry = LOCK_REGISTRY_FILES.iter().any(|f| path.ends_with(f));
    let ctxs = contexts(lines);
    let sites = if registry {
        collect_sites(path, lines, in_test, &ctxs, out)
    } else {
        Vec::new()
    };
    let acquirers = collect_acquirers(lines, in_test);
    let acqs = collect_acquisitions(
        path, lines, in_test, &ctxs, &sites, &acquirers, registry, out,
    );
    let edges = build_edges(path, allows, &acqs);
    guard_lints(path, lines, in_test, &ctxs, &sites, &acqs, registry, out);
    lint_condvar_predicate(path, lines, in_test, out);
    lint_atomic_ordering(path, lines, in_test, out);
    let mut nodes: Vec<String> = sites
        .iter()
        .filter(|s| s.kind == SiteKind::Lock)
        .map(|s| s.name.clone())
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    FileLocks { nodes, edges }
}

/// Tree-level pass: fail on any cycle in the union of per-file edges.
pub(crate) fn cycle_findings(edges: &[Edge]) -> Vec<Finding> {
    let mut nodes: Vec<&str> = edges
        .iter()
        .flat_map(|e| [e.from.as_str(), e.to.as_str()])
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    let id = |n: &str| nodes.binary_search(&n).unwrap_or(usize::MAX);
    let mut adj: Vec<Vec<(usize, &Edge)>> = vec![Vec::new(); nodes.len()];
    for e in edges {
        adj[id(&e.from)].push((id(&e.to), e));
    }
    // Colors: 0 = unvisited, 1 = on the current DFS path, 2 = done.
    let mut color = vec![0u8; nodes.len()];
    let mut path: Vec<usize> = Vec::new();
    let mut out: Vec<Finding> = Vec::new();
    fn dfs(
        u: usize,
        nodes: &[&str],
        adj: &[Vec<(usize, &Edge)>],
        color: &mut [u8],
        path: &mut Vec<usize>,
        out: &mut Vec<Finding>,
    ) {
        color[u] = 1;
        path.push(u);
        for &(v, e) in &adj[u] {
            if color[v] == 1 {
                let from = path.iter().position(|&n| n == v).unwrap_or(0);
                let mut cycle: Vec<&str> = path[from..].iter().map(|&n| nodes[n]).collect();
                cycle.push(nodes[v]);
                out.push(Finding {
                    lint: Lint::LockOrder,
                    file: e.file.clone(),
                    line: e.line,
                    msg: format!(
                        "lock-order cycle: {} — two threads taking these in opposite \
                         order deadlock; acquire in one global order or \
                         `// audit: allow(lock-order) — <why the orders never race>`",
                        cycle.join(" -> ")
                    ),
                });
            } else if color[v] == 0 {
                dfs(v, nodes, adj, color, path, out);
            }
        }
        path.pop();
        color[u] = 2;
    }
    for u in 0..nodes.len() {
        if color[u] == 0 {
            dfs(u, &nodes, &adj, &mut color, &mut path, &mut out);
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line);
    out
}

/// The workspace lock graph: registered nodes plus the transitive closure
/// of observed acquisition order, ready to emit as generated Rust for the
/// runtime `lock-order` tracker.
#[derive(Debug)]
pub struct LockGraph {
    /// Sorted registered lock names; index = node id.
    pub nodes: Vec<String>,
    /// Direct edges as (from, to) node-index pairs, sorted + deduped.
    pub edges: Vec<(u16, u16)>,
    /// Transitive closure of `edges`, sorted for binary search.
    pub paths: Vec<(u16, u16)>,
}

/// Assemble the graph from per-file analysis output.
pub(crate) fn build_graph(mut nodes: Vec<String>, edges: &[Edge]) -> LockGraph {
    for e in edges {
        nodes.push(e.from.clone());
        nodes.push(e.to.clone());
    }
    nodes.sort_unstable();
    nodes.dedup();
    let id = |n: &str| nodes.binary_search_by(|p| p.as_str().cmp(n)).unwrap_or(0) as u16;
    let mut direct: Vec<(u16, u16)> = edges.iter().map(|e| (id(&e.from), id(&e.to))).collect();
    direct.sort_unstable();
    direct.dedup();
    let n = nodes.len();
    let mut reach = vec![false; n * n];
    for &(a, b) in &direct {
        reach[a as usize * n + b as usize] = true;
    }
    for k in 0..n {
        for i in 0..n {
            if !reach[i * n + k] {
                continue;
            }
            for j in 0..n {
                if reach[k * n + j] {
                    reach[i * n + j] = true;
                }
            }
        }
    }
    let mut paths = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if reach[i * n + j] {
                paths.push((i as u16, j as u16));
            }
        }
    }
    LockGraph {
        nodes,
        edges: direct,
        paths,
    }
}

/// Render the graph as the generated module checked in at
/// `crates/tensor/src/lockgraph.rs`. The audit self-test diffs this
/// against the checked-in file so the artifact can never drift.
pub fn emit_lock_graph(g: &LockGraph) -> String {
    let mut s = String::new();
    s.push_str("//! @generated by `gcnp-audit --emit-lock-graph` — do not edit.\n");
    s.push_str("//!\n");
    s.push_str("//! Static lock-order graph extracted from the `// lock:` site registry.\n");
    s.push_str("//! Regenerate after adding a lock or changing acquisition order:\n");
    s.push_str("//!\n");
    s.push_str("//! ```text\n");
    s.push_str("//! cargo run -p gcnp-audit -- --emit-lock-graph crates/tensor/src/lockgraph.rs\n");
    s.push_str("//! ```\n\n");
    s.push_str("/// Registered lock names, sorted; index = node id.\n");
    s.push_str("#[rustfmt::skip]\n");
    s.push_str("pub static LOCK_NODES: &[&str] = &[\n");
    for n in &g.nodes {
        s.push_str(&format!("    \"{n}\",\n"));
    }
    s.push_str("];\n\n");
    s.push_str("/// Transitive closure of the acquisition-order graph as sorted\n");
    s.push_str("/// `(from, to)` node-index pairs: a static path from → to exists.\n");
    s.push_str("/// Acquiring `to` while holding `from` is therefore an inversion iff\n");
    s.push_str("/// `(to, from)` is present here.\n");
    s.push_str("#[rustfmt::skip]\n");
    s.push_str("pub static LOCK_ORDER_PATHS: &[(u16, u16)] = &[\n");
    for (a, b) in &g.paths {
        s.push_str(&format!("    ({a}, {b}),\n"));
    }
    s.push_str("];\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mask, scan_file};
    use std::path::Path;

    /// Suffix-matches both the registry set and the hot-path set.
    const REG: &str = "crates/infer/src/store.rs";
    const COLD: &str = "crates/models/src/zoo.rs";

    fn lints_of(path: &str, src: &str, lint: Lint) -> Vec<usize> {
        scan_file(Path::new(path), src)
            .into_iter()
            .filter(|f| f.lint == lint)
            .map(|f| f.line)
            .collect()
    }

    fn locks_of(path: &str, src: &str) -> FileLocks {
        crate::scan_file_full(Path::new(path), src).1
    }

    #[test]
    fn note_parsing_covers_all_three_forms() {
        let line = |s: &str| mask(s).remove(0);
        match lock_note_on(&line("x: Mutex<u8>, // lock: a.b")) {
            Some(LockNote::Site { name, pairs }) => {
                assert_eq!(name, "a.b");
                assert!(pairs.is_none());
            }
            other => panic!("expected site note, got {other:?}"),
        }
        match lock_note_on(&line("cv: Condvar, // lock: q.cv pairs q.state")) {
            Some(LockNote::Site { name, pairs }) => {
                assert_eq!(name, "q.cv");
                assert_eq!(pairs.as_deref(), Some("q.state"));
            }
            other => panic!("expected paired note, got {other:?}"),
        }
        match lock_note_on(&line("// lock: acquires a.b, c.d")) {
            Some(LockNote::Acquires(l)) => assert_eq!(l, ["a.b", "c.d"]),
            other => panic!("expected acquires note, got {other:?}"),
        }
        // Prose mentioning "lock:" mid-sentence registers nothing.
        assert!(lock_note_on(&line("// take the outer lock: it guards x")).is_none());
    }

    #[test]
    fn receiver_extraction_walks_dotted_paths_backward() {
        let lines = mask("let g = self.inner.state.lock();");
        let col = method_calls(&lines[0].code, "lock")[0];
        assert_eq!(receiver_before(&lines, 0, col), "self.inner.state");
        // Continuation across a line break after a trailing dot.
        let lines = mask("let g = self.state\n    .lock();");
        let col = method_calls(&lines[1].code, "lock")[0];
        assert_eq!(receiver_before(&lines, 1, col), "self.state");
    }

    #[test]
    fn unregistered_site_fires_only_in_registry_files() {
        let src = "struct S {\n    m: std::sync::Mutex<u8>,\n}\n";
        assert_eq!(lints_of(REG, src, Lint::LockOrder), [2]);
        assert!(lints_of(COLD, src, Lint::LockOrder).is_empty());
        let annotated = "struct S {\n    m: std::sync::Mutex<u8>, // lock: s.m\n}\n";
        assert!(lints_of(REG, annotated, Lint::LockOrder).is_empty());
    }

    #[test]
    fn edges_follow_binding_scope_even_with_multiline_initializers() {
        // Regression: a `let g = match x.lock() { … };` initializer opens
        // its own braces — the guard must stay live to the *block* end,
        // not the match end.
        let src = "struct S {\n\
                   \x20   a: std::sync::Mutex<u8>, // lock: s.a\n\
                   \x20   b: std::sync::Mutex<u8>, // lock: s.b\n\
                   }\n\
                   impl S {\n\
                   \x20   fn f(&self) -> u8 {\n\
                   \x20       let g = match self.a.lock() {\n\
                   \x20           Ok(g) => g,\n\
                   \x20           Err(e) => e.into_inner(),\n\
                   \x20       };\n\
                   \x20       let h = match self.b.lock() {\n\
                   \x20           Ok(h) => h,\n\
                   \x20           Err(e) => e.into_inner(),\n\
                   \x20       };\n\
                   \x20       *g + *h\n\
                   \x20   }\n\
                   }\n";
        let locks = locks_of(REG, src);
        assert!(
            locks.edges.iter().any(|e| e.from == "s.a" && e.to == "s.b"),
            "edge s.a -> s.b missing: {:?}",
            locks.edges
        );
    }

    #[test]
    fn dropped_guard_ends_the_edge_span() {
        let src = "struct S {\n\
                   \x20   a: std::sync::Mutex<u8>, // lock: s.a\n\
                   \x20   b: std::sync::Mutex<u8>, // lock: s.b\n\
                   }\n\
                   impl S {\n\
                   \x20   fn f(&self) -> u8 {\n\
                   \x20       let g = self.a.lock();\n\
                   \x20       drop(g);\n\
                   \x20       let h = self.b.lock();\n\
                   \x20       drop(h);\n\
                   \x20       0\n\
                   \x20   }\n\
                   }\n";
        assert!(locks_of(REG, src).edges.is_empty());
    }

    #[test]
    fn cycle_detector_reports_the_inversion_pair() {
        let edge = |from: &str, to: &str, line: usize| Edge {
            from: from.into(),
            to: to.into(),
            file: std::path::PathBuf::from(REG),
            line,
        };
        let findings = cycle_findings(&[edge("a", "b", 1), edge("b", "a", 2)]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].msg.contains("cycle"), "{}", findings[0].msg);
        // Acyclic chains stay silent.
        assert!(cycle_findings(&[edge("a", "b", 1), edge("b", "c", 2)]).is_empty());
    }

    #[test]
    fn condvar_wait_must_sit_in_a_loop() {
        let bad = "fn f(m: &std::sync::Mutex<u8>, cv: &std::sync::Condvar) {\n\
                   \x20   let g = m.lock();\n\
                   \x20   let _g = cv.wait(g);\n\
                   }\n";
        assert_eq!(lints_of(COLD, bad, Lint::CondvarPredicate).len(), 1);
        let good = "fn f(m: &std::sync::Mutex<u8>, cv: &std::sync::Condvar) {\n\
                    \x20   let mut g = m.lock();\n\
                    \x20   while *g == 0 {\n\
                    \x20       g = cv.wait(g);\n\
                    \x20   }\n\
                    }\n";
        assert!(lints_of(COLD, good, Lint::CondvarPredicate).is_empty());
        // Argument-less `.wait()` (latch/handle idiom) is not a condvar wait.
        let latch = "fn f(l: &Latch) {\n    l.wait();\n}\n";
        assert!(lints_of(COLD, latch, Lint::CondvarPredicate).is_empty());
    }

    #[test]
    fn notify_under_a_foreign_guard_fires() {
        let src = "struct S {\n\
                   \x20   a: std::sync::Mutex<u8>, // lock: s.a\n\
                   \x20   b: std::sync::Mutex<u8>, // lock: s.b\n\
                   \x20   cv: std::sync::Condvar, // lock: s.cv pairs s.a\n\
                   }\n\
                   impl S {\n\
                   \x20   fn bad(&self) {\n\
                   \x20       let g = self.b.lock();\n\
                   \x20       self.cv.notify_one();\n\
                   \x20       drop(g);\n\
                   \x20   }\n\
                   \x20   fn good(&self) {\n\
                   \x20       let g = self.a.lock();\n\
                   \x20       self.cv.notify_all();\n\
                   \x20       drop(g);\n\
                   \x20   }\n\
                   }\n";
        assert_eq!(lints_of(REG, src, Lint::GuardAcrossNotify), [9]);
    }

    #[test]
    fn guard_across_catch_unwind_fires() {
        let src = "struct S {\n\
                   \x20   a: std::sync::Mutex<u8>, // lock: s.a\n\
                   }\n\
                   impl S {\n\
                   \x20   fn f(&self, g: impl Fn()) {\n\
                   \x20       let guard = self.a.lock();\n\
                   \x20       match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&g)) {\n\
                   \x20           Ok(()) => drop(guard),\n\
                   \x20           Err(p) => std::panic::resume_unwind(p),\n\
                   \x20       }\n\
                   \x20   }\n\
                   }\n";
        assert_eq!(lints_of(REG, src, Lint::GuardAcrossNotify), [7]);
    }

    #[test]
    fn relaxed_ordering_respects_the_counter_allowlist() {
        let bad = "fn f(claim: &std::sync::atomic::AtomicBool) -> bool {\n\
                   \x20   claim.swap(true, std::sync::atomic::Ordering::Relaxed)\n\
                   }\n";
        assert_eq!(lints_of(REG, bad, Lint::AtomicOrdering), [2]);
        let counter = "fn f(served: &std::sync::atomic::AtomicUsize) {\n\
                       \x20   served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);\n\
                       }\n";
        assert!(lints_of(REG, counter, Lint::AtomicOrdering).is_empty());
        // Outside the scoped files the lint stays quiet.
        assert!(lints_of(COLD, bad, Lint::AtomicOrdering).is_empty());
    }

    #[test]
    fn allow_hatch_suppresses_lock_order_edges() {
        let src = "struct S {\n\
                   \x20   a: std::sync::Mutex<u8>, // lock: s.a\n\
                   \x20   b: std::sync::Mutex<u8>, // lock: s.b\n\
                   }\n\
                   impl S {\n\
                   \x20   fn f(&self) -> u8 {\n\
                   \x20       let g = self.a.lock();\n\
                   \x20       // audit: allow(lock-order) — intentional test inversion\n\
                   \x20       let h = self.b.lock();\n\
                   \x20       *g\n\
                   \x20   }\n\
                   }\n";
        assert!(locks_of(REG, src).edges.is_empty());
    }

    #[test]
    fn graph_build_and_emit_are_deterministic() {
        let edge = |from: &str, to: &str| Edge {
            from: from.into(),
            to: to.into(),
            file: std::path::PathBuf::from(REG),
            line: 1,
        };
        let g = build_graph(
            vec!["b".into(), "a".into(), "c".into()],
            &[edge("a", "b"), edge("b", "c")],
        );
        assert_eq!(g.nodes, ["a", "b", "c"]);
        assert_eq!(g.edges, [(0, 1), (1, 2)]);
        assert_eq!(g.paths, [(0, 1), (0, 2), (1, 2)], "transitive closure");
        let rendered = emit_lock_graph(&g);
        assert!(rendered.contains("pub static LOCK_NODES"));
        assert!(rendered.contains("(0, 2),"));
        assert_eq!(rendered, emit_lock_graph(&g), "emit is stable");
    }
}
