//! Repo-specific static analysis for the GCNP workspace.
//!
//! A dependency-free token/line-level Rust scanner (no rustc, no syn — the
//! offline build must be able to run the gate before anything else compiles)
//! that walks `crates/` and `src/` and enforces the invariants PRs 1–2
//! established by convention:
//!
//! 1. **no-fail-stop** — `unwrap()`, `expect()`, `panic!`-family macros,
//!    non-debug asserts, and `[]` indexing are forbidden in the serving /
//!    store / batched hot-path modules. Recoverable conditions must surface
//!    as [`ServingError`]s; proven-safe sites carry an
//!    `// audit: allow(no-fail-stop) — <reason>` annotation.
//! 2. **lock-discipline** — a `FeatureStore` stripe guard
//!    (`read_stripe`/`write_stripe`) must not be held across the acquisition
//!    of another stripe (lock-order deadlock) or across a
//!    `parallel_row_chunks` call (a kernel panic re-raised through the latch
//!    would poison the stripe while the pool still runs; and the guard would
//!    convoy every worker behind one kernel).
//! 3. **pool-hygiene** — `std::thread::spawn` / `thread::Builder` and
//!    `GCNP_THREADS` reads are only legal inside `crates/tensor/src/parallel.rs`:
//!    one module owns thread-count policy so chunking stays
//!    thread-count-invariant.
//! 4. **safety-comment** — every `unsafe` block needs a `// SAFETY:`
//!    justification directly above it (or on the same line).
//! 5. **shape-contract** — every public kernel in `gcnp-tensor`/`gcnp-sparse`
//!    taking matrix-like inputs (`Matrix`, `[f32]`, `Vec<f32>`) must declare
//!    its input-shape precondition in a doc comment carrying a `Shapes:`
//!    marker (or a `# Shapes` doc section).
//! 6. **panic-discipline** — a `catch_unwind` in the hot path must either
//!    re-raise the payload (`resume_unwind`) or classify it
//!    (`record_panic`, or an explicit `gcnp-faults` marker check) before
//!    the enclosing item ends. Silently swallowing a payload turns every
//!    genuine bug into an invisible "recovery", indistinguishable from an
//!    injected chaos fault.
//! 7. **lock-order** — every `Mutex`/`RwLock`/`Condvar` declared in the
//!    registry files (store / pipeline / supervisor / serving /
//!    tensor-parallel / obs-registry) carries a `// lock: <name>`
//!    annotation; guard liveness builds a static acquisition-order graph
//!    (`lockorder`), and a cycle — two sites taking the same pair of
//!    locks in opposite orders — is a deadlock-by-construction and fails
//!    the scan. `--emit-lock-graph` renders the graph (plus its
//!    transitive closure) as `crates/tensor/src/lockgraph.rs` for the
//!    opt-in runtime tracker (`lock-order` cargo feature).
//! 8. **condvar-predicate** — every `Condvar::wait` must sit inside a
//!    `while`/`loop` predicate re-check; a one-shot wait corrupts
//!    silently on a spurious or dropped wakeup.
//! 9. **guard-across-notify** — no guard on lock X may be live across a
//!    notify of a condvar paired with a *different* lock (the woken
//!    waiter convoys behind X), nor across a `catch_unwind` (a panic
//!    inside poisons the lock for every other thread).
//! 10. **atomic-ordering** — `Ordering::Relaxed` in the concurrency
//!     files is reserved for a pure-counter allowlist; `PendingSlot`
//!     state and circuit-breaker atomics need acquire/release edges.
//!
//! The escape hatch is `// audit: allow(<lint>) — <reason>`: same-line
//! (that line only), own-line (the next code line), or above a `fn` item
//! (the whole function body). An allow **without a reason is ignored** —
//! the violation still fires.
//!
//! `#[cfg(test)]` regions are exempt from every lint except
//! **safety-comment** (unsafe code in tests still needs a justification).
//!
//! [`ServingError`]: ../gcnp_infer/enum.ServingError.html

use std::fmt;
use std::path::{Path, PathBuf};

mod lockorder;

pub use lockorder::{emit_lock_graph, Edge, LockGraph};

/// Hot-path modules where fail-stop calls are forbidden (suffix-matched so
/// the fixture tree under `crates/audit/fixtures/` exercises the same rules).
const HOT_PATHS: &[&str] = &[
    "crates/infer/src/serving.rs",
    "crates/infer/src/store.rs",
    "crates/infer/src/batched.rs",
    "crates/infer/src/pipeline.rs",
    "crates/infer/src/supervisor.rs",
];

/// The one module allowed to spawn kernel threads and read `GCNP_THREADS`.
const POOL_HOME: &str = "crates/tensor/src/parallel.rs";

/// Directories whose names are never descended into. `audit` itself is
/// skipped because its lint needles (`"GCNP_THREADS"`, …) are string
/// literals that would self-match; its fixtures are scanned explicitly by
/// the self-test instead.
const SKIP_DIRS: &[&str] = &["target", "shims", "fixtures", ".git", "audit"];

/// The ten repo-specific lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    NoFailStop,
    LockDiscipline,
    PoolHygiene,
    SafetyComment,
    ShapeContract,
    PanicDiscipline,
    LockOrder,
    CondvarPredicate,
    GuardAcrossNotify,
    AtomicOrdering,
}

impl Lint {
    /// The name used in `audit: allow(<name>)` annotations and reports.
    pub fn name(self) -> &'static str {
        match self {
            Lint::NoFailStop => "no-fail-stop",
            Lint::LockDiscipline => "lock-discipline",
            Lint::PoolHygiene => "pool-hygiene",
            Lint::SafetyComment => "safety-comment",
            Lint::ShapeContract => "shape-contract",
            Lint::PanicDiscipline => "panic-discipline",
            Lint::LockOrder => "lock-order",
            Lint::CondvarPredicate => "condvar-predicate",
            Lint::GuardAcrossNotify => "guard-across-notify",
            Lint::AtomicOrdering => "atomic-ordering",
        }
    }

    /// All lints, for iteration in reports and self-tests.
    pub fn all() -> [Lint; 10] {
        [
            Lint::NoFailStop,
            Lint::LockDiscipline,
            Lint::PoolHygiene,
            Lint::SafetyComment,
            Lint::ShapeContract,
            Lint::PanicDiscipline,
            Lint::LockOrder,
            Lint::CondvarPredicate,
            Lint::GuardAcrossNotify,
            Lint::AtomicOrdering,
        ]
    }

    fn from_name(name: &str) -> Option<Lint> {
        Lint::all().into_iter().find(|l| l.name() == name)
    }
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub lint: Lint,
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.lint.name(),
            self.msg
        )
    }
}

/// One source line split into its code, comment, and string-literal parts.
/// `code` is column-preserving: comment text and string/char-literal
/// contents are replaced by spaces so token searches never match inside
/// them, while adjacency (e.g. the character before a `[`) stays exact.
#[derive(Debug, Default, Clone)]
struct LineInfo {
    code: String,
    comment: String,
    strings: String,
}

#[derive(Clone, Copy)]
enum LexState {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Lex `src` into per-line code/comment/string views. Handles nested block
/// comments, raw strings (`r"…"`, `r#"…"#`), escaped string contents, and
/// the char-literal vs. lifetime ambiguity (`'a'` vs `'a`).
fn mask(src: &str) -> Vec<LineInfo> {
    let mut out = Vec::new();
    let mut state = LexState::Code;
    for raw_line in src.lines() {
        let chars: Vec<char> = raw_line.chars().collect();
        let mut info = LineInfo::default();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            match state {
                LexState::LineComment => {
                    info.comment.push(c);
                    info.code.push(' ');
                    i += 1;
                }
                LexState::BlockComment(depth) => {
                    if c == '*' && chars.get(i + 1) == Some(&'/') {
                        state = if depth == 1 {
                            LexState::Code
                        } else {
                            LexState::BlockComment(depth - 1)
                        };
                        info.comment.push_str("*/");
                        info.code.push_str("  ");
                        i += 2;
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        state = LexState::BlockComment(depth + 1);
                        info.comment.push_str("/*");
                        info.code.push_str("  ");
                        i += 2;
                    } else {
                        info.comment.push(c);
                        info.code.push(' ');
                        i += 1;
                    }
                }
                LexState::Str => {
                    if c == '\\' {
                        info.strings.push(c);
                        info.code.push(' ');
                        if let Some(&n) = chars.get(i + 1) {
                            info.strings.push(n);
                            info.code.push(' ');
                        }
                        i += 2;
                    } else if c == '"' {
                        state = LexState::Code;
                        info.code.push('"');
                        i += 1;
                    } else {
                        info.strings.push(c);
                        info.code.push(' ');
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    let closes =
                        c == '"' && (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'));
                    if closes {
                        state = LexState::Code;
                        info.code.push('"');
                        for _ in 0..hashes {
                            info.code.push(' ');
                        }
                        i += 1 + hashes as usize;
                    } else {
                        info.strings.push(c);
                        info.code.push(' ');
                        i += 1;
                    }
                }
                LexState::Code => {
                    let prev_ident = info.code.chars().next_back().is_some_and(is_ident);
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        state = LexState::LineComment;
                        info.code.push_str("  ");
                        i += 2;
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        state = LexState::BlockComment(1);
                        info.code.push_str("  ");
                        i += 2;
                    } else if c == '"' {
                        state = LexState::Str;
                        info.code.push('"');
                        i += 1;
                    } else if c == 'r' && !prev_ident && raw_string_hashes(&chars, i).is_some() {
                        let hashes = raw_string_hashes(&chars, i).unwrap_or(0);
                        state = LexState::RawStr(hashes);
                        for _ in 0..=hashes {
                            info.code.push(' ');
                        }
                        info.code.push('"');
                        i += 2 + hashes as usize;
                    } else if c == '\'' {
                        i = lex_quote(&chars, i, &mut info.code);
                    } else {
                        info.code.push(c);
                        i += 1;
                    }
                }
            }
        }
        if matches!(state, LexState::LineComment) {
            state = LexState::Code;
        }
        out.push(info);
    }
    out
}

/// If `chars[i..]` starts a raw string (`r"` / `r#"` / `r##"` …), return the
/// hash count; `chars[i]` must be `'r'`.
fn raw_string_hashes(chars: &[char], i: usize) -> Option<u32> {
    let mut hashes = 0u32;
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some(hashes)
}

/// Lex a `'` at position `i`: either a char literal (masked) or a
/// lifetime/label (kept as code). Returns the next index.
fn lex_quote(chars: &[char], i: usize, code: &mut String) -> usize {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escaped char literal: mask through the closing quote.
            code.push('\'');
            let mut j = i + 1;
            while j < chars.len() && chars[j] != '\'' {
                if chars[j] == '\\' && j + 1 < chars.len() {
                    code.push_str("  ");
                    j += 2;
                } else {
                    code.push(' ');
                    j += 1;
                }
            }
            if j < chars.len() {
                code.push('\'');
                j += 1;
            }
            j
        }
        Some(&n) if n != '\'' && chars.get(i + 2) == Some(&'\'') => {
            // One-character literal 'x'.
            code.push('\'');
            code.push(' ');
            code.push('\'');
            i + 3
        }
        _ => {
            // Lifetime or loop label: plain code.
            code.push('\'');
            i + 1
        }
    }
}

/// Mark every line inside a `#[cfg(test)]` item (brace-matched from the
/// attribute).
fn test_mask(lines: &[LineInfo]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].code.contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut opened = false;
        let mut j = i;
        'scan: while j < lines.len() {
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            break 'scan;
                        }
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        let end = j.min(lines.len().saturating_sub(1));
        for flag in in_test.iter_mut().take(end + 1).skip(i) {
            *flag = true;
        }
        i = end + 1;
    }
    in_test
}

/// Brace depth after each line (cumulative over the masked code).
fn depth_after(lines: &[LineInfo]) -> Vec<i32> {
    let mut out = Vec::with_capacity(lines.len());
    let mut depth = 0i32;
    for line in lines {
        for c in line.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        out.push(depth);
    }
    out
}

/// A parsed, *valid* `audit: allow` annotation: suppresses `lint` findings
/// on 0-based lines `start..=end`.
#[derive(Debug)]
struct Allow {
    lint: Lint,
    start: usize,
    end: usize,
}

/// Parse allow annotations. Malformed ones (unknown lint name, or no reason
/// after the closing paren) are dropped, so the violation they were meant to
/// excuse still fires.
fn collect_allows(lines: &[LineInfo]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let Some(pos) = line.comment.find("audit: allow(") else {
            continue;
        };
        let rest = &line.comment[pos + "audit: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let Some(lint) = Lint::from_name(rest[..close].trim()) else {
            continue;
        };
        let reason = rest[close + 1..]
            .trim_matches(|c: char| c.is_whitespace() || "—–-:,.".contains(c))
            .to_string();
        if reason.chars().filter(|c| c.is_alphanumeric()).count() < 3 {
            continue; // a reason is mandatory; reasonless allows don't count
        }
        let (start, end) = allow_scope(lines, idx);
        allows.push(Allow { lint, start, end });
    }
    allows
}

/// Scope of an allow on line `idx`: same-line if the line has code; else the
/// next code line; else — when that code line is (after attributes) a `fn`
/// item — the whole function body.
fn allow_scope(lines: &[LineInfo], idx: usize) -> (usize, usize) {
    if !lines[idx].code.trim().is_empty() {
        return (idx, idx);
    }
    // Own-line comment: find the first following line with real code,
    // skipping blanks, other comments, and attributes.
    let mut j = idx + 1;
    while j < lines.len() {
        let code = lines[j].code.trim();
        if code.is_empty() || code.starts_with("#[") {
            j += 1;
            continue;
        }
        if code.contains("fn ") {
            return (idx, fn_body_end(lines, j));
        }
        return (idx, j);
    }
    (idx, idx)
}

/// Line index of the closing brace of the fn whose signature starts at
/// `start` (falls back to `start` for body-less items).
fn fn_body_end(lines: &[LineInfo], start: usize) -> usize {
    let mut depth = 0i32;
    let mut opened = false;
    let mut j = start;
    while j < lines.len() {
        for c in lines[j].code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth -= 1;
                    if opened && depth == 0 {
                        return j;
                    }
                }
                ';' if !opened && depth == 0 => return j,
                _ => {}
            }
        }
        j += 1;
    }
    start
}

/// Does `code` contain `.name(` (a method call), excluding longer method
/// names that merely share the prefix (`unwrap_or`, `expect_err`, …)?
fn has_method_call(code: &str, name: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(p) = code[from..].find(name).map(|p| p + from) {
        let before_dot = p > 0 && bytes[p - 1] == b'.';
        let after = bytes.get(p + name.len()).copied();
        if before_dot && after == Some(b'(') {
            return true;
        }
        from = p + name.len();
    }
    false
}

/// Does `code` invoke `mac` (e.g. `panic!`) at a word boundary? Excludes
/// `debug_assert!` and friends via the boundary check.
fn has_macro(code: &str, mac: &str) -> bool {
    let mut from = 0;
    while let Some(p) = code[from..].find(mac).map(|p| p + from) {
        let boundary = p == 0 || !is_ident(code[..p].chars().next_back().unwrap_or(' '));
        if boundary {
            return true;
        }
        from = p + mac.len();
    }
    false
}

/// First `[` that reads as indexing (previous character is an identifier
/// character, `)` or `]`) rather than a type, attribute, or literal.
fn has_indexing(code: &str) -> bool {
    let bytes = code.as_bytes();
    for (p, &b) in bytes.iter().enumerate() {
        if b != b'[' || p == 0 {
            continue;
        }
        let prev = bytes[p - 1] as char;
        if is_ident(prev) || prev == ')' || prev == ']' {
            return true;
        }
    }
    false
}

fn norm(path: &Path) -> String {
    path.to_string_lossy().replace('\\', "/")
}

/// Lint 1: no fail-stop constructs in the serving hot path.
fn lint_no_fail_stop(path: &str, lines: &[LineInfo], in_test: &[bool], out: &mut Vec<Finding>) {
    if !HOT_PATHS.iter().any(|h| path.ends_with(h)) {
        return;
    }
    const MACROS: &[&str] = &[
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
        "assert!",
        "assert_eq!",
        "assert_ne!",
    ];
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let code = &line.code;
        let token = if has_method_call(code, "unwrap") {
            Some(".unwrap()")
        } else if has_method_call(code, "expect") {
            Some(".expect()")
        } else if let Some(mac) = MACROS.iter().find(|m| has_macro(code, m)) {
            Some(*mac)
        } else if has_indexing(code) {
            Some("[] indexing")
        } else {
            None
        };
        if let Some(token) = token {
            out.push(Finding {
                lint: Lint::NoFailStop,
                file: PathBuf::from(path),
                line: idx + 1,
                msg: format!(
                    "{token} in serving hot path — propagate a ServingError instead \
                     (or annotate: // audit: allow(no-fail-stop) — <why it cannot fail>)"
                ),
            });
        }
    }
}

/// Count stripe-guard acquisitions on a line (`read_stripe(`/`write_stripe(`
/// call sites; the definitions `fn read_stripe(` don't count).
fn stripe_acquisitions(code: &str) -> usize {
    let mut n = 0;
    for name in ["read_stripe(", "write_stripe("] {
        let mut from = 0;
        while let Some(p) = code[from..].find(name).map(|p| p + from) {
            let is_def = code[..p].trim_end().ends_with("fn");
            if !is_def {
                n += 1;
            }
            from = p + name.len();
        }
    }
    n
}

/// Lint 2: a stripe guard must not be held across another stripe
/// acquisition or a `parallel_row_chunks` call.
fn lint_lock_discipline(path: &str, lines: &[LineInfo], in_test: &[bool], out: &mut Vec<Finding>) {
    let depths = depth_after(lines);
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let code = &line.code;
        let acquired = stripe_acquisitions(code);
        if acquired == 0 {
            continue;
        }
        let mut flag = |at: usize, what: &str| {
            out.push(Finding {
                lint: Lint::LockDiscipline,
                file: PathBuf::from(path),
                line: at + 1,
                msg: format!(
                    "{what} while a FeatureStore stripe guard (taken on line {}) is live — \
                     drop the guard first (deadlock / convoy hazard)",
                    idx + 1
                ),
            });
        };
        if acquired >= 2 {
            flag(idx, "second stripe acquisition");
        }
        if code.contains("parallel_row_chunks(") {
            flag(idx, "parallel_row_chunks call");
        }
        // A `let`-bound guard stays live until its block closes or it is
        // explicitly dropped; scan that range for conflicting calls.
        if !code.contains("let ") {
            continue;
        }
        let name = binding_name(code);
        let live_depth = depths[idx];
        let mut j = idx + 1;
        while j < lines.len() && depths[j] >= live_depth {
            if in_test[j] {
                break;
            }
            let later = &lines[j].code;
            if let Some(n) = &name {
                if later.contains(&format!("drop({n})")) {
                    break;
                }
            }
            if stripe_acquisitions(later) > 0 {
                flag(j, "second stripe acquisition");
            }
            if later.contains("parallel_row_chunks(") {
                flag(j, "parallel_row_chunks call");
            }
            j += 1;
        }
    }
}

/// Extract the identifier bound by `let [mut] NAME = …` on this line.
fn binding_name(code: &str) -> Option<String> {
    let after_let = code.split("let ").nth(1)?;
    let after_mut = after_let.strip_prefix("mut ").unwrap_or(after_let);
    let name: String = after_mut.chars().take_while(|&c| is_ident(c)).collect();
    (!name.is_empty()).then_some(name)
}

/// Lint 3: thread spawning and `GCNP_THREADS` only inside `tensor::parallel`.
fn lint_pool_hygiene(path: &str, lines: &[LineInfo], in_test: &[bool], out: &mut Vec<Finding>) {
    if path.ends_with(POOL_HOME) {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let spawns = line.code.contains("thread::spawn") || line.code.contains("thread::Builder");
        let env_read = line.code.contains("GCNP_THREADS") || line.strings.contains("GCNP_THREADS");
        if spawns || env_read {
            let what = if spawns {
                "thread spawn"
            } else {
                "GCNP_THREADS read"
            };
            out.push(Finding {
                lint: Lint::PoolHygiene,
                file: PathBuf::from(path),
                line: idx + 1,
                msg: format!(
                    "{what} outside tensor::parallel — route through the shared worker \
                     pool (num_threads / parallel_row_chunks) so chunking stays \
                     thread-count-invariant"
                ),
            });
        }
    }
}

/// Lint 4: every `unsafe` needs a `// SAFETY:` comment directly above (or on
/// the same line). Applies inside test code too.
fn lint_safety_comment(path: &str, lines: &[LineInfo], out: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        if !has_macro(&line.code, "unsafe")
            || line
                .code
                .split("unsafe")
                .nth(1)
                .is_some_and(|rest| rest.starts_with(|c: char| is_ident(c)))
        {
            continue;
        }
        let mut justified = line.comment.contains("SAFETY");
        let mut j = idx;
        while !justified && j > 0 {
            j -= 1;
            let above = &lines[j];
            let comment_only = above.code.trim().is_empty() && !above.comment.trim().is_empty();
            if !comment_only {
                break;
            }
            justified = above.comment.contains("SAFETY");
        }
        if !justified {
            out.push(Finding {
                lint: Lint::SafetyComment,
                file: PathBuf::from(path),
                line: idx + 1,
                msg: "unsafe without a `// SAFETY:` justification directly above".into(),
            });
        }
    }
}

/// Lint 5: public tensor/sparse kernels taking matrix-like inputs must
/// declare their shape precondition (`Shapes:` marker in the doc comment).
fn lint_shape_contract(path: &str, lines: &[LineInfo], in_test: &[bool], out: &mut Vec<Finding>) {
    if !path.contains("crates/tensor/src/") && !path.contains("crates/sparse/src/") {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let Some(p) = line.code.find("pub fn ") else {
            continue;
        };
        let name: String = line.code[p + "pub fn ".len()..]
            .chars()
            .take_while(|&c| is_ident(c))
            .collect();
        let params = signature_params(lines, idx, p);
        let matrixy =
            params.contains("Matrix") || params.contains("[f32]") || params.contains("Vec<f32>");
        if !matrixy {
            continue;
        }
        if !doc_block_above(lines, idx).contains("Shapes") {
            out.push(Finding {
                lint: Lint::ShapeContract,
                file: PathBuf::from(path),
                line: idx + 1,
                msg: format!(
                    "public kernel `{name}` takes matrix inputs but its doc comment \
                     declares no `Shapes:` precondition"
                ),
            });
        }
    }
}

/// Lint 6: every hot-path `catch_unwind` must re-raise or classify its
/// payload before the enclosing top-level item ends. The accepted
/// discipline markers are `resume_unwind` (re-raise), `record_panic` (the
/// serving layer's classifier), or an explicit `gcnp-faults` marker check
/// (the injected-fault payload prefix).
fn lint_panic_discipline(path: &str, lines: &[LineInfo], in_test: &[bool], out: &mut Vec<Finding>) {
    if !HOT_PATHS.iter().any(|h| path.ends_with(h)) {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] || !line.code.contains("catch_unwind") {
            continue;
        }
        // Scan from the catch site to the close of the enclosing
        // top-level item (the next column-0 `}`) for a discipline marker.
        let mut disciplined = false;
        let mut j = idx;
        while j < lines.len() {
            let l = &lines[j];
            if l.code.contains("resume_unwind")
                || l.code.contains("record_panic")
                || l.strings.contains("gcnp-faults")
            {
                disciplined = true;
                break;
            }
            if j > idx && l.code.starts_with('}') {
                break;
            }
            j += 1;
        }
        if !disciplined {
            out.push(Finding {
                lint: Lint::PanicDiscipline,
                file: PathBuf::from(path),
                line: idx + 1,
                msg: "caught panic is neither re-raised (resume_unwind) nor classified \
                      (record_panic / gcnp-faults marker) before the enclosing item ends — \
                      a swallowed payload hides real bugs behind chaos recovery"
                    .into(),
            });
        }
    }
}

/// The parameter list of the fn whose `pub fn` starts at `(line, col)`,
/// concatenated across lines up to the matching `)`.
fn signature_params(lines: &[LineInfo], line: usize, col: usize) -> String {
    let mut params = String::new();
    let mut depth = 0i32;
    let mut started = false;
    for (j, info) in lines.iter().enumerate().skip(line) {
        let code: &str = if j == line {
            &info.code[col..]
        } else {
            &info.code
        };
        for c in code.chars() {
            match c {
                '(' => {
                    depth += 1;
                    started = true;
                }
                ')' => {
                    depth -= 1;
                    if started && depth == 0 {
                        return params;
                    }
                }
                _ if started => params.push(c),
                _ => {}
            }
        }
        if started {
            params.push(' ');
        }
    }
    params
}

/// Concatenated doc/comment text directly above line `idx` (skipping
/// attribute lines, stopping at the first blank or code line).
fn doc_block_above(lines: &[LineInfo], idx: usize) -> String {
    let mut doc = String::new();
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let line = &lines[j];
        let code = line.code.trim();
        if code.starts_with("#[") || code.starts_with("#!") {
            continue; // attribute between doc and item
        }
        if code.is_empty() && !line.comment.trim().is_empty() {
            doc.push_str(&line.comment);
            doc.push('\n');
            continue;
        }
        break;
    }
    doc
}

/// Run every lint over one file's source, returning findings plus the
/// file's contribution to the workspace lock graph.
fn scan_file_full(path: &Path, src: &str) -> (Vec<Finding>, lockorder::FileLocks) {
    let path_str = norm(path);
    let lines = mask(src);
    let in_test = test_mask(&lines);
    let allows = collect_allows(&lines);

    let mut findings = Vec::new();
    lint_no_fail_stop(&path_str, &lines, &in_test, &mut findings);
    lint_lock_discipline(&path_str, &lines, &in_test, &mut findings);
    lint_pool_hygiene(&path_str, &lines, &in_test, &mut findings);
    lint_safety_comment(&path_str, &lines, &mut findings);
    lint_shape_contract(&path_str, &lines, &in_test, &mut findings);
    lint_panic_discipline(&path_str, &lines, &in_test, &mut findings);
    let locks = lockorder::analyze(&path_str, &lines, &in_test, &allows, &mut findings);

    findings.retain(|f| {
        !allows
            .iter()
            .any(|a| a.lint == f.lint && (a.start..=a.end).contains(&(f.line - 1)))
    });
    findings.sort_by_key(|f| f.line);
    findings.dedup_by(|a, b| a.line == b.line && a.lint == b.lint);
    (findings, locks)
}

/// Run every lint over one file's source.
pub fn scan_file(path: &Path, src: &str) -> Vec<Finding> {
    scan_file_full(path, src).0
}

/// Walk `root/crates`, `root/src`, and `root/tests`, scanning every `.rs`
/// file (skipping `target/`, vendored `shims/`, and the audit crate —
/// its lint needles and seeded fixtures would self-match; the self-test
/// scans the fixture tree explicitly). After the per-file lints, the
/// union of lock-acquisition edges is checked for cycles.
pub fn scan_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut findings = Vec::new();
    let mut edges = Vec::new();
    for file in files {
        let src = std::fs::read_to_string(&file)?;
        let (f, locks) = scan_file_full(&file, &src);
        findings.extend(f);
        edges.extend(locks.edges);
    }
    findings.extend(lockorder::cycle_findings(&edges));
    Ok(findings)
}

/// Extract the workspace lock graph (registered nodes + transitive
/// closure of acquisition order) for `--emit-lock-graph` and the
/// generated-artifact drift test.
pub fn lock_graph(root: &Path) -> std::io::Result<LockGraph> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut nodes = Vec::new();
    let mut edges = Vec::new();
    for file in files {
        let src = std::fs::read_to_string(&file)?;
        let (_, locks) = scan_file_full(&file, &src);
        nodes.extend(locks.nodes);
        edges.extend(locks.edges);
    }
    Ok(lockorder::build_graph(nodes, &edges))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, src: &str) -> Vec<Finding> {
        scan_file(Path::new(path), src)
    }

    const HOT: &str = "crates/infer/src/serving.rs";
    const COLD: &str = "crates/models/src/zoo.rs";

    #[test]
    fn masking_strips_strings_and_comments() {
        let lines = mask("let x = \"unwrap() [0]\"; // panic! here\nlet y = 1;");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(!lines[0].code.contains("panic"));
        assert!(lines[0].comment.contains("panic! here"));
        assert!(lines[0].strings.contains("unwrap() [0]"));
        assert_eq!(lines[1].code, "let y = 1;");
    }

    #[test]
    fn masking_handles_raw_strings_and_lifetimes() {
        let lines = mask("fn f<'a>(x: &'a str) { let r = r#\"a.unwrap()\"#; let c = 'x'; }");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].code.contains("<'a>"), "lifetimes survive masking");
        assert!(lines[0].strings.contains("a.unwrap()"));
    }

    #[test]
    fn masking_handles_nested_block_comments() {
        let raw = "a /* one /* two */ still */ b";
        let lines = mask(raw);
        assert!(lines[0].code.contains('a') && lines[0].code.contains('b'));
        assert!(!lines[0].code.contains("two") && !lines[0].code.contains("still"));
        assert!(lines[0].comment.contains("two") && lines[0].comment.contains("still"));
        assert_eq!(lines[0].code.chars().count(), raw.chars().count());
    }

    #[test]
    fn no_fail_stop_only_fires_on_hot_paths() {
        let src = "fn f(v: Vec<usize>) -> usize { v.first().copied().unwrap() }\n";
        assert_eq!(scan(HOT, src).len(), 1);
        assert!(scan(COLD, src).is_empty());
    }

    #[test]
    fn no_fail_stop_distinguishes_fallible_variants() {
        assert!(scan(HOT, "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n").is_empty());
        assert!(scan(
            HOT,
            "fn f(x: Result<u8, u8>) -> u8 { x.expect_err(\"e\") }\n"
        )
        .is_empty());
        assert_eq!(
            scan(HOT, "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n").len(),
            1
        );
    }

    #[test]
    fn no_fail_stop_spares_debug_asserts() {
        assert!(scan(HOT, "fn f(a: u8) { debug_assert_eq!(a, 1); }\n").is_empty());
        assert_eq!(scan(HOT, "fn f(a: u8) { assert_eq!(a, 1); }\n").len(), 1);
    }

    #[test]
    fn indexing_heuristic() {
        assert_eq!(
            scan(HOT, "fn f(v: &[u8], i: usize) -> u8 { v[i] }\n").len(),
            1
        );
        assert!(scan(HOT, "fn f(v: &[u8]) -> u8 { 0 }\n").is_empty());
        assert!(scan(HOT, "#[derive(Debug)]\nstruct S { x: Vec<u8> }\n").is_empty());
        assert!(scan(HOT, "fn f() -> Vec<u8> { vec![1, 2] }\n").is_empty());
    }

    #[test]
    fn test_regions_are_exempt_from_hot_path_lints() {
        let src = "fn f(x: Option<u8>) -> Option<u8> { x }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { f(None).unwrap(); }\n}\n";
        assert!(scan(HOT, src).is_empty());
    }

    #[test]
    fn allow_hatch_same_line_and_own_line() {
        let allowed =
            "fn f(v: &[u8]) -> u8 { v[0] } // audit: allow(no-fail-stop) — len checked by caller\n";
        assert!(scan(HOT, allowed).is_empty());
        let own_line = "fn f(v: &[u8]) -> u8 {\n\
             // audit: allow(no-fail-stop) — len checked by caller\n\
             v[0]\n}\n";
        assert!(scan(HOT, own_line).is_empty());
    }

    #[test]
    fn allow_covers_whole_fn_when_above_one() {
        let src = "// audit: allow(no-fail-stop) — indices proven in bounds\n\
                   fn f(v: &[u8]) -> u8 {\n    let a = v[0];\n    a + v[1]\n}\n\
                   fn g(v: &[u8]) -> u8 { v[2] }\n";
        let f = scan(HOT, src);
        assert_eq!(f.len(), 1, "only g's indexing survives: {f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn allow_without_reason_is_ignored() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] } // audit: allow(no-fail-stop)\n";
        assert_eq!(scan(HOT, src).len(), 1);
        let wrong = "fn f(v: &[u8]) -> u8 { v[0] } // audit: allow(lock-discipline) — nope\n";
        assert_eq!(scan(HOT, wrong).len(), 1, "allow is per-lint");
    }

    #[test]
    fn lock_discipline_catches_nested_guards_and_kernel_calls() {
        let src = "fn f(s: &Store) {\n\
                       let a = read_stripe(&s.stripes[0]);\n\
                       let b = write_stripe(&s.stripes[1]);\n\
                   }\n";
        let f = scan(COLD, src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::LockDiscipline);
        let kernel = "fn f(s: &Store, out: &mut [f32]) {\n\
                          let a = read_stripe(&s.stripes[0]);\n\
                          parallel_row_chunks(out, 1, 1, |_, _| {});\n\
                      }\n";
        assert_eq!(scan(COLD, kernel).len(), 1);
    }

    #[test]
    fn lock_discipline_respects_drop_and_block_scope() {
        let dropped = "fn f(s: &Store) {\n\
                           let a = read_stripe(&s.stripes[0]);\n\
                           drop(a);\n\
                           let b = write_stripe(&s.stripes[1]);\n\
                       }\n";
        assert!(scan(COLD, dropped).is_empty());
        let scoped = "fn f(s: &Store) {\n\
                          for l in &s.stripes {\n\
                              let g = write_stripe(l);\n\
                          }\n\
                      }\n";
        assert!(scan(COLD, scoped).is_empty(), "loop re-acquisition is fine");
    }

    #[test]
    fn pool_hygiene_exempts_the_pool_module() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(scan(COLD, src).len(), 1);
        assert!(scan("crates/tensor/src/parallel.rs", src).is_empty());
        let env = "fn f() -> String { std::env::var(\"GCNP_THREADS\").unwrap_or_default() }\n";
        assert_eq!(
            scan(COLD, env).len(),
            1,
            "env reads hide in string literals"
        );
        let comment = "// sweep GCNP_THREADS in {1, 2, 4}\nfn f() {}\n";
        assert!(scan(COLD, comment).is_empty(), "comments don't count");
    }

    #[test]
    fn safety_comment_required_directly_above() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert_eq!(scan(COLD, bad).len(), 1);
        let good = "fn f(p: *const u8) -> u8 {\n\
                        // SAFETY: caller guarantees p is valid\n\
                        unsafe { *p }\n}\n";
        assert!(scan(COLD, good).is_empty());
        let detached = "fn f(p: *const u8) -> u8 {\n\
                            // SAFETY: caller guarantees p is valid\n\
                            let _x = 1;\n\
                            unsafe { *p }\n}\n";
        assert_eq!(scan(COLD, detached).len(), 1, "comment must be adjacent");
    }

    #[test]
    fn shape_contract_wants_a_shapes_marker() {
        let path = "crates/tensor/src/ops.rs";
        let bad =
            "/// Multiplies.\npub fn matmul(a: &Matrix, b: &Matrix) -> Matrix { a.clone() }\n";
        assert_eq!(scan(path, bad).len(), 1);
        let good = "/// Multiplies.\n///\n/// Shapes: `a` is `(m, k)`, `b` is `(k, n)`.\n\
                    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix { a.clone() }\n";
        assert!(scan(path, good).is_empty());
        let scalar = "pub fn ones(n: usize) -> Matrix { Matrix::zeros(n, n) }\n";
        assert!(
            scan(path, scalar).is_empty(),
            "no matrix inputs, no contract"
        );
        let elsewhere = "pub fn matmul(a: &Matrix) -> Matrix { a.clone() }\n";
        assert!(scan("crates/infer/src/cost.rs", elsewhere).is_empty());
    }

    #[test]
    fn panic_discipline_requires_a_marker_in_the_enclosing_item() {
        let swallowed = "fn f(g: fn()) {\n\
                             let r = std::panic::catch_unwind(g);\n\
                             let _ = r;\n\
                         }\n";
        let f = scan(HOT, swallowed);
        assert_eq!(f.len(), 1, "swallowed payload must fire: {f:?}");
        assert_eq!(f[0].lint, Lint::PanicDiscipline);

        let reraised = "fn f(g: fn()) {\n\
                            let r = std::panic::catch_unwind(g);\n\
                            if let Err(p) = r {\n\
                                std::panic::resume_unwind(p);\n\
                            }\n\
                        }\n";
        assert!(scan(HOT, reraised).is_empty());

        let classified = "fn f(g: fn()) {\n\
                              let r = std::panic::catch_unwind(g);\n\
                              if let Err(p) = r {\n\
                                  record_panic(p);\n\
                              }\n\
                          }\n";
        assert!(scan(HOT, classified).is_empty());

        let marker = "fn f(g: fn()) -> bool {\n\
                          let r = std::panic::catch_unwind(g);\n\
                          matches!(r, Err(ref p) if is_marked(p, \"gcnp-faults:\"))\n\
                      }\n";
        assert!(scan(HOT, marker).is_empty());
    }

    #[test]
    fn panic_discipline_scope_stops_at_the_item_boundary() {
        // The marker lives in a *different* top-level item: must still fire.
        let split = "fn f(g: fn()) {\n\
                         let _ = std::panic::catch_unwind(g);\n\
                     }\n\
                     fn h(p: Payload) {\n\
                         std::panic::resume_unwind(p);\n\
                     }\n";
        let f = scan(HOT, split);
        assert_eq!(f.len(), 1, "marker in a sibling fn must not count: {f:?}");
        // Cold paths are out of scope.
        let swallowed = "fn f(g: fn()) { let _ = std::panic::catch_unwind(g); }\n";
        assert!(scan(COLD, swallowed).is_empty());
        // Tests may swallow panics freely.
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t(g: fn()) { let _ = std::panic::catch_unwind(g); }\n}\n";
        assert!(scan(HOT, test_only).is_empty());
    }

    #[test]
    fn shape_contract_reads_multiline_signatures() {
        let path = "crates/sparse/src/csr.rs";
        let src = "pub fn from_parts(\n    n_rows: usize,\n    values: Vec<f32>,\n) -> Self {\n\
                   Self {}\n}\n";
        assert_eq!(scan(path, src).len(), 1);
    }
}
