//! The lint rules (MCPB001–MCPB017).
//!
//! Rules come in three flavors, all dependency-free (no `syn`, no type
//! resolution):
//!
//! - *line rules* (MCPB001–MCPB008) scan the sanitized line view, where
//!   comment and string contents are already blanked;
//! - *token rules* (MCPB009–MCPB016) walk the lossless token stream from
//!   [`crate::lexer`] with the [`crate::syntax::ScopeMap`] annotations, so
//!   they can require a pattern to sit inside a loop body or match exact
//!   token sequences like `Ordering :: Relaxed`;
//! - one *workspace rule* (MCPB017, [`crate::unreferenced`]) that needs
//!   every file at once, because an item is dead only if no file names it.
//!
//! Each rule carries an id, a severity, and a fix hint that is printed
//! verbatim when the gate fails (and by `--fix-hints`), so a violation
//! message is actionable without opening this file.

use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// How bad a finding is. The baseline ratchet treats all severities the
/// same (any growth fails the gate); severity is for triage display.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Style/robustness debt worth burning down.
    Info,
    /// Likely bug or maintainability hazard.
    Warn,
    /// Breaks a benchmark-wide invariant (e.g. determinism).
    Error,
}

impl Severity {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// SARIF `level` for this severity.
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Info => "note",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable identifier, `MCPBnnn`.
    pub id: &'static str,
    /// Short human name.
    pub name: &'static str,
    /// Triage severity.
    pub severity: Severity,
    /// Printed with every violation.
    pub fix_hint: &'static str,
}

/// One rule match.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`MCPBnnn`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column of the match on `line`.
    pub col: usize,
    /// Raw source line, trimmed, for display.
    pub snippet: String,
}

impl Finding {
    /// `line:col` span string, as recorded in the v2 baseline.
    pub fn span(&self) -> String {
        format!("{}:{}", self.line, self.col)
    }
}

/// The rule table, in id order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "MCPB001",
        name: "unwrap-in-lib",
        severity: Severity::Warn,
        fix_hint: "propagate a Result, or document the invariant with .expect(\"invariant: ...\")",
    },
    Rule {
        id: "MCPB002",
        name: "panic-in-lib",
        severity: Severity::Warn,
        fix_hint: "return an error instead of panicking; use assert!/debug_assert! for internal invariants",
    },
    Rule {
        id: "MCPB003",
        name: "non-seeded-rng",
        severity: Severity::Error,
        fix_hint: "benchmark runs must be reproducible: take a u64 seed and use ChaCha8Rng::seed_from_u64",
    },
    Rule {
        id: "MCPB004",
        name: "float-eq",
        severity: Severity::Error,
        fix_hint: "compare floats with a tolerance ((a - b).abs() < eps) or compare bit patterns explicitly",
    },
    Rule {
        id: "MCPB005",
        name: "hash-iter-order",
        severity: Severity::Warn,
        fix_hint: "HashMap/HashSet iteration order is unstable; sort the keys first or use a BTreeMap/Vec on result paths",
    },
    Rule {
        id: "MCPB006",
        name: "lossy-index-cast",
        severity: Severity::Info,
        fix_hint: "`expr as uN` silently truncates; prefer try_into() or widen the index type",
    },
    Rule {
        id: "MCPB007",
        name: "raw-instant-timing",
        severity: Severity::Warn,
        fix_hint: "time through mcpb-trace (span()/Stopwatch) or bench-core's run_measured so profiles stay consistent; ad-hoc Instant timing bypasses the collector",
    },
    Rule {
        id: "MCPB008",
        name: "panic-surface-in-solver",
        severity: Severity::Warn,
        fix_hint: "solver/harness crates execute inside fault-isolated sweep cells; return a typed error (even for documented invariants) so a bad cell becomes a Failed record instead of a panic",
    },
    Rule {
        id: "MCPB009",
        name: "hash-iter-in-solver",
        severity: Severity::Error,
        fix_hint: "HashMap/HashSet iteration in a solver/training/sweep crate breaks run-to-run determinism; use BTreeMap/BTreeSet, or collect and sort before draining on any path that feeds seed sets, journals, or reported metrics",
    },
    Rule {
        id: "MCPB010",
        name: "unordered-float-fold",
        severity: Severity::Warn,
        fix_hint: "float sum/fold order changes the result bits; reduce through mcpb-par's fixed-chunk order-folded reducers (or an explicit index-ordered loop) so totals are thread-count invariant",
    },
    Rule {
        id: "MCPB011",
        name: "static-mut",
        severity: Severity::Error,
        fix_hint: "`static mut` is an unsynchronized data race; use an atomic, OnceLock, Mutex, or thread_local! instead",
    },
    Rule {
        id: "MCPB012",
        name: "relaxed-ordering",
        severity: Severity::Warn,
        fix_hint: "Ordering::Relaxed provides no happens-before edge; use Acquire/Release (or SeqCst) when the atomic gates data another thread reads, or annotate why it can't with `// audit: relaxed-ok(reason)`",
    },
    Rule {
        id: "MCPB013",
        name: "alloc-in-hot-loop",
        severity: Severity::Warn,
        fix_hint: "allocation inside a hot kernel loop (Vec::new/vec!/to_vec/clone/format!) thrashes the allocator per item; hoist a scratch buffer out of the loop and reuse it, or preallocate with with_capacity",
    },
    Rule {
        id: "MCPB014",
        name: "box-dyn-in-loop",
        severity: Severity::Warn,
        fix_hint: "boxing a trait object per loop item allocates and blocks inlining; hoist the Box out of the loop, or dispatch through a generic/enum instead",
    },
    Rule {
        id: "MCPB015",
        name: "dynamic-metric-name-in-hot-loop",
        severity: Severity::Warn,
        fix_hint: "trace::observe/counter_add with a computed metric name in a hot loop formats a String and defeats per-name aggregation; use a string literal (one stable series per site), or hoist the name construction out of the loop",
    },
    Rule {
        id: "MCPB016",
        name: "unbounded-queue-or-undeadlined-io",
        severity: Severity::Warn,
        fix_hint: "the serving path must stay bounded under load: replace mpsc::channel with mpsc::sync_channel (admission control needs backpressure), and give every blocking read a timeout (recv_timeout, set_read_timeout) — or annotate a read whose deadline is set elsewhere with `// audit: deadline-ok(reason)`",
    },
    Rule {
        id: "MCPB017",
        name: "unreferenced-pub-item",
        severity: Severity::Info,
        fix_hint: "no non-test code in the workspace, examples/ or e2ebench/src names this pub item; delete it with the tests that only exercise it, or, when a root tests/ file still needs it, waive it with `// audit:allow(MCPB017) <reason>`",
    },
];

/// Looks up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Crates whose library code executes inside fault-isolated sweep cells.
/// A panic there turns a whole cell into a `Failed` record, so *any*
/// `.unwrap()` / `.expect(` — documented invariant or not — is flagged.
const SOLVER_CRATE_PREFIXES: &[&str] = &[
    "crates/bench-core/src/",
    "crates/drl/src/",
    "crates/im/src/",
    "crates/mcp/src/",
];

/// Crates on the determinism-critical path: everything they compute feeds
/// seed sets, journals, or reported metrics, so unordered iteration
/// (MCPB009) and unordered float accumulation (MCPB010) are flagged here.
const DETERMINISM_CRATE_PREFIXES: &[&str] = &[
    "crates/bench-core/src/",
    "crates/drl/src/",
    "crates/gnn/src/",
    "crates/graph/src/",
    "crates/im/src/",
    "crates/mcp/src/",
    "crates/rl/src/",
];

/// Hot-kernel files where a per-item allocation dominates the profile:
/// NN/GNN kernels, RR-set sampling, and cascade simulation (MCPB013).
const HOT_LOOP_PATHS: &[&str] = &[
    "crates/nn/src/",
    "crates/gnn/src/",
    "crates/im/src/rrset.rs",
    "crates/im/src/cascade.rs",
];

/// Long-lived serving code, where an unbounded queue or a blocking read
/// without a deadline turns one slow client into a stalled server
/// (MCPB016). Batch/CLI crates may block forever; the query service may not.
const SERVING_CRATE_PREFIXES: &[&str] = &["crates/serve/src/"];

fn in_scope(rel_path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel_path.starts_with(p))
}

/// Runs every rule over one file.
pub fn scan_file(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let hash_idents = collect_hash_idents(file);
    for (lineno, line) in file.lines.iter().enumerate() {
        check_unwrap(file, lineno, line, &mut findings);
        check_panic(file, lineno, line, &mut findings);
        check_rng(file, lineno, line, &mut findings);
        check_float_eq(file, lineno, line, &mut findings);
        check_hash_iter(file, lineno, line, &hash_idents, &mut findings);
        check_lossy_cast(file, lineno, line, &mut findings);
        check_raw_instant(file, lineno, line, &mut findings);
        check_solver_panic_surface(file, lineno, line, &mut findings);
    }
    check_token_rules(file, &mut findings);
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings
}

fn push(
    file: &SourceFile,
    lineno: usize,
    col0: usize,
    rule: &'static str,
    findings: &mut Vec<Finding>,
) {
    if file.is_exempt(lineno, rule) {
        return;
    }
    findings.push(Finding {
        rule,
        file: file.rel_path.clone(),
        line: lineno + 1,
        col: col0 + 1,
        snippet: file
            .raw_lines
            .get(lineno)
            .map(|l| l.trim().to_owned())
            .unwrap_or_default(),
    });
}

/// True if the byte before `idx` cannot extend an identifier (so the match
/// at `idx` starts a fresh token).
fn token_start(line: &str, idx: usize) -> bool {
    idx == 0
        || !line.as_bytes()[idx - 1].is_ascii_alphanumeric() && line.as_bytes()[idx - 1] != b'_'
}

/// MCPB001: `.unwrap()` and undocumented `.expect(...)`.
fn check_unwrap(file: &SourceFile, lineno: usize, line: &str, findings: &mut Vec<Finding>) {
    for (pat, needs_doc_check) in [(".unwrap()", false), (".expect(", true)] {
        let mut from = 0;
        while let Some(idx) = line[from..].find(pat) {
            let at = from + idx;
            from = at + pat.len();
            if needs_doc_check && expect_is_documented(file, lineno, at) {
                continue;
            }
            push(file, lineno, at, "MCPB001", findings);
        }
    }
}

/// An `.expect("invariant: ...")` (message in the *raw* line, since
/// sanitized text blanks the string) is treated as a documented invariant
/// and not flagged.
fn expect_is_documented(file: &SourceFile, lineno: usize, at: usize) -> bool {
    let Some(raw) = file.raw_lines.get(lineno) else {
        return false;
    };
    raw.get(at..)
        .map(|r| r.starts_with(".expect(\"invariant:"))
        .unwrap_or(false)
}

/// MCPB002: `panic!`, `todo!`, `unimplemented!` in library code.
fn check_panic(file: &SourceFile, lineno: usize, line: &str, findings: &mut Vec<Finding>) {
    for pat in ["panic!(", "todo!(", "unimplemented!("] {
        let mut from = 0;
        while let Some(idx) = line[from..].find(pat) {
            let at = from + idx;
            from = at + pat.len();
            if token_start(line, at) {
                push(file, lineno, at, "MCPB002", findings);
            }
        }
    }
}

/// MCPB003: ambient (non-seeded) randomness.
fn check_rng(file: &SourceFile, lineno: usize, line: &str, findings: &mut Vec<Finding>) {
    for pat in ["thread_rng", "from_entropy", "rand::random"] {
        let mut from = 0;
        while let Some(idx) = line[from..].find(pat) {
            let at = from + idx;
            from = at + pat.len();
            if token_start(line, at) {
                push(file, lineno, at, "MCPB003", findings);
            }
        }
    }
}

/// MCPB004: `==` / `!=` with a float-typed operand (detected through float
/// literals and `f32::`/`f64::` constants on either side).
fn check_float_eq(file: &SourceFile, lineno: usize, line: &str, findings: &mut Vec<Finding>) {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &bytes[i..i + 2];
        let is_cmp = two == b"==" && (i == 0 || !matches!(bytes[i - 1], b'<' | b'>' | b'!' | b'='))
            || two == b"!=";
        // Skip the whole operator so `==`'s second char is not re-examined.
        if !is_cmp {
            i += 1;
            continue;
        }
        let lhs = last_token(&line[..i]);
        let rhs = first_token(&line[i + 2..]);
        if is_floatish(lhs) || is_floatish(rhs) {
            push(file, lineno, i, "MCPB004", findings);
        }
        i += 2;
    }
}

/// Trailing expression token of `s` (identifier/literal tail).
fn last_token(s: &str) -> &str {
    let trimmed = s.trim_end();
    let start = trimmed
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == ':'))
        .map(|i| i + 1)
        .unwrap_or(0);
    &trimmed[start..]
}

/// Leading expression token of `s`.
fn first_token(s: &str) -> &str {
    let trimmed = s.trim_start();
    let end = trimmed
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == ':'))
        .unwrap_or(trimmed.len());
    &trimmed[..end]
}

/// Float literal (`1.0`, `3e8`, `2f64`) or `f32::`/`f64::` constant path.
fn is_floatish(token: &str) -> bool {
    if token.starts_with("f32::") || token.starts_with("f64::") {
        return true;
    }
    let bytes = token.as_bytes();
    if bytes.is_empty() || !bytes[0].is_ascii_digit() {
        return false;
    }
    token.contains('.')
        && token
            .split('.')
            .all(|p| p.chars().all(|c| c.is_ascii_digit()))
        || token.ends_with("f32")
        || token.ends_with("f64")
        || (token.contains('e') || token.contains('E'))
            && token
                .chars()
                .all(|c| c.is_ascii_digit() || matches!(c, 'e' | 'E' | '.' | '-' | '+'))
}

/// The binding name in `NAME: [&]['a][mut] [path::]TYPE` given the byte
/// offset of TYPE — handles struct fields, owned params, and by-reference
/// params with qualified paths (`m: &std::collections::HashMap<...>`).
fn annotated_name_before(line: &str, at: usize) -> Option<String> {
    let mut rest = line[..at].trim_end();
    // Qualified path: peel trailing `segment::` pairs off the type.
    while let Some(head) = rest.strip_suffix("::") {
        let seg_len = head
            .chars()
            .rev()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .count();
        if seg_len == 0 {
            return None;
        }
        rest = head[..head.len() - seg_len].trim_end();
    }
    // By-reference bindings: `&T`, `&mut T`, `&'a mut T`.
    if let Some(head) = rest.strip_suffix("mut") {
        rest = head.trim_end();
    }
    if rest.ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
        let lt_len = rest
            .chars()
            .rev()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .count();
        if rest[..rest.len() - lt_len].ends_with('\'') {
            rest = rest[..rest.len() - lt_len - 1].trim_end();
        }
    }
    if let Some(head) = rest.strip_suffix('&') {
        rest = head.trim_end();
    }
    let head = rest.strip_suffix(':')?;
    if head.ends_with(':') {
        return None;
    }
    let name: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    let starts_ok = name.chars().next().is_some_and(|c| !c.is_ascii_digit());
    (!name.is_empty() && starts_ok).then_some(name)
}

/// Identifiers bound to a HashMap/HashSet in this file (declaration-site
/// scan: `let x = HashMap::new()`, `x: HashMap<...>`,
/// `x: &mut HashMap<...>`).
fn collect_hash_idents(file: &SourceFile) -> Vec<String> {
    let mut idents = Vec::new();
    for (lineno, line) in file.lines.iter().enumerate() {
        // A HashMap bound inside `#[cfg(test)]` must not poison the lib
        // scan: test code is exempt, so its declarations are too.
        if file.in_test_region.get(lineno).copied().unwrap_or(false) {
            continue;
        }
        for marker in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(idx) = line[from..].find(marker) {
                let at = from + idx;
                from = at + marker.len();
                if !token_start(line, at) {
                    continue;
                }
                // `let NAME [: T] = HashMap::new()` on one line.
                if let Some(let_pos) = line[..at].rfind("let ") {
                    let name: String = line[let_pos + 4..]
                        .trim_start()
                        .trim_start_matches("mut ")
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect();
                    if !name.is_empty() {
                        idents.push(name);
                        continue;
                    }
                }
                // `NAME: [&][mut] [path::]HashMap<` — field or parameter.
                if let Some(name) = annotated_name_before(line, at) {
                    idents.push(name);
                }
            }
        }
    }
    idents.sort();
    idents.dedup();
    idents
}

/// MCPB005 / MCPB009: iteration over an identifier known to hold a
/// HashMap/HashSet. Inside the determinism-critical crates this is MCPB009
/// (error severity, stricter hint); elsewhere it stays MCPB005.
fn check_hash_iter(
    file: &SourceFile,
    lineno: usize,
    line: &str,
    hash_idents: &[String],
    findings: &mut Vec<Finding>,
) {
    let rule = if in_scope(&file.rel_path, DETERMINISM_CRATE_PREFIXES) {
        "MCPB009"
    } else {
        "MCPB005"
    };
    for ident in hash_idents {
        // One finding per (line, ident) even when several patterns match
        // the same expression (e.g. `for k in map.keys()`).
        let method_hit = [
            ".iter()",
            ".keys()",
            ".values()",
            ".into_iter()",
            ".into_keys()",
            ".into_values()",
            ".drain()",
        ]
        .iter()
        .filter_map(|suffix| {
            let pat = format!("{ident}{suffix}");
            let mut from = 0;
            while let Some(idx) = line[from..].find(&pat) {
                let at = from + idx;
                from = at + pat.len();
                if token_start(line, at) {
                    return Some(at);
                }
            }
            None
        })
        .next();
        let for_hit = [
            format!("in {ident} "),
            format!("in {ident}."),
            format!("in {ident} {{"),
            format!("in &{ident} "),
            format!("in &{ident} {{"),
            format!("in &mut {ident} "),
        ]
        .iter()
        .filter_map(|pat| {
            line.find(pat.as_str())
                .filter(|&idx| token_start(line, idx) && line[..idx].contains("for "))
        })
        .next();
        if let Some(at) = method_hit.or(for_hit) {
            push(file, lineno, at, rule, findings);
        }
    }
}

/// MCPB006: truncating `as` casts of computed expressions.
fn check_lossy_cast(file: &SourceFile, lineno: usize, line: &str, findings: &mut Vec<Finding>) {
    for pat in [
        " as u8", " as u16", " as u32", " as i8", " as i16", " as i32",
    ] {
        let mut from = 0;
        while let Some(idx) = line[from..].find(pat) {
            let at = from + idx;
            from = at + pat.len();
            // Require the cast to end the token: `as u32` not `as u32x4`.
            let end = at + pat.len();
            if line
                .as_bytes()
                .get(end)
                .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
            {
                continue;
            }
            // Literal casts (`7 as u32`, `0xff as u32`) are compile-time
            // checked by the `overflowing_literals` lint; skip them.
            let lhs = last_token(&line[..at]);
            let is_literal = !lhs.is_empty()
                && lhs.chars().next().is_some_and(|c| c.is_ascii_digit())
                && lhs
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.');
            if !is_literal {
                push(file, lineno, at, "MCPB006", findings);
            }
        }
    }
}

/// MCPB007: direct `std::time::Instant` use outside the sanctioned timing
/// layers. Wall-clock reads belong in `mcpb-trace` (spans / `Stopwatch`)
/// or `bench-core::instrument::run_measured`; everything else timing itself
/// by hand fragments the profile. The two layers that *implement* timing
/// are path-exempt.
fn check_raw_instant(file: &SourceFile, lineno: usize, line: &str, findings: &mut Vec<Finding>) {
    // `mcpb-resilience` is zero-dep by design (it sits below the trace
    // crate) and implements the deadline/backoff timing itself. The
    // criterion shim is a timing harness by definition.
    if file.rel_path.starts_with("crates/trace/")
        || file.rel_path.starts_with("crates/resilience/")
        || file.rel_path.starts_with("shims/criterion/")
        || file.rel_path == "crates/bench-core/src/instrument.rs"
    {
        return;
    }
    // One finding per line: `std::time::Instant::now()` matches both
    // patterns but is a single offence.
    for pat in ["Instant::now", "time::Instant"] {
        let mut from = 0;
        while let Some(idx) = line[from..].find(pat) {
            let at = from + idx;
            from = at + pat.len();
            if token_start(line, at) {
                push(file, lineno, at, "MCPB007", findings);
                return;
            }
        }
    }
}

/// MCPB008: unwrap/expect in the solver/harness crates. Stricter than
/// MCPB001: the documented-invariant escape hatch does not apply, because
/// an invariant violation inside a sweep cell should surface as a typed
/// error, not a caught panic with a stringified payload.
fn check_solver_panic_surface(
    file: &SourceFile,
    lineno: usize,
    line: &str,
    findings: &mut Vec<Finding>,
) {
    if !in_scope(&file.rel_path, SOLVER_CRATE_PREFIXES) {
        return;
    }
    for pat in [".unwrap()", ".expect("] {
        let mut from = 0;
        while let Some(idx) = line[from..].find(pat) {
            let at = from + idx;
            from = at + pat.len();
            push(file, lineno, at, "MCPB008", findings);
        }
    }
}

/// Dispatches the token-stream rules (MCPB010–MCPB016). MCPB009 shares the
/// declaration-tracking line scan with MCPB005 above.
fn check_token_rules(file: &SourceFile, findings: &mut Vec<Finding>) {
    let code = file.code_indices();
    let txt = |k: usize| -> &str {
        code.get(k)
            .map(|&i| file.tokens[i].text(&file.text))
            .unwrap_or("")
    };
    let kind = |k: usize| -> Option<TokenKind> { code.get(k).map(|&i| file.tokens[i].kind) };
    let push_tok = |k: usize, rule: &'static str, findings: &mut Vec<Finding>| {
        let tok = &file.tokens[code[k]];
        push(
            file,
            tok.line,
            file.col_of(tok.line, tok.start) - 1,
            rule,
            findings,
        );
    };

    let det_scope = in_scope(&file.rel_path, DETERMINISM_CRATE_PREFIXES);
    let hot_scope = in_scope(&file.rel_path, HOT_LOOP_PATHS);
    let serve_scope = in_scope(&file.rel_path, SERVING_CRATE_PREFIXES);

    for k in 0..code.len() {
        let in_loop = file.scopes.loop_depth[code[k]] > 0;

        // MCPB010: float `.sum::<f32|f64>()` / `.product::<...>()` and
        // `.fold(<float init>, …)` on the determinism-critical path.
        if det_scope
            && matches!(txt(k), "sum" | "product")
            && txt(k.wrapping_sub(1)) == "."
            && txt(k + 1) == ":"
            && txt(k + 2) == ":"
            && txt(k + 3) == "<"
            && matches!(txt(k + 4), "f32" | "f64")
        {
            push_tok(k, "MCPB010", findings);
        }
        if det_scope && txt(k) == "fold" && k > 0 && txt(k - 1) == "." && txt(k + 1) == "(" {
            let init_float = kind(k + 2) == Some(TokenKind::Float)
                || matches!(txt(k + 2), "f32" | "f64")
                || (txt(k + 2) == "-" && kind(k + 3) == Some(TokenKind::Float));
            // min/max reductions are order-independent (on non-NaN data);
            // only accumulating folds are flagged. The reducer is the
            // second argument, so scan to the fold's closing paren.
            let minmax_reducer = (k + 2..code.len().min(k + 40))
                .take_while({
                    let mut depth = 1i32;
                    move |&j| {
                        match txt(j) {
                            "(" => depth += 1,
                            ")" => depth -= 1,
                            _ => {}
                        }
                        depth > 0
                    }
                })
                .any(|j| {
                    matches!(txt(j), "min" | "max")
                        && txt(j.wrapping_sub(1)) == ":"
                        && matches!(txt(j.wrapping_sub(3)), "f32" | "f64")
                });
            if init_float && !minmax_reducer {
                push_tok(k, "MCPB010", findings);
            }
        }

        // MCPB011: `static mut` anywhere in first-party lib code.
        if txt(k) == "static" && kind(k) == Some(TokenKind::Ident) && txt(k + 1) == "mut" {
            push_tok(k, "MCPB011", findings);
        }

        // MCPB012: `Ordering::Relaxed` without a relaxed-ok annotation.
        if txt(k) == "Ordering" && txt(k + 1) == ":" && txt(k + 2) == ":" && txt(k + 3) == "Relaxed"
        {
            let line = file.tokens[code[k + 3]].line;
            if !file.has_relaxed_waiver(line) {
                push_tok(k + 3, "MCPB012", findings);
            }
        }

        // MCPB013: per-item allocation inside a hot kernel loop.
        if hot_scope && in_loop {
            let alloc = (matches!(txt(k), "Vec" | "String")
                && txt(k + 1) == ":"
                && txt(k + 2) == ":"
                && matches!(txt(k + 3), "new" | "from"))
                || (matches!(txt(k), "vec" | "format") && txt(k + 1) == "!")
                || (txt(k) == "to_vec" && k > 0 && txt(k - 1) == ".")
                || (txt(k) == "clone" && k > 0 && txt(k - 1) == "." && txt(k + 1) == "(");
            if alloc {
                push_tok(k, "MCPB013", findings);
            }
        }

        // MCPB014: trait-object boxing inside any per-item loop.
        if in_loop
            && txt(k) == "Box"
            && ((txt(k + 1) == ":" && txt(k + 2) == ":" && txt(k + 3) == "new")
                || (txt(k + 1) == "<" && txt(k + 2) == "dyn"))
        {
            push_tok(k, "MCPB014", findings);
        }

        // MCPB015: `observe(...)` / `counter_add(...)` with a non-literal
        // metric name inside a hot kernel loop. Only free/path calls are
        // metric sites (`.observe(v)` is `Histogram::observe`, which takes
        // a value, not a name), and `fn observe(` is a definition.
        if hot_scope
            && in_loop
            && matches!(txt(k), "observe" | "counter_add")
            && txt(k + 1) == "("
            && txt(k.wrapping_sub(1)) != "."
            && txt(k.wrapping_sub(1)) != "fn"
            && kind(k + 2) != Some(TokenKind::Str)
        {
            push_tok(k, "MCPB015", findings);
        }

        // MCPB016a: `mpsc::channel(` in serving code — an unbounded queue
        // defeats admission control, so this form is never waivable; use
        // `mpsc::sync_channel(depth)` and shed when `try_send` fails.
        if serve_scope
            && txt(k) == "mpsc"
            && txt(k + 1) == ":"
            && txt(k + 2) == ":"
            && txt(k + 3) == "channel"
            && matches!(txt(k + 4), "(" | ":")
        // plain call or turbofish
        {
            push_tok(k + 3, "MCPB016", findings);
        }

        // MCPB016b: blocking reads with no deadline in serving code —
        // `.recv()` (use recv_timeout/try_recv) and buffered reads
        // (`.read_line(` / `.read_until(` / `.skip_until(` /
        // `.read_to_end(` / `.read_to_string(`). A read
        // whose timeout is configured elsewhere (e.g. at accept time) can
        // carry a `// audit: deadline-ok(reason)` annotation.
        let blocking_read = (txt(k) == "recv" && txt(k + 1) == "(" && txt(k + 2) == ")")
            || (matches!(
                txt(k),
                "read_line" | "read_until" | "skip_until" | "read_to_end" | "read_to_string"
            ) && txt(k + 1) == "(");
        if serve_scope && blocking_read && k > 0 && txt(k - 1) == "." {
            let line = file.tokens[code[k]].line;
            if !file.has_deadline_waiver(line) {
                push_tok(k, "MCPB016", findings);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Finding> {
        scan_file(&SourceFile::parse("crates/x/src/lib.rs", src))
    }

    fn scan_at(path: &str, src: &str) -> Vec<Finding> {
        scan_file(&SourceFile::parse(path, src))
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unwrap_and_undocumented_expect_flagged() {
        let f = scan("let a = x.unwrap();\nlet b = y.expect(\"oops\");\n");
        assert_eq!(rules_of(&f), ["MCPB001", "MCPB001"]);
    }

    #[test]
    fn documented_expect_is_clean() {
        let f = scan("let b = y.expect(\"invariant: catalog names are unique\");\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panic_macros_flagged() {
        let f = scan("panic!(\"boom\");\ntodo!();\nunimplemented!()\n");
        // `unimplemented!()` without `(` suffix pattern: has paren, matches.
        assert_eq!(rules_of(&f), ["MCPB002", "MCPB002", "MCPB002"]);
    }

    #[test]
    fn rng_sources_flagged() {
        let f = scan("let mut rng = rand::thread_rng();\nlet r = StdRng::from_entropy();\n");
        assert_eq!(rules_of(&f), ["MCPB003", "MCPB003"]);
    }

    #[test]
    fn float_eq_flagged_int_eq_clean() {
        let f = scan("if x == 1.0 { }\nif 2.5 != y { }\nif n == 3 { }\nif m <= 7 { }\n");
        assert_eq!(rules_of(&f), ["MCPB004", "MCPB004"]);
    }

    #[test]
    fn float_const_eq_flagged() {
        let f = scan("if x == f64::INFINITY { }\n");
        assert_eq!(rules_of(&f), ["MCPB004"]);
    }

    #[test]
    fn hash_iteration_flagged() {
        let src = "let mut seen = HashMap::new();\nfor (k, v) in seen.iter() { out.push(k); }\n";
        let f = scan(src);
        assert_eq!(rules_of(&f), ["MCPB005"]);
    }

    #[test]
    fn hash_iteration_is_error_rule_in_solver_crates() {
        let src = "let mut seen = HashMap::new();\nfor (k, v) in seen.iter() { out.push(k); }\n";
        let f = scan_at("crates/im/src/imm.rs", src);
        assert_eq!(rules_of(&f), ["MCPB009"]);
        // into_keys is also a drain-ordering hazard.
        let src = "let mut seen = HashMap::new();\nlet ks: Vec<_> = seen.into_keys().collect();\n";
        let f = scan_at("crates/drl/src/common.rs", src);
        assert_eq!(rules_of(&f), ["MCPB009"]);
    }

    #[test]
    fn by_ref_param_hash_iteration_flagged() {
        // Reference-typed params with qualified paths still bind the name.
        let src =
            "fn f(m: &std::collections::HashMap<u32, f64>) {\n    for (_, v) in m.iter() { }\n}\n";
        let f = scan_at("crates/im/src/imm.rs", src);
        assert_eq!(rules_of(&f), ["MCPB009"]);
        let src = "fn g(seen: &mut HashSet<u32>) {\n    for v in seen.iter() { }\n}\n";
        let f = scan(src);
        assert_eq!(rules_of(&f), ["MCPB005"]);
    }

    #[test]
    fn annotated_name_handles_refs_and_paths() {
        let line = "fn f(m: &std::collections::HashMap<u32, f64>) {";
        let at = line.find("HashMap").unwrap();
        assert_eq!(annotated_name_before(line, at).as_deref(), Some("m"));
        let line = "fn g<'a>(ws: &'a mut HashMap<u32, f64>) {";
        let at = line.find("HashMap").unwrap();
        assert_eq!(annotated_name_before(line, at).as_deref(), Some("ws"));
        // Turbofish/associated-path positions are not bindings.
        let line = "let x = foo::<HashMap<u32, u32>>();";
        let at = line.find("HashMap").unwrap();
        assert_eq!(annotated_name_before(line, at), None);
    }

    #[test]
    fn test_region_hash_decl_does_not_poison_lib_scan() {
        // A `HashMap` bound to `m` inside #[cfg(test)] must not flag an
        // unrelated lib-side `m` (e.g. a BTreeMap) that iterates.
        let src = "fn lib(m: &std::collections::BTreeMap<u32, u32>) -> u32 {\n    m.iter().map(|(_, v)| v).sum()\n}\n#[cfg(test)]\nmod tests {\n    fn t() { let m = HashMap::new(); }\n}\n";
        let f = scan(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn vec_iteration_clean() {
        let f = scan("let v = Vec::new();\nfor x in v.iter() { }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lossy_cast_flagged_literal_cast_clean() {
        let f = scan("let a = idx as u32;\nlet b = 7 as u32;\nlet c = n as u64;\n");
        assert_eq!(rules_of(&f), ["MCPB006"]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let f = scan("let msg = \"do not .unwrap() or panic!\"; // thread_rng\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn token_rules_never_fire_in_strings_or_comments() {
        let f = scan_at(
            "crates/nn/src/kernels.rs",
            "fn f() { for i in 0..9 {\n  let m = \"Vec::new() Box::new Ordering::Relaxed static mut\";\n  // Vec::new() in a comment, fold(0.0, …)\n} }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn waiver_suppresses_named_rule_only() {
        let f = scan("// audit:allow(MCPB001)\nlet a = x.unwrap(); let b = y as u32;\n");
        assert_eq!(rules_of(&f), ["MCPB006"]);
    }

    #[test]
    fn raw_instant_flagged_once_per_line() {
        let f = scan("use std::time::Instant;\nlet t = std::time::Instant::now();\n");
        assert_eq!(rules_of(&f), ["MCPB007", "MCPB007"]);
    }

    #[test]
    fn raw_instant_exempt_in_timing_layers() {
        for path in [
            "crates/trace/src/clock.rs",
            "crates/bench-core/src/instrument.rs",
        ] {
            let f = scan_at(path, "let t = Instant::now();\n");
            assert!(f.is_empty(), "{path}: {f:?}");
        }
        // Only the exact instrument.rs file is exempt in bench-core.
        let f = scan_at(
            "crates/bench-core/src/sweep.rs",
            "let t = Instant::now();\n",
        );
        assert_eq!(rules_of(&f), ["MCPB007"]);
    }

    #[test]
    fn raw_instant_exempt_in_resilience() {
        let f = scan_at("crates/resilience/src/cell.rs", "let t = Instant::now();\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn solver_crate_panic_surface_flagged_even_when_documented() {
        let src = "let a = x.unwrap();\nlet b = y.expect(\"invariant: always set\");\n";
        for path in [
            "crates/bench-core/src/sweep.rs",
            "crates/drl/src/s2v_dqn.rs",
            "crates/im/src/imm.rs",
            "crates/mcp/src/greedy.rs",
        ] {
            let f = scan_at(path, src);
            let hits: Vec<_> = rules_of(&f)
                .into_iter()
                .filter(|r| *r == "MCPB008")
                .collect();
            assert_eq!(hits.len(), 2, "{path}: {f:?}");
        }
        // The documented expect still dodges MCPB001 — MCPB008 is the only
        // rule that sees it.
        let f = scan_at(
            "crates/drl/src/s2v_dqn.rs",
            "let b = y.expect(\"invariant: always set\");\n",
        );
        assert_eq!(rules_of(&f), ["MCPB008"]);
    }

    #[test]
    fn solver_panic_surface_scoped_to_solver_crates() {
        // The same source outside the solver crates only trips MCPB001.
        let f = scan_at("crates/graph/src/io.rs", "let a = x.unwrap();\n");
        assert_eq!(rules_of(&f), ["MCPB001"]);
        // Test code inside a solver crate stays exempt entirely.
        let f = scan_at("crates/drl/tests/helpers.rs", "let a = x.unwrap();\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn instant_in_identifier_clean() {
        // `MyInstant::now` must not fire: the pattern is not a token start.
        let f = scan("let t = MyInstant::now();\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn float_sum_turbofish_flagged_in_det_scope_only() {
        let src = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
        let f = scan_at("crates/im/src/lt.rs", src);
        assert_eq!(rules_of(&f), ["MCPB010"]);
        // Outside the determinism scope the same code is clean.
        let f = scan_at("crates/trace/src/histo.rs", src);
        assert!(f.is_empty(), "{f:?}");
        // Integer sums are always clean.
        let f = scan_at(
            "crates/im/src/lt.rs",
            "fn f(xs: &[u64]) -> u64 { xs.iter().sum::<u64>() }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn float_fold_flagged_by_init_literal() {
        let f = scan_at(
            "crates/drl/src/common.rs",
            "let t = xs.iter().fold(0.0, |a, b| a + b);\n",
        );
        assert_eq!(rules_of(&f), ["MCPB010"]);
        let f = scan_at(
            "crates/drl/src/common.rs",
            "let t = xs.iter().fold(0usize, |a, _| a + 1);\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn minmax_float_folds_are_exempt() {
        for src in [
            "let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);\n",
            "let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);\n",
            "let w = ws.iter().copied().fold(0.0f32, f32::max);\n",
        ] {
            let f = scan_at("crates/drl/src/common.rs", src);
            assert!(f.is_empty(), "{src}: {f:?}");
        }
        // An accumulating fold that merely *mentions* max still fires.
        let f = scan_at(
            "crates/drl/src/common.rs",
            "let t = xs.iter().fold(0.0, |a, x| a + x.max(0.0));\n",
        );
        assert_eq!(rules_of(&f), ["MCPB010"], "{f:?}");
    }

    #[test]
    fn static_mut_flagged() {
        let f = scan("static mut COUNTER: u64 = 0;\n");
        assert_eq!(rules_of(&f), ["MCPB011"]);
        let f = scan("static COUNTER: AtomicU64 = AtomicU64::new(0);\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn relaxed_ordering_flagged_unless_annotated() {
        let f = scan("let x = FLAG.load(Ordering::Relaxed);\n");
        assert_eq!(rules_of(&f), ["MCPB012"]);
        let f = scan(
            "// audit: relaxed-ok(pure event counter, gates no data)\nlet x = N.load(Ordering::Relaxed);\n",
        );
        assert!(f.is_empty(), "{f:?}");
        // Acquire/Release are always clean.
        let f = scan("let x = FLAG.load(Ordering::Acquire);\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn hot_loop_allocations_flagged_only_inside_loops() {
        let src = "fn f(n: usize) {\n    let mut buf = Vec::new();\n    for i in 0..n {\n        let tmp = Vec::new();\n        let s = format!(\"{i}\");\n        let c = buf.clone();\n        let v = xs.to_vec();\n    }\n}\n";
        let f = scan_at("crates/nn/src/kernels.rs", src);
        assert_eq!(
            rules_of(&f),
            ["MCPB013", "MCPB013", "MCPB013", "MCPB013"],
            "{f:?}"
        );
        // Same code outside the hot paths is clean.
        let f = scan_at("crates/graph/src/io.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn loop_header_allocation_is_not_flagged() {
        let src = "fn f(xs: Vec<u32>) { for x in xs.clone() { work(x); } }\n";
        let f = scan_at("crates/nn/src/kernels.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn box_dyn_in_loop_flagged_everywhere() {
        let src = "fn f(n: usize) { for i in 0..n { let h: Box<dyn Fn()> = Box::new(move || use_it(i)); sink(h); } }\n";
        let f = scan("fn g() {}\n"); // warm-up: no findings on empty
        assert!(f.is_empty());
        let f = scan_at("crates/graph/src/io.rs", src);
        let hits: Vec<_> = rules_of(&f)
            .into_iter()
            .filter(|r| *r == "MCPB014")
            .collect();
        assert_eq!(hits.len(), 2, "{f:?}"); // the Box<dyn> type and Box::new
                                            // Outside a loop, boxing is fine.
        let f = scan_at(
            "crates/graph/src/io.rs",
            "fn f() { let h: Box<dyn Fn()> = Box::new(|| ()); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dynamic_metric_names_flagged_in_hot_loops() {
        let src = "fn f(names: &[String], vals: &[f64]) {\n    for (n, v) in names.iter().zip(vals) {\n        mcpb_trace::observe(n, *v);\n        counter_add(format!(\"{n}.count\"), 1);\n    }\n}\n";
        let f = scan_at("crates/nn/src/kernels.rs", src);
        let hits: Vec<_> = rules_of(&f)
            .into_iter()
            .filter(|r| *r == "MCPB015")
            .collect();
        // `observe(n, …)` and `counter_add(format!…, …)` both fire; the
        // format! itself additionally trips MCPB013.
        assert_eq!(hits.len(), 2, "{f:?}");
        // Same code outside the hot paths is not MCPB015's business.
        let f = scan_at("crates/graph/src/io.rs", src);
        assert!(!rules_of(&f).contains(&"MCPB015"), "{f:?}");
    }

    #[test]
    fn literal_metric_names_and_non_metric_observe_are_clean() {
        let src = "fn f(xs: &[f64]) {\n    let mut h = Histogram::new();\n    for x in xs {\n        mcpb_trace::observe(\"nn.loss\", *x);\n        counter_add(\"nn.items\", 1);\n        h.observe(*x);\n    }\n}\nfn observe(name: &str, v: f64) {}\n";
        let f = scan_at("crates/nn/src/kernels.rs", src);
        assert!(!rules_of(&f).contains(&"MCPB015"), "{f:?}");
    }

    #[test]
    fn unbounded_channel_in_serve_flagged_everywhere_else_clean() {
        let src = "fn f() { let (tx, rx) = mpsc::channel(); }\n";
        let f = scan_at("crates/serve/src/socket.rs", src);
        assert_eq!(rules_of(&f), ["MCPB016"]);
        // The same code outside the serving crate is not MCPB016's business.
        let f = scan_at("crates/graph/src/lib.rs", src);
        assert!(!rules_of(&f).contains(&"MCPB016"), "{f:?}");
    }

    #[test]
    fn bounded_channel_and_timed_receives_are_clean() {
        let src = "fn f(rx: &Receiver<u32>) {\n    let (tx, rx2) = mpsc::sync_channel::<u32>(32);\n    let _ = rx.recv_timeout(d);\n    let _ = rx.try_recv();\n}\n";
        let f = scan_at("crates/serve/src/socket.rs", src);
        assert!(!rules_of(&f).contains(&"MCPB016"), "{f:?}");
    }

    #[test]
    fn blocking_reads_need_a_deadline_waiver() {
        let src = "fn f(rx: &Receiver<u32>, r: &mut BufReader<TcpStream>, s: &mut String) {\n    let _ = rx.recv();\n    let _ = r.read_line(s);\n}\n";
        let f = scan_at("crates/serve/src/socket.rs", src);
        assert_eq!(rules_of(&f), ["MCPB016", "MCPB016"]);

        let bytes = "fn f(r: &mut BufReader<TcpStream>, v: &mut Vec<u8>) {\n    let _ = r.by_ref().take(9).read_until(b'\\n', v);\n    let _ = r.skip_until(b'\\n');\n}\n";
        let f = scan_at("crates/serve/src/socket.rs", bytes);
        assert_eq!(rules_of(&f), ["MCPB016", "MCPB016"]);

        let waived = "fn f(r: &mut BufReader<TcpStream>, s: &mut String) {\n    // audit: deadline-ok(read timeout set at accept time)\n    let _ = r.read_line(s);\n}\n";
        let f = scan_at("crates/serve/src/socket.rs", waived);
        assert!(!rules_of(&f).contains(&"MCPB016"), "{f:?}");
    }

    #[test]
    fn deadline_waiver_does_not_excuse_an_unbounded_channel() {
        let src =
            "fn f() {\n    // audit: deadline-ok(reason)\n    let (tx, rx) = mpsc::channel();\n}\n";
        let f = scan_at("crates/serve/src/engine.rs", src);
        assert_eq!(rules_of(&f), ["MCPB016"]);
    }

    #[test]
    fn findings_carry_columns() {
        let f = scan("let a = x.unwrap();\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[0].col, 10); // the `.` of `.unwrap()`
        assert_eq!(f[0].span(), "1:10");
    }

    #[test]
    fn rule_table_is_consistent() {
        assert_eq!(RULES.len(), 17);
        for r in RULES {
            assert!(r.id.starts_with("MCPB"));
            assert!(!r.fix_hint.is_empty());
            assert_eq!(rule_by_id(r.id).map(|x| x.name), Some(r.name));
        }
    }
}
