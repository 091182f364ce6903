//! `mcpb-audit`: the workspace lint engine.
//!
//! A dependency-free static-analysis pass over the workspace's `.rs`
//! sources, plus the committed-baseline ratchet that turns it into a CI
//! gate (`tests/lint_gate.rs` at the workspace root runs it under plain
//! `cargo test`).
//!
//! Since v2 the scanner is token-accurate: a lossless lexer
//! ([`lexer`]) classifies every byte of the source, so rules never fire
//! inside string literals or comments, and a lightweight syntactic layer
//! ([`syntax`]) tracks brace nesting and `fn`/`impl`/loop scopes so rules
//! can require a pattern to sit *inside a loop body*. There is still no
//! `syn` and no type resolution — the engine is tuned for the defect
//! classes that have actually bitten this benchmark:
//!
//! | id      | name                   | why it matters here                          |
//! |---------|------------------------|----------------------------------------------|
//! | MCPB001 | unwrap-in-lib          | solver crates must surface errors, not abort |
//! | MCPB002 | panic-in-lib           | same, for explicit `panic!`/`todo!`          |
//! | MCPB003 | non-seeded-rng         | every experiment must be seed-reproducible   |
//! | MCPB004 | float-eq               | spread estimates are floats; `==` is a bug   |
//! | MCPB005 | hash-iter-order        | unordered iteration breaks run-to-run diffs  |
//! | MCPB006 | lossy-index-cast       | node ids truncate silently past `u32::MAX`   |
//! | MCPB007 | raw-instant-timing     | ad-hoc timing bypasses the trace collector   |
//! | MCPB008 | panic-surface-in-solver| sweep cells must fail as records, not aborts |
//! | MCPB009 | hash-iter-in-solver    | unordered iteration breaks solver determinism|
//! | MCPB010 | unordered-float-fold   | float order changes bits across thread counts|
//! | MCPB011 | static-mut             | unsynchronized globals are data races        |
//! | MCPB012 | relaxed-ordering       | Relaxed gives no happens-before edge         |
//! | MCPB013 | alloc-in-hot-loop      | per-item allocation dominates kernel profiles|
//! | MCPB014 | box-dyn-in-loop        | per-item boxing allocates and blocks inlining|
//! | MCPB015 | dynamic-metric-name-in-hot-loop | computed metric names format per item |
//! | MCPB016 | unbounded-queue-or-undeadlined-io | one slow client must not stall the server |
//! | MCPB017 | unreferenced-pub-item  | a `pub` item no code names is dead weight    |
//!
//! See DESIGN.md § "Static analysis" for the full rule table with examples
//! and allowlist syntax. False positives are waived inline with
//! `// audit:allow(MCPBnnn)` (MCPB012 has its own
//! `// audit: relaxed-ok(reason)` marker, and an MCPB017 waiver must give a
//! reason after the parenthesis); existing debt is grandfathered
//! per (rule, file) in `audit.baseline.json` (schema v2: counts + spans),
//! so the gate only fails when a cell *grows*.

#![warn(missing_docs)]

pub mod baseline;
pub mod cli;
pub mod lexer;
pub mod output;
pub mod rules;
pub mod selfcheck;
pub mod source;
pub mod syntax;
pub mod unreferenced;
pub mod walk;

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

pub use baseline::{check, Baseline, GateResult, BASELINE_FILE};
pub use rules::{scan_file, Finding, Rule, Severity, RULES};
pub use selfcheck::self_check;
pub use source::SourceFile;

/// Everything one audit run produced.
#[derive(Debug)]
pub struct AuditReport {
    /// Workspace root scanned.
    pub root: PathBuf,
    /// Files scanned (workspace-relative keys).
    pub files_scanned: usize,
    /// All findings, in (file, line, col) order.
    pub findings: Vec<Finding>,
}

/// Scans every first-party source file under `root`, then runs the
/// workspace-level MCPB017 pass over them and the consumer-only files.
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    let files = walk::workspace_sources(root)?;
    let mut sources = Vec::new();
    let mut findings = Vec::new();
    for rel in &files {
        let key = walk::path_key(rel);
        let file = SourceFile::load(&root.join(rel), &key)?;
        findings.extend(rules::scan_file(&file));
        sources.push(file);
    }
    for rel in walk::consumer_sources(root)? {
        sources.push(SourceFile::load(&root.join(&rel), &walk::path_key(&rel))?);
    }
    findings.extend(unreferenced::scan_workspace(&sources));
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(AuditReport {
        root: root.to_path_buf(),
        files_scanned: files.len(),
        findings,
    })
}

/// Runs the full gate: scan + baseline comparison.
// audit:allow(MCPB017) tests/lint_gate.rs runs the gate under `cargo test`
pub fn run_gate(root: &Path) -> io::Result<(AuditReport, GateResult)> {
    let report = audit_workspace(root)?;
    let baseline = Baseline::load(&root.join(BASELINE_FILE))?;
    let result = check(&report.findings, &baseline);
    Ok((report, result))
}

/// Renders a gate failure as an actionable message: every regressed cell
/// with its findings, the rule's severity, and the fix hint.
pub fn render_regressions(result: &GateResult) -> String {
    let mut out = String::new();
    for reg in &result.regressions {
        let rule = rules::rule_by_id(&reg.rule);
        let (severity, name, hint) = rule
            .map(|r| (r.severity.label(), r.name, r.fix_hint))
            .unwrap_or(("warn", "unknown-rule", ""));
        let _ = writeln!(
            out,
            "{} [{severity}] {name}: {} finding(s) in {} (baseline allows {})",
            reg.rule, reg.current, reg.file, reg.allowed
        );
        for f in &reg.findings {
            let _ = writeln!(out, "    {}:{}:{}: {}", f.file, f.line, f.col, f.snippet);
        }
        if !hint.is_empty() {
            let _ = writeln!(out, "    fix: {hint}");
        }
        let _ = writeln!(
            out,
            "    (intentional? waive with `// audit:allow({})` or run \
             `scripts/rebaseline.sh`)",
            reg.rule
        );
    }
    out
}

/// Renders the improvements note shown when debt shrank.
pub fn render_improvements(result: &GateResult) -> String {
    let mut out = String::new();
    for (rule, file, was, now) in &result.improvements {
        let _ = writeln!(out, "improved: {rule} in {file}: {was} -> {now}");
    }
    if !out.is_empty() {
        let _ = writeln!(
            out,
            "run `scripts/rebaseline.sh` to ratchet the baseline down"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_runs_on_this_workspace() {
        let root = walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let report = audit_workspace(&root).expect("audit");
        assert!(report.files_scanned > 50, "{}", report.files_scanned);
        // Findings refer to scanned keys and valid rules.
        for f in &report.findings {
            assert!(rules::rule_by_id(f.rule).is_some());
            assert!(f.line >= 1);
            assert!(f.col >= 1);
        }
    }

    #[test]
    fn self_check_passes_on_this_workspace() {
        let root = walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let report = self_check(&root).expect("self-check");
        assert!(report.tagged >= 25, "{report:?}");
        let summary = report.to_string();
        assert!(summary.contains("self-check ok"), "{summary}");
    }

    #[test]
    fn regression_rendering_names_rule_and_hint() {
        let baseline = Baseline::default();
        let findings = [Finding {
            rule: "MCPB003",
            file: "crates/x/src/lib.rs".into(),
            line: 4,
            col: 19,
            snippet: "let mut rng = thread_rng();".into(),
        }];
        let result = check(&findings, &baseline);
        let msg = render_regressions(&result);
        assert!(msg.contains("MCPB003"));
        assert!(msg.contains("non-seeded-rng"));
        assert!(msg.contains("seed_from_u64"), "hint missing: {msg}");
        assert!(msg.contains("crates/x/src/lib.rs:4:19"));
    }
}
