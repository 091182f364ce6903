//! The engine's own smoke test (`mcpbench audit --self-check`).
//!
//! The audit crate keeps golden fixtures under `tests/fixtures/`: positive
//! fixtures declare every expected finding with an inline `FIRE:<rule>`
//! comment tag, and negative fixtures must scan clean. This module scans
//! each fixture under its designated synthetic path (path-scoped rules
//! need to believe the file lives in a solver/hot-kernel crate) and
//! asserts the findings match the tags *exactly* — no misses, no spurious
//! hits — and that every rule in [`RULES`] has at least one positive
//! case.
//!
//! `tests/fixtures_scan.rs` runs the same check under `cargo test`; the
//! CLI flag exists so a deployed binary can prove its rule packs are alive
//! without a test harness.

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

use crate::rules::{scan_file, RULES};
use crate::source::SourceFile;

/// Whether a fixture declares findings or must be clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixtureKind {
    /// Must fire exactly the `FIRE:` tags.
    Positive,
    /// Must produce zero findings.
    Negative,
}

/// One golden fixture: file name, the synthetic path it is scanned under,
/// and its polarity.
#[derive(Debug, Clone, Copy)]
pub struct FixtureSpec {
    /// File name under `crates/audit/tests/fixtures/`.
    pub name: &'static str,
    /// Synthetic workspace-relative path used for path-scoped rules.
    pub scan_path: &'static str,
    /// Positive (tagged) or negative (clean).
    pub kind: FixtureKind,
}

/// The golden fixture set. Paths are chosen so each pack's scope applies:
/// `solver_positive` under a solver crate (MCPB008), `det_positive` under
/// a determinism-critical crate (MCPB009/010), `hot_loop_positive` under a
/// hot-kernel path (MCPB013), `serve_positive` under the serving crate
/// (MCPB016).
pub const FIXTURES: &[FixtureSpec] = &[
    FixtureSpec {
        name: "positive.rs",
        scan_path: "crates/fixture/src/lib.rs",
        kind: FixtureKind::Positive,
    },
    FixtureSpec {
        name: "solver_positive.rs",
        scan_path: "crates/drl/src/fixture.rs",
        kind: FixtureKind::Positive,
    },
    FixtureSpec {
        name: "det_positive.rs",
        scan_path: "crates/im/src/fixture.rs",
        kind: FixtureKind::Positive,
    },
    FixtureSpec {
        name: "hot_loop_positive.rs",
        scan_path: "crates/nn/src/fixture.rs",
        kind: FixtureKind::Positive,
    },
    FixtureSpec {
        name: "concurrency_positive.rs",
        scan_path: "crates/fixture/src/lib.rs",
        kind: FixtureKind::Positive,
    },
    FixtureSpec {
        name: "serve_positive.rs",
        scan_path: "crates/serve/src/fixture.rs",
        kind: FixtureKind::Positive,
    },
    FixtureSpec {
        name: "negative.rs",
        scan_path: "crates/fixture/src/lib.rs",
        kind: FixtureKind::Negative,
    },
];

/// `(line, rule)` pairs declared by `FIRE:` tags in fixture comments. A
/// line may carry several tags (`// FIRE:MCPB001 FIRE:MCPB008`) when one
/// expression trips several rules.
pub fn expected_findings(src: &str) -> BTreeSet<(usize, String)> {
    let mut expected = BTreeSet::new();
    for (i, line) in src.lines().enumerate() {
        for tag in line.split("FIRE:").skip(1) {
            let rule: String = tag
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            if !rule.is_empty() {
                expected.insert((i + 1, rule));
            }
        }
    }
    expected
}

/// Checks one fixture source against its spec. Returns the number of
/// expected findings (0 for negative fixtures) or a description of every
/// mismatch.
pub fn check_fixture(spec: &FixtureSpec, src: &str) -> Result<usize, String> {
    let file = SourceFile::parse(spec.scan_path, src);
    let actual: BTreeSet<(usize, String)> = scan_file(&file)
        .into_iter()
        .map(|f| (f.line, f.rule.to_string()))
        .collect();
    match spec.kind {
        FixtureKind::Negative => {
            if actual.is_empty() {
                Ok(0)
            } else {
                Err(format!(
                    "{}: negative fixture produced findings: {actual:?}",
                    spec.name
                ))
            }
        }
        FixtureKind::Positive => {
            let expected = expected_findings(src);
            if expected.is_empty() {
                return Err(format!("{}: positive fixture has no FIRE tags", spec.name));
            }
            let missed: Vec<_> = expected.difference(&actual).collect();
            let spurious: Vec<_> = actual.difference(&expected).collect();
            if !missed.is_empty() || !spurious.is_empty() {
                return Err(format!(
                    "{}: tagged but not flagged: {missed:?}; flagged but not tagged: {spurious:?}",
                    spec.name
                ));
            }
            Ok(expected.len())
        }
    }
}

/// Summary of a passing self-check.
#[derive(Debug)]
pub struct SelfCheckReport {
    /// Fixtures scanned.
    pub fixtures: usize,
    /// Total tagged findings matched exactly.
    pub tagged: usize,
}

impl fmt::Display for SelfCheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "self-check ok: {} fixtures, {} tagged findings matched exactly, all {} rules covered",
            self.fixtures,
            self.tagged,
            RULES.len()
        )
    }
}

/// Runs the full self-check against the fixtures under `root` (the
/// workspace root). Collects *all* failures before reporting.
pub fn self_check(root: &Path) -> Result<SelfCheckReport, String> {
    let dir = root.join("crates/audit/tests/fixtures");
    let mut errors = Vec::new();
    let mut tagged = 0;
    let mut fired: BTreeSet<String> = BTreeSet::new();
    for spec in FIXTURES {
        let path = dir.join(spec.name);
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                errors.push(format!("{}: read failed: {e}", path.display()));
                continue;
            }
        };
        match check_fixture(spec, &src) {
            Ok(n) => tagged += n,
            Err(e) => errors.push(e),
        }
        if spec.kind == FixtureKind::Positive {
            fired.extend(expected_findings(&src).into_iter().map(|(_, r)| r));
        }
    }
    for rule in RULES {
        if !fired.contains(rule.id) {
            errors.push(format!("no positive fixture case for {}", rule.id));
        }
    }
    if errors.is_empty() {
        Ok(SelfCheckReport {
            fixtures: FIXTURES.len(),
            tagged,
        })
    } else {
        Err(errors.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_parser_reads_multiple_tags_per_line() {
        let src = "let a = x.unwrap(); // FIRE:MCPB001 FIRE:MCPB008\nclean();\n";
        let tags = expected_findings(src);
        assert_eq!(tags.len(), 2);
        assert!(tags.contains(&(1, "MCPB001".into())));
        assert!(tags.contains(&(1, "MCPB008".into())));
    }

    #[test]
    fn check_fixture_catches_spurious_and_missing() {
        let spec = FixtureSpec {
            name: "inline",
            scan_path: "crates/fixture/src/lib.rs",
            kind: FixtureKind::Positive,
        };
        // Tagged line that does not fire → missed.
        let err = check_fixture(&spec, "let a = 1; // FIRE:MCPB001\n").unwrap_err();
        assert!(err.contains("tagged but not flagged"), "{err}");
        // Firing line with no tag → spurious.
        let err = check_fixture(
            &spec,
            "let a = x.unwrap(); // FIRE:MCPB001\nlet b = y.unwrap();\n",
        )
        .unwrap_err();
        assert!(err.contains("flagged but not tagged"), "{err}");
        // Exact match passes.
        let n = check_fixture(&spec, "let a = x.unwrap(); // FIRE:MCPB001\n").unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn negative_fixture_with_findings_fails() {
        let spec = FixtureSpec {
            name: "inline-neg",
            scan_path: "crates/fixture/src/lib.rs",
            kind: FixtureKind::Negative,
        };
        assert!(check_fixture(&spec, "let a = 1;\n").is_ok());
        assert!(check_fixture(&spec, "let a = x.unwrap();\n").is_err());
    }
}
