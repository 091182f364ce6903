//! Golden-file tests for every rule, driven by the shared
//! [`mcpb_audit::selfcheck`] machinery: each positive fixture declares the
//! expected findings with `FIRE:<rule>` comment tags and is scanned under
//! a synthetic path chosen so its pack's path scope applies; negative
//! fixtures must scan clean. The fixtures directory is excluded from the
//! workspace walk, so these patterns never reach the committed baseline.
//!
//! On top of the exact-match check, this file keeps the scope-flip tests
//! (same source under a different path changes which rules fire) that the
//! CLI `--self-check` doesn't need.

use std::collections::BTreeSet;
use std::path::Path;

use mcpb_audit::rules::scan_file;
use mcpb_audit::selfcheck::{self, check_fixture, expected_findings, FixtureKind};
use mcpb_audit::source::SourceFile;
use mcpb_audit::walk::find_workspace_root;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn every_fixture_matches_its_tags_exactly() {
    for spec in selfcheck::FIXTURES {
        let src = fixture(spec.name);
        if let Err(e) = check_fixture(spec, &src) {
            panic!("{e}");
        }
        if spec.kind == FixtureKind::Positive {
            assert!(
                !expected_findings(&src).is_empty(),
                "{} lost its FIRE tags?",
                spec.name
            );
        }
    }
}

#[test]
fn self_check_runs_from_the_workspace_root() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let report = mcpb_audit::self_check(&root).expect("self-check");
    assert_eq!(report.fixtures, selfcheck::FIXTURES.len());
}

#[test]
fn positive_fixtures_cover_every_rule() {
    let mut fired: BTreeSet<String> = BTreeSet::new();
    for spec in selfcheck::FIXTURES {
        if spec.kind == FixtureKind::Positive {
            fired.extend(
                expected_findings(&fixture(spec.name))
                    .into_iter()
                    .map(|(_, r)| r),
            );
        }
    }
    for rule in mcpb_audit::rules::RULES {
        assert!(fired.contains(rule.id), "no positive case for {}", rule.id);
    }
}

#[test]
fn solver_fixture_out_of_scope_path_drops_mcpb008() {
    // The same source outside the solver crates must only fire the
    // non-path-scoped rules (here: MCPB001 on undocumented unwrap/expect).
    let src = fixture("solver_positive.rs");
    let file = SourceFile::parse("crates/graph/src/fixture.rs", &src);
    let rules: BTreeSet<&str> = scan_file(&file).into_iter().map(|f| f.rule).collect();
    assert!(rules.contains("MCPB001"), "{rules:?}");
    assert!(!rules.contains("MCPB008"), "{rules:?}");
}

#[test]
fn det_fixture_out_of_scope_path_downgrades_to_mcpb005() {
    // Outside the determinism-critical crates, hash iteration is the
    // milder MCPB005 and float reductions are not flagged at all.
    let src = fixture("det_positive.rs");
    let file = SourceFile::parse("crates/trace/src/fixture.rs", &src);
    let rules: BTreeSet<&str> = scan_file(&file).into_iter().map(|f| f.rule).collect();
    assert!(rules.contains("MCPB005"), "{rules:?}");
    assert!(!rules.contains("MCPB009"), "{rules:?}");
    assert!(!rules.contains("MCPB010"), "{rules:?}");
}

#[test]
fn hot_loop_fixture_out_of_scope_path_drops_mcpb013_keeps_mcpb014() {
    // MCPB013 is scoped to the hot-kernel paths; MCPB014 (Box<dyn> per
    // item) is global and must survive the path change.
    let src = fixture("hot_loop_positive.rs");
    let file = SourceFile::parse("crates/graph/src/fixture.rs", &src);
    let rules: BTreeSet<&str> = scan_file(&file).into_iter().map(|f| f.rule).collect();
    assert!(!rules.contains("MCPB013"), "{rules:?}");
    assert!(rules.contains("MCPB014"), "{rules:?}");
}

#[test]
fn test_path_exempts_the_whole_positive_fixture() {
    // The same anti-pattern soup under a tests/ path is fully exempt —
    // even inside a solver crate.
    for name in [
        "positive.rs",
        "solver_positive.rs",
        "det_positive.rs",
        "hot_loop_positive.rs",
        "concurrency_positive.rs",
    ] {
        for path in [
            "crates/fixture/tests/helpers.rs",
            "crates/drl/tests/helpers.rs",
        ] {
            let file = SourceFile::parse(path, &fixture(name));
            let findings = scan_file(&file);
            assert!(findings.is_empty(), "{name} under {path}: {findings:?}");
        }
    }
}

#[test]
fn unreferenced_fixture_declares_nothing_outside_a_crate_src() {
    // MCPB017 looks for declarations only under `crates/*/src`: the same
    // file as a test, a bench or the root package declares nothing.
    let src = fixture("unreferenced_positive.rs");
    for path in [
        "crates/fixture/tests/helpers.rs",
        "crates/fixture/benches/b.rs",
        "src/lib.rs",
    ] {
        let file = SourceFile::parse(path, &src);
        let findings = mcpb_audit::unreferenced::scan_workspace(std::slice::from_ref(&file));
        assert!(findings.is_empty(), "{path}: {findings:?}");
    }
}
