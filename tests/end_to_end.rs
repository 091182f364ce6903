//! End-to-end integration tests exercising the full pipeline through the
//! facade crate: catalog -> weighting -> solver registry -> common scorer
//! -> tables.

use mcp_benchmark::prelude::*;
use mcpb_bench::registry::{ImMethodKind, McpMethodKind};

#[test]
fn declarative_mcp_benchmark_runs_and_renders() {
    let mut spec = BenchmarkSpec::quick_mcp(&["Damascus", "Israel"], &[3, 8]);
    spec.mcp_methods = vec![
        McpMethodKind::NormalGreedy,
        McpMethodKind::LazyGreedy,
        McpMethodKind::TopDegree,
    ];
    let report = run_benchmark(&spec);
    // 2 datasets x 2 budgets x 3 methods.
    assert_eq!(report.records.len(), 12);
    let rendered = report.quality_table.render();
    assert!(rendered.contains("Damascus") && rendered.contains("Israel"));
    assert_eq!(report.rating.len(), 3);

    // Lazy Greedy ties Normal Greedy on quality in every cell.
    for r in report.records.iter().filter(|r| r.method == "LazyGreedy") {
        let ng = report
            .records
            .iter()
            .find(|x| x.method == "NormalGreedy" && x.dataset == r.dataset && x.budget == r.budget)
            .expect("normal greedy cell");
        assert!(
            (r.quality - ng.quality).abs() < 1e-9,
            "lazy {} vs normal {} on {}",
            r.quality,
            ng.quality,
            r.dataset
        );
    }
}

#[test]
fn declarative_im_benchmark_with_two_weight_models() {
    let mut spec = BenchmarkSpec::quick_im(
        &["Damascus"],
        &[5],
        &[WeightModel::Constant, WeightModel::WeightedCascade],
    );
    spec.im_methods = vec![
        ImMethodKind::Imm,
        ImMethodKind::DDiscount,
        ImMethodKind::SDiscount,
    ];
    let report = run_benchmark(&spec);
    assert_eq!(report.records.len(), 6);
    let models: std::collections::HashSet<_> = report
        .records
        .iter()
        .filter_map(|r| r.weight_model.clone())
        .collect();
    assert!(models.contains("CONST") && models.contains("WC"));
    // JSON export is parseable.
    let parsed: serde_json::Value = serde_json::from_str(&report.records_json()).unwrap();
    assert!(parsed.as_array().unwrap().len() == 6);
}

#[test]
fn catalog_pipeline_weights_and_scores() {
    // Full pipeline by hand: catalog -> weight model -> IMM -> common
    // scorer, checking internal consistency of the estimators.
    let ds = graph::catalog::by_name("Damascus").unwrap();
    let g = graph::weights::assign_weights(&ds.load(), WeightModel::Constant, 3);
    let (sol, rr) = im::Imm::paper_default(3).run(&g, 5);
    assert_eq!(sol.seeds.len(), 5);
    let scorer = bench::ImScorer::new(&g, 10_000, 17);
    let scored = scorer.spread(&sol.seeds);
    let rel = (scored - sol.spread_estimate).abs() / sol.spread_estimate.max(1.0);
    assert!(
        rel < 0.25,
        "independent estimators disagree: scorer {scored} vs imm {} ({} rr sets)",
        sol.spread_estimate,
        rr.len()
    );
}

#[test]
fn every_deep_rl_method_trains_through_registry() {
    use mcpb_bench::registry::{prepare_im, prepare_mcp, Scale};
    let train = graph::generators::barabasi_albert(150, 3, 5);
    for kind in [
        McpMethodKind::S2vDqn,
        McpMethodKind::Gcomb,
        McpMethodKind::Lense,
    ] {
        let prepared = prepare_mcp(kind, &train, Scale::Quick, 2);
        let report = prepared
            .train_report
            .expect("deep-rl methods report training");
        assert!(report.train_seconds > 0.0, "{}", kind.name());
        assert!(!report.checkpoints.is_empty(), "{}", kind.name());
    }
    let weighted = graph::weights::assign_weights(&train, WeightModel::Constant, 0);
    for kind in [
        ImMethodKind::Gcomb,
        ImMethodKind::Rl4Im,
        ImMethodKind::GeometricQn,
        ImMethodKind::Lense,
    ] {
        let prepared = prepare_im(kind, &weighted, WeightModel::Constant, Scale::Quick, 2);
        assert!(prepared.train_report.is_some(), "{}", kind.name());
    }
}

#[test]
fn experiment_drivers_smoke() {
    use mcpb_bench::experiments::{datasets, ExpConfig};
    let cfg = ExpConfig::quick();
    let rows = datasets::tab1_datasets(&cfg);
    assert_eq!(rows.len(), 8);
    let table = datasets::render(&rows);
    assert!(table.to_json().contains("Table 1"));
}
