//! §5.1 graph-distribution study: Table 4 (Spearman correlation of graph
//! metrics with the coverage gap), Table 5 (edge-weight-model transfer),
//! and Table 6 (cost of advanced similarity metrics vs an OPIM query).

use super::ExpConfig;
use crate::instrument::run_measured;
use crate::registry::{prepare_im, prepare_mcp, ImMethodKind, McpMethodKind};
use crate::results::{fmt_f, Table};
use crate::scorer::{ImScorer, McpScorer};
use mcpb_graph::catalog;
use mcpb_graph::louvain::{community_profile_distance, louvain};
use mcpb_graph::pagerank::{pagerank, pagerank_profile_distance};
use mcpb_graph::spearman::spearman;
use mcpb_graph::stats;
use mcpb_graph::weights::{assign_weights, WeightModel};
use mcpb_graph::wl::wl_kernel;
use mcpb_graph::Graph;
use mcpb_im::imm::Imm;
use mcpb_im::opim::Opim;
use mcpb_mcp::greedy::LazyGreedy;

/// The metric names of Table 4, in row order.
pub const TAB4_METRICS: [&str; 15] = [
    "|V|",
    "|E|",
    "Density",
    "Clust. coe.",
    "Triang. (%)",
    "Diameter",
    "Eff. diameter",
    "Isolated (%)",
    "VCI (%)",
    "Sum10 (%)",
    "weighted degree",
    "edge weight",
    "Community Structure",
    "WL kernel",
    "PageRank",
];

/// One Table 4 column: per-metric Spearman coefficients for one method
/// under one setting.
#[derive(Debug, Clone)]
pub struct CorrelationColumn {
    /// Setting label ("MCP", "CONST", "TV", "WC").
    pub setting: String,
    /// Method name.
    pub method: String,
    /// One coefficient per [`TAB4_METRICS`] entry (NaN -> 0).
    pub coefficients: Vec<f64>,
}

fn metric_vector(g: &Graph, train: &Graph, quick: bool, seed: u64) -> Vec<f64> {
    let s = stats::graph_stats(g, if quick { 8 } else { 24 }, seed);
    let train_part = louvain(train, 3);
    let part = louvain(g, 3);
    let comm_dist = community_profile_distance(&part, &train_part, 8);
    let wl = wl_kernel(g, train, 2);
    let pr_g = pagerank(g);
    let pr_t = pagerank(train);
    let pr_dist = pagerank_profile_distance(&pr_g, &pr_t, 32);
    vec![
        s.nodes as f64,
        s.edges as f64,
        s.density,
        s.clustering_coefficient,
        s.triangle_fraction_pct,
        s.diameter as f64,
        s.effective_diameter,
        s.isolated_pct,
        s.vci_pct,
        s.sum10_pct,
        stats::average_weighted_degree(g),
        stats::average_edge_weight(g),
        // Similarity metrics enter as *similarity to the training graph*:
        // negate distances so larger = more similar, matching the paper's
        // orientation (high similarity should predict small gap).
        -comm_dist,
        wl,
        -pr_dist,
    ]
}

/// Table 4: Spearman correlation of every metric with the coverage gap of
/// each Deep-RL method, for MCP and each IM weight model.
pub fn tab4_correlation(cfg: &ExpConfig) -> Vec<CorrelationColumn> {
    let mut columns = Vec::new();
    let quick = cfg.is_quick();
    let dataset_pool: Vec<_> = catalog::im_datasets()
        .into_iter()
        .map(|d| cfg.scaled(d))
        .collect();
    let datasets = cfg.take(&dataset_pool, 4, 7);
    let budget = if quick { 5 } else { 50 };

    // MCP setting.
    {
        let train = cfg.mcp_train_graph();
        let methods = [
            McpMethodKind::Lense,
            McpMethodKind::Gcomb,
            McpMethodKind::S2vDqn,
        ];
        let mut metric_rows: Vec<Vec<f64>> = Vec::new();
        let mut gaps: Vec<Vec<f64>> = vec![Vec::new(); methods.len()];
        let mut solvers: Vec<_> = methods
            .iter()
            .map(|&m| prepare_mcp(m, &train, cfg.scale, cfg.seed))
            .collect();
        for ds in &datasets {
            let g = ds.load();
            metric_rows.push(metric_vector(&g, &train, quick, cfg.seed));
            let opt = LazyGreedy::run(&g, budget).coverage.max(1e-9);
            let scorer = McpScorer;
            for (i, solver) in solvers.iter_mut().enumerate() {
                let sol = solver.solve(&g, budget);
                let score = scorer.score(&g, &sol.seeds);
                gaps[i].push((score - opt) / opt);
            }
        }
        for (i, &m) in methods.iter().enumerate() {
            columns.push(correlate("MCP", m.name(), &metric_rows, &gaps[i]));
        }
    }

    // IM settings.
    let weight_models = if quick {
        vec![WeightModel::Constant]
    } else {
        vec![
            WeightModel::Constant,
            WeightModel::TriValency,
            WeightModel::WeightedCascade,
        ]
    };
    for wm in weight_models {
        let train = assign_weights(&cfg.im_train_graph(), wm, cfg.seed);
        let methods = [
            ImMethodKind::Lense,
            ImMethodKind::Gcomb,
            ImMethodKind::Rl4Im,
        ];
        let mut metric_rows: Vec<Vec<f64>> = Vec::new();
        let mut gaps: Vec<Vec<f64>> = vec![Vec::new(); methods.len()];
        let mut solvers: Vec<_> = methods
            .iter()
            .map(|&m| prepare_im(m, &train, wm, cfg.scale, cfg.seed))
            .collect();
        for ds in &datasets {
            let g = assign_weights(&ds.load(), wm, cfg.seed ^ ds.seed);
            metric_rows.push(metric_vector(&g, &train, quick, cfg.seed));
            let scorer = ImScorer::new(&g, if quick { 1_000 } else { 5_000 }, cfg.seed);
            let (imm_sol, _) = Imm::paper_default(cfg.seed).run(&g, budget);
            let opt = scorer.normalized(&imm_sol.seeds).max(1e-9);
            for (i, solver) in solvers.iter_mut().enumerate() {
                let sol = solver.solve(&g, budget);
                let score = scorer.normalized(&sol.seeds);
                gaps[i].push((score - opt) / opt);
            }
        }
        for (i, &m) in methods.iter().enumerate() {
            columns.push(correlate(wm.abbrev(), m.name(), &metric_rows, &gaps[i]));
        }
    }
    columns
}

fn correlate(
    setting: &str,
    method: &str,
    metric_rows: &[Vec<f64>],
    gaps: &[f64],
) -> CorrelationColumn {
    let coefficients = (0..TAB4_METRICS.len())
        .map(|mi| {
            let xs: Vec<f64> = metric_rows.iter().map(|r| r[mi]).collect();
            let rho = spearman(&xs, gaps);
            if rho.is_finite() {
                rho
            } else {
                0.0
            }
        })
        .collect();
    CorrelationColumn {
        setting: setting.to_string(),
        method: method.to_string(),
        coefficients,
    }
}

/// Renders Table 4 (metrics as rows, method columns grouped by setting).
pub fn render_tab4(columns: &[CorrelationColumn]) -> Table {
    let mut headers = vec!["Metric".to_string()];
    headers.extend(
        columns
            .iter()
            .map(|c| format!("{}:{}", c.setting, c.method)),
    );
    let refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Table 4",
        "Spearman correlation of graph metrics with coverage gap",
        &refs,
    );
    for (mi, name) in TAB4_METRICS.iter().enumerate() {
        let mut row = vec![name.to_string()];
        row.extend(columns.iter().map(|c| fmt_f(c.coefficients[mi])));
        t.push_row(row);
    }
    t
}

/// One Table 5 cell: percentage change when testing a CONST-trained model
/// under weight model `model`.
#[derive(Debug, Clone)]
pub struct TransferCell {
    /// Dataset name.
    pub dataset: String,
    /// Target weight model (TV or WC).
    pub model: String,
    /// Method name.
    pub method: String,
    /// `p = (F_M(G_M) - F_CO(G_M)) / F_M(G_M)` in percent.
    pub pct_change: f64,
}

/// Table 5: edge-weight-model transfer of GCOMB / RL4IM / LeNSE.
pub fn tab5_weight_transfer(cfg: &ExpConfig) -> Vec<TransferCell> {
    let names = ["BrightKite", "Amazon", "DBLP", "WikiTalk", "Youtube"];
    let datasets: Vec<_> = names
        .iter()
        .filter_map(|n| catalog::by_name(n))
        .map(|d| cfg.scaled(d))
        .collect();
    let datasets = cfg.take(&datasets, 2, datasets.len());
    let budget = if cfg.is_quick() { 10 } else { 50 };
    let methods = [
        ImMethodKind::Gcomb,
        ImMethodKind::Rl4Im,
        ImMethodKind::Lense,
    ];
    let targets = [WeightModel::TriValency, WeightModel::WeightedCascade];
    let mut cells = Vec::new();

    // Train once under CONST (the baseline papers' setting).
    let const_train = assign_weights(&cfg.im_train_graph(), WeightModel::Constant, cfg.seed);
    let mut const_models: Vec<_> = methods
        .iter()
        .map(|&m| prepare_im(m, &const_train, WeightModel::Constant, cfg.scale, cfg.seed))
        .collect();
    for &target in &targets {
        // Matched-training models.
        let target_train = assign_weights(&cfg.im_train_graph(), target, cfg.seed);
        let mut matched: Vec<_> = methods
            .iter()
            .map(|&m| prepare_im(m, &target_train, target, cfg.scale, cfg.seed))
            .collect();
        for ds in &datasets {
            let g = assign_weights(&ds.load(), target, cfg.seed ^ ds.seed);
            let scorer = ImScorer::new(&g, if cfg.is_quick() { 1_000 } else { 5_000 }, cfg.seed);
            for (i, &m) in methods.iter().enumerate() {
                let f_m = scorer.normalized(&matched[i].solve(&g, budget).seeds);
                let f_co = scorer.normalized(&const_models[i].solve(&g, budget).seeds);
                let pct = if f_m.abs() < 1e-12 {
                    0.0
                } else {
                    (f_m - f_co) / f_m * 100.0
                };
                cells.push(TransferCell {
                    dataset: ds.name.to_string(),
                    model: target.abbrev().to_string(),
                    method: m.name().to_string(),
                    pct_change: pct,
                });
            }
        }
    }
    cells
}

/// Renders Table 5.
pub fn render_tab5(cells: &[TransferCell]) -> Table {
    let mut t = Table::new(
        "Table 5",
        "Percentage change of performance (CONST-trained vs matched-trained)",
        &["Dataset", "Model", "Method", "Change(%)"],
    );
    for c in cells {
        t.push_row(vec![
            c.dataset.clone(),
            c.model.clone(),
            c.method.clone(),
            fmt_f(c.pct_change),
        ]);
    }
    t
}

/// One Table 6 cell: metric cost as a multiple of one OPIM query.
#[derive(Debug, Clone)]
pub struct SimilarityCostCell {
    /// Dataset name.
    pub dataset: String,
    /// Weight model.
    pub model: String,
    /// Metric name ("Community", "WL Kernel", "PageRank").
    pub metric: String,
    /// `metric_time / opim_time`.
    pub ratio: f64,
}

/// Table 6: execution-time ratio of similarity metrics to an OPIM query.
pub fn tab6_similarity_cost(cfg: &ExpConfig) -> Vec<SimilarityCostCell> {
    let names = ["DBLP", "WikiTalk"];
    let datasets: Vec<_> = names
        .iter()
        .filter_map(|n| catalog::by_name(n))
        .map(|d| cfg.scaled(d))
        .collect();
    let datasets = cfg.take(&datasets, 1, datasets.len());
    let models = if cfg.is_quick() {
        vec![WeightModel::Constant]
    } else {
        vec![
            WeightModel::Constant,
            WeightModel::TriValency,
            WeightModel::WeightedCascade,
        ]
    };
    let k = if cfg.is_quick() { 20 } else { 200 };
    let mut cells = Vec::new();
    for ds in &datasets {
        for &wm in &models {
            let g = assign_weights(&ds.load(), wm, cfg.seed);
            let (_, opim_m) = run_measured(|| Opim::paper_default(cfg.seed).run(&g, k));
            let opim_t = opim_m.seconds.max(1e-9);
            let (_, m) = run_measured(|| louvain(&g, 4));
            cells.push(SimilarityCostCell {
                dataset: ds.name.to_string(),
                model: wm.abbrev().to_string(),
                metric: "Community".into(),
                ratio: m.seconds / opim_t,
            });
            let (_, m) = run_measured(|| mcpb_graph::wl::wl_features(&g, 3));
            cells.push(SimilarityCostCell {
                dataset: ds.name.to_string(),
                model: wm.abbrev().to_string(),
                metric: "WL Kernel".into(),
                ratio: m.seconds / opim_t,
            });
            let (_, m) = run_measured(|| pagerank(&g));
            cells.push(SimilarityCostCell {
                dataset: ds.name.to_string(),
                model: wm.abbrev().to_string(),
                metric: "PageRank".into(),
                ratio: m.seconds / opim_t,
            });
        }
    }
    cells
}

/// Renders Table 6.
pub fn render_tab6(cells: &[SimilarityCostCell]) -> Table {
    let mut t = Table::new(
        "Table 6",
        "Execution-time ratio: similarity metric / OPIM query",
        &["Dataset", "Model", "Metric", "Ratio"],
    );
    for c in cells {
        t.push_row(vec![
            c.dataset.clone(),
            c.model.clone(),
            c.metric.clone(),
            fmt_f(c.ratio),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab4_columns_are_bounded() {
        let cols = tab4_correlation(&ExpConfig::quick());
        // MCP x3 + CONST x3.
        assert_eq!(cols.len(), 6);
        for c in &cols {
            assert_eq!(c.coefficients.len(), TAB4_METRICS.len());
            for &rho in &c.coefficients {
                assert!((-1.0..=1.0).contains(&rho), "{}: {rho}", c.method);
            }
        }
        let t = render_tab4(&cols);
        assert!(t.render().contains("Community Structure"));
    }

    #[test]
    fn tab5_transfer_cells_cover_grid() {
        let cells = tab5_weight_transfer(&ExpConfig::quick());
        // 2 datasets x 2 target models x 3 methods.
        assert_eq!(cells.len(), 12);
        for c in &cells {
            assert!(c.pct_change.is_finite());
            assert!(c.pct_change.abs() <= 100.0 + 1e-9);
        }
        assert!(render_tab5(&cells).rows.len() == 12);
    }

    #[test]
    fn tab6_metrics_cost_more_than_nothing() {
        let cells = tab6_similarity_cost(&ExpConfig::quick());
        assert_eq!(cells.len(), 3);
        for c in &cells {
            assert!(c.ratio >= 0.0 && c.ratio.is_finite());
        }
        assert!(render_tab6(&cells).render().contains("PageRank"));
    }
}
