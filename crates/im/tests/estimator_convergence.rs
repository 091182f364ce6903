//! Estimator cross-validation: the RIS estimator and Monte-Carlo
//! simulation are two independent implementations of the same quantity
//! (expected IC spread); they must converge to each other under every
//! edge-weight model, for both diffusion models, and the error must shrink
//! as the sample size grows.

use mcpb_graph::weights::{assign_weights, WeightModel};
use mcpb_graph::{generators, Graph};
use mcpb_im::prelude::*;

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.max(1.0)
}

fn weighted(seed: u64, model: WeightModel) -> Graph {
    assign_weights(&generators::barabasi_albert(150, 3, seed), model, 7)
}

#[test]
fn ris_matches_mc_under_every_weight_model() {
    for model in [
        WeightModel::Constant,
        WeightModel::TriValency,
        WeightModel::WeightedCascade,
        WeightModel::Learned,
    ] {
        let g = weighted(3, model);
        let seeds = [0u32, 5, 9];
        let mc = influence_mc(&g, &seeds, 30_000, 11);
        let rr = sample_collection(&g, 30_000, 13);
        let ris = rr.estimate_spread(&seeds);
        assert!(rel_err(ris, mc) < 0.1, "{model}: RIS {ris} vs MC {mc}");
    }
}

#[test]
fn ris_error_shrinks_with_sample_size() {
    let g = weighted(5, WeightModel::WeightedCascade);
    let seeds = [1u32, 2, 3, 4];
    let truth = influence_mc(&g, &seeds, 60_000, 17);
    // Average absolute error over several independent collections, per
    // sample size — should decrease roughly like 1/sqrt(M).
    let err_at = |m: usize| -> f64 {
        (0..6u64)
            .map(|s| {
                let rr = sample_collection(&g, m, 100 + s);
                (rr.estimate_spread(&seeds) - truth).abs()
            })
            .sum::<f64>()
            / 6.0
    };
    let coarse = err_at(300);
    let fine = err_at(12_000);
    assert!(
        fine < coarse,
        "error should shrink with samples: {coarse} -> {fine}"
    );
}

#[test]
fn lt_ris_matches_lt_mc_on_wc_graphs() {
    let g = weighted(9, WeightModel::WeightedCascade);
    assert!(mcpb_im::lt::is_lt_compatible(&g));
    let seeds = [0u32, 7];
    let mc = influence_mc_lt(&g, &seeds, 30_000, 19);
    let rr = mcpb_im::lt::sample_collection_lt(&g, 30_000, 21);
    let ris = rr.estimate_spread(&seeds);
    assert!(rel_err(ris, mc) < 0.1, "LT RIS {ris} vs MC {mc}");
}

#[test]
fn all_ris_solvers_agree_on_strong_instances() {
    // A graph with unambiguous hubs: every RIS-based solver should find
    // seed sets of near-identical quality.
    let g = weighted(13, WeightModel::WeightedCascade);
    let k = 5;
    let scorer_rr = sample_collection(&g, 40_000, 23);
    let mut spreads = Vec::new();
    let (imm, _) = Imm::paper_default(1).run(&g, k);
    spreads.push(("IMM", scorer_rr.estimate_spread(&imm.seeds)));
    let (opim, _) = Opim::paper_default(1).run(&g, k);
    spreads.push(("OPIM", scorer_rr.estimate_spread(&opim.seeds)));
    let best = spreads.iter().map(|(_, s)| *s).fold(0.0f64, f64::max);
    for (name, s) in &spreads {
        assert!(
            *s >= 0.93 * best,
            "{name} at {s} lags the best RIS solver at {best}"
        );
    }
}
