//! OPIM-C (Tang, Tang, Xiao, Yuan — SIGMOD 2018): online processing for
//! influence maximization.
//!
//! Maintains two independent RR-set collections: `R1` drives greedy seed
//! selection and an *upper* bound on `OPT`; `R2` provides an unbiased
//! *lower* bound on the selected set's spread. Both collections double until
//! the ratio `lower / upper` certifies a `(1 - 1/e - eps)` approximation, so
//! users can stop anytime with a valid online guarantee.

use crate::imm::log_binomial;
use crate::rrset::RrCollection;
use crate::solver::{ImSolution, ImSolver};
use mcpb_graph::Graph;

/// OPIM-C parameters.
#[derive(Debug, Clone, Copy)]
pub struct OpimParams {
    /// RNG seed.
    pub seed: u64,
    /// Cap on RR sets per collection.
    pub max_rr_sets: usize,
}

impl Default for OpimParams {
    fn default() -> Self {
        Self {
            seed: 0,
            max_rr_sets: 2_000_000,
        }
    }
}

/// Approximation slack; the paper's benchmark sets 0.1.
const EPSILON: f64 = 0.1;
/// Overall failure probability `delta` (the paper uses `1/n`; we fix a
/// small constant so tiny graphs don't demand absurd sample sizes).
const DELTA: f64 = 0.01;

/// The OPIM-C solver.
#[derive(Debug, Clone)]
pub struct Opim {
    /// Parameters used on each `solve` call.
    pub params: OpimParams,
}

/// Approximation ratio target constant `1 - 1/e`.
const ONE_MINUS_INV_E: f64 = 1.0 - 1.0 / std::f64::consts::E;

impl Opim {
    /// Creates OPIM-C with the given parameters.
    pub fn new(params: OpimParams) -> Self {
        Self { params }
    }

    /// Creates OPIM-C with the paper's benchmark configuration (`eps = 0.1`).
    pub fn paper_default(seed: u64) -> Self {
        Self::new(OpimParams {
            seed,
            ..OpimParams::default()
        })
    }

    /// Runs OPIM-C; returns the solution and the achieved approximation
    /// guarantee (lower/upper bound ratio at termination).
    pub fn run(&self, graph: &Graph, k: usize) -> (ImSolution, f64) {
        let _span = mcpb_trace::span("im.opim");
        let n = graph.num_nodes();
        if n == 0 || k == 0 {
            return (ImSolution::seeds_only(Vec::new()), 0.0);
        }
        let k = k.min(n);
        let nf = n as f64;
        let eps = EPSILON;
        let target = ONE_MINUS_INV_E - eps;

        // theta_max from the OPIM paper (eq. for a (1-1/e-eps) guarantee
        // with spread at least k).
        let log_cnk = log_binomial(n, k);
        let delta = DELTA;
        let alpha = (-(delta / 2.0).ln()).sqrt();
        let beta = (ONE_MINUS_INV_E * (log_cnk - (delta / 2.0).ln())).sqrt();
        let theta_max = ((2.0 * nf * (ONE_MINUS_INV_E * alpha + beta).powi(2))
            / (eps * eps * k as f64))
            .ceil()
            .max(8.0) as usize;
        let theta_max = theta_max.min(self.params.max_rr_sets);
        let theta_0 = ((theta_max as f64 * eps * eps * k as f64 / nf).ceil() as usize).max(8);
        let i_max = ((theta_max as f64 / theta_0 as f64).log2().ceil() as usize).max(1);
        // Per-round failure budget.
        let delta_round = delta / (3.0 * i_max as f64);

        let mut r1 = RrCollection::new(n);
        let mut r2 = RrCollection::new(n);
        let mut theta = theta_0;
        let mut best: (Vec<u32>, f64) = (Vec::new(), 0.0);
        let mut guarantee = 0.0f64;

        for round in 0..=i_max {
            r1.extend_to(graph, theta, self.params.seed ^ 0xaaaa_aaaa);
            r2.extend_to(graph, theta, self.params.seed ^ 0x5555_5555);

            let (seeds, cov1) = r1.greedy_max_coverage(k);
            let cov2 = r2.coverage(&seeds);

            // Lower bound of I(S) from R2 (martingale concentration).
            let ln_inv = (1.0 / delta_round).ln();
            let cov2f = cov2 as f64;
            let lower_cov = ((cov2f + 2.0 * ln_inv / 9.0).sqrt() - (ln_inv / 2.0).sqrt()).powi(2)
                - ln_inv / 18.0;
            let lower = lower_cov.max(0.0) * nf / r2.len().max(1) as f64;

            // Upper bound of OPT from R1: greedy coverage / (1 - 1/e) upper
            // bounds the optimal coverage; apply the upward concentration.
            let opt_cov_ub = cov1 as f64 / ONE_MINUS_INV_E;
            let upper_cov = ((opt_cov_ub + ln_inv / 2.0).sqrt() + (ln_inv / 2.0).sqrt()).powi(2);
            let upper = upper_cov * nf / r1.len().max(1) as f64;

            // Later rounds hold strictly larger collections, so their
            // estimate supersedes earlier ones; keeping a max over rounds
            // would be upward-biased by early small-sample noise.
            best = (seeds, nf * cov2f / r2.len().max(1) as f64);
            guarantee = if upper > 0.0 {
                (lower / upper).min(1.0)
            } else {
                0.0
            };
            if guarantee >= target || round == i_max || theta >= theta_max {
                break;
            }
            theta = (theta * 2).min(theta_max);
        }

        (
            ImSolution {
                seeds: best.0,
                spread_estimate: best.1,
            },
            guarantee,
        )
    }
}

impl ImSolver for Opim {
    fn name(&self) -> &str {
        "OPIM"
    }

    fn solve(&mut self, graph: &Graph, k: usize) -> ImSolution {
        self.run(graph, k).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::influence_mc;
    use crate::imm::Imm;
    use mcpb_graph::weights::{assign_weights, WeightModel};
    use mcpb_graph::{generators, Edge};

    #[test]
    fn opim_finds_dominant_seed() {
        let edges: Vec<Edge> = (1..15).map(|v| Edge::new(0, v, 1.0)).collect();
        let g = Graph::from_edges(15, &edges).unwrap();
        let (sol, guarantee) = Opim::paper_default(1).run(&g, 1);
        assert_eq!(sol.seeds, vec![0]);
        assert!(guarantee > 0.0);
    }

    #[test]
    fn opim_matches_imm_quality_within_tolerance() {
        let g = assign_weights(
            &generators::barabasi_albert(150, 3, 2),
            WeightModel::WeightedCascade,
            0,
        );
        let (imm_sol, _) = Imm::paper_default(3).run(&g, 5);
        let (opim_sol, _) = Opim::paper_default(3).run(&g, 5);
        let imm_spread = influence_mc(&g, &imm_sol.seeds, 8_000, 1);
        let opim_spread = influence_mc(&g, &opim_sol.seeds, 8_000, 1);
        assert!(
            opim_spread >= 0.85 * imm_spread,
            "opim {opim_spread} vs imm {imm_spread}"
        );
    }

    #[test]
    fn guarantee_reaches_target_on_easy_instance() {
        let g = assign_weights(
            &generators::barabasi_albert(100, 3, 4),
            WeightModel::Constant,
            0,
        );
        let (sol, guarantee) = Opim::paper_default(5).run(&g, 3);
        assert_eq!(sol.seeds.len(), 3);
        assert!(
            guarantee >= 1.0 - 1.0 / std::f64::consts::E - 0.1 - 0.05,
            "guarantee {guarantee}"
        );
    }

    #[test]
    fn spread_estimate_is_unbiased_wrt_mc() {
        let g = assign_weights(
            &generators::barabasi_albert(120, 2, 6),
            WeightModel::Constant,
            0,
        );
        let (sol, _) = Opim::paper_default(8).run(&g, 4);
        let mc = influence_mc(&g, &sol.seeds, 10_000, 2);
        let rel = (sol.spread_estimate - mc).abs() / mc.max(1.0);
        assert!(rel < 0.15, "opim est {} vs mc {mc}", sol.spread_estimate);
    }

    #[test]
    fn trivial_inputs() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let (sol, _) = Opim::paper_default(0).run(&g, 2);
        assert!(sol.seeds.is_empty());
        let g = Graph::from_edges(4, &[Edge::new(0, 1, 0.3)]).unwrap();
        let (sol, _) = Opim::paper_default(0).run(&g, 0);
        assert!(sol.seeds.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = assign_weights(
            &generators::barabasi_albert(60, 2, 8),
            WeightModel::Constant,
            0,
        );
        let a = Opim::paper_default(4).run(&g, 3).0;
        let b = Opim::paper_default(4).run(&g, 3).0;
        assert_eq!(a.seeds, b.seeds);
    }
}
