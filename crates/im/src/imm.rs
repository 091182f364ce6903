//! IMM (Tang, Shi, Xiao — SIGMOD 2015): influence maximization in
//! near-linear time via martingale analysis.
//!
//! Two phases: (1) *sampling* estimates a lower bound `LB` on `OPT` by
//! geometrically shrinking a guess `x` until a greedy cover over the current
//! RR sets certifies `OPT >= x / (1 + eps')`; (2) *node selection* samples
//! `theta = lambda* / LB` RR sets and runs greedy max coverage, yielding a
//! `(1 - 1/e - eps)`-approximation with probability `1 - 1/n^ell`.

use crate::rrset::RrCollection;
use crate::solver::{ImSolution, ImSolver};
use mcpb_graph::Graph;

/// IMM parameters. The paper's benchmark sets `epsilon = 0.5`.
#[derive(Debug, Clone, Copy)]
pub struct ImmParams {
    /// Approximation slack `eps` in the `(1 - 1/e - eps)` guarantee.
    pub epsilon: f64,
    /// RNG seed for RR-set sampling.
    pub seed: u64,
}

impl Default for ImmParams {
    fn default() -> Self {
        Self {
            epsilon: 0.5,
            seed: 0,
        }
    }
}

/// Failure-probability exponent: the guarantee holds w.p. `1 - 1/n^ell`.
const ELL: f64 = 1.0;
/// Hard cap on the number of RR sets (guards atypical instances where
/// theta explodes; the paper observes exactly this blow-up in the
/// "influence spread insensitive to budget" cases).
const MAX_RR_SETS: usize = 4_000_000;

/// The IMM solver.
#[derive(Debug, Clone)]
pub struct Imm {
    /// Parameters used on each `solve` call.
    pub params: ImmParams,
}

impl Imm {
    /// Creates IMM with the given parameters.
    pub fn new(params: ImmParams) -> Self {
        Self { params }
    }

    /// Creates IMM with the paper's benchmark configuration (`eps = 0.5`).
    pub fn paper_default(seed: u64) -> Self {
        Self::new(ImmParams {
            seed,
            ..ImmParams::default()
        })
    }

    /// Runs IMM, returning the seed set, its spread estimate, and the RR
    /// collection used for selection (callers reuse it for scoring).
    pub fn run(&self, graph: &Graph, k: usize) -> (ImSolution, RrCollection) {
        let _span = mcpb_trace::span("im.imm");
        let n = graph.num_nodes();
        let mut rr = RrCollection::new(n);
        if n == 0 || k == 0 {
            return (ImSolution::seeds_only(Vec::new()), rr);
        }
        let k = k.min(n);
        let nf = n as f64;
        let eps = self.params.epsilon;
        // Adjust ell so the union bound over the sampling phase holds
        // (IMM paper, §4.2: ell' = ell * (1 + log 2 / log n)).
        let ell = ELL * (1.0 + 2f64.ln() / nf.ln().max(1.0));
        let log_cnk = log_binomial(n, k);

        // Phase 1: estimate a lower bound of OPT.
        let eps_prime = (2.0f64).sqrt() * eps;
        let lambda_prime = (2.0 + 2.0 * eps_prime / 3.0)
            * (log_cnk + ell * nf.ln() + (nf.log2().max(1.0)).ln())
            * nf
            / (eps_prime * eps_prime);
        let mut lb = 1.0f64;
        let max_i = (nf.log2().ceil() as usize).saturating_sub(1).max(1);
        for i in 1..=max_i {
            let x = nf / 2f64.powi(i as i32);
            let theta_i = ((lambda_prime / x).ceil() as usize).min(MAX_RR_SETS);
            rr.extend_to(graph, theta_i, self.params.seed);
            let (_, covered) = rr.greedy_max_coverage(k);
            let frac = covered as f64 / rr.len().max(1) as f64;
            if nf * frac >= (1.0 + eps_prime) * x {
                lb = nf * frac / (1.0 + eps_prime);
                break;
            }
            if rr.len() >= MAX_RR_SETS {
                lb = (nf * frac / (1.0 + eps_prime)).max(1.0);
                break;
            }
        }

        // Phase 2: sample theta = lambda* / LB sets and select greedily.
        let alpha = (ell * nf.ln() + 2f64.ln()).sqrt();
        let beta =
            ((1.0 - 1.0 / std::f64::consts::E) * (log_cnk + ell * nf.ln() + 2f64.ln())).sqrt();
        let lambda_star =
            2.0 * nf * ((1.0 - 1.0 / std::f64::consts::E) * alpha + beta).powi(2) / (eps * eps);
        let theta = ((lambda_star / lb).ceil() as usize).clamp(1, MAX_RR_SETS);
        rr.extend_to(graph, theta, self.params.seed);
        let (seeds, covered) = rr.greedy_max_coverage(k);
        let spread = nf * covered as f64 / rr.len().max(1) as f64;
        (
            ImSolution {
                seeds,
                spread_estimate: spread,
            },
            rr,
        )
    }
}

impl ImSolver for Imm {
    fn name(&self) -> &str {
        "IMM"
    }

    fn solve(&mut self, graph: &Graph, k: usize) -> ImSolution {
        self.run(graph, k).0
    }
}

/// `ln C(n, k)` computed stably via ln-gamma-style summation.
pub fn log_binomial(n: usize, k: usize) -> f64 {
    let k = k.min(n);
    let k = k.min(n - k);
    let mut acc = 0.0f64;
    for i in 0..k {
        acc += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::influence_mc;
    use mcpb_graph::weights::{assign_weights, WeightModel};
    use mcpb_graph::{generators, Edge};

    #[test]
    fn log_binomial_matches_small_cases() {
        assert!((log_binomial(5, 2) - 10f64.ln()).abs() < 1e-9);
        assert!((log_binomial(10, 0)).abs() < 1e-12);
        assert!((log_binomial(10, 10)).abs() < 1e-12);
        // Symmetric.
        assert!((log_binomial(20, 3) - log_binomial(20, 17)).abs() < 1e-9);
    }

    #[test]
    fn imm_finds_dominant_seed() {
        // Star with probability-1 edges: node 0 is the unique best seed.
        let edges: Vec<Edge> = (1..20).map(|v| Edge::new(0, v, 1.0)).collect();
        let g = Graph::from_edges(20, &edges).unwrap();
        let (sol, _) = Imm::paper_default(1).run(&g, 1);
        assert_eq!(sol.seeds, vec![0]);
        assert!((sol.spread_estimate - 20.0).abs() < 1.0);
    }

    #[test]
    fn imm_spread_close_to_mc_on_random_graph() {
        let g = assign_weights(
            &generators::barabasi_albert(150, 3, 3),
            WeightModel::WeightedCascade,
            0,
        );
        let (sol, _) = Imm::paper_default(7).run(&g, 5);
        assert_eq!(sol.seeds.len(), 5);
        let mc = influence_mc(&g, &sol.seeds, 10_000, 5);
        let rel = (sol.spread_estimate - mc).abs() / mc.max(1.0);
        assert!(rel < 0.15, "imm {} vs mc {mc}", sol.spread_estimate);
    }

    #[test]
    fn imm_beats_random_seeds() {
        let g = assign_weights(
            &generators::barabasi_albert(200, 3, 9),
            WeightModel::Constant,
            0,
        );
        let (sol, _) = Imm::paper_default(2).run(&g, 10);
        let imm_spread = influence_mc(&g, &sol.seeds, 5_000, 1);
        let random: Vec<u32> = (100..110).collect();
        let rnd_spread = influence_mc(&g, &random, 5_000, 1);
        assert!(
            imm_spread >= rnd_spread,
            "imm {imm_spread} vs random {rnd_spread}"
        );
    }

    #[test]
    fn zero_budget_and_empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let (sol, _) = Imm::paper_default(0).run(&g, 3);
        assert!(sol.seeds.is_empty());
        let g = Graph::from_edges(3, &[Edge::new(0, 1, 0.5)]).unwrap();
        let (sol, _) = Imm::paper_default(0).run(&g, 0);
        assert!(sol.seeds.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = assign_weights(
            &generators::barabasi_albert(80, 2, 5),
            WeightModel::Constant,
            0,
        );
        let a = Imm::paper_default(3).run(&g, 4).0;
        let b = Imm::paper_default(3).run(&g, 4).0;
        assert_eq!(a.seeds, b.seeds);
    }
}
