//! TIM+ (Tang, Xiao, Shi — SIGMOD 2014), the predecessor of IMM cited in
//! §7: two-phase RIS with a KPT (expected spread of a random size-k seed
//! set) estimation driving the sample size.
//!
//! Phase 1 estimates `KPT*` by measuring the *width* of random RR sets
//! (the number of in-edges touching the set): for a random RR set `R`,
//! `kappa(R) = 1 - (1 - w(R)/m)^k` is an unbiased estimator of the
//! probability that a random size-k set intersects `R`. Phase 2 samples
//! `theta = lambda / KPT` RR sets and greedily max-covers them.

use crate::imm::log_binomial;
use crate::rrset::{sample_rr_set, RrCollection};
use crate::solver::{ImSolution, ImSolver};
use mcpb_graph::{Graph, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Approximation slack.
const EPSILON: f64 = 0.5;
/// Failure-probability exponent (`1 - 1/n^ell`).
const ELL: f64 = 1.0;
/// Cap on RR sets.
const MAX_RR_SETS: usize = 2_000_000;

/// The TIM+ solver.
#[derive(Debug, Clone)]
pub struct TimPlus {
    /// RNG seed.
    pub seed: u64,
}

impl TimPlus {
    /// Creates TIM+ with a seed.
    pub fn with_seed(seed: u64) -> Self {
        Self { seed }
    }

    /// Width of an RR set: total in-degree of its members (the number of
    /// edges that could have led into the set).
    fn width(graph: &Graph, rr: &[NodeId]) -> usize {
        rr.iter().map(|&v| graph.in_degree(v)).sum()
    }

    /// Phase 1: KPT estimation (Algorithm 2 of the TIM paper).
    fn estimate_kpt(&self, graph: &Graph, k: usize) -> f64 {
        let n = graph.num_nodes() as f64;
        let m = graph.num_edges().max(1) as f64;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x71a1);
        let log2n = n.log2().max(1.0);
        for i in 1..(log2n as usize) {
            let ci = (6.0 * ELL * n.ln() + 6.0 * log2n.ln()) * 2f64.powi(i as i32);
            let ci = (ci.ceil() as usize).clamp(1, MAX_RR_SETS);
            let mut sum = 0.0f64;
            for _ in 0..ci {
                let rr = sample_rr_set(graph, &mut rng);
                let w = Self::width(graph, &rr) as f64;
                let kappa = 1.0 - (1.0 - w / m).powi(k as i32);
                sum += kappa;
            }
            if sum / ci as f64 > 1.0 / 2f64.powi(i as i32) {
                return n * sum / (2.0 * ci as f64);
            }
        }
        1.0
    }

    /// Runs TIM+: KPT estimation, then theta RR sets + greedy max cover.
    pub fn run(&self, graph: &Graph, k: usize) -> (ImSolution, RrCollection) {
        let n = graph.num_nodes();
        let mut rr = RrCollection::new(n);
        if n == 0 || k == 0 {
            return (ImSolution::seeds_only(Vec::new()), rr);
        }
        let k = k.min(n);
        let nf = n as f64;
        let kpt = self.estimate_kpt(graph, k).max(1.0);
        let eps = EPSILON;
        let lambda =
            (8.0 + 2.0 * eps) * nf * (ELL * nf.ln() + log_binomial(n, k) + 2f64.ln()) / (eps * eps);
        let theta = ((lambda / kpt).ceil() as usize).clamp(1, MAX_RR_SETS);
        rr.extend_to(graph, theta, self.seed);
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

impl ImSolver for TimPlus {
    fn name(&self) -> &str {
        "TIM+"
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
    fn finds_dominant_seed() {
        let edges: Vec<Edge> = (1..20).map(|v| Edge::new(0, v, 1.0)).collect();
        let g = Graph::from_edges(20, &edges).unwrap();
        let (sol, _) = TimPlus::with_seed(1).run(&g, 1);
        assert_eq!(sol.seeds, vec![0]);
    }

    #[test]
    fn quality_comparable_to_imm() {
        let g = assign_weights(
            &generators::barabasi_albert(150, 3, 4),
            WeightModel::WeightedCascade,
            0,
        );
        let (tim, _) = TimPlus::with_seed(2).run(&g, 5);
        let (imm, _) = Imm::paper_default(2).run(&g, 5);
        let tim_s = influence_mc(&g, &tim.seeds, 6_000, 1);
        let imm_s = influence_mc(&g, &imm.seeds, 6_000, 1);
        assert!(tim_s >= 0.9 * imm_s, "TIM+ {tim_s} vs IMM {imm_s}");
    }

    #[test]
    fn kpt_is_at_least_one_and_at_most_n() {
        let g = assign_weights(
            &generators::barabasi_albert(100, 2, 5),
            WeightModel::Constant,
            0,
        );
        let tim = TimPlus::with_seed(3);
        let kpt = tim.estimate_kpt(&g, 5);
        assert!((1.0..=100.0).contains(&kpt), "kpt {kpt}");
    }

    #[test]
    fn spread_estimate_tracks_mc() {
        let g = assign_weights(
            &generators::barabasi_albert(100, 3, 6),
            WeightModel::Constant,
            0,
        );
        let (sol, _) = TimPlus::with_seed(4).run(&g, 4);
        let mc = influence_mc(&g, &sol.seeds, 8_000, 2);
        let rel = (sol.spread_estimate - mc).abs() / mc.max(1.0);
        assert!(rel < 0.2, "tim {} vs mc {mc}", sol.spread_estimate);
    }

    #[test]
    fn trivial_inputs() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(TimPlus::with_seed(0).run(&g, 3).0.seeds.is_empty());
        let g = Graph::from_edges(2, &[Edge::new(0, 1, 0.4)]).unwrap();
        assert!(TimPlus::with_seed(0).run(&g, 0).0.seeds.is_empty());
    }
}
