//! Edge-weight models for Influence Maximization (§2.3): Tri-valency (TV),
//! Constant (CONST), Weighted Cascade (WC), and Learned (LND).
//!
//! The LND model requires historical action logs. The paper used the
//! Flixster/Twitter logs; we substitute a synthetic action-log generator
//! (cascades simulated under hidden ground-truth probabilities) and learn
//! weights back from the logs with the Credit Distribution model of
//! Goyal et al. (VLDB'11). The learning code path is identical — only the
//! log's provenance differs.

use crate::csr::{Graph, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// The four edge-weight models of §2.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WeightModel {
    /// Tri-valency: weights drawn uniformly from {0.001, 0.01, 0.1}.
    TriValency,
    /// Constant probability (paper uses 0.1).
    Constant,
    /// Weighted cascade: `p(u,v) = 1 / |N_in(v)|`.
    WeightedCascade,
    /// Learned from action logs via credit distribution.
    Learned,
}

impl WeightModel {
    /// The paper's abbreviation (TV / CONST / WC / LND).
    pub fn abbrev(self) -> &'static str {
        match self {
            WeightModel::TriValency => "TV",
            WeightModel::Constant => "CONST",
            WeightModel::WeightedCascade => "WC",
            WeightModel::Learned => "LND",
        }
    }

    /// All models, in the order the paper tabulates them.
    pub fn all() -> [WeightModel; 4] {
        [
            WeightModel::TriValency,
            WeightModel::Constant,
            WeightModel::WeightedCascade,
            WeightModel::Learned,
        ]
    }
}

impl std::fmt::Display for WeightModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// The constant probability used by [`WeightModel::Constant`].
pub const CONST_WEIGHT: f32 = 0.1;

/// Tri-valency candidate weights.
pub const TRI_VALENCY_WEIGHTS: [f32; 3] = [0.001, 0.01, 0.1];

/// Assigns influence probabilities to every edge of `g` under `model`.
///
/// For [`WeightModel::Learned`] a synthetic action log is generated from the
/// graph itself (see [`generate_action_log`]) and the credit-distribution
/// weights are learned from it.
pub fn assign_weights(g: &Graph, model: WeightModel, seed: u64) -> Graph {
    match model {
        WeightModel::Constant => g.reweighted(|_, _, _| CONST_WEIGHT),
        WeightModel::TriValency => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            g.reweighted(|_, _, _| TRI_VALENCY_WEIGHTS[rng.gen_range(0..3usize)])
        }
        WeightModel::WeightedCascade => g.reweighted(|_, v, _| {
            let d = g.in_degree(v);
            if d == 0 {
                0.0
            } else {
                1.0 / d as f32
            }
        }),
        WeightModel::Learned => {
            let log = generate_action_log(g, 200, seed);
            learn_credit_distribution(g, &log)
        }
    }
}

/// One user/action/time record of an action log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionRecord {
    /// Acting user.
    pub user: NodeId,
    /// Action (cascade) identifier.
    pub action: u32,
    /// Discrete activation time within the cascade.
    pub time: u32,
}

/// A complete action log: records sorted by `(action, time)`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ActionLog {
    /// Log records.
    pub records: Vec<ActionRecord>,
}

/// Simulates `num_actions` IC cascades under a hidden ground-truth model
/// (weighted cascade) and records activation times, producing the synthetic
/// stand-in for Flixster/Twitter action logs.
pub fn generate_action_log(g: &Graph, num_actions: u32, seed: u64) -> ActionLog {
    let truth = assign_weights(g, WeightModel::WeightedCascade, seed);
    let n = g.num_nodes();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed_1095);
    let mut records = Vec::new();
    if n == 0 {
        return ActionLog { records };
    }

    let mut active = vec![u32::MAX; n]; // activation time per node, MAX = inactive
    for action in 0..num_actions {
        active.fill(u32::MAX);
        let root = rng.gen_range(0..n) as NodeId;
        active[root as usize] = 0;
        records.push(ActionRecord {
            user: root,
            action,
            time: 0,
        });
        let mut frontier = vec![root];
        let mut t = 0u32;
        while !frontier.is_empty() {
            t += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                let nbrs = truth.out_neighbors(u);
                let ws = truth.out_weights(u);
                for (&v, &p) in nbrs.iter().zip(ws) {
                    if active[v as usize] == u32::MAX && rng.gen::<f32>() < p {
                        active[v as usize] = t;
                        records.push(ActionRecord {
                            user: v,
                            action,
                            time: t,
                        });
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
    }
    records.sort_by_key(|r| (r.action, r.time, r.user));
    ActionLog { records }
}

/// Learns edge probabilities from an action log with the Credit Distribution
/// model: `p(u, v) = A_{u->v} / A_u`, where `A_u` is the number of actions
/// `u` performed and `A_{u->v}` the number of actions `v` performed *after*
/// its in-neighbor `u` within the same cascade.
pub fn learn_credit_distribution(g: &Graph, log: &ActionLog) -> Graph {
    let mut actions_by_user: HashMap<NodeId, u32> = HashMap::new();
    // (action -> user -> time). BTreeMap: the propagation counting below
    // iterates these maps, and iteration order must be deterministic.
    let mut times: BTreeMap<u32, BTreeMap<NodeId, u32>> = BTreeMap::new();
    for r in &log.records {
        *actions_by_user.entry(r.user).or_insert(0) += 1;
        times.entry(r.action).or_default().insert(r.user, r.time);
    }

    let mut propagated: HashMap<(NodeId, NodeId), u32> = HashMap::new();
    for per_action in times.values() {
        for (&v, &tv) in per_action {
            for &u in g.in_neighbors(v) {
                if let Some(&tu) = per_action.get(&u) {
                    if tu < tv {
                        *propagated.entry((u, v)).or_insert(0) += 1;
                    }
                }
            }
        }
    }

    g.reweighted(|u, v, _| {
        let au = actions_by_user.get(&u).copied().unwrap_or(0);
        if au == 0 {
            return 0.0;
        }
        let a_uv = propagated.get(&(u, v)).copied().unwrap_or(0);
        (a_uv as f32 / au as f32).clamp(0.0, 1.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Edge;
    use crate::generators::barabasi_albert;

    fn path_graph() -> Graph {
        Graph::from_edges(
            3,
            &[
                Edge::unweighted(0, 1),
                Edge::unweighted(1, 2),
                Edge::unweighted(0, 2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn const_model_sets_point_one() {
        let g = assign_weights(&path_graph(), WeightModel::Constant, 0);
        for e in g.edges() {
            assert_eq!(e.weight, CONST_WEIGHT);
        }
    }

    #[test]
    fn tv_model_uses_only_three_values() {
        let g = assign_weights(&barabasi_albert(100, 2, 3), WeightModel::TriValency, 9);
        for e in g.edges() {
            assert!(
                TRI_VALENCY_WEIGHTS.contains(&e.weight),
                "unexpected weight {}",
                e.weight
            );
        }
        // All three values should appear on a few hundred edges.
        for target in TRI_VALENCY_WEIGHTS {
            assert!(g.edges().any(|e| e.weight == target));
        }
    }

    #[test]
    fn tv_model_is_deterministic_per_seed() {
        let base = barabasi_albert(50, 2, 3);
        let a = assign_weights(&base, WeightModel::TriValency, 1);
        let b = assign_weights(&base, WeightModel::TriValency, 1);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn wc_model_is_inverse_in_degree() {
        let g = assign_weights(&path_graph(), WeightModel::WeightedCascade, 0);
        // Node 2 has in-degree 2 -> incoming weights 0.5; node 1 in-degree 1 -> 1.0.
        assert_eq!(g.in_weights(2), &[0.5, 0.5]);
        assert_eq!(g.in_weights(1), &[1.0]);
    }

    #[test]
    fn wc_incoming_weights_sum_to_at_most_one() {
        let g = assign_weights(&barabasi_albert(80, 3, 4), WeightModel::WeightedCascade, 0);
        for v in g.nodes() {
            let s: f32 = g.in_weights(v).iter().sum();
            assert!(s <= 1.0 + 1e-4, "node {v} incoming sum {s}");
        }
    }

    #[test]
    fn action_log_is_causally_ordered() {
        let g = barabasi_albert(60, 2, 5);
        let log = generate_action_log(&g, 20, 7);
        assert!(log.records.iter().all(|r| r.action < 20));
        assert!(!log.records.is_empty());
        // Within an action, each non-root activation must have an earlier
        // in-neighbor activation.
        let mut per_action: HashMap<u32, HashMap<NodeId, u32>> = HashMap::new();
        for r in &log.records {
            per_action
                .entry(r.action)
                .or_default()
                .insert(r.user, r.time);
        }
        for times in per_action.values() {
            for (&v, &t) in times {
                if t == 0 {
                    continue;
                }
                let has_cause = g
                    .in_neighbors(v)
                    .iter()
                    .any(|u| times.get(u).is_some_and(|&tu| tu < t));
                assert!(has_cause, "node {v} activated at {t} without a cause");
            }
        }
    }

    #[test]
    fn credit_distribution_learns_valid_probabilities() {
        let g = barabasi_albert(60, 2, 5);
        let learned = assign_weights(&g, WeightModel::Learned, 7);
        let mut positive = 0usize;
        for e in learned.edges() {
            assert!((0.0..=1.0).contains(&e.weight));
            if e.weight > 0.0 {
                positive += 1;
            }
        }
        assert!(positive > 0, "learning should recover some influence");
    }

    #[test]
    fn credit_distribution_on_known_log() {
        // 0 -> 1. User 0 acts in actions {0, 1}; user 1 follows in action 0 only.
        let g = Graph::from_edges(2, &[Edge::unweighted(0, 1)]).unwrap();
        let log = ActionLog {
            records: vec![
                ActionRecord {
                    user: 0,
                    action: 0,
                    time: 0,
                },
                ActionRecord {
                    user: 1,
                    action: 0,
                    time: 1,
                },
                ActionRecord {
                    user: 0,
                    action: 1,
                    time: 0,
                },
            ],
        };
        let learned = learn_credit_distribution(&g, &log);
        assert!((learned.out_weights(0)[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn abbreviations_match_paper() {
        assert_eq!(WeightModel::TriValency.to_string(), "TV");
        assert_eq!(WeightModel::Constant.to_string(), "CONST");
        assert_eq!(WeightModel::WeightedCascade.to_string(), "WC");
        assert_eq!(WeightModel::Learned.to_string(), "LND");
        assert_eq!(WeightModel::all().len(), 4);
    }
}
