//! Geometric-QN (Kamarthi et al., AAMAS 2020): influence maximization in
//! *unknown* networks via learned graph exploration (§3.2).
//!
//! The agent starts from a random node, sees only the subgraph discovered
//! so far, and repeatedly picks a discovered node to random-walk from,
//! revealing more of the graph. Node features come from DeepWalk on the
//! *discovered* subgraph, encoded by a GCN; a DQN scores which node to
//! expand. After the exploration budget, seeds are selected from the
//! discovered subgraph with a degree-discount heuristic. Exploration
//! starts randomly, which is exactly why the paper observes high variance
//! (§4.3 repeats each query 20 times).

use crate::common::{
    evaluate_seeds, objective, train_loop, EpisodeStats, Learner, LoopSpec, Task, TrainHooks,
    TrainReport, TrainScope,
};
use mcpb_gnn::adjacency::gcn_normalized;
use mcpb_gnn::deepwalk::{self, deepwalk_features};
use mcpb_gnn::gcn::GcnEncoder;
use mcpb_graph::{Graph, NodeId};
use mcpb_im::discount::DegreeDiscount;
use mcpb_im::solver::{ImSolution, ImSolver};
use mcpb_nn::prelude::*;
use mcpb_rl::dqn::{DqnAgent, DqnConfig, Transition};
use mcpb_rl::replay::ReplayBuffer;
use mcpb_rl::schedule::EpsilonSchedule;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Geometric-QN hyper-parameters, CPU-scaled.
#[derive(Debug, Clone, Copy)]
pub struct GeometricQnConfig {
    /// Exploration steps (node expansions) per query.
    pub explore_steps: usize,
    /// Training episodes.
    pub episodes: usize,
    /// Budget used during training episodes.
    pub train_budget: usize,
    /// Validate every this many episodes.
    pub validate_every: usize,
    /// Task.
    pub task: Task,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeometricQnConfig {
    fn default() -> Self {
        Self {
            explore_steps: 10,
            episodes: 20,
            train_budget: 3,
            validate_every: 5,
            task: Task::Im { rr_sets: 300 },
            seed: 0,
        }
    }
}

/// The trained Geometric-QN model.
pub struct GeometricQn {
    cfg: GeometricQnConfig,
    store: ParamStore,
    encoder: GcnEncoder,
    agent: DqnAgent,
    rng: ChaCha8Rng,
}

const STATE_DIM: usize = 3;
/// GCN embedding dimension.
const EMBED_DIM: usize = 8;
/// Random-walk length per expansion.
const WALK_LENGTH: usize = 8;
/// Adam learning rate.
const LR: f32 = 3e-3;
/// Epsilon decay horizon.
const EPS_DECAY_STEPS: usize = 80;

impl GeometricQn {
    /// Creates an untrained model.
    pub fn new(cfg: GeometricQnConfig) -> Self {
        let mut store = ParamStore::new(cfg.seed);
        let encoder = GcnEncoder::new(&mut store, "gqn", &[deepwalk::DIM, EMBED_DIM]);
        let agent = DqnAgent::new(DqnConfig {
            state_dim: STATE_DIM,
            action_dim: EMBED_DIM + 2,
            gamma: 0.95,
            lr: LR,
            target_sync: 40,
            seed: cfg.seed ^ 0x60e0,
        });
        Self {
            rng: ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x06e0),
            store,
            encoder,
            agent,
            cfg,
        }
    }

    /// Encodes the discovered subgraph; returns per-node embeddings.
    fn encode(&self, sub: &Graph) -> Tensor {
        let feats = deepwalk_features(sub, self.cfg.seed);
        self.encoder.eval(&self.store, &gcn_normalized(sub), feats)
    }

    /// One exploration rollout on `graph`; returns the discovered node set
    /// and the per-step (state, action-features, chosen index, candidates)
    /// trace for training.
    #[allow(clippy::type_complexity)]
    fn explore(
        &mut self,
        graph: &Graph,
        epsilon_for_step: impl Fn(usize) -> f64,
        step_base: usize,
    ) -> (Vec<NodeId>, Vec<(Vec<f32>, Vec<f32>, usize)>) {
        let n = graph.num_nodes();
        let candidates: Vec<NodeId> = graph
            .nodes()
            .filter(|&v| graph.out_degree(v) + graph.in_degree(v) > 0)
            .collect();
        let start = candidates.choose(&mut self.rng).copied().unwrap_or(0);
        let mut discovered: Vec<NodeId> = vec![start];
        let mut in_set = vec![false; n];
        in_set[start as usize] = true;
        let mut trace = Vec::new();

        for step in 0..self.cfg.explore_steps {
            let (sub, order) = graph.induced_subgraph(&discovered);
            let emb = self.encode(&sub);
            let state = vec![
                discovered.len() as f32 / n.max(1) as f32,
                sub.num_edges() as f32 / (discovered.len().max(1) * 4) as f32,
                step as f32 / self.cfg.explore_steps.max(1) as f32,
            ];
            // Actions: expand from any discovered node (cap for tractability).
            let mut expandable: Vec<usize> = (0..order.len()).collect();
            expandable.sort_by_key(|&li| std::cmp::Reverse(graph.degree(order[li])));
            expandable.truncate(20);
            let mut actions = Vec::with_capacity(expandable.len() * (emb.cols + 2));
            for &li in &expandable {
                actions.extend_from_slice(emb.row_slice(li));
                actions.push(graph.degree(order[li]) as f32 / n.max(1) as f32);
                actions.push(sub.degree(li as NodeId) as f32 / discovered.len().max(1) as f32);
            }
            let eps = epsilon_for_step(step_base + step);
            let idx = self.agent.select_action(&state, &actions, eps);
            trace.push((state, actions.clone(), idx));
            let from = order[expandable[idx]];
            // Random walk from the chosen node reveals new territory.
            let mut cur = from;
            for _ in 0..WALK_LENGTH {
                let outs = graph.out_neighbors(cur);
                let ins = graph.in_neighbors(cur);
                let total = outs.len() + ins.len();
                if total == 0 {
                    break;
                }
                let pick = self.rng.gen_range(0..total);
                cur = if pick < outs.len() {
                    outs[pick]
                } else {
                    ins[pick - outs.len()]
                };
                if !in_set[cur as usize] {
                    in_set[cur as usize] = true;
                    discovered.push(cur);
                }
            }
        }
        (discovered, trace)
    }

    /// Picks `k` seeds from the discovered subgraph with degree discount.
    fn select_from_discovered(graph: &Graph, discovered: &[NodeId], k: usize) -> Vec<NodeId> {
        let (sub, order) = graph.induced_subgraph(discovered);
        let local = DegreeDiscount::run(&sub, k);
        local.seeds.iter().map(|&l| order[l as usize]).collect()
    }

    /// Trains on `graphs` (the small datasets of Fig. 7b), validating on
    /// the last.
    pub fn train(&mut self, graphs: &[Graph]) -> TrainReport {
        let scope = TrainScope::start_with_total("Geometric-QN", self.cfg.episodes);
        let Some(val_graph) = graphs.last() else {
            return TrainReport::default();
        };
        let spec = LoopSpec {
            validate_every: self.cfg.validate_every,
            keep_best: false,
            idle_loss: 0.0,
        };
        let mut run = GeometricQnRun {
            schedule: EpsilonSchedule::standard(EPS_DECAY_STEPS),
            model: self,
            graphs,
            val_graph,
            replay: ReplayBuffer::new(2_000),
            step_base: 0,
        };
        train_loop(scope, spec, &mut run)
    }

    /// Normalized objective of one greedy query on `graph`.
    pub fn evaluate(&mut self, graph: &Graph, k: usize) -> f64 {
        let seeds = self.infer(graph, k);
        evaluate_seeds(graph, self.cfg.task, self.cfg.seed, &seeds)
    }

    /// One query: explore greedily (epsilon 0), then select seeds from the
    /// discovered region. Stochastic across calls (random start node), as
    /// in the original.
    pub fn infer(&mut self, graph: &Graph, k: usize) -> Vec<NodeId> {
        if graph.num_nodes() == 0 || k == 0 {
            return Vec::new();
        }
        let (discovered, _) = self.explore(graph, |_| 0.0, usize::MAX / 2);
        Self::select_from_discovered(graph, &discovered, k)
    }

    /// The paper's protocol: average objective over `repeats` queries
    /// (Geometric-QN's variance demands it; §4.3 uses 20).
    pub fn infer_repeated(&mut self, graph: &Graph, k: usize, repeats: usize) -> Vec<Vec<NodeId>> {
        (0..repeats.max(1)).map(|_| self.infer(graph, k)).collect()
    }
}

/// One Geometric-QN training run: episode `e` explores `graphs[e % len]`
/// and is rewarded once, at the end, with the objective of the seeds found
/// in the discovered region.
struct GeometricQnRun<'a> {
    model: &'a mut GeometricQn,
    graphs: &'a [Graph],
    val_graph: &'a Graph,
    replay: ReplayBuffer<Transition>,
    schedule: EpsilonSchedule,
    step_base: usize,
}

impl TrainHooks for GeometricQnRun<'_> {
    fn episode(&mut self, ep: usize, losses: &mut Vec<f32>) -> Option<EpisodeStats> {
        let cfg = self.model.cfg;
        let g = &self.graphs[ep % self.graphs.len()];
        if g.num_nodes() < 4 {
            return None;
        }
        let schedule = self.schedule;
        let (discovered, trace) = self.model.explore(g, |s| schedule.value(s), self.step_base);
        self.step_base += trace.len();
        // Terminal reward: normalized objective of the seeds found in the
        // discovered region (high-variance sparse signal, as in the
        // original).
        let seeds = GeometricQn::select_from_discovered(g, &discovered, cfg.train_budget);
        let final_reward = objective(g, cfg.task, cfg.seed.wrapping_add(ep as u64), &seeds) as f32;
        let dim = self.model.agent.config().action_dim;
        for (i, (state, actions, idx)) in trace.iter().enumerate() {
            let done = i + 1 == trace.len();
            let (next_state, next_actions) = if done {
                (state.clone(), Vec::new())
            } else {
                (trace[i + 1].0.clone(), trace[i + 1].1.clone())
            };
            self.replay.push(Transition {
                state: state.clone(),
                action: actions[idx * dim..(idx + 1) * dim].to_vec(),
                reward: if done { final_reward } else { 0.0 },
                next_state,
                next_actions,
                done,
            });
        }
        if self.replay.len() >= 8 {
            let batch = self.replay.sample(8, &mut self.model.rng);
            losses.push(self.model.agent.train_batch(&batch));
        }
        Some(EpisodeStats {
            grad_norm: None,
            epsilon: schedule.value(self.step_base),
            reward: f64::from(final_reward),
        })
    }

    fn validate(&mut self) -> f64 {
        self.model
            .evaluate(self.val_graph, self.model.cfg.train_budget)
    }

    fn learner(&mut self) -> &mut dyn Learner {
        &mut self.model.agent
    }
}

impl ImSolver for GeometricQn {
    fn solve(&mut self, graph: &Graph, k: usize) -> ImSolution {
        ImSolution::seeds_only(self.infer(graph, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::generators;
    use mcpb_graph::weights::assign_weights;
    use mcpb_graph::WeightModel as WM;

    fn tiny_cfg() -> GeometricQnConfig {
        GeometricQnConfig {
            episodes: 10,
            explore_steps: 6,
            train_budget: 3,
            validate_every: 5,
            seed: 3,
            task: Task::Im { rr_sets: 200 },
            ..GeometricQnConfig::default()
        }
    }

    fn small_graph(seed: u64) -> Graph {
        assign_weights(
            &generators::barabasi_albert(80, 2, seed),
            WM::WeightedCascade,
            0,
        )
    }

    #[test]
    fn trains_and_infers() {
        let graphs: Vec<Graph> = (0..3).map(small_graph).collect();
        let mut model = GeometricQn::new(tiny_cfg());
        let report = model.train(&graphs);
        assert!(!report.checkpoints.is_empty());
        let seeds = model.infer(&graphs[0], 3);
        assert!(!seeds.is_empty() && seeds.len() <= 3);
    }

    #[test]
    fn discovers_only_real_nodes() {
        let g = small_graph(9);
        let mut model = GeometricQn::new(tiny_cfg());
        let seeds = model.infer(&g, 4);
        for &s in &seeds {
            assert!((s as usize) < g.num_nodes());
        }
        let mut sorted = seeds.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len());
    }

    #[test]
    fn repeated_queries_vary() {
        // The high-variance behaviour the paper highlights: different
        // queries explore different regions.
        let g = small_graph(4);
        let mut model = GeometricQn::new(tiny_cfg());
        let runs = model.infer_repeated(&g, 3, 6);
        assert_eq!(runs.len(), 6);
        let distinct: std::collections::HashSet<Vec<u32>> = runs.into_iter().collect();
        assert!(distinct.len() > 1, "exploration should vary across queries");
    }

    #[test]
    fn handles_empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let mut model = GeometricQn::new(tiny_cfg());
        assert!(model.infer(&g, 3).is_empty());
    }

    #[test]
    fn works_for_mcp_task_too() {
        let g = generators::barabasi_albert(60, 2, 6);
        let mut cfg = tiny_cfg();
        cfg.task = Task::Mcp;
        let mut model = GeometricQn::new(cfg);
        model.train(std::slice::from_ref(&g));
        let sol = mcpb_mcp::solver::McpSolution::evaluate(&g, model.infer(&g, 3));
        assert!(sol.covered > 0);
    }
}
