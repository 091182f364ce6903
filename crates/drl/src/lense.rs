//! LeNSE (Ireland & Montana, ICML 2022): learning to navigate subgraph
//! embeddings (§3.2).
//!
//! Stage 1 samples fixed-size subgraphs and labels each with its *quality
//! ratio* — the objective a heuristic achieves using only that subgraph,
//! relative to the heuristic on the full graph. A GCN encoder with pooled
//! readout regresses the ratio, giving an embedding space where quality is
//! a direction. Stage 2 trains a DQN to navigate: swap a weak subgraph
//! member for a frontier node so the embedding moves toward the
//! high-quality region. At query time the navigated subgraph is handed to
//! the classical heuristic (Lazy Greedy for MCP, RIS greedy for IM — the
//! Appendix C efficiency fix), which produces the final seed set.

use crate::common::{
    evaluate_seeds, objective, sample_training_subgraph, train_loop, EpisodeStats, Learner,
    LoopSpec, Task, TrainHooks, TrainReport, TrainScope,
};
use mcpb_gnn::adjacency::gcn_normalized;
use mcpb_gnn::gcn::GcnEncoder;
use mcpb_graph::{Graph, NodeId};
use mcpb_im::rrset::sample_collection;
use mcpb_im::solver::{ImSolution, ImSolver};
use mcpb_mcp::greedy::LazyGreedy;
use mcpb_mcp::solver::{McpSolution, McpSolver};
use mcpb_nn::prelude::*;
use mcpb_rl::dqn::{argmax, DqnAgent, DqnConfig, Transition};
use mcpb_rl::replay::ReplayBuffer;
use mcpb_rl::schedule::EpsilonSchedule;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// LeNSE hyper-parameters, CPU-scaled.
#[derive(Debug, Clone, Copy)]
pub struct LenseConfig {
    /// Nodes per candidate subgraph.
    pub subgraph_size: usize,
    /// Labeled subgraphs for encoder training.
    pub num_labeled: usize,
    /// Encoder regression epochs.
    pub encoder_epochs: usize,
    /// Navigation training episodes.
    pub nav_episodes: usize,
    /// Swap steps per navigation episode / query.
    pub nav_steps: usize,
    /// Budget used for labeling and training rollouts.
    pub train_budget: usize,
    /// Validate every this many navigation episodes.
    pub validate_every: usize,
    /// Task.
    pub task: Task,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LenseConfig {
    fn default() -> Self {
        Self {
            subgraph_size: 40,
            num_labeled: 24,
            encoder_epochs: 80,
            nav_episodes: 15,
            nav_steps: 8,
            train_budget: 5,
            validate_every: 5,
            task: Task::Mcp,
            seed: 0,
        }
    }
}

/// The trained LeNSE model.
pub struct Lense {
    cfg: LenseConfig,
    store: ParamStore,
    encoder: GcnEncoder,
    head: Linear,
    agent: DqnAgent,
    rng: ChaCha8Rng,
}

const STATE_DIM: usize = 2;
const ACTION_DIM: usize = 3;
/// GCN embedding dimension.
const EMBED_DIM: usize = 8;
/// Adam learning rate.
const LR: f32 = 5e-3;

impl Lense {
    /// Creates an untrained model.
    pub fn new(cfg: LenseConfig) -> Self {
        let mut store = ParamStore::new(cfg.seed);
        let encoder = GcnEncoder::new(&mut store, "lense", &[2, EMBED_DIM, EMBED_DIM]);
        let head = Linear::new(&mut store, "lense.head", EMBED_DIM, 1);
        let agent = DqnAgent::new(DqnConfig {
            state_dim: STATE_DIM,
            action_dim: ACTION_DIM,
            gamma: 0.95,
            lr: LR,
            target_sync: 40,
            seed: cfg.seed ^ 0x1e5e,
        });
        Self {
            rng: ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x5e1e),
            store,
            encoder,
            head,
            agent,
            cfg,
        }
    }

    fn sub_features(sub: &Graph) -> Tensor {
        let n = sub.num_nodes();
        let max_deg = sub
            .nodes()
            .map(|v| sub.out_degree(v))
            .max()
            .unwrap_or(1)
            .max(1) as f32;
        let mut f = Tensor::zeros(n, 2);
        for v in 0..n {
            f.data[v * 2] = sub.out_degree(v as NodeId) as f32 / max_deg;
            f.data[v * 2 + 1] = 1.0;
        }
        f
    }

    /// Predicted quality ratio of a subgraph under the current encoder.
    pub fn predict_quality(&self, sub: &Graph) -> f32 {
        if sub.num_nodes() == 0 {
            return 0.0;
        }
        let adj = gcn_normalized(sub);
        let h = self
            .encoder
            .eval(&self.store, &adj, Self::sub_features(sub));
        let pooled = mcpb_gnn::gcn::readout_mean_eval(&h);
        self.head.eval(&self.store, &pooled).item()
    }

    /// Runs the final-stage heuristic on the subgraph induced by `nodes`
    /// and maps the seeds back to full-graph ids.
    fn heuristic_on_subgraph(&self, graph: &Graph, nodes: &[NodeId], k: usize) -> Vec<NodeId> {
        let (sub, order) = graph.induced_subgraph(nodes);
        let local_seeds = match self.cfg.task {
            Task::Mcp => LazyGreedy::run(&sub, k).seeds,
            Task::Im { rr_sets } => {
                let rr = sample_collection(&sub, rr_sets, self.cfg.seed ^ 0xa5a5);
                rr.greedy_max_coverage(k).0
            }
        };
        local_seeds.iter().map(|&l| order[l as usize]).collect()
    }

    /// Quality ratio of `nodes` as a candidate subgraph: heuristic on the
    /// subgraph scored on the full graph, relative to `reference`.
    fn quality_ratio(&self, graph: &Graph, nodes: &[NodeId], k: usize, reference: f64) -> f64 {
        let seeds = self.heuristic_on_subgraph(graph, nodes, k);
        let quality = objective(graph, self.cfg.task, self.cfg.seed ^ 0x9a11, &seeds);
        if reference <= 0.0 {
            0.0
        } else {
            (quality / reference).min(1.5)
        }
    }

    /// Full training pipeline on `train_graph`.
    pub fn train(&mut self, train_graph: &Graph) -> TrainReport {
        let scope = TrainScope::start_with_total("LeNSE", self.cfg.nav_episodes);
        let n = train_graph.num_nodes();
        if n < self.cfg.subgraph_size {
            return TrainReport::default();
        }
        // Reference solution quality on the full training graph.
        let reference = {
            let seeds = self.heuristic_on_subgraph(
                train_graph,
                &(0..n as NodeId).collect::<Vec<_>>(),
                self.cfg.train_budget,
            );
            objective(train_graph, self.cfg.task, self.cfg.seed, &seeds)
        };

        // Stage 1: labeled subgraphs -> encoder regression.
        let mut subs: Vec<(Graph, f32)> = Vec::with_capacity(self.cfg.num_labeled);
        for i in 0..self.cfg.num_labeled {
            let (sub_nodes, _) = {
                let (sub, order) = sample_training_subgraph(
                    train_graph,
                    self.cfg.subgraph_size,
                    self.cfg.seed.wrapping_add(i as u64 * 37),
                );
                (order, sub)
            };
            let ratio =
                self.quality_ratio(train_graph, &sub_nodes, self.cfg.train_budget, reference);
            let (sub, _) = train_graph.induced_subgraph(&sub_nodes);
            subs.push((sub, ratio as f32));
        }
        let mut adam = Adam::new(LR);
        for _ in 0..self.cfg.encoder_epochs {
            let mut grads = Vec::new();
            for (sub, ratio) in &subs {
                let adj = Arc::new(gcn_normalized(sub));
                let mut tape = Tape::new();
                let x = tape.input(Self::sub_features(sub));
                let h = self.encoder.forward(&mut tape, &self.store, adj, x);
                let pooled = mcpb_gnn::gcn::readout_mean(&mut tape, h);
                let pred = self.head.forward(&mut tape, &self.store, pooled);
                let loss = tape.mse_loss(pred, Tensor::scalar(*ratio));
                tape.backward(loss);
                grads.extend(tape.param_grads());
            }
            let merged = mcpb_nn::optim::merge_grads(grads);
            adam.step(&mut self.store, &merged);
        }

        // Stage 2: navigation DQN.
        let spec = LoopSpec {
            validate_every: self.cfg.validate_every,
            keep_best: false,
            idle_loss: 0.0,
        };
        let mut run = LenseRun {
            schedule: EpsilonSchedule::standard(self.cfg.nav_episodes * self.cfg.nav_steps / 2),
            model: self,
            train_graph,
            reference,
            replay: ReplayBuffer::new(1_000),
            steps: 0,
        };
        train_loop(scope, spec, &mut run)
    }

    /// Builds navigation state/action features for the current subgraph.
    /// Returns `None` when no frontier exists.
    #[allow(clippy::type_complexity)]
    fn navigation_actions(
        &self,
        graph: &Graph,
        nodes: &[NodeId],
        quality: f32,
        step: usize,
    ) -> Option<(Vec<f32>, Vec<f32>, Vec<NodeId>)> {
        let in_sub: std::collections::HashSet<NodeId> = nodes.iter().copied().collect();
        let mut frontier: Vec<NodeId> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &v in nodes {
            for &u in graph.out_neighbors(v).iter().chain(graph.in_neighbors(v)) {
                if !in_sub.contains(&u) && seen.insert(u) {
                    frontier.push(u);
                }
            }
        }
        if frontier.is_empty() {
            return None;
        }
        frontier.sort_by_key(|&u| (std::cmp::Reverse(graph.degree(u)), u));
        frontier.truncate(15);
        let n = graph.num_nodes().max(1);
        let state = vec![quality, step as f32 / self.cfg.nav_steps.max(1) as f32];
        let actions = frontier
            .iter()
            .flat_map(|&u| {
                let conn = graph
                    .out_neighbors(u)
                    .iter()
                    .chain(graph.in_neighbors(u))
                    .filter(|x| in_sub.contains(x))
                    .count();
                [
                    graph.degree(u) as f32 / n as f32,
                    conn as f32 / nodes.len().max(1) as f32,
                    graph.out_degree(u) as f32 / n as f32,
                ]
            })
            .collect();
        Some((state, actions, frontier))
    }

    /// Swap: add `incoming`, drop the lowest-degree current member.
    fn apply_swap(graph: &Graph, nodes: &[NodeId], incoming: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = nodes.to_vec();
        if let Some((weak_idx, _)) = out
            .iter()
            .enumerate()
            .min_by_key(|(_, &v)| (graph.degree(v), v))
        {
            out[weak_idx] = incoming;
        }
        out
    }

    /// Normalized objective of one query on `graph`.
    pub fn evaluate(&mut self, graph: &Graph, k: usize) -> f64 {
        let seeds = self.infer(graph, k);
        evaluate_seeds(graph, self.cfg.task, self.cfg.seed, &seeds)
    }

    /// One query: sample a starting subgraph, navigate, run the heuristic.
    pub fn infer(&mut self, graph: &Graph, k: usize) -> Vec<NodeId> {
        let n = graph.num_nodes();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let size = self.cfg.subgraph_size.max(2 * k).min(n);
        let (_, mut nodes) = {
            let (sub, order) = sample_training_subgraph(graph, size, self.rng.gen());
            (sub, order)
        };
        if nodes.is_empty() {
            nodes = (0..size.min(n) as NodeId).collect();
        }
        let mut quality = {
            let (sub, _) = graph.induced_subgraph(&nodes);
            self.predict_quality(&sub)
        };
        // Navigation length scales with the budget: a larger k needs a
        // larger explored region, which is exactly why the paper measures
        // LeNSE as the slowest inference path (Fig. 4/6).
        let steps = self.cfg.nav_steps.max(k);
        for step in 0..steps {
            let Some((state, actions, frontier)) =
                self.navigation_actions(graph, &nodes, quality, step)
            else {
                break;
            };
            let q = self.agent.q_values(&state, &actions);
            let idx = argmax(&q);
            nodes = Self::apply_swap(graph, &nodes, frontier[idx]);
            quality = {
                let (sub, _) = graph.induced_subgraph(&nodes);
                self.predict_quality(&sub)
            };
        }
        self.heuristic_on_subgraph(graph, &nodes, k)
    }
}

/// LeNSE's navigation stage: each episode swaps its way through a fresh
/// subgraph of the training graph, one update per step once the replay
/// holds a batch of 8. Validation runs on the training graph itself.
struct LenseRun<'a> {
    model: &'a mut Lense,
    train_graph: &'a Graph,
    /// Heuristic objective on the full training graph.
    reference: f64,
    replay: ReplayBuffer<Transition>,
    schedule: EpsilonSchedule,
    steps: usize,
}

impl TrainHooks for LenseRun<'_> {
    fn episode(&mut self, ep: usize, losses: &mut Vec<f32>) -> Option<EpisodeStats> {
        let cfg = self.model.cfg;
        let graph = self.train_graph;
        let model = &mut *self.model;
        let (_, mut nodes) = sample_training_subgraph(
            graph,
            cfg.subgraph_size,
            cfg.seed.wrapping_add(1_000 + ep as u64 * 61),
        );
        let mut quality = {
            let (sub, _) = graph.induced_subgraph(&nodes);
            model.predict_quality(&sub)
        };
        for step in 0..cfg.nav_steps {
            let Some((state, actions, frontier)) =
                model.navigation_actions(graph, &nodes, quality, step)
            else {
                break;
            };
            let eps = self.schedule.value(self.steps);
            let idx = model.agent.select_action(&state, &actions, eps);
            let new_nodes = Lense::apply_swap(graph, &nodes, frontier[idx]);
            let new_quality = {
                let (sub, _) = graph.induced_subgraph(&new_nodes);
                model.predict_quality(&sub)
            };
            let done = step + 1 == cfg.nav_steps;
            let mut reward = new_quality - quality;
            if done {
                reward +=
                    model.quality_ratio(graph, &new_nodes, cfg.train_budget, self.reference) as f32;
            }
            let next = model.navigation_actions(graph, &new_nodes, new_quality, step + 1);
            self.replay.push(Transition {
                state,
                action: actions[idx * ACTION_DIM..(idx + 1) * ACTION_DIM].to_vec(),
                reward,
                next_state: next.as_ref().map(|(s, _, _)| s.clone()).unwrap_or_default(),
                next_actions: if done {
                    Vec::new()
                } else {
                    next.map(|(_, a, _)| a).unwrap_or_default()
                },
                done,
            });
            nodes = new_nodes;
            quality = new_quality;
            self.steps += 1;
            if self.replay.len() >= 8 {
                let batch = self.replay.sample(8, &mut model.rng);
                losses.push(model.agent.train_batch(&batch));
            }
        }
        Some(EpisodeStats {
            grad_norm: None,
            epsilon: self.schedule.value(self.steps),
            reward: f64::from(quality),
        })
    }

    fn validate(&mut self) -> f64 {
        self.model
            .evaluate(self.train_graph, self.model.cfg.train_budget)
    }

    fn learner(&mut self) -> &mut dyn Learner {
        &mut self.model.agent
    }
}

impl McpSolver for Lense {
    fn solve(&mut self, graph: &Graph, k: usize) -> McpSolution {
        McpSolution::evaluate(graph, self.infer(graph, k))
    }
}

impl ImSolver for Lense {
    fn solve(&mut self, graph: &Graph, k: usize) -> ImSolution {
        ImSolution::seeds_only(self.infer(graph, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::generators;

    fn tiny_cfg() -> LenseConfig {
        LenseConfig {
            subgraph_size: 25,
            num_labeled: 10,
            encoder_epochs: 40,
            nav_episodes: 8,
            nav_steps: 5,
            train_budget: 4,
            validate_every: 4,
            seed: 13,
            ..LenseConfig::default()
        }
    }

    #[test]
    fn trains_and_infers_mcp() {
        let g = generators::barabasi_albert(200, 3, 1);
        let mut model = Lense::new(tiny_cfg());
        let report = model.train(&g);
        assert!(!report.checkpoints.is_empty());
        let sol = McpSolver::solve(&mut model, &g, 5);
        assert!(sol.seeds.len() <= 5 && !sol.seeds.is_empty());
        assert!(sol.covered > 0);
    }

    #[test]
    fn subgraph_heuristic_cannot_beat_full_graph_heuristic() {
        let g = generators::barabasi_albert(250, 3, 2);
        let mut model = Lense::new(tiny_cfg());
        model.train(&g);
        let lense = McpSolver::solve(&mut model, &g, 6);
        let greedy = LazyGreedy::run(&g, 6);
        assert!(
            lense.covered <= greedy.covered,
            "subgraph-restricted {} vs full greedy {}",
            lense.covered,
            greedy.covered
        );
    }

    #[test]
    fn quality_prediction_is_finite() {
        let g = generators::barabasi_albert(120, 2, 3);
        let mut model = Lense::new(tiny_cfg());
        model.train(&g);
        let (sub, _) = g.induced_subgraph(&(0..30u32).collect::<Vec<_>>());
        assert!(model.predict_quality(&sub).is_finite());
    }

    #[test]
    fn im_variant_runs() {
        use mcpb_graph::weights::{assign_weights, WeightModel};
        let g = assign_weights(
            &generators::barabasi_albert(150, 2, 4),
            WeightModel::Constant,
            0,
        );
        let mut cfg = tiny_cfg();
        cfg.task = Task::Im { rr_sets: 200 };
        cfg.nav_episodes = 4;
        cfg.num_labeled = 6;
        let mut model = Lense::new(cfg);
        model.train(&g);
        let sol = ImSolver::solve(&mut model, &g, 4);
        assert!(!sol.seeds.is_empty());
    }

    #[test]
    fn swap_preserves_size() {
        let g = generators::barabasi_albert(50, 2, 5);
        let nodes: Vec<u32> = (0..10).collect();
        let swapped = Lense::apply_swap(&g, &nodes, 20);
        assert_eq!(swapped.len(), 10);
        assert!(swapped.contains(&20));
    }

    #[test]
    fn graph_smaller_than_subgraph_yields_empty_report() {
        let g = generators::erdos_renyi(10, 15, 6);
        let mut model = Lense::new(tiny_cfg());
        let report = model.train(&g);
        assert!(report.checkpoints.is_empty());
    }
}
