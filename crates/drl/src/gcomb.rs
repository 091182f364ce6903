//! GCOMB (Manchanda et al., NeurIPS 2020): budget-constrained combinatorial
//! optimization via a *supervised* GCN plus Q-learning, with a noise
//! predictor that prunes the candidate space (§3.2, Appendix B).
//!
//! Three stages, reproduced faithfully:
//! 1. **Supervised scoring** — probabilistic-greedy rollouts label every
//!    node with its expected normalized marginal gain; a GCN regresses
//!    those labels from degree features.
//! 2. **Noise predictor** — for each training budget, record the highest
//!    degree-rank (as a fraction of `n`) among nodes the greedy actually
//!    picked; linear interpolation across budgets predicts, at query time,
//!    how many top-degree nodes are "good". Everything below the cut is
//!    pruned. Its instability (Tab. 9) is what makes GCOMB's runtime
//!    non-monotonic in the budget.
//! 3. **Q-learning** — a DQN over [gcn score, degree, marginal gain]
//!    candidate features and [step / budget, objective so far] state
//!    features picks seeds from the pruned candidate set.
//!    Inference refreshes only the gains [`RewardOracle::changed`] names.

use crate::common::{
    evaluate_seeds, sample_training_subgraph, train_loop, EpisodeStats, Learner, LoopSpec,
    RewardOracle, Task, TrainHooks, TrainReport, TrainScope,
};
use mcpb_gnn::adjacency::gcn_normalized;
use mcpb_gnn::gcn::GcnEncoder;
use mcpb_graph::{Graph, NodeId};
use mcpb_im::solver::{ImSolution, ImSolver};
use mcpb_mcp::solver::{McpSolution, McpSolver};
use mcpb_nn::prelude::*;
use mcpb_rl::dqn::{argmax, DqnAgent, DqnConfig, Transition};
use mcpb_rl::replay::ReplayBuffer;
use mcpb_rl::schedule::EpsilonSchedule;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// GCOMB hyper-parameters, CPU-scaled.
#[derive(Debug, Clone)]
pub struct GcombConfig {
    /// GCN embedding dimension.
    pub embed_dim: usize,
    /// Supervised training epochs for the score GCN.
    pub supervised_epochs: usize,
    /// Probabilistic-greedy rollouts used to build labels.
    pub prob_greedy_runs: usize,
    /// Nodes per sampled training subgraph.
    pub train_subgraph_nodes: usize,
    /// Budgets used to fit the noise predictor.
    pub noise_budgets: Vec<usize>,
    /// Q-learning episodes.
    pub rl_episodes: usize,
    /// Budget per training episode.
    pub train_budget: usize,
    /// Task.
    pub task: Task,
    /// RNG seed.
    pub seed: u64,
    /// Validate every this many RL episodes.
    pub validate_every: usize,
    /// Whether the noise predictor prunes candidates (the ablation of
    /// Appendix B turns this off to measure its contribution).
    pub use_noise_predictor: bool,
}

impl Default for GcombConfig {
    fn default() -> Self {
        Self {
            embed_dim: 16,
            supervised_epochs: 60,
            prob_greedy_runs: 8,
            train_subgraph_nodes: 120,
            noise_budgets: vec![2, 5, 10, 20],
            rl_episodes: 30,
            train_budget: 5,
            task: Task::Mcp,
            seed: 0,
            validate_every: 10,
            use_noise_predictor: true,
        }
    }
}

/// The budget -> good-node-fraction interpolator (Appendix B).
#[derive(Debug, Clone, Default)]
pub struct NoisePredictor {
    /// `(budget, degree-rank fraction)` observations, sorted by budget.
    pub points: Vec<(usize, f64)>,
}

impl NoisePredictor {
    /// Predicted fraction of nodes (by degree rank) worth keeping for
    /// budget `k`, linearly interpolated / clamped-extrapolated.
    pub fn good_fraction(&self, k: usize) -> f64 {
        if self.points.is_empty() {
            return 1.0;
        }
        let kf = k as f64;
        if kf <= self.points[0].0 as f64 {
            return self.points[0].1;
        }
        for w in self.points.windows(2) {
            let (b0, f0) = (w[0].0 as f64, w[0].1);
            let (b1, f1) = (w[1].0 as f64, w[1].1);
            if kf <= b1 {
                let t = (kf - b0) / (b1 - b0).max(1e-9);
                return f0 + t * (f1 - f0);
            }
        }
        // Extrapolate from the last segment (this is where the paper
        // observes the predictor over-shooting past 100% of the graph).
        let n = self.points.len();
        let (b0, f0) = (self.points[n - 2].0 as f64, self.points[n - 2].1);
        let (b1, f1) = (self.points[n - 1].0 as f64, self.points[n - 1].1);
        let slope = (f1 - f0) / (b1 - b0).max(1e-9);
        f1 + slope * (kf - b1)
    }

    /// Candidate set for budget `k`: top-degree nodes up to the predicted
    /// fraction (never fewer than `k`, may be the whole graph when the
    /// predictor overshoots).
    pub fn candidates(&self, graph: &Graph, k: usize) -> Vec<NodeId> {
        let n = graph.num_nodes();
        let frac = self.good_fraction(k).max(0.0);
        let keep = ((n as f64 * frac).ceil() as usize).clamp(k.min(n), n);
        let mut nodes: Vec<NodeId> = (0..n as NodeId).collect();
        nodes.sort_by_key(|&v| (std::cmp::Reverse(graph.out_degree(v)), v));
        nodes.truncate(keep);
        nodes
    }
}

/// The trained GCOMB model.
pub struct Gcomb {
    cfg: GcombConfig,
    store: ParamStore,
    gcn: GcnEncoder,
    head: Linear,
    /// Fitted noise predictor (public for the Tab. 8/9 experiments).
    pub noise: NoisePredictor,
    agent: DqnAgent,
    rng: ChaCha8Rng,
}

const STATE_DIM: usize = 2;
const ACTION_DIM: usize = 3;
/// Adam learning rate (GCN and DQN).
const LR: f32 = 5e-3;

impl Gcomb {
    /// Creates an untrained model.
    pub fn new(cfg: GcombConfig) -> Self {
        let mut store = ParamStore::new(cfg.seed);
        let gcn = GcnEncoder::new(&mut store, "gcomb", &[3, cfg.embed_dim, cfg.embed_dim]);
        let head = Linear::new(&mut store, "gcomb.head", cfg.embed_dim, 1);
        let agent = DqnAgent::new(DqnConfig {
            state_dim: STATE_DIM,
            action_dim: ACTION_DIM,
            hidden: 24,
            gamma: 0.99,
            lr: LR,
            target_sync: 60,
            seed: cfg.seed ^ 0x9c0b,
        });
        Self {
            rng: ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x6c0b),
            store,
            gcn,
            head,
            noise: NoisePredictor::default(),
            agent,
            cfg,
        }
    }

    /// Config in effect.
    pub fn config(&self) -> &GcombConfig {
        &self.cfg
    }

    fn node_features(graph: &Graph) -> Tensor {
        let n = graph.num_nodes();
        let max_deg = graph
            .nodes()
            .map(|v| graph.out_degree(v))
            .max()
            .unwrap_or(1)
            .max(1) as f32;
        let mut f = Tensor::zeros(n, 3);
        for v in 0..n {
            let deg = graph.out_degree(v as NodeId) as f32;
            let wdeg: f32 = graph.out_weights(v as NodeId).iter().sum();
            f.data[v * 3] = deg / max_deg;
            f.data[v * 3 + 1] = wdeg / max_deg;
            f.data[v * 3 + 2] = 1.0;
        }
        f
    }

    /// GCN scores for every node of `graph` under the current parameters.
    pub fn gcn_scores(&self, graph: &Graph) -> Vec<f32> {
        let _span = mcpb_trace::span("drl.gcomb.gcn_scores");
        if graph.num_nodes() == 0 {
            return Vec::new();
        }
        let adj = gcn_normalized(graph);
        let h = self.gcn.eval(&self.store, &adj, Self::node_features(graph));
        self.head.eval(&self.store, &h).data
    }

    /// Probabilistic greedy: like greedy but samples among the current
    /// top-5 marginal gains, producing diverse near-optimal solutions for
    /// label generation. Returns per-run (selection order, gains).
    fn probabilistic_greedy(&mut self, graph: &Graph, budget: usize) -> Vec<(NodeId, f64)> {
        let n = graph.num_nodes();
        let mut oracle = RewardOracle::new(graph, self.cfg.task, self.rng.gen());
        let mut picked = vec![false; n];
        let mut out = Vec::with_capacity(budget.min(n));
        for _ in 0..budget.min(n) {
            let mut gains: Vec<(f64, NodeId)> = (0..n as NodeId)
                .filter(|&v| !picked[v as usize])
                .map(|v| (oracle.marginal_gain(v), v))
                .collect();
            gains.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("gains finite"));
            gains.truncate(5);
            if gains.is_empty() || gains[0].0 <= 0.0 {
                break;
            }
            let total: f64 = gains.iter().map(|g| g.0.max(1e-9)).sum();
            let mut roll = self.rng.gen::<f64>() * total;
            let mut chosen = gains[0].1;
            for &(g, v) in &gains {
                roll -= g.max(1e-9);
                if roll <= 0.0 {
                    chosen = v;
                    break;
                }
            }
            let realized = oracle.add_seed(chosen);
            picked[chosen as usize] = true;
            out.push((chosen, realized));
        }
        out
    }

    /// Full training pipeline: supervised GCN, noise predictor, Q-learning.
    pub fn train(&mut self, train_graph: &Graph) -> TrainReport {
        let scope = TrainScope::start_with_total("GCOMB", self.cfg.rl_episodes);
        let (tg, _) = sample_training_subgraph(
            train_graph,
            self.cfg.train_subgraph_nodes,
            self.cfg.seed ^ 0x76a1,
        );
        let (val_graph, _) = sample_training_subgraph(
            train_graph,
            self.cfg.train_subgraph_nodes,
            self.cfg.seed ^ 0x7a11,
        );
        if tg.num_nodes() < 4 {
            return TrainReport::default();
        }

        // Stage 1: labels from probabilistic greedy.
        let n = tg.num_nodes();
        let max_budget = *self.cfg.noise_budgets.iter().max().unwrap_or(&5);
        let mut label = vec![0f64; n];
        let mut label_count = vec![0usize; n];
        let mut runs: Vec<Vec<(NodeId, f64)>> = Vec::new();
        for _ in 0..self.cfg.prob_greedy_runs {
            let run = self.probabilistic_greedy(&tg, max_budget);
            for &(v, gain) in &run {
                label[v as usize] += gain;
                label_count[v as usize] += 1;
            }
            runs.push(run);
        }
        let max_label = label
            .iter()
            .zip(&label_count)
            .map(|(&l, &c)| if c > 0 { l / c as f64 } else { 0.0 })
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let targets: Vec<f32> = (0..n)
            .map(|v| {
                if label_count[v] > 0 {
                    ((label[v] / label_count[v] as f64) / max_label) as f32
                } else {
                    0.0
                }
            })
            .collect();

        // Supervised GCN regression.
        let adj = Arc::new(gcn_normalized(&tg));
        let feats = Self::node_features(&tg);
        let mut adam = Adam::new(LR);
        let mut sup_loss = 0.0;
        for _ in 0..self.cfg.supervised_epochs {
            let mut tape = Tape::new();
            let x = tape.input(feats.clone());
            let h = self.gcn.forward(&mut tape, &self.store, adj.clone(), x);
            let s = self.head.forward(&mut tape, &self.store, h);
            let loss = tape.mse_loss(s, Tensor::column(&targets));
            tape.backward(loss);
            sup_loss = tape.value(loss).item();
            let grads = mcpb_nn::optim::merge_grads(tape.param_grads());
            adam.step(&mut self.store, &grads);
        }

        // Stage 2: noise predictor from degree ranks of greedy picks.
        let mut rank_of = vec![usize::MAX; n];
        {
            let mut by_degree: Vec<NodeId> = (0..n as NodeId).collect();
            by_degree.sort_by_key(|&v| (std::cmp::Reverse(tg.out_degree(v)), v));
            for (rank, &v) in by_degree.iter().enumerate() {
                rank_of[v as usize] = rank;
            }
        }
        let mut points = Vec::new();
        for &b in &self.cfg.noise_budgets {
            let mut worst = 0usize;
            for run in &runs {
                for &(v, _) in run.iter().take(b) {
                    worst = worst.max(rank_of[v as usize]);
                }
            }
            points.push((b, (worst + 1) as f64 / n as f64));
        }
        points.sort_by_key(|&(b, _)| b);
        self.noise = NoisePredictor { points };

        // Stage 3: Q-learning over the pruned candidate set.
        let spec = LoopSpec {
            validate_every: self.cfg.validate_every,
            keep_best: false,
            idle_loss: f64::from(sup_loss),
        };
        let mut run = GcombRun {
            scores: self.gcn_scores(&tg),
            schedule: EpsilonSchedule::standard(self.cfg.rl_episodes * self.cfg.train_budget / 2),
            model: self,
            tg,
            val_graph,
            replay: ReplayBuffer::new(2_000),
            step_count: 0,
        };
        train_loop(scope, spec, &mut run)
    }

    /// One `ACTION_DIM` feature row per node of `nodes`, row-major:
    /// [gcn score, degree / n, marginal gain].
    fn action_features(
        graph: &Graph,
        nodes: impl Iterator<Item = NodeId>,
        scores: &[f32],
        oracle: &RewardOracle<'_>,
    ) -> Vec<f32> {
        let max_deg = graph.num_nodes().max(1) as f32;
        nodes
            .flat_map(|v| {
                [
                    scores.get(v as usize).copied().unwrap_or(0.0),
                    graph.out_degree(v) as f32 / max_deg,
                    oracle.marginal_gain(v) as f32,
                ]
            })
            .collect()
    }

    /// Normalized objective achieved by the greedy policy on `graph`.
    pub fn evaluate(&mut self, graph: &Graph, k: usize) -> f64 {
        let seeds = self.infer(graph, k);
        evaluate_seeds(graph, self.cfg.task, self.cfg.seed, &seeds)
    }

    /// Inference: prune with the noise predictor, score with the GCN, pick
    /// seeds with the DQN policy.
    pub fn infer(&mut self, graph: &Graph, k: usize) -> Vec<NodeId> {
        let n = graph.num_nodes();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let cands = if self.cfg.use_noise_predictor {
            self.noise.candidates(graph, k)
        } else {
            (0..n as NodeId).collect()
        };
        let scores = self.gcn_scores(graph);
        let mut oracle = RewardOracle::new(graph, self.cfg.task, self.cfg.seed ^ 0x1fe7);
        // Row v holds node v's features.
        let mut feats = Self::action_features(graph, 0..n as NodeId, &scores, &oracle);
        let mut avail = cands;
        let mut rows = Vec::with_capacity(feats.len());
        let mut seeds = Vec::with_capacity(k.min(n));
        for step in 0..k.min(avail.len()) {
            rows.clear();
            for &v in &avail {
                rows.extend_from_slice(&feats[v as usize * ACTION_DIM..][..ACTION_DIM]);
            }
            let state = [step as f32 / k.max(1) as f32, oracle.total() as f32];
            let v = avail.remove(argmax(&self.agent.q_values(&state, &rows)));
            oracle.add_seed(v);
            for u in oracle.changed() {
                feats[u as usize * ACTION_DIM + 2] = oracle.marginal_gain(u) as f32;
            }
            seeds.push(v);
        }
        seeds
    }
}

/// GCOMB's Q-learning stage: episodes on the training subgraph `tg`, one
/// update per step once the replay holds a batch of 16.
struct GcombRun<'a> {
    model: &'a mut Gcomb,
    tg: Graph,
    val_graph: Graph,
    /// GCN scores of `tg`'s nodes after the supervised stage.
    scores: Vec<f32>,
    replay: ReplayBuffer<Transition>,
    schedule: EpsilonSchedule,
    step_count: usize,
}

impl TrainHooks for GcombRun<'_> {
    fn episode(&mut self, ep: usize, losses: &mut Vec<f32>) -> Option<EpisodeStats> {
        let (task, seed, train_budget) = (
            self.model.cfg.task,
            self.model.cfg.seed,
            self.model.cfg.train_budget,
        );
        let tg = &self.tg;
        let mut oracle = RewardOracle::new(tg, task, seed.wrapping_add(ep as u64));
        let cands = self.model.noise.candidates(tg, train_budget);
        let mut picked = vec![false; tg.num_nodes()];
        let budget = train_budget.min(cands.len());
        for step in 0..budget {
            let avail: Vec<NodeId> = cands
                .iter()
                .copied()
                .filter(|&v| !picked[v as usize])
                .collect();
            if avail.is_empty() {
                break;
            }
            let state = vec![step as f32 / budget.max(1) as f32, oracle.total() as f32];
            let actions = Gcomb::action_features(tg, avail.iter().copied(), &self.scores, &oracle);
            let eps = self.schedule.value(self.step_count);
            let idx = self.model.agent.select_action(&state, &actions, eps);
            let v = avail[idx];
            let reward = oracle.add_seed(v) as f32;
            picked[v as usize] = true;
            let done = step + 1 == budget;
            let next_state = vec![
                (step + 1) as f32 / budget.max(1) as f32,
                oracle.total() as f32,
            ];
            let next_actions = if done {
                Vec::new()
            } else {
                let next = cands.iter().copied().filter(|&u| !picked[u as usize]);
                Gcomb::action_features(tg, next, &self.scores, &oracle)
            };
            self.replay.push(Transition {
                state,
                action: actions[idx * ACTION_DIM..(idx + 1) * ACTION_DIM].to_vec(),
                reward,
                next_state,
                next_actions,
                done,
            });
            self.step_count += 1;
            if self.replay.len() >= 16 {
                let batch = self.replay.sample(16, &mut self.model.rng);
                losses.push(self.model.agent.train_batch(&batch));
            }
        }
        Some(EpisodeStats {
            grad_norm: None,
            epsilon: self.schedule.value(self.step_count),
            reward: oracle.total(),
        })
    }

    fn validate(&mut self) -> f64 {
        self.model
            .evaluate(&self.val_graph, self.model.cfg.train_budget)
    }

    fn learner(&mut self) -> &mut dyn Learner {
        &mut self.model.agent
    }
}

impl McpSolver for Gcomb {
    fn name(&self) -> &str {
        "GCOMB"
    }

    fn solve(&mut self, graph: &Graph, k: usize) -> McpSolution {
        McpSolution::evaluate(graph, self.infer(graph, k))
    }
}

impl ImSolver for Gcomb {
    fn name(&self) -> &str {
        "GCOMB"
    }

    fn solve(&mut self, graph: &Graph, k: usize) -> ImSolution {
        ImSolution::seeds_only(self.infer(graph, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::generators;
    use mcpb_mcp::greedy::LazyGreedy;

    fn tiny_cfg() -> GcombConfig {
        GcombConfig {
            embed_dim: 8,
            supervised_epochs: 40,
            prob_greedy_runs: 5,
            train_subgraph_nodes: 80,
            noise_budgets: vec![2, 5, 10],
            rl_episodes: 15,
            train_budget: 5,
            validate_every: 5,
            seed: 11,
            ..GcombConfig::default()
        }
    }

    #[test]
    fn noise_predictor_interpolates_and_extrapolates() {
        let np = NoisePredictor {
            points: vec![(2, 0.1), (10, 0.3)],
        };
        assert!((np.good_fraction(2) - 0.1).abs() < 1e-12);
        assert!((np.good_fraction(6) - 0.2).abs() < 1e-12);
        assert!((np.good_fraction(10) - 0.3).abs() < 1e-12);
        // Linear extrapolation beyond the last budget keeps the slope.
        assert!((np.good_fraction(18) - 0.5).abs() < 1e-12);
        // Empty predictor keeps everything.
        assert_eq!(NoisePredictor::default().good_fraction(5), 1.0);
    }

    #[test]
    fn candidates_are_top_degree_and_at_least_k() {
        let g = generators::barabasi_albert(100, 2, 0);
        let np = NoisePredictor {
            points: vec![(5, 0.05)],
        };
        let c = np.candidates(&g, 5);
        assert!(c.len() >= 5);
        // Candidates must be the highest-degree nodes.
        let min_cand_deg = c.iter().map(|&v| g.out_degree(v)).min().unwrap();
        let dropped_max = (0..100u32)
            .filter(|v| !c.contains(v))
            .map(|v| g.out_degree(v))
            .max()
            .unwrap();
        assert!(min_cand_deg >= dropped_max.saturating_sub(0) || c.len() == 100);
    }

    #[test]
    fn gcomb_trains_and_tracks_greedy() {
        let g = generators::barabasi_albert(300, 3, 5);
        let mut model = Gcomb::new(tiny_cfg());
        let report = model.train(&g);
        assert!(!report.checkpoints.is_empty());
        let sol = McpSolver::solve(&mut model, &g, 8);
        assert_eq!(sol.seeds.len(), 8);
        let greedy = LazyGreedy::run(&g, 8);
        // The paper: GCOMB approaches greedy but does not beat it.
        assert!(sol.covered as f64 >= 0.5 * greedy.covered as f64);
        assert!(sol.covered <= greedy.covered);
    }

    #[test]
    fn gcn_scores_correlate_with_degree() {
        let g = generators::barabasi_albert(200, 3, 6);
        let mut model = Gcomb::new(tiny_cfg());
        model.train(&g);
        let scores = model.gcn_scores(&g);
        let degs: Vec<f64> = (0..200u32).map(|v| g.out_degree(v) as f64).collect();
        let s64: Vec<f64> = scores.iter().map(|&s| s as f64).collect();
        let rho = mcpb_graph::spearman::spearman(&degs, &s64);
        assert!(rho > 0.3, "score/degree correlation {rho}");
    }

    #[test]
    fn beats_random_seeds() {
        let g = generators::barabasi_albert(250, 3, 7);
        let mut model = Gcomb::new(tiny_cfg());
        model.train(&g);
        let sol = McpSolver::solve(&mut model, &g, 6);
        let rnd = mcpb_mcp::baselines::RandomSeeds::run(&g, 6, 1);
        assert!(
            sol.covered > rnd.covered,
            "{} vs {}",
            sol.covered,
            rnd.covered
        );
    }

    #[test]
    fn untrained_model_still_returns_valid_solution() {
        let g = generators::barabasi_albert(50, 2, 8);
        let mut model = Gcomb::new(tiny_cfg());
        let sol = McpSolver::solve(&mut model, &g, 3);
        assert_eq!(sol.seeds.len(), 3);
    }
}
