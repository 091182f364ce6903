//! S2V-DQN (Khalil et al., NeurIPS 2017): structure2vec node embeddings
//! feeding a Q-network trained with Q-learning to build a seed set node by
//! node (§3.2).
//!
//! `Q(S, v) = theta5^T relu([theta6 * sum_u mu_u , theta7 * mu_v])`, where
//! the `mu` embeddings are computed with the solution-membership indicator
//! as the node tag. Training runs episodes on BFS-sampled subgraphs of the
//! training graph (the paper trains on BrightKite for MCP); inference runs
//! the greedy policy on the full test graph.
//!
//! Only the TD update runs on the tape; acting, the target bootstrap and
//! inference use the bit-identical, incremental [`S2vRollout`].

use crate::common::{
    evaluate_seeds, grad_l2_norm, sample_training_subgraph, train_loop, EpisodeStats, Learner,
    LoopSpec, RewardOracle, Task, TrainHooks, TrainReport, TrainScope,
};
use mcpb_gnn::s2v::{S2v, S2vEmbedding, S2vGraph};
use mcpb_graph::{Graph, NodeId};
use mcpb_mcp::solver::{McpSolution, McpSolver};
use mcpb_nn::optim::merge_grads;
use mcpb_nn::prelude::*;
use mcpb_rl::dqn::argmax;
use mcpb_rl::replay::ReplayBuffer;
use mcpb_rl::schedule::EpsilonSchedule;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The S2V + Q-head network shared by S2V-DQN and RL4IM. Parameter ids are
/// valid in both the online and target stores (identical registration
/// order).
#[derive(Debug, Clone, Copy)]
pub struct S2vQNet {
    /// The embedding network.
    pub s2v: S2v,
    theta5: ParamId,
    theta6: ParamId,
    theta7: ParamId,
}

impl S2vQNet {
    /// Registers the network in `store`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, rounds: usize) -> Self {
        let s2v = S2v::new(store, &format!("{name}.s2v"), dim, rounds);
        Self {
            s2v,
            theta5: store.register_xavier(&format!("{name}.theta5"), 2 * dim, 1),
            theta6: store.register_xavier(&format!("{name}.theta6"), dim, dim),
            theta7: store.register_xavier(&format!("{name}.theta7"), dim, dim),
        }
    }

    /// Q values for `candidates` given solution tags, on the tape: the
    /// `c x 1` Q output variable. This is the gradient path (the TD update)
    /// and the reference [`S2vRollout`] is tested against bit for bit.
    pub fn q_values(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        sg: &S2vGraph,
        tags: &[f32],
        candidates: &[NodeId],
    ) -> Var {
        let x = tape.input(Tensor::column(tags));
        let mu = self.s2v.embed(tape, store, sg, x);
        let t5 = tape.param(store, self.theta5);
        let t6 = tape.param(store, self.theta6);
        let t7 = tape.param(store, self.theta7);
        // Mean pooling (sum / n) keeps the state-feature scale comparable
        // between small training subgraphs and large test graphs; the
        // original sum pooling is what makes size transfer brittle.
        let pooled_sum = tape.sum_rows(mu);
        let pooled = tape.scale(pooled_sum, 1.0 / sg.n.max(1) as f32);
        let pooled6 = tape.matmul(pooled, t6);
        let rows: Vec<usize> = candidates.iter().map(|&v| v as usize).collect();
        let n_cand = rows.len();
        let cand = tape.gather_rows(mu, rows);
        let cand7 = tape.matmul(cand, t7);
        let rep = tape.repeat_row(pooled6, n_cand);
        let cat = tape.concat_cols(rep, cand7);
        let act = tape.relu(cat);
        tape.matmul(act, t5)
    }

    /// A tape-free rollout on `sg` from `tags`, the no-gradient path;
    /// `edge_term` is [`S2v::edge_term`] for the same `store` and `sg`.
    pub fn rollout<'a>(
        &'a self,
        store: &'a ParamStore,
        sg: &'a S2vGraph,
        edge_term: &'a Tensor,
        tags: &[f32],
    ) -> S2vRollout<'a> {
        let emb = S2vEmbedding::new(&self.s2v, store, sg, edge_term, tags);
        let cand7 = emb.mu().matmul(store.value(self.theta7));
        S2vRollout {
            net: self,
            store,
            emb,
            cand7,
        }
    }
}

/// [`S2vQNet`]'s Q values along a greedy rollout, bit-identical to
/// [`S2vQNet::q_values`]. A tag recomputes the embedding rows it reaches
/// ([`S2vEmbedding::retag`]) and their `mu_v * theta7` rows only.
pub struct S2vRollout<'a> {
    net: &'a S2vQNet,
    store: &'a ParamStore,
    emb: S2vEmbedding<'a>,
    /// `mu * theta7`: every node's candidate head term.
    cand7: Tensor,
}

impl S2vRollout<'_> {
    /// One tag per node.
    pub fn tags(&self) -> &[f32] {
        self.emb.tags()
    }

    /// Tags node `v` with `tag`.
    pub fn tag(&mut self, v: NodeId, tag: f32) {
        let (rows, d) = (self.emb.retag(v, tag), self.net.s2v.dim);
        let mut cand = Tensor::zeros(rows.len(), d);
        for (row, &r) in cand.data.chunks_exact_mut(d).zip(&rows) {
            row.copy_from_slice(self.emb.mu().row_slice(r as usize));
        }
        let cand7 = cand.matmul(self.store.value(self.net.theta7));
        for (row, &r) in cand7.data.chunks_exact(d).zip(&rows) {
            self.cand7.data[r as usize * d..][..d].copy_from_slice(row);
        }
    }

    /// Q values for `candidates` under the current tags.
    pub fn q_values(&self, candidates: &[NodeId]) -> Vec<f32> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let (d, store) = (self.net.s2v.dim, self.store);
        // Mean pooling, summed in row order like `sum_rows`.
        let mut pooled = Tensor::zeros(1, d);
        for row in self.emb.mu().data.chunks_exact(d) {
            for (p, &m) in pooled.data.iter_mut().zip(row) {
                *p += m;
            }
        }
        pooled.scale_assign(1.0 / self.emb.tags().len().max(1) as f32);
        let pooled6 = pooled.matmul(store.value(self.net.theta6));
        // `relu([pooled6 | cand7]) * theta5` is one chain per candidate in
        // increasing order from 0.0, so its pooled half is a prefix every
        // candidate shares and no `c x 2d` concatenation is needed.
        let (t5_pooled, t5_cand) = store.value(self.net.theta5).data.split_at(d);
        let dot = |init: f32, x: &[f32], w: &[f32]| {
            x.iter().zip(w).fold(init, |q, (&a, &b)| q + a.max(0.0) * b)
        };
        let prefix = dot(0.0, &pooled6.data, t5_pooled);
        candidates
            .iter()
            .map(|&v| dot(prefix, self.cand7.row_slice(v as usize), t5_cand))
            .collect()
    }
}

/// One replayed step of an S2V Q-learner: solution tags before the action
/// and at the bootstrap state.
#[derive(Clone)]
pub(crate) struct S2vTransition {
    pub(crate) graph_idx: usize,
    pub(crate) tags: Vec<f32>,
    pub(crate) action: NodeId,
    pub(crate) reward: f32,
    pub(crate) next_tags: Vec<f32>,
    pub(crate) done: bool,
}

/// Nodes not yet in the solution (tag 0).
fn unselected(tags: &[f32]) -> Vec<NodeId> {
    (0..tags.len() as NodeId)
        .filter(|&v| tags[v as usize] == 0.0)
        .collect()
}

/// Adam learning rate of the S2V Q-learner.
const LR: f32 = 5e-3;
/// Gradient steps between target syncs of the S2V Q-learner.
const TARGET_SYNC: u64 = 40;

/// The S2V Q-learner S2V-DQN and RL4IM share: online and target stores,
/// Adam, epsilon-greedy acting, the TD update and greedy inference.
pub(crate) struct S2vLearner {
    net: S2vQNet,
    online: ParamStore,
    target: ParamStore,
    optimizer: Adam,
    /// Exploration and replay-sampling stream (RL4IM also draws its
    /// episode graphs from it).
    pub(crate) rng: ChaCha8Rng,
    /// Replay minibatch size.
    pub(crate) batch_size: usize,
}

impl S2vLearner {
    /// Registers the network as `name` in an online store seeded with
    /// `seeds[0]` and a target store seeded with `seeds[1]` (then synced);
    /// `seeds[2]` seeds the learner's RNG.
    pub(crate) fn new(
        name: &str,
        embed_dim: usize,
        rounds: usize,
        batch_size: usize,
        seeds: [u64; 3],
    ) -> Self {
        let mut online = ParamStore::new(seeds[0]);
        let net = S2vQNet::new(&mut online, name, embed_dim, rounds);
        let mut target = ParamStore::new(seeds[1]);
        let _ = S2vQNet::new(&mut target, name, embed_dim, rounds);
        target.copy_values_from(&online);
        Self {
            net,
            online,
            target,
            optimizer: Adam::new(LR),
            rng: ChaCha8Rng::seed_from_u64(seeds[2]),
            batch_size,
        }
    }

    /// Epsilon-greedy choice among the unselected nodes (`None` when every
    /// node is selected).
    pub(crate) fn act(&mut self, sg: &S2vGraph, tags: &[f32], epsilon: f64) -> Option<NodeId> {
        let candidates = unselected(tags);
        if candidates.is_empty() {
            return None;
        }
        if self.rng.gen::<f64>() < epsilon {
            return candidates.choose(&mut self.rng).copied();
        }
        let edge_term = self.net.s2v.edge_term(&self.online, sg);
        let rollout = self.net.rollout(&self.online, sg, &edge_term, tags);
        Some(candidates[argmax(&rollout.q_values(&candidates))])
    }

    /// One optimizer step over a replay batch, bootstrapping with
    /// `discount * max_a' Q_target(s', a')`. Returns the mean loss and the
    /// merged-gradient L2 norm (the two signals `train_loop` checks for divergence).
    pub(crate) fn update(
        &mut self,
        replay: &ReplayBuffer<S2vTransition>,
        sgs: &[S2vGraph],
        discount: f32,
    ) -> (f32, f64) {
        let batch = replay.sample(self.batch_size, &mut self.rng);
        let mut grads = Vec::new();
        let mut total_loss = 0.0f32;
        for t in &batch {
            let sg = &sgs[t.graph_idx];
            let target_val = if t.done {
                t.reward
            } else {
                let candidates = unselected(&t.next_tags);
                if candidates.is_empty() {
                    t.reward
                } else {
                    let edge_term = self.net.s2v.edge_term(&self.target, sg);
                    let rollout = self.net.rollout(&self.target, sg, &edge_term, &t.next_tags);
                    let q = rollout.q_values(&candidates);
                    t.reward + discount * q.iter().copied().fold(f32::NEG_INFINITY, f32::max)
                }
            };
            let mut tape = Tape::new();
            let q = self
                .net
                .q_values(&mut tape, &self.online, sg, &t.tags, &[t.action]);
            let loss = tape.huber_loss(q, Tensor::scalar(target_val), 1.0);
            tape.backward(loss);
            total_loss += tape.value(loss).item();
            grads.extend(tape.param_grads());
        }
        let merged = merge_grads(grads);
        let gnorm = grad_l2_norm(&merged);
        self.optimizer.step(&mut self.online, &merged);
        if self.optimizer.t % TARGET_SYNC == 0 {
            self.target.copy_values_from(&self.online);
        }
        (total_loss / batch.len().max(1) as f32, gnorm)
    }

    /// Greedy policy rollout: k sequential argmax-Q selections, the pick
    /// of step `i` tagged `tag(i)`. The edge term does not depend on the
    /// tags, so it is computed once for all k steps.
    pub(crate) fn infer(&self, graph: &Graph, k: usize, tag: impl Fn(usize) -> f32) -> Vec<NodeId> {
        let n = graph.num_nodes();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let sg = S2vGraph::new(graph);
        let edge_term = self.net.s2v.edge_term(&self.online, &sg);
        let zeros = vec![0f32; n];
        let mut rollout = self.net.rollout(&self.online, &sg, &edge_term, &zeros);
        let mut seeds = Vec::with_capacity(k.min(n));
        for step in 0..k.min(n) {
            let candidates = unselected(rollout.tags());
            if candidates.is_empty() {
                break;
            }
            let pick = candidates[argmax(&rollout.q_values(&candidates))];
            rollout.tag(pick, tag(step));
            seeds.push(pick);
        }
        seeds
    }
}

impl Learner for S2vLearner {
    fn snapshot(&self) -> Vec<Tensor> {
        self.online.snapshot()
    }

    fn restore(&mut self, snapshot: &[Tensor]) {
        self.online.load_snapshot(snapshot);
        self.target.copy_values_from(&self.online);
    }

    fn halve_lr(&mut self) -> f64 {
        self.optimizer.lr *= 0.5;
        f64::from(self.optimizer.lr)
    }
}

/// S2V-DQN hyper-parameters, CPU-scaled from the paper's setup.
#[derive(Debug, Clone, Copy)]
pub struct S2vDqnConfig {
    /// Message-passing rounds.
    pub rounds: usize,
    /// Nodes per BFS-sampled training subgraph.
    pub train_subgraph_nodes: usize,
    /// Training episodes.
    pub episodes: usize,
    /// Seeds selected per training episode.
    pub train_budget: usize,
    /// Epsilon decay horizon in environment steps.
    pub eps_decay_steps: usize,
    /// Validate (and checkpoint) every this many episodes.
    pub validate_every: usize,
    /// Task (MCP or IM).
    pub task: Task,
    /// RNG seed.
    pub seed: u64,
}

impl Default for S2vDqnConfig {
    fn default() -> Self {
        Self {
            rounds: 2,
            train_subgraph_nodes: 40,
            episodes: 40,
            train_budget: 5,
            eps_decay_steps: 120,
            validate_every: 10,
            task: Task::Mcp,
            seed: 0,
        }
    }
}

/// S2V-DQN's embedding dimension.
const EMBED_DIM: usize = 16;
/// S2V-DQN's discount factor.
const GAMMA: f32 = 0.99;
/// Steps per return: the original's n-step Q-learning.
const N_STEP: usize = 2;
/// S2V-DQN's replay minibatch size (each sample costs one full
/// forward/backward).
const BATCH_SIZE: usize = 4;
/// S2V-DQN's replay capacity.
const REPLAY_CAPACITY: usize = 2_000;

/// The trained S2V-DQN model.
pub struct S2vDqn {
    cfg: S2vDqnConfig,
    learner: S2vLearner,
}

impl S2vDqn {
    /// Creates an untrained model.
    pub fn new(cfg: S2vDqnConfig) -> Self {
        Self {
            learner: S2vLearner::new(
                "s2vdqn",
                EMBED_DIM,
                cfg.rounds,
                BATCH_SIZE,
                [cfg.seed, cfg.seed ^ 0xbeef, cfg.seed ^ 0x51f7],
            ),
            cfg,
        }
    }

    /// Trains on subgraphs of `train_graph`, validating on a held-out
    /// subgraph. Keeps the best-validation checkpoint (the paper's
    /// protocol, §4.1).
    pub fn train(&mut self, train_graph: &Graph) -> TrainReport {
        let scope = TrainScope::start_with_total("S2V-DQN", self.cfg.episodes);
        let (val_graph, _) = sample_training_subgraph(
            train_graph,
            self.cfg.train_subgraph_nodes * 2,
            self.cfg.seed ^ 0x7a11,
        );
        let spec = LoopSpec {
            validate_every: self.cfg.validate_every,
            keep_best: true,
            idle_loss: 0.0,
        };
        let mut run = S2vDqnRun {
            replay: ReplayBuffer::new(REPLAY_CAPACITY),
            schedule: EpsilonSchedule::standard(self.cfg.eps_decay_steps),
            model: self,
            train_graph,
            val_graph,
            graphs: Vec::new(),
            global_step: 0,
        };
        train_loop(scope, spec, &mut run)
    }

    /// Greedy rollout value on `graph` with budget `k` (normalized
    /// objective).
    pub fn evaluate(&self, graph: &Graph, k: usize) -> f64 {
        evaluate_seeds(graph, self.cfg.task, self.cfg.seed, &self.infer(graph, k))
    }

    /// Greedy policy rollout: k sequential argmax-Q selections.
    pub fn infer(&self, graph: &Graph, k: usize) -> Vec<NodeId> {
        self.learner.infer(graph, k, |_| 1.0)
    }
}

/// One S2V-DQN training run: a fresh BFS subgraph per episode, n-step
/// transitions, one update per transition once the replay holds a batch.
struct S2vDqnRun<'a> {
    model: &'a mut S2vDqn,
    train_graph: &'a Graph,
    val_graph: Graph,
    replay: ReplayBuffer<S2vTransition>,
    schedule: EpsilonSchedule,
    /// Every episode's graph, indexed by [`S2vTransition::graph_idx`].
    graphs: Vec<S2vGraph>,
    global_step: usize,
}

impl TrainHooks for S2vDqnRun<'_> {
    fn episode(&mut self, ep: usize, losses: &mut Vec<f32>) -> Option<EpisodeStats> {
        let cfg = self.model.cfg;
        let learner = &mut self.model.learner;
        let (g, _) = sample_training_subgraph(
            self.train_graph,
            cfg.train_subgraph_nodes,
            cfg.seed.wrapping_add(ep as u64 * 131),
        );
        if g.num_nodes() < 2 {
            return None;
        }
        let mut grad_norm = 0f64;
        self.graphs.push(S2vGraph::new(&g));
        let gi = self.graphs.len() - 1;
        let mut oracle = RewardOracle::new(&g, cfg.task, cfg.seed.wrapping_add(ep as u64));
        let mut tags = vec![0f32; g.num_nodes()];
        let budget = cfg.train_budget.min(g.num_nodes());
        // Episode trace for n-step return construction.
        let mut trace: Vec<(Vec<f32>, NodeId, f32)> = Vec::with_capacity(budget);
        for _ in 0..budget {
            let eps = self.schedule.value(self.global_step);
            let Some(action) = learner.act(&self.graphs[gi], &tags, eps) else {
                break;
            };
            let reward = oracle.add_seed(action) as f32;
            trace.push((tags.clone(), action, reward));
            tags[action as usize] = 1.0;
            self.global_step += 1;
        }

        // Build n-step transitions: R = sum_{j<h} gamma^j r_{i+j}, with
        // the bootstrap state h steps ahead, discounted by gamma^n.
        let discount = GAMMA.powi(N_STEP as i32);
        let len = trace.len();
        for i in 0..len {
            let horizon = (i + N_STEP).min(len);
            let mut ret = 0f32;
            for (j, item) in trace[i..horizon].iter().enumerate() {
                ret += GAMMA.powi(j as i32) * item.2;
            }
            // Tags after `horizon` actions: start state i plus the
            // actions taken in between.
            let mut boot_tags = trace[i].0.clone();
            for item in trace[i..horizon].iter() {
                boot_tags[item.1 as usize] = 1.0;
            }
            self.replay.push(S2vTransition {
                graph_idx: gi,
                tags: trace[i].0.clone(),
                action: trace[i].1,
                reward: ret,
                next_tags: boot_tags,
                done: horizon == len,
            });
            if self.replay.len() >= learner.batch_size {
                let (loss, gnorm) = learner.update(&self.replay, &self.graphs, discount);
                losses.push(loss);
                grad_norm = grad_norm.max(gnorm);
            }
        }
        Some(EpisodeStats {
            grad_norm: Some(grad_norm),
            epsilon: self.schedule.value(self.global_step),
            reward: oracle.total(),
        })
    }

    fn validate(&mut self) -> f64 {
        self.model
            .evaluate(&self.val_graph, self.model.cfg.train_budget)
    }

    fn learner(&mut self) -> &mut dyn Learner {
        &mut self.model.learner
    }
}

impl McpSolver for S2vDqn {
    fn solve(&mut self, graph: &Graph, k: usize) -> McpSolution {
        McpSolution::evaluate(graph, self.infer(graph, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::generators;
    use mcpb_mcp::greedy::LazyGreedy;

    fn tiny_cfg() -> S2vDqnConfig {
        S2vDqnConfig {
            rounds: 2,
            train_subgraph_nodes: 40,
            episodes: 30,
            train_budget: 4,
            validate_every: 10,
            eps_decay_steps: 60,
            seed: 7,
            ..S2vDqnConfig::default()
        }
    }

    #[test]
    fn trains_and_infers_on_mcp() {
        let g = generators::barabasi_albert(200, 3, 1);
        let mut model = S2vDqn::new(tiny_cfg());
        let report = model.train(&g);
        assert!(!report.checkpoints.is_empty());
        assert!(report.train_seconds > 0.0);
        let seeds = model.infer(&g, 5);
        assert_eq!(seeds.len(), 5);
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "seeds must be distinct");
    }

    #[test]
    fn trained_model_beats_random_on_coverage() {
        let g = generators::barabasi_albert(300, 3, 2);
        let mut model = S2vDqn::new(tiny_cfg());
        model.train(&g);
        let sol = McpSolver::solve(&mut model, &g, 8);
        let mut rnd_total = 0.0;
        for s in 0..5u64 {
            rnd_total += mcpb_mcp::baselines::RandomSeeds::run(&g, 8, s).coverage;
        }
        let rnd = rnd_total / 5.0;
        assert!(
            sol.coverage > rnd,
            "s2v-dqn {} vs random {rnd}",
            sol.coverage
        );
    }

    #[test]
    fn lazy_greedy_dominates_s2v_dqn() {
        // The paper's headline MCP finding.
        let g = generators::barabasi_albert(300, 3, 3);
        let mut model = S2vDqn::new(tiny_cfg());
        model.train(&g);
        let drl = McpSolver::solve(&mut model, &g, 10);
        let greedy = LazyGreedy::run(&g, 10);
        assert!(
            greedy.covered >= drl.covered,
            "greedy {} < s2v-dqn {}",
            greedy.covered,
            drl.covered
        );
    }

    #[test]
    fn im_task_variant_runs() {
        use mcpb_graph::weights::{assign_weights, WeightModel};
        let g = assign_weights(
            &generators::barabasi_albert(120, 2, 4),
            WeightModel::Constant,
            0,
        );
        let mut cfg = tiny_cfg();
        cfg.task = Task::Im { rr_sets: 300 };
        cfg.episodes = 6;
        let mut model = S2vDqn::new(cfg);
        let report = model.train(&g);
        assert!(report.best_score() >= 0.0);
        assert_eq!(model.infer(&g, 4).len(), 4);
    }

    fn bits(q: &[f32]) -> Vec<u32> {
        q.iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts that a from-scratch tape-free rollout's Q values equal the
    /// tape's `q_values` bit for bit under `learner`'s online parameters.
    fn assert_q_paths_agree(
        learner: &S2vLearner,
        g: &Graph,
        tags: &[f32],
        candidates: &[NodeId],
        what: &str,
    ) {
        let (net, store, sg) = (&learner.net, &learner.online, S2vGraph::new(g));
        let edge_term = net.s2v.edge_term(store, &sg);
        let fast = net
            .rollout(store, &sg, &edge_term, tags)
            .q_values(candidates);
        let mut tape = Tape::new();
        let q = net.q_values(&mut tape, store, &sg, tags, candidates);
        assert_eq!(bits(&fast), bits(&tape.value(q).data), "{what}");
    }

    #[test]
    fn tape_free_q_values_match_the_tape_bit_for_bit() {
        use mcpb_graph::weights::{assign_weights, WeightModel};
        let graphs = [
            (
                "ba",
                assign_weights(
                    &generators::barabasi_albert(60, 3, 11),
                    WeightModel::WeightedCascade,
                    0,
                ),
            ),
            (
                "er",
                assign_weights(
                    &generators::erdos_renyi(50, 120, 12),
                    WeightModel::TriValency,
                    3,
                ),
            ),
            ("edgeless", Graph::from_edges(8, &[]).unwrap()),
        ];
        let fresh = S2vLearner::new("s2vdqn", 16, 2, 4, [1, 2, 3]);
        let mut trained = S2vDqn::new(tiny_cfg());
        trained.train(&graphs[0].1);
        for (params, learner) in [("fresh", &fresh), ("trained", &trained.learner)] {
            for (name, g) in &graphs {
                let n = g.num_nodes();
                // Empty state, S2V-DQN's 0/1 membership tags, and RL4IM's
                // step-dependent tags (step + 1) / budget without abstraction.
                let mut states = [vec![0f32; n], vec![0f32; n], vec![0f32; n]];
                for (step, v) in [0usize, 3, 5].into_iter().enumerate() {
                    states[1][v] = 1.0;
                    states[2][v] = (step + 1) as f32 / 3.0;
                }
                for (si, tags) in states.iter().enumerate() {
                    let what = format!("{params} {name} state {si}");
                    assert_q_paths_agree(learner, g, tags, &unselected(tags), &what);
                    assert_q_paths_agree(learner, g, tags, &[5, 0, 5], &what);
                    assert_q_paths_agree(learner, g, tags, &[], &what);
                }
            }
        }
    }

    /// At every step of a greedy rollout, the incremental Q values equal a
    /// from-scratch rollout on the same tags bit for bit, and `infer` makes
    /// the picks the from-scratch values make.
    #[test]
    fn incremental_rollout_matches_full_recompute() {
        use mcpb_graph::weights::{assign_weights, WeightModel};
        use mcpb_graph::Edge;
        // Self-loops on 0 and 3, a parallel pair 4 <-> 5, isolated 6 and 7.
        let loops = [
            Edge::new(0, 0, 0.5),
            Edge::new(0, 1, 1.0),
            Edge::new(1, 2, 0.7),
            Edge::new(3, 3, 0.2),
            Edge::new(2, 3, 0.4),
            Edge::new(4, 5, 0.9),
            Edge::new(5, 4, 0.3),
        ];
        let graphs = [
            (
                "hub-heavy ba",
                assign_weights(
                    &generators::barabasi_albert(80, 6, 21),
                    WeightModel::WeightedCascade,
                    0,
                ),
            ),
            (
                "er",
                assign_weights(
                    &generators::erdos_renyi(60, 150, 22),
                    WeightModel::TriValency,
                    1,
                ),
            ),
            ("edgeless", Graph::from_edges(7, &[]).unwrap()),
            ("self-loops", Graph::from_edges(8, &loops).unwrap()),
        ];
        for rounds in [1, 2, 3] {
            let learner = S2vLearner::new("s2vdqn", 8, rounds, 4, [rounds as u64, 5, 6]);
            let (net, store) = (&learner.net, &learner.online);
            for (name, g) in &graphs {
                let n = g.num_nodes();
                let sg = S2vGraph::new(g);
                let edge_term = net.s2v.edge_term(store, &sg);
                for k in [0, n + 3] {
                    // S2V-DQN's membership tag and RL4IM's (step + 1) / k.
                    let rl4im = move |step: usize| (step + 1) as f32 / k as f32;
                    let tags: [(&str, &dyn Fn(usize) -> f32); 2] =
                        [("s2v-dqn", &|_| 1.0), ("rl4im", &rl4im)];
                    for (tagger, tag) in tags {
                        let what = format!("rounds {rounds}, {name}, k {k}, {tagger}");
                        let mut rollout = net.rollout(store, &sg, &edge_term, &vec![0.0; n]);
                        let mut picks = Vec::new();
                        for step in 0..k.min(n) {
                            let cands = unselected(rollout.tags());
                            let full = net
                                .rollout(store, &sg, &edge_term, rollout.tags())
                                .q_values(&cands);
                            let q = rollout.q_values(&cands);
                            assert_eq!(bits(&q), bits(&full), "{what}, step {step}");
                            let pick = cands[argmax(&full)];
                            rollout.tag(pick, tag(step));
                            picks.push(pick);
                        }
                        assert_eq!(picks.len(), k.min(n), "{what}");
                        assert_eq!(learner.infer(g, k, tag), picks, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_budget_inference() {
        let g = generators::barabasi_albert(30, 2, 5);
        let model = S2vDqn::new(tiny_cfg());
        assert!(model.infer(&g, 0).is_empty());
    }
}
