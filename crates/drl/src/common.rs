//! Shared machinery for the five Deep-RL methods: the task/objective
//! abstraction (MCP coverage vs IM influence), the reward oracle both RL
//! environments query, the one training loop (`train_loop`) and the
//! training reports for the §5.2/§5.3 experiments.

use mcpb_graph::{Graph, NodeId};
use mcpb_im::rrset::{sample_collection, RrCollection};
use mcpb_mcp::coverage::CoverageOracle;
use mcpb_nn::Tensor;
use mcpb_rl::dqn::DqnAgent;

/// Which coverage problem a model is being trained/applied to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Maximum Coverage Problem: reward = newly covered nodes.
    Mcp,
    /// Influence Maximization: reward = marginal RIS spread estimate.
    Im {
        /// RR sets backing the reward estimator.
        rr_sets: usize,
    },
}

/// Incremental objective oracle: tracks a growing seed set and returns
/// *normalized* marginal gains in `[0, 1]` (fraction of |V| newly covered /
/// influenced), the reward signal every method's RL environment uses.
pub enum RewardOracle<'g> {
    /// MCP: exact incremental coverage.
    Coverage(CoverageOracle<'g>),
    /// IM: RR-set coverage (seeds tracked inside).
    Influence {
        /// Shared RR-set collection.
        rr: RrCollection,
        /// RR sets already hit by the selected seeds.
        hit: Vec<bool>,
        /// Count of hit RR sets.
        hits: usize,
        /// Selected seeds.
        seeds: Vec<NodeId>,
        /// Node count of the underlying graph.
        n: usize,
    },
}

impl<'g> RewardOracle<'g> {
    /// Builds the oracle appropriate for `task` on `graph`.
    pub fn new(graph: &'g Graph, task: Task, seed: u64) -> Self {
        match task {
            Task::Mcp => RewardOracle::Coverage(CoverageOracle::new(graph)),
            Task::Im { rr_sets } => {
                let rr = sample_collection(graph, rr_sets, seed);
                let m = rr.len();
                RewardOracle::Influence {
                    rr,
                    hit: vec![false; m],
                    hits: 0,
                    seeds: Vec::new(),
                    n: graph.num_nodes(),
                }
            }
        }
    }

    /// Normalized marginal gain of adding `v` (no mutation).
    pub fn marginal_gain(&self, v: NodeId) -> f64 {
        match self {
            RewardOracle::Coverage(o) => {
                let n = o.graph().num_nodes().max(1);
                o.marginal_gain(v) as f64 / n as f64
            }
            RewardOracle::Influence { rr, hit, .. } => {
                if rr.is_empty() {
                    return 0.0;
                }
                let fresh = rr
                    .sets_containing(v)
                    .iter()
                    .filter(|&&id| !hit[id as usize])
                    .count();
                fresh as f64 / rr.len() as f64
            }
        }
    }

    /// Adds `v` as a seed; returns its realized normalized gain.
    pub fn add_seed(&mut self, v: NodeId) -> f64 {
        match self {
            RewardOracle::Coverage(o) => {
                let n = o.graph().num_nodes().max(1);
                o.add_seed(v) as f64 / n as f64
            }
            RewardOracle::Influence {
                rr,
                hit,
                hits,
                seeds,
                ..
            } => {
                let mut fresh = 0usize;
                for &id in rr.sets_containing(v) {
                    if !hit[id as usize] {
                        hit[id as usize] = true;
                        fresh += 1;
                    }
                }
                *hits += fresh;
                seeds.push(v);
                if rr.is_empty() {
                    0.0
                } else {
                    fresh as f64 / rr.len() as f64
                }
            }
        }
    }

    /// Seeds chosen so far.
    pub fn seeds(&self) -> &[NodeId] {
        match self {
            RewardOracle::Coverage(o) => o.seeds(),
            RewardOracle::Influence { seeds, .. } => seeds,
        }
    }

    /// Total normalized objective value of the current seed set.
    pub fn total(&self) -> f64 {
        match self {
            RewardOracle::Coverage(o) => o.coverage(),
            RewardOracle::Influence { rr, hits, .. } => {
                if rr.is_empty() {
                    0.0
                } else {
                    *hits as f64 / rr.len() as f64
                }
            }
        }
    }

    /// Denormalized objective (covered nodes / estimated spread).
    pub fn total_absolute(&self) -> f64 {
        match self {
            RewardOracle::Coverage(o) => o.covered_count() as f64,
            RewardOracle::Influence { rr, hits, n, .. } => {
                if rr.is_empty() {
                    0.0
                } else {
                    *n as f64 * *hits as f64 / rr.len() as f64
                }
            }
        }
    }
}

/// Normalized objective of `seeds` on `graph`, scored by a fresh
/// [`RewardOracle`] built with `oracle_seed`.
pub(crate) fn objective(graph: &Graph, task: Task, oracle_seed: u64, seeds: &[NodeId]) -> f64 {
    let mut oracle = RewardOracle::new(graph, task, oracle_seed);
    for &s in seeds {
        oracle.add_seed(s);
    }
    oracle.total()
}

/// The validation score every method reports: the [`objective`] of the
/// seeds its greedy policy inferred, at the evaluation oracle seed
/// `seed ^ 0xe7a1`.
pub(crate) fn evaluate_seeds(graph: &Graph, task: Task, seed: u64, seeds: &[NodeId]) -> f64 {
    objective(graph, task, seed ^ 0xe7a1, seeds)
}

/// A validation checkpoint recorded during training (drives Fig. 8/9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    /// Epoch / episode index.
    pub epoch: usize,
    /// Validation objective (normalized) at this point.
    pub validation_score: f64,
    /// Mean TD / regression loss over the epoch.
    pub loss: f64,
}

/// Training summary returned by every method's `train`.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Checkpoints in epoch order.
    pub checkpoints: Vec<Checkpoint>,
    /// Wall-clock seconds spent training.
    pub train_seconds: f64,
    /// Divergence recoveries (rollback + LR halving) performed.
    pub recoveries: u32,
    /// Set when training aborted after exhausting the recovery budget; the
    /// report still carries every checkpoint up to the failure, so partial
    /// results survive (failure is data, not a crash).
    pub error: Option<TrainError>,
}

/// Typed training failure.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The loop kept diverging after spending its recovery budget.
    Diverged {
        /// Solver name.
        solver: &'static str,
        /// 1-based episode at which the budget ran out.
        episode: usize,
        /// Recoveries performed before giving up.
        recoveries: u32,
        /// The final divergent loss.
        loss: f64,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Diverged {
                solver,
                episode,
                recoveries,
                loss,
            } => write!(
                f,
                "{solver} training diverged at episode {episode} \
                 (loss {loss}, {recoveries} recoveries spent)"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

/// How [`RecoveryHarness::observe`] classified an episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpisodeHealth {
    /// Numerically sound — checkpoint/record as usual.
    Healthy,
    /// Divergence detected; parameters were rolled back and the learning
    /// rate halved. Skip checkpointing this episode.
    Recovered,
}

/// Per-run divergence recovery for `train_loop`.
///
/// The harness owns the [`mcpb_resilience::DivergenceGuard`] bookkeeping
/// and the telemetry; the *mechanism* of rolling back (which parameter
/// store, which optimizer) differs per solver and is supplied as a closure
/// returning the new learning rate. It is also the loop's NaN
/// fault-injection point: a `nan@train.<solver>` entry in `MCPB_FAULTS`
/// poisons the observed loss, so the whole rollback path runs in CI.
pub struct RecoveryHarness {
    solver: &'static str,
    site: String,
    guard: mcpb_resilience::DivergenceGuard,
}

impl RecoveryHarness {
    /// A harness with the default thresholds and recovery budget.
    pub fn new(solver: &'static str) -> Self {
        RecoveryHarness {
            solver,
            site: format!("train.{solver}"),
            guard: mcpb_resilience::DivergenceGuard::new(
                mcpb_resilience::DivergenceConfig::default(),
            ),
        }
    }

    /// Recoveries performed so far (stored in [`TrainReport::recoveries`]).
    pub fn recoveries(&self) -> u32 {
        self.guard.recoveries()
    }

    /// Classifies one episode from its mean loss (and optional gradient
    /// norm). On divergence, runs `rollback` — which must restore the last
    /// good parameters, halve the learning rate, and return the new rate —
    /// and emits a [`mcpb_trace::Event::Recovery`]. Returns the typed error
    /// once the budget is spent.
    pub fn observe(
        &mut self,
        episode: usize,
        loss: f64,
        grad_norm: Option<f64>,
        rollback: impl FnOnce() -> f64,
    ) -> Result<EpisodeHealth, TrainError> {
        let loss = match mcpb_resilience::fault::arm(&self.site) {
            Some(mcpb_resilience::FaultKind::Nan) => f64::NAN,
            _ => loss,
        };
        match self.guard.observe(loss, grad_norm) {
            mcpb_resilience::Verdict::Healthy => Ok(EpisodeHealth::Healthy),
            mcpb_resilience::Verdict::Recover { .. } => {
                let lr = rollback();
                if mcpb_trace::is_enabled() {
                    mcpb_trace::emit(mcpb_trace::Event::Recovery {
                        solver: self.solver.to_string(),
                        episode: episode as u64,
                        loss,
                        lr,
                    });
                    mcpb_trace::counter_add(&format!("train.recoveries/{}", self.solver), 1);
                }
                Ok(EpisodeHealth::Recovered)
            }
            mcpb_resilience::Verdict::Exhausted => Err(TrainError::Diverged {
                solver: self.solver,
                episode,
                recoveries: self.guard.recoveries(),
                loss,
            }),
        }
    }
}

/// Shared instrumentation for every method's `train()`: the wall clock
/// behind [`TrainReport::train_seconds`] (always running, whether or not
/// the collector is enabled, so the reported seconds keep their historical
/// meaning) plus — only when tracing is on — a root `train.<solver>` span
/// and per-episode [`mcpb_trace::Event::EpisodeEnd`] telemetry.
pub struct TrainScope {
    solver: &'static str,
    watch: mcpb_trace::Stopwatch,
    total_episodes: usize,
    _span: Option<mcpb_trace::Span>,
}

impl TrainScope {
    /// Starts the training clock for `total_episodes` planned episodes
    /// and, when tracing is enabled, opens the root span that all nested
    /// spans (subgraph sampling, NN forward / backward) aggregate under.
    /// `train_loop` later reads the solver name and episode count back.
    pub fn start_with_total(solver: &'static str, total_episodes: usize) -> Self {
        let root = if mcpb_trace::is_enabled() {
            Some(mcpb_trace::span_named(format!("train.{solver}")))
        } else {
            None
        };
        TrainScope {
            solver,
            watch: mcpb_trace::Stopwatch::start(),
            total_episodes,
            _span: root,
        }
    }

    /// Emits one `EpisodeEnd` event plus an episode-reward histogram
    /// sample, and — when the scope knows its planned episode count —
    /// `train.episodes_per_sec/<solver>` and `train.eta_secs/<solver>`
    /// heartbeat metrics so a live `MCPB_TRACE` tail shows progress.
    /// No-op (single atomic load) when tracing is disabled.
    pub fn episode_end(&self, episode: usize, loss: f64, epsilon: f64, reward: f64) {
        if !mcpb_trace::is_enabled() {
            return;
        }
        mcpb_trace::emit(mcpb_trace::Event::EpisodeEnd {
            solver: self.solver.to_string(),
            episode: episode as u64,
            loss,
            epsilon,
            reward,
        });
        mcpb_trace::observe(&format!("train.episode_reward/{}", self.solver), reward);
        let elapsed = self.watch.elapsed_secs();
        if self.total_episodes > 0 && elapsed > 0.0 {
            let rate = episode as f64 / elapsed;
            mcpb_trace::emit(mcpb_trace::Event::Metric {
                name: format!("train.episodes_per_sec/{}", self.solver),
                value: rate,
            });
            let remaining = self.total_episodes.saturating_sub(episode);
            mcpb_trace::emit(mcpb_trace::Event::Metric {
                name: format!("train.eta_secs/{}", self.solver),
                value: remaining as f64 / rate.max(f64::MIN_POSITIVE),
            });
        }
    }

    /// Seconds since [`TrainScope::start_with_total`] — the value
    /// `train_loop` stores in [`TrainReport::train_seconds`].
    pub fn elapsed_secs(&self) -> f64 {
        self.watch.elapsed_secs()
    }
}

impl TrainReport {
    /// The best validation score observed.
    pub fn best_score(&self) -> f64 {
        self.checkpoints
            .iter()
            .map(|c| c.validation_score)
            .fold(0.0, f64::max)
    }

    /// Epoch of the best checkpoint (0 when empty).
    pub fn best_epoch(&self) -> usize {
        self.checkpoints
            .iter()
            .max_by(|a, b| {
                a.validation_score
                    .partial_cmp(&b.validation_score)
                    .expect("scores are finite")
            })
            .map_or(0, |c| c.epoch)
    }
}

/// What one training episode hands back to [`train_loop`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpisodeStats {
    /// Largest merged-gradient L2 norm of the episode, fed to the
    /// divergence guard next to the loss (`None`: loss only).
    pub(crate) grad_norm: Option<f64>,
    /// Exploration rate at the end of the episode (telemetry).
    pub(crate) epsilon: f64,
    /// Objective or reward the episode reached (telemetry).
    pub(crate) reward: f64,
}

/// The trainable parameters behind a run: what [`train_loop`] snapshots,
/// rolls back on divergence and, with [`LoopSpec::keep_best`], restores
/// to the best-validation checkpoint.
pub(crate) trait Learner {
    /// Copy of the online parameters.
    fn snapshot(&self) -> Vec<Tensor>;
    /// Loads `snapshot` into the online parameters and re-syncs the target
    /// network.
    fn restore(&mut self, snapshot: &[Tensor]);
    /// Halves the learning rate; returns the new rate.
    fn halve_lr(&mut self) -> f64;
}

impl Learner for DqnAgent {
    fn snapshot(&self) -> Vec<Tensor> {
        DqnAgent::snapshot(self)
    }

    fn restore(&mut self, snapshot: &[Tensor]) {
        DqnAgent::restore(self, snapshot);
    }

    fn halve_lr(&mut self) -> f64 {
        f64::from(self.scale_lr(0.5))
    }
}

/// A method's half of training: its rollout and update, its validation,
/// and the learner they train. [`train_loop`] owns the rest.
pub(crate) trait TrainHooks {
    /// Runs 0-based episode `ep`, pushing the loss of every update onto
    /// `losses`. `None` skips the episode: no divergence check, telemetry
    /// or checkpoint.
    fn episode(&mut self, ep: usize, losses: &mut Vec<f32>) -> Option<EpisodeStats>;
    /// Validation objective of the current policy.
    fn validate(&mut self) -> f64;
    /// The parameters being trained.
    fn learner(&mut self) -> &mut dyn Learner;
}

/// How [`train_loop`] checkpoints a run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopSpec {
    /// Validate (and checkpoint) every this many episodes, and after the
    /// last one.
    pub(crate) validate_every: usize,
    /// Restore the best-validation parameters when training ends (the
    /// paper's protocol, §4.1). Only S2V-DQN and RL4IM do; the other
    /// methods keep their last parameters.
    pub(crate) keep_best: bool,
    /// Checkpoint loss when no update ran since the previous checkpoint.
    pub(crate) idle_loss: f64,
}

/// Mean of a checkpoint's loss window, summed in `f32` in episode order
/// (`None` when no update ran).
fn window_mean(losses: &[f32]) -> Option<f64> {
    if losses.is_empty() {
        return None;
    }
    let mut total = 0f32;
    for &l in losses {
        total += l;
    }
    Some(f64::from(total) / losses.len() as f64)
}

/// The one training loop behind all five methods' `train`. It runs the
/// episodes planned in `scope`, and after each one:
/// - checks the episode's mean loss with a [`RecoveryHarness`], rolling
///   back to the last healthy parameters and halving the learning rate on
///   divergence (the episode then records nothing);
/// - emits the episode telemetry;
/// - every `spec.validate_every` episodes and after the last, validates
///   and pushes a [`Checkpoint`] with the mean loss since the previous one.
///
/// With `spec.keep_best` it finally restores the best-validation
/// parameters. The report carries the recoveries, the training seconds
/// since `scope` started, and the typed error if the recovery budget ran
/// out.
pub(crate) fn train_loop(
    scope: TrainScope,
    spec: LoopSpec,
    hooks: &mut dyn TrainHooks,
) -> TrainReport {
    let mut report = TrainReport::default();
    let mut harness = RecoveryHarness::new(scope.solver);
    let mut last_good = hooks.learner().snapshot();
    let mut best = spec
        .keep_best
        .then(|| (f64::NEG_INFINITY, hooks.learner().snapshot()));
    let mut losses: Vec<f32> = Vec::new();
    for ep in 0..scope.total_episodes {
        let window = losses.len();
        let Some(stats) = hooks.episode(ep, &mut losses) else {
            continue;
        };
        let ep_loss = mean_f32(&losses[window..]);
        let health = harness.observe(ep + 1, ep_loss, stats.grad_norm, || {
            let learner = hooks.learner();
            learner.restore(&last_good);
            learner.halve_lr()
        });
        match health {
            Ok(EpisodeHealth::Healthy) => last_good = hooks.learner().snapshot(),
            Ok(EpisodeHealth::Recovered) => {
                // Drop the poisoned losses so the next checkpoint's mean
                // stays finite, and skip checkpointing this episode.
                losses.truncate(window);
                continue;
            }
            Err(e) => {
                report.error = Some(e);
                break;
            }
        }
        scope.episode_end(ep + 1, ep_loss, stats.epsilon, stats.reward);
        if (ep + 1) % spec.validate_every == 0 || ep + 1 == scope.total_episodes {
            let score = hooks.validate();
            let loss = window_mean(&losses).unwrap_or(spec.idle_loss);
            losses.clear();
            report.checkpoints.push(Checkpoint {
                epoch: ep + 1,
                validation_score: score,
                loss,
            });
            if let Some((best_score, best_params)) = &mut best {
                if score > *best_score {
                    *best_score = score;
                    *best_params = hooks.learner().snapshot();
                }
            }
        }
    }
    if let Some((_, best_params)) = best {
        hooks.learner().restore(&best_params);
    }
    report.recoveries = harness.recoveries();
    report.train_seconds = scope.elapsed_secs();
    report
}

/// L2 norm of a merged gradient set, fed to the [`RecoveryHarness`] as the
/// explosion signal alongside the loss.
pub fn grad_l2_norm(grads: &[(mcpb_nn::ParamId, mcpb_nn::Tensor)]) -> f64 {
    grads
        .iter()
        .flat_map(|(_, g)| g.data.iter())
        .map(|&x| f64::from(x) * f64::from(x))
        .sum::<f64>()
        .sqrt()
}

/// Mean of an `f32` loss slice as `f64` (0 when empty): the per-episode
/// loss `train_loop` hands to the divergence guard and the telemetry.
pub fn mean_f32(xs: &[f32]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().map(|&x| f64::from(x)).sum::<f64>() / xs.len() as f64
    }
}

/// Samples a connected-ish training subgraph of about `target_nodes` nodes
/// by BFS from a random non-isolated start, mirroring how S2V-DQN/GCOMB
/// subsample training instances.
pub fn sample_training_subgraph(
    graph: &Graph,
    target_nodes: usize,
    seed: u64,
) -> (Graph, Vec<NodeId>) {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let _span = mcpb_trace::span("graph.sample_subgraph");
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let candidates: Vec<NodeId> = graph
        .nodes()
        .filter(|&v| graph.out_degree(v) + graph.in_degree(v) > 0)
        .collect();
    if candidates.is_empty() {
        return graph.induced_subgraph(&[]);
    }
    let mut picked: Vec<NodeId> = Vec::with_capacity(target_nodes);
    let mut seen = vec![false; graph.num_nodes()];
    let mut queue = std::collections::VecDeque::new();
    while picked.len() < target_nodes.min(graph.num_nodes()) {
        if queue.is_empty() {
            // (Re)start BFS from a fresh random node.
            let start = *candidates.choose(&mut rng).expect("non-empty candidates");
            if !seen[start as usize] {
                seen[start as usize] = true;
                queue.push_back(start);
            } else if picked.len() + 1 >= candidates.len() {
                break;
            } else {
                continue;
            }
        }
        let Some(v) = queue.pop_front() else { continue };
        picked.push(v);
        let mut nbrs: Vec<NodeId> = graph
            .out_neighbors(v)
            .iter()
            .chain(graph.in_neighbors(v))
            .copied()
            .collect();
        nbrs.shuffle(&mut rng);
        for u in nbrs {
            if !seen[u as usize] {
                seen[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    graph.induced_subgraph(&picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::weights::{assign_weights, WeightModel};
    use mcpb_graph::{generators, Edge};

    #[test]
    fn coverage_oracle_gains() {
        let g = Graph::from_edges(4, &[Edge::unweighted(0, 1), Edge::unweighted(0, 2)]).unwrap();
        let mut o = RewardOracle::new(&g, Task::Mcp, 0);
        assert!((o.marginal_gain(0) - 0.75).abs() < 1e-12);
        let gain = o.add_seed(0);
        assert!((gain - 0.75).abs() < 1e-12);
        assert!((o.total() - 0.75).abs() < 1e-12);
        assert_eq!(o.total_absolute(), 3.0);
        assert_eq!(o.seeds(), &[0]);
    }

    #[test]
    fn influence_oracle_gains_match_coverage_of_rr() {
        let g = assign_weights(
            &generators::barabasi_albert(60, 2, 1),
            WeightModel::Constant,
            0,
        );
        let mut o = RewardOracle::new(&g, Task::Im { rr_sets: 500 }, 7);
        let pred = o.marginal_gain(0);
        let got = o.add_seed(0);
        assert!((pred - got).abs() < 1e-12);
        // Second add of the same node gains nothing.
        assert_eq!(o.add_seed(0), 0.0);
        assert!(o.total() > 0.0);
        assert!(o.total_absolute() > 0.0);
    }

    #[test]
    fn influence_gains_are_submodular_along_path() {
        let g = assign_weights(
            &generators::barabasi_albert(80, 3, 2),
            WeightModel::Constant,
            0,
        );
        let mut o = RewardOracle::new(&g, Task::Im { rr_sets: 800 }, 3);
        let before = o.marginal_gain(5);
        o.add_seed(0);
        o.add_seed(1);
        let after = o.marginal_gain(5);
        assert!(after <= before + 1e-12);
    }

    #[test]
    fn train_report_best() {
        let r = TrainReport {
            checkpoints: vec![
                Checkpoint {
                    epoch: 0,
                    validation_score: 0.1,
                    loss: 1.0,
                },
                Checkpoint {
                    epoch: 5,
                    validation_score: 0.4,
                    loss: 0.5,
                },
                Checkpoint {
                    epoch: 9,
                    validation_score: 0.3,
                    loss: 0.4,
                },
            ],
            train_seconds: 1.0,
            ..TrainReport::default()
        };
        assert_eq!(r.best_epoch(), 5);
        assert!((r.best_score() - 0.4).abs() < 1e-12);
    }

    /// A scripted run for `train_loop`: episode `e` pushes `losses[e]`
    /// (`None` skips it) and sets the one "parameter" to `e + 1`;
    /// validation returns the next scripted score.
    struct Scripted {
        losses: Vec<Option<Vec<f32>>>,
        scores: std::vec::IntoIter<f64>,
        param: f32,
        restored: Vec<f32>,
        lr: f64,
    }

    impl Scripted {
        fn new(losses: Vec<Option<Vec<f32>>>, scores: Vec<f64>) -> Self {
            Scripted {
                losses,
                scores: scores.into_iter(),
                param: 0.0,
                restored: Vec::new(),
                lr: 1.0,
            }
        }

        fn run(&mut self, keep_best: bool, validate_every: usize) -> TrainReport {
            let scope = TrainScope::start_with_total("scripted", self.losses.len());
            let spec = LoopSpec {
                validate_every,
                keep_best,
                idle_loss: -1.0,
            };
            train_loop(scope, spec, self)
        }
    }

    impl Learner for Scripted {
        fn snapshot(&self) -> Vec<Tensor> {
            vec![Tensor::scalar(self.param)]
        }

        fn restore(&mut self, snapshot: &[Tensor]) {
            self.param = snapshot[0].item();
            self.restored.push(self.param);
        }

        fn halve_lr(&mut self) -> f64 {
            self.lr *= 0.5;
            self.lr
        }
    }

    impl TrainHooks for Scripted {
        fn episode(&mut self, ep: usize, losses: &mut Vec<f32>) -> Option<EpisodeStats> {
            losses.extend(self.losses[ep].clone()?);
            self.param = (ep + 1) as f32;
            Some(EpisodeStats {
                grad_norm: None,
                epsilon: 0.0,
                reward: 0.0,
            })
        }

        fn validate(&mut self) -> f64 {
            self.scores.next().expect("scripted score")
        }

        fn learner(&mut self) -> &mut dyn Learner {
            self
        }
    }

    fn epochs_and_losses(report: &TrainReport) -> Vec<(usize, f64)> {
        report
            .checkpoints
            .iter()
            .map(|c| (c.epoch, c.loss))
            .collect()
    }

    #[test]
    fn train_loop_checkpoints_windows_and_skips() {
        // Episode 2 is skipped, so the checkpoint due after it is too; the
        // window since the last checkpoint spans episodes 1-4; a window
        // with no update reports the idle loss; the last episode always
        // checkpoints.
        let mut run = Scripted::new(
            vec![
                Some(vec![1.0]),
                None,
                Some(vec![]),
                Some(vec![3.0, 5.0]),
                Some(vec![]),
            ],
            vec![0.5, 0.25],
        );
        let report = run.run(false, 2);
        assert_eq!(epochs_and_losses(&report), [(4, 3.0), (5, -1.0)]);
        assert_eq!(report.recoveries, 0);
        assert_eq!(run.param, 5.0, "last parameters kept");
    }

    #[test]
    fn train_loop_restores_the_best_checkpoint_only_when_asked() {
        let losses = vec![Some(vec![1.0]); 3];
        let mut keep = Scripted::new(losses.clone(), vec![0.5, 0.9, 0.2]);
        keep.run(true, 1);
        assert_eq!(keep.restored, [2.0], "best-validation parameters restored");
        let mut last = Scripted::new(losses, vec![0.5, 0.9, 0.2]);
        last.run(false, 1);
        assert!(last.restored.is_empty());
        assert_eq!(last.param, 3.0);
    }

    #[test]
    fn train_loop_rolls_back_a_diverged_episode() {
        let mut run = Scripted::new(
            vec![Some(vec![1.0]), Some(vec![f32::NAN]), Some(vec![2.0])],
            vec![0.1, 0.2],
        );
        let report = run.run(false, 1);
        assert_eq!(report.recoveries, 1);
        assert!(report.error.is_none());
        assert_eq!(
            run.restored,
            [1.0],
            "rolled back to the last healthy episode"
        );
        assert_eq!(run.lr, 0.5, "learning rate halved once");
        // The diverged episode records nothing, and its NaN does not leak
        // into the next checkpoint's loss.
        assert_eq!(epochs_and_losses(&report), [(1, 1.0), (3, 2.0)]);
    }

    #[test]
    fn subgraph_sampling_respects_size() {
        let g = generators::barabasi_albert(300, 3, 4);
        let (sub, order) = sample_training_subgraph(&g, 50, 9);
        assert_eq!(sub.num_nodes(), 50);
        assert_eq!(order.len(), 50);
        assert!(sub.num_edges() > 0, "BFS subgraph should be connected-ish");
    }

    #[test]
    fn subgraph_sampling_handles_small_graphs() {
        let g = generators::erdos_renyi(10, 20, 1);
        let (sub, _) = sample_training_subgraph(&g, 100, 2);
        assert!(sub.num_nodes() <= 10);
    }
}
