//! A generic deep Q-network over per-action feature vectors.
//!
//! Combinatorial action spaces (pick a node, swap a subgraph member) are
//! naturally featurized per action, so the Q function is
//! `Q(s, a) = MLP([state_features | action_features])`, scored for every
//! currently valid action. The agent owns online and target parameter
//! stores; training follows standard DQN with a synced target network.

use mcpb_nn::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One environment transition.
#[derive(Debug, Clone)]
pub struct Transition {
    /// State features when the action was taken.
    pub state: Vec<f32>,
    /// Features of the chosen action.
    pub action: Vec<f32>,
    /// Immediate reward.
    pub reward: f32,
    /// Next-state features.
    pub next_state: Vec<f32>,
    /// Features of every action available in the next state, one
    /// `action_dim` row per action, row-major (empty when terminal).
    pub next_actions: Vec<f32>,
    /// Whether the episode ended at the next state.
    pub done: bool,
}

/// DQN hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct DqnConfig {
    /// State feature dimension.
    pub state_dim: usize,
    /// Action feature dimension.
    pub action_dim: usize,
    /// Discount factor.
    pub gamma: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Environment steps between target-network syncs.
    pub target_sync: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Hidden width of the two-layer Q head.
const HIDDEN: usize = 24;

/// The agent: online + target Q networks and an Adam optimizer.
pub struct DqnAgent {
    cfg: DqnConfig,
    online: ParamStore,
    target: ParamStore,
    net: Mlp,
    optimizer: Adam,
    /// Gradient steps taken so far.
    pub steps: usize,
    rng: ChaCha8Rng,
}

impl DqnAgent {
    /// Builds the agent. Online and target stores register the identical
    /// network so parameter ids are interchangeable between them.
    pub fn new(cfg: DqnConfig) -> Self {
        let dims = [cfg.state_dim + cfg.action_dim, HIDDEN, HIDDEN, 1];
        let mut online = ParamStore::new(cfg.seed);
        let net = Mlp::new(&mut online, "q", &dims, Activation::Relu);
        let mut target = ParamStore::new(cfg.seed ^ 0xdead_beef);
        let _ = Mlp::new(&mut target, "q", &dims, Activation::Relu);
        target.copy_values_from(&online);
        Self {
            optimizer: Adam::new(cfg.lr),
            rng: ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x5eed),
            online,
            target,
            net,
            cfg,
            steps: 0,
        }
    }

    /// Config in effect.
    pub fn config(&self) -> &DqnConfig {
        &self.cfg
    }

    fn batch_input(&self, state: &[f32], actions: &[f32]) -> Tensor {
        let d = self.cfg.state_dim + self.cfg.action_dim;
        debug_assert_eq!(actions.len() % self.cfg.action_dim, 0, "action width");
        let mut t = Tensor::zeros(actions.len() / self.cfg.action_dim, d);
        let rows = t.data.chunks_exact_mut(d);
        for (row, a) in rows.zip(actions.chunks_exact(self.cfg.action_dim)) {
            row[..self.cfg.state_dim].copy_from_slice(state);
            row[self.cfg.state_dim..].copy_from_slice(a);
        }
        t
    }

    /// Q values off the tape; only `train_batch`'s online forward needs one.
    fn q_with(&self, store: &ParamStore, state: &[f32], actions: &[f32]) -> Vec<f32> {
        self.net.eval(store, self.batch_input(state, actions)).data
    }

    /// Online-network Q values for every action; `actions` holds one
    /// `action_dim` feature row per action, row-major.
    pub fn q_values(&self, state: &[f32], actions: &[f32]) -> Vec<f32> {
        self.q_with(&self.online, state, actions)
    }

    /// Epsilon-greedy choice among the rows of `actions` (as in
    /// [`DqnAgent::q_values`]); returns the chosen row index.
    pub fn select_action(&mut self, state: &[f32], actions: &[f32], epsilon: f64) -> usize {
        let count = actions.len() / self.cfg.action_dim;
        assert!(count > 0, "no actions available");
        if self.rng.gen::<f64>() < epsilon {
            return self.rng.gen_range(0..count);
        }
        let q = self.q_values(state, actions);
        argmax(&q)
    }

    /// One gradient step on a minibatch; returns the TD loss.
    pub fn train_batch(&mut self, batch: &[&Transition]) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        // TD targets from the target network.
        let targets: Vec<f32> = batch
            .iter()
            .map(|t| {
                if t.done || t.next_actions.is_empty() {
                    t.reward
                } else {
                    let q = self.q_with(&self.target, &t.next_state, &t.next_actions);
                    let max = q.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    t.reward + self.cfg.gamma * max
                }
            })
            .collect();

        // Online forward on the taken (state, action) pairs.
        let d = self.cfg.state_dim + self.cfg.action_dim;
        let mut input = Tensor::zeros(batch.len(), d);
        for (r, t) in batch.iter().enumerate() {
            let row = &mut input.data[r * d..(r + 1) * d];
            row[..self.cfg.state_dim].copy_from_slice(&t.state);
            row[self.cfg.state_dim..].copy_from_slice(&t.action);
        }
        let mut tape = Tape::new();
        let x = tape.input(input);
        let q = self.net.forward(&mut tape, &self.online, x);
        let loss = tape.huber_loss(q, Tensor::column(&targets), 1.0);
        tape.backward(loss);
        let grads = tape.param_grads();
        self.optimizer.step(&mut self.online, &grads);
        self.steps += 1;
        if self.steps % self.cfg.target_sync == 0 {
            self.sync_target();
        }
        tape.value(loss).item()
    }

    /// Copies online weights into the target network.
    pub fn sync_target(&mut self) {
        self.target.copy_values_from(&self.online);
    }

    /// Clones the online parameters (for divergence rollback points).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.online.snapshot()
    }

    /// Restores online parameters from a [`DqnAgent::snapshot`] and re-syncs
    /// the target network so both sides agree on the rolled-back weights.
    pub fn restore(&mut self, snapshot: &[Tensor]) {
        self.online.load_snapshot(snapshot);
        self.sync_target();
    }

    /// Scales the learning rate (divergence recovery halves it) and returns
    /// the new value.
    pub fn scale_lr(&mut self, factor: f32) -> f32 {
        self.optimizer.lr *= factor;
        self.optimizer.lr
    }
}

/// Index of the maximum value (first on ties).
pub fn argmax(values: &[f32]) -> usize {
    assert!(!values.is_empty(), "argmax of empty slice");
    let mut best = 0usize;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::ReplayBuffer;
    use crate::schedule::EpsilonSchedule;

    /// A 5-position line world: move left/right, reward 1 at the right end.
    struct LineWorld {
        pos: i32,
        steps: usize,
    }

    impl LineWorld {
        fn reset(&mut self) -> Vec<f32> {
            self.pos = 2;
            self.steps = 0;
            self.state_features()
        }
        fn state_features(&self) -> Vec<f32> {
            let mut f = vec![0.0; 5];
            f[self.pos as usize] = 1.0;
            f
        }
        fn action_features(&self) -> Vec<f32> {
            vec![1.0, 0.0, 0.0, 1.0] // left, right
        }
        fn step(&mut self, idx: usize) -> (f32, bool) {
            self.pos = (self.pos + if idx == 0 { -1 } else { 1 }).clamp(0, 4);
            self.steps += 1;
            if self.pos == 4 {
                (1.0, true)
            } else if self.steps >= 20 {
                (0.0, true)
            } else {
                (-0.01, false)
            }
        }
    }

    /// Plain episodic DQN training on `env` from a 500-transition replay
    /// buffer in minibatches of 16; returns each episode's total reward.
    fn train_line_world(env: &mut LineWorld, agent: &mut DqnAgent, episodes: usize) -> Vec<f32> {
        const BATCH: usize = 16;
        let schedule = EpsilonSchedule::standard(400);
        let mut replay: ReplayBuffer<Transition> = ReplayBuffer::new(500);
        let mut rng = ChaCha8Rng::seed_from_u64(agent.cfg.seed ^ 0x7ea7);
        let mut rewards = Vec::with_capacity(episodes);
        let mut global_step = 0usize;
        for _ in 0..episodes {
            let mut state = env.reset();
            let mut total_reward = 0.0f32;
            loop {
                let actions = env.action_features();
                let idx = agent.select_action(&state, &actions, schedule.value(global_step));
                let (reward, done) = env.step(idx);
                let next_state = env.state_features();
                replay.push(Transition {
                    state,
                    action: actions[idx * 2..idx * 2 + 2].to_vec(),
                    reward,
                    next_state: next_state.clone(),
                    next_actions: if done {
                        Vec::new()
                    } else {
                        env.action_features()
                    },
                    done,
                });
                total_reward += reward;
                global_step += 1;
                if replay.len() >= BATCH {
                    let batch = replay.sample(BATCH, &mut rng);
                    agent.train_batch(&batch);
                }
                state = next_state;
                if done {
                    break;
                }
            }
            rewards.push(total_reward);
        }
        rewards
    }

    fn agent_for_lineworld() -> DqnAgent {
        DqnAgent::new(DqnConfig {
            state_dim: 5,
            action_dim: 2,
            gamma: 0.9,
            lr: 5e-3,
            target_sync: 50,
            seed: 3,
        })
    }

    #[test]
    fn dqn_learns_line_world() {
        let mut env = LineWorld { pos: 2, steps: 0 };
        let mut agent = agent_for_lineworld();
        let rewards = train_line_world(&mut env, &mut agent, 120);
        // Greedy rollout after training should walk straight right.
        let mut state = env.reset();
        let mut steps = 0;
        loop {
            let actions = env.action_features();
            let q = agent.q_values(&state, &actions);
            let idx = argmax(&q);
            let (_, done) = env.step(idx);
            state = env.state_features();
            steps += 1;
            if done || steps > 20 {
                break;
            }
        }
        assert_eq!(env.pos, 4, "agent should reach the goal greedily");
        assert!(steps <= 3, "optimal path is 2 steps, took {steps}");
        // Later episodes should outperform the earliest ones on average.
        let early: f32 = rewards[..20].iter().sum::<f32>() / 20.0;
        let late: f32 = rewards[rewards.len() - 20..].iter().sum::<f32>() / 20.0;
        assert!(late > early, "late {late} <= early {early}");
    }

    #[test]
    fn q_values_shape_and_select() {
        let mut agent = agent_for_lineworld();
        let state = vec![0.0; 5];
        let actions = vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        assert_eq!(agent.q_values(&state, &actions).len(), 3);
        let idx = agent.select_action(&state, &actions, 0.0);
        assert!(idx < 3);
        // Fully random still returns valid indices.
        for _ in 0..10 {
            assert!(agent.select_action(&state, &actions, 1.0) < 3);
        }
    }

    #[test]
    fn q_values_match_the_tape_bit_for_bit() {
        let agent = agent_for_lineworld();
        let state = vec![0.5, -1.0, 0.0, 2.0, -0.25];
        assert!(agent.q_values(&state, &[]).is_empty());
        let actions: Vec<f32> = (0..14).map(|i| (i as f32 - 6.5) * 0.4).collect();
        let mut tape = Tape::new();
        let x = tape.input(agent.batch_input(&state, &actions));
        let q = agent.net.forward(&mut tape, &agent.online, x);
        let eager: Vec<u32> = agent
            .q_values(&state, &actions)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let taped: Vec<u32> = tape.value(q).data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(eager, taped);
    }

    #[test]
    fn terminal_transitions_use_raw_reward() {
        let mut agent = agent_for_lineworld();
        let t = Transition {
            state: vec![0.0; 5],
            action: vec![1.0, 0.0],
            reward: 2.5,
            next_state: vec![0.0; 5],
            next_actions: Vec::new(),
            done: true,
        };
        // Should not panic despite empty next_actions, and loss is finite.
        let loss = agent.train_batch(&[&t]);
        assert!(loss.is_finite());
    }

    #[test]
    fn argmax_ties_break_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut agent = agent_for_lineworld();
        assert_eq!(agent.train_batch(&[]), 0.0);
        assert_eq!(agent.steps, 0);
    }
}
