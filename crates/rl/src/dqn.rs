//! Deep Q-Network (Mnih et al., 2013) for small discrete action spaces.
//!
//! The paper selects DDPG for Lerp because it "has been shown to be more
//! effective compared with the classic models such as DQN" (§5.1.4). To
//! make that claim testable in this reproduction, we also provide a DQN
//! agent over the discrete `ΔK ∈ {-1, 0, +1}` action space; the ablation
//! benchmark compares the two as Lerp's inner learner.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adam::Adam;
use crate::nn::{Activation, Mlp};
use crate::replay::{ReplayBuffer, Transition};

/// Hyperparameters of a DQN agent.
#[derive(Debug, Clone, PartialEq)]
pub struct DqnConfig {
    /// State vector dimension.
    pub state_dim: usize,
    /// Number of discrete actions.
    pub n_actions: usize,
    /// Hidden layer sizes (paper-style default 3×128).
    pub hidden: Vec<usize>,
    /// Learning rate.
    pub lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Polyak coefficient for the target network.
    pub tau: f32,
    /// Training batch size.
    pub batch_size: usize,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Minimum replay size before training.
    pub warmup: usize,
    /// Initial ε for ε-greedy action selection.
    pub epsilon: f32,
    /// Multiplicative ε decay applied per `act_explore`.
    pub epsilon_decay: f32,
    /// ε floor.
    pub epsilon_min: f32,
    /// RNG seed.
    pub seed: u64,
}

impl DqnConfig {
    /// Paper-style default architecture.
    pub fn paper_default(state_dim: usize, n_actions: usize) -> Self {
        Self {
            state_dim,
            n_actions,
            hidden: vec![128, 128, 128],
            lr: 1e-3,
            gamma: 0.6,
            tau: 0.01,
            batch_size: 32,
            replay_capacity: 4096,
            warmup: 32,
            epsilon: 0.4,
            epsilon_decay: 0.995,
            epsilon_min: 0.03,
            seed: 42,
        }
    }
}

/// A DQN agent with a target network and uniform replay.
pub struct Dqn {
    cfg: DqnConfig,
    q: Mlp,
    target: Mlp,
    adam: Adam,
    replay: ReplayBuffer,
    rng: StdRng,
    epsilon: f32,
    train_steps: u64,
    /// Per-sample rewards and taken actions, and the `[n_actions][batch]`
    /// loss gradient; reused across training steps.
    reward: Vec<f32>,
    taken: Vec<usize>,
    grad: Vec<f32>,
}

impl Dqn {
    /// Creates an agent.
    pub fn new(cfg: DqnConfig) -> Self {
        assert!(cfg.state_dim > 0 && cfg.n_actions >= 2);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut dims = vec![cfg.state_dim];
        dims.extend(&cfg.hidden);
        dims.push(cfg.n_actions);
        let q = Mlp::new(&dims, Activation::Relu, Activation::Identity, &mut rng);
        let mut target = Mlp::new(&dims, Activation::Relu, Activation::Identity, &mut rng);
        target.copy_from(&q);
        let adam = Adam::new(q.param_count(), cfg.lr);
        let replay = ReplayBuffer::new(cfg.replay_capacity);
        let epsilon = cfg.epsilon;
        Self {
            cfg,
            q,
            target,
            adam,
            replay,
            rng,
            epsilon,
            train_steps: 0,
            reward: Vec::new(),
            taken: Vec::new(),
            grad: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DqnConfig {
        &self.cfg
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f32 {
        self.epsilon
    }

    /// Resets exploration (workload shift).
    pub fn reset_epsilon(&mut self) {
        self.epsilon = self.cfg.epsilon;
    }

    /// Number of gradient steps taken.
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    /// Stored experience count.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Drops replayed experience.
    pub fn clear_replay(&mut self) {
        self.replay.clear();
    }

    /// Greedy action: `argmax_a Q(s, a)`.
    pub fn act(&mut self, state: &[f32]) -> usize {
        let qs = self.q.forward(state);
        argmax(&qs)
    }

    /// ε-greedy action.
    pub fn act_explore(&mut self, state: &[f32]) -> usize {
        let a = if self.rng.gen::<f32>() < self.epsilon {
            self.rng.gen_range(0..self.cfg.n_actions)
        } else {
            self.act(state)
        };
        self.epsilon = (self.epsilon * self.cfg.epsilon_decay).max(self.cfg.epsilon_min);
        a
    }

    /// Stores an experience sample. The action index is carried in
    /// `Transition::action[0]` (as a float).
    ///
    /// # Panics
    /// If a state does not have the configured dimension or the action is
    /// out of range.
    pub fn observe(&mut self, state: Vec<f32>, action: usize, reward: f32, next_state: Vec<f32>) {
        let sd = self.cfg.state_dim;
        assert!(
            state.len() == sd && next_state.len() == sd && action < self.cfg.n_actions,
            "transition has {} state and {} next-state values and action {action}, the agent takes {sd}, {sd} and an action below {}",
            state.len(),
            next_state.len(),
            self.cfg.n_actions
        );
        self.replay.push(Transition {
            state,
            action: vec![action as f32],
            reward,
            next_state,
            done: false,
        });
    }

    /// One TD(0) gradient step on a sampled batch; `None` before warmup.
    pub fn train_step(&mut self) -> Option<f32> {
        if self.replay.len() < self.cfg.warmup.max(1) {
            return None;
        }
        let k = self.cfg.batch_size;
        let n = k as f32;
        // Pack the batch feature-major straight into the networks' inputs.
        self.reward.resize(k, 0.0);
        self.taken.resize(k, 0);
        let s_next = self.target.input_mut(k);
        let s = self.q.input_mut(k);
        for (b, t) in self.replay.sample(&mut self.rng, k).enumerate() {
            for (i, (&x, &x2)) in t.state.iter().zip(&t.next_state).enumerate() {
                s[i * k + b] = x;
                s_next[i * k + b] = x2;
            }
            self.reward[b] = t.reward;
            self.taken[b] = t.action[0] as usize;
        }
        let q_next = self.target.forward_batch();
        let qs = self.q.forward_batch();
        // Gradient only flows through the taken action's Q-value.
        self.grad.clear();
        self.grad.resize(self.cfg.n_actions * k, 0.0);
        let mut loss = 0.0f32;
        for b in 0..k {
            let max_next = q_next[b..]
                .iter()
                .step_by(k)
                .copied()
                .fold(f32::NEG_INFINITY, f32::max);
            let y = self.reward[b] + self.cfg.gamma * max_next;
            let taken = self.taken[b] * k + b;
            let td = qs[taken] - y;
            loss += td * td;
            self.grad[taken] = 2.0 * td;
        }
        self.q.zero_grad();
        self.q.accumulate_grads(&self.grad);
        self.adam.step(&mut self.q, 1.0 / n);
        self.target.soft_update_from(&self.q, self.cfg.tau);
        self.train_steps += 1;
        Some(loss / n)
    }
}

fn argmax(xs: &[f32]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seed: u64) -> DqnConfig {
        DqnConfig {
            hidden: vec![32, 32],
            warmup: 64,
            gamma: 0.0,
            seed,
            ..DqnConfig::paper_default(1, 3)
        }
    }

    #[test]
    fn argmax_works() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
    }

    #[test]
    fn argmax_survives_a_nan_q_value() {
        // A diverged network must not take the tuner down with it.
        assert_eq!(argmax(&[1.0, f32::NAN, 2.0]), 1);
        assert_eq!(argmax(&[f32::NAN, f32::NAN]), 1);
        assert_eq!(argmax(&[-f32::NAN, 0.5]), 1);
    }

    #[test]
    #[should_panic(expected = "transition has 1 state and 3 next-state values and action 0")]
    fn observe_rejects_a_wrong_length_state_in_every_build() {
        let mut agent = Dqn::new(small_cfg(1));
        agent.observe(vec![0.0], 0, 0.0, vec![0.0; 3]);
    }

    #[test]
    fn no_training_before_warmup() {
        let mut agent = Dqn::new(small_cfg(1));
        assert!(agent.train_step().is_none());
        for _ in 0..64 {
            agent.observe(vec![0.0], 0, 0.0, vec![0.0]);
        }
        assert!(agent.train_step().is_some());
        assert_eq!(agent.train_steps(), 1);
    }

    #[test]
    fn solves_contextual_bandit() {
        // Best action flips with the sign of the state.
        let mut agent = Dqn::new(small_cfg(5));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..3000 {
            let s = if rng.gen::<bool>() { 0.8f32 } else { -0.8 };
            let a = agent.act_explore(&[s]);
            let best = if s > 0.0 { 2 } else { 0 };
            let r = if a == best { 1.0 } else { -1.0 };
            agent.observe(vec![s], a, r, vec![s]);
            agent.train_step();
        }
        assert_eq!(agent.act(&[0.8]), 2);
        assert_eq!(agent.act(&[-0.8]), 0);
    }

    #[test]
    fn epsilon_decays_to_floor() {
        let mut agent = Dqn::new(small_cfg(1));
        for _ in 0..5000 {
            agent.act_explore(&[0.0]);
        }
        assert!((agent.epsilon() - agent.config().epsilon_min).abs() < 1e-6);
        agent.reset_epsilon();
        assert_eq!(agent.epsilon(), agent.config().epsilon);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut agent = Dqn::new(small_cfg(seed));
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..300 {
                let s = rng.gen::<f32>();
                let a = agent.act_explore(&[s]);
                agent.observe(vec![s], a, -(a as f32), vec![s]);
                agent.train_step();
            }
            agent.act(&[0.5])
        };
        assert_eq!(run(7), run(7));
    }
}
