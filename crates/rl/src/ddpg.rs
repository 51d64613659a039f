//! Deep Deterministic Policy Gradient (Lillicrap et al., 2015).
//!
//! The paper selects DDPG for Lerp because it "has been shown to be more
//! effective compared with the classic models such as DQN" (§5.1.4). This
//! implementation follows the original algorithm: a deterministic actor
//! `μ(s)`, a critic `Q(s, a)`, target copies of both tracked by Polyak
//! averaging, uniform experience replay, and OU exploration noise.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adam::Adam;
use crate::nn::{Activation, Mlp};
use crate::noise::OuNoise;
use crate::replay::{ReplayBuffer, Transition};

/// Actor learning rate: our choice (Lillicrap et al. use 1e-4; the paper gives none).
const ACTOR_LR: f32 = 1e-3;
/// Critic learning rate: our choice, Lillicrap et al.'s value (the paper gives none).
const CRITIC_LR: f32 = 1e-3;
/// Polyak coefficient τ: our choice, 10× Lillicrap et al.'s, so targets track a short tuning phase.
const TAU: f32 = 0.01;
/// Replay capacity: our choice, above the one-per-mission transitions of a tuning phase.
const REPLAY_CAPACITY: usize = 4096;

/// Hyperparameters of a DDPG agent.
#[derive(Debug, Clone, PartialEq)]
pub struct DdpgConfig {
    /// State vector dimension.
    pub state_dim: usize,
    /// Action vector dimension (actions live in `[-1, 1]^d`).
    pub action_dim: usize,
    /// Hidden layer sizes; the paper uses three layers of 128 ReLU units.
    pub hidden: Vec<usize>,
    /// Discount factor γ.
    pub gamma: f32,
    /// Training batch size.
    pub batch_size: usize,
    /// Minimum replay size before training starts.
    pub warmup: usize,
    /// RNG seed (sampling, init, exploration).
    pub seed: u64,
    /// Initial OU noise volatility.
    pub noise_sigma: f32,
}

impl DdpgConfig {
    /// The paper's architecture with sensible DDPG defaults for the rest.
    pub fn paper_default(state_dim: usize, action_dim: usize) -> Self {
        Self {
            state_dim,
            action_dim,
            hidden: vec![128, 128, 128],
            gamma: 0.9,
            batch_size: 32,
            warmup: 32,
            seed: 42,
            noise_sigma: 0.2,
        }
    }
}

/// Diagnostics of one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainMetrics {
    /// Mean squared TD error of the critic batch.
    pub critic_loss: f32,
    /// Mean `-Q(s, μ(s))` over the actor batch (lower is better).
    pub actor_loss: f32,
}

/// A DDPG agent.
pub struct Ddpg {
    cfg: DdpgConfig,
    actor: Mlp,
    critic: Mlp,
    target_actor: Mlp,
    target_critic: Mlp,
    adam_actor: Adam,
    adam_critic: Adam,
    replay: ReplayBuffer,
    noise: OuNoise,
    rng: StdRng,
    batch: BatchBuf,
}

/// The sampled batch packed feature-major (`[dim][batch]`), reused across
/// training steps.
#[derive(Default)]
struct BatchBuf {
    /// `[s, a]` rows; the leading `state_dim` rows are `[s]` on their own.
    sa: Vec<f32>,
    /// `[s']` rows.
    s2: Vec<f32>,
    reward: Vec<f32>,
    done: Vec<bool>,
    /// Loss gradient at a network's output.
    grad: Vec<f32>,
}

impl Ddpg {
    /// Creates an agent from a configuration.
    pub fn new(cfg: DdpgConfig) -> Self {
        assert!(cfg.state_dim > 0 && cfg.action_dim > 0);
        assert!((0.0..=1.0).contains(&cfg.gamma));
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut actor_dims = vec![cfg.state_dim];
        actor_dims.extend(&cfg.hidden);
        actor_dims.push(cfg.action_dim);
        let mut critic_dims = vec![cfg.state_dim + cfg.action_dim];
        critic_dims.extend(&cfg.hidden);
        critic_dims.push(1);

        let actor = Mlp::new(&actor_dims, Activation::Relu, Activation::Tanh, &mut rng);
        let critic = Mlp::new(
            &critic_dims,
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let mut target_actor = Mlp::new(&actor_dims, Activation::Relu, Activation::Tanh, &mut rng);
        let mut target_critic = Mlp::new(
            &critic_dims,
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        target_actor.copy_from(&actor);
        target_critic.copy_from(&critic);

        let adam_actor = Adam::new(actor.param_count(), ACTOR_LR);
        let adam_critic = Adam::new(critic.param_count(), CRITIC_LR);
        let replay = ReplayBuffer::new(REPLAY_CAPACITY);
        let mut noise = OuNoise::standard(cfg.action_dim);
        noise.set_sigma(cfg.noise_sigma);

        Self {
            cfg,
            actor,
            critic,
            target_actor,
            target_critic,
            adam_actor,
            adam_critic,
            replay,
            noise,
            rng,
            batch: BatchBuf::default(),
        }
    }

    /// Number of stored experience samples.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Deterministic (greedy) action `μ(s) ∈ [-1,1]^d`.
    pub fn act(&mut self, state: &[f32]) -> Vec<f32> {
        self.actor.forward(state)
    }

    /// Exploratory action: `clip(μ(s) + OU noise, -1, 1)`.
    pub fn act_explore(&mut self, state: &[f32]) -> Vec<f32> {
        self.act_both(state).1
    }

    /// The greedy action `μ(s)` and the exploratory action derived from it,
    /// from one actor forward pass.
    pub fn act_both(&mut self, state: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let greedy = self.actor.forward(state);
        let noise = self.noise.next(&mut self.rng);
        let explored = greedy
            .iter()
            .zip(noise)
            .map(|(a, n)| (a + n).clamp(-1.0, 1.0))
            .collect();
        (greedy, explored)
    }

    /// Scales exploration noise (decay schedules, workload-shift restarts).
    pub fn set_noise_sigma(&mut self, sigma: f32) {
        self.noise.set_sigma(sigma);
    }

    /// Current exploration volatility.
    pub fn noise_sigma(&self) -> f32 {
        self.noise.sigma()
    }

    /// Stores an experience sample.
    ///
    /// # Panics
    /// If a vector of the transition does not have the configured dimension.
    pub fn observe(&mut self, t: Transition) {
        let (sd, ad) = (self.cfg.state_dim, self.cfg.action_dim);
        assert!(
            t.state.len() == sd && t.action.len() == ad && t.next_state.len() == sd,
            "transition has {} state, {} action and {} next-state values, the agent takes {sd}, {ad} and {sd}",
            t.state.len(),
            t.action.len(),
            t.next_state.len()
        );
        self.replay.push(t);
    }

    /// Drops replayed experience (called when the workload shifts so stale
    /// samples no longer describe the environment).
    pub fn clear_replay(&mut self) {
        self.replay.clear();
        self.noise.reset();
    }

    /// One DDPG gradient step on a sampled batch; `None` until the replay
    /// buffer reaches the warmup size.
    pub fn train_step(&mut self) -> Option<TrainMetrics> {
        if self.replay.len() < self.cfg.warmup.max(1) {
            return None;
        }
        let k = self.cfg.batch_size;
        let (sd, ad) = (self.cfg.state_dim, self.cfg.action_dim);
        let n = k as f32;
        let buf = &mut self.batch;
        buf.sa.resize((sd + ad) * k, 0.0);
        buf.s2.resize(sd * k, 0.0);
        buf.reward.resize(k, 0.0);
        buf.done.resize(k, false);
        buf.grad.resize(k, 0.0);
        for (b, t) in self.replay.sample(&mut self.rng, k).enumerate() {
            for (i, (&s, &s2)) in t.state.iter().zip(&t.next_state).enumerate() {
                buf.sa[i * k + b] = s;
                buf.s2[i * k + b] = s2;
            }
            for (i, &a) in t.action.iter().enumerate() {
                buf.sa[(sd + i) * k + b] = a;
            }
            buf.reward[b] = t.reward;
            buf.done[b] = t.done;
        }
        let states = sd * k; // the `[s]` rows of an `[s, a]` buffer

        // ---- Critic update: minimize (Q(s,a) − y)², y = r + γ Q'(s',μ'(s')).
        self.target_actor.input_mut(k).copy_from_slice(&buf.s2);
        let a_next = self.target_actor.forward_batch();
        let sa_next = self.target_critic.input_mut(k);
        sa_next[..states].copy_from_slice(&buf.s2);
        sa_next[states..].copy_from_slice(a_next);
        let q_next = self.target_critic.forward_batch();
        self.critic.input_mut(k).copy_from_slice(&buf.sa);
        let q = self.critic.forward_batch();
        let mut critic_loss = 0.0f32;
        for b in 0..k {
            let bootstrap = if buf.done[b] {
                0.0
            } else {
                self.cfg.gamma * q_next[b]
            };
            let td = q[b] - (buf.reward[b] + bootstrap);
            critic_loss += td * td;
            buf.grad[b] = 2.0 * td;
        }
        self.critic.zero_grad();
        self.critic.accumulate_grads(&buf.grad);
        self.adam_critic.step(&mut self.critic, 1.0 / n);
        critic_loss /= n;

        // ---- Actor update: maximize Q(s, μ(s)) — gradient ascent through
        // the critic's input gradient w.r.t. the action. The critic's own
        // parameter gradients are not formed, so it cannot drift here.
        self.actor.input_mut(k).copy_from_slice(&buf.sa[..states]);
        let a = self.actor.forward_batch();
        let sa = self.critic.input_mut(k);
        sa[..states].copy_from_slice(&buf.sa[..states]);
        sa[states..].copy_from_slice(a);
        let mut actor_loss = 0.0f32;
        for &q in self.critic.forward_batch() {
            actor_loss += -q;
        }
        // dL/dQ = -1 (ascent); critic input grad gives dQ/d[s,a].
        buf.grad.fill(-1.0);
        let g_in = self.critic.input_grads(&buf.grad);
        self.actor.zero_grad();
        self.actor.accumulate_grads(&g_in[states..]);
        self.adam_actor.step(&mut self.actor, 1.0 / n);
        actor_loss /= n;

        // ---- Target tracking.
        self.target_actor.soft_update_from(&self.actor, TAU);
        self.target_critic.soft_update_from(&self.critic, TAU);

        Some(TrainMetrics {
            critic_loss,
            actor_loss,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{oracle, Tier};
    use rand::Rng;

    impl Ddpg {
        /// Gradient steps taken: the actor's optimiser steps once a step.
        fn train_steps(&self) -> u64 {
            self.adam_actor.steps()
        }

        /// The training step the batched one replaced: one sample at a time
        /// through the per-sample oracle, on textbook Adam. Same batch, same
        /// RNG draws.
        fn train_step_oracle(&mut self) -> Option<TrainMetrics> {
            if self.replay.len() < self.cfg.warmup.max(1) {
                return None;
            }
            let batch: Vec<Transition> = self
                .replay
                .sample(&mut self.rng, self.cfg.batch_size)
                .cloned()
                .collect();
            let n = batch.len() as f32;

            self.critic.zero_grad();
            let mut critic_loss = 0.0f32;
            for t in &batch {
                let a_next = oracle::forward(&self.target_actor, &t.next_state);
                let sa_next = [&t.next_state[..], a_next.output()].concat();
                let q_next = oracle::forward(&self.target_critic, &sa_next).output()[0];
                let y = t.reward + if t.done { 0.0 } else { self.cfg.gamma * q_next };

                let tape = oracle::forward(&self.critic, &[&t.state[..], &t.action].concat());
                let td = tape.output()[0] - y;
                critic_loss += td * td;
                oracle::backward(&mut self.critic, &tape, &[2.0 * td]);
            }
            self.adam_critic.step_unflushed(&mut self.critic, 1.0 / n);
            critic_loss /= n;

            self.actor.zero_grad();
            let mut actor_loss = 0.0f32;
            for t in &batch {
                let actor_tape = oracle::forward(&self.actor, &t.state);
                let sa = [&t.state[..], actor_tape.output()].concat();
                let critic_tape = oracle::forward(&self.critic, &sa);
                actor_loss += -critic_tape.output()[0];
                let g_in = oracle::backward(&mut self.critic, &critic_tape, &[-1.0]);
                oracle::backward(&mut self.actor, &actor_tape, &g_in[self.cfg.state_dim..]);
            }
            self.adam_actor.step_unflushed(&mut self.actor, 1.0 / n);
            actor_loss /= n;

            self.target_actor.soft_update_from(&self.actor, TAU);
            self.target_critic.soft_update_from(&self.critic, TAU);
            Some(TrainMetrics {
                critic_loss,
                actor_loss,
            })
        }

        fn param_bits(&mut self) -> Vec<u32> {
            let nets = [
                &mut self.actor,
                &mut self.critic,
                &mut self.target_actor,
                &mut self.target_critic,
            ];
            nets.into_iter()
                .flat_map(|net| net.params_and_grads().0.iter().map(|p| p.to_bits()))
                .collect()
        }

        fn subnormal_moments(&self) -> usize {
            [&self.adam_actor, &self.adam_critic]
                .into_iter()
                .flat_map(|adam| {
                    let (m, v) = adam.moments();
                    m.iter().chain(v)
                })
                .filter(|x| x.is_subnormal())
                .count()
        }
    }

    #[test]
    fn moments_never_go_subnormal_and_the_flush_is_invisible() {
        // Feature 3 carries signal for 200 steps and is exactly zero from
        // then on, so every first-layer weight reading it (and every unit
        // that dies on the way) has an exactly-zero gradient for the
        // remaining 1600 steps: its first moment decays as 0.9^t through
        // the subnormal range.
        let cfg = DdpgConfig {
            hidden: vec![24, 24],
            batch_size: 16,
            warmup: 16,
            seed: 5,
            ..DdpgConfig::paper_default(4, 1)
        };
        let mut agent = Ddpg::new(cfg.clone());
        let mut reference = Ddpg::new(cfg);
        let mut env = StdRng::seed_from_u64(8);
        let mut trained = 0;
        for step in 0..1800 {
            if step == 200 {
                agent.clear_replay();
                reference.clear_replay();
            }
            let state = |env: &mut StdRng| -> Vec<f32> {
                let last = if step < 200 { env.gen::<f32>() } else { 0.0 };
                vec![env.gen(), env.gen::<f32>() - 0.5, env.gen(), last]
            };
            let t = Transition {
                state: state(&mut env),
                action: vec![env.gen::<f32>() * 2.0 - 1.0],
                reward: -env.gen::<f32>(),
                next_state: state(&mut env),
                done: step % 11 == 0,
            };
            agent.observe(t.clone());
            reference.observe(t);
            let got = agent.train_step();
            let want = reference.train_step_oracle();
            let bits = |m: TrainMetrics| (m.critic_loss.to_bits(), m.actor_loss.to_bits());
            assert_eq!(got.map(bits), want.map(bits), "step {step}");
            trained += got.is_some() as usize;
            assert_eq!(agent.subnormal_moments(), 0, "step {step}");
        }
        assert!(trained >= 1500);
        assert!(
            reference.subnormal_moments() > 0,
            "the problem never drove a textbook moment subnormal: the test is vacuous"
        );
        assert!(agent.param_bits() == reference.param_bits());
    }

    #[test]
    fn every_kernel_tier_trains_the_same_agent_to_the_bit() {
        // Lerp's shape (6 features, one action, 3×128, batch 32), one seed,
        // one environment: only the kernel width differs between the runs.
        let run = |tier: Tier| {
            let cfg = DdpgConfig {
                warmup: 16,
                ..DdpgConfig::paper_default(6, 1)
            };
            let mut agent = Ddpg::new(cfg);
            for net in [
                &mut agent.actor,
                &mut agent.critic,
                &mut agent.target_actor,
                &mut agent.target_critic,
            ] {
                oracle::force_tier(net, tier);
            }
            let mut env = StdRng::seed_from_u64(21);
            let state = |env: &mut StdRng| -> Vec<f32> {
                (0..6)
                    .map(|i| if i % 3 == 2 { 0.0 } else { env.gen() })
                    .collect()
            };
            for step in 0..300 {
                let s = state(&mut env);
                let action = agent.act_explore(&s);
                agent.observe(Transition {
                    reward: -(action[0] - s[0]).abs(),
                    state: s,
                    action,
                    next_state: state(&mut env),
                    done: step % 17 == 0,
                });
                agent.train_step();
            }
            assert!(agent.train_steps() > 250);
            let moments: Vec<u32> = [&agent.adam_actor, &agent.adam_critic]
                .into_iter()
                .flat_map(|adam| {
                    let (m, v) = adam.moments();
                    m.iter().chain(v).map(|x| x.to_bits())
                })
                .collect();
            (agent.param_bits(), moments)
        };
        let tiers = oracle::tiers();
        let want = run(Tier::Portable);
        for &tier in &tiers[1..] {
            assert!(run(tier) == want, "{tier:?} trained a different agent");
        }
    }

    #[test]
    fn act_both_is_act_and_act_explore_from_one_forward() {
        let mut one = Ddpg::new(small_cfg(9));
        let mut two = Ddpg::new(small_cfg(9));
        for i in 0..20 {
            let s = [i as f32 / 10.0 - 1.0];
            let (greedy, explored) = one.act_both(&s);
            assert_eq!(greedy, two.act(&s));
            assert_eq!(explored, two.act_explore(&s));
        }
    }

    #[test]
    #[should_panic(expected = "transition has 2 state, 1 action and 1 next-state values")]
    fn observe_rejects_a_wrong_length_state_in_every_build() {
        let mut agent = Ddpg::new(small_cfg(1));
        agent.observe(Transition {
            state: vec![0.0, 0.0],
            action: vec![0.0],
            reward: 0.0,
            next_state: vec![0.0],
            done: false,
        });
    }

    fn small_cfg(seed: u64) -> DdpgConfig {
        DdpgConfig {
            hidden: vec![32, 32],
            batch_size: 32,
            warmup: 64,
            seed,
            gamma: 0.0, // bandit problems: no bootstrapping needed
            ..DdpgConfig::paper_default(1, 1)
        }
    }

    #[test]
    fn actions_bounded() {
        let mut agent = Ddpg::new(small_cfg(1));
        for i in 0..50 {
            let s = [i as f32 / 25.0 - 1.0];
            for a in agent.act_explore(&s) {
                assert!((-1.0..=1.0).contains(&a));
            }
        }
    }

    #[test]
    fn no_training_before_warmup() {
        let mut agent = Ddpg::new(small_cfg(1));
        assert!(agent.train_step().is_none());
        for _ in 0..63 {
            agent.observe(Transition {
                state: vec![0.0],
                action: vec![0.0],
                reward: 0.0,
                next_state: vec![0.0],
                done: false,
            });
        }
        assert!(agent.train_step().is_none());
        agent.observe(Transition {
            state: vec![0.0],
            action: vec![0.0],
            reward: 0.0,
            next_state: vec![0.0],
            done: false,
        });
        assert!(agent.train_step().is_some());
        assert_eq!(agent.train_steps(), 1);
    }

    #[test]
    fn solves_stateless_bandit() {
        // Reward -(a - 0.5)²: the optimal deterministic action is 0.5.
        let mut agent = Ddpg::new(small_cfg(7));
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..1500 {
            let a = if rng.gen::<f32>() < 0.3 {
                vec![rng.gen::<f32>() * 2.0 - 1.0] // extra uniform exploration
            } else {
                agent.act_explore(&[0.0])
            };
            let r = -(a[0] - 0.5) * (a[0] - 0.5);
            agent.observe(Transition {
                state: vec![0.0],
                action: a,
                reward: r,
                next_state: vec![0.0],
                done: true,
            });
            agent.train_step();
        }
        let a = agent.act(&[0.0])[0];
        assert!((a - 0.5).abs() < 0.15, "learned action {a}, want ~0.5");
    }

    #[test]
    fn solves_state_conditional_bandit() {
        // Optimal action equals the (1-D) state: a*(s) = s.
        let mut agent = Ddpg::new(small_cfg(11));
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..4000 {
            let s = rng.gen::<f32>() * 1.6 - 0.8;
            let a = if rng.gen::<f32>() < 0.3 {
                vec![rng.gen::<f32>() * 2.0 - 1.0]
            } else {
                agent.act_explore(&[s])
            };
            let r = -(a[0] - s) * (a[0] - s);
            agent.observe(Transition {
                state: vec![s],
                action: a,
                reward: r,
                next_state: vec![s],
                done: true,
            });
            agent.train_step();
        }
        let mut max_err = 0.0f32;
        for i in 0..9 {
            let s = -0.8 + 0.2 * i as f32;
            let a = agent.act(&[s])[0];
            max_err = max_err.max((a - s).abs());
        }
        assert!(max_err < 0.3, "policy tracking error {max_err}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut agent = Ddpg::new(small_cfg(seed));
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..200 {
                let s = rng.gen::<f32>();
                let a = agent.act_explore(&[s]);
                agent.observe(Transition {
                    state: vec![s],
                    action: a.clone(),
                    reward: -a[0].abs(),
                    next_state: vec![s],
                    done: false,
                });
                agent.train_step();
            }
            agent.act(&[0.3])[0]
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn the_replay_holds_at_most_4096_transitions() {
        let mut agent = Ddpg::new(small_cfg(1));
        for i in 0..5000 {
            agent.observe(Transition {
                state: vec![i as f32],
                action: vec![0.0],
                reward: 0.0,
                next_state: vec![0.0],
                done: false,
            });
        }
        assert_eq!(agent.replay_len(), 4096);
    }

    #[test]
    fn clear_replay_resets_experience() {
        let mut agent = Ddpg::new(small_cfg(1));
        for _ in 0..10 {
            agent.observe(Transition {
                state: vec![0.0],
                action: vec![0.0],
                reward: 0.0,
                next_state: vec![0.0],
                done: false,
            });
        }
        assert_eq!(agent.replay_len(), 10);
        agent.clear_replay();
        assert_eq!(agent.replay_len(), 0);
    }
}
