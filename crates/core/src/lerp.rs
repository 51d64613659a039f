//! **Lerp** — the Level-based Reinforcement-learning model with policy
//! Propagation (paper §5).
//!
//! Lerp trains one small DDPG agent per *tuned* level; actions are
//! restricted to `ΔK ∈ {-1, 0, +1}` (shrinking the action space from
//! `O(T^L)` to `O(L)`, §5.1.2); the reward mixes the level-based latency
//! `t_i` with the end-to-end latency `t'` as `-(α·t_i + (1−α)·t')`
//! (§5.1.3). Training data comes only from the shallow levels, where
//! feedback is frequent; deep levels are *propagated*:
//!
//! * **Uniform bits-per-key** (Case 1): tune Level 1, then copy its policy
//!   to every level;
//! * **Monkey** (Case 2): tune Level 1, then Level 2, then infer all deeper
//!   levels with Lemma 5.1.
//!
//! Once converged, Lerp watches the workload composition; a shift (§3.1)
//! knocks it out of convergence and it retunes.

use std::time::Instant;

use ruskey_analysis::propagation::{propagate_rounded, uniform_propagation};
use ruskey_rl::{Ddpg, DdpgConfig, Transition};

use crate::state::{level_state, LEVEL_STATE_DIM};
use crate::stats::MissionReport;
use crate::tuner::{action_to_delta, stride_seed, RewardScale, TreeObservation, Tuner};

/// Which Bloom-filter scheme governs propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationScheme {
    /// Case 1: uniform bits-per-key — copy Level 1's policy everywhere.
    Uniform,
    /// Case 2: Monkey — tune Levels 1–2, infer the rest via Lemma 5.1.
    Monkey,
}

/// Lerp hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LerpConfig {
    /// Reward mix weight `α` between level latency and end-to-end latency
    /// (paper §7 sets 1/2).
    pub alpha: f64,
    /// Propagation scheme, matching the tree's Bloom configuration.
    pub scheme: PropagationScheme,
    /// Missions with an unchanged policy before a level counts as
    /// converged.
    pub stability_window: usize,
    /// Minimum missions a level must be tuned before it may converge
    /// (prevents locking in a policy before the agent has trained).
    pub min_tune_missions: usize,
    /// DDPG gradient steps per mission (experience is replayed, so several
    /// steps per environment sample accelerate convergence).
    pub train_steps_per_mission: usize,
    /// Workload-shift detection threshold on the lookup-ratio EMA.
    pub shift_threshold: f64,
    /// EMA coefficient for the lookup-ratio tracker.
    pub gamma_ema_alpha: f64,
    /// Initial exploration noise σ.
    pub initial_noise: f32,
    /// Per-mission multiplicative noise decay.
    pub noise_decay: f32,
    /// Noise floor.
    pub min_noise: f32,
    /// Initial ε for ε-greedy exploration (a uniformly random `ΔK` with
    /// probability ε). Additive noise alone cannot escape a saturated
    /// actor; ε-greedy guarantees coverage of the policy ladder.
    pub epsilon_initial: f32,
    /// Per-mission multiplicative ε decay.
    pub epsilon_decay: f32,
    /// ε floor.
    pub epsilon_min: f32,
    /// Drop replayed experience when the workload shifts.
    pub clear_replay_on_shift: bool,
    /// EMA coefficient for reward smoothing: per-mission costs are spiky
    /// (a deep compaction can cost 10× a normal mission), so the reward is
    /// computed on a short EMA of the mission cost.
    pub reward_smoothing: f64,
    /// DDPG discount factor; policy tuning is close to a contextual bandit,
    /// so a modest discount keeps TD targets low-variance.
    pub rl_gamma: f32,
    /// DDPG seed (agents derive per-level seeds from it).
    pub seed: u64,
}

impl LerpConfig {
    /// Paper-style defaults (3×128 ReLU networks inside DDPG), except
    /// α = 0.85 where the paper uses 1/2 — the comment on `alpha` in the
    /// body says why.
    pub fn paper_default(scheme: PropagationScheme) -> Self {
        Self {
            // The paper uses α = 1/2. At our scaled-down mission size the
            // end-to-end term is dominated by deep-compaction bursts whose
            // period spans many missions, so the level-local term gets a
            // higher weight to keep the per-mission reward informative
            // (`repro ablations` sweeps it: `ablation_alpha`).
            alpha: 0.85,
            scheme,
            stability_window: 15,
            min_tune_missions: 60,
            train_steps_per_mission: 8,
            shift_threshold: 0.12,
            gamma_ema_alpha: 0.25,
            initial_noise: 0.4,
            noise_decay: 0.985,
            min_noise: 0.02,
            epsilon_initial: 0.4,
            epsilon_decay: 0.99,
            epsilon_min: 0.03,
            clear_replay_on_shift: true,
            reward_smoothing: 0.3,
            rl_gamma: 0.6,
            seed: 42,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Tuning agent `agent_idx` (0 tunes Level 1, 1 tunes Level 2).
    Tune { agent_idx: usize },
    /// All tuned levels stable; propagation applied and maintained.
    Converged,
}

/// The Lerp tuning model.
pub struct Lerp {
    cfg: LerpConfig,
    agents: Vec<Ddpg>,
    reward_scales: Vec<RewardScale>,
    phase: Phase,
    /// `(state, action)` awaiting its reward, per agent.
    pending: Option<(Vec<f32>, Vec<f32>)>,
    /// Missions spent tuning the current level.
    missions_in_phase: usize,
    /// Recent *greedy* policy targets (exploration-free preference of the
    /// actor), used for convergence detection.
    greedy_targets: std::collections::VecDeque<u32>,
    /// EMA-smoothed mission cost per agent.
    cost_ema: Vec<Option<f64>>,
    /// Current ε for ε-greedy exploration.
    epsilon: f32,
    /// RNG for ε-greedy draws.
    rng: rand::rngs::StdRng,
    /// Learned policies of tuned levels (filled as levels converge).
    learned: Vec<u32>,
    gamma_ema: Option<f64>,
    gamma_ref: Option<f64>,
    update_ns: u64,
    restarts: u64,
    missions_seen: u64,
}

impl Lerp {
    /// Creates a Lerp model.
    pub fn new(cfg: LerpConfig) -> Self {
        let n_agents = match cfg.scheme {
            PropagationScheme::Uniform => 1,
            PropagationScheme::Monkey => 2,
        };
        let agents = (0..n_agents)
            .map(|i| {
                let mut dc = DdpgConfig::paper_default(LEVEL_STATE_DIM, 1);
                dc.seed = cfg.seed.wrapping_add(i as u64 * 7919);
                dc.noise_sigma = cfg.initial_noise;
                dc.warmup = 16;
                dc.gamma = cfg.rl_gamma;
                Ddpg::new(dc)
            })
            .collect();
        let reward_scales = vec![RewardScale::default(); n_agents];
        use rand::SeedableRng;
        Self {
            cost_ema: vec![None; n_agents],
            epsilon: cfg.epsilon_initial,
            rng: rand::rngs::StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9)),
            cfg,
            agents,
            reward_scales,
            phase: Phase::Tune { agent_idx: 0 },
            pending: None,
            missions_in_phase: 0,
            greedy_targets: std::collections::VecDeque::new(),
            learned: Vec::new(),
            gamma_ema: None,
            gamma_ref: None,
            update_ns: 0,
            restarts: 0,
            missions_seen: 0,
        }
    }

    /// Number of times a workload shift forced retuning.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Number of missions observed.
    pub fn missions_seen(&self) -> u64 {
        self.missions_seen
    }

    /// The policies learned for the tuned shallow levels so far.
    pub fn learned_policies(&self) -> &[u32] {
        &self.learned
    }

    /// The level currently being tuned, or `None` once converged.
    pub fn tuning_level(&self) -> Option<usize> {
        match self.phase {
            Phase::Tune { agent_idx } => Some(agent_idx),
            Phase::Converged => None,
        }
    }

    fn restart(&mut self) {
        self.phase = Phase::Tune { agent_idx: 0 };
        self.pending = None;
        self.missions_in_phase = 0;
        self.greedy_targets.clear();
        self.learned.clear();
        self.gamma_ref = None;
        self.cost_ema.iter_mut().for_each(|c| *c = None);
        self.epsilon = self.cfg.epsilon_initial;
        self.restarts += 1;
        for agent in &mut self.agents {
            agent.set_noise_sigma(self.cfg.initial_noise);
            if self.cfg.clear_replay_on_shift {
                agent.clear_replay();
            }
        }
    }

    /// Desired policy for every materialized level given the learned
    /// shallow policies.
    fn propagated_policies(&self, obs: &TreeObservation) -> Vec<u32> {
        let t = obs.size_ratio;
        let n = obs.level_count;
        match self.cfg.scheme {
            PropagationScheme::Uniform => {
                let k1 = self.learned.first().copied().unwrap_or(1);
                uniform_propagation(k1, t, n)
            }
            PropagationScheme::Monkey => {
                let k1 = self.learned.first().copied().unwrap_or(1);
                let k2 = self.learned.get(1).copied().unwrap_or(k1);
                propagate_rounded(k1, k2, t, n.max(2))[..n].to_vec()
            }
        }
    }

    fn mission_cost(&self, report: &MissionReport, level: usize) -> f64 {
        let t_i = report.level_ns_per_op(level);
        let t_e2e = report.ns_per_op();
        self.cfg.alpha * t_i + (1.0 - self.cfg.alpha) * t_e2e
    }
}

impl Tuner for Lerp {
    fn name(&self) -> String {
        match self.cfg.scheme {
            PropagationScheme::Uniform => "ruskey-lerp".into(),
            PropagationScheme::Monkey => "ruskey-lerp-monkey".into(),
        }
    }

    fn tune(&mut self, report: &MissionReport, obs: &TreeObservation) -> Vec<(usize, u32)> {
        let t0 = Instant::now();
        self.missions_seen += 1;

        // ---- Workload tracking and shift detection (§3.1).
        let g = report.gamma();
        let ema = match self.gamma_ema {
            Some(prev) => {
                let e = (1.0 - self.cfg.gamma_ema_alpha) * prev + self.cfg.gamma_ema_alpha * g;
                self.gamma_ema = Some(e);
                e
            }
            None => {
                self.gamma_ema = Some(g);
                g
            }
        };
        if self.phase == Phase::Converged {
            if let Some(reference) = self.gamma_ref {
                if (ema - reference).abs() > self.cfg.shift_threshold {
                    self.restart();
                }
            }
        }

        let changes = match self.phase {
            Phase::Tune { agent_idx } => {
                let level = agent_idx; // agent i tunes level i
                if level >= obs.level_count {
                    self.update_ns += t0.elapsed().as_nanos() as u64;
                    return Vec::new();
                }
                let state = level_state(report, obs, level);
                let raw_cost = self.mission_cost(report, level);
                // Smooth out compaction bursts before shaping the reward.
                let a = self.cfg.reward_smoothing.clamp(0.01, 1.0);
                let cost = match self.cost_ema[agent_idx] {
                    Some(prev) => {
                        let c = (1.0 - a) * prev + a * raw_cost;
                        self.cost_ema[agent_idx] = Some(c);
                        c
                    }
                    None => {
                        self.cost_ema[agent_idx] = Some(raw_cost);
                        raw_cost
                    }
                };
                let reward = self.reward_scales[agent_idx].reward(cost);

                self.missions_in_phase += 1;
                let agent = &mut self.agents[agent_idx];
                if let Some((s, a)) = self.pending.take() {
                    agent.observe(Transition {
                        state: s,
                        action: a,
                        reward,
                        next_state: state.clone(),
                        done: false,
                    });
                    for _ in 0..self.cfg.train_steps_per_mission.max(1) {
                        agent.train_step();
                    }
                }
                // One actor forward pass yields both the greedy action and,
                // unless ε-greedy overrides it, the exploratory one.
                let (greedy, action) = if rand::Rng::gen::<f32>(&mut self.rng) < self.epsilon {
                    // ε-greedy: a uniformly random ΔK, encoded as a
                    // representative continuous action for the replay.
                    let delta: i32 = rand::Rng::gen_range(&mut self.rng, -1..=1);
                    (agent.act(&state), vec![delta as f32 * 0.8])
                } else {
                    agent.act_both(&state)
                };
                // Convergence is judged on the actor's *greedy* preference
                // (its exploration-free policy target), so ε-greedy and OU
                // noise do not mask a converged policy.
                let current_k = obs.policies[level];
                let greedy_delta = action_to_delta(greedy[0]);
                let greedy_target =
                    (current_k as i64 + greedy_delta as i64).clamp(1, obs.size_ratio as i64) as u32;
                self.greedy_targets.push_back(greedy_target);
                while self.greedy_targets.len() > self.cfg.stability_window {
                    self.greedy_targets.pop_front();
                }

                let sigma = (agent.noise_sigma() * self.cfg.noise_decay).max(self.cfg.min_noise);
                agent.set_noise_sigma(sigma);
                self.epsilon = (self.epsilon * self.cfg.epsilon_decay).max(self.cfg.epsilon_min);

                let delta = action_to_delta(action[0]);
                let new_k =
                    (current_k as i64 + delta as i64).clamp(1, obs.size_ratio as i64) as u32;
                self.pending = Some((state, action));

                let mut out: Vec<(usize, u32)> = if new_k != current_k {
                    vec![(level, new_k)]
                } else {
                    Vec::new()
                };

                // Converged when the greedy targets have stayed within a
                // two-policy band for a full window (the actor's preference
                // stopped moving), after the minimum tuning period.
                let band_stable = self.greedy_targets.len() >= self.cfg.stability_window && {
                    let min = *self.greedy_targets.iter().min().unwrap();
                    let max = *self.greedy_targets.iter().max().unwrap();
                    max - min <= 1
                };
                if band_stable && self.missions_in_phase >= self.cfg.min_tune_missions {
                    // This level converged: adopt the window's median target.
                    let mut sorted: Vec<u32> = self.greedy_targets.iter().copied().collect();
                    sorted.sort_unstable();
                    let learned_k = sorted[sorted.len() / 2];
                    self.learned.push(learned_k);
                    out = vec![(level, learned_k)];
                    self.pending = None;
                    self.missions_in_phase = 0;
                    self.greedy_targets.clear();
                    if self.learned.len() < self.agents.len() {
                        self.phase = Phase::Tune {
                            agent_idx: agent_idx + 1,
                        };
                    } else {
                        self.phase = Phase::Converged;
                        self.gamma_ref = Some(ema);
                        // Transfer the learned policies everywhere.
                        let want = self.propagated_policies(obs);
                        out = want
                            .into_iter()
                            .enumerate()
                            .filter(|&(l, k)| obs.policies.get(l) != Some(&k))
                            .collect();
                    }
                }
                out
            }
            Phase::Converged => {
                // Maintain the propagated layout (covers levels created
                // after convergence).
                self.propagated_policies(obs)
                    .into_iter()
                    .enumerate()
                    .filter(|&(l, k)| obs.policies.get(l) != Some(&k))
                    .collect()
            }
        };

        self.update_ns += t0.elapsed().as_nanos() as u64;
        changes
    }

    fn for_shard(&self, shard: usize) -> Box<dyn Tuner> {
        let mut cfg = self.cfg.clone();
        cfg.seed = stride_seed(cfg.seed, shard);
        Box::new(Lerp::new(cfg))
    }

    fn model_update_ns(&self) -> u64 {
        self.update_ns
    }

    fn converged(&self) -> bool {
        self.phase == Phase::Converged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruskey_lsm::{LevelStatsSnapshot, TreeStatsSnapshot};

    fn obs(policies: Vec<u32>) -> TreeObservation {
        let n = policies.len();
        TreeObservation {
            policies,
            fills: vec![0.5; n],
            run_counts: vec![2; n],
            size_ratio: 10,
            level_count: n,
        }
    }

    /// A synthetic environment: per-op cost is minimized at `k_opt`.
    fn synthetic_report(gamma: f64, policies: &[u32], k_opt: u32) -> MissionReport {
        let k = policies[0] as f64;
        let cost = 1000.0 + 300.0 * (k - k_opt as f64).abs();
        MissionReport {
            ops: 1000,
            window: TreeStatsSnapshot {
                lookups: (1000.0 * gamma) as u64,
                updates: (1000.0 * (1.0 - gamma)) as u64,
                clock_ns: (cost * 1000.0) as u64,
                levels: vec![
                    LevelStatsSnapshot {
                        lookup_ns: (cost * 500.0) as u64,
                        ..Default::default()
                    };
                    policies.len()
                ],
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn drive(lerp: &mut Lerp, policies: &mut [u32], gamma: f64, k_opt: u32, missions: usize) {
        for _ in 0..missions {
            let report = synthetic_report(gamma, policies, k_opt);
            let changes = lerp.tune(&report, &obs(policies.to_vec()));
            for (l, k) in changes {
                if l < policies.len() {
                    policies[l] = k;
                }
            }
            if lerp.converged() {
                break;
            }
        }
    }

    #[test]
    fn starts_tuning_level_one() {
        let lerp = Lerp::new(LerpConfig::paper_default(PropagationScheme::Uniform));
        assert_eq!(lerp.tuning_level(), Some(0));
        assert!(!lerp.converged());
    }

    #[test]
    fn uniform_converges_and_propagates() {
        let mut lerp = Lerp::new(LerpConfig::paper_default(PropagationScheme::Uniform));
        let mut policies = vec![1u32, 1, 1];
        drive(&mut lerp, &mut policies, 0.5, 1, 400);
        assert!(lerp.converged(), "did not converge in 400 missions");
        // Propagation makes all levels share Level 1's learned policy.
        assert!(policies.iter().all(|&k| k == policies[0]), "{policies:?}");
    }

    #[test]
    fn monkey_tunes_two_levels_then_propagates() {
        let mut lerp = Lerp::new(LerpConfig::paper_default(PropagationScheme::Monkey));
        let mut policies = vec![5u32, 5, 5, 5];
        drive(&mut lerp, &mut policies, 0.5, 5, 800);
        assert!(lerp.converged(), "did not converge");
        assert_eq!(lerp.learned_policies().len(), 2);
        // Whatever the RL settled on, the deep levels must follow Lemma 5.1
        // exactly from the two learned policies.
        let k1 = lerp.learned_policies()[0];
        let k2 = lerp.learned_policies()[1];
        let want = ruskey_analysis::propagation::propagate_rounded(k1, k2, 10, 4);
        assert_eq!(
            policies, want,
            "propagated layout mismatch (k1={k1}, k2={k2})"
        );
    }

    #[test]
    fn workload_shift_triggers_restart() {
        let mut lerp = Lerp::new(LerpConfig::paper_default(PropagationScheme::Uniform));
        let mut policies = vec![3u32, 3];
        drive(&mut lerp, &mut policies, 0.9, 3, 400);
        assert!(lerp.converged());
        assert_eq!(lerp.restarts(), 0);
        // Shift read-heavy -> write-heavy; the EMA crosses the threshold
        // within a few missions and Lerp restarts tuning.
        for _ in 0..20 {
            let report = synthetic_report(0.1, &policies, 3);
            let _ = lerp.tune(&report, &obs(policies.clone()));
            if !lerp.converged() {
                break;
            }
        }
        assert!(!lerp.converged(), "shift not detected");
        assert_eq!(lerp.restarts(), 1);
    }

    #[test]
    fn stable_workload_stays_converged() {
        let mut lerp = Lerp::new(LerpConfig::paper_default(PropagationScheme::Uniform));
        let mut policies = vec![2u32, 2];
        drive(&mut lerp, &mut policies, 0.5, 2, 400);
        assert!(lerp.converged());
        for _ in 0..50 {
            let report = synthetic_report(0.5, &policies, 2);
            let changes = lerp.tune(&report, &obs(policies.to_vec()));
            for (l, k) in changes {
                policies[l] = k;
            }
        }
        assert!(lerp.converged());
        assert_eq!(lerp.restarts(), 0);
    }

    #[test]
    fn model_update_time_is_recorded() {
        let mut lerp = Lerp::new(LerpConfig::paper_default(PropagationScheme::Uniform));
        let policies = vec![1u32, 1];
        let report = synthetic_report(0.5, &policies, 1);
        let _ = lerp.tune(&report, &obs(policies));
        assert!(lerp.model_update_ns() > 0);
    }

    #[test]
    fn handles_empty_tree() {
        let mut lerp = Lerp::new(LerpConfig::paper_default(PropagationScheme::Uniform));
        let report = MissionReport::default();
        let o = TreeObservation {
            policies: vec![],
            fills: vec![],
            run_counts: vec![],
            size_ratio: 10,
            level_count: 0,
        };
        assert!(lerp.tune(&report, &o).is_empty());
    }
}
