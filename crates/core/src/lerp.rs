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

use std::collections::VecDeque;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ruskey_analysis::propagation::{propagate_rounded, uniform_propagation};
use ruskey_rl::{Ddpg, DdpgConfig, Transition};

use crate::state::{level_state, LEVEL_STATE_DIM};
use crate::stats::MissionReport;
use crate::tuner::{level_cost, stepped_policy, stride_seed, RewardScale, TreeObservation, Tuner};

/// The reward weight α that [`LerpConfig::paper_default`] sets;
/// [`LerpConfig::alpha`] says why it is not 1/2.
pub const DEFAULT_ALPHA: f64 = 0.85;

/// DDPG gradient steps per mission: our choice; replay lets several steps learn from one sample.
const TRAIN_STEPS_PER_MISSION: usize = 8;
/// Lookup-ratio EMA drift that counts as a workload shift (§3.1): our choice; the paper gives none.
const SHIFT_THRESHOLD: f64 = 0.12;
/// EMA weight of a mission's lookup ratio: our choice, so a shift registers within a few missions.
const GAMMA_EMA_ALPHA: f64 = 0.25;
/// OU exploration σ at the start and after a restart: our choice; the paper gives no schedule.
const INITIAL_NOISE: f32 = 0.4;
/// Per-mission σ decay: our choice, σ reaches its floor after about 200 missions.
const NOISE_DECAY: f32 = 0.985;
/// σ floor: our choice, so a level keeps exploring for as long as it tunes.
const MIN_NOISE: f32 = 0.02;
/// Initial ε of ε-greedy (a uniform ΔK): our choice; noise alone cannot escape a saturated actor.
const EPSILON_INITIAL: f32 = 0.4;
/// Per-mission ε decay: our choice, ε reaches its floor after about 260 missions.
const EPSILON_DECAY: f32 = 0.99;
/// ε floor: our choice, so every neighbouring policy stays reachable while a level tunes.
const EPSILON_MIN: f32 = 0.03;
/// EMA weight of a mission's cost: our choice; one deep compaction can cost 10× a normal mission.
const REWARD_SMOOTHING: f64 = 0.3;
/// DDPG discount γ: our choice; near a contextual bandit, a modest γ keeps TD targets low-variance.
const RL_GAMMA: f32 = 0.6;

/// The learner behind one Lerp agent: all that Lerp's loop asks of it,
/// so that another learner, or a scripted one in a test, can stand in.
/// [`Ddpg`] is the one implementation.
pub trait LevelLearner {
    /// The greedy action for `state`.
    fn act(&mut self, state: &[f32]) -> Vec<f32>;
    /// The greedy action and an exploratory one, from one forward pass.
    fn act_both(&mut self, state: &[f32]) -> (Vec<f32>, Vec<f32>);
    /// Stores one transition.
    fn observe(&mut self, t: Transition);
    /// Trains `steps` times on what it has stored.
    fn train(&mut self, steps: usize);
    /// Multiplies the exploration volatility by `factor`, down to `floor`.
    fn decay_noise(&mut self, factor: f32, floor: f32);
    /// A restart: the exploration volatility back to `sigma`, and every
    /// stored transition forgotten.
    fn reset(&mut self, sigma: f32);
}

impl LevelLearner for Ddpg {
    fn act(&mut self, state: &[f32]) -> Vec<f32> {
        Ddpg::act(self, state)
    }
    fn act_both(&mut self, state: &[f32]) -> (Vec<f32>, Vec<f32>) {
        Ddpg::act_both(self, state)
    }
    fn observe(&mut self, t: Transition) {
        Ddpg::observe(self, t);
    }
    fn train(&mut self, steps: usize) {
        (0..steps).for_each(|_| _ = self.train_step());
    }
    fn decay_noise(&mut self, factor: f32, floor: f32) {
        self.set_noise_sigma((self.noise_sigma() * factor).max(floor));
    }
    fn reset(&mut self, sigma: f32) {
        self.set_noise_sigma(sigma);
        self.clear_replay();
    }
}

/// Which Bloom-filter scheme governs propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationScheme {
    /// Case 1: uniform bits-per-key — copy Level 1's policy everywhere.
    Uniform,
    /// Case 2: Monkey — tune Levels 1–2, infer the rest via Lemma 5.1.
    Monkey,
}

/// The Lerp settings that experiments vary. Every other value Lerp uses
/// has one setting, a named constant in this module.
#[derive(Debug, Clone, PartialEq)]
pub struct LerpConfig {
    /// Weight `α` of the level latency `t_i` against the end-to-end
    /// latency `t'` in the reward `-(α·t_i + (1−α)·t')` (§5.1.3). The paper
    /// sets 1/2; [`LerpConfig::paper_default`] sets 0.85, because at our
    /// scaled-down mission size `t'` is dominated by deep-compaction bursts
    /// whose period spans many missions, and a higher weight on `t_i` keeps
    /// the per-mission reward informative (`repro ablations` sweeps it).
    pub alpha: f64,
    /// Propagation scheme, matching the tree's Bloom configuration.
    pub scheme: PropagationScheme,
    /// Missions with an unchanged policy before a level counts as
    /// converged.
    pub stability_window: usize,
    /// Minimum missions a level must be tuned before it may converge
    /// (prevents locking in a policy before the agent has trained).
    pub min_tune_missions: usize,
    /// DDPG seed (agents derive per-level seeds from it).
    pub seed: u64,
}

impl LerpConfig {
    /// The reproduction's settings for `scheme`: α = 0.85 where the paper
    /// uses 1/2 (see [`alpha`](Self::alpha)), convergence after a
    /// 15-mission stable window and at least 60 tuned missions, seed 42.
    pub fn paper_default(scheme: PropagationScheme) -> Self {
        Self {
            alpha: DEFAULT_ALPHA,
            scheme,
            stability_window: 15,
            min_tune_missions: 60,
            seed: 42,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Tuning agent `agent_idx` (0 tunes Level 1, 1 tunes Level 2).
    Tune { agent_idx: usize },
    /// All tuned levels stable; propagation applied and maintained. A
    /// lookup-ratio EMA that drifts from `gamma_ref` is a workload shift.
    Converged { gamma_ref: f64 },
}

/// The Lerp tuning model, over learners of type `L`.
pub struct Lerp<L = Ddpg> {
    cfg: LerpConfig,
    /// Makes an agent's learner from its seed; a seat's agents are made
    /// by the same function.
    learner: fn(u64) -> L,
    agents: Vec<L>,
    reward_scales: Vec<RewardScale>,
    phase: Phase,
    /// The tuning agent's step, awaiting its reward.
    pending: Pending,
    /// Missions spent tuning the current level.
    missions_in_phase: usize,
    /// Recent *greedy* policy targets (exploration-free preference of the
    /// actor), used for convergence detection.
    greedy_targets: VecDeque<u32>,
    /// EMA-smoothed mission cost per agent.
    cost_ema: Vec<Option<f64>>,
    /// Current ε for ε-greedy exploration.
    epsilon: f32,
    /// RNG for ε-greedy draws.
    rng: StdRng,
    /// Learned policies of tuned levels (filled as levels converge).
    learned: Vec<u32>,
    gamma_ema: Option<f64>,
    update_ns: u64,
    restarts: u64,
}

impl Lerp {
    /// Creates a Lerp model whose agents are DDPG learners.
    pub fn new(cfg: LerpConfig) -> Self {
        Self::with_learner(cfg, |seed| {
            Ddpg::new(DdpgConfig {
                seed,
                noise_sigma: INITIAL_NOISE,
                warmup: 16,
                gamma: RL_GAMMA,
                ..DdpgConfig::paper_default(LEVEL_STATE_DIM, 1)
            })
        })
    }
}

impl<L: LevelLearner> Lerp<L> {
    /// A Lerp model whose agent `i` learns with `learner(seed + i·7919)`.
    fn with_learner(cfg: LerpConfig, learner: fn(u64) -> L) -> Self {
        let n_agents = match cfg.scheme {
            PropagationScheme::Uniform => 1,
            PropagationScheme::Monkey => 2,
        };
        let agents = (0..n_agents)
            .map(|i| learner(cfg.seed.wrapping_add(i as u64 * 7919)))
            .collect();
        Self {
            cost_ema: vec![None; n_agents],
            epsilon: EPSILON_INITIAL,
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9)),
            cfg,
            learner,
            agents,
            reward_scales: vec![RewardScale::default(); n_agents],
            phase: Phase::Tune { agent_idx: 0 },
            pending: None,
            missions_in_phase: 0,
            greedy_targets: VecDeque::new(),
            learned: Vec::new(),
            gamma_ema: None,
            update_ns: 0,
            restarts: 0,
        }
    }

    fn restart(&mut self) {
        self.phase = Phase::Tune { agent_idx: 0 };
        self.pending = None;
        self.missions_in_phase = 0;
        self.greedy_targets.clear();
        self.learned.clear();
        self.cost_ema.iter_mut().for_each(|c| *c = None);
        self.epsilon = EPSILON_INITIAL;
        self.restarts += 1;
        for agent in &mut self.agents {
            agent.reset(INITIAL_NOISE);
        }
    }

    /// The `(level, K)` changes that bring every materialized level to the
    /// policy propagated from the learned shallow ones.
    fn propagation_changes(&self, obs: &TreeObservation) -> Vec<(usize, u32)> {
        let t = obs.size_ratio;
        let n = obs.level_count;
        let k1 = self.learned.first().copied().unwrap_or(1);
        let want = match self.cfg.scheme {
            PropagationScheme::Uniform => uniform_propagation(k1, t, n),
            PropagationScheme::Monkey => {
                let k2 = self.learned.get(1).copied().unwrap_or(k1);
                propagate_rounded(k1, k2, t, n.max(2))[..n].to_vec()
            }
        };
        want.into_iter()
            .enumerate()
            .filter(|&(l, k)| obs.policies.get(l) != Some(&k))
            .collect()
    }

    /// One mission of tuning agent `agent_idx` (it tunes level
    /// `agent_idx`); `gamma_ema` is the lookup-ratio EMA after the mission.
    fn tune_level(
        &mut self,
        agent_idx: usize,
        report: &MissionReport,
        obs: &TreeObservation,
        gamma_ema: f64,
    ) -> Vec<(usize, u32)> {
        let level = agent_idx;
        if level >= obs.level_count {
            return Vec::new();
        }
        let state = level_state(report, obs, level);
        // Smooth out compaction bursts before shaping the reward.
        let raw_cost = level_cost(report, level, self.cfg.alpha);
        let cost = fold_ema(&mut self.cost_ema[agent_idx], REWARD_SMOOTHING, raw_cost);
        let reward = self.reward_scales[agent_idx].reward(cost);

        self.missions_in_phase += 1;
        let agent = &mut self.agents[agent_idx];
        let pending = self.pending.take();
        learn(agent, pending, reward, &state, TRAIN_STEPS_PER_MISSION);
        // One actor forward pass yields both the greedy action and, unless
        // ε-greedy overrides it, the exploratory one.
        let (greedy, action) = if self.rng.gen::<f32>() < self.epsilon {
            // ε-greedy: a uniformly random ΔK, encoded as a representative
            // continuous action for the replay.
            let delta: i32 = self.rng.gen_range(-1..=1);
            (agent.act(&state), vec![delta as f32 * 0.8])
        } else {
            agent.act_both(&state)
        };
        // Convergence is judged on the actor's *greedy* preference (its
        // exploration-free policy target), so ε-greedy and OU noise do not
        // mask a converged policy.
        let current_k = obs.policies[level];
        let greedy_target = stepped_policy(current_k, greedy[0], obs.size_ratio);
        self.greedy_targets.push_back(greedy_target);
        while self.greedy_targets.len() > self.cfg.stability_window {
            self.greedy_targets.pop_front();
        }

        agent.decay_noise(NOISE_DECAY, MIN_NOISE);
        self.epsilon = (self.epsilon * EPSILON_DECAY).max(EPSILON_MIN);

        let new_k = stepped_policy(current_k, action[0], obs.size_ratio);
        self.pending = Some((state, action));

        // Converged when the greedy targets have stayed within a two-policy
        // band for a full window (the actor's preference stopped moving),
        // after the minimum tuning period.
        let band_stable = self.greedy_targets.len() >= self.cfg.stability_window && {
            let min = *self.greedy_targets.iter().min().unwrap();
            let max = *self.greedy_targets.iter().max().unwrap();
            max - min <= 1
        };
        if !band_stable || self.missions_in_phase < self.cfg.min_tune_missions {
            return if new_k != current_k {
                vec![(level, new_k)]
            } else {
                Vec::new()
            };
        }
        // This level converged: adopt the window's median target.
        let mut sorted: Vec<u32> = self.greedy_targets.iter().copied().collect();
        sorted.sort_unstable();
        let learned_k = sorted[sorted.len() / 2];
        self.learned.push(learned_k);
        self.pending = None;
        self.missions_in_phase = 0;
        self.greedy_targets.clear();
        if self.learned.len() < self.agents.len() {
            self.phase = Phase::Tune {
                agent_idx: agent_idx + 1,
            };
            vec![(level, learned_k)]
        } else {
            self.phase = Phase::Converged {
                gamma_ref: gamma_ema,
            };
            // Transfer the learned policies everywhere.
            self.propagation_changes(obs)
        }
    }
}

/// The `(state, action)` an agent took, awaiting the reward it earns.
pub type Pending = Option<(Vec<f32>, Vec<f32>)>;

/// Completes the `pending` step with its reward and the state it led to,
/// stores the transition and trains `agent` `steps` times; does nothing
/// if no step is pending.
pub fn learn(
    agent: &mut impl LevelLearner,
    pending: Pending,
    reward: f32,
    next_state: &[f32],
    steps: usize,
) {
    if let Some((state, action)) = pending {
        agent.observe(Transition {
            state,
            action,
            reward,
            next_state: next_state.to_vec(),
            done: false,
        });
        agent.train(steps);
    }
}

/// Folds `x` into the EMA held in `slot` with weight `a` (the first `x`
/// seeds it) and returns the new average.
fn fold_ema(slot: &mut Option<f64>, a: f64, x: f64) -> f64 {
    let e = slot.map_or(x, |prev| (1.0 - a) * prev + a * x);
    *slot = Some(e);
    e
}

impl<L: LevelLearner + 'static> Tuner for Lerp<L> {
    fn name(&self) -> String {
        match self.cfg.scheme {
            PropagationScheme::Uniform => "ruskey-lerp".into(),
            PropagationScheme::Monkey => "ruskey-lerp-monkey".into(),
        }
    }

    fn tune(&mut self, report: &MissionReport, obs: &TreeObservation) -> Vec<(usize, u32)> {
        let t0 = Instant::now();

        // ---- Workload tracking and shift detection (§3.1).
        let ema = fold_ema(&mut self.gamma_ema, GAMMA_EMA_ALPHA, report.gamma());
        if let Phase::Converged { gamma_ref } = self.phase {
            if (ema - gamma_ref).abs() > SHIFT_THRESHOLD {
                self.restart();
            }
        }

        let changes = match self.phase {
            Phase::Tune { agent_idx } => self.tune_level(agent_idx, report, obs, ema),
            // Maintain the propagated layout (covers levels created after
            // convergence).
            Phase::Converged { .. } => self.propagation_changes(obs),
        };
        self.update_ns += t0.elapsed().as_nanos() as u64;
        changes
    }

    fn for_shard(&self, shard: usize) -> Box<dyn Tuner> {
        let mut cfg = self.cfg.clone();
        cfg.seed = stride_seed(cfg.seed, shard);
        Box::new(Lerp::with_learner(cfg, self.learner))
    }

    fn model_update_ns(&self) -> u64 {
        self.update_ns
    }

    fn converged(&self) -> bool {
        matches!(self.phase, Phase::Converged { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruskey_lsm::{LevelStatsSnapshot, TreeStatsSnapshot};

    impl<L> Lerp<L> {
        /// Number of times a workload shift forced retuning.
        fn restarts(&self) -> u64 {
            self.restarts
        }

        /// The policies learned for the tuned shallow levels so far.
        fn learned_policies(&self) -> &[u32] {
            &self.learned
        }

        /// The level currently being tuned, or `None` once converged.
        fn tuning_level(&self) -> Option<usize> {
            match self.phase {
                Phase::Tune { agent_idx } => Some(agent_idx),
                Phase::Converged { .. } => None,
            }
        }
    }

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

    /// A workload shift restarts tuning from scratch: every agent's replay
    /// emptied, ε and σ back to their initial values, nothing learned.
    #[test]
    fn workload_shift_triggers_restart() {
        let mut lerp = Lerp::new(LerpConfig::paper_default(PropagationScheme::Monkey));
        let mut policies = vec![5u32, 5, 5, 5];
        drive(&mut lerp, &mut policies, 0.5, 5, 800);
        assert!(lerp.converged());
        assert_eq!(lerp.restarts(), 0);
        assert!(lerp.epsilon < EPSILON_INITIAL);
        for agent in &lerp.agents {
            assert!(agent.replay_len() > 0);
            assert!(agent.noise_sigma() < INITIAL_NOISE);
        }
        // Shift to write-only on an empty tree: the restarted tuner has no
        // level to explore, so it is observed just as the restart left it.
        let empty = obs(Vec::new());
        for _ in 0..20 {
            let _ = lerp.tune(&synthetic_report(0.0, &policies, 5), &empty);
            if !lerp.converged() {
                break;
            }
        }
        assert!(!lerp.converged(), "shift not detected");
        assert_eq!(lerp.restarts(), 1);
        for agent in &lerp.agents {
            assert_eq!(agent.replay_len(), 0, "stale experience kept");
            assert_eq!(agent.noise_sigma(), INITIAL_NOISE);
        }
        assert_eq!(lerp.epsilon, EPSILON_INITIAL);
        assert!(lerp.learned_policies().is_empty());
    }

    /// Folds `x` into an FNV-1a style hash.
    fn fnv(hash: &mut u64, x: u64) {
        *hash = (*hash ^ x).wrapping_mul(0x100_0000_01b3);
    }

    /// Golden: Levels 1 and 2 tuned long enough for σ and ε to reach
    /// their floors, then propagated; a shift toward writes, the restart
    /// it triggers and retuning. The policy changes, the missions
    /// of each convergence and restart, and σ and ε after every mission
    /// are pinned to the bit, with the agents' final actor outputs, as
    /// recorded while the constants above were still `LerpConfig` fields.
    #[test]
    fn synthetic_trajectory_is_pinned() {
        let cfg = LerpConfig {
            min_tune_missions: 210,
            ..LerpConfig::paper_default(PropagationScheme::Monkey)
        };
        let mut lerp = Lerp::new(cfg);
        let mut policies = vec![5u32, 5, 5, 5];
        let mut hash = 0xcbf2_9ce4_8422_2325;
        let (mut converged_at, mut restarted_at) = (Vec::new(), Vec::new());
        for mission in 0..720u64 {
            // A step small enough that the lookup-ratio EMA needs several
            // missions to cross the shift threshold.
            let (gamma, k_opt) = if mission < 480 { (0.9, 3) } else { (0.75, 8) };
            let (was_converged, restarts) = (lerp.converged(), lerp.restarts());
            let mut report = synthetic_report(gamma, &policies, k_opt);
            // Compaction that falls with each level's own K, so that `t_i`
            // is not proportional to `t'` and α shapes the reward.
            for (stats, &k) in report.window.levels.iter_mut().zip(&policies) {
                stats.compact_ns = 400_000 / k as u64;
            }
            for (l, k) in lerp.tune(&report, &obs(policies.clone())) {
                fnv(&mut hash, mission << 40 | (l as u64) << 32 | k as u64);
                policies[l] = k;
            }
            for agent in &lerp.agents {
                fnv(&mut hash, agent.noise_sigma().to_bits() as u64);
            }
            fnv(&mut hash, lerp.epsilon.to_bits() as u64);
            if lerp.converged() && !was_converged {
                converged_at.push(mission);
            }
            if lerp.restarts() > restarts {
                restarted_at.push(mission);
            }
        }
        for agent in &mut lerp.agents {
            let greedy = agent.act(&[0.5; LEVEL_STATE_DIM])[0];
            fnv(&mut hash, greedy.to_bits() as u64);
        }
        assert_eq!((converged_at, restarted_at), (vec![419], vec![485]));
        assert_eq!(lerp.learned_policies(), [10]);
        assert_eq!(hash, 8281952501936916410);
    }

    /// The policy a scripted learner steers Level 1 to.
    const SCRIPTED_K: u32 = 7;

    /// A learner that steps K toward [`SCRIPTED_K`] (the state's first
    /// feature is `K / T`, with `T = 10` here), greedy and explored alike,
    /// and counts what Lerp asks of it.
    #[derive(Default)]
    struct Scripted {
        observed: usize,
        trained: usize,
        resets: usize,
    }

    impl LevelLearner for Scripted {
        fn act(&mut self, state: &[f32]) -> Vec<f32> {
            let k = (state[0] * 10.0).round() as u32;
            vec![match k.cmp(&SCRIPTED_K) {
                std::cmp::Ordering::Less => 0.9,
                std::cmp::Ordering::Equal => 0.0,
                std::cmp::Ordering::Greater => -0.9,
            }]
        }
        fn act_both(&mut self, state: &[f32]) -> (Vec<f32>, Vec<f32>) {
            let a = self.act(state);
            (a.clone(), a)
        }
        fn observe(&mut self, t: Transition) {
            assert_eq!(t.state.len(), LEVEL_STATE_DIM);
            self.observed += 1;
        }
        fn train(&mut self, steps: usize) {
            self.trained += steps;
        }
        fn decay_noise(&mut self, _factor: f32, _floor: f32) {}
        fn reset(&mut self, _sigma: f32) {
            self.resets += 1;
        }
    }

    /// The seam lets a test stand in for DDPG: Lerp moves Level 1 alone,
    /// one step at a time, until the scripted learner's K is stable, then
    /// propagates it to every level; a shift resets the learner.
    #[test]
    fn a_scripted_learner_drives_the_policy_changes() {
        let cfg = LerpConfig::paper_default(PropagationScheme::Uniform);
        let mut lerp = Lerp::with_learner(cfg, |_| Scripted::default());
        let mut policies = vec![1u32, 1, 1];
        let mut missions = 0;
        while !lerp.converged() {
            assert!(missions < 400, "did not converge");
            let changes = lerp.tune(&synthetic_report(0.5, &policies, 1), &obs(policies.clone()));
            missions += 1;
            if lerp.converged() {
                assert!(changes.contains(&(1, SCRIPTED_K)) && changes.contains(&(2, SCRIPTED_K)));
            } else {
                assert!(changes.len() <= 1, "{changes:?}");
                for &(l, k) in &changes {
                    assert_eq!(l, 0);
                    assert_eq!(k.abs_diff(policies[0]), 1);
                }
            }
            for (l, k) in changes {
                policies[l] = k;
            }
        }
        assert_eq!(policies, [SCRIPTED_K; 3]);
        assert_eq!(lerp.learned_policies(), [SCRIPTED_K]);
        let agent = &lerp.agents[0];
        assert_eq!(agent.observed, missions - 1, "every mission but the first");
        assert_eq!(agent.trained, TRAIN_STEPS_PER_MISSION * agent.observed);
        while lerp.converged() {
            let _ = lerp.tune(&synthetic_report(0.0, &policies, 1), &obs(policies.clone()));
        }
        assert_eq!(lerp.agents[0].resets, 1);
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
