//! Compaction-policy tuners: the trait and every baseline the paper
//! compares against (§7).

use std::time::Instant;

use ruskey_lsm::FlsmTree;
use ruskey_rl::{Ddpg, DdpgConfig, Transition};

use crate::lerp::DEFAULT_ALPHA;
use crate::state::{full_state, level_state, LEVEL_STATE_DIM};
use crate::stats::MissionReport;

/// A read-only snapshot of the tree structure handed to tuners.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeObservation {
    /// Current policy per materialized level.
    pub policies: Vec<u32>,
    /// Fill ratio `D/C` per level.
    pub fills: Vec<f64>,
    /// Number of runs per level.
    pub run_counts: Vec<usize>,
    /// Capacity ratio `T`.
    pub size_ratio: u32,
    /// Number of materialized levels.
    pub level_count: usize,
}

impl TreeObservation {
    /// Observes one tree's levels: the single place an observation is
    /// read off a tree, for the single-tree store and every shard alike.
    pub(crate) fn of(tree: &FlsmTree) -> Self {
        let n = tree.level_count();
        Self {
            policies: tree.policies(),
            fills: (0..n).map(|i| tree.level_fill(i)).collect(),
            run_counts: (0..n).map(|i| tree.level_run_count(i)).collect(),
            size_ratio: tree.config().size_ratio,
            level_count: n,
        }
    }
}

/// A tuning model: observes each finished mission and proposes per-level
/// policy changes, applied by RusKey with the configured transition.
///
/// A store seats one tuner per shard: the one it was opened with tunes
/// shard 0, and `for_shard(i)` tunes shard `i ≥ 1`.
pub trait Tuner {
    /// Short name used in experiment output.
    fn name(&self) -> String;

    /// Observes the mission that just finished and returns `(level, K)`
    /// assignments to apply before the next mission.
    fn tune(&mut self, report: &MissionReport, obs: &TreeObservation) -> Vec<(usize, u32)>;

    /// A fresh tuner of the same kind and configuration for shard
    /// `shard`. Learned tuners give every agent of every seat its own
    /// seed, so sibling agents explore independently: [`Lerp`] and
    /// [`BruteForceLerp`] derive the seat's seed as `seed + shard·104729`;
    /// [`PerLevelNoPropagation`], with `L` agents a seat, seeds shard
    /// `shard`'s level `i` with `seed + (shard·L + i)·104729`. The
    /// baselines are plain copies.
    ///
    /// [`Lerp`]: crate::lerp::Lerp
    fn for_shard(&self, shard: usize) -> Box<dyn Tuner>;

    /// Cumulative real time spent updating internal models (Fig. 13).
    fn model_update_ns(&self) -> u64 {
        0
    }

    /// Whether the tuner considers itself converged (used by ranking
    /// experiments that measure post-convergence performance).
    fn converged(&self) -> bool {
        true
    }
}

/// Keeps whatever policy the tree was built with.
#[derive(Debug, Default, Clone)]
pub struct NoOpTuner;

impl Tuner for NoOpTuner {
    fn name(&self) -> String {
        "noop".into()
    }

    fn tune(&mut self, _report: &MissionReport, _obs: &TreeObservation) -> Vec<(usize, u32)> {
        Vec::new()
    }

    fn for_shard(&self, _shard: usize) -> Box<dyn Tuner> {
        Box::new(self.clone())
    }
}

/// A fixed uniform policy: `K = 1` is the paper's *Aggressive*, `K = 5`
/// *Moderate*, `K = 10` (= `T`) *Lazy*.
#[derive(Debug, Clone)]
pub struct FixedPolicy {
    k: u32,
}

impl FixedPolicy {
    /// Fixed policy `k` at every level.
    pub fn new(k: u32) -> Self {
        Self { k }
    }

    /// The paper's Aggressive baseline (K = 1, leveling).
    pub fn aggressive() -> Self {
        Self::new(1)
    }

    /// The paper's Moderate baseline (K = 5).
    pub fn moderate() -> Self {
        Self::new(5)
    }

    /// The paper's Lazy baseline (K = 10, tiering at T = 10).
    pub fn lazy() -> Self {
        Self::new(10)
    }
}

impl Tuner for FixedPolicy {
    fn name(&self) -> String {
        format!("K={}", self.k)
    }

    fn tune(&mut self, _report: &MissionReport, obs: &TreeObservation) -> Vec<(usize, u32)> {
        (0..obs.level_count)
            .filter(|&l| obs.policies[l] != self.k)
            .map(|l| (l, self.k))
            .collect()
    }

    fn for_shard(&self, _shard: usize) -> Box<dyn Tuner> {
        Box::new(self.clone())
    }
}

/// Dostoevsky's Lazy-Leveling: tiering (`K = T`) everywhere except the
/// largest level, which uses leveling (`K = 1`). The state-of-the-art
/// hybrid baseline under the Monkey scheme (§7, Fig. 8).
#[derive(Debug, Default, Clone)]
pub struct LazyLeveling;

impl Tuner for LazyLeveling {
    fn name(&self) -> String {
        "lazy-leveling".into()
    }

    fn tune(&mut self, _report: &MissionReport, obs: &TreeObservation) -> Vec<(usize, u32)> {
        let last = obs.level_count.saturating_sub(1);
        (0..obs.level_count)
            .map(|l| (l, if l == last { 1 } else { obs.size_ratio }))
            .filter(|&(l, k)| obs.policies[l] != k)
            .collect()
    }

    fn for_shard(&self, _shard: usize) -> Box<dyn Tuner> {
        Box::new(self.clone())
    }
}

/// The greedy threshold heuristics of Fig. 12: a per-level detector compares
/// the level's lookup share against two thresholds and steps the policy by
/// ±1 accordingly.
#[derive(Debug, Clone)]
pub struct GreedyHeuristic {
    /// Below this lookup share the level is "write-heavy": increment K.
    pub h_bottom: f64,
    /// Above this lookup share the level is "read-heavy": decrement K.
    pub h_top: f64,
}

impl GreedyHeuristic {
    /// Creates a heuristic with thresholds `(h_bottom, h_top)` in percent
    /// (the paper labels settings like "Greedy, 33%, 67%").
    pub fn new(h_bottom_pct: f64, h_top_pct: f64) -> Self {
        assert!(h_bottom_pct <= h_top_pct);
        Self {
            h_bottom: h_bottom_pct / 100.0,
            h_top: h_top_pct / 100.0,
        }
    }

    /// All threshold settings evaluated in Fig. 12.
    pub fn paper_settings() -> Vec<GreedyHeuristic> {
        vec![
            GreedyHeuristic::new(50.0, 50.0),
            GreedyHeuristic::new(33.0, 67.0),
            GreedyHeuristic::new(25.0, 75.0),
            GreedyHeuristic::new(10.0, 90.0),
            GreedyHeuristic::new(25.0, 50.0),
            GreedyHeuristic::new(50.0, 75.0),
        ]
    }

    /// Lookup share observed at a level during the mission: probes versus
    /// compaction key participations.
    fn level_lookup_share(report: &MissionReport, level: usize) -> Option<f64> {
        let l = report.window.levels.get(level)?;
        let total = l.probes + l.compact_keys;
        if total == 0 {
            return None;
        }
        Some(l.probes as f64 / total as f64)
    }
}

impl Tuner for GreedyHeuristic {
    fn name(&self) -> String {
        format!(
            "greedy-{:.0}%-{:.0}%",
            self.h_bottom * 100.0,
            self.h_top * 100.0
        )
    }

    fn tune(&mut self, report: &MissionReport, obs: &TreeObservation) -> Vec<(usize, u32)> {
        let mut out = Vec::new();
        for lvl in 0..obs.level_count {
            let Some(share) = Self::level_lookup_share(report, lvl) else {
                continue;
            };
            let k = obs.policies[lvl];
            if share < self.h_bottom && k < obs.size_ratio {
                out.push((lvl, k + 1));
            } else if share > self.h_top && k > 1 {
                out.push((lvl, k - 1));
            }
        }
        out
    }

    fn for_shard(&self, _shard: usize) -> Box<dyn Tuner> {
        Box::new(self.clone())
    }
}

/// The brute-force RL model of the §7 impracticality study: one DDPG agent
/// whose action vector adjusts *every* level at once (no level-based
/// decomposition, no propagation). Action space `O(T^L)` instead of `O(L)`.
pub struct BruteForceLerp {
    agent: Ddpg,
    levels: usize,
    seed: u64,
    prev: Pending,
    reward_scale: RewardScale,
    update_ns: u64,
}

impl BruteForceLerp {
    /// Creates a brute-force tuner over a fixed number of levels.
    pub fn new(levels: usize, seed: u64) -> Self {
        let cfg = DdpgConfig {
            seed,
            ..DdpgConfig::paper_default(levels * LEVEL_STATE_DIM, levels)
        };
        Self {
            agent: Ddpg::new(cfg),
            levels,
            seed,
            prev: None,
            reward_scale: RewardScale::default(),
            update_ns: 0,
        }
    }
}

impl Tuner for BruteForceLerp {
    fn name(&self) -> String {
        "brute-force-rl".into()
    }

    fn tune(&mut self, report: &MissionReport, obs: &TreeObservation) -> Vec<(usize, u32)> {
        let t0 = Instant::now();
        let state = full_state(report, obs, self.levels);
        let reward = self.reward_scale.reward(report.ns_per_op());
        learn(&mut self.agent, self.prev.take(), reward, &state, 1);
        let action = self.agent.act_explore(&state);
        let mut out = Vec::new();
        for (lvl, &a) in action
            .iter()
            .enumerate()
            .take(self.levels.min(obs.level_count))
        {
            let k = stepped_policy(obs.policies[lvl], a, obs.size_ratio);
            if k != obs.policies[lvl] {
                out.push((lvl, k));
            }
        }
        self.prev = Some((state, action));
        self.update_ns += t0.elapsed().as_nanos() as u64;
        out
    }

    fn for_shard(&self, shard: usize) -> Box<dyn Tuner> {
        Box::new(Self::new(self.levels, stride_seed(self.seed, shard)))
    }

    fn model_update_ns(&self) -> u64 {
        self.update_ns
    }

    fn converged(&self) -> bool {
        false // brute force never reliably converges — that is the point
    }
}

/// The second §7 impracticality variant: per-level DDPG agents for *every*
/// level, trained simultaneously from their own level rewards, with **no
/// policy propagation**. Shallow levels receive plenty of feedback, but
/// deep levels compact exponentially less often, so their agents starve for
/// samples and fail to reach good policies (the paper observes failures
/// from Level 3 down).
pub struct PerLevelNoPropagation {
    agents: Vec<Ddpg>,
    seed: u64,
    pending: Vec<Pending>,
    reward_scales: Vec<RewardScale>,
    update_ns: u64,
}

impl PerLevelNoPropagation {
    /// Creates agents for up to `max_levels` levels.
    pub fn new(max_levels: usize, seed: u64) -> Self {
        Self::seat(max_levels, seed, 0)
    }

    /// The tuner of shard `shard`: its level `i` is sibling
    /// `shard·max_levels + i` of `seed`, so no two seats share an agent
    /// seed.
    fn seat(max_levels: usize, seed: u64, shard: usize) -> Self {
        let agents: Vec<Ddpg> = (0..max_levels)
            .map(|i| {
                Ddpg::new(DdpgConfig {
                    seed: stride_seed(seed, shard * max_levels + i),
                    warmup: 16,
                    ..DdpgConfig::paper_default(LEVEL_STATE_DIM, 1)
                })
            })
            .collect();
        Self {
            pending: vec![None; max_levels],
            reward_scales: vec![RewardScale::default(); max_levels],
            agents,
            seed,
            update_ns: 0,
        }
    }
}

impl Tuner for PerLevelNoPropagation {
    fn name(&self) -> String {
        "per-level-rl-no-propagation".into()
    }

    fn tune(&mut self, report: &MissionReport, obs: &TreeObservation) -> Vec<(usize, u32)> {
        let t0 = Instant::now();
        let mut out = Vec::new();
        for lvl in 0..self.agents.len().min(obs.level_count) {
            let state = level_state(report, obs, lvl);
            let reward = self.reward_scales[lvl].reward(level_cost(report, lvl, DEFAULT_ALPHA));
            let agent = &mut self.agents[lvl];
            learn(agent, self.pending[lvl].take(), reward, &state, 1);
            let action = agent.act_explore(&state);
            let k = stepped_policy(obs.policies[lvl], action[0], obs.size_ratio);
            self.pending[lvl] = Some((state, action));
            if k != obs.policies[lvl] {
                out.push((lvl, k));
            }
        }
        self.update_ns += t0.elapsed().as_nanos() as u64;
        out
    }

    fn for_shard(&self, shard: usize) -> Box<dyn Tuner> {
        Box::new(Self::seat(self.agents.len(), self.seed, shard))
    }

    fn model_update_ns(&self) -> u64 {
        self.update_ns
    }

    fn converged(&self) -> bool {
        false
    }
}

/// The seed of the `i`-th sibling agent (a level's, or a shard's):
/// `seed + i·104729`, a prime stride that keeps siblings' exploration
/// independent.
pub(crate) fn stride_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64 * 104_729)
}

/// Maps a continuous action in `[-1, 1]` to `ΔK ∈ {-1, 0, +1}` (§5.1.2:
/// only continuous policy changes are allowed).
pub(crate) fn action_to_delta(a: f32) -> i32 {
    if a < -1.0 / 3.0 {
        -1
    } else if a > 1.0 / 3.0 {
        1
    } else {
        0
    }
}

/// The policy action `a` moves `k` to: `k + ΔK`, kept within `[1, T]`.
pub(crate) fn stepped_policy(k: u32, a: f32, size_ratio: u32) -> u32 {
    (k as i64 + action_to_delta(a) as i64).clamp(1, size_ratio as i64) as u32
}

/// A level's mission cost `α·t_i + (1−α)·t'` in ns/op (§5.1.3), which its
/// agent's reward is shaped from.
pub(crate) fn level_cost(report: &MissionReport, level: usize, alpha: f64) -> f64 {
    alpha * report.level_ns_per_op(level) + (1.0 - alpha) * report.ns_per_op()
}

/// The `(state, action)` an agent took, awaiting the reward it earns.
pub(crate) type Pending = Option<(Vec<f32>, Vec<f32>)>;

/// Completes the `pending` step with its reward and the state it led to,
/// stores the transition and trains the agent `steps` times; does nothing
/// if no step is pending.
pub(crate) fn learn(
    agent: &mut Ddpg,
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
        for _ in 0..steps {
            agent.train_step();
        }
    }
}

/// Normalizes raw mission costs into rewards of magnitude ~O(1).
///
/// The reward is `-(cost / scale)` where the scale is an exponential moving
/// average of observed costs — this keeps the reward meaningful both on
/// NVMe-fast and HDD-slow cost models without per-experiment tuning.
#[derive(Debug, Clone, Default)]
pub struct RewardScale {
    ema: f64,
}

impl RewardScale {
    /// EMA weight of a new cost: our choice, a slow scale (about 20
    /// missions) that a single burst cannot move much.
    const ALPHA: f64 = 0.05;

    /// Converts a cost (ns/op) into a negative reward, updating the scale.
    ///
    /// Degenerate observations are skipped entirely: a zero-op mission
    /// slice reports a `0.0` ns/op cost (and a malformed one could report
    /// `NaN`/`inf`), which would otherwise drag the EMA toward zero — and
    /// with it every later reward toward the `-10` clamp. Idle shards are
    /// the *common* case under skewed per-shard tuning, so such costs
    /// return a neutral reward and leave the scale untouched.
    pub(crate) fn reward(&mut self, cost: f64) -> f32 {
        if !cost.is_finite() || cost <= 0.0 {
            return 0.0;
        }
        if self.ema == 0.0 {
            self.ema = cost.max(1e-9);
        } else {
            self.ema = (1.0 - Self::ALPHA) * self.ema + Self::ALPHA * cost;
        }
        (-(cost / self.ema.max(1e-9))).clamp(-10.0, 0.0) as f32
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
            run_counts: vec![1; n],
            size_ratio: 10,
            level_count: n,
        }
    }

    fn report(gamma: f64) -> MissionReport {
        MissionReport {
            ops: 1000,
            window: TreeStatsSnapshot {
                lookups: (1000.0 * gamma) as u64,
                updates: (1000.0 * (1.0 - gamma)) as u64,
                clock_ns: 1_000_000,
                levels: vec![LevelStatsSnapshot::default(); 3],
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn fixed_policy_sets_all_levels_once() {
        let mut t = FixedPolicy::moderate();
        let changes = t.tune(&report(0.5), &obs(vec![1, 1, 1]));
        assert_eq!(changes, vec![(0, 5), (1, 5), (2, 5)]);
        // Already in force: no redundant changes.
        let changes = t.tune(&report(0.5), &obs(vec![5, 5, 5]));
        assert!(changes.is_empty());
    }

    #[test]
    fn lazy_leveling_shape() {
        let mut t = LazyLeveling;
        // Largest level already at K = 1: only the upper levels change.
        let changes = t.tune(&report(0.5), &obs(vec![1, 1, 1]));
        assert_eq!(changes, vec![(0, 10), (1, 10)]);
        // From a uniform K = 5 layout all three levels change.
        let changes = t.tune(&report(0.5), &obs(vec![5, 5, 5]));
        assert_eq!(changes, vec![(0, 10), (1, 10), (2, 1)]);
    }

    #[test]
    fn greedy_heuristic_steps_by_one() {
        let mut t = GreedyHeuristic::new(33.0, 67.0);
        let mut r = report(0.5);
        // Level 0: all probes (read-heavy) -> K down; level 1: all
        // compaction keys (write-heavy) -> K up; level 2: balanced -> hold.
        r.window.levels = vec![
            LevelStatsSnapshot {
                probes: 100,
                compact_keys: 0,
                ..Default::default()
            },
            LevelStatsSnapshot {
                probes: 0,
                compact_keys: 100,
                ..Default::default()
            },
            LevelStatsSnapshot {
                probes: 50,
                compact_keys: 50,
                ..Default::default()
            },
        ];
        let changes = t.tune(&r, &obs(vec![5, 5, 5]));
        assert_eq!(changes, vec![(0, 4), (1, 6)]);
    }

    #[test]
    fn greedy_heuristic_respects_bounds() {
        let mut t = GreedyHeuristic::new(33.0, 67.0);
        let mut r = report(0.5);
        r.window.levels = vec![
            LevelStatsSnapshot {
                probes: 100,
                ..Default::default()
            },
            LevelStatsSnapshot {
                compact_keys: 100,
                ..Default::default()
            },
        ];
        let changes = t.tune(&r, &obs(vec![1, 10]));
        assert!(
            changes.is_empty(),
            "must not go below 1 or above T: {changes:?}"
        );
    }

    #[test]
    fn action_delta_thresholds() {
        assert_eq!(action_to_delta(-1.0), -1);
        assert_eq!(action_to_delta(-0.2), 0);
        assert_eq!(action_to_delta(0.0), 0);
        assert_eq!(action_to_delta(0.2), 0);
        assert_eq!(action_to_delta(0.9), 1);
    }

    #[test]
    fn reward_scale_normalizes() {
        let mut rs = RewardScale::default();
        let r1 = rs.reward(1e6);
        assert!((r1 + 1.0).abs() < 1e-6, "first reward ≈ -1, got {r1}");
        // A cost 10x the EMA gives a strongly negative (but clamped) reward.
        let r2 = rs.reward(1e7);
        assert!((-10.0..-5.0).contains(&r2));
    }

    /// Degenerate costs (zero-op slices, NaN, inf) must neither poison
    /// the EMA nor produce a non-neutral reward — an idle shard's slice
    /// is the common case under per-shard tuning with skew.
    #[test]
    fn reward_scale_skips_degenerate_costs() {
        let mut rs = RewardScale::default();
        assert_eq!(rs.reward(0.0), 0.0, "zero cost is neutral");
        assert_eq!(rs.reward(-5.0), 0.0, "negative cost is neutral");
        assert_eq!(rs.reward(f64::NAN), 0.0, "NaN cost is neutral");
        assert_eq!(rs.reward(f64::INFINITY), 0.0, "inf cost is neutral");
        // The scale is still unseeded: the first real cost normalizes to
        // ≈ -1 exactly as if the degenerate ones never happened.
        let r = rs.reward(1e6);
        assert!((r + 1.0).abs() < 1e-6, "EMA was poisoned: {r}");
        // And interleaved zero-op slices don't drag the EMA afterwards.
        rs.reward(0.0);
        let r2 = rs.reward(1e6);
        assert!((-1.2..=0.0).contains(&r2), "EMA drifted: {r2}");
        assert!(r2.is_finite());
    }

    #[test]
    fn per_level_no_propagation_bounded_and_never_converged() {
        let mut t = PerLevelNoPropagation::new(3, 9);
        for _ in 0..5 {
            let changes = t.tune(&report(0.5), &obs(vec![5, 5, 5]));
            for (lvl, k) in changes {
                assert!(lvl < 3);
                assert!((1..=10).contains(&k));
            }
        }
        assert!(!t.converged());
        assert!(t.model_update_ns() > 0);
        assert_eq!(t.name(), "per-level-rl-no-propagation");
    }

    #[test]
    fn per_level_seats_give_every_agent_its_own_seed() {
        // An agent's first greedy action is a function of its seed (its
        // initial weights): two agents with one seed act alike to the bit.
        let probe = [0.5; LEVEL_STATE_DIM];
        let mut seen = std::collections::HashMap::new();
        for shard in 0..4 {
            let mut seat = PerLevelNoPropagation::seat(4, 9, shard);
            for (level, agent) in seat.agents.iter_mut().enumerate() {
                let bits = agent.act(&probe)[0].to_bits();
                if let Some((s, l)) = seen.insert(bits, (shard, level)) {
                    panic!("shard {shard} level {level} has the seed of shard {s} level {l}");
                }
            }
        }
    }

    #[test]
    fn brute_force_emits_bounded_changes() {
        let mut t = BruteForceLerp::new(3, 1);
        for i in 0..5 {
            let changes = t.tune(&report(0.5), &obs(vec![5, 5, 5]));
            for (lvl, k) in changes {
                assert!(lvl < 3);
                assert!((1..=10).contains(&k));
            }
            assert!(t.model_update_ns() > 0 || i == 0);
        }
        assert!(!t.converged());
    }

    #[test]
    fn for_shard_keeps_kind_and_configuration() {
        let tuners: Vec<Box<dyn Tuner>> = vec![
            Box::new(NoOpTuner),
            Box::new(FixedPolicy::moderate()),
            Box::new(LazyLeveling),
            Box::new(GreedyHeuristic::new(25.0, 75.0)),
            Box::new(BruteForceLerp::new(3, 1)),
            Box::new(PerLevelNoPropagation::new(3, 9)),
        ];
        for t in &tuners {
            let seat = t.for_shard(2);
            assert_eq!(seat.name(), t.name());
            assert_eq!(seat.model_update_ns(), 0, "{}: a fresh seat", t.name());
        }
        let mut fixed = FixedPolicy::new(4).for_shard(3);
        assert_eq!(fixed.tune(&report(0.5), &obs(vec![1])), vec![(0, 4)]);
    }

    #[test]
    fn noop_does_nothing() {
        let mut t = NoOpTuner;
        assert!(t.tune(&report(0.5), &obs(vec![1])).is_empty());
        assert_eq!(t.model_update_ns(), 0);
    }
}
