//! The RusKey store: FLSM-tree + tuner + statistics collector (paper §3).
//!
//! [`RusKey`] is a facade over a **one-shard**
//! [`ShardedRusKey`]: the paper's single-tree loop
//! (mission → statistics collector → tuner → FLSM transition, Fig. 1) is
//! the store's one mission loop at `N = 1` — one lane, run on the caller's
//! thread, one tuner seat (the tuner it was opened with, on shard 0) —
//! not a second copy of it. Every method here forwards; [`RusKey::tree`]
//! is shard 0.
//!
//! One consequence for accounting: the tree sits on a
//! [`ShardStorage`](ruskey_storage::ShardStorage) view of the `storage`
//! it was opened on. The view's clock is the tree's time domain and
//! **starts at 0**, while the device underneath keeps the device-busy
//! total of everything ever run on it — so on a fresh disk
//! `tree().stats().clock_ns` and the disk's own clock agree, and on a
//! *reused* disk absolute readings differ by what ran before: compare
//! deltas, as [`MissionReport`]s do.

use std::sync::Arc;

use bytes::Bytes;
use ruskey_lsm::{BloomScheme, ConfigError, FlsmTree, LsmConfig, TransitionStrategy};
use ruskey_storage::Storage;
use ruskey_workload::Operation;

use crate::lerp::{Lerp, LerpConfig, PropagationScheme};
use crate::sharded::{MissionError, ShardedRusKey};
use crate::stats::MissionReport;
use crate::tuner::{NoOpTuner, TreeObservation, Tuner};

/// Configuration of a [`RusKey`] instance.
#[derive(Debug, Clone, PartialEq)]
pub struct RusKeyConfig {
    /// The underlying FLSM-tree configuration.
    pub lsm: LsmConfig,
    /// Lerp configuration (used by [`RusKey::with_lerp`]).
    pub lerp: LerpConfig,
}

impl RusKeyConfig {
    /// Scaled-down defaults matching the experiment setup
    /// ([`LsmConfig::scaled_default`]); uniform Bloom scheme.
    pub fn scaled_default() -> Self {
        Self {
            lsm: LsmConfig::scaled_default(),
            lerp: LerpConfig::paper_default(PropagationScheme::Uniform),
        }
    }

    /// Scaled defaults under the Monkey scheme (Fig. 8/9 experiments). The
    /// level-1 FPR is chosen so Monkey's total filter memory roughly matches
    /// the uniform scheme's 8 bits/key over a 4-level tree, mirroring the
    /// paper's bits-per-key adjustment (§7 "Implementation").
    pub fn scaled_monkey() -> Self {
        let mut cfg = Self::scaled_default();
        cfg.lsm.bloom = BloomScheme::Monkey { level1_fpr: 1e-4 };
        cfg.lerp = LerpConfig::paper_default(PropagationScheme::Monkey);
        cfg
    }

    /// Sets the transition strategy.
    pub fn with_transition(mut self, t: TransitionStrategy) -> Self {
        self.lsm.transition = t;
        self
    }
}

/// An RL-tuned LSM-tree key-value store: the paper's single-tree system,
/// as a one-shard [`ShardedRusKey`].
pub struct RusKey {
    store: ShardedRusKey,
}

impl RusKey {
    /// Creates a store driven by an arbitrary tuner, rejecting invalid
    /// configurations instead of panicking.
    pub fn try_with_tuner(
        cfg: RusKeyConfig,
        storage: Arc<dyn Storage>,
        tuner: Box<dyn Tuner>,
    ) -> Result<Self, ConfigError> {
        let store = ShardedRusKey::try_with_tuner(cfg, 1, storage, tuner)?;
        Ok(Self { store })
    }

    /// Creates a store driven by an arbitrary tuner (fixed baselines,
    /// greedy heuristics, …).
    ///
    /// # Panics
    /// Panics if the configuration is invalid; use
    /// [`RusKey::try_with_tuner`] for fallible construction.
    pub fn with_tuner(cfg: RusKeyConfig, storage: Arc<dyn Storage>, tuner: Box<dyn Tuner>) -> Self {
        Self::try_with_tuner(cfg, storage, tuner)
            .unwrap_or_else(|e| panic!("invalid RusKeyConfig: {e}"))
    }

    /// Creates a store tuned by Lerp (the RusKey system of the paper).
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn with_lerp(cfg: RusKeyConfig, storage: Arc<dyn Storage>) -> Self {
        let lerp = Lerp::new(cfg.lerp.clone());
        Self::with_tuner(cfg, storage, Box::new(lerp))
    }

    /// Creates an untuned store (whatever policies the tree starts with).
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn untuned(cfg: RusKeyConfig, storage: Arc<dyn Storage>) -> Self {
        Self::with_tuner(cfg, storage, Box::new(NoOpTuner))
    }

    /// The tuner's display name.
    pub fn tuner_name(&self) -> String {
        self.store.tuner_name()
    }

    /// Whether the tuner reports convergence.
    pub fn tuner_converged(&self) -> bool {
        self.store.tuner_converged()
    }

    /// Cumulative model-update time (Fig. 13).
    pub fn model_update_ns(&self) -> u64 {
        self.store.model_update_ns()
    }

    /// Direct access to the underlying tree.
    pub fn tree(&self) -> &FlsmTree {
        self.store.shard(0)
    }

    /// Mutable access to the underlying tree (experiments toggling
    /// transition strategies etc.).
    pub fn tree_mut(&mut self) -> &mut FlsmTree {
        self.store.shard_mut(0)
    }

    /// The report of the last processed mission.
    pub fn last_report(&self) -> Option<&MissionReport> {
        self.store.last_report()
    }

    // ------------------------------------------------------------------
    // Plain KV interface (outside missions): the store's ad-hoc path, so
    // every 32nd write is a maintenance boundary (a no-op with inline
    // maintenance).
    // ------------------------------------------------------------------

    /// Point lookup.
    pub fn get(&mut self, key: &[u8]) -> Option<Bytes> {
        self.store.get(key)
    }

    /// Insert or overwrite.
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        self.store.put(key, value);
    }

    /// Delete.
    pub fn delete(&mut self, key: impl Into<Bytes>) {
        self.store.delete(key);
    }

    /// Range scan over `[start, end)` with a result limit.
    pub fn scan(&mut self, start: &[u8], end: &[u8], limit: usize) -> Vec<(Bytes, Bytes)> {
        self.store.scan(start, end, limit)
    }

    // ------------------------------------------------------------------
    // Mission-driven operation (the paper's workflow, Fig. 1)
    // ------------------------------------------------------------------

    /// Bulk-loads the store and resets the statistics baseline so mission
    /// reports exclude the load.
    pub fn bulk_load(&mut self, pairs: Vec<(Bytes, Bytes)>) {
        self.store.bulk_load(pairs);
    }

    /// Snapshot of the tree structure for tuners.
    pub fn observe(&self) -> TreeObservation {
        self.store.observe()
    }

    /// Processes one mission: executes the operations, builds the mission
    /// report, lets the tuner act, and applies its policy changes via the
    /// configured transition.
    ///
    /// # Panics
    /// Panics on [`MissionError`] (a WAL I/O failure); use
    /// [`RusKey::try_run_mission`] for fallible operation.
    pub fn run_mission(&mut self, ops: &[Operation]) -> MissionReport {
        self.store.run_mission(ops)
    }

    /// Fallible form of [`RusKey::run_mission`]: a WAL I/O failure in the
    /// mission-boundary commit (with a WAL attached via
    /// [`FlsmTree::attach_wal`], the mission's one fsync) surfaces as
    /// [`MissionError::Wal`] (shard 0) instead of a panic. The mission's
    /// operations were applied but are not acknowledged, and no report is
    /// cut for them.
    pub fn try_run_mission(&mut self, ops: &[Operation]) -> Result<MissionReport, MissionError> {
        self.store.try_run_mission(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::FixedPolicy;
    use ruskey_storage::{CostModel, SimulatedDisk};
    use ruskey_workload::{bulk_load_pairs, OpGenerator, OpMix, WorkloadSpec};

    fn small_cfg() -> RusKeyConfig {
        let mut cfg = RusKeyConfig::scaled_default();
        cfg.lsm.buffer_bytes = 4096;
        cfg.lsm.size_ratio = 4;
        cfg
    }

    fn disk() -> Arc<SimulatedDisk> {
        SimulatedDisk::new(512, CostModel::NVME)
    }

    #[test]
    fn try_constructors_reject_invalid_configs() {
        let mut cfg = small_cfg();
        cfg.lsm.size_ratio = 1;
        assert!(RusKey::try_with_tuner(cfg.clone(), disk(), Box::new(NoOpTuner)).is_err());
        let err = RusKey::try_with_tuner(cfg, disk(), Box::new(FixedPolicy::moderate()))
            .err()
            .expect("must reject T < 2");
        assert!(err.to_string().contains("size_ratio"));
        // Valid configs still construct.
        assert!(RusKey::try_with_tuner(small_cfg(), disk(), Box::new(NoOpTuner)).is_ok());
    }

    #[test]
    fn kv_roundtrip() {
        let mut db = RusKey::with_lerp(small_cfg(), disk());
        db.put(&b"alpha"[..], &b"1"[..]);
        db.put(&b"beta"[..], &b"2"[..]);
        assert_eq!(db.get(b"alpha").as_deref(), Some(&b"1"[..]));
        db.delete(&b"alpha"[..]);
        assert_eq!(db.get(b"alpha"), None);
        assert_eq!(db.scan(b"a", b"z", 10).len(), 1);
    }

    #[test]
    fn missions_report_composition_and_latency() {
        let mut db = RusKey::with_tuner(small_cfg(), disk(), Box::new(FixedPolicy::moderate()));
        db.bulk_load(bulk_load_pairs(500, 16, 48, 1));
        let spec = WorkloadSpec {
            key_space: 500,
            value_len: 48,
            ..WorkloadSpec::scaled_default(500)
        }
        .with_mix(OpMix::read_heavy());
        let mut g = OpGenerator::new(spec, 2);
        for i in 0..3 {
            let ops = g.take_ops(200);
            let r = db.run_mission(&ops);
            assert_eq!(r.ops, 200, "mission {i}");
            assert!((r.gamma() - 0.9).abs() < 0.08, "gamma {}", r.gamma());
            assert!(r.end_to_end_ns > 0);
            assert!(!r.policies_after.is_empty());
        }
    }

    #[test]
    fn fixed_tuner_applies_policy_in_first_mission() {
        let mut db = RusKey::with_tuner(small_cfg(), disk(), Box::new(FixedPolicy::new(4)));
        db.bulk_load(bulk_load_pairs(500, 16, 48, 1));
        let spec = WorkloadSpec {
            key_space: 500,
            value_len: 48,
            ..WorkloadSpec::scaled_default(500)
        };
        let mut g = OpGenerator::new(spec, 2);
        let r = db.run_mission(&g.take_ops(100));
        assert!(
            r.policies_after.iter().all(|&k| k == 4),
            "{:?}",
            r.policies_after
        );
    }

    #[test]
    fn bulk_load_excluded_from_first_mission() {
        let mut db = RusKey::untuned(small_cfg(), disk());
        db.bulk_load(bulk_load_pairs(2000, 16, 48, 1));
        let spec = WorkloadSpec {
            key_space: 2000,
            value_len: 48,
            ..WorkloadSpec::scaled_default(2000)
        }
        .with_mix(OpMix::reads(1.0));
        let mut g = OpGenerator::new(spec, 2);
        let r = db.run_mission(&g.take_ops(50));
        // 50 pure lookups: a tiny latency compared to loading 2000 entries.
        assert_eq!(r.ops, 50);
        assert_eq!(r.updates, 0);
        assert!(
            r.end_to_end_ns < 50 * 1_000_000,
            "bulk load leaked into mission"
        );
    }

    /// A WAL I/O error at the mission boundary is a typed error, not a
    /// panic, and the failed mission's work is folded out of the next
    /// report. `/dev/full` opens fine and fails every write with ENOSPC.
    #[test]
    #[cfg(target_os = "linux")]
    fn wal_failure_is_a_typed_error_and_rebaselines() {
        let mut db = RusKey::untuned(small_cfg(), disk());
        let wal = ruskey_lsm::Wal::open_with_sync_every("/dev/full", 0).expect("open /dev/full");
        db.tree_mut().attach_wal(wal);
        let puts: Vec<Operation> = (0..20u64)
            .map(|i| Operation::Put {
                key: ruskey_workload::encode_key(i, 16),
                value: Bytes::from(vec![7u8; 48]),
            })
            .collect();
        let err = db
            .try_run_mission(&puts)
            .expect_err("the commit leg cannot write to /dev/full");
        assert!(
            matches!(err, MissionError::Wal { shard: 0, .. }),
            "unexpected error: {err}"
        );
        assert!(db.last_report().is_none(), "no report is cut for a failure");
        // Swap in a log that works: the next report covers its own mission
        // only, although the failed mission's puts were applied.
        let path = std::env::temp_dir().join(format!("ruskey-db-wal-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let wal = ruskey_lsm::Wal::open_with_sync_every(&path, 0).expect("open temp WAL");
        db.tree_mut().attach_wal(wal);
        let gets: Vec<Operation> = (0..5u64)
            .map(|i| Operation::Get {
                key: ruskey_workload::encode_key(i, 16),
            })
            .collect();
        let r = db.try_run_mission(&gets).expect("healthy log");
        assert_eq!((r.ops, r.updates), (5, 0), "failed mission leaked in");
        assert!(db.get(&ruskey_workload::encode_key(3, 16)).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lerp_store_tracks_model_time() {
        let mut db = RusKey::with_lerp(small_cfg(), disk());
        db.bulk_load(bulk_load_pairs(500, 16, 48, 1));
        let spec = WorkloadSpec {
            key_space: 500,
            value_len: 48,
            ..WorkloadSpec::scaled_default(500)
        };
        let mut g = OpGenerator::new(spec, 2);
        let mut total_model = 0;
        for _ in 0..3 {
            let r = db.run_mission(&g.take_ops(100));
            total_model += r.model_update_ns;
        }
        assert!(total_model > 0);
        assert!(db.model_update_ns() > 0);
        assert_eq!(db.tuner_name(), "ruskey-lerp");
    }

    /// A mission without operations carries no signal: the seat is
    /// skipped, so the agent neither trains nor moves a policy.
    #[test]
    fn an_empty_mission_does_not_train_the_tuner() {
        let mut db = RusKey::with_lerp(small_cfg(), disk());
        db.bulk_load(bulk_load_pairs(500, 16, 48, 1));
        let start = db.observe().policies;
        let r = db.run_mission(&[]);
        assert_eq!((r.ops, r.model_update_ns), (0, 0));
        assert_eq!(db.model_update_ns(), 0);
        assert_eq!(r.policies_after, start);
        assert_eq!(db.observe().policies, start);
    }
}
