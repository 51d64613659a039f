//! The store's configuration: the FLSM-tree's and Lerp's, in the one value
//! [`RusKey::open`](crate::sharded::RusKey::open) takes.

use ruskey_lsm::{BloomScheme, LsmConfig, TransitionStrategy};

use crate::lerp::{LerpConfig, PropagationScheme};

/// Configuration of a [`RusKey`](crate::sharded::RusKey) store.
#[derive(Debug, Clone, PartialEq)]
pub struct RusKeyConfig {
    /// The underlying FLSM-tree configuration.
    pub lsm: LsmConfig,
    /// Lerp configuration (a Lerp-tuned store seats
    /// `Lerp::new(cfg.lerp.clone())`).
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

/// The paper's single-tree store — [`RusKey::open`] with one shard — end
/// to end.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::lerp::Lerp;
    use crate::sharded::{Backend, RusKey, StoreError};
    use crate::tuner::{FixedPolicy, NoOpTuner, Tuner};
    use bytes::Bytes;
    use ruskey_storage::{CostModel, SimulatedDisk};
    use ruskey_workload::{bulk_load_pairs, OpGenerator, OpMix, Operation, WorkloadSpec};

    fn small_cfg() -> RusKeyConfig {
        let mut cfg = RusKeyConfig::scaled_default();
        cfg.lsm.buffer_bytes = 4096;
        cfg.lsm.size_ratio = 4;
        cfg
    }

    /// A one-shard store on a fresh simulated disk.
    fn open(cfg: RusKeyConfig, tuner: Box<dyn Tuner>) -> Result<RusKey, StoreError> {
        let disk = SimulatedDisk::new(512, CostModel::NVME);
        RusKey::open(cfg, 1, tuner, Backend::Volatile(disk))
    }

    fn lerp_store() -> RusKey {
        let lerp = Box::new(Lerp::new(small_cfg().lerp));
        open(small_cfg(), lerp).expect("open")
    }

    #[test]
    fn try_constructors_reject_invalid_configs() {
        let mut cfg = small_cfg();
        cfg.lsm.size_ratio = 1;
        assert!(open(cfg.clone(), Box::new(NoOpTuner)).is_err());
        let err = open(cfg, Box::new(FixedPolicy::moderate()))
            .err()
            .expect("must reject T < 2");
        assert!(matches!(err, StoreError::Config(_)), "{err}");
        assert!(err.to_string().contains("size_ratio"));
        // Valid configs still construct.
        assert!(open(small_cfg(), Box::new(NoOpTuner)).is_ok());
    }

    #[test]
    fn kv_roundtrip() {
        let mut db = lerp_store();
        db.put(&b"alpha"[..], &b"1"[..]);
        db.put(&b"beta"[..], &b"2"[..]);
        assert_eq!(db.get(b"alpha").as_deref(), Some(&b"1"[..]));
        db.delete(&b"alpha"[..]);
        assert_eq!(db.get(b"alpha"), None);
        assert_eq!(db.scan(b"a", b"z", 10).len(), 1);
    }

    #[test]
    fn missions_report_composition_and_latency() {
        let mut db = open(small_cfg(), Box::new(FixedPolicy::moderate())).expect("open");
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
        let mut db = open(small_cfg(), Box::new(FixedPolicy::new(4))).expect("open");
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

    /// A WAL I/O error at the mission boundary is a typed error, not a
    /// panic, and the failed mission's work is folded out of the next
    /// report. `/dev/full` opens fine and fails every write with ENOSPC.
    #[test]
    #[cfg(target_os = "linux")]
    fn wal_failure_is_a_typed_error_and_rebaselines() {
        let mut db = open(small_cfg(), Box::new(NoOpTuner)).expect("open");
        let wal = ruskey_lsm::Wal::open_with_sync_every("/dev/full", 0).expect("open /dev/full");
        db.shard_mut(0).attach_wal(wal);
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
            matches!(err, StoreError::Wal { shard: 0, .. }),
            "unexpected error: {err}"
        );
        // Swap in a log that works: the next report covers its own mission
        // only, although the failed mission's puts were applied.
        let path = std::env::temp_dir().join(format!("ruskey-db-wal-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let wal = ruskey_lsm::Wal::open_with_sync_every(&path, 0).expect("open temp WAL");
        db.shard_mut(0).attach_wal(wal);
        let gets: Vec<Operation> = (0..5u64)
            .map(|i| Operation::Get {
                key: ruskey_workload::encode_key(i, 16),
            })
            .collect();
        let r = db.try_run_mission(&gets).expect("healthy log");
        assert_eq!(
            (r.ops, r.window.updates),
            (5, 0),
            "failed mission leaked in"
        );
        assert_eq!(r.mission_idx, 0, "no report is cut for a failure");
        assert!(db.get(&ruskey_workload::encode_key(3, 16)).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lerp_store_tracks_model_time() {
        let mut db = lerp_store();
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
        let mut db = lerp_store();
        db.bulk_load(bulk_load_pairs(500, 16, 48, 1));
        let start = db.observe().policies;
        let r = db.run_mission(&[]);
        assert_eq!((r.ops, r.model_update_ns), (0, 0));
        assert_eq!(db.model_update_ns(), 0);
        assert_eq!(r.policies_after, start);
        assert_eq!(db.observe().policies, start);
    }
}
