//! The statistics collector (paper §3.1).
//!
//! RusKey "maintains a statistics collector that keeps track of necessary
//! statistics of RusKey and application workload over time. Besides overall
//! statistics of the FLSM-tree, it tracks statistics separately for each
//! FLSM-tree level to support the level-based training scheme in Lerp. It
//! also collects the operation composition in each mission for detecting
//! changes in the application workload."
//!
//! The statistics themselves, overall and per level, are the trees' own
//! [`TreeStatsSnapshot`]. A [`MissionReport`] is a **window** over them —
//! the snapshot delta its mission covers, in [`MissionReport::window`] —
//! plus the few facts only the mission knows: its logical operation
//! composition, its commit barrier, its real time and the policies the
//! tuners left behind.

use ruskey_lsm::TreeStatsSnapshot;

/// Everything RusKey knows about one processed mission.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MissionReport {
    /// Mission ordinal (0-based).
    pub mission_idx: u64,
    /// Logical operations in the mission: the window's lookups and
    /// updates plus the logical `scans`.
    pub ops: u64,
    /// Logical range scans in the mission: a scan broadcast to every
    /// shard counts once, so `gamma` is comparable across shard counts
    /// (`window.scans` counts every shard's leg — that work really
    /// happened).
    pub scans: u64,
    /// The tree statistics the mission covers: every shard's snapshot
    /// deltaed against its own baseline, then merged
    /// ([`TreeStatsSnapshot::merge_all`]), so `clock_ns` is the mission's
    /// **wall** time (the max over the shards' domain deltas) and
    /// `busy_ns` its **device-busy** time (the sum); gauges read their
    /// end-of-mission state. A tuner seat's slice carries its own shard's
    /// delta, with that shard's physical `ops` and `scans`.
    pub window: TreeStatsSnapshot,
    /// Equal to `window.clock_ns`. Kept while the perf ledger reads it;
    /// goes with ROADMAP item 8 (a).
    pub end_to_end_ns: u64,
    /// Equal to `window.wal_synced`. Kept while the perf ledger reads it;
    /// goes with ROADMAP item 8 (a).
    pub wal_synced: u64,
    /// Barrier latency of the mission's group commit (virtual ns): the
    /// **max** over the shards' commit legs. The legs run concurrently,
    /// each inside its shard's lane, so the batch waits only for the
    /// slowest shard's fsync.
    pub commit_ns: u64,
    /// Total sync work of the group commit (virtual ns): the **sum** over
    /// the shards' commit legs — what a sequential barrier would have
    /// cost. Equals `commit_ns` for a single-shard store; the
    /// `tests/pool_stress.rs` proptest pins `commit_ns <= commit_busy_ns` for any op mix.
    pub commit_busy_ns: u64,
    /// Real wall-clock time spent processing the mission (ns) — used by the
    /// Fig. 13 model-cost comparison.
    pub real_process_ns: u64,
    /// Real wall-clock time the tuner spent updating its model (ns).
    pub model_update_ns: u64,
    /// Policies in force *after* the tuner acted. For a sharded store
    /// this is the per-level **modal** policy across shards; the
    /// per-shard truth is `shard_policies_after`.
    pub policies_after: Vec<u32>,
    /// *Physical* operations executed per shard during the mission, in
    /// shard order (a broadcast scan counts once on every shard it
    /// touched) — one entry for a one-shard store.
    pub shard_ops: Vec<u64>,
    /// Per-shard policies in force after the tuner acted, in shard
    /// order — exact even when per-shard tuners have diverged (the
    /// merged `policies_after` cannot represent divergence).
    pub shard_policies_after: Vec<Vec<u32>>,
}

impl MissionReport {
    /// Lookup fraction `γ` of the mission (scans count as lookups).
    pub fn gamma(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        (self.window.lookups + self.scans) as f64 / self.ops as f64
    }

    /// Mean end-to-end (wall) latency per operation (virtual ns).
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.window.clock_ns as f64 / self.ops as f64
    }

    /// Mean device-busy time per operation (virtual ns): total virtual
    /// work across all shard domains divided by the logical op count.
    pub fn busy_ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.window.busy_ns as f64 / self.ops as f64
    }

    /// Mean group-commit batch size: WAL records appended per fsync
    /// during the mission (0 when no sync was issued). Group commit's
    /// whole point is making this large — one fsync amortized over the
    /// batch.
    pub fn wal_batch_size(&self) -> f64 {
        if self.window.wal_syncs == 0 {
            return 0.0;
        }
        self.window.wal_appends as f64 / self.window.wal_syncs as f64
    }

    /// Mean level latency `t_i` per operation for level `idx` (virtual ns).
    pub(crate) fn level_ns_per_op(&self, idx: usize) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        let level = self.window.levels.get(idx);
        level.map_or(0.0, |l| l.total_ns() as f64) / self.ops as f64
    }

    /// Hot-shard imbalance of the mission: max over `shard_ops` divided
    /// by the mean. 1.0 means perfectly balanced; `n` means a single
    /// shard absorbed all traffic. 0.0 when `shard_ops` is empty (a
    /// default-built report) or no shard did any work.
    pub fn shard_imbalance(&self) -> f64 {
        imbalance(&self.shard_ops)
    }
}

/// The hottest shard's load as a multiple of the mean shard load; 0.0
/// when there is no shard or no load.
pub(crate) fn imbalance(shard_ops: &[u64]) -> f64 {
    let total: u64 = shard_ops.iter().sum();
    match shard_ops.iter().max() {
        Some(&max) if total > 0 => max as f64 / (total as f64 / shard_ops.len() as f64),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::RusKeyConfig;
    use crate::sharded::{Backend, RusKey};
    use crate::tuner::{NoOpTuner, TreeObservation, Tuner};
    use ruskey_lsm::LevelStatsSnapshot;
    use ruskey_storage::{CostModel, SimulatedDisk};
    use ruskey_workload::{bulk_load_pairs, OpGenerator, OpMix, WorkloadSpec};
    use std::sync::{Arc, Mutex};

    /// A loaded store of `shards` shards and a generator of mixed missions
    /// (scans included) over its keys.
    fn loaded(shards: usize, tuner: Box<dyn Tuner>) -> (RusKey, OpGenerator) {
        let mut cfg = RusKeyConfig::scaled_default();
        cfg.lsm.buffer_bytes = 4096;
        let disk = SimulatedDisk::new(512, CostModel::NVME);
        let mut db = RusKey::open(cfg, shards, tuner, Backend::Volatile(disk)).expect("open");
        db.bulk_load(bulk_load_pairs(1000, 16, 48, 1));
        let spec = WorkloadSpec::scaled_default(1000).with_mix(OpMix {
            lookup: 0.4,
            update: 0.4,
            delete: 0.1,
            scan: 0.1,
        });
        (db, OpGenerator::new(spec, 2))
    }

    /// Records the slice each seat is handed, tagged with its shard.
    struct Recorder {
        shard: usize,
        seen: Arc<Mutex<Vec<(usize, MissionReport)>>>,
    }

    impl Tuner for Recorder {
        fn name(&self) -> String {
            "recorder".into()
        }

        fn tune(&mut self, report: &MissionReport, _: &TreeObservation) -> Vec<(usize, u32)> {
            self.seen.lock().unwrap().push((self.shard, report.clone()));
            Vec::new()
        }

        fn for_shard(&self, shard: usize) -> Box<dyn Tuner> {
            let seen = Arc::clone(&self.seen);
            Box::new(Recorder { shard, seen })
        }
    }

    #[test]
    fn reports_are_deltas() {
        let (mut db, mut g) = loaded(1, Box::new(NoOpTuner));
        let start = db.shard_snapshots();
        let r0 = db.run_mission(&g.take_ops(200));
        let mid = db.shard_snapshots();
        let r1 = db.run_mission(&g.take_ops(200));
        let end = db.shard_snapshots();
        assert_eq!((r0.mission_idx, r1.mission_idx), (0, 1));
        assert_eq!(
            r0.window,
            mid[0].delta(&start[0]),
            "the load is not a mission"
        );
        assert_eq!(
            r1.window,
            end[0].delta(&mid[0]),
            "the next window opens at the last end"
        );
        let w = &r1.window;
        assert_eq!(r1.ops, w.lookups + w.updates + w.scans);
        assert_eq!(r1.scans, w.scans, "one shard: every scan is logical");
        assert_eq!(w.busy_ns, w.clock_ns, "one domain: busy == wall");
        assert_eq!(r1.commit_ns, r1.commit_busy_ns, "one leg: max == sum");
        assert!(r1.real_process_ns > 0);
    }

    #[test]
    fn split_reports_slice_per_shard() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seat = Recorder {
            shard: 0,
            seen: Arc::clone(&seen),
        };
        let (mut db, mut g) = loaded(2, Box::new(seat));
        let before = db.shard_snapshots();
        let r = db.run_mission(&g.take_ops(200));
        let after = db.shard_snapshots();
        let slices = seen.lock().unwrap();
        assert_eq!(slices.len(), 2, "both shards worked, so both seats tuned");
        for (shard, slice) in slices.iter() {
            let own = after[*shard].delta(&before[*shard]);
            let physical = own.lookups + own.updates + own.scans;
            assert_eq!(slice.ops, physical, "shard {shard}: physical ops");
            assert_eq!(slice.scans, own.scans, "shard {shard}: its broadcast legs");
            assert_eq!(slice.window, own, "shard {shard}: its own delta");
            assert_eq!(slice.end_to_end_ns, own.clock_ns);
            assert_eq!(slice.shard_ops, vec![physical]);
            assert_eq!(slice.commit_ns, slice.commit_busy_ns, "its own leg");
            assert_eq!(slice.mission_idx, r.mission_idx);
        }
        let shard_ops: Vec<u64> = slices.iter().map(|(_, s)| s.ops).collect();
        assert_eq!(r.shard_ops, shard_ops);
        assert_eq!(
            r.window.scans,
            2 * r.scans,
            "a broadcast scan is one logical scan"
        );
        assert!(r.commit_ns <= r.commit_busy_ns);
    }

    #[test]
    fn shard_imbalance_is_max_over_mean() {
        let mut r = MissionReport::default();
        assert_eq!(r.shard_imbalance(), 0.0, "no shard data");
        r.shard_ops = vec![0, 0];
        assert_eq!(r.shard_imbalance(), 0.0, "no work");
        r.shard_ops = vec![5, 5, 5, 5];
        assert!((r.shard_imbalance() - 1.0).abs() < 1e-12, "balanced");
        r.shard_ops = vec![12, 0, 0, 0];
        assert!((r.shard_imbalance() - 4.0).abs() < 1e-12, "one hot shard");
    }

    #[test]
    fn gamma_and_per_op() {
        let r = MissionReport {
            ops: 100,
            scans: 5,
            window: TreeStatsSnapshot {
                lookups: 85,
                updates: 10,
                clock_ns: 5000,
                busy_ns: 8000,
                wal_appends: 25,
                wal_syncs: 1,
                levels: vec![LevelStatsSnapshot {
                    lookup_ns: 600,
                    compact_ns: 400,
                    ..Default::default()
                }],
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((r.gamma() - 0.9).abs() < 1e-12);
        assert!((r.ns_per_op() - 50.0).abs() < 1e-12);
        assert!((r.busy_ns_per_op() - 80.0).abs() < 1e-12);
        assert!((r.wal_batch_size() - 25.0).abs() < 1e-12);
        assert!(
            (r.level_ns_per_op(0) - 10.0).abs() < 1e-12,
            "t_i = lookup + compact"
        );
        assert_eq!(r.level_ns_per_op(5), 0.0);
    }

    #[test]
    fn empty_mission_is_safe() {
        let r = MissionReport::default();
        assert_eq!(r.gamma(), 0.0);
        assert_eq!(r.ns_per_op(), 0.0);
        assert_eq!(r.busy_ns_per_op(), 0.0);
        // No syncs: batch size is defined as 0, not a division by zero.
        assert_eq!(r.wal_batch_size(), 0.0);
    }
}
