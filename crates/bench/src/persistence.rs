//! Full-store persistence experiment (beyond the paper): restart
//! equivalence of the manifest + `FileDisk` recovery path.
//!
//! `repro persistence` runs the balanced mixed workload on a **fully
//! persistent** [`RusKey`] at each shard count — every shard on its
//! own `FileDisk` directory with a manifest for the run/level structure
//! and a WAL for the write buffer — then simulates a restart: the store is
//! dropped (losing every in-memory structure) and reopening it on
//! [`Backend::Recover`] rebuilds it from the three
//! on-disk artifacts. Each row verifies in-process that the recovered
//! store is **get/scan-identical** to the store that was dropped (flushed
//! runs included, not just the WAL tail), that recovery actually rebuilt
//! runs from data pages, and that the recovered store keeps serving
//! missions; the per-row verdicts conjoin into a single `persistence_ok`
//! flag CI greps from the JSON output.
//!
//! The missions before the restart also measure the WAL's cross-shard
//! group commit and check its invariants
//! ([`group_commit_ok`](crate::durability::group_commit_ok)); the per-row
//! `group_commit_ok` verdicts conjoin into `durability_ok`. Both barrier
//! compositions (overlapped max, sequential sum) are reported per row,
//! and `overlap_ok` checks their per-mission means on their own.
//!
//! Each row then goes one failure mode deeper: a **simulated power cut**
//! ([`PowerCutPoint::ExtentUnsynced`]) fires at shard 0's extent-fsync
//! barrier mid-flush, tearing the un-synced extent file and halting the
//! device. The subsequent recovery must restore exactly the acknowledged
//! state, sweep the torn orphan extent, and keep serving — the per-row
//! `power_ok` verdicts conjoin into the `power_failure_ok` flag CI greps
//! alongside `persistence_ok`.

use bytes::Bytes;

use ruskey::db::RusKeyConfig;
use ruskey::runner::ExperimentScale;
use ruskey::sharded::{Backend, PersistenceConfig, RusKey};
use ruskey::stats::MissionReport;
use ruskey::tuner::NoOpTuner;
use ruskey_storage::PowerCutPoint;
use ruskey_workload::{bulk_load_pairs, encode_key, OpGenerator, OpMix};

/// One shard count's persistence measurement.
#[derive(Debug, Clone)]
pub struct PersistenceRow {
    /// Number of shards (= number of FileDisk directories + manifests).
    pub shards: usize,
    /// Missions executed before the simulated restart.
    pub missions: usize,
    /// Total operations executed before the restart.
    pub ops_total: u64,
    /// Memtable flushes before the restart (each one moved runs to disk
    /// and committed manifest edits).
    pub flushes: u64,
    /// Write operations (puts + deletes) before the restart — each one
    /// acknowledged at its mission's commit barrier.
    pub acknowledged_ops: u64,
    /// WAL records that left the loss window: covered by a successful
    /// fsync, or superseded by a flushed run.
    pub synced_ops: u64,
    /// WAL records appended across all shards.
    pub wal_appends: u64,
    /// WAL fsyncs issued across all shards (≤ shards × missions under
    /// group commit).
    pub wal_syncs: u64,
    /// Mean group-commit batch size (records appended per fsync).
    pub mean_batch: f64,
    /// Mean virtual barrier latency per mission (ns): the **overlapped**
    /// composition — per mission, the max over the shards' concurrent
    /// commit legs. The durability latency group commit adds to a batch.
    pub commit_ns_per_mission: f64,
    /// Mean total sync work per mission (ns): the sum over the shards'
    /// commit legs — what the barrier would cost if the fsyncs ran one
    /// after another on the mission thread.
    pub commit_busy_ns_per_mission: f64,
    /// The group-commit invariants held after every mission.
    pub group_commit_ok: bool,
    /// Lifetime manifest edits across all shards after recovery
    /// (replayed + committed).
    pub manifest_edits: u64,
    /// Runs rebuilt from manifest + data pages by the recovery.
    pub runs_recovered: u64,
    /// WAL records replayed on top of the recovered structure.
    pub replayed_tail: u64,
    /// Point lookups compared bit-for-bit between the dropped store and
    /// its recovery.
    pub checked_keys: u64,
    /// Restart equivalence held: every compared get and the full scan
    /// were identical, runs were actually rebuilt, and the recovered
    /// store served a post-restart mission.
    pub ok: bool,
    /// Extent-file fsyncs issued by the run (power-failure contract,
    /// step 1) — proof the durability barriers were exercised.
    pub extent_syncs: u64,
    /// Directory-handle fsyncs issued by the run (contract step 2).
    pub dir_syncs: u64,
    /// Orphaned extent files the post-power-cut recovery swept.
    pub orphans_collected: u64,
    /// The power-cut leg held: the cut fired and crashed the store, the
    /// second recovery restored exactly the acknowledged state, swept the
    /// torn orphan, and served a further mission.
    pub power_ok: bool,
}

/// The store configuration of the experiment: the scaled defaults with a
/// small write buffer, so every shard flushes runs to disk even at tiny
/// scale and high shard counts (per-shard write traffic shrinks with
/// `N`) — a restart that only replays the WAL tail would be
/// indistinguishable from full persistence otherwise.
fn store_cfg() -> RusKeyConfig {
    let mut cfg = RusKeyConfig::scaled_default();
    cfg.lsm.buffer_bytes = 8 * 1024;
    cfg
}

/// Runs the persistent store at each shard count, restarts it, and
/// verifies restart equivalence.
pub fn persistence(scale: &ExperimentScale, shard_counts: &[usize]) -> Vec<PersistenceRow> {
    shard_counts
        .iter()
        .map(|&n| {
            let root = std::env::temp_dir().join(format!(
                "ruskey-persistence-{}-{n}shards",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let mut pcfg = PersistenceConfig::new(&root);
            pcfg.page_size = scale.page_size;
            pcfg.cost = scale.cost;

            let mut db = RusKey::open(store_cfg(), n, Box::new(NoOpTuner), Backend::Create(&pcfg))
                .expect("open persistent store");
            db.bulk_load(bulk_load_pairs(
                scale.load_entries,
                scale.key_len,
                scale.value_len,
                scale.seed,
            ));
            let spec = scale.spec().with_mix(OpMix::balanced());
            let mut g = OpGenerator::new(spec, scale.seed.wrapping_add(1));
            let reports: Vec<MissionReport> = (0..scale.missions)
                .map(|_| db.run_mission(&g.take_ops(scale.mission_size)))
                .collect();
            let sum = |field: fn(&MissionReport) -> u64| reports.iter().map(field).sum::<u64>();
            let flushes = db.stats().flushes;

            // Reference answers from the live store: every key of the
            // space (at tiny scale) or a stride sample, plus one scan.
            let stride = (scale.load_entries / 2_000).max(1);
            let sample: Vec<Bytes> = (0..scale.load_entries)
                .step_by(stride as usize)
                .map(|i| encode_key(i, scale.key_len))
                .collect();
            let expected_gets: Vec<Option<Bytes>> = sample.iter().map(|k| db.get(k)).collect();
            let lo = encode_key(0, scale.key_len);
            let hi = encode_key(scale.load_entries, scale.key_len);
            let expected_scan = db.scan(&lo, &hi, 500);
            drop(db); // restart: every in-memory structure dies

            let mut rec =
                RusKey::open(store_cfg(), n, Box::new(NoOpTuner), Backend::Recover(&pcfg))
                    .expect("recover persistent store");
            let stats = rec.stats();
            let mut ok = true;
            for (k, want) in sample.iter().zip(&expected_gets) {
                ok &= &rec.get(k) == want;
            }
            ok &= rec.scan(&lo, &hi, 500) == expected_scan;
            // Flushes happened, so recovery must have rebuilt real runs
            // (this is what distinguishes full-store persistence from the
            // WAL-only recovery of earlier revisions).
            ok &= flushes > 0 && stats.runs_recovered > 0;
            ok &= stats.manifest_edits > 0;
            // The recovered store keeps serving missions. The ad-hoc
            // reference gets/scans above fold into this report's delta
            // (as they always have), so the op count is a lower bound.
            let post = rec.run_mission(&g.take_ops(scale.mission_size));
            ok &= post.ops >= scale.mission_size as u64;

            // Power-cut leg: overwrite a marked, acknowledged batch, then
            // cut the power at shard 0's extent-fsync barrier mid-flush —
            // the extent tears, the device halts, the manifest commit and
            // WAL recycling never happen.
            let marked = Bytes::from(vec![0xAB; scale.value_len.max(1)]);
            for i in (0..scale.load_entries).step_by(stride as usize).take(64) {
                rec.put(encode_key(i, scale.key_len), marked.clone());
            }
            rec.group_commit();
            let expected_power_gets: Vec<Option<Bytes>> =
                sample.iter().map(|k| rec.get(k)).collect();
            rec.shard(0)
                .storage()
                .arm_power_cut(PowerCutPoint::ExtentUnsynced, 0);
            rec.shard_mut(0).flush();
            let cut_fired = rec.shard(0).power_failed();
            let pre_cut = rec.stats();
            drop(rec); // power loss

            let mut rec2 =
                RusKey::open(store_cfg(), n, Box::new(NoOpTuner), Backend::Recover(&pcfg))
                    .expect("recover after power cut");
            let power_stats = rec2.stats();
            let mut power_ok = cut_fired;
            // The acknowledged state — marked batch included — survives
            // the cut bit-for-bit, and the torn extent is swept.
            for (k, want) in sample.iter().zip(&expected_power_gets) {
                power_ok &= &rec2.get(k) == want;
            }
            power_ok &= power_stats.orphans_collected >= 1;
            power_ok &= pre_cut.extent_syncs > 0 && pre_cut.dir_syncs > 0;
            let post2 = rec2.run_mission(&g.take_ops(scale.mission_size));
            power_ok &= post2.ops >= scale.mission_size as u64;
            let _ = std::fs::remove_dir_all(&root);

            let per_mission = |ns: u64| ns as f64 / scale.missions.max(1) as f64;
            let (appends, syncs) = (sum(|r| r.wal_appends), sum(|r| r.wal_syncs));
            PersistenceRow {
                shards: n,
                missions: scale.missions,
                ops_total: sum(|r| r.ops),
                flushes,
                acknowledged_ops: sum(|r| r.updates),
                synced_ops: sum(|r| r.wal_synced),
                wal_appends: appends,
                wal_syncs: syncs,
                mean_batch: appends as f64 / syncs.max(1) as f64,
                commit_ns_per_mission: per_mission(sum(|r| r.commit_ns)),
                commit_busy_ns_per_mission: per_mission(sum(|r| r.commit_busy_ns)),
                group_commit_ok: crate::durability::group_commit_ok(&reports, n),
                manifest_edits: stats.manifest_edits,
                runs_recovered: stats.runs_recovered,
                replayed_tail: stats.replayed_tail,
                checked_keys: sample.len() as u64,
                ok,
                extent_syncs: pre_cut.extent_syncs,
                dir_syncs: pre_cut.dir_syncs,
                orphans_collected: power_stats.orphans_collected,
                power_ok,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistence_rows_hold_restart_equivalence() {
        let _serial = crate::real_time_test_guard();
        let scale = ExperimentScale {
            load_entries: 1000,
            mission_size: 100,
            missions: 8,
            page_size: 512,
            ..ExperimentScale::tiny()
        };
        let rows = persistence(&scale, &[1, 2]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.ok, "restart equivalence failed at {} shards", r.shards);
            assert!(r.flushes > 0, "the scenario must move runs to disk");
            assert!(r.runs_recovered > 0);
            assert!(r.manifest_edits > 0);
            assert!(r.checked_keys > 0);
            assert!(r.power_ok, "power-cut leg failed at {} shards", r.shards);
            assert!(r.extent_syncs > 0, "extent-fsync barrier never exercised");
            assert!(r.dir_syncs > 0, "dir-fsync barrier never exercised");
            assert!(r.orphans_collected >= 1, "the torn extent must be swept");
        }
    }
}
