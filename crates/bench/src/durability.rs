//! Durability experiment (beyond the paper): the cost and correctness of
//! the WAL + cross-shard group-commit write path.
//!
//! `repro durability` runs the balanced mixed workload on a *durable*
//! [`ShardedRusKey`] at each shard count, measuring the WAL traffic the
//! missions generate (appends, fsyncs, acknowledged records, barrier
//! latency), then simulates a restart: the store is dropped and
//! [`ShardedRusKey::recover`] replays the per-shard logs. Every row
//! checks the group-commit invariants in-process and reports a single
//! `durability_ok` verdict so CI can grep for it:
//!
//! * at most one fsync per shard per mission (the group-commit bound);
//! * every logged record acknowledged at its mission's barrier
//!   (synced ≥ acknowledged);
//! * the overlapped barrier's latency (`commit_ns`, max over the shards'
//!   concurrent commit legs) never exceeds the sequential sum of the legs
//!   (`commit_busy_ns`) — both compositions are reported per row;
//! * recovery replays exactly the records the logs held at shutdown.

use ruskey::db::RusKeyConfig;
use ruskey::runner::ExperimentScale;
use ruskey::sharded::{DurabilityConfig, ShardedRusKey};
use ruskey::tuner::NoOpTuner;
use ruskey_workload::{bulk_load_pairs, OpGenerator, OpMix, Operation};

/// One shard count's durability measurement.
#[derive(Debug, Clone)]
pub struct DurabilityRow {
    /// Number of shards (= number of WAL files).
    pub shards: usize,
    /// Missions executed (= group-commit batches).
    pub missions: usize,
    /// Total operations executed.
    pub ops_total: u64,
    /// Write operations (puts + deletes) — each one acknowledged at its
    /// mission's commit barrier.
    pub acknowledged_ops: u64,
    /// WAL records appended across all shards.
    pub wal_appends: u64,
    /// WAL fsyncs issued across all shards (≤ shards × missions under
    /// group commit).
    pub wal_syncs: u64,
    /// WAL records covered by a successful fsync.
    pub synced_ops: u64,
    /// Mean group-commit batch size (records acknowledged per fsync).
    pub mean_batch: f64,
    /// Mean virtual barrier latency per mission (ns): the **overlapped**
    /// composition — per mission, the max over the shards' concurrent
    /// commit legs. The durability latency group commit adds to a batch.
    pub commit_ns_per_mission: f64,
    /// Mean total sync work per mission (ns): the sum over the shards'
    /// commit legs — what the barrier would cost if the fsyncs ran
    /// one after another on the mission thread.
    pub commit_busy_ns_per_mission: f64,
    /// WAL records replayed by recovery after the simulated restart.
    pub recovered_records: u64,
    /// All durability invariants held (group-commit sync bound, full
    /// acknowledgement, exact replay).
    pub ok: bool,
}

/// Runs the durable write path at each shard count and verifies the
/// group-commit and recovery invariants.
pub fn durability(scale: &ExperimentScale, shard_counts: &[usize]) -> Vec<DurabilityRow> {
    shard_counts
        .iter()
        .map(|&n| {
            let dir = std::env::temp_dir().join(format!(
                "ruskey-durability-{}-{n}shards",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let durability = DurabilityConfig::group_commit(&dir);

            let mut db = ShardedRusKey::try_with_tuner_durable(
                RusKeyConfig::scaled_default(),
                n,
                scale.disk(),
                Box::new(NoOpTuner),
                &durability,
            )
            .expect("open durable store");
            db.bulk_load(bulk_load_pairs(
                scale.load_entries,
                scale.key_len,
                scale.value_len,
                scale.seed,
            ));
            let spec = scale.spec().with_mix(OpMix::balanced());
            let mut g = OpGenerator::new(spec, scale.seed.wrapping_add(1));

            let mut ok = true;
            let mut ops_total = 0u64;
            let mut acknowledged = 0u64;
            let mut appends = 0u64;
            let mut syncs = 0u64;
            let mut synced = 0u64;
            let mut commit_ns = 0u64;
            let mut commit_busy_ns = 0u64;
            for _ in 0..scale.missions {
                let ops: Vec<Operation> = g.take_ops(scale.mission_size);
                let r = db.run_mission(&ops);
                ops_total += r.ops;
                acknowledged += r.updates;
                appends += r.wal_appends;
                syncs += r.wal_syncs;
                synced += r.wal_synced;
                commit_ns += r.commit_ns;
                commit_busy_ns += r.commit_busy_ns;
                // Group commit: ≤ 1 fsync per shard per batch, every
                // logged record acknowledged at the barrier.
                ok &= r.wal_syncs <= n as u64;
                ok &= r.wal_appends == r.updates;
                ok &= r.wal_synced == r.wal_appends;
                // Overlapped barrier: the latency (max over legs) must
                // stay within the sequential sum of the legs. This is a
                // model-consistency guard on the two reported
                // compositions, not a proof the legs ran concurrently —
                // actual concurrency is pinned by `tests/pool_stress.rs`
                // (distinct lane threads) and the mid-barrier crash
                // case in `tests/crash_recovery.rs` (siblings commit
                // while one shard dies, which a sequential
                // stop-at-first-crash barrier cannot do).
                ok &= r.commit_ns <= r.commit_busy_ns;
            }
            ok &= synced >= acknowledged;

            // Simulated restart: the logs must replay exactly what they
            // held at shutdown (everything was synced at the last
            // barrier, so the drop loses nothing).
            let expected_records: u64 = (0..n)
                .map(|i| db.shard(i).wal().map_or(0, |w| w.records()))
                .sum();
            drop(db);
            let recovered = ShardedRusKey::recover(
                RusKeyConfig::scaled_default(),
                n,
                scale.disk(),
                Box::new(NoOpTuner),
                &durability,
            )
            .expect("recover durable store");
            let recovered_records: u64 = (0..n)
                .map(|i| recovered.shard(i).wal().map_or(0, |w| w.records()))
                .sum();
            ok &= recovered_records == expected_records;
            let _ = std::fs::remove_dir_all(&dir);

            DurabilityRow {
                shards: n,
                missions: scale.missions,
                ops_total,
                acknowledged_ops: acknowledged,
                wal_appends: appends,
                wal_syncs: syncs,
                synced_ops: synced,
                mean_batch: appends as f64 / (syncs.max(1)) as f64,
                commit_ns_per_mission: commit_ns as f64 / (scale.missions.max(1)) as f64,
                commit_busy_ns_per_mission: commit_busy_ns as f64 / (scale.missions.max(1)) as f64,
                recovered_records,
                ok,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_rows_hold_group_commit_invariants() {
        let _serial = crate::real_time_test_guard();
        let scale = ExperimentScale {
            load_entries: 1200,
            mission_size: 120,
            missions: 5,
            ..ExperimentScale::tiny()
        };
        let rows = durability(&scale, &[1, 2]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.ok, "durability invariants failed at {} shards", r.shards);
            assert!(r.synced_ops >= r.acknowledged_ops);
            assert!(r.wal_syncs <= (r.shards * r.missions) as u64);
            assert!(r.mean_batch >= 1.0, "group commit must batch records");
            assert!(
                r.commit_ns_per_mission <= r.commit_busy_ns_per_mission + 1e-9,
                "overlapped barrier latency must not exceed the sequential sum"
            );
        }
        // Same workload at every shard count: identical durability traffic.
        assert_eq!(rows[0].acknowledged_ops, rows[1].acknowledged_ops);
        assert_eq!(rows[0].wal_appends, rows[1].wal_appends);
    }
}
