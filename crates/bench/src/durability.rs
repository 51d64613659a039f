//! Group-commit invariants of the persistence experiment's missions.
//!
//! `repro persistence` measures the WAL's cross-shard group commit
//! (appends, fsyncs, acknowledged records, barrier latency) on every
//! mission before its restart, and [`group_commit_ok`] checks it:
//!
//! * at most one fsync per shard per mission (the group-commit bound);
//! * every write logged exactly once, and every logged record
//!   acknowledged at its mission's barrier (synced ≥ acknowledged);
//! * the overlapped barrier's latency (`commit_ns`, max over the shards'
//!   concurrent commit legs) never exceeds the sequential sum of the legs
//!   (`commit_busy_ns`). That guards the two reported compositions; that
//!   the legs really run concurrently is pinned by `tests/pool_stress.rs`
//!   (distinct lane threads) and the mid-barrier crash case in
//!   `tests/crash_recovery.rs` (siblings commit while one shard dies).
//!
//! The per-row verdicts conjoin into the JSON's `durability_ok`.

/// Whether the group-commit invariants held on every one of `reports`,
/// the missions of a `shards`-shard store. Synced ≥ acknowledged over the
/// whole run follows from each mission's `wal_synced == wal_appends ==
/// updates`.
pub fn group_commit_ok(reports: &[ruskey::stats::MissionReport], shards: usize) -> bool {
    reports.iter().all(|r| {
        r.wal_syncs <= shards as u64
            && r.wal_appends == r.updates
            && r.wal_synced == r.wal_appends
            && r.commit_ns <= r.commit_busy_ns
    })
}

#[cfg(test)]
mod tests {
    use crate::persistence::persistence;
    use ruskey::runner::ExperimentScale;

    #[test]
    fn durability_rows_hold_group_commit_invariants() {
        let _serial = crate::real_time_test_guard();
        let scale = ExperimentScale {
            load_entries: 1200,
            mission_size: 120,
            missions: 5,
            ..ExperimentScale::tiny()
        };
        let rows = persistence(&scale, &[1, 2]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.group_commit_ok,
                "group-commit invariants failed at {} shards",
                r.shards
            );
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
