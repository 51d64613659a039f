//! Shard-count scaling experiment (beyond the paper): throughput of the
//! sharded engine core versus number of shards on a mixed workload.
//!
//! This is the repo's performance trajectory anchor: `repro shard_scaling`
//! prints the table and writes it as JSON so successive PRs can compare
//! wall-clock throughput of the parallel engine.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use ruskey::db::RusKeyConfig;
use ruskey::runner::ExperimentScale;
use ruskey::sharded::{Backend, PersistenceConfig, RusKey};
use ruskey::tuner::NoOpTuner;
use ruskey_workload::{bulk_load_pairs, encode_key, OpGenerator, OpMix, Operation};

/// One shard count's measurement.
#[derive(Debug, Clone)]
pub struct ShardScalingRow {
    /// Storage backend the row ran on: `"simulated"` (one shared
    /// in-memory device) or `"file"` (one real `FileDisk` directory per
    /// shard — independent file handles, so the wall-clock column shows
    /// real I/O scaling instead of a serialized device).
    pub backend: &'static str,
    /// Number of shards.
    pub shards: usize,
    /// Missions executed.
    pub missions: usize,
    /// Total operations executed.
    pub ops_total: u64,
    /// Wall-clock seconds spent executing missions.
    pub wall_s: f64,
    /// Wall-clock throughput in kops/s.
    pub kops_per_s: f64,
    /// Mean virtual **wall** time per operation (ns): per mission, the
    /// max over the shard time domains' deltas — the simulator's
    /// deterministic latency metric.
    pub virtual_wall_ns_per_op: f64,
    /// Mean virtual **device-busy** time per operation (ns): per mission,
    /// the sum over the shard time domains' deltas — the total virtual
    /// work placed on the shared device.
    pub virtual_busy_ns_per_op: f64,
    /// Mean real wall-clock time per mission (µs) — the dispatch-cost
    /// column: lane 0 runs on the caller, so this carries `N − 1` scoped
    /// thread spawns and joins per mission (none at `N = 1`) on top of
    /// routing and execution.
    pub real_us_per_mission: f64,
    /// Real wall-clock ns per point lookup over a post-mission sample
    /// sweep — the read-path raw-speed column: an ad-hoc `get` runs on
    /// the caller's thread with no hand-off, so on the file backend it
    /// reflects the fd cache, positional reads, and block cache directly.
    pub real_get_ns_per_op: f64,
    /// Block-cache hit ratio over the missions (0.0 on the simulated
    /// backend, which serves without a cache).
    pub cache_hit_ratio: f64,
    /// Maximum distinct OS threads observed running one mission's lanes.
    pub parallelism: usize,
}

/// Times a stride sample of point lookups against the live store,
/// returning real ns per get.
fn timed_get_sweep(db: &mut RusKey, scale: &ExperimentScale) -> f64 {
    let sample: Vec<Bytes> = (0..scale.load_entries)
        .step_by((scale.load_entries / 512).max(1) as usize)
        .map(|i| encode_key(i, scale.key_len))
        .collect();
    let t0 = Instant::now();
    for k in &sample {
        db.get(k);
    }
    t0.elapsed().as_nanos() as f64 / sample.len() as f64
}

/// Runs the balanced mixed workload at each shard count and measures
/// wall-clock throughput plus virtual cost. Workload generation happens
/// up front so only engine time is measured.
pub fn shard_scaling(scale: &ExperimentScale, shard_counts: &[usize]) -> Vec<ShardScalingRow> {
    shard_counts
        .iter()
        .map(|&n| {
            let disk = scale.disk();
            let mut db = RusKey::open(
                RusKeyConfig::scaled_default(),
                n,
                Box::new(NoOpTuner),
                Backend::Volatile(Arc::clone(&disk)),
            )
            .expect("open");
            db.bulk_load(bulk_load_pairs(
                scale.load_entries,
                scale.key_len,
                scale.value_len,
                scale.seed,
            ));
            let spec = scale.spec().with_mix(OpMix::balanced());
            let mut g = OpGenerator::new(spec, scale.seed.wrapping_add(1));
            let missions: Vec<Vec<Operation>> = (0..scale.missions)
                .map(|_| g.take_ops(scale.mission_size))
                .collect();

            let mut ops_total = 0u64;
            let mut wall_ns = 0u64;
            let mut busy_ns = 0u64;
            let mut real_ns = 0u64;
            let mut parallelism = 0usize;
            let t0 = Instant::now();
            for ops in &missions {
                let device_ns_before = disk.clock().now_ns();
                let report = db.run_mission(ops);
                // Attribution invariants, checked on every mission so the
                // CI smoke run fails loudly instead of skewing benchmark
                // JSON. The shared device clock receives every charge any
                // shard domain makes, so the mission's device-busy time
                // (sum of the per-domain deltas) must equal the device
                // clock's own delta exactly — a broken per-shard mirroring
                // (double-charged or dropped work) breaks this equality.
                let device_delta = disk.clock().now_ns() - device_ns_before;
                assert_eq!(
                    report.device_busy_ns, device_delta,
                    "sum of shard-domain deltas diverged from the device \
                     clock delta at {n} shards"
                );
                // And wall (max over domains) can never exceed busy (sum).
                assert!(
                    report.end_to_end_ns <= report.device_busy_ns,
                    "wall {} ns exceeds device-busy {} ns at {n} shards",
                    report.end_to_end_ns,
                    report.device_busy_ns,
                );
                ops_total += report.ops;
                wall_ns += report.end_to_end_ns;
                busy_ns += report.device_busy_ns;
                real_ns += report.real_process_ns;
                parallelism = parallelism.max(db.last_parallelism());
            }
            let wall_s = t0.elapsed().as_secs_f64();
            let real_get_ns_per_op = timed_get_sweep(&mut db, scale);
            ShardScalingRow {
                backend: "simulated",
                shards: n,
                missions: scale.missions,
                ops_total,
                wall_s,
                kops_per_s: ops_total as f64 / wall_s.max(1e-9) / 1e3,
                virtual_wall_ns_per_op: wall_ns as f64 / ops_total.max(1) as f64,
                virtual_busy_ns_per_op: busy_ns as f64 / ops_total.max(1) as f64,
                real_us_per_mission: real_ns as f64 / scale.missions.max(1) as f64 / 1e3,
                real_get_ns_per_op,
                // The simulated backend serves without a cache, keeping
                // its virtual accounting bit-identical across PRs.
                cache_hit_ratio: 0.0,
                parallelism,
            }
        })
        .collect()
}

/// The `FileDisk` variant of [`shard_scaling`]: a fully persistent store
/// with one real-file directory (independent file handles + manifest +
/// WAL) per shard. Shards never serialize against each other on a shared
/// device handle, so `real_us_per_mission` shows genuine wall-time
/// scaling on the real-file path — the column this experiment exists for.
/// Virtual accounting still applies (per-shard `FileDisk` clocks are
/// per-shard time domains), so wall ≤ busy is asserted per mission.
pub fn shard_scaling_filedisk(
    scale: &ExperimentScale,
    shard_counts: &[usize],
) -> Vec<ShardScalingRow> {
    shard_counts
        .iter()
        .map(|&n| {
            let root = std::env::temp_dir().join(format!(
                "ruskey-scaling-file-{}-{n}shards",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let mut pcfg = PersistenceConfig::new(&root);
            pcfg.page_size = scale.page_size;
            pcfg.cost = scale.cost;
            let mut db = RusKey::open(
                RusKeyConfig::scaled_default(),
                n,
                Box::new(NoOpTuner),
                Backend::Create(&pcfg),
            )
            .expect("open persistent store");
            db.bulk_load(bulk_load_pairs(
                scale.load_entries,
                scale.key_len,
                scale.value_len,
                scale.seed,
            ));
            let spec = scale.spec().with_mix(OpMix::balanced());
            let mut g = OpGenerator::new(spec, scale.seed.wrapping_add(1));
            let missions: Vec<Vec<Operation>> = (0..scale.missions)
                .map(|_| g.take_ops(scale.mission_size))
                .collect();

            let mut ops_total = 0u64;
            let mut wall_ns = 0u64;
            let mut busy_ns = 0u64;
            let mut real_ns = 0u64;
            let mut cache_hits = 0u64;
            let mut cache_misses = 0u64;
            let mut parallelism = 0usize;
            let t0 = Instant::now();
            for ops in &missions {
                let report = db.run_mission(ops);
                assert!(
                    report.end_to_end_ns <= report.device_busy_ns,
                    "wall {} ns exceeds device-busy {} ns at {n} file-backed shards",
                    report.end_to_end_ns,
                    report.device_busy_ns,
                );
                ops_total += report.ops;
                wall_ns += report.end_to_end_ns;
                busy_ns += report.device_busy_ns;
                real_ns += report.real_process_ns;
                cache_hits += report.cache_hits;
                cache_misses += report.cache_misses;
                parallelism = parallelism.max(db.last_parallelism());
            }
            let wall_s = t0.elapsed().as_secs_f64();
            let real_get_ns_per_op = timed_get_sweep(&mut db, scale);
            drop(db);
            let _ = std::fs::remove_dir_all(&root);
            ShardScalingRow {
                backend: "file",
                shards: n,
                missions: scale.missions,
                ops_total,
                wall_s,
                kops_per_s: ops_total as f64 / wall_s.max(1e-9) / 1e3,
                virtual_wall_ns_per_op: wall_ns as f64 / ops_total.max(1) as f64,
                virtual_busy_ns_per_op: busy_ns as f64 / ops_total.max(1) as f64,
                real_us_per_mission: real_ns as f64 / scale.missions.max(1) as f64 / 1e3,
                real_get_ns_per_op,
                cache_hit_ratio: {
                    let traffic = cache_hits + cache_misses;
                    if traffic == 0 {
                        0.0
                    } else {
                        cache_hits as f64 / traffic as f64
                    }
                },
                parallelism,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_rows_cover_every_shard_count() {
        let _serial = crate::real_time_test_guard();
        let scale = ExperimentScale {
            load_entries: 1500,
            mission_size: 150,
            missions: 6,
            ..ExperimentScale::tiny()
        };
        let rows = shard_scaling(&scale, &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].shards, 1);
        assert_eq!(rows[0].parallelism, 1);
        assert_eq!(rows[1].shards, 2);
        assert_eq!(
            rows[1].parallelism, 2,
            "two shards must use two worker threads"
        );
        // Same workload at every shard count.
        assert_eq!(rows[0].ops_total, rows[1].ops_total);
        assert!(rows
            .iter()
            .all(|r| r.ops_total == (scale.missions * scale.mission_size) as u64));
        assert!(rows
            .iter()
            .all(|r| r.kops_per_s > 0.0 && r.virtual_wall_ns_per_op > 0.0));
        assert!(
            rows.iter().all(|r| r.real_us_per_mission > 0.0),
            "spawn-amortization column must be populated"
        );
        assert!(
            rows.iter().all(|r| r.real_get_ns_per_op > 0.0),
            "read-path column must be populated"
        );
        assert!(
            rows.iter().all(|r| r.cache_hit_ratio == 0.0),
            "the simulated backend serves without a cache"
        );
        // Wall never exceeds busy; they coincide at one shard.
        for r in &rows {
            assert!(r.virtual_wall_ns_per_op <= r.virtual_busy_ns_per_op + 1e-9);
        }
        assert!(
            (rows[0].virtual_wall_ns_per_op - rows[0].virtual_busy_ns_per_op).abs() < 1e-9,
            "one shard: wall and busy compositions must agree"
        );
        assert!(rows.iter().all(|r| r.backend == "simulated"));
    }

    #[test]
    fn filedisk_rows_exercise_per_shard_handles() {
        let _serial = crate::real_time_test_guard();
        let scale = ExperimentScale {
            load_entries: 800,
            mission_size: 80,
            missions: 3,
            page_size: 512,
            ..ExperimentScale::tiny()
        };
        let rows = shard_scaling_filedisk(&scale, &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.backend == "file"));
        assert_eq!(rows[0].parallelism, 1);
        assert_eq!(
            rows[1].parallelism, 2,
            "two file-backed shards must use two worker threads"
        );
        // Same workload at every shard count, real wall time populated.
        assert_eq!(rows[0].ops_total, rows[1].ops_total);
        assert!(rows.iter().all(|r| r.real_us_per_mission > 0.0));
        assert!(rows.iter().all(|r| r.real_get_ns_per_op > 0.0));
        assert!(
            rows.iter().all(|r| r.cache_hit_ratio > 0.0),
            "file-backed shards serve through the block cache by default"
        );
        for r in &rows {
            assert!(r.virtual_wall_ns_per_op <= r.virtual_busy_ns_per_op + 1e-9);
        }
    }
}
