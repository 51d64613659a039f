//! Per-shard learned tuning experiment (beyond the paper): one Lerp
//! agent per shard under skew, pinned as a machine-checkable verdict.
//!
//! `repro tuning` drives a 4-shard Lerp store — one seat per shard, each
//! rewarded from its own shard's slice — over three workloads: `uniform`
//! (balanced mix, every shard statistically identical), `skewed` (point
//! reads concentrated on one shard's keys, point writes on another's),
//! and `shifting` (the skew swaps shards at the midpoint). Each row
//! reports the paper's ranking metric, mean virtual ns/op over the last
//! third of missions, and the per-shard policies the agents settled on.
//! The verdict CI greps as `tuning_ok` is non-vacuity: every row saw
//! `tuned_missions > 0`, missions in which some shard ran a non-default
//! policy, so the agents really moved.

use std::collections::BTreeSet;

use bytes::Bytes;
use ruskey::db::RusKeyConfig;
use ruskey::lerp::Lerp;
use ruskey::sharded::{Backend, RusKey};
use ruskey_workload::{bulk_load_pairs, encode_key, shard_for_key, OpGenerator, OpMix, Operation};

use crate::percentile::tail_mean;
use crate::runner::ExperimentScale;

/// Shards in every tuning row.
const SHARDS: usize = 4;
/// Keys per hot pool: narrow enough to concentrate load on one shard,
/// wide enough that the shard still behaves like an LSM-tree rather
/// than a handful of memtable slots.
const POOL_KEYS: usize = 256;

/// One workload's measurement.
#[derive(Debug, Clone)]
pub struct TuningRow {
    /// Workload shape: `uniform`, `skewed`, or `shifting`.
    pub workload: &'static str,
    /// Shard count.
    pub shards: usize,
    /// Missions run.
    pub missions: usize,
    /// Logical operations executed.
    pub ops_total: u64,
    /// Mean virtual ns/op over the last third of missions — the
    /// converged-tail ranking metric.
    pub tail_ns_per_op: f64,
    /// Missions in which at least one shard ran a non-default policy
    /// (zero means the comparison was vacuous).
    pub tuned_missions: usize,
    /// Final K(L1) per shard — the visible specialization.
    pub final_k1: Vec<u32>,
    /// Distinct per-shard policy vectors at the end (1 = every shard
    /// identical).
    pub distinct_policies: usize,
}

/// The whole experiment: three tuning rows and the verdict CI greps.
#[derive(Debug, Clone)]
pub struct TuningVerdict {
    /// One row per workload.
    pub rows: Vec<TuningRow>,
    /// Non-vacuity: every tuning row saw at least one tuned mission.
    pub ok: bool,
}

/// Lerp cadence scaled to the mission budget, so agents begin tuning
/// inside the first third of the run instead of waiting the paper's
/// 60-mission warmup.
pub fn tuning_cfg(scale: &ExperimentScale) -> RusKeyConfig {
    let mut cfg = RusKeyConfig::scaled_default();
    cfg.lerp.min_tune_missions = (scale.missions / 5).clamp(4, 10);
    cfg.lerp.stability_window = (scale.missions / 8).clamp(3, 6);
    cfg
}

/// The first `POOL_KEYS` loaded keys that hash-home on `shard`.
fn shard_pool(scale: &ExperimentScale, shard: usize) -> Vec<Bytes> {
    (0..scale.load_entries)
        .map(|id| encode_key(id, scale.key_len))
        .filter(|k| shard_for_key(k, SHARDS) == shard)
        .take(POOL_KEYS)
        .collect()
}

/// Pre-generates the mission schedule for one workload shape
/// (`tests/tuning_equivalence.rs` pins the seats' decisions on the
/// `skewed` one).
///
/// `skewed` redirects ~90% of point reads onto shard 0's pool and ~90%
/// of point writes onto shard 2's pool — shard 0 becomes read-hot
/// (favoring an aggressive policy) while shard 2 becomes write-hot
/// (favoring a lazy one), exactly the split a single store-wide K cannot
/// serve. `shifting` swaps the two pools at the midpoint.
pub fn tuning_missions(scale: &ExperimentScale, workload: &'static str) -> Vec<Vec<Operation>> {
    let spec = scale.spec().with_mix(OpMix::balanced());
    let mut g = OpGenerator::new(spec, scale.seed.wrapping_add(11));
    let pool_a = shard_pool(scale, 0);
    let pool_b = shard_pool(scale, 2);
    let mut ctr = 0usize;
    let mut missions = Vec::with_capacity(scale.missions);
    for m in 0..scale.missions {
        let flip = workload == "shifting" && m >= scale.missions / 2;
        let (read_pool, write_pool) = if flip {
            (&pool_b, &pool_a)
        } else {
            (&pool_a, &pool_b)
        };
        let mut ops = Vec::with_capacity(scale.mission_size);
        for op in g.take_ops(scale.mission_size) {
            ctr += 1;
            // 10% of ops keep their generated key: background traffic
            // that keeps every shard minimally alive.
            if workload == "uniform" || ctr.is_multiple_of(10) {
                ops.push(op);
                continue;
            }
            ops.push(match op {
                Operation::Get { .. } => Operation::Get {
                    key: read_pool[ctr % read_pool.len()].clone(),
                },
                Operation::Put { value, .. } => Operation::Put {
                    key: write_pool[ctr % write_pool.len()].clone(),
                    value,
                },
                other => other,
            });
        }
        missions.push(ops);
    }
    missions
}

/// Runs the per-shard Lerp store over one workload's mission schedule.
fn run_tuning_row(scale: &ExperimentScale, workload: &'static str) -> TuningRow {
    let missions = tuning_missions(scale, workload);
    let cfg = tuning_cfg(scale);
    let lerp = Box::new(Lerp::new(cfg.lerp.clone()));
    let disks = (0..SHARDS).map(|_| scale.disk()).collect();
    let mut db = RusKey::open(cfg, SHARDS, lerp, Backend::Volatile(disks)).expect("open");
    db.bulk_load(bulk_load_pairs(
        scale.load_entries,
        scale.key_len,
        scale.value_len,
        scale.seed,
    ));
    let mut ns_per_op = Vec::with_capacity(missions.len());
    let mut ops_total = 0u64;
    let mut tuned_missions = 0usize;
    let mut final_shard_policies: Vec<Vec<u32>> = Vec::new();
    for ops in &missions {
        let r = db.run_mission(ops);
        ops_total += r.ops;
        ns_per_op.push(r.ns_per_op());
        if r.shard_policies_after.iter().flatten().any(|&k| k != 1) {
            tuned_missions += 1;
        }
        final_shard_policies = r.shard_policies_after.clone();
    }
    TuningRow {
        workload,
        shards: SHARDS,
        missions: missions.len(),
        ops_total,
        tail_ns_per_op: tail_mean(&ns_per_op, 1.0 / 3.0),
        tuned_missions,
        final_k1: final_shard_policies
            .iter()
            .map(|p| p.first().copied().unwrap_or(1))
            .collect(),
        distinct_policies: final_shard_policies.iter().collect::<BTreeSet<_>>().len(),
    }
}

/// Runs the whole tuning experiment: three workloads, folded into the
/// `tuning_ok` verdict.
pub fn tuning(scale: &ExperimentScale) -> TuningVerdict {
    let rows: Vec<TuningRow> = ["uniform", "skewed", "shifting"]
        .into_iter()
        .map(|workload| run_tuning_row(scale, workload))
        .collect();
    let ok = rows.iter().all(|r| r.tuned_missions > 0);
    TuningVerdict { rows, ok }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            load_entries: 2000,
            mission_size: 200,
            missions: 24,
            ..ExperimentScale::tiny()
        }
    }

    #[test]
    fn tuning_verdict_holds_at_tiny_scale() {
        let v = tuning(&tiny());
        assert_eq!(v.rows.len(), 3);
        for r in &v.rows {
            assert_eq!(r.final_k1.len(), SHARDS);
        }
        assert!(v.ok, "some row never tuned — vacuous comparison");
    }
}
