//! Per-shard learned tuning experiment (beyond the paper): one Lerp
//! agent per shard under skew, pinned as a machine-checkable verdict.
//!
//! `repro tuning` drives a 4-shard Lerp store — one seat per shard, each
//! rewarded from its own shard's slice — over three workloads: `uniform`
//! (balanced mix, every shard statistically identical), `skewed` (point
//! reads concentrated on one shard's keys, point writes on another's),
//! and `shifting` (the skew swaps shards at the midpoint). Each workload
//! records, as `tuning.<workload>.*` rows, the paper's ranking metric
//! (`tail_ns_per_op`: mean virtual ns/op over the last third of
//! missions), the missions in which some shard ran a non-default policy
//! (`tuned_missions`), how many distinct per-shard policy vectors the
//! agents settled on (`distinct_policies`) and each shard's final K(L1)
//! (`k1.shard<i>`). The one claim, `tuning.ok`, which CI greps, is
//! non-vacuity: every workload saw `tuned_missions > 0`, so the agents
//! really moved.

use std::collections::BTreeSet;

use bytes::Bytes;
use ruskey::db::RusKeyConfig;
use ruskey::lerp::Lerp;
use ruskey::sharded::{Backend, RusKey};
use ruskey_workload::{bulk_load_pairs, encode_key, shard_for_key, OpGenerator, OpMix, Operation};

use crate::claims::{ClaimRow, Outcome};
use crate::percentile::tail_mean;
use crate::runner::ExperimentScale;

/// Shards in every tuning row.
const SHARDS: usize = 4;
/// Keys per hot pool: narrow enough to concentrate load on one shard,
/// wide enough that the shard still behaves like an LSM-tree rather
/// than a handful of memtable slots.
const POOL_KEYS: usize = 256;

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

/// Runs the per-shard Lerp store over one workload's mission schedule:
/// the workload's recorded rows, and whether some mission was tuned.
fn run_tuning_row(scale: &ExperimentScale, workload: &'static str) -> (Vec<ClaimRow>, bool) {
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
    let mut tuned_missions = 0usize;
    let mut final_shard_policies: Vec<Vec<u32>> = Vec::new();
    for ops in &missions {
        let r = db.run_mission(ops);
        ns_per_op.push(r.ns_per_op());
        if r.shard_policies_after.iter().flatten().any(|&k| k != 1) {
            tuned_missions += 1;
        }
        final_shard_policies = r.shard_policies_after.clone();
    }
    let row = |what: &str, ours: f64| ClaimRow::recorded(format!("tuning.{workload}.{what}"), ours);
    let distinct = final_shard_policies.iter().collect::<BTreeSet<_>>().len();
    let mut rows = vec![
        row("tail_ns_per_op", tail_mean(&ns_per_op, 1.0 / 3.0)),
        row("tuned_missions", tuned_missions as f64),
        row("distinct_policies", distinct as f64),
    ];
    for (shard, policies) in final_shard_policies.iter().enumerate() {
        let k1 = policies.first().copied().unwrap_or(1);
        rows.push(row(&format!("k1.shard{shard}"), f64::from(k1)));
    }
    (rows, tuned_missions > 0)
}

/// Runs the whole tuning experiment: three workloads' recorded rows, and
/// the `tuning.ok` claim that every one of them was tuned.
pub fn tuning(scale: &ExperimentScale) -> Outcome {
    let mut rows = Vec::new();
    let mut ok = true;
    for workload in ["uniform", "skewed", "shifting"] {
        let (workload_rows, tuned) = run_tuning_row(scale, workload);
        rows.extend(workload_rows);
        ok &= tuned;
    }
    rows.push(ClaimRow::claim(
        "tuning.ok",
        None,
        f64::from(u8::from(ok)),
        ok,
    ));
    Outcome {
        rows,
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::Verdict;

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
        let rows = tuning(&tiny()).rows;
        for workload in ["uniform", "skewed", "shifting"] {
            let of = |prefix: &str| rows.iter().filter(|r| r.id.starts_with(prefix)).count();
            assert_eq!(of(&format!("tuning.{workload}.")), 3 + SHARDS);
            assert_eq!(of(&format!("tuning.{workload}.k1.shard")), SHARDS);
        }
        let ok = rows.last().expect("the verdict row");
        assert_eq!(ok.id, "tuning.ok");
        assert_eq!(
            ok.verdict,
            Verdict::Holds,
            "some workload never tuned — vacuous comparison"
        );
    }
}
