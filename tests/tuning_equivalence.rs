//! Per-shard learned tuning and hot-shard mitigation.
//!
//! Three contracts are pinned here:
//!
//! 1. **The seats' decisions are pinned by goldens**: a one-shard Lerp
//!    store (the paper's single-agent loop) and a four-shard Lerp store
//!    under `repro tuning`'s `skewed` schedule (one agent per shard, each
//!    on its own reward slice) must reproduce, mission by mission, the
//!    policies recorded before the store lost its second, store-wide
//!    reading of the seat list — and the summed virtual wall and
//!    device-busy time with them.
//! 2. **Mitigation is observationally invisible**: re-homing viral keys
//!    changes *where* data lives, never *what* reads return — a
//!    proptest drives a skewed churn of missions and ad-hoc ops against
//!    a `BTreeMap` model with balancing armed throughout.
//! 3. **Mitigation works and survives restarts**: a viral key range
//!    actually triggers migration (`rebalances() > 0`), drops the
//!    observed imbalance, and a durable store recovers both the routing
//!    overrides and any half-finished migration the crash left behind.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use ruskey_bench::{tuning_cfg, tuning_missions};
use ruskey_repro::ruskey::db::RusKeyConfig;
use ruskey_repro::ruskey::runner::ExperimentScale;
use ruskey_repro::ruskey::sharded::{PersistenceConfig, ShardedRusKey};
use ruskey_repro::ruskey::tuner::NoOpTuner;
use ruskey_repro::storage::{CostModel, SimulatedDisk, Storage};
use ruskey_repro::workload::routing::{shard_for_key, BalanceConfig};
use ruskey_repro::workload::{
    bulk_load_pairs, encode_key, OpGenerator, OpMix, Operation, WorkloadSpec,
};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn wal_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ruskey-tuneq-{tag}-{}-{n}", std::process::id()))
}

/// Small tree + a Lerp cadence fast enough that agents actually tune
/// within the test's mission budget (the defaults wait 60 missions).
fn tuned_cfg() -> RusKeyConfig {
    let mut cfg = RusKeyConfig::scaled_default();
    cfg.lsm.buffer_bytes = 4096;
    cfg.lsm.size_ratio = 4;
    cfg.lerp.min_tune_missions = 6;
    cfg.lerp.stability_window = 4;
    cfg
}

fn disk() -> Arc<dyn Storage> {
    SimulatedDisk::new(512, CostModel::NVME)
}

/// A persistent store's settings under `dir`: 512-byte pages, NVMe costs.
fn persistence(dir: &std::path::Path) -> PersistenceConfig {
    let mut p = PersistenceConfig::new(dir);
    p.page_size = 512;
    p
}

/// Recovery-test config: the buffer never flushes, so every
/// acknowledged write the recovery tests check is replayed from the WAL.
fn big_buffer_cfg() -> RusKeyConfig {
    let mut cfg = tuned_cfg();
    cfg.lsm.buffer_bytes = 1 << 20;
    cfg
}

fn mixed_spec(key_space: u64) -> WorkloadSpec {
    WorkloadSpec {
        key_space,
        key_len: 16,
        value_len: 48,
        ..WorkloadSpec::scaled_default(key_space)
    }
    .with_mix(OpMix {
        lookup: 0.35,
        update: 0.4,
        delete: 0.1,
        scan: 0.15,
    })
}

/// Aggressive mitigation knobs so tests trigger migration quickly.
fn eager_balance() -> BalanceConfig {
    BalanceConfig {
        imbalance_threshold: 1.2,
        min_ops: 64,
        max_moves: 4,
        capacity: 32,
        decay: 0.5,
    }
}

/// `policies_after` of each of the 40 missions below, recorded before
/// the seat list had one reading.
const ONE_SHARD_POLICIES: [&[u32]; 40] = [
    &[1, 1, 1],
    &[2, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
    &[1, 1, 1],
];

/// `shard_policies_after` of each mission of `repro tuning`'s `skewed`
/// schedule at `ExperimentScale::tiny()`, recorded before the seat list
/// had one reading.
const SKEWED_SHARD_POLICIES: [[&[u32]; 4]; 20] = [
    [&[1], &[2], &[2], &[1]],
    [&[2], &[2], &[3], &[1]],
    [&[1], &[2], &[3], &[2]],
    [&[1], &[2], &[3], &[1]],
    [&[1], &[2], &[3], &[1]],
    [&[1], &[2], &[3], &[1]],
    [&[1], &[1], &[3], &[1]],
    [&[1], &[2], &[3], &[1]],
    [&[1], &[1], &[3], &[1]],
    [&[1], &[1], &[3], &[1]],
    [&[1], &[2], &[3], &[1]],
    [&[1], &[1], &[3], &[1]],
    [&[1], &[2], &[3], &[1]],
    [&[1], &[2], &[3], &[1]],
    [&[1], &[2], &[3], &[2]],
    [&[1], &[2], &[3], &[3]],
    [&[1], &[2], &[3], &[3]],
    [&[1], &[2], &[3], &[3]],
    [&[1], &[2], &[3], &[3]],
    [&[1], &[2], &[3], &[3]],
];

/// Golden: a one-shard Lerp store — the paper's loop — reproduces, every
/// mission, the recorded tuned policies and virtual time.
#[test]
fn one_shard_lerp_reproduces_its_golden() {
    let mut db = ShardedRusKey::with_lerp(tuned_cfg(), 1, disk());
    db.bulk_load(bulk_load_pairs(2000, 16, 48, 7));
    let mut g = OpGenerator::new(mixed_spec(2000), 9);
    let (mut wall, mut busy) = (0u64, 0u64);
    for (mission, want) in ONE_SHARD_POLICIES.iter().enumerate() {
        let r = db.run_mission(&g.take_ops(250));
        assert_eq!(r.policies_after, *want, "mission {mission}");
        wall += r.end_to_end_ns;
        busy += r.device_busy_ns;
    }
    assert_eq!((wall, busy), (1_073_158_850, 1_073_158_850));
}

/// Golden: a four-shard Lerp store seats one agent per shard — seat `i`
/// seeded `seed + i·104729`, rewarded from its own shard's slice — and
/// under skew its shards' policies diverge exactly as recorded.
#[test]
fn per_shard_lerp_under_skew_reproduces_its_golden() {
    let scale = ExperimentScale::tiny();
    let mut db = ShardedRusKey::with_lerp(tuning_cfg(&scale), 4, scale.disk());
    db.bulk_load(bulk_load_pairs(
        scale.load_entries,
        scale.key_len,
        scale.value_len,
        scale.seed,
    ));
    let missions = tuning_missions(&scale, "skewed");
    assert_eq!(missions.len(), SKEWED_SHARD_POLICIES.len());
    let (mut wall, mut busy) = (0u64, 0u64);
    for (mission, (ops, want)) in missions.iter().zip(&SKEWED_SHARD_POLICIES).enumerate() {
        let r = db.run_mission(ops);
        assert_eq!(r.shard_policies_after, *want, "mission {mission}");
        wall += r.end_to_end_ns;
        busy += r.device_busy_ns;
    }
    assert_eq!((wall, busy), (45_906_900, 49_202_550));
}

/// Acceptance: a viral key range on one shard triggers mitigation — keys
/// re-home to the coldest shard, the pass counter advances, the observed
/// imbalance drops — and every re-homed key still reads its latest
/// value.
#[test]
fn viral_keys_are_rehomed_and_stay_readable() {
    let shards = 4;
    let mut db = ShardedRusKey::untuned(tuned_cfg(), shards, disk());
    db.bulk_load(bulk_load_pairs(2000, 16, 48, 3));
    db.enable_balancing(eager_balance());

    // A handful of keys that all hash to the same shard: the viral set.
    let hot_shard = 2usize;
    let viral: Vec<Bytes> = (0..4000u64)
        .map(|id| encode_key(id, 16))
        .filter(|k| shard_for_key(k, shards) == hot_shard)
        .take(6)
        .collect();
    assert_eq!(viral.len(), 6, "key space too small to find viral keys");

    // Missions that hammer the viral set (~90% of point traffic).
    let mut g = OpGenerator::new(mixed_spec(2000), 31);
    let mut peak_imbalance = 0.0f64;
    for round in 0..12 {
        let mut ops = Vec::with_capacity(300);
        for (i, op) in g.take_ops(300).into_iter().enumerate() {
            match op {
                Operation::Get { .. } if i % 10 != 0 => ops.push(Operation::Get {
                    key: viral[i % viral.len()].clone(),
                }),
                Operation::Put { value, .. } if i % 10 != 0 => ops.push(Operation::Put {
                    key: viral[i % viral.len()].clone(),
                    value,
                }),
                other => ops.push(other),
            }
        }
        db.run_mission(&ops);
        peak_imbalance = peak_imbalance.max(db.load_imbalance());
        if round == 11 {
            assert!(
                db.load_imbalance() < peak_imbalance,
                "mitigation never reduced the imbalance: peak {peak_imbalance}, now {}",
                db.load_imbalance()
            );
        }
    }
    assert!(db.rebalances() > 0, "no balancing pass ever migrated");
    assert!(db.rehomed_keys() > 0, "no key was re-homed");
    assert!(
        peak_imbalance > 1.2,
        "the workload never skewed ({peak_imbalance}) — the test is vacuous"
    );

    // Every viral key reads back its latest written value (wherever it
    // lives now), and a scan over the whole space still sees each once.
    for k in &viral {
        let direct = db.get(k);
        let scanned: Vec<_> = db
            .scan(k, &encode_key(4001, 16), 1)
            .into_iter()
            .filter(|(sk, _)| sk == k)
            .collect();
        match direct {
            Some(v) => assert_eq!(scanned, vec![(k.clone(), v)], "scan diverged from get"),
            None => assert!(scanned.is_empty(), "scan resurrected a deleted key"),
        }
    }
}

/// Mitigation under churn never changes what reads observe: missions and
/// ad-hoc ops with a proptest-chosen skew run against a `BTreeMap`
/// model, with balancing armed the whole time so migrations interleave
/// with the workload.
#[derive(Debug, Clone)]
enum ChurnOp {
    Put(u16, u8),
    Delete(u16),
    Get(u16),
    Scan(u16, u16),
    Mission,
}

fn churn_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        4 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| ChurnOp::Put(k, v)),
        1 => any::<u16>().prop_map(ChurnOp::Delete),
        4 => any::<u16>().prop_map(ChurnOp::Get),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(a, b)| ChurnOp::Scan(a, b)),
        1 => Just(ChurnOp::Mission),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn mitigation_preserves_observational_equivalence(
        ops in prop::collection::vec(churn_op(), 1..250),
        hot in any::<u16>(),
        shards_idx in 0usize..2,
    ) {
        let shards = [2usize, 4][shards_idx];
        let mut db = ShardedRusKey::untuned(tuned_cfg(), shards, disk());
        db.enable_balancing(eager_balance());
        let mut model: BTreeMap<Bytes, Bytes> = BTreeMap::new();
        // Skew every key toward a small hot neighborhood so the balancer
        // actually fires mid-sequence instead of idling.
        let squash = |k: u16| -> u64 { if k.is_multiple_of(3) { (k % 512) as u64 } else { (hot % 8) as u64 } };
        let mut mission_no = 0u64;
        for op in ops {
            match op {
                ChurnOp::Put(k, v) => {
                    let key = encode_key(squash(k), 16);
                    model.insert(key.clone(), Bytes::from(vec![v]));
                    db.put(key, vec![v]);
                }
                ChurnOp::Delete(k) => {
                    let key = encode_key(squash(k), 16);
                    model.remove(&key);
                    db.delete(key);
                }
                ChurnOp::Get(k) => {
                    let key = encode_key(squash(k), 16);
                    prop_assert_eq!(
                        db.get(&key).as_deref(),
                        model.get(&key).map(|v| v.as_ref()),
                        "get diverged"
                    );
                }
                ChurnOp::Scan(a, b) => {
                    let (a, b) = ((a % 512) as u64, (b % 512) as u64);
                    let (lo, hi) = (a.min(b), a.max(b));
                    let (s, e) = (encode_key(lo, 16), encode_key(hi, 16));
                    let got = db.scan(&s, &e, usize::MAX);
                    let want: Vec<_> = model
                        .range(s.clone()..e.clone())
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want, "scan diverged");
                }
                ChurnOp::Mission => {
                    // A mission boundary is where migration runs; give it
                    // skewed traffic to chew on.
                    let key = encode_key((hot % 8) as u64, 16);
                    let ops: Vec<Operation> = (0..96)
                        .map(|i| {
                            if i % 4 == 0 {
                                Operation::Put { key: key.clone(), value: encode_key(mission_no, 48) }
                            } else {
                                Operation::Get { key: key.clone() }
                            }
                        })
                        .collect();
                    db.run_mission(&ops);
                    model.insert(key, encode_key(mission_no, 48));
                    mission_no += 1;
                }
            }
        }
    }
}

/// Acceptance: routing overrides and half-finished migrations survive a
/// crash. The routes file is written *before* data moves, so recovery
/// must settle an override whose key still sits at its hash home —
/// re-copying it to the target shard without losing the value.
#[test]
fn recovery_settles_interrupted_migration() {
    let dir = wal_dir("settle");
    let dur = persistence(&dir);
    let shards = 2usize;

    // A key homed on shard 0 by hash.
    let key = (0..1000u64)
        .map(|id| encode_key(id, 16))
        .find(|k| shard_for_key(k, shards) == 0)
        .unwrap();
    let value = Bytes::from_static(b"survives-the-crash");

    {
        let mut db = ShardedRusKey::try_with_tuner_persistent(
            big_buffer_cfg(),
            shards,
            Box::new(NoOpTuner),
            &dur,
        )
        .unwrap();
        // One mission makes the write durable (acked after the barrier).
        db.run_mission(&[Operation::Put {
            key: key.clone(),
            value: value.clone(),
        }]);
    }

    // Simulate a crash *between* the route write and the data copy: the
    // routes file says shard 1 (moved from shard 0), the value still
    // sits on shard 0.
    let mut line = String::from("1 0 ");
    for b in key.iter() {
        line.push_str(&format!("{b:02x}"));
    }
    line.push('\n');
    std::fs::write(dir.join("ROUTES"), line).unwrap();

    let mut db =
        ShardedRusKey::recover_persistent(big_buffer_cfg(), shards, Box::new(NoOpTuner), &dur)
            .unwrap();
    assert_eq!(db.rehomed_keys(), 1, "the override must be recovered");
    assert_eq!(db.get(&key), Some(value.clone()), "the value must settle");
    // The settled state is itself durable: recover once more and the key
    // still reads through the override.
    drop(db);
    let mut db =
        ShardedRusKey::recover_persistent(big_buffer_cfg(), shards, Box::new(NoOpTuner), &dur)
            .unwrap();
    assert_eq!(db.rehomed_keys(), 1);
    assert_eq!(db.get(&key), Some(value));

    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance: a live mitigation pass on a durable store round-trips —
/// after migrating viral keys, dropping the store, and recovering, every
/// key (re-homed or not) reads its last acknowledged value.
#[test]
fn durable_mitigation_round_trips_through_recovery() {
    let dir = wal_dir("roundtrip");
    let dur = persistence(&dir);
    let shards = 4usize;
    let hot_shard = 1usize;

    let viral: Vec<Bytes> = (0..4000u64)
        .map(|id| encode_key(id, 16))
        .filter(|k| shard_for_key(k, shards) == hot_shard)
        .take(5)
        .collect();

    let mut expected: BTreeMap<Bytes, Bytes> = BTreeMap::new();
    {
        let mut db = ShardedRusKey::try_with_tuner_persistent(
            big_buffer_cfg(),
            shards,
            Box::new(NoOpTuner),
            &dur,
        )
        .unwrap();
        db.enable_balancing(eager_balance());
        for round in 0..10u64 {
            let mut ops = Vec::new();
            for (i, k) in viral.iter().enumerate() {
                let v = encode_key(round * 100 + i as u64, 48);
                expected.insert(k.clone(), v.clone());
                ops.push(Operation::Put {
                    key: k.clone(),
                    value: v,
                });
                for _ in 0..10 {
                    ops.push(Operation::Get { key: k.clone() });
                }
            }
            // A sprinkle of cold traffic so other shards exist in the
            // sketch.
            let cold = encode_key(3000 + round, 16);
            expected.insert(cold.clone(), Bytes::from_static(b"cold"));
            ops.push(Operation::Put {
                key: cold,
                value: Bytes::from_static(b"cold"),
            });
            db.run_mission(&ops);
        }
        assert!(db.rebalances() > 0, "the viral set never migrated");
        assert!(db.rehomed_keys() > 0);
    }

    let mut db =
        ShardedRusKey::recover_persistent(big_buffer_cfg(), shards, Box::new(NoOpTuner), &dur)
            .unwrap();
    assert!(db.rehomed_keys() > 0, "overrides lost in recovery");
    for (k, v) in &expected {
        assert_eq!(db.get(k).as_ref(), Some(v), "key {k:?} lost or stale");
    }
    // Scans see each key exactly once — no duplicate from a half-dead
    // migration source.
    let all = db.scan(&encode_key(0, 16), &encode_key(4001, 16), usize::MAX);
    let mut seen = std::collections::HashSet::new();
    for (k, _) in &all {
        assert!(seen.insert(k.clone()), "key {k:?} appears twice in a scan");
    }

    std::fs::remove_dir_all(&dir).ok();
}
