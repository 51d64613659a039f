//! Cross-crate integration tests: the full RusKey stack (workload →
//! store → tuner → transitions) against reference behaviour.

use std::collections::BTreeMap;
use std::sync::Arc;

use ruskey_repro::lsm::{FlsmTree, LsmConfig, TransitionStrategy};
use ruskey_repro::ruskey::lerp::Lerp;
use ruskey_repro::ruskey::tuner::{FixedPolicy, GreedyHeuristic, LazyLeveling};
use ruskey_repro::ruskey::{Backend, RusKey, RusKeyConfig};
use ruskey_repro::storage::{CostModel, SimulatedDisk, Storage};
use ruskey_repro::workload::{
    bulk_load_pairs, encode_key, OpGenerator, OpMix, Operation, WorkloadSpec,
};

fn small_lsm(transition: TransitionStrategy) -> LsmConfig {
    LsmConfig {
        buffer_bytes: 2048,
        size_ratio: 4,
        transition,
        ..LsmConfig::scaled_default()
    }
}

/// The paper's one-shard store, tuned by Lerp.
fn lerp_store(cfg: RusKeyConfig, disk: Arc<dyn Storage>) -> RusKey {
    let lerp = Box::new(Lerp::new(cfg.lerp.clone()));
    RusKey::open(cfg, 1, lerp, Backend::Volatile(vec![disk])).expect("open")
}

/// The tree must agree with a BTreeMap reference model under a mixed
/// workload with interleaved policy changes, for every transition strategy.
#[test]
fn tree_matches_reference_model_under_policy_churn() {
    for strategy in TransitionStrategy::ALL {
        let disk = SimulatedDisk::new(512, CostModel::FREE);
        let mut tree = FlsmTree::new(small_lsm(strategy), disk);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        let spec = WorkloadSpec {
            key_space: 300,
            key_len: 16,
            value_len: 24,
            ..WorkloadSpec::scaled_default(300)
        }
        .with_mix(OpMix {
            lookup: 0.3,
            update: 0.5,
            delete: 0.1,
            scan: 0.1,
        });
        let mut gen = OpGenerator::new(spec, 99);

        for step in 0..4000 {
            match gen.next_op() {
                Operation::Get { key } => {
                    let got = tree.get(&key);
                    let want = model.get(key.as_ref());
                    assert_eq!(
                        got.as_deref(),
                        want.map(|v| v.as_slice()),
                        "strategy {strategy:?} step {step}: get mismatch"
                    );
                }
                Operation::Put { key, value } => {
                    model.insert(key.to_vec(), value.to_vec());
                    tree.put(key, value);
                }
                Operation::Delete { key } => {
                    model.remove(key.as_ref());
                    tree.delete(key);
                }
                Operation::Scan { start, end, limit } => {
                    let got = tree.scan(&start, &end, limit);
                    let want: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range(start.to_vec()..end.to_vec())
                        .take(limit)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    assert_eq!(got.len(), want.len(), "strategy {strategy:?} step {step}");
                    for ((gk, gv), (wk, wv)) in got.iter().zip(&want) {
                        assert_eq!(gk.as_ref(), wk.as_slice());
                        assert_eq!(gv.as_ref(), wv.as_slice());
                    }
                }
            }
            // Aggressive policy churn mid-stream.
            if step % 97 == 0 {
                let k = 1 + (step / 97) as u32 % 4;
                for lvl in 0..tree.level_count() {
                    tree.set_policy(lvl, k);
                }
            }
        }
    }
}

/// RusKey with a live tuner preserves all data while mutating policies.
#[test]
fn ruskey_preserves_data_while_tuning() {
    let mut cfg = RusKeyConfig::scaled_default();
    cfg.lsm.buffer_bytes = 4096;
    cfg.lsm.size_ratio = 4;
    let disk = SimulatedDisk::new(512, CostModel::NVME);
    let mut db = lerp_store(cfg, disk);

    let n = 2000u64;
    db.bulk_load(bulk_load_pairs(n, 16, 48, 3));

    let spec = WorkloadSpec {
        key_space: n,
        key_len: 16,
        value_len: 48,
        ..WorkloadSpec::scaled_default(n)
    }
    .with_mix(OpMix::write_heavy());
    let mut gen = OpGenerator::new(spec, 4);
    for _ in 0..30 {
        let ops = gen.take_ops(300);
        db.run_mission(&ops);
    }
    // Every originally loaded key must still resolve (bulk values may have
    // been overwritten by the workload, but the key must exist).
    for id in (0..n).step_by(61) {
        let key = encode_key(id, 16);
        assert!(db.get(&key).is_some(), "key {id} lost during tuning");
    }
}

/// All baseline tuners run end-to-end without violating policy bounds.
#[test]
fn baseline_tuners_respect_bounds() {
    let tuners: Vec<Box<dyn ruskey_repro::ruskey::tuner::Tuner>> = vec![
        Box::new(FixedPolicy::aggressive()),
        Box::new(FixedPolicy::lazy()),
        Box::new(LazyLeveling),
        Box::new(GreedyHeuristic::new(33.0, 67.0)),
    ];
    for tuner in tuners {
        let mut cfg = RusKeyConfig::scaled_default();
        cfg.lsm.buffer_bytes = 4096;
        cfg.lsm.size_ratio = 6;
        let disk = SimulatedDisk::new(512, CostModel::NVME);
        let name = tuner.name();
        let mut db = RusKey::open(cfg, 1, tuner, Backend::Volatile(vec![disk])).expect("open");
        db.bulk_load(bulk_load_pairs(1500, 16, 48, 5));
        let spec = WorkloadSpec {
            key_space: 1500,
            key_len: 16,
            value_len: 48,
            ..WorkloadSpec::scaled_default(1500)
        };
        let mut gen = OpGenerator::new(spec, 6);
        for _ in 0..10 {
            let report = db.run_mission(&gen.take_ops(200));
            for &k in &report.policies_after {
                assert!((1..=6).contains(&k), "{name}: policy {k} out of [1, T]");
            }
        }
    }
}

/// The Monkey-scheme store works end-to-end and its deeper levels carry
/// higher FPRs (weaker filters) by construction.
#[test]
fn monkey_scheme_end_to_end() {
    let mut cfg = RusKeyConfig::scaled_monkey();
    cfg.lsm.buffer_bytes = 4096;
    cfg.lsm.size_ratio = 4;
    let bloom = cfg.lsm.bloom;
    let disk = SimulatedDisk::new(512, CostModel::NVME);
    let mut db = lerp_store(cfg, disk);
    db.bulk_load(bulk_load_pairs(3000, 16, 48, 7));
    let spec = WorkloadSpec {
        key_space: 3000,
        key_len: 16,
        value_len: 48,
        ..WorkloadSpec::scaled_default(3000)
    };
    let mut gen = OpGenerator::new(spec, 8);
    for _ in 0..10 {
        db.run_mission(&gen.take_ops(300));
    }
    for id in (0..3000).step_by(111) {
        assert!(db.get(&encode_key(id, 16)).is_some());
    }
    // Monkey property: bits per key non-increasing with depth.
    let t = 4;
    let mut prev = f64::INFINITY;
    for lvl in 0..db.shard(0).level_count() {
        let bits = bloom.bits_for_level(lvl, t);
        assert!(bits <= prev);
        prev = bits;
    }
}

/// Greedy transitions must not lose data even when fired repeatedly while
/// the tree is mid-cascade.
#[test]
fn repeated_greedy_transitions_preserve_data() {
    let disk = SimulatedDisk::new(512, CostModel::FREE);
    let mut tree = FlsmTree::new(small_lsm(TransitionStrategy::Greedy), disk);
    let mut expected = BTreeMap::new();
    for i in 0..1500u64 {
        let key = encode_key(i, 16);
        let val = vec![(i % 251) as u8; 32];
        tree.put(key.clone(), val.clone());
        expected.insert(key, val);
        if i % 50 == 0 {
            let k = 1 + (i / 50) as u32 % 4;
            for lvl in 0..tree.level_count() {
                tree.set_policy(lvl, k);
            }
        }
    }
    for (key, val) in &expected {
        assert_eq!(tree.get(key).as_deref(), Some(val.as_slice()));
    }
}
