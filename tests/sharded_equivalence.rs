//! Observational equivalence of the sharded engine core: an `N`-shard
//! [`RusKey`] must behave exactly like the paper's one-shard store for the
//! same operation sequence — identical get/scan results for any `N` — and
//! the one-shard store must leave exactly the statistics of the bare tree
//! under it; plus routing determinism and real OS-thread parallelism.
//!
//! `N = 1` is *not* an inline special case: it runs the same lane runner
//! as every other shard count (one lane, on the caller's thread), so the
//! bare-tree test is what pins that the runner adds nothing to the
//! accounting of the tree under it.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ruskey_repro::lsm::FlsmTree;
use ruskey_repro::ruskey::db::RusKeyConfig;
use ruskey_repro::ruskey::frontend::ServingConfig;
use ruskey_repro::ruskey::sharded::{Backend, PersistenceConfig, RusKey};
use ruskey_repro::ruskey::tuner::{FixedPolicy, NoOpTuner};
use ruskey_repro::storage::{CostModel, SimulatedDisk, Storage};
use ruskey_repro::workload::routing::shard_for_key;
use ruskey_repro::workload::{
    bulk_load_pairs, encode_key, OpGenerator, OpMix, Operation, WorkloadSpec,
};

fn small_cfg() -> RusKeyConfig {
    let mut cfg = RusKeyConfig::scaled_default();
    cfg.lsm.buffer_bytes = 4096;
    cfg.lsm.size_ratio = 4;
    cfg
}

fn disk() -> Arc<dyn Storage> {
    SimulatedDisk::new(512, CostModel::NVME)
}

/// One fresh disk per shard.
fn disks(shards: usize) -> Vec<Arc<dyn Storage>> {
    (0..shards).map(|_| disk()).collect()
}

/// An untuned store with one shard per device.
fn volatile(cfg: RusKeyConfig, devices: Vec<Arc<dyn Storage>>) -> RusKey {
    let shards = devices.len();
    RusKey::open(cfg, shards, Box::new(NoOpTuner), Backend::Volatile(devices)).expect("open")
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

/// A one-shard store runs its missions as one lane through the lane
/// runner, not an inline fast path, on one stable thread: the caller's.
/// With one shard the barrier's max is its sum, and the mission's wall
/// time is its device-busy time.
#[test]
fn one_shard_missions_run_on_the_caller() {
    let mut store = RusKey::open(
        small_cfg(),
        1,
        Box::new(FixedPolicy::moderate()),
        Backend::Volatile(disks(1)),
    )
    .expect("open");
    store.bulk_load(bulk_load_pairs(2000, 16, 48, 7));

    let mut g = OpGenerator::new(mixed_spec(2000), 9);
    for mission in 0..6 {
        let r = store.run_mission(&g.take_ops(300));
        // The N = 1 lane: exactly one thread (the caller), the same one
        // every mission.
        assert_eq!(store.last_parallelism(), 1, "mission {mission}");
        let ids = store.last_worker_threads().to_vec();
        assert_eq!(ids, [std::thread::current().id()], "mission {mission}");
        assert_eq!(
            r.commit_ns, r.commit_busy_ns,
            "mission {mission}: one shard means max == sum for the barrier"
        );
        assert_eq!(
            r.end_to_end_ns, r.window.busy_ns,
            "mission {mission}: one shard means one domain, wall == busy"
        );
    }
}

/// The one-shard store against the tree it wraps: the same six missions
/// applied to a bare [`FlsmTree`] by hand — each operation through
/// `put`/`get`/`delete`/`scan`, then the mission's commit leg — must leave
/// tree statistics equal to the store's shard 0, field for field (time
/// domain, per-level counters, WAL and cache counters included), and each
/// mission's report window equal to the bare tree's delta over it: the
/// accounting oracle of the paper's one-shard store.
#[test]
fn one_shard_store_equals_a_bare_tree() {
    let mut store = volatile(small_cfg(), disks(1));
    let mut bare = FlsmTree::new(small_cfg().lsm, disk());
    let pairs = bulk_load_pairs(2000, 16, 48, 7);
    store.bulk_load(pairs.clone());
    bare.bulk_load(pairs);

    let mut g = OpGenerator::new(mixed_spec(2000), 9);
    for mission in 0..6 {
        let ops = g.take_ops(300);
        let start = bare.stats();
        let report = store.run_mission(&ops);
        for op in &ops {
            match op {
                Operation::Get { key } => drop(bare.get(key)),
                Operation::Put { key, value } => bare.put(key.clone(), value.clone()),
                Operation::Delete { key } => bare.delete(key.clone()),
                Operation::Scan { start, end, limit } => drop(bare.scan(start, end, *limit)),
            }
        }
        bare.commit_wal_timed().expect("no WAL, no I/O");
        assert_eq!(
            bare.stats(),
            store.shard(0).stats(),
            "mission {mission}: the lane runner must add nothing to the tree's accounting"
        );
        assert_eq!(
            report.window,
            bare.stats().delta(&start),
            "mission {mission}: the report's window is the bare tree's delta"
        );
    }
    assert!(bare.stats().flushes > 0 && bare.stats().clock_ns > 0);
}

/// Acceptance: `N ∈ {2, 4}` produces identical get/scan results to the
/// single-tree store — property-style over several seeds, with a
/// `BTreeMap` reference model double-checking both engines.
#[test]
fn n_shard_store_is_observationally_equivalent() {
    for &shards in &[2usize, 4] {
        for seed in [11u64, 23, 37] {
            let mut reference = volatile(small_cfg(), disks(1));
            let mut sharded = volatile(small_cfg(), disks(shards));
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

            let mut gen = OpGenerator::new(mixed_spec(400), seed);
            for step in 0..2500 {
                match gen.next_op() {
                    Operation::Get { key } => {
                        let a = reference.get(&key);
                        let b = sharded.get(&key);
                        assert_eq!(
                            a, b,
                            "shards={shards} seed={seed} step={step}: get diverged"
                        );
                        assert_eq!(
                            b.as_deref(),
                            model.get(key.as_ref()).map(|v| v.as_slice()),
                            "shards={shards} seed={seed} step={step}: model diverged"
                        );
                    }
                    Operation::Put { key, value } => {
                        model.insert(key.to_vec(), value.to_vec());
                        reference.put(key.clone(), value.clone());
                        sharded.put(key, value);
                    }
                    Operation::Delete { key } => {
                        model.remove(key.as_ref());
                        reference.delete(key.clone());
                        sharded.delete(key);
                    }
                    Operation::Scan { start, end, limit } => {
                        let a = reference.scan(&start, &end, limit);
                        let b = sharded.scan(&start, &end, limit);
                        assert_eq!(
                            a, b,
                            "shards={shards} seed={seed} step={step}: scan diverged"
                        );
                    }
                }
            }
        }
    }
}

/// The three doors into a shard — mission lanes, ad-hoc calls closed by a
/// group commit, and a serving client — are one execution path: the same
/// seeded operation sequence through each leaves `N = 2` persistent stores
/// with identical contents and identical per-shard lifetime counters.
#[test]
fn the_three_doors_agree() {
    const SHARDS: usize = 2;
    let open = |door: &str| {
        let dir = std::env::temp_dir().join(format!("ruskey-doors-{}-{door}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut persistence = PersistenceConfig::new(&dir);
        persistence.page_size = 512;
        let db = RusKey::open(
            small_cfg(),
            SHARDS,
            Box::new(NoOpTuner),
            Backend::Create(&persistence),
        )
        .expect("open persistent store");
        (db, dir)
    };
    let ops = OpGenerator::new(mixed_spec(400), 17).take_ops(900);

    let (mut missions, dir_m) = open("missions");
    for mission in ops.chunks(300) {
        missions.run_mission(mission);
    }

    let (mut adhoc, dir_a) = open("adhoc");
    for op in ops.iter().cloned() {
        match op {
            Operation::Get { key } => drop(adhoc.get(&key)),
            Operation::Put { key, value } => adhoc.put(key, value),
            Operation::Delete { key } => adhoc.delete(key),
            Operation::Scan { start, end, limit } => drop(adhoc.scan(&start, &end, limit)),
        }
    }
    adhoc.group_commit();

    let (mut served, dir_s) = open("served");
    let frontend = served.serve(ServingConfig::default()).expect("serve");
    let client = frontend.client();
    for op in ops.iter().cloned() {
        match op {
            Operation::Get { key } => drop(client.get(&key).expect("served get")),
            Operation::Put { key, value } => client.put(key, value).expect("served put"),
            Operation::Delete { key } => client.delete(key).expect("served delete"),
            Operation::Scan { start, end, limit } => {
                drop(client.scan(&start, &end, limit).expect("served scan"))
            }
        }
    }
    drop(client);
    served.finish_serving(frontend).expect("finish serving");

    // Counters first: the read-back below adds lookups of its own.
    let counters = |db: &RusKey| -> Vec<(u64, u64, u64, u64)> {
        db.shard_snapshots()
            .iter()
            .map(|s| (s.lookups, s.updates, s.scans, s.wal_appends))
            .collect()
    };
    let expected = counters(&missions);
    assert!(
        expected
            .iter()
            .all(|c| c.0 > 0 && c.1 > 0 && c.2 > 0 && c.3 > 0),
        "every shard must see every kind of work: {expected:?}"
    );
    assert_eq!(
        counters(&adhoc),
        expected,
        "ad-hoc door: per-shard counters"
    );
    assert_eq!(
        counters(&served),
        expected,
        "serving door: per-shard counters"
    );

    let (lo, hi) = (encode_key(0, 16), encode_key(400, 16));
    let full = missions.scan(&lo, &hi, usize::MAX);
    assert!(!full.is_empty());
    assert_eq!(adhoc.scan(&lo, &hi, usize::MAX), full, "ad-hoc door: scan");
    assert_eq!(
        served.scan(&lo, &hi, usize::MAX),
        full,
        "serving door: scan"
    );
    for i in 0..400 {
        let key = encode_key(i, 16);
        let want = missions.get(&key);
        assert_eq!(adhoc.get(&key), want, "ad-hoc door: key {i}");
        assert_eq!(served.get(&key), want, "serving door: key {i}");
    }
    for dir in [dir_m, dir_a, dir_s] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// An inverted range (`start > end`) is empty at every door, like
/// `[a, a)`, and counts as a scan: with entries in every shard's memtable
/// a served, a mission and an ad-hoc scan each return no rows, and the
/// store keeps serving, running missions and answering ad-hoc calls.
#[test]
fn an_inverted_scan_range_is_empty_at_every_door() {
    const SHARDS: usize = 2;
    let mut db = volatile(small_cfg(), disks(SHARDS));
    for i in 0..40 {
        db.put(encode_key(i, 16), encode_key(i + 1000, 16));
    }
    let (hi, lo) = (encode_key(30, 16), encode_key(10, 16));
    let inverted = Operation::Scan {
        start: hi.clone(),
        end: lo.clone(),
        limit: 10,
    };

    let frontend = db.serve(ServingConfig::default()).expect("serve");
    let client = frontend.client();
    assert_eq!(client.scan(&hi, &lo, 10).expect("served scan"), vec![]);
    assert_eq!(
        client.get(&lo).expect("served get after the scan"),
        Some(encode_key(1010, 16))
    );
    drop(client);
    db.finish_serving(frontend).expect("finish serving");

    db.try_run_mission(std::slice::from_ref(&inverted))
        .expect("mission with an inverted scan");
    db.try_run_mission(&[Operation::Get { key: lo.clone() }])
        .expect("mission after the inverted scan");

    assert_eq!(db.scan(&hi, &lo, 10), vec![]);
    assert_eq!(db.get(&hi), Some(encode_key(1030, 16)));
    assert_eq!(db.scan(&lo, &hi, 100).len(), 20, "forward scans unchanged");
    assert_eq!(
        db.shard_snapshots()
            .iter()
            .map(|s| s.scans)
            .collect::<Vec<_>>(),
        vec![4; SHARDS],
        "each door's inverted scan counts once per shard, as does the forward one"
    );
}

/// Mission execution agrees across shard counts on the logical operation
/// composition (scans broadcast internally but count once).
#[test]
fn mission_composition_is_shard_count_invariant() {
    let mut reports = Vec::new();
    for &shards in &[1usize, 2, 4] {
        let mut db = volatile(small_cfg(), disks(shards));
        db.bulk_load(bulk_load_pairs(1500, 16, 48, 5));
        let mut g = OpGenerator::new(mixed_spec(1500), 13);
        let r = db.run_mission(&g.take_ops(500));
        reports.push((shards, r));
    }
    let (_, base) = &reports[0];
    for (shards, r) in &reports[1..] {
        assert_eq!(r.ops, base.ops, "{shards} shards: ops");
        assert_eq!(
            r.window.lookups, base.window.lookups,
            "{shards} shards: lookups"
        );
        assert_eq!(
            r.window.updates, base.window.updates,
            "{shards} shards: updates"
        );
        assert_eq!(r.scans, base.scans, "{shards} shards: scans");
        assert_eq!(r.gamma(), base.gamma(), "{shards} shards: gamma");
    }
}

/// Shard routing must be a pure, stable function of the key bytes: an
/// independent FNV-1a implementation pins the mapping, and repeated calls
/// agree (determinism across runs).
#[test]
fn shard_routing_is_deterministic() {
    fn fnv1a(key: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }
    let mut rng = StdRng::seed_from_u64(99);
    for shards in [1usize, 2, 3, 4, 8, 16] {
        for _ in 0..500 {
            let key = encode_key(rng.gen_range(0u64..1_000_000), 16);
            let expected = (fnv1a(&key) % shards as u64) as usize;
            assert_eq!(shard_for_key(&key, shards), expected);
            assert_eq!(
                shard_for_key(&key, shards),
                expected,
                "second call must agree"
            );
        }
    }
}

/// Acceptance: parallel mission execution across shards uses ≥ 2 OS
/// threads (one lane per shard: the caller plus a scoped thread each).
#[test]
fn parallel_missions_run_on_multiple_os_threads() {
    let mut db = volatile(small_cfg(), disks(4));
    db.bulk_load(bulk_load_pairs(2000, 16, 48, 3));
    let mut g = OpGenerator::new(mixed_spec(2000), 21);
    for _ in 0..3 {
        db.run_mission(&g.take_ops(400));
        assert_eq!(
            db.last_parallelism(),
            4,
            "each of the 4 shards must execute on its own OS thread"
        );
    }
    // The data survives the parallel missions intact.
    let count = db
        .scan(&encode_key(0, 16), &encode_key(2000, 16), usize::MAX)
        .len();
    assert!(count > 0, "scan after parallel missions is empty");
}
