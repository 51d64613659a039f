//! Deterministic concurrency stress suite for the sharded store's
//! mission lanes.
//!
//! A mission runs one lane per shard under `std::thread::scope` — lane 0
//! on the caller's thread, lanes `1..N` on scoped threads, the group-commit
//! legs overlapped inside the lanes — on `&mut` borrows of trees that
//! never leave the store. That makes three guarantees that must be
//! *tested*, not assumed from the spawn structure:
//!
//! 1. **Thread identity**: lane 0 is the caller, every mission and every
//!    barrier; `N` distinct OS threads participate at `N ∈ {1, 2, 4, 8}`;
//!    and an ad-hoc operation runs on its caller without a dispatch.
//! 2. **Determinism**: parallel lane execution is bit-identical to a
//!    single-threaded replay of each shard's lane (results *and* the
//!    per-domain virtual-time accounting).
//! 3. **Clean failure**: a panic inside a lane — a spawned one or the
//!    caller's own — surfaces as a [`StoreError`] on the mission thread:
//!    never an unwind into the caller, never a hang, never a store that
//!    limps on with a half-changed shard. Opening and bulk loading run on
//!    the same lanes and fail as a serial loop would: a load lane's panic
//!    re-raises its own message, and a failed recovery reports the
//!    lowest-numbered failing shard.
//!
//! A proptest additionally pins the overlapped-barrier composition
//! (`commit_ns` = max over concurrent legs ≤ `commit_busy_ns` = their
//! sum) and that the WAL traffic counters (`wal_appends`, `wal_syncs`)
//! do not depend on the executor for any op mix: they must equal the
//! ground truth derived from routing alone.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use ruskey_repro::ruskey::db::RusKeyConfig;
use ruskey_repro::ruskey::sharded::{Backend, PersistenceConfig, RusKey, StoreError};
use ruskey_repro::ruskey::tuner::NoOpTuner;
use ruskey_repro::storage::{CostModel, SimulatedDisk, Storage};
use ruskey_repro::workload::routing::{partition_ops, shard_for_key};
use ruskey_repro::workload::{
    bulk_load_pairs, encode_key, OpGenerator, OpMix, Operation, WorkloadSpec,
};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn wal_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ruskey-poolstress-{tag}-{}-{n}",
        std::process::id()
    ))
}

fn small_cfg() -> RusKeyConfig {
    let mut cfg = RusKeyConfig::scaled_default();
    cfg.lsm.buffer_bytes = 4096;
    cfg.lsm.size_ratio = 4;
    cfg
}

fn disk() -> Arc<dyn Storage> {
    SimulatedDisk::new(512, CostModel::NVME)
}

fn volatile(cfg: RusKeyConfig, shards: usize, disk: Arc<dyn Storage>) -> RusKey {
    RusKey::open(cfg, shards, Box::new(NoOpTuner), Backend::Volatile(disk)).expect("open")
}

/// A persistent store's settings under `dir`: 512-byte pages, NVMe costs.
fn persistence(dir: &std::path::Path) -> PersistenceConfig {
    let mut p = PersistenceConfig::new(dir);
    p.page_size = 512;
    p
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

/// Acceptance: across ≥ 10 consecutive missions and a standalone barrier,
/// lane 0 runs on the *calling* thread and the dispatch uses exactly `N`
/// distinct OS threads, at `N ∈ {1, 2, 4, 8}` — a one-shard store never
/// leaves its caller — and an ad-hoc `get` is not a dispatch at all.
#[test]
fn lane_zero_is_the_caller_and_lanes_are_distinct_threads() {
    const MISSIONS: usize = 12;
    let me = std::thread::current().id();
    for &n in &[1usize, 2, 4, 8] {
        let mut db = volatile(small_cfg(), n, disk());
        db.bulk_load(bulk_load_pairs(2000, 16, 48, 31));
        let mut g = OpGenerator::new(mixed_spec(2000), 33);
        assert!(
            db.last_worker_threads().is_empty(),
            "no dispatch yet, no lane threads"
        );
        let check = |db: &RusKey, what: &str| {
            let lanes = db.last_worker_threads();
            assert_eq!(lanes.len(), n, "{n} shards, {what}: one lane per shard");
            assert_eq!(lanes[0], me, "{n} shards, {what}: lane 0 left its caller");
            assert_eq!(
                lanes.iter().collect::<HashSet<_>>().len(),
                n,
                "{n} shards, {what}: lanes must be distinct OS threads"
            );
            assert_eq!(db.last_parallelism(), n, "{n} shards, {what}");
        };
        for mission in 0..MISSIONS {
            db.run_mission(&g.take_ops(200));
            check(&db, &format!("mission {mission}"));
            if n == 1 {
                // An ad-hoc call runs where it is called and reports no
                // dispatch: the introspection still describes the mission.
                let before = db.last_worker_threads().to_vec();
                db.get(&encode_key(mission as u64, 16));
                assert_eq!(db.last_worker_threads(), &before[..]);
                assert_eq!(db.last_parallelism(), 1);
            }
        }
        // The standalone commit barrier is the same runner.
        db.group_commit();
        check(&db, "group_commit");
    }
}

/// Acceptance: a multi-mission soak on the pool is bit-identical to a
/// single-threaded replay of each shard's lane — every shard's full
/// statistics snapshot (op counters, per-level times, virtual clock) and
/// the merged get results match a one-shard store executing the lane on
/// the shard's key partition. Seeded op streams make the soak exactly
/// reproducible.
#[test]
fn pooled_missions_equal_single_threaded_lane_replay() {
    const MISSIONS: usize = 10;
    for &n in &[1usize, 2, 4, 8] {
        let pairs = bulk_load_pairs(2000, 16, 48, 41);
        let mut pooled = volatile(small_cfg(), n, disk());
        pooled.bulk_load(pairs.clone());

        let mut g = OpGenerator::new(mixed_spec(2000), 43);
        let missions: Vec<Vec<Operation>> = (0..MISSIONS).map(|_| g.take_ops(150)).collect();
        for ops in &missions {
            pooled.run_mission(ops);
        }

        for shard in 0..n {
            let mut solo = volatile(small_cfg(), 1, disk());
            solo.bulk_load(
                pairs
                    .iter()
                    .filter(|(k, _)| shard_for_key(k, n) == shard)
                    .cloned()
                    .collect(),
            );
            for ops in &missions {
                let lane: Vec<Operation> = partition_ops(ops, n)[shard]
                    .iter()
                    .map(|op| (*op).clone())
                    .collect();
                solo.run_mission(&lane);
            }
            assert_eq!(
                pooled.shard(shard).stats(),
                solo.shard(0).stats(),
                "n={n} shard={shard}: pooled execution diverged from the \
                 single-threaded lane replay"
            );
        }

        // Point lookups agree with a single-threaded replay of the whole
        // stream (shard-merged view).
        let mut reference = volatile(small_cfg(), 1, disk());
        reference.bulk_load(pairs);
        for ops in &missions {
            reference.run_mission(ops);
        }
        for key_id in (0..2000u64).step_by(37) {
            let k = encode_key(key_id, 16);
            assert_eq!(
                pooled.get(&k),
                reference.get(&k),
                "n={n} key={key_id}: pooled get diverged"
            );
        }
    }
}

/// Acceptance: a shard worker panic mid-soak surfaces as a clean
/// [`StoreError`] naming the shard — the mission returns (no hang),
/// the engine refuses further work instead of running without the
/// shard, and dropping the store joins cleanly.
#[test]
fn worker_panic_surfaces_as_clean_error_not_a_hang() {
    for &n in &[2usize, 4] {
        let mut db = volatile(small_cfg(), n, disk());
        db.bulk_load(bulk_load_pairs(800, 16, 48, 51));
        let mut g = OpGenerator::new(mixed_spec(800), 53);
        for _ in 0..3 {
            db.try_run_mission(&g.take_ops(100)).expect("healthy pool");
        }
        let victim = n - 1;
        db.inject_worker_panic(victim);
        let err = db
            .try_run_mission(&g.take_ops(100))
            .expect_err("a panicked worker must fail the mission");
        match err {
            StoreError::ShardPanicked { shard } | StoreError::ShardFenced { shard } => {
                assert_eq!(shard, victim, "n={n}: wrong shard blamed");
            }
            _ => panic!("n={n}: wrong error kind: {err}"),
        }
        // The engine stays dead — later missions and barriers error too.
        assert!(db.try_run_mission(&g.take_ops(50)).is_err());
        assert!(db.try_group_commit().is_err());
        drop(db); // must join without hanging or double-panicking
    }
}

/// Acceptance: lane 0 runs on the mission's caller, and a panic there is
/// as clean as one on a spawned lane. The caller gets a typed error, not
/// an unwind; the sibling lane ran to the end and its WAL records are
/// acknowledged; the fenced shard is never read again while its sibling
/// stays readable for the post-mortem; and every later door — mission,
/// barrier, serving session — fails fast naming the shard.
#[test]
fn a_panic_on_the_callers_lane_is_a_clean_error_too() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    for &n in &[1usize, 2] {
        let dir = wal_dir("caller-panic");
        let dur = persistence(&dir);
        let mut db = RusKey::open(small_cfg(), n, Box::new(NoOpTuner), Backend::Create(&dur))
            .expect("open persistent store");
        let puts = |from: u64| -> Vec<Operation> {
            (from..from + 40)
                .map(|i| Operation::Put {
                    key: encode_key(i, 16),
                    value: bytes::Bytes::from(vec![i as u8; 8]),
                })
                .collect()
        };
        db.try_run_mission(&puts(0)).expect("healthy store");
        let acked_before: Vec<u64> = (0..n).map(|i| db.shard(i).stats().wal_synced).collect();

        db.inject_worker_panic(0);
        let err = db
            .try_run_mission(&puts(100))
            .expect_err("a panicked lane must fail the mission");
        assert!(
            matches!(err, StoreError::ShardPanicked { shard: 0 }),
            "n={n}: {err}"
        );
        if n == 2 {
            let sibling = db.shard(1).stats();
            assert!(
                sibling.wal_synced > acked_before[1],
                "the sibling lane must have run its writes and its commit leg"
            );
            assert_eq!(
                sibling.wal_synced, sibling.wal_appends,
                "every record the sibling logged is acknowledged"
            );
        }
        let read_dead = catch_unwind(AssertUnwindSafe(|| db.shard(0).stats()));
        let payload = read_dead.expect_err("a fenced shard's tree is never read again");
        let said = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(said.contains("shard 0"), "n={n}: {said}");

        let post_mortem = (n == 2).then(|| db.shard(1).stats());
        let gone = |e: StoreError| matches!(e, StoreError::ShardFenced { shard: 0 });
        assert!(gone(db.try_run_mission(&puts(200)).expect_err("dead")));
        assert!(gone(db.try_group_commit().expect_err("dead")));
        assert!(gone(db.serve(Default::default()).err().expect("dead")));
        if let Some(before) = post_mortem {
            assert_eq!(
                db.shard(1).stats(),
                before,
                "a refused call touches no tree"
            );
        }
        drop(db); // nothing to join, nothing to double-panic
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Acceptance: a load lane that panics re-raises its own payload on the
/// caller, not the scope's generic "a scoped thread panicked": at N = 2,
/// a bulk load into a store whose shard 1 already holds a write panics
/// with the tree's own message.
#[test]
#[should_panic(expected = "empty tree")]
fn a_panic_on_a_spawned_load_lane_keeps_its_message() {
    let mut db = volatile(small_cfg(), 2, disk());
    let taken = (0u64..)
        .map(|i| encode_key(i, 16))
        .find(|k| shard_for_key(k, 2) == 1)
        .expect("some key routes to shard 1");
    db.put(taken, bytes::Bytes::from_static(b"taken"));
    db.bulk_load(bulk_load_pairs(400, 16, 48, 3));
}

/// Acceptance: a failed recovery at N = 4 returns the error of the
/// lowest-numbered failing shard, as a serial loop's would, however the
/// lanes finish. The manifests of shards 1 and 3 are replaced by ones
/// naming an extent no shard wrote (9001 and 9003), and the error names
/// shard 1's. Recovery is idempotent: once the manifests are repaired, a
/// recovery reads back every loaded pair and every acknowledged write,
/// although shards 0 and 2 already recovered once.
#[test]
fn a_failed_recovery_reports_the_lowest_failing_shard() {
    use ruskey_repro::lsm::manifest::LevelManifest;
    use ruskey_repro::lsm::{Manifest, ManifestState, RunRecord};
    let n = 4;
    let dir = wal_dir("recover-fails");
    let dur = persistence(&dir);
    let open = |backend| RusKey::open(small_cfg(), n, Box::new(NoOpTuner), backend);
    let pairs = bulk_load_pairs(2000, 16, 48, 61);
    let puts: Vec<Operation> = (1500..2500u64)
        .map(|i| Operation::Put {
            key: encode_key(i, 16),
            value: bytes::Bytes::from(vec![i as u8; 24]),
        })
        .collect();
    {
        let mut db = open(Backend::Create(&dur)).expect("create");
        db.bulk_load(pairs.clone());
        db.try_run_mission(&puts)
            .expect("acknowledged at the barrier");
    }
    let damaged = [1usize, 3];
    let slots = damaged.map(|i| Manifest::slot_paths(&dur.manifest_path(i)));
    let originals = slots
        .clone()
        .map(|pair| pair.map(|slot| std::fs::read(slot).expect("manifest")));
    for i in damaged {
        let mut m = Manifest::create(dur.manifest_path(i), 0).expect("manifest");
        let key = encode_key(0, 16);
        let run = RunRecord {
            run_id: 1,
            extent_id: 9000 + i as u64,
            pages: 1,
            capacity_bytes: 4096,
            entry_count: 1,
            data_bytes: 64,
            max_seq: 1,
            bloom_bits_per_key: 8.0,
            min_key: key.clone(),
            max_key: key,
        };
        let level = LevelManifest {
            policy: 1,
            sealed: vec![run],
            ..LevelManifest::default()
        };
        let state = ManifestState {
            levels: vec![level],
            seq: 1,
            next_run_id: 2,
        };
        assert!(m.commit(state).expect("commit"));
    }
    let err = open(Backend::Recover(&dur))
        .err()
        .expect("a manifest names a missing extent");
    let said = err.to_string();
    assert!(
        said.contains("extent file 9001"),
        "not shard 1's error: {said}"
    );

    for (pair, bytes) in slots.into_iter().zip(originals) {
        for (slot, bytes) in pair.into_iter().zip(bytes) {
            std::fs::write(slot, bytes).expect("repair");
        }
    }
    let mut db = open(Backend::Recover(&dur)).expect("recover the repaired store");
    let mut want: std::collections::BTreeMap<_, _> = pairs.into_iter().collect();
    for op in puts {
        if let Operation::Put { key, value } = op {
            want.insert(key, value);
        }
    }
    for (key, value) in &want {
        assert_eq!(db.get(key).as_ref(), Some(value), "lost {key:?}");
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One step of the random durable workload (update-only so the WAL
/// ground truth is derivable from routing alone).
#[derive(Debug, Clone)]
enum PoolOp {
    Put(u16, u8),
    Delete(u16),
    Get(u16),
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        4 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| PoolOp::Put(k % 200, v)),
        1 => any::<u16>().prop_map(|k| PoolOp::Delete(k % 200)),
        2 => any::<u16>().prop_map(|k| PoolOp::Get(k % 200)),
    ]
}

fn to_operation(op: &PoolOp) -> Operation {
    match *op {
        PoolOp::Put(k, v) => Operation::Put {
            key: encode_key(k as u64, 16),
            value: bytes::Bytes::from(vec![v; 8]),
        },
        PoolOp::Delete(k) => Operation::Delete {
            key: encode_key(k as u64, 16),
        },
        PoolOp::Get(k) => Operation::Get {
            key: encode_key(k as u64, 16),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// For any op mix and shard count, the mission report of a durable
    /// pooled store obeys the overlapped-barrier composition
    /// (`commit_ns` = max over concurrent legs ≤ `commit_busy_ns` =
    /// their sum, with equality at one shard) and its WAL counters are
    /// invariant under the pool rewrite: `wal_appends` equals the
    /// mission's write count and `wal_syncs` equals the number of shards
    /// whose lane carried at least one write — ground truth derived from
    /// routing, independent of the executor.
    #[test]
    fn commit_composition_and_wal_counters_match_routing_ground_truth(
        ops in prop::collection::vec(pool_op(), 1..120),
        shards in 1usize..5,
    ) {
        let dir = wal_dir("proptest");
        let dur = persistence(&dir);
        // A buffer large enough that nothing flushes mid-mission: every
        // logged record is acknowledged by the barrier fsync, so the
        // sync ground truth is exactly "lanes with ≥ 1 write".
        let mut cfg = RusKeyConfig::scaled_default();
        cfg.lsm.buffer_bytes = 1 << 20;
        cfg.lsm.size_ratio = 4;
        let mut db = RusKey::open(cfg, shards, Box::new(NoOpTuner), Backend::Create(&dur))
            .expect("open persistent store");

        let mission: Vec<Operation> = ops.iter().map(to_operation).collect();
        let writes = mission
            .iter()
            .filter(|o| matches!(o, Operation::Put { .. } | Operation::Delete { .. }))
            .count() as u64;
        let lanes_with_writes = partition_ops(&mission, shards)
            .iter()
            .filter(|lane| {
                lane.iter()
                    .any(|o| matches!(o, Operation::Put { .. } | Operation::Delete { .. }))
            })
            .count() as u64;

        let r = db.run_mission(&mission);
        prop_assert_eq!(r.window.wal_appends, writes, "every write logged exactly once");
        prop_assert_eq!(
            r.window.wal_syncs, lanes_with_writes,
            "one fsync per shard whose lane wrote, none for idle shards"
        );
        prop_assert_eq!(r.wal_synced, r.window.wal_appends, "the barrier acknowledges the batch");
        prop_assert!(
            r.commit_ns <= r.commit_busy_ns,
            "barrier latency (max, {}) exceeded the sequential sum ({})",
            r.commit_ns, r.commit_busy_ns
        );
        if shards == 1 {
            prop_assert_eq!(r.commit_ns, r.commit_busy_ns, "one shard: max == sum");
        }
        if writes > 0 {
            prop_assert!(r.commit_ns > 0, "a written batch has a nonzero barrier cost");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
