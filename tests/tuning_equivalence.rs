//! Per-shard learned tuning, and the store's refusal to recover a root
//! whose keys do not live on their hash shard.
//!
//! Two contracts are pinned here:
//!
//! 1. **The seats' decisions are pinned by goldens**: a one-shard Lerp
//!    store (the paper's single-agent loop) and a four-shard Lerp store
//!    under `repro tuning`'s `skewed` schedule (one agent per shard, each
//!    on its own reward slice) must reproduce, mission by mission, the
//!    policies recorded before the store lost its second, store-wide
//!    reading of the seat list — and the summed virtual wall and
//!    device-busy time with them.
//! 2. **Routing is the key hash, and recovery will not pretend
//!    otherwise**: a root holding a `ROUTES` file (keys re-homed away
//!    from their hash shard by an earlier build) is refused by
//!    `recover_persistent` with a typed error naming the file, and a
//!    fresh open wipes it (`recovery_refuses_a_root_with_rehomed_keys`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use ruskey_bench::{tuning_cfg, tuning_missions, ExperimentScale};
use ruskey_repro::ruskey::db::RusKeyConfig;
use ruskey_repro::ruskey::lerp::Lerp;
use ruskey_repro::ruskey::sharded::{Backend, PersistenceConfig, RusKey, StoreError};
use ruskey_repro::ruskey::tuner::NoOpTuner;
use ruskey_repro::storage::{CostModel, SimulatedDisk, Storage};
use ruskey_repro::workload::routing::shard_for_key;
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

/// A Lerp-tuned store on the volatile backend, one shard per device.
fn lerp_store(cfg: RusKeyConfig, devices: Vec<Arc<dyn Storage>>) -> RusKey {
    let lerp = Box::new(Lerp::new(cfg.lerp.clone()));
    RusKey::open(cfg, devices.len(), lerp, Backend::Volatile(devices)).expect("open")
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
    let mut db = lerp_store(tuned_cfg(), vec![disk()]);
    db.bulk_load(bulk_load_pairs(2000, 16, 48, 7));
    let mut g = OpGenerator::new(mixed_spec(2000), 9);
    let (mut wall, mut busy) = (0u64, 0u64);
    for (mission, want) in ONE_SHARD_POLICIES.iter().enumerate() {
        let r = db.run_mission(&g.take_ops(250));
        assert_eq!(r.policies_after, *want, "mission {mission}");
        wall += r.end_to_end_ns;
        busy += r.window.busy_ns;
    }
    assert_eq!((wall, busy), (1_073_158_850, 1_073_158_850));
}

/// Golden: a four-shard Lerp store seats one agent per shard — seat `i`
/// seeded `seed + i·104729`, rewarded from its own shard's slice — and
/// under skew its shards' policies diverge exactly as recorded.
#[test]
fn per_shard_lerp_under_skew_reproduces_its_golden() {
    let scale = ExperimentScale::tiny();
    let devices = (0..4).map(|_| scale.disk()).collect();
    let mut db = lerp_store(tuning_cfg(&scale), devices);
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
        busy += r.window.busy_ns;
    }
    assert_eq!((wall, busy), (45_906_900, 49_202_550));
}

/// A root written by a build that re-homed hot keys holds a `ROUTES`
/// file naming keys that live away from their hash shard. Recovering it
/// by the key hash would read stale values, so recovery refuses it with a
/// typed error naming the file; a fresh open over the same root wipes it.
#[test]
fn recovery_refuses_a_root_with_rehomed_keys() {
    let dir = wal_dir("refuse");
    let dur = persistence(&dir);
    let shards = 2usize;

    // A key homed on shard 0 by hash.
    let key = (0..1000u64)
        .map(|id| encode_key(id, 16))
        .find(|k| shard_for_key(k, shards) == 0)
        .unwrap();
    let value = Bytes::from_static(b"survives-the-crash");

    {
        let mut db = RusKey::open(
            big_buffer_cfg(),
            shards,
            Box::new(NoOpTuner),
            Backend::Create(&dur),
        )
        .unwrap();
        // One mission makes the write durable (acked after the barrier).
        db.run_mission(&[Operation::Put {
            key: key.clone(),
            value,
        }]);
    }

    // The line an interrupted migration left behind: the key re-homed to
    // shard 1 (moved from shard 0) while its value still sits on shard 0.
    let mut line = String::from("1 0 ");
    for b in key.iter() {
        line.push_str(&format!("{b:02x}"));
    }
    line.push('\n');
    let routes = dir.join("ROUTES");
    std::fs::write(&routes, line).unwrap();

    let err = RusKey::open(
        big_buffer_cfg(),
        shards,
        Box::new(NoOpTuner),
        Backend::Recover(&dur),
    )
    .err()
    .expect("a root with re-homed keys must be refused");
    assert!(
        matches!(&err, StoreError::Io(e) if e.kind() == std::io::ErrorKind::InvalidData),
        "{err:?}"
    );
    let said = err.to_string();
    assert!(said.starts_with("store I/O failed: "), "{said}");
    assert!(said.contains(&routes.display().to_string()), "{said}");
    assert!(said.contains("re-homes keys"), "{said}");

    let fresh = RusKey::open(
        big_buffer_cfg(),
        shards,
        Box::new(NoOpTuner),
        Backend::Create(&dur),
    );
    assert!(fresh.is_ok(), "a fresh open must succeed over the root");
    assert!(!routes.exists(), "a fresh open must wipe the routes file");

    std::fs::remove_dir_all(&dir).ok();
}
