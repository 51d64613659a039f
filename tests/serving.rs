//! The concurrent serving frontend's contract, end to end:
//!
//! * **K-client equivalence** — clients over disjoint key slices driving
//!   a served store concurrently leave exactly the state a
//!   single-threaded replay of the same scripts leaves, at
//!   `K ∈ {1, 2, 4}`;
//! * **read-your-writes** — a client immediately re-reading its own
//!   acknowledged write sees it, no matter what the other clients are
//!   doing (the per-shard lock's order makes this structural);
//! * **crash durability** — a crash after a WAL append firing mid-serve never
//!   loses a write that was acknowledged before it;
//! * **group commit** — many writers over few shards share fsyncs, and
//!   every acknowledged write is on disk all the same;
//! * **failure is typed and local** — a handle that outlives its session
//!   gets `Stopped`; a client that panics inside a shard, or a WAL write
//!   that fails in it, kills that shard only;
//! * **sessions bracket missions** — a store alternates missions and
//!   sessions, each hand-over keeping state, statistics and policies;
//! * **the in-flight gauge** never exceeds the number of clients.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use bytes::Bytes;

use ruskey_repro::ruskey::db::RusKeyConfig;
use ruskey_repro::ruskey::sharded::{Backend, PersistenceConfig, RusKey, StoreError};
use ruskey_repro::ruskey::tuner::{FixedPolicy, NoOpTuner};
use ruskey_repro::ruskey::{ServingConfig, ServingError};
use ruskey_repro::storage::{CostModel, SimulatedDisk, Storage};
use ruskey_repro::storage::{Fault, Site};
use ruskey_repro::workload::{
    bulk_load_pairs, client_scripts, encode_key, OpGenerator, OpMix, Operation, WorkloadSpec,
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
        lookup: 0.4,
        update: 0.4,
        delete: 0.1,
        scan: 0.1,
    })
}

/// Applies one client script through a served frontend, panicking on any
/// serving error (none are expected without faults or rate limits).
fn drive_script(client: &ruskey_repro::ruskey::ServingClient, script: &[Operation]) {
    for op in script {
        match op {
            Operation::Get { key } => {
                client.get(key).expect("get failed");
            }
            Operation::Put { key, value } => {
                client.put(key.clone(), value.clone()).expect("put failed");
            }
            Operation::Delete { key } => {
                client.delete(key.clone()).expect("delete failed");
            }
            Operation::Scan { start, end, limit } => {
                client.scan(start, end, *limit).expect("scan failed");
            }
        }
    }
}

/// Acceptance: K concurrent clients over disjoint key slices are
/// *equivalent* to replaying their scripts single-threaded — the served
/// store's final state (every key, and a full scan) is identical.
#[test]
fn k_clients_equal_single_threaded_replay() {
    const KEY_SPACE: u64 = 2000;
    for &clients in &[1usize, 2, 4] {
        let pairs = bulk_load_pairs(KEY_SPACE, 16, 48, 5);
        let mut served = volatile(small_cfg(), disks(4));
        served.bulk_load(pairs.clone());
        let mut replay = volatile(small_cfg(), disks(4));
        replay.bulk_load(pairs);

        let scripts = client_scripts(&mixed_spec(KEY_SPACE), clients, 400, 13);
        let frontend = served.serve(ServingConfig::default()).expect("serve");
        thread::scope(|s| {
            for script in &scripts {
                let client = frontend.client();
                s.spawn(move || drive_script(&client, script));
            }
        });
        let metrics = served.finish_serving(frontend).expect("finish serving");
        assert!(metrics.acked_writes > 0, "scripts must contain writes");
        assert_eq!(
            metrics.requests(),
            (clients * 400) as u64,
            "every scripted op must be admitted and counted"
        );

        // The disjoint key slices make any client interleaving equivalent
        // to the sequential replay: compare every key and the full scan.
        for script in &scripts {
            for op in script {
                let _ = replay_op(&mut replay, op);
            }
        }
        for i in 0..KEY_SPACE {
            let k = encode_key(i, 16);
            assert_eq!(
                served.get(&k),
                replay.get(&k),
                "clients={clients}: key {i} diverged from the replay"
            );
        }
        let lo = encode_key(0, 16);
        let hi = [0xffu8; 17];
        assert_eq!(
            served.scan(&lo, &hi, usize::MAX),
            replay.scan(&lo, &hi, usize::MAX),
            "clients={clients}: full scan diverged from the replay"
        );
    }
}

fn replay_op(db: &mut RusKey, op: &Operation) -> usize {
    match op {
        Operation::Get { key } => {
            db.get(key);
        }
        Operation::Put { key, value } => db.put(key.clone(), value.clone()),
        Operation::Delete { key } => db.delete(key.clone()),
        Operation::Scan { start, end, limit } => {
            return db.scan(start, end, *limit).len();
        }
    }
    0
}

/// A client that re-reads its own acknowledged write mid-flight must see
/// it — under full concurrency, with every other client hammering its
/// own slice of the same shards.
#[test]
fn clients_read_their_own_writes_under_concurrency() {
    const CLIENTS: u64 = 4;
    const ROUNDS: u64 = 150;
    let mut db = volatile(small_cfg(), disks(4));
    let frontend = db.serve(ServingConfig::default()).expect("serve");
    thread::scope(|s| {
        for c in 0..CLIENTS {
            let client = frontend.client();
            s.spawn(move || {
                let mut model: BTreeMap<Bytes, Bytes> = BTreeMap::new();
                for i in 0..ROUNDS {
                    // 40 keys per client, constantly overwritten, so
                    // rereads race other clients' batches on every shard.
                    let key = encode_key(c * 1000 + i % 40, 16);
                    let value = Bytes::from(format!("ryw-{c}-{i}"));
                    client.put(key.clone(), value.clone()).expect("put");
                    model.insert(key.clone(), value);
                    let got = client.get(&key).expect("get");
                    assert_eq!(
                        got.as_ref(),
                        model.get(&key),
                        "client {c} round {i}: lost its own acknowledged write"
                    );
                }
                // And the whole model is intact at the end.
                for (key, want) in &model {
                    assert_eq!(client.get(key).expect("get").as_ref(), Some(want));
                }
            });
        }
    });
    let metrics = db.finish_serving(frontend).expect("finish serving");
    assert_eq!(metrics.acked_writes, CLIENTS * ROUNDS);
}

/// A crash firing mid-serve (WAL fault injection on shard 0) never loses
/// an acknowledged write: recovery must read back every put that
/// returned `Ok` before the crash — from the WAL alone under the default
/// (large) write buffer, and from the manifest's runs plus the WAL under
/// a 4 KiB buffer, where shard 0 has flushed before the crash fires.
#[test]
fn acknowledged_writes_survive_a_mid_serve_crash() {
    const SHARDS: usize = 2;
    const CLIENTS: u64 = 4;
    let default_buffer = RusKeyConfig::scaled_default().lsm.buffer_bytes;
    // (write buffer, shard-0 appends before the crash fires, writes per
    // client, whether shard 0 flushes first)
    for (buffer_bytes, crash_after, writes, flushes) in
        [(default_buffer, 20, 60, false), (4096, 150, 100, true)]
    {
        let dir = std::env::temp_dir().join(format!("ruskey-serving-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durability = persistence(&dir);
        let mut cfg = RusKeyConfig::scaled_default();
        cfg.lsm.buffer_bytes = buffer_bytes;
        let mut db = RusKey::open(
            cfg.clone(),
            SHARDS,
            Box::new(NoOpTuner),
            Backend::Create(&durability),
        )
        .expect("open persistent store");
        db.shard(0)
            .faults()
            .arm(Site::WalAppend, crash_after, Fault::CrashAfter);

        let frontend = db.serve(ServingConfig::default()).expect("serve");
        let acked: Vec<(Bytes, Bytes)> = thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let client = frontend.client();
                    s.spawn(move || {
                        let mut acked = Vec::new();
                        for i in 0..writes {
                            let key = encode_key(c * 100_000 + i, 16);
                            let value = Bytes::from(format!("crash-{c}-{i}"));
                            match client.put(key.clone(), value.clone()) {
                                Ok(()) => acked.push((key, value)),
                                // The crashed shard's clients see Crashed,
                                // then Stopped once its fault plan is
                                // dead; neither is an acknowledgement.
                                Err(ServingError::Crashed | ServingError::Stopped) => {}
                            }
                        }
                        acked
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        db.finish_serving(frontend).expect("finish serving");
        assert!(db.crashed(), "the armed crash must have fired mid-serve");
        assert!(!acked.is_empty(), "some writes must precede the crash");
        // A crashed shard writes nothing more, so a flush it shows ran
        // before the crash fired.
        assert_eq!(
            db.shard(0).stats().flushes > 0,
            flushes,
            "buffer {buffer_bytes}: shard 0 flushed before the crash"
        );
        drop(db);

        let mut rec = RusKey::open(
            cfg,
            SHARDS,
            Box::new(NoOpTuner),
            Backend::Recover(&durability),
        )
        .expect("recover after mid-serve crash");
        for (key, value) in &acked {
            assert_eq!(
                rec.get(key).as_deref(),
                Some(value.as_ref()),
                "acknowledged write lost across the crash"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A persistent store's settings under `dir`: 512-byte pages, NVMe costs.
fn persistence(dir: &std::path::Path) -> PersistenceConfig {
    let mut p = PersistenceConfig::new(dir);
    p.page_size = 512;
    p
}

/// A fresh persistent store with the default (large) write buffer, so no
/// flush recycles the WALs mid-test, and the settings it was opened with.
fn durable_store(name: &str, shards: usize) -> (RusKey, PersistenceConfig) {
    let dir = std::env::temp_dir().join(format!("ruskey-serving-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = persistence(&dir);
    let db = RusKey::open(
        RusKeyConfig::scaled_default(),
        shards,
        Box::new(NoOpTuner),
        Backend::Create(&durability),
    )
    .expect("open persistent store");
    (db, durability)
}

/// Sixteen writers over two persistent shards: every acknowledged put is
/// there after the session and after recovery from the logs alone, the
/// acknowledgement count is exact, and the writers shared fsyncs — fewer
/// fsyncs than acknowledged writes, more than one record per fsync.
#[test]
fn sixteen_writers_share_fsyncs_and_lose_nothing() {
    const SHARDS: usize = 2;
    const CLIENTS: u64 = 16;
    const WRITES: u64 = 40;
    let (mut db, durability) = durable_store("group-commit", SHARDS);
    let frontend = db.serve(ServingConfig::default()).expect("serve");
    let start = Barrier::new(CLIENTS as usize);
    let acked: Vec<(Bytes, Bytes)> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (client, start) = (frontend.client(), &start);
                s.spawn(move || {
                    start.wait();
                    let mut acked = Vec::new();
                    for i in 0..WRITES {
                        let key = encode_key(c * 100_000 + i, 16);
                        let value = Bytes::from(format!("gc-{c}-{i}"));
                        client.put(key.clone(), value.clone()).expect("put");
                        acked.push((key, value));
                    }
                    acked
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let metrics = db.finish_serving(frontend).expect("finish serving");
    assert_eq!(acked.len() as u64, CLIENTS * WRITES);
    assert_eq!(metrics.acked_writes, acked.len() as u64);
    let syncs: u64 = (0..SHARDS)
        .map(|i| db.shard(i).wal().expect("durable shard").sync_count())
        .sum();
    assert!(
        syncs < metrics.acked_writes,
        "{syncs} fsyncs for {} acknowledged writes: no coalescing",
        metrics.acked_writes
    );
    assert_eq!(metrics.batches, syncs, "every fsync is one counted batch");
    assert!(metrics.mean_batch_writes() > 1.0);
    assert_eq!(metrics.commit_wait_ns.count, metrics.acked_writes);
    for i in 0..SHARDS {
        assert_eq!(db.shard(i).wal().unwrap().unsynced(), 0, "shard {i}");
    }
    for (key, value) in &acked {
        assert_eq!(db.get(key).as_deref(), Some(value.as_ref()));
    }
    drop(db);
    let cfg = RusKeyConfig::scaled_default();
    let mut rec = RusKey::open(
        cfg,
        SHARDS,
        Box::new(NoOpTuner),
        Backend::Recover(&durability),
    )
    .expect("recover");
    for (key, value) in &acked {
        assert_eq!(
            rec.get(key).as_deref(),
            Some(value.as_ref()),
            "acknowledged write missing from the logs"
        );
    }
    let _ = std::fs::remove_dir_all(&durability.root);
}

/// A client handle that outlives its session is refused, not hung and
/// not panicked, on every kind of request.
#[test]
fn a_client_kept_past_finish_serving_is_stopped() {
    let mut db = volatile(small_cfg(), disks(2));
    let frontend = db.serve(ServingConfig::default()).expect("serve");
    let client = frontend.client();
    let key = encode_key(7, 16);
    client
        .put(key.clone(), Bytes::from_static(b"v"))
        .expect("put");
    db.finish_serving(frontend).expect("finish serving");
    assert!(matches!(client.get(&key), Err(ServingError::Stopped)));
    assert!(matches!(
        client.put(key.clone(), Bytes::from_static(b"w")),
        Err(ServingError::Stopped)
    ));
    assert!(matches!(
        client.delete(key.clone()),
        Err(ServingError::Stopped)
    ));
    assert!(matches!(
        client.scan(&key, &[0xff; 17], 10),
        Err(ServingError::Stopped)
    ));
    assert_eq!(
        db.get(&key).as_deref(),
        Some(&b"v"[..]),
        "the store is home"
    );
}

/// A client panicking inside one shard's lock kills that shard only: its
/// other clients get `Stopped`, the sibling shard keeps serving (and
/// keeps acknowledging), and the session's end names the dead shard, with
/// every tree home and the sibling still readable.
#[test]
fn a_client_panic_poisons_only_its_shard() {
    let (mut db, durability) = durable_store("client-panic", 2);
    // Shard 0's second logged write panics, as an engine bug would.
    db.shard(0).faults().arm(Site::WalAppend, 1, Fault::Panic);
    let frontend = db.serve(ServingConfig::default()).expect("serve");
    // One key per shard, found by asking the store's own routing.
    let on_shard = |shard: usize| {
        (0..)
            .map(|i| encode_key(i, 16))
            .find(|k| ruskey_repro::workload::routing::shard_for_key(k, 2) == shard)
            .unwrap()
    };
    let (dead_key, live_key) = (on_shard(0), on_shard(1));
    let client = frontend.client();
    client
        .put(dead_key.clone(), Bytes::from_static(b"before"))
        .expect("put");
    let (doomed, dead_key_put) = (frontend.client(), dead_key.clone());
    let doomed_put = move || doomed.put(dead_key_put, Bytes::from_static(b"doomed"));
    let panicked = thread::scope(|s| s.spawn(doomed_put).join());
    assert!(panicked.is_err(), "the armed put must panic");
    assert!(matches!(client.get(&dead_key), Err(ServingError::Stopped)));
    assert!(matches!(
        client.put(dead_key.clone(), Bytes::from_static(b"after")),
        Err(ServingError::Stopped)
    ));
    client
        .put(live_key.clone(), Bytes::from_static(b"alive"))
        .expect("sibling shard serves");
    assert_eq!(
        client.get(&live_key).expect("get").as_deref(),
        Some(&b"alive"[..])
    );
    // A scan needs every shard, so it is refused too.
    assert!(matches!(
        client.scan(&live_key, &[0xff; 17], 10),
        Err(ServingError::Stopped)
    ));
    match db.finish_serving(frontend) {
        Err(StoreError::Dead { shard: 0, .. }) => {}
        other => panic!("expected shard 0 reported dead, got {other:?}"),
    }
    // Shard 0 stays dead, and only shard 0: a mission fails naming it,
    // and the sibling reads back what it acknowledged.
    assert!(matches!(
        db.try_run_mission(&[]),
        Err(StoreError::Dead { shard: 0, .. })
    ));
    assert_eq!(db.get(&live_key).as_deref(), Some(&b"alive"[..]));
    let _ = std::fs::remove_dir_all(&durability.root);
}

/// A WAL write that fails mid-serve power-fails its shard, as a failed
/// fsync does: that write answers `Crashed`, every later request on the
/// shard answers `Stopped` (its fault plan is the one dead flag), the
/// sibling shard keeps serving, and recovery returns every write
/// acknowledged before the failure.
#[test]
fn a_failed_wal_write_stops_only_its_shard() {
    let (mut db, durability) = durable_store("wal-write-fail", 2);
    let faults = Arc::clone(db.shard(0).storage().faults().expect("a file-backed shard"));
    let frontend = db.serve(ServingConfig::default()).expect("serve");
    let on_shard = |shard: usize| {
        (0..)
            .map(|i| encode_key(i, 16))
            .filter(move |k| ruskey_repro::workload::routing::shard_for_key(k, 2) == shard)
    };
    let (mut dead_keys, mut live_keys) = (on_shard(0), on_shard(1));
    let client = frontend.client();
    let acked: Vec<Bytes> = dead_keys.by_ref().take(5).collect();
    for key in &acked {
        client
            .put(key.clone(), key.clone())
            .expect("put before the failure");
    }
    faults.arm(Site::WalWrite, 0, Fault::Error(std::io::ErrorKind::Other));
    let dead_key = dead_keys.next().unwrap();
    let failed = client.put(dead_key.clone(), Bytes::from_static(b"failed"));
    assert!(
        matches!(failed, Err(ServingError::Crashed)),
        "the failed write answered {failed:?}"
    );
    assert!(matches!(client.get(&dead_key), Err(ServingError::Stopped)));
    assert!(matches!(
        client.put(dead_key.clone(), Bytes::from_static(b"late")),
        Err(ServingError::Stopped)
    ));
    let live_key = live_keys.next().unwrap();
    client
        .put(live_key.clone(), Bytes::from_static(b"alive"))
        .expect("sibling shard serves");
    assert_eq!(
        client.get(&live_key).expect("get").as_deref(),
        Some(&b"alive"[..])
    );
    db.finish_serving(frontend).expect("no shard panicked");
    assert!(db.crashed(), "the failed write power-fails shard 0");
    drop(db);
    let mut rec = RusKey::open(
        RusKeyConfig::scaled_default(),
        2,
        Box::new(NoOpTuner),
        Backend::Recover(&durability),
    )
    .expect("recover");
    for key in acked.iter().chain([&live_key]) {
        assert!(rec.get(key).is_some(), "acknowledged write lost");
    }
    let _ = std::fs::remove_dir_all(&durability.root);
}

/// Applies a script's writes to the model of everything acknowledged.
fn apply_to_model(model: &mut BTreeMap<Bytes, Bytes>, script: &[Operation]) {
    for op in script {
        match op {
            Operation::Put { key, value } => {
                model.insert(key.clone(), value.clone());
            }
            Operation::Delete { key } => {
                model.remove(key);
            }
            Operation::Get { .. } | Operation::Scan { .. } => {}
        }
    }
}

/// Missions and serving sessions alternate on one persistent store: the
/// trees move into the frontend and come home again three times over, and
/// every hand-over keeps what it must. A mission's report counts that
/// mission's operations only (the served work, and the ad-hoc reads
/// before it, are folded out of the delta); the mission runs — gets
/// included — on the state the session left; policies and each shard's
/// lifetime clock only move forward; and the store ends equal to a replay
/// of everything acknowledged.
#[test]
fn sessions_and_missions_alternate_on_one_store() {
    const SHARDS: usize = 2;
    const KEY_SPACE: u64 = 1500;
    let dir = std::env::temp_dir().join(format!("ruskey-serving-alt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = persistence(&dir);
    // A small buffer, so levels exist for the fixed tuner to set K = 4 on.
    let mut db = RusKey::open(
        small_cfg(),
        SHARDS,
        Box::new(FixedPolicy::new(4)),
        Backend::Create(&durability),
    )
    .expect("open persistent store");
    let pairs = bulk_load_pairs(KEY_SPACE, 16, 48, 21);
    let mut model: BTreeMap<Bytes, Bytes> = pairs.iter().cloned().collect();
    db.bulk_load(pairs);
    let matches_model = |db: &mut RusKey, model: &BTreeMap<Bytes, Bytes>, at: &str| {
        for i in 0..KEY_SPACE {
            let key = encode_key(i, 16);
            assert_eq!(db.get(&key).as_ref(), model.get(&key), "{at}: key {i}");
        }
    };

    let mut g = OpGenerator::new(mixed_spec(KEY_SPACE), 23);
    for round in 0..3u64 {
        let mission = g.take_ops(300);
        let report = db.try_run_mission(&mission).expect("mission");
        assert_eq!(
            report.ops,
            mission.len() as u64,
            "round {round}: the report counts this mission and nothing else"
        );
        apply_to_model(&mut model, &mission);
        // The mission ran on the trees the last session handed back.
        matches_model(
            &mut db,
            &model,
            &format!("round {round}, after the mission"),
        );
        assert!(
            db.shard_policies().iter().flatten().all(|&k| k == 4),
            "round {round}: the tuner's policy is in force"
        );

        let policies = db.shard_policies();
        let clocks: Vec<u64> = (0..SHARDS).map(|i| db.shard(i).stats().clock_ns).collect();
        let scripts = client_scripts(&mixed_spec(KEY_SPACE), 2, 150, 29 + round);
        let frontend = db.serve(ServingConfig::default()).expect("serve");
        thread::scope(|s| {
            for script in &scripts {
                let client = frontend.client();
                s.spawn(move || drive_script(&client, script));
            }
        });
        let metrics = db.finish_serving(frontend).expect("finish serving");
        assert_eq!(metrics.requests(), 300, "round {round}");
        // Disjoint key slices: any interleaving equals the replay.
        for script in &scripts {
            apply_to_model(&mut model, script);
        }
        assert_eq!(db.shard_policies(), policies, "round {round}: policies");
        for (i, before) in clocks.iter().enumerate() {
            let after = db.shard(i).stats().clock_ns;
            assert!(
                after > *before,
                "round {round}: shard {i}'s clock went {before} -> {after} serving"
            );
        }
    }
    // One more mission after the last session, then the full comparison.
    let mission = g.take_ops(300);
    let report = db.try_run_mission(&mission).expect("mission");
    assert_eq!(report.ops, mission.len() as u64, "after the last session");
    apply_to_model(&mut model, &mission);
    matches_model(&mut db, &model, "at the end");
    let rows = db.scan(&encode_key(0, 16), &[0xff; 17], usize::MAX);
    assert_eq!(rows, model.into_iter().collect::<Vec<_>>(), "full scan");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The per-shard gauge counts requests inside or waiting for the shard.
/// The thread that adds is the thread that subtracts, so a concurrent
/// snapshot can never catch it above the number of clients — let alone
/// wrapped below zero, as a gauge decremented by another thread could be.
#[test]
fn in_flight_gauge_never_exceeds_the_client_count() {
    const CLIENTS: u64 = 8;
    const OPS: u64 = 3000;
    let mut db = volatile(small_cfg(), disks(2));
    let frontend = db.serve(ServingConfig::default()).expect("serve");
    let done = AtomicBool::new(false);
    let start = Barrier::new(CLIENTS as usize + 1);
    let (snapshots, worst) = thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (client, start) = (frontend.client(), &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..OPS {
                        let key = encode_key(c * 10_000 + i % 64, 16);
                        if i % 4 == 0 {
                            client.put(key, Bytes::from_static(b"gauge")).expect("put");
                        } else {
                            client.get(&key).expect("get");
                        }
                    }
                })
            })
            .collect();
        // Snapshot for as long as the clients run; the barrier makes the
        // two overlap from the first request on.
        let watcher = s.spawn(|| {
            start.wait();
            let (mut snapshots, mut worst) = (0u64, 0u64);
            while !done.load(Ordering::SeqCst) {
                let depth = frontend.metrics().queue_depth;
                worst = worst.max(depth.into_iter().max().unwrap_or(0));
                snapshots += 1;
            }
            (snapshots, worst)
        });
        for c in clients {
            c.join().expect("client thread panicked");
        }
        done.store(true, Ordering::SeqCst);
        watcher.join().expect("watcher panicked")
    });
    assert!(snapshots > 0);
    assert!(
        worst <= CLIENTS,
        "a shard's gauge read {worst} with {CLIENTS} clients ({snapshots} snapshots)"
    );
    let metrics = db.finish_serving(frontend).expect("finish serving");
    assert_eq!(metrics.queue_depth, vec![0, 0], "idle at the end");
    assert_eq!(metrics.requests(), CLIENTS * OPS);
    assert_eq!(metrics.lock_wait_ns.count, metrics.requests());
    assert_eq!(metrics.execute_ns.count, metrics.requests());
}

/// The Prometheus export from the public surface: after a session of a
/// few gets, puts, a delete and a scan, the rendered text carries each
/// request counter with the count served, and the per-shard op counters
/// sum to the shard visits.
#[test]
fn the_prometheus_export_counts_the_requests_served() {
    let mut db = volatile(small_cfg(), disks(2));
    let frontend = db.serve(ServingConfig::default()).expect("serve");
    let client = frontend.client();
    for i in 0..5u64 {
        client
            .put(encode_key(i, 16), Bytes::from_static(b"exported"))
            .expect("put");
    }
    for i in 0..3u64 {
        assert!(client.get(&encode_key(i, 16)).expect("get").is_some());
    }
    client.delete(encode_key(4, 16)).expect("delete");
    client
        .scan(&encode_key(0, 16), &encode_key(9, 16), 10)
        .expect("scan");
    let live = frontend.metrics().render_prometheus();
    let text = db
        .finish_serving(frontend)
        .expect("finish")
        .render_prometheus();
    assert_eq!(live, text, "the session's last snapshot is the final one");
    for (kind, n) in [("get", 3), ("put", 5), ("delete", 1), ("scan", 1)] {
        let line = format!("ruskey_serving_requests_total{{kind=\"{kind}\"}} {n}\n");
        assert!(text.contains(&line), "missing {line:?} in\n{text}");
    }
    let shard_ops: u64 = (0..2)
        .map(|s| {
            let name = format!("ruskey_serving_shard_ops_total{{shard=\"{s}\"}} ");
            let line = text
                .lines()
                .find(|l| l.starts_with(&name))
                .expect("shard line");
            line[name.len()..].parse::<u64>().expect("a count")
        })
        .sum();
    // Nine point requests on their own shard, and the scan on both.
    assert_eq!(shard_ops, 11, "one op per shard a request touched\n{text}");
}
