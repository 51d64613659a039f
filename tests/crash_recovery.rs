//! Crash-injection and recovery tests for the persistent store.
//!
//! Three suites pin the durability contract of the WAL + cross-shard
//! group-commit engine:
//!
//! 1. **Crash-point matrix**: the shard's fault plan kills the WAL write
//!    path at every interesting instant (pre-append, post-append,
//!    post-sync, mid-flush) at `N ∈ {1, 2, 4}` shards; recovery must
//!    restore exactly the acknowledged prefix (and, for the torn
//!    mid-flush sync, a strict per-shard prefix of the batch). The
//!    group-commit barrier is *overlapped* — every shard's commit leg
//!    runs concurrently inside its own mission lane — so a shard crashing
//!    mid-barrier does not stop its siblings' fsyncs: sync-time crash
//!    points leave the sibling shards' batches durable, and a dedicated
//!    overlapped-commit case pins that under mission-driven operation.
//! 2. **Recovery equivalence proptest**: random op sequences with a crash
//!    at a random buffer-loss point — the recovered store's get/scan
//!    results must be bit-identical to a store that only executed the
//!    durable prefix (everything up to the last completed commit
//!    barrier).
//! 3. **WAL replay fuzz proptest**: bit flips, truncation, and appended
//!    garbage over a valid log — replay never panics and yields exactly
//!    the longest valid prefix.
//!
//! Every suite runs on a persistent store (manifest + WAL per shard), the
//! only durable store there is. The WAL suites (1–3) keep their working
//! set below `buffer_bytes` by choice, not by necessity: with no memtable
//! flush, each scenario exercises the log and nothing else. Suite 4
//! exercises the layer *below*: **manifest crash points** — the crash
//! between a flush's data-page writes and its manifest commit, the torn
//! write of the newer slot (by the crash point and from outside), and the
//! crash after the commit but before the WAL is recycled — asserting
//! recovery always takes the newest valid snapshot, never references
//! missing pages, and loses nothing (whatever the manifest snapshot
//! misses, the unrecycled WAL still covers).
//!
//! Suite 5 drops below even the manifest: **torn power cuts** on the
//! storage barriers themselves ([`Fault::PowerCut`]). A cut before the
//! extent fsync leaves a torn data file; a cut before the directory
//! fsync unlinks the extent's name wholesale. In every case recovery
//! must yield exactly the acknowledged prefix, sweep the orphaned extent
//! files a pre-commit cut left behind (safe id reuse included), and
//! surface a *missing* referenced extent as a typed error — never a
//! panic. The WAL's own recycling is cut too: a finished generation whose
//! zero-fill never reached the disk must not shadow the runs after it.
//! So are recycled extent files: a cut while a freed file is overwritten
//! recovers the acknowledged prefix, and a fallback onto a generation
//! whose extent file now holds another run fails the open, typed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use ruskey_repro::lsm::{KvEntry, Manifest, Wal};
use ruskey_repro::ruskey::db::RusKeyConfig;
use ruskey_repro::ruskey::sharded::{Backend, PersistenceConfig, RusKey, StoreError};
use ruskey_repro::storage::{CostModel, Fault, SimulatedDisk, Site, Storage};
use ruskey_repro::workload::routing::shard_for_key;
use ruskey_repro::workload::{
    bulk_load_pairs, encode_key, OpGenerator, OpMix, Operation, WorkloadSpec,
};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// The crash points the matrices run, as the fault each arms at its site.
const PRE_APPEND: (Site, Fault) = (Site::WalAppend, Fault::Crash);
const POST_APPEND: (Site, Fault) = (Site::WalAppend, Fault::CrashAfter);
const POST_SYNC: (Site, Fault) = (Site::WalSync, Fault::CrashAfter);
const MID_FLUSH: (Site, Fault) = (Site::WalWrite, Fault::Torn);
const PRE_COMMIT: (Site, Fault) = (Site::ManifestWrite, Fault::Crash);
const MID_COMMIT: (Site, Fault) = (Site::ManifestWrite, Fault::Torn);
const POST_COMMIT: (Site, Fault) = (Site::ManifestSync, Fault::CrashAfter);

/// A unique WAL directory per scenario (parallel tests must not share).
fn wal_dir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ruskey-crashrec-{tag}-{}-{n}", std::process::id()))
}

/// Config with a buffer large enough that nothing flushes, so the WAL
/// suites exercise the log alone: every acknowledged write is still in it.
fn big_buffer_cfg() -> RusKeyConfig {
    let mut cfg = RusKeyConfig::scaled_default();
    cfg.lsm.buffer_bytes = 1 << 20;
    cfg.lsm.size_ratio = 4;
    cfg
}

fn disk() -> Arc<dyn Storage> {
    SimulatedDisk::new(512, CostModel::NVME)
}

/// The WAL suites' store under `dir`: 512-byte pages, NVMe costs.
fn wal_suite_cfg(dir: &std::path::Path) -> PersistenceConfig {
    let mut p = PersistenceConfig::new(dir);
    p.page_size = 512;
    p
}

fn persistent_store(shards: usize, p: &PersistenceConfig) -> RusKey {
    RusKey::open(
        big_buffer_cfg(),
        shards,
        Box::new(ruskey_repro::ruskey::tuner::NoOpTuner),
        Backend::Create(p),
    )
    .expect("open persistent store")
}

fn recovered_persistent(shards: usize, p: &PersistenceConfig) -> RusKey {
    RusKey::open(
        big_buffer_cfg(),
        shards,
        Box::new(ruskey_repro::ruskey::tuner::NoOpTuner),
        Backend::Recover(p),
    )
    .expect("recover persistent store")
}

fn key(i: u64) -> Bytes {
    encode_key(i, 16)
}

fn val(i: u64) -> Vec<u8> {
    format!("value-{i:06}").into_bytes()
}

// ----------------------------------------------------------------------
// 1. Crash-point matrix
// ----------------------------------------------------------------------

/// Acceptance: at every crash point and `N ∈ {1, 2, 4}`, recovery yields
/// exactly the acknowledged records — the phase-1 batch committed by the
/// barrier, plus (point-dependent) the crashed shard's phase-2 records.
#[test]
fn recovery_restores_exactly_the_synced_prefix_at_every_crash_point() {
    const PHASE1: u64 = 40;
    const PHASE2: u64 = 40;
    for shards in [1usize, 2, 4] {
        for point in [PRE_APPEND, POST_APPEND, POST_SYNC, MID_FLUSH] {
            let dir = wal_dir("matrix");
            let dur = wal_suite_cfg(&dir);
            let mut db = persistent_store(shards, &dur);

            // Phase 1: a committed batch — durable on every shard.
            for i in 0..PHASE1 {
                db.put(key(i), val(i));
            }
            db.group_commit();
            assert!(!db.crashed());

            // Phase 2: arm the crash on shard 0, then keep writing. The
            // keys shard 0 receives, in append order, drive the prefix
            // assertion below. Append-time points fire on the third
            // shard-0 append; sync-time points fire at the next barrier
            // (visited once per batch).
            let countdown = match point {
                PRE_APPEND | POST_APPEND => 2,
                _ => 0, // POST_SYNC, MID_FLUSH
            };
            db.shard(0).faults().arm(point.0, countdown, point.1);
            let mut shard0_phase2: Vec<u64> = Vec::new();
            for i in PHASE1..PHASE1 + PHASE2 {
                db.put(key(i), val(i));
                if shard_for_key(&key(i), shards) == 0 {
                    shard0_phase2.push(i);
                }
                if db.crashed() {
                    break; // process death: no further ops are issued
                }
            }
            // Append-time points fire during the puts; sync-time points
            // fire inside the commit barrier, which then fails.
            if !db.crashed() {
                assert!(db.try_group_commit().is_err(), "point={point:?}");
            }
            assert!(
                db.crashed(),
                "shards={shards} point={point:?}: the armed crash never fired"
            );
            drop(db); // unflushed user-space WAL buffers die here

            let mut rec = recovered_persistent(shards, &dur);

            // Phase 1 was acknowledged by its barrier: always recovered.
            for i in 0..PHASE1 {
                assert_eq!(
                    rec.get(&key(i)).as_deref(),
                    Some(val(i).as_slice()),
                    "shards={shards} point={point:?}: committed key {i} lost"
                );
            }
            // Phase 2 on the non-crashed shards: depends on whether the
            // barrier ran. Append-time crashes kill the process before
            // any barrier — the siblings' buffered records die unflushed.
            // Sync-time crashes fire *inside* the overlapped barrier,
            // whose per-shard legs run concurrently: the crashed shard
            // cannot stop its siblings, so their batches become durable.
            let barrier_ran = matches!(point, POST_SYNC | MID_FLUSH);
            for i in PHASE1..PHASE1 + PHASE2 {
                if shard_for_key(&key(i), shards) != 0 {
                    if barrier_ran {
                        assert_eq!(
                            rec.get(&key(i)).as_deref(),
                            Some(val(i).as_slice()),
                            "shards={shards} point={point:?}: sibling shard's \
                             committed key {i} lost — the overlapped barrier \
                             must complete the non-crashed shards' fsyncs"
                        );
                    } else {
                        assert_eq!(
                            rec.get(&key(i)),
                            None,
                            "shards={shards} point={point:?}: unacknowledged key {i} \
                             on a sibling shard resurfaced"
                        );
                    }
                }
            }
            // Phase 2 on the crashed shard: exactly what the point allows.
            let recovered0: Vec<bool> = shard0_phase2
                .iter()
                .map(|&i| rec.get(&key(i)).is_some())
                .collect();
            match point {
                PRE_APPEND | POST_APPEND => {
                    // The buffer died before any flush: nothing survives.
                    assert!(
                        recovered0.iter().all(|&p| !p),
                        "shards={shards} point={point:?}: buffered records survived"
                    );
                }
                POST_SYNC => {
                    // The barrier's fsync completed before the death: the
                    // whole batch is durable.
                    assert!(
                        recovered0.iter().all(|&p| p),
                        "shards={shards} point={point:?}: synced batch lost"
                    );
                }
                _ => {
                    // MID_FLUSH, a torn sync: a strict prefix of the batch (no holes —
                    // a recovered record after a missing one would mean
                    // replay skipped a corrupt region).
                    let first_missing = recovered0
                        .iter()
                        .position(|&p| !p)
                        .unwrap_or(recovered0.len());
                    assert!(
                        recovered0[first_missing..].iter().all(|&p| !p),
                        "shards={shards}: torn batch recovered with holes: {recovered0:?}"
                    );
                    assert!(
                        first_missing < recovered0.len() || recovered0.is_empty(),
                        "shards={shards}: a torn sync must not persist the full batch"
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Acceptance: under mission-driven operation the group-commit barrier
/// issues at most one fsync per shard per batch, acknowledges every
/// logged record, and its cost is visible in the mission report.
#[test]
fn group_commit_syncs_at_most_once_per_shard_per_mission() {
    for shards in [1usize, 2, 4] {
        let dir = wal_dir("groupcommit");
        let dur = wal_suite_cfg(&dir);
        let mut cfg = RusKeyConfig::scaled_default();
        cfg.lsm.buffer_bytes = 4096;
        cfg.lsm.size_ratio = 4;
        let mut db = RusKey::open(
            cfg,
            shards,
            Box::new(ruskey_repro::ruskey::tuner::NoOpTuner),
            Backend::Create(&dur),
        )
        .expect("open persistent store");
        db.bulk_load(bulk_load_pairs(1200, 16, 48, 11));
        let spec = WorkloadSpec {
            key_space: 1200,
            value_len: 48,
            ..WorkloadSpec::scaled_default(1200)
        }
        .with_mix(OpMix::balanced());
        let mut g = OpGenerator::new(spec, 17);
        for mission in 0..5 {
            let r = db.run_mission(&g.take_ops(300));
            assert!(
                r.window.wal_syncs <= shards as u64,
                "shards={shards} mission={mission}: {} fsyncs for one batch \
                 (group commit must sync once per shard at most)",
                r.window.wal_syncs
            );
            assert_eq!(
                r.window.wal_appends, r.window.updates,
                "shards={shards} mission={mission}: every write logged exactly once"
            );
            assert_eq!(
                r.wal_synced, r.window.wal_appends,
                "shards={shards} mission={mission}: the barrier acknowledges the batch"
            );
            if r.window.updates > 0 {
                assert!(
                    r.wal_batch_size() > 1.0,
                    "shards={shards} mission={mission}: batch size {} — group \
                     commit must amortize the fsync",
                    r.wal_batch_size()
                );
                assert!(
                    r.commit_ns > 0,
                    "shards={shards} mission={mission}: barrier cost must be charged"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Acceptance (ISSUE 4): one shard crashes *mid-barrier* (torn fsync)
/// while its siblings' overlapped commit legs complete. Recovery must
/// restore exactly the acknowledged prefix — the earlier mission's batch
/// everywhere, the final batch in full on the surviving shards, a strict
/// prefix of it on the crashed shard — and the mission reports must show
/// the ≤ 1-fsync-per-shard-per-batch bound held throughout.
#[test]
fn overlapped_commit_crash_keeps_sibling_batches_durable() {
    const BATCH: u64 = 60;
    for shards in [2usize, 4] {
        let dir = wal_dir("overlap");
        let dur = wal_suite_cfg(&dir);
        let mut db = persistent_store(shards, &dur);

        let put = |i: u64| Operation::Put {
            key: key(i),
            value: Bytes::from(val(i)),
        };
        // Mission 1: acknowledged everywhere by its overlapped barrier.
        let ops1: Vec<Operation> = (0..BATCH).map(put).collect();
        let r1 = db.run_mission(&ops1);
        assert!(
            r1.window.wal_syncs <= shards as u64,
            "shards={shards}: mission 1 broke the ≤1-fsync-per-shard bound"
        );
        assert_eq!(r1.wal_synced, r1.window.wal_appends);
        assert!(
            r1.commit_ns <= r1.commit_busy_ns,
            "shards={shards}: overlapped barrier latency (max) exceeded the \
             sequential sum"
        );
        assert!(!db.crashed());

        // Mission 2: shard 0's commit leg tears mid-fsync. The legs run
        // concurrently on the shard workers, so the siblings' fsyncs
        // complete regardless.
        db.shard(0).faults().arm(MID_FLUSH.0, 0, MID_FLUSH.1);
        let ops2: Vec<Operation> = (BATCH..2 * BATCH).map(put).collect();
        let shard0_batch2: Vec<u64> = (BATCH..2 * BATCH)
            .filter(|&i| shard_for_key(&key(i), shards) == 0)
            .collect();
        assert!(
            !shard0_batch2.is_empty(),
            "shards={shards}: the crash scenario needs writes on shard 0"
        );
        let before = db.stats();
        let r2 = db.try_run_mission(&ops2);
        assert!(
            db.crashed(),
            "shards={shards}: the mid-flush crash never fired"
        );
        assert!(
            matches!(r2, Err(StoreError::Dead { shard: 0, .. })),
            "shards={shards}: the crashed shard's leg must fail the mission"
        );
        assert!(
            db.stats().delta(&before).wal_syncs <= shards as u64,
            "shards={shards}: mission 2 broke the ≤1-fsync-per-shard bound"
        );
        drop(db); // the crashed shard's unflushed tail dies here

        let mut rec = recovered_persistent(shards, &dur);
        // Mission 1 was acknowledged everywhere: always recovered.
        for i in 0..BATCH {
            assert_eq!(
                rec.get(&key(i)).as_deref(),
                Some(val(i).as_slice()),
                "shards={shards}: committed key {i} lost"
            );
        }
        // Mission 2 on the surviving shards: their overlapped legs
        // completed, the batch is durable.
        for i in BATCH..2 * BATCH {
            if shard_for_key(&key(i), shards) != 0 {
                assert_eq!(
                    rec.get(&key(i)).as_deref(),
                    Some(val(i).as_slice()),
                    "shards={shards}: sibling shard's committed key {i} lost \
                     mid-barrier — the crashed shard must not stop its siblings"
                );
            }
        }
        // Mission 2 on the crashed shard: a strict prefix of its lane, in
        // append order, with no holes.
        let recovered0: Vec<bool> = shard0_batch2
            .iter()
            .map(|&i| rec.get(&key(i)).is_some())
            .collect();
        let first_missing = recovered0
            .iter()
            .position(|&p| !p)
            .unwrap_or(recovered0.len());
        assert!(
            recovered0[first_missing..].iter().all(|&p| !p),
            "shards={shards}: torn batch recovered with holes: {recovered0:?}"
        );
        assert!(
            first_missing < recovered0.len(),
            "shards={shards}: a torn mid-flush sync must not persist the \
             crashed shard's full batch"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ----------------------------------------------------------------------
// 2. Recovery equivalence proptest
// ----------------------------------------------------------------------

/// One step of the random durable workload.
#[derive(Debug, Clone)]
enum DurOp {
    Put(u16, u8),
    Delete(u16),
}

fn dur_op() -> impl Strategy<Value = DurOp> {
    prop_oneof![
        5 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| DurOp::Put(k % 120, v)),
        1 => any::<u16>().prop_map(|k| DurOp::Delete(k % 120)),
    ]
}

fn apply(db: &mut RusKey, op: &DurOp) {
    match *op {
        DurOp::Put(k, v) => db.put(key(k as u64), vec![v; 8]),
        DurOp::Delete(k) => db.delete(key(k as u64)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random op sequences with a crash at a random buffer-loss point:
    /// the recovered store's get/scan results are bit-identical to a
    /// store that only executed the durable prefix (ops up to the last
    /// completed group-commit barrier).
    #[test]
    fn recovered_store_equals_durable_prefix(
        ops in prop::collection::vec(dur_op(), 1..150),
        shards in 1usize..4,
        commit_every in 4usize..20,
        pre_append in any::<bool>(),
        countdown in 0u64..12,
    ) {
        let dir = wal_dir("equiv");
        let dur = wal_suite_cfg(&dir);
        let mut db = persistent_store(shards, &dur);
        let point = if pre_append { PRE_APPEND } else { POST_APPEND };
        db.shard(0).faults().arm(point.0, countdown, point.1);

        // Drive the workload with a commit barrier every `commit_every`
        // ops; the durable prefix is everything up to the last barrier
        // that completed before the crash.
        let mut durable_prefix = 0usize;
        let mut executed = 0usize;
        for (i, op) in ops.iter().enumerate() {
            apply(&mut db, op);
            executed = i + 1;
            if db.crashed() {
                break;
            }
            if executed.is_multiple_of(commit_every) {
                db.group_commit();
                durable_prefix = executed;
            }
        }
        if !db.crashed() {
            db.group_commit();
            durable_prefix = executed;
        }
        drop(db);

        // Reference: a fresh (non-durable) store executing exactly the
        // durable prefix.
        let untuned = Box::new(ruskey_repro::ruskey::tuner::NoOpTuner);
        let disks = (0..shards).map(|_| disk()).collect();
        let mut reference =
            RusKey::open(big_buffer_cfg(), shards, untuned, Backend::Volatile(disks))
                .expect("open");
        for op in &ops[..durable_prefix] {
            apply(&mut reference, op);
        }

        let mut rec = recovered_persistent(shards, &dur);
        for k in 0u64..120 {
            prop_assert_eq!(
                rec.get(&key(k)),
                reference.get(&key(k)),
                "shards={} prefix={} key={}: get diverged",
                shards, durable_prefix, k
            );
        }
        let lo = key(0);
        let hi = key(120);
        prop_assert_eq!(
            rec.scan(&lo, &hi, usize::MAX),
            reference.scan(&lo, &hi, usize::MAX),
            "shards={} prefix={}: scan diverged",
            shards, durable_prefix
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ----------------------------------------------------------------------
// 3. WAL replay fuzz
// ----------------------------------------------------------------------

/// A corruption applied to a valid WAL image.
#[derive(Debug, Clone)]
enum Corruption {
    /// Flip one bit at (position % len).
    BitFlip(usize),
    /// Keep only the first (len % (size + 1)) bytes.
    Truncate(usize),
    /// Append arbitrary bytes past the valid tail.
    Garbage(Vec<u8>),
}

fn corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        3 => any::<usize>().prop_map(Corruption::BitFlip),
        3 => any::<usize>().prop_map(Corruption::Truncate),
        2 => prop::collection::vec(any::<u8>(), 1..64).prop_map(Corruption::Garbage),
    ]
}

/// The on-disk size of one record: `[len][crc]` header + body.
fn record_size(e: &KvEntry) -> usize {
    8 + 11 + e.key.len() + e.value.len()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Replay over corrupted WAL bytes never panics and yields exactly
    /// the longest valid prefix of the original records.
    #[test]
    fn replay_of_corrupted_wal_yields_the_valid_prefix(
        entries in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 0..20),
             prop::collection::vec(any::<u8>(), 0..30),
             any::<bool>()),
            0..30,
        ),
        corruption in corruption(),
    ) {
        let path = wal_dir("fuzz").with_extension("wal");
        let _ = std::fs::remove_file(&path);
        let originals: Vec<KvEntry> = entries
            .iter()
            .enumerate()
            .map(|(i, (k, v, is_put))| {
                if *is_put {
                    KvEntry::put(Bytes::from(k.clone()), Bytes::from(v.clone()), i as u64 + 1)
                } else {
                    KvEntry::delete(Bytes::from(k.clone()), i as u64 + 1)
                }
            })
            .collect();
        {
            let mut wal = Wal::open(&path).unwrap();
            for e in &originals {
                wal.append(e).unwrap();
            }
            wal.sync().unwrap();
        }
        let mut data = std::fs::read(&path).unwrap();

        // Record byte boundaries in the valid image, for computing which
        // records a corruption can reach.
        let ends: Vec<usize> = originals
            .iter()
            .scan(0usize, |off, e| {
                *off += record_size(e);
                Some(*off)
            })
            .collect();

        let expected: usize = match &corruption {
            Corruption::BitFlip(pos) if !data.is_empty() => {
                let pos = pos % data.len();
                data[pos] ^= 1 << (pos % 8);
                // Replay must stop at the record containing the flipped
                // byte; everything before it is untouched.
                ends.iter().position(|&end| pos < end).unwrap_or(ends.len())
            }
            Corruption::BitFlip(_) => 0,
            Corruption::Truncate(keep) => {
                let keep = keep % (data.len() + 1);
                data.truncate(keep);
                // Exactly the records fully contained in the kept bytes.
                ends.iter().filter(|&&end| end <= keep).count()
            }
            Corruption::Garbage(bytes) => {
                data.extend_from_slice(bytes);
                originals.len()
            }
        };
        std::fs::write(&path, &data).unwrap();

        let replayed = Wal::replay(&path).unwrap(); // must not panic
        prop_assert_eq!(
            replayed.len(),
            expected,
            "corruption {:?}: wrong prefix length",
            &corruption
        );
        for (r, o) in replayed.iter().zip(&originals) {
            prop_assert_eq!(r, o, "prefix record diverged");
        }
        let _ = std::fs::remove_file(&path);
    }
}

// ----------------------------------------------------------------------
// 4. Manifest crash points (full-store persistence)
// ----------------------------------------------------------------------

fn persist_root(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ruskey-crashrec-manifest-{tag}-{}-{n}",
        std::process::id()
    ))
}

fn persist_cfg(root: &PathBuf) -> PersistenceConfig {
    let mut p = PersistenceConfig::new(root);
    p.page_size = 512;
    p.cost = CostModel::FREE;
    p
}

/// Tears shard 0's manifest slot holding `generation` from outside: the
/// file is cut in the middle of its snapshot record, as a write that died
/// halfway would leave it. Generation `g` lives in slot `g mod 2`.
fn tear_slot(p: &PersistenceConfig, generation: u64) {
    let slot = &Manifest::slot_paths(&p.manifest_path(0))[(generation % 2) as usize];
    let mut bytes = std::fs::read(slot).unwrap();
    // The 17-byte header record, then the snapshot record's length.
    let len = u32::from_le_bytes(bytes[17..21].try_into().unwrap()) as usize;
    bytes.truncate(25 + len / 2);
    std::fs::write(slot, bytes).unwrap();
}

/// Entries held by every run a shard's manifest currently records.
fn manifest_entries(db: &RusKey, shard: usize) -> u64 {
    db.shard(shard)
        .manifest()
        .expect("persistent shard has a manifest")
        .state()
        .levels
        .iter()
        .flat_map(|l| l.sealed.iter().chain(l.active.iter()))
        .map(|r| r.entry_count)
        .sum()
}

/// At every manifest crash point and `N ∈ {1, 2}`, recovery takes the
/// newest valid snapshot, never references missing pages, and loses no
/// acknowledged write — a flush whose manifest commit died leaves its
/// records covered by the (never recycled) WAL instead.
///
/// The scenario isolates the manifest: phase 1 is flushed everywhere
/// (runs recorded durably), phase 2 is group-committed (WAL-acknowledged)
/// and then shard 0 *flushes* with a crash armed at the chosen point —
/// so the flush's data pages are written, and the crash decides whether
/// the new snapshot survives.
#[test]
fn manifest_crash_points_recover_the_longest_consistent_prefix() {
    const PHASE1: u64 = 40;
    const PHASE2: u64 = 40;
    for shards in [1usize, 2] {
        for point in [PRE_COMMIT, MID_COMMIT, POST_COMMIT] {
            let root = persist_root("matrix");
            let p = persist_cfg(&root);
            let mut db = persistent_store(shards, &p);

            // Phase 1: flushed on every shard — runs + manifest durable.
            for i in 0..PHASE1 {
                db.put(key(i), val(i));
            }
            db.group_commit();
            for s in 0..shards {
                db.shard_mut(s).flush();
            }
            let phase1_shard0 = manifest_entries(&db, 0);
            assert!(phase1_shard0 > 0, "phase 1 must land runs on shard 0");

            // Phase 2: acknowledged by the barrier, then shard 0 flushes
            // into the armed crash point.
            for i in PHASE1..PHASE1 + PHASE2 {
                db.put(key(i), val(i));
            }
            db.group_commit();
            let phase2_shard0 = (PHASE1..PHASE1 + PHASE2)
                .filter(|&i| shard_for_key(&key(i), shards) == 0)
                .count() as u64;
            db.shard(0).faults().arm(point.0, 0, point.1);
            db.shard_mut(0).flush();
            assert!(
                db.crashed(),
                "shards={shards} point={point:?}: the armed crash never fired"
            );
            drop(db); // process death: in-memory structures die

            let rec = recovered_persistent(shards, &p);
            // Write-time crashes roll shard 0's structure back to phase 1
            // (the flush's snapshot was lost, or its slot torn, and the
            // other slot holds phase 1); PostCommit keeps the merged
            // phase-1+2 run. Recovery
            // succeeding at all proves no missing pages were referenced —
            // every recorded run was rebuilt by reading its pages back.
            let expect_entries = match point {
                PRE_COMMIT | MID_COMMIT => phase1_shard0,
                _ => phase1_shard0 + phase2_shard0,
            };
            assert_eq!(
                manifest_entries(&rec, 0),
                expect_entries,
                "shards={shards} point={point:?}: wrong manifest prefix"
            );
            // No acknowledged write is lost at *any* point: the crashed
            // flush skipped the WAL recycling, so whatever the manifest
            // snapshot misses is still in the log (and a snapshot that did
            // commit tolerates the redundant WAL replay — same seq, same
            // values).
            let mut rec = rec;
            for i in 0..PHASE1 + PHASE2 {
                assert_eq!(
                    rec.get(&key(i)).as_deref(),
                    Some(val(i).as_slice()),
                    "shards={shards} point={point:?}: acknowledged key {i} lost"
                );
            }
            // And the recovered store still accepts writes + restarts.
            rec.put(key(9999), val(9999));
            rec.group_commit();
            drop(rec);
            let mut rec2 = recovered_persistent(shards, &p);
            assert_eq!(rec2.get(&key(9999)).as_deref(), Some(val(9999).as_slice()));
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

/// The manifest crash matrix holds inside a background merge. The store
/// runs with deferred maintenance, structural steps are taken one at a
/// time until a merge is due, and the crash is armed so it fires in that
/// merge step's manifest commit. At every crash point, recovery must
/// restore every acknowledged write: write-time crashes lose the snapshot
/// as a unit (the merge's inputs stay live in the manifest and the
/// untruncated WAL covers the rest), and the recovered store must keep
/// flushing, merging, and restarting.
#[test]
fn manifest_crash_points_inside_a_background_merge() {
    const KEYS: u64 = 400;
    let bg_cfg = || {
        let mut cfg = RusKeyConfig::scaled_default();
        cfg.lsm.buffer_bytes = 2048;
        cfg.lsm.size_ratio = 4;
        cfg.lsm.background_maintenance = true;
        cfg
    };
    for point in [PRE_COMMIT, MID_COMMIT, POST_COMMIT] {
        let root = persist_root("bgmerge");
        let p = persist_cfg(&root);
        let mut db = RusKey::open(
            bg_cfg(),
            1,
            Box::new(ruskey_repro::ruskey::tuner::NoOpTuner),
            Backend::Create(&p),
        )
        .expect("open persistent background store");

        for i in 0..KEYS {
            db.put(key(i), val(i));
        }
        db.group_commit();

        // Ad-hoc writes now interleave boundary maintenance on the shard
        // workers, draining debt as the load runs — so seal fresh L0
        // runs directly on the tree (same keys, same values) to leave a
        // merge due for the armed step.
        for chunk in 0..4u64 {
            let per = KEYS / 4;
            for i in chunk * per..(chunk + 1) * per {
                db.shard_mut(0).put(key(i), val(i));
            }
            db.shard_mut(0).flush();
        }

        // Step the deferred work until a merge is due. The flushes above
        // left the memtable empty and a step adds nothing to it, so the
        // next step is that merge.
        let mut due = false;
        for _ in 0..200 {
            if db.shard(0).stats().pending_compaction_bytes > 0 {
                due = true;
                break;
            }
            if !db.shard_mut(0).step_maintenance() {
                break;
            }
        }
        assert!(due, "point={point:?}: the load must leave a merge due");

        // The merge step's manifest commit dies at the chosen point.
        let before = db.shard(0).stats();
        db.shard(0).faults().arm(point.0, 0, point.1);
        assert!(db.shard_mut(0).step_maintenance(), "point={point:?}");
        let after = db.shard(0).stats();
        assert_eq!(
            (after.flushes, after.bg_compactions),
            (before.flushes, before.bg_compactions + 1),
            "point={point:?}: the step must be the merge"
        );
        assert!(db.crashed(), "point={point:?}: the armed crash never fired");
        drop(db);

        let mut rec = RusKey::open(
            bg_cfg(),
            1,
            Box::new(ruskey_repro::ruskey::tuner::NoOpTuner),
            Backend::Recover(&p),
        )
        .expect("recover persistent background store");
        for i in 0..KEYS {
            assert_eq!(
                rec.get(&key(i)).as_deref(),
                Some(val(i).as_slice()),
                "point={point:?}: acknowledged key {i} lost inside a merge"
            );
        }
        // The recovered store keeps operating: writes, deferred
        // maintenance to quiescence, and another restart.
        rec.put(key(9999), val(9999));
        rec.group_commit();
        while rec.shard_mut(0).step_maintenance() {}
        assert_eq!(rec.get(&key(9999)).as_deref(), Some(val(9999).as_slice()));
        drop(rec);
        let mut rec2 = RusKey::open(
            bg_cfg(),
            1,
            Box::new(ruskey_repro::ruskey::tuner::NoOpTuner),
            Backend::Recover(&p),
        )
        .expect("second recovery");
        assert_eq!(
            rec2.get(&key(9999)).as_deref(),
            Some(val(9999).as_slice()),
            "point={point:?}: post-recovery write lost across restart"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A torn write of the newer manifest slot recovers the previous
/// generation from the other slot and loses no acknowledged write: torn
/// by the `MidCommit` crash point, and torn from outside after a
/// `PostCommit` death (the snapshot was durable, the process died before
/// recycling the WAL). Either way the flush never recycled the WAL, and
/// the next commit overwrites the torn slot.
#[test]
fn a_torn_newer_slot_recovers_the_previous_generation() {
    for point in [MID_COMMIT, POST_COMMIT] {
        let root = persist_root("torn-slot");
        let p = persist_cfg(&root);
        let mut db = persistent_store(1, &p);
        for i in 0..30u64 {
            db.put(key(i), val(i));
        }
        db.group_commit();
        db.shard_mut(0).flush();
        let previous = db.shard(0).manifest().unwrap().generation();
        for i in 30..60u64 {
            db.put(key(i), val(i));
        }
        db.group_commit();
        db.shard(0).faults().arm(point.0, 0, point.1);
        db.shard_mut(0).flush();
        assert!(db.crashed(), "{point:?}: the armed crash never fired");
        drop(db);
        if point == POST_COMMIT {
            tear_slot(&p, previous + 1);
        }

        let mut rec = recovered_persistent(1, &p);
        let manifest = rec.shard(0).manifest().unwrap();
        assert_eq!(manifest.generation(), previous, "{point:?}");
        assert_eq!(manifest_entries(&rec, 0), 30, "{point:?}");
        for i in 0..60u64 {
            assert_eq!(
                rec.get(&key(i)).as_deref(),
                Some(val(i).as_slice()),
                "{point:?}: acknowledged key {i} lost across the torn slot"
            );
        }
        rec.shard_mut(0).flush();
        drop(rec);
        let rec = recovered_persistent(1, &p);
        let manifest = rec.shard(0).manifest().unwrap();
        assert_eq!(manifest.generation(), previous + 1, "{point:?}");
        assert_eq!(manifest_entries(&rec, 0), 60, "{point:?}");
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// An externally torn manifest slot (cut off in the middle of its
/// snapshot, not a crash-point simulation) still recovers: the newer
/// snapshot vanishes as a unit and the store rolls back to the previous
/// generation, with the WAL tail covering everything after the flush.
#[test]
fn externally_torn_manifest_tail_recovers_the_previous_flush() {
    let root = persist_root("torn");
    let p = persist_cfg(&root);
    {
        let mut db = persistent_store(1, &p);
        for i in 0..25u64 {
            db.put(key(i), val(i));
        }
        db.group_commit();
        db.shard_mut(0).flush();
        // Unflushed tail, synced by the barrier: lives in the WAL only.
        for i in 25..35u64 {
            db.put(key(i), val(i));
        }
        db.group_commit();
    }
    // The flush committed generation 1; tear its slot.
    tear_slot(&p, 1);

    let mut rec = recovered_persistent(1, &p);
    assert_eq!(
        manifest_entries(&rec, 0),
        0,
        "the torn flush snapshot must vanish as a unit"
    );
    // The flush recycled the WAL, so the flushed prefix is the torn
    // slot's loss — but the post-flush tail survives in the log.
    for i in 25..35u64 {
        assert_eq!(
            rec.get(&key(i)).as_deref(),
            Some(val(i).as_slice()),
            "WAL-tail key {i} lost"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

// ----------------------------------------------------------------------
// 5. Torn power cuts (storage fsync barriers)
// ----------------------------------------------------------------------

/// Acceptance (ISSUE 8 tentpole): the torn-power matrix. A power cut at
/// either storage barrier — before the extent fsync (torn data file) or
/// before the directory fsync (the extent's name vanishes wholesale) —
/// aborts the flush's manifest commit and keeps the WAL, so recovery
/// yields exactly the acknowledged prefix at `N ∈ {1, 2}`. The extent a
/// pre-commit cut orphaned is swept by recovery, and the recovered store
/// keeps serving, flushing, and restarting.
#[test]
fn torn_power_matrix_recovers_exactly_the_acknowledged_prefix() {
    const PHASE1: u64 = 40;
    const PHASE2: u64 = 40;
    for shards in [1usize, 2] {
        for point in [Site::ExtentSync, Site::DirSync] {
            let root = persist_root("power");
            let p = persist_cfg(&root);
            let mut db = persistent_store(shards, &p);

            // Phase 1: flushed on every shard — runs durable through the
            // full three-step contract (extent fsync, dir fsync, commit).
            for i in 0..PHASE1 {
                db.put(key(i), val(i));
            }
            db.group_commit();
            for s in 0..shards {
                db.shard_mut(s).flush();
            }
            let phase1_shard0 = manifest_entries(&db, 0);
            assert!(phase1_shard0 > 0, "phase 1 must land runs on shard 0");
            let s0 = db.shard(0).stats();
            assert!(
                s0.extent_syncs >= 1 && s0.dir_syncs >= 1,
                "phase 1 flush must exercise both fsync barriers \
                 (extent_syncs={}, dir_syncs={})",
                s0.extent_syncs,
                s0.dir_syncs
            );

            // Phase 2: acknowledged by the barrier, then shard 0 flushes
            // into the armed power cut.
            for i in PHASE1..PHASE1 + PHASE2 {
                db.put(key(i), val(i));
            }
            db.group_commit();
            db.shard(0).faults().arm(point, 0, Fault::PowerCut);
            db.shard_mut(0).flush();
            assert!(
                db.shard(0).faults().is_dead(),
                "shards={shards} point={point:?}: the armed cut never fired"
            );
            assert!(db.crashed(), "a power-failed shard must crash the store");
            drop(db); // power loss: in-memory structures die

            let rec = recovered_persistent(shards, &p);
            // The flush's batch never committed, so shard 0's structure
            // rolls back to phase 1 — and recovery rebuilding every
            // recorded run proves the rollback references no torn or
            // unlinked pages.
            assert_eq!(
                manifest_entries(&rec, 0),
                phase1_shard0,
                "shards={shards} point={point:?}: wrong manifest prefix"
            );
            // ExtentUnsynced leaves the torn extent file on disk for the
            // sweep; DirUnsynced unlinked it at the cut, so there is
            // nothing left to collect.
            let orphans = rec.shard(0).stats().orphans_collected;
            match point {
                Site::ExtentSync => assert!(
                    orphans >= 1,
                    "shards={shards}: the torn extent must be swept (got {orphans})"
                ),
                _ => assert_eq!(
                    orphans, 0,
                    "shards={shards}: the unlinked extent cannot reappear"
                ),
            }
            // No acknowledged write is lost: the cut aborted the WAL
            // truncation, so the dead flush's records replay from the log.
            let mut rec = rec;
            for i in 0..PHASE1 + PHASE2 {
                assert_eq!(
                    rec.get(&key(i)).as_deref(),
                    Some(val(i).as_slice()),
                    "shards={shards} point={point:?}: acknowledged key {i} lost"
                );
            }
            // Safe id reuse: the recovered store flushes fresh extents
            // (ids re-issued above the swept range) and restarts clean.
            rec.put(key(9999), val(9999));
            rec.group_commit();
            rec.shard_mut(0).flush();
            assert!(!rec.crashed(), "the recovered store must flush cleanly");
            drop(rec);
            let mut rec2 = recovered_persistent(shards, &p);
            assert_eq!(rec2.get(&key(9999)).as_deref(), Some(val(9999).as_slice()));
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

/// The fsync a recycled WAL no longer pays: a flush zero-fills the log's
/// finished generation in place without syncing it, so a power cut can
/// bring those bytes back. The test undoes the zero-fill by hand, at
/// `N ∈ {1, 2}`, with every record the same size so the generations'
/// record boundaries line up (the worst case):
///
/// * generation A is acknowledged by a barrier and flushed (its bytes on
///   disk, the zero-fill lost);
/// * generation B overwrites every key and is acknowledged by its own
///   flush, so A's records must not shadow it;
/// * in the second variant, unacknowledged records of a generation C
///   reached the file over A's first records: recovery keeps them and
///   skips the stale records behind them.
///
/// Recovery must equal that state key by key and in a full scan. The
/// process-crash variant (the zero-fill visible, as a live page cache
/// keeps it): a torn first write after a recycle replays a strict prefix
/// of the new generation and nothing of the old one.
#[test]
fn power_cut_before_a_recycled_logs_zero_fill_loses_nothing() {
    const KEYS: u64 = 40;
    const UNACKED: u64 = 10;
    let v = |generation: char, i: u64| format!("{generation}-{i:06}").into_bytes();
    let read_logs = |p: &PersistenceConfig, shards: usize| -> Vec<Vec<u8>> {
        (0..shards)
            .map(|s| std::fs::read(p.wal_path(s)).unwrap())
            .collect()
    };
    for shards in [1usize, 2] {
        for unacked_on_top in [false, true] {
            let root = persist_root("recycled");
            let p = persist_cfg(&root);
            let mut db = persistent_store(shards, &p);
            for i in 0..KEYS {
                db.put(key(i), v('a', i));
            }
            db.group_commit();
            let generation_a = read_logs(&p, shards);
            for s in 0..shards {
                db.shard_mut(s).flush();
            }
            for i in 0..KEYS {
                db.put(key(i), v('b', i));
            }
            for s in 0..shards {
                db.shard_mut(s).flush();
            }
            let mut expect: std::collections::BTreeMap<Bytes, Vec<u8>> =
                (0..KEYS).map(|i| (key(i), v('b', i))).collect();
            if unacked_on_top {
                for i in 0..UNACKED {
                    db.put(key(i), v('c', i));
                    expect.insert(key(i), v('c', i));
                }
                for s in 0..shards {
                    db.shard_mut(s).wal_mut().unwrap().flush().unwrap();
                }
            }
            assert!(!db.crashed());
            let live = read_logs(&p, shards);
            drop(db);

            // The cut: each log holds generation A's bytes, with whatever
            // generation C wrote on top of its front. Boundaries line up,
            // so C's records replace A's one for one and the rest of A
            // replays behind them.
            for s in 0..shards {
                let c_records = Wal::replay(p.wal_path(s)).unwrap();
                let c_len: usize = c_records.iter().map(record_size).sum();
                let mut image = generation_a[s].clone();
                image[..c_len].copy_from_slice(&live[s][..c_len]);
                std::fs::write(p.wal_path(s), &image).unwrap();
                let replayed = Wal::replay(p.wal_path(s)).unwrap();
                let a_count = (0..KEYS)
                    .filter(|&i| shard_for_key(&key(i), shards) == s)
                    .count();
                assert_eq!(replayed.len(), a_count, "shards={shards}");
                assert_eq!(replayed[..c_records.len()], c_records);
                assert!(
                    replayed[c_records.len()..]
                        .iter()
                        .all(|r| r.value.starts_with(b"a-")),
                    "shards={shards}: the image must replay stale generation-A records"
                );
            }

            let mut rec = recovered_persistent(shards, &p);
            for (k, want) in &expect {
                assert_eq!(
                    rec.get(k).as_deref(),
                    Some(want.as_slice()),
                    "shards={shards} unacked_on_top={unacked_on_top}: a stale record won"
                );
            }
            let want: Vec<(Bytes, Bytes)> = expect
                .into_iter()
                .map(|(k, v)| (k, Bytes::from(v)))
                .collect();
            assert_eq!(rec.scan(&key(0), &key(KEYS), 1_000), want);
            let _ = std::fs::remove_dir_all(&root);
        }

        // Process crash: the torn first write of generation C.
        let root = persist_root("recycled-midflush");
        let p = persist_cfg(&root);
        let mut db = persistent_store(shards, &p);
        for i in 0..KEYS {
            db.put(key(i), v('a', i));
        }
        db.group_commit();
        for s in 0..shards {
            db.shard_mut(s).flush();
        }
        db.shard(0).faults().arm(MID_FLUSH.0, 0, MID_FLUSH.1);
        let mut shard0 = Vec::new();
        for i in 0..KEYS {
            db.put(key(i), v('c', i));
            if shard_for_key(&key(i), shards) == 0 {
                shard0.push(i);
            }
        }
        assert!(db.try_group_commit().is_err());
        assert!(db.crashed(), "shards={shards}: the torn flush never fired");
        drop(db);
        let replayed = Wal::replay(p.wal_path(0)).unwrap();
        assert!(
            replayed.len() < shard0.len(),
            "shards={shards}: a torn write must not persist the whole batch"
        );
        for (r, &i) in replayed.iter().zip(&shard0) {
            assert_eq!((&r.key, r.value.as_ref()), (&key(i), v('c', i).as_slice()));
        }
        let mut rec = recovered_persistent(shards, &p);
        for i in 0..KEYS {
            let torn_away =
                shard_for_key(&key(i), shards) == 0 && !replayed.iter().any(|r| r.key == key(i));
            let want = v(if torn_away { 'a' } else { 'c' }, i);
            assert_eq!(
                rec.get(&key(i)).as_deref(),
                Some(want.as_slice()),
                "shards={shards}: key {i} after a torn first write"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Ids of the extent files in shard 0's data directory, with each file's
/// length in bytes.
fn extent_files(p: &PersistenceConfig) -> Vec<(u64, u64)> {
    std::fs::read_dir(p.data_dir(0))
        .unwrap()
        .filter_map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            let id = name.strip_prefix("extent-")?.strip_suffix(".run")?;
            // A file the I/O worker unlinks after the listing is skipped.
            Some((id.parse().unwrap(), e.metadata().ok()?.len()))
        })
        .collect()
}

/// A one-shard store whose 2 KiB buffer flushes about every fifty puts
/// and whose inline merges cascade.
fn churning_store(backend: Backend<'_>) -> RusKey {
    churning_shards(1, backend)
}

/// [`churning_store`] over `shards` shards.
fn churning_shards(shards: usize, backend: Backend<'_>) -> RusKey {
    let mut cfg = RusKeyConfig::scaled_default();
    cfg.lsm.buffer_bytes = 2048;
    cfg.lsm.size_ratio = 3;
    RusKey::open(
        cfg,
        shards,
        Box::new(ruskey_repro::ruskey::tuner::NoOpTuner),
        backend,
    )
    .expect("open churning store")
}

/// The torn-power matrix on recycled extent files: a power cut before the
/// n-th extent fsync, for every n a churning store reaches, tears the file
/// being written — at about half of those n a file the store freed and
/// now overwrites from slot 0, inside a flush or a merge cascade. Recovery
/// yields exactly the acknowledged prefix every time: every put a
/// barrier acknowledged, and of the rest a prefix in put order. This pins
/// the free rule recycling leans on: a file is reserved only after the
/// commit that dropped it is durable, so the torn file is always an
/// orphan, never a run the recovered manifest names.
#[test]
fn a_power_cut_overwriting_a_recycled_extent_recovers_the_acknowledged_prefix() {
    const KEYS: u64 = 1200;
    const BATCH: u64 = 20;
    let (mut cuts, mut recycled_cuts) = (0, 0);
    for n in 0.. {
        let root = persist_root("recycled-cut");
        let p = persist_cfg(&root);
        let slot = p.page_size as u64 + 4;
        let mut db = churning_store(Backend::Create(&p));
        db.shard(0)
            .faults()
            .arm(Site::ExtentSync, n, Fault::PowerCut);
        let (mut seen, mut acked, mut written) = (Vec::new(), 0, 0);
        'load: for batch in 0..KEYS / BATCH {
            for i in batch * BATCH..(batch + 1) * BATCH {
                seen.extend(extent_files(&p).into_iter().map(|(id, _)| id));
                db.put(key(i), val(i));
                written = i + 1;
                if db.crashed() {
                    break 'load;
                }
            }
            db.group_commit();
            if db.crashed() {
                break;
            }
            acked = written;
        }
        if !db.crashed() {
            assert!(n > 10, "the matrix must reach past the first syncs");
            let _ = std::fs::remove_dir_all(&root);
            break;
        }
        drop(db);
        cuts += 1;
        let torn: Vec<u64> = extent_files(&p)
            .into_iter()
            .filter(|&(_, len)| len % slot != 0)
            .map(|(id, _)| id)
            .collect();
        assert_eq!(torn.len(), 1, "n={n}: one file is torn");
        if seen.contains(&torn[0]) {
            recycled_cuts += 1;
        }

        let mut rec = churning_store(Backend::Recover(&p));
        assert!(rec.shard(0).stats().orphans_collected >= 1, "n={n}");
        for i in 0..acked {
            assert_eq!(
                rec.get(&key(i)).as_deref(),
                Some(val(i).as_slice()),
                "n={n}: acknowledged key {i} lost"
            );
        }
        let rows = rec.scan(&key(0), &key(KEYS), usize::MAX);
        let prefix: Vec<(Bytes, Bytes)> = (0..rows.len() as u64)
            .map(|i| (key(i), Bytes::from(val(i))))
            .collect();
        assert_eq!(rows, prefix, "n={n}: the recovered rows are not a prefix");
        assert!(rows.len() as u64 <= written, "n={n}: rows never written");
        drop(rec);
        let _ = std::fs::remove_dir_all(&root);
    }
    assert!(
        recycled_cuts >= 3 && recycled_cuts < cuts,
        "{recycled_cuts} of {cuts} cuts tore a recycled file"
    );
}

/// A manifest slot torn from outside after a recycle: recovery falls back
/// to a generation naming an extent whose file now holds another run. The
/// open must fail typed and serve nothing — never the new occupant's rows
/// in place of the run the record describes.
///
/// Generation 1 names run A in file E; generation 2 replaces A with B in a
/// new file and reserves E; the next flush overwrites E with run C (every
/// key of A, rewritten) and dies before its commit. Tearing generation 2's
/// slot leaves generation 1, whose record of E disagrees with C's pages.
#[test]
fn a_fallback_onto_a_recycled_extent_fails_typed() {
    let root = persist_root("recycled-fallback");
    let p = persist_cfg(&root);
    let mut db = persistent_store(1, &p);
    let flush = |db: &mut RusKey, keys: std::ops::Range<u64>, tag: &str| {
        for i in keys {
            db.put(key(i), format!("{tag}-{i:06}").into_bytes());
        }
        db.group_commit();
        db.shard_mut(0).flush();
    };
    flush(&mut db, 0..30, "a");
    let first = db.shard(0).manifest().unwrap().generation();
    let e = extent_files(&p);
    assert_eq!(e.len(), 1);
    flush(&mut db, 30..60, "b");
    assert!(!db.crashed());
    assert_eq!(
        extent_files(&p).len(),
        2,
        "the superseded file waits in the reserve"
    );
    db.shard(0).faults().arm(PRE_COMMIT.0, 0, PRE_COMMIT.1);
    flush(&mut db, 0..30, "c");
    assert!(db.crashed(), "the armed crash never fired");
    drop(db);
    let overwritten = extent_files(&p);
    assert!(
        overwritten
            .iter()
            .any(|&(id, len)| id == e[0].0 && len > e[0].1),
        "the next flush must overwrite the reserved file: {e:?} then {overwritten:?}"
    );
    tear_slot(&p, first + 1);

    let err = match RusKey::open(
        big_buffer_cfg(),
        1,
        Box::new(ruskey_repro::ruskey::tuner::NoOpTuner),
        Backend::Recover(&p),
    ) {
        Ok(_) => panic!("a fallback onto an overwritten extent must not open"),
        Err(e) => e,
    };
    assert!(
        err.to_string()
            .contains("pages disagree with the manifest record"),
        "the error must name the disagreement, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Acceptance (ISSUE 8): recovery sweeps extent files that no manifest
/// references — planted here as a stray file simulating an extent whose
/// creating flush died before its commit — and re-issues ids safely
/// afterwards: a second incarnation must not collide with anything the
/// sweep removed.
#[test]
fn orphaned_extent_files_are_collected_and_their_ids_safely_reused() {
    let root = persist_root("orphan");
    let p = persist_cfg(&root);
    {
        let mut db = persistent_store(1, &p);
        for i in 0..30u64 {
            db.put(key(i), val(i));
        }
        db.group_commit();
        db.shard_mut(0).flush();
    }
    // Plant a stray extent file far above the live id range: the debris
    // of a crashed pre-commit flush.
    let stray = p.data_dir(0).join("extent-00000099.run");
    std::fs::write(&stray, b"torn page debris").unwrap();

    let mut rec = recovered_persistent(1, &p);
    assert_eq!(
        rec.shard(0).stats().orphans_collected,
        1,
        "the planted orphan must be swept"
    );
    assert!(!stray.exists(), "the stray file must be removed from disk");
    for i in 0..30u64 {
        assert_eq!(
            rec.get(&key(i)).as_deref(),
            Some(val(i).as_slice()),
            "live key {i} lost to the sweep"
        );
    }
    // Safe reuse: new flushes allocate ids above the retained maximum —
    // not above the swept stray — and the store restarts clean on them.
    for i in 30..60u64 {
        rec.put(key(i), val(i));
    }
    rec.group_commit();
    rec.shard_mut(0).flush();
    drop(rec);
    let mut rec2 = recovered_persistent(1, &p);
    assert_eq!(
        rec2.shard(0).stats().orphans_collected,
        0,
        "nothing left to sweep"
    );
    for i in 0..60u64 {
        assert_eq!(
            rec2.get(&key(i)).as_deref(),
            Some(val(i).as_slice()),
            "key {i} lost after id reuse"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Acceptance (ISSUE 8): a *missing* extent that the manifest does
/// reference — deleted out from under a healthy store — surfaces as a
/// typed recovery error, never a panic. (An unreferenced missing file is
/// the orphan sweep's business; a referenced one is data loss recovery
/// must report.)
#[test]
fn missing_referenced_extent_is_a_typed_recovery_error_not_a_panic() {
    let root = persist_root("missing");
    let p = persist_cfg(&root);
    {
        let mut db = persistent_store(1, &p);
        for i in 0..30u64 {
            db.put(key(i), val(i));
        }
        db.group_commit();
        db.shard_mut(0).flush();
    }
    // Delete every live extent file: the manifest still records the runs.
    let mut removed = 0usize;
    for entry in std::fs::read_dir(p.data_dir(0)).unwrap() {
        let path = entry.unwrap().path();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("extent-"))
        {
            std::fs::remove_file(&path).unwrap();
            removed += 1;
        }
    }
    assert!(removed > 0, "the flush must have persisted extent files");

    let err = match RusKey::open(
        big_buffer_cfg(),
        1,
        Box::new(ruskey_repro::ruskey::tuner::NoOpTuner),
        Backend::Recover(&p),
    ) {
        Ok(_) => panic!("recovery over missing referenced extents must fail"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("missing"),
        "the error must name the missing extent, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

// ----------------------------------------------------------------------
// 6. Failed calls
// ----------------------------------------------------------------------

/// Puts keys `0..keys` in batches of twenty until a barrier fails: the
/// keys acknowledged (by a barrier that returned `Ok`) and the keys
/// written, both as counts from key 0. It never asks the store whether it
/// died — a put issued after the death must still fail its barrier.
fn load_until_crash(db: &mut RusKey, keys: u64) -> (u64, u64) {
    let mut acked = 0;
    while acked < keys {
        for i in acked..acked + 20 {
            db.put(key(i), val(i));
        }
        if db.try_group_commit().is_err() {
            return (acked, acked + 20);
        }
        acked += 20;
    }
    (acked, acked)
}

/// Recovery yields the acknowledged prefix: every acknowledged key, only
/// rows that were written, and on one shard a prefix of the puts in order
/// (across shards a sibling's flush may keep rows the dead shard lost).
fn assert_acknowledged_prefix(
    rec: &mut RusKey,
    shards: usize,
    (acked, written): (u64, u64),
    what: &str,
) {
    for i in 0..acked {
        assert_eq!(
            rec.get(&key(i)).as_deref(),
            Some(val(i).as_slice()),
            "{what}: acknowledged key {i} lost"
        );
    }
    let rows = rec.scan(&key(0), &key(written.max(1)), usize::MAX);
    let count = rows.len() as u64;
    let written_rows: std::collections::BTreeMap<Bytes, Bytes> = (0..written)
        .map(|i| (key(i), Bytes::from(val(i))))
        .collect();
    assert!(
        rows.iter().all(|(k, v)| written_rows.get(k) == Some(v)),
        "{what}: a recovered row was never written"
    );
    if shards == 1 {
        let prefix: Vec<(Bytes, Bytes)> =
            (0..count).map(|i| (key(i), Bytes::from(val(i)))).collect();
        assert_eq!(rows, prefix, "{what}: the recovered rows are not a prefix");
    }
}

/// ENOSPC on an extent write or an extent creation is never a panic: the
/// failed call kills the shard's fault plan, so the device is dead, the
/// next extent barrier fails, the shard power-fails and the store reports
/// `crashed()`. Recovery yields the acknowledged prefix, at `N ∈ {1, 2}`,
/// when the first or the second such call fails.
#[test]
fn enospc_on_an_extent_write_or_create_recovers_the_acknowledged_prefix() {
    const KEYS: u64 = 600;
    let enospc = Fault::Error(std::io::ErrorKind::StorageFull);
    for shards in [1usize, 2] {
        for site in [Site::ExtentWrite, Site::ExtentCreate] {
            for after in [0u64, 1] {
                let what = format!("shards={shards} {site:?} after={after}");
                let root = persist_root("enospc");
                let p = persist_cfg(&root);
                let mut db = churning_shards(shards, Backend::Create(&p));
                db.shard(0).faults().arm(site, after, enospc);
                let loaded = load_until_crash(&mut db, KEYS);
                assert!(db.crashed(), "{what}: the armed error never fired");
                assert!(
                    db.shard(0).faults().is_dead(),
                    "{what}: the barrier must fail"
                );
                drop(db);
                let mut rec = churning_shards(shards, Backend::Recover(&p));
                assert_acknowledged_prefix(&mut rec, shards, loaded, &what);
                let _ = std::fs::remove_dir_all(&root);
            }
        }
    }
}

/// A put issued after ENOSPC killed the shard is never acknowledged: the
/// flush's extent write fails, the put after it is buffered by no live
/// log, and the barrier that follows fails typed instead of answering
/// `Ok` for a write recovery cannot return.
#[test]
fn a_barrier_after_a_failed_extent_write_fails_typed() {
    let root = persist_root("enospc-barrier");
    let p = persist_cfg(&root);
    let mut db = churning_store(Backend::Create(&p));
    let enospc = Fault::Error(std::io::ErrorKind::StorageFull);
    db.shard(0).faults().arm(Site::ExtentWrite, 0, enospc);
    let mut written = 0;
    while !db.crashed() {
        assert!(written < 200, "no flush wrote an extent");
        db.put(key(written), val(written));
        written += 1;
    }
    db.put(key(written), val(written));
    let committed = db.try_group_commit();
    assert!(
        matches!(committed, Err(StoreError::Dead { shard: 0, .. })),
        "a barrier after the death answered {committed:?}"
    );
    assert!(
        db.try_group_commit().is_err(),
        "every later barrier fails too"
    );
    drop(db);
    let mut rec = churning_store(Backend::Recover(&p));
    assert_eq!(rec.get(&key(written)), None, "the put after the death");
    let _ = std::fs::remove_dir_all(&root);
}

/// A WAL fsync that fails power-fails its shard: the kernel may have
/// dropped the dirty pages it could not write, so no later fsync may
/// acknowledge the records they held. See [`a_failed_wal_call_fails_every_later_barrier`].
#[test]
fn a_failed_wal_fsync_fails_every_later_barrier() {
    a_failed_wal_call_fails_every_later_barrier(Site::WalSync, "fsync");
}

/// A WAL write that fails power-fails its shard, as a failed fsync does:
/// part of the buffer may be on the disk, so no later write may go down
/// behind it. See [`a_failed_wal_call_fails_every_later_barrier`].
#[test]
fn a_failed_wal_write_fails_every_later_barrier() {
    a_failed_wal_call_fails_every_later_barrier(Site::WalWrite, "write");
}

/// With an error armed at `site`, a WAL call of the barrier's commit leg
/// fails: the barrier fails typed, so does the one after a later put, the
/// store reads as crashed, and recovery returns every write acknowledged
/// before the failure — on `N = 2` the sibling's batch too, which the
/// failed barrier still committed.
fn a_failed_wal_call_fails_every_later_barrier(site: Site, what: &str) {
    for shards in [1, 2] {
        let root = persist_root(&format!("{what}-fail-{shards}"));
        let p = persist_cfg(&root);
        let mut db = persistent_store(shards, &p);
        (0..20).for_each(|i| db.put(key(i), val(i)));
        db.group_commit();
        (20..40).for_each(|i| db.put(key(i), val(i)));
        let failure = Fault::Error(std::io::ErrorKind::Other);
        db.shard(0).faults().arm(site, 0, failure);
        let failed = db.try_group_commit();
        assert!(
            matches!(failed, Err(StoreError::Dead { shard: 0, .. })),
            "N={shards}: the failed {what}'s barrier answered {failed:?}"
        );
        let late = (40..)
            .find(|&i| shard_for_key(&key(i), shards) == 0)
            .unwrap();
        db.put(key(late), val(late));
        let later = db.try_group_commit();
        assert!(
            matches!(later, Err(StoreError::Dead { shard: 0, .. })),
            "N={shards}: a barrier after the failed {what} answered {later:?}"
        );
        assert!(db.crashed(), "N={shards}: the failed {what} power-fails");
        drop(db);
        let mut rec = recovered_persistent(shards, &p);
        for i in 0..40 {
            if i < 20 || shard_for_key(&key(i), shards) != 0 {
                assert_eq!(
                    rec.get(&key(i)).as_deref(),
                    Some(val(i).as_slice()),
                    "N={shards}: acknowledged key {i} lost"
                );
            }
        }
        drop(rec);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A mission on a shard that died inside a flush fails typed instead of
/// running its lane: with no block cache, the gets would read the run the
/// dying flush installed, whose extent file was never created. The
/// ad-hoc door refuses that tree too: a get or a scan panics naming the
/// shard before reading it, and a put is dropped unapplied. The
/// sibling's lane still runs and commits, and on `N = 2` recovery returns
/// its puts.
#[test]
fn a_mission_after_a_crash_inside_a_flush_fails_typed() {
    for shards in [1usize, 2] {
        let root = persist_root(&format!("flush-crash-mission-{shards}"));
        let mut p = persist_cfg(&root);
        p.cache_pages = 0;
        let mut db = churning_shards(shards, Backend::Create(&p));
        db.shard(0)
            .faults()
            .arm(Site::ExtentCreate, 0, Fault::Crash);
        let mut written = 0;
        while !db.crashed() {
            assert!(written < 400, "N={shards}: no flush created an extent");
            db.put(key(written), val(written));
            written += 1;
        }
        let dead_key = (0..written)
            .map(key)
            .find(|k| shard_for_key(k, shards) == 0)
            .expect("shard 0 took writes");
        let get = catch_unwind(AssertUnwindSafe(|| db.get(&dead_key))).err();
        let scan = catch_unwind(AssertUnwindSafe(|| db.scan(&key(0), &key(written), 10))).err();
        for (door, refused) in [("get", get), ("scan", scan)] {
            let payload = refused.unwrap_or_else(|| panic!("N={shards}: the {door} read it"));
            let said = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                said.contains("shard 0 is dead"),
                "N={shards}: the ad-hoc {door} panicked with {said:?}"
            );
        }
        let updates = db.shard(0).stats().updates;
        db.put(dead_key, val(0));
        assert_eq!(
            db.shard(0).stats().updates,
            updates,
            "N={shards}: an ad-hoc put reached the dead tree"
        );
        let gets = (0..written).map(|i| Operation::Get { key: key(i) });
        let sibling: Vec<u64> = (written..written + 200)
            .filter(|&i| shard_for_key(&key(i), shards) != 0)
            .collect();
        let puts = sibling.iter().map(|&i| Operation::Put {
            key: key(i),
            value: Bytes::from(val(i)),
        });
        let mission: Vec<Operation> = gets.chain(puts).collect();
        let failed = db.try_run_mission(&mission);
        assert!(
            matches!(failed, Err(StoreError::Dead { shard: 0, .. })),
            "N={shards}: a mission on the dead shard answered {:?}",
            failed.map(|r| r.ops)
        );
        drop(db);
        let mut rec = churning_shards(shards, Backend::Recover(&p));
        for &i in &sibling {
            assert_eq!(
                rec.get(&key(i)).as_deref(),
                Some(val(i).as_slice()),
                "N={shards}: the sibling's committed put {i} lost"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A WAL recycle that fails part-way — the generation spans two 64 KiB
/// zero-fill writes and the second fails — power-fails the shard instead
/// of leaving a half-zeroed log to append behind. The committed flush
/// already holds every record, so recovery loses no acknowledged write.
#[test]
fn a_failed_wal_recycle_power_fails_and_loses_nothing() {
    const ZERO_FILL_WRITE: usize = 1 << 16;
    let root = persist_root("recycle-fail");
    let p = persist_cfg(&root);
    let mut db = persistent_store(1, &p);
    let big = |i: u64| vec![i as u8; 200];
    for i in 0..400u64 {
        db.put(key(i), big(i));
    }
    db.group_commit();
    let generation = std::fs::metadata(p.wal_path(0)).unwrap().len() as usize;
    assert!(
        generation > ZERO_FILL_WRITE,
        "{generation} bytes: one zero-fill write"
    );
    let other = Fault::Error(std::io::ErrorKind::Other);
    db.shard(0).faults().arm(Site::WalRecycle, 1, other);
    db.shard_mut(0).flush();
    assert!(
        db.shard(0).faults().is_dead(),
        "a failed recycle must power-fail the shard"
    );
    assert!(db.crashed());
    drop(db);
    let log = std::fs::read(p.wal_path(0)).unwrap();
    assert!(
        log[..ZERO_FILL_WRITE].iter().all(|&b| b == 0)
            && log[ZERO_FILL_WRITE..].iter().any(|&b| b != 0),
        "only the first zero-fill write landed"
    );

    let mut rec = recovered_persistent(1, &p);
    for i in 0..400u64 {
        assert_eq!(
            rec.get(&key(i)).as_deref(),
            Some(big(i).as_slice()),
            "acknowledged key {i} lost"
        );
    }
    rec.put(key(9999), val(9999));
    rec.group_commit();
    rec.shard_mut(0).flush();
    assert!(!rec.crashed(), "the recovered store must flush cleanly");
    let _ = std::fs::remove_dir_all(&root);
}

/// A crash between a manifest slot's write and its `fdatasync`: the page
/// cache survives a process death, so the new generation recovers. The
/// flush never recycled the WAL, so its records replay and are dropped by
/// seq, and the run the flush retired, never freed, is swept as an orphan.
#[test]
fn a_crash_between_the_manifest_write_and_its_fsync_recovers_the_new_generation() {
    let root = persist_root("manifest-write-sync");
    let p = persist_cfg(&root);
    let mut db = persistent_store(1, &p);
    for i in 0..30u64 {
        db.put(key(i), val(i));
    }
    db.group_commit();
    db.shard_mut(0).flush();
    let previous = db.shard(0).manifest().unwrap().generation();
    for i in 30..60u64 {
        db.put(key(i), val(i));
    }
    db.group_commit();
    db.shard(0)
        .faults()
        .arm(Site::ManifestSync, 0, Fault::Crash);
    db.shard_mut(0).flush();
    assert!(db.crashed(), "the armed crash never fired");
    drop(db);
    assert_eq!(
        Wal::replay(p.wal_path(0)).unwrap().len(),
        30,
        "the WAL was recycled"
    );

    let mut rec = recovered_persistent(1, &p);
    assert_eq!(rec.shard(0).manifest().unwrap().generation(), previous + 1);
    assert_eq!(manifest_entries(&rec, 0), 60);
    let stats = rec.shard(0).stats();
    assert_eq!(
        stats.replayed_tail, 0,
        "the flushed records must be dropped by seq"
    );
    assert_eq!(stats.orphans_collected, 1, "the retired run must be swept");
    for i in 0..60u64 {
        assert_eq!(
            rec.get(&key(i)).as_deref(),
            Some(val(i).as_slice()),
            "key {i} lost"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A failed trim of a recycled extent file — its former tail, cut before
/// the sync — fails the extent barrier typed: the shard power-fails, and
/// recovery yields the acknowledged prefix.
#[test]
fn a_failed_trim_of_a_recycled_extent_recovers_the_acknowledged_prefix() {
    let root = persist_root("trim-fail");
    let p = persist_cfg(&root);
    let mut db = churning_store(Backend::Create(&p));
    let other = Fault::Error(std::io::ErrorKind::Other);
    db.shard(0).faults().arm(Site::ExtentTrim, 0, other);
    let loaded = load_until_crash(&mut db, 1200);
    assert!(db.crashed(), "the armed trim error never fired");
    assert!(db.shard(0).faults().is_dead(), "the barrier must fail");
    drop(db);
    let mut rec = churning_store(Backend::Recover(&p));
    assert_acknowledged_prefix(&mut rec, 1, loaded, "failed trim");
    let _ = std::fs::remove_dir_all(&root);
}

/// A death while unlinks wait on the I/O worker: a crash at the
/// `n + 1`-th unlink leaves the `n` unlinks before it the only ones
/// issued, so the one it fired in and every one queued behind it delete
/// nothing. Extent ids are handed out in order and a freed file is always
/// older than the live run that replaced it, so the gaps among the ids on
/// disk are exactly the unlinked files. Recovery's orphan sweep deletes
/// what the dead unlinks left, and the acknowledged prefix survives.
#[test]
fn unlinks_queued_at_a_death_issue_nothing_and_are_swept_at_recovery() {
    for n in 0..3 {
        let root = persist_root("unlink-death");
        let p = persist_cfg(&root);
        let mut db = churning_store(Backend::Create(&p));
        db.shard(0)
            .faults()
            .arm(Site::ExtentUnlink, n, Fault::Crash);
        let loaded = load_until_crash(&mut db, 4000);
        assert!(db.crashed(), "n={n}: the unlink crash never fired");
        drop(db);
        let ids: Vec<u64> = extent_files(&p).into_iter().map(|(id, _)| id).collect();
        let max = ids.iter().copied().max().unwrap();
        let unlinked = (1..=max).filter(|id| !ids.contains(id)).count() as u64;
        assert_eq!(unlinked, n, "n={n}: only the unlinks before the death ran");

        let mut rec = churning_store(Backend::Recover(&p));
        let left: Vec<u64> = extent_files(&p).into_iter().map(|(id, _)| id).collect();
        let swept = ids.iter().filter(|id| !left.contains(id)).count() as u64;
        assert!(swept >= 1, "n={n}: the crashed unlink's file stays");
        assert_eq!(rec.shard(0).stats().orphans_collected, swept, "n={n}");
        assert_acknowledged_prefix(&mut rec, 1, loaded, &format!("n={n}"));
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A freed extent file whose unlink fails is counted, not dropped: the
/// store keeps going, the file stays on disk, and the next open's orphan
/// sweep deletes it.
#[test]
fn a_failed_unlink_is_counted_and_swept_at_the_next_open() {
    let root = persist_root("unlink-fail");
    let p = persist_cfg(&root);
    let mut db = churning_store(Backend::Create(&p));
    let other = Fault::Error(std::io::ErrorKind::Other);
    db.shard(0).faults().arm(Site::ExtentUnlink, 0, other);
    let mut written = 0u64;
    while db.shard(0).stats().unlink_failures == 0 {
        assert!(written < 1200, "no freed file was unlinked");
        db.put(key(written), val(written));
        written += 1;
    }
    db.group_commit();
    assert!(!db.crashed(), "a failed unlink must not kill the shard");
    assert_eq!(db.shard(0).stats().unlink_failures, 1);
    let live: Vec<u64> = db
        .shard(0)
        .manifest()
        .unwrap()
        .state()
        .levels
        .iter()
        .flat_map(|l| l.sealed.iter().chain(l.active.iter()))
        .map(|r| r.extent_id)
        .collect();
    drop(db); // a clean drop unlinks the reserved file
    let stray: Vec<u64> = extent_files(&p)
        .into_iter()
        .map(|(id, _)| id)
        .filter(|id| !live.contains(id))
        .collect();
    assert_eq!(
        stray.len(),
        1,
        "the file whose unlink failed stays: {stray:?}"
    );

    let mut rec = churning_store(Backend::Recover(&p));
    assert_eq!(rec.shard(0).stats().orphans_collected, 1);
    assert!(extent_files(&p).iter().all(|&(id, _)| id != stray[0]));
    for i in 0..written {
        assert_eq!(
            rec.get(&key(i)).as_deref(),
            Some(val(i).as_slice()),
            "key {i} lost"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
