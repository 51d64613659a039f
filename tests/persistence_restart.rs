//! Restart-equivalence harness for full-store persistence.
//!
//! Five suites pin the persistence contract of the manifest + `FileDisk`
//! recovery path (the layer above the WAL-only crash matrix of
//! `tests/crash_recovery.rs`):
//!
//! 1. **Restart equivalence**: a persistent [`RusKey`] at
//!    `N ∈ {1, 2, 4}` runs missions that flush and compact runs to disk,
//!    is dropped (losing every in-memory structure), and is recovered;
//!    every get over the whole key space and every scan must be
//!    bit-identical to the uninterrupted store — flushed runs included,
//!    not just the WAL tail — and the recovered store must keep serving
//!    (and survive a second restart).
//! 2. **Schedule proptest**: random put/delete/flush schedules with
//!    mid-run flush and compaction boundaries on random shard counts;
//!    the recovered store must be get/scan-identical to a fresh
//!    (simulated-disk) store executing the same schedule.
//! 3. **Snapshot round trip**: after every structural step of a random
//!    tree schedule the tree's projection equals the manifest state on
//!    disk; a commit made beside unflushed, acknowledged writes keeps
//!    them replayable (the manifest records the flushed watermark).
//! 4. **Slot fuzz**: arbitrary bytes in either manifest slot never panic
//!    recovery, which yields the other slot's state or fails typed.
//! 5. **Refusals**: a version 2 manifest, a foreign version word and a
//!    manifest with no valid snapshot beside extent files all fail the
//!    open, typed, and delete nothing.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use proptest::prelude::*;

use ruskey_repro::lsm::manifest::{
    LevelManifest, Manifest, ManifestError, ManifestState, RunRecord, MANIFEST_VERSION,
};
use ruskey_repro::lsm::{FlsmTree, LsmConfig, TransitionStrategy, Wal};
use ruskey_repro::ruskey::db::RusKeyConfig;
use ruskey_repro::ruskey::sharded::{Backend, PersistenceConfig, RusKey, StoreError};
use ruskey_repro::ruskey::tuner::NoOpTuner;
use ruskey_repro::storage::{CostModel, FileDisk};
use ruskey_repro::workload::{encode_key, OpGenerator, OpMix, WorkloadSpec};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A unique store root per scenario (parallel tests must not share).
fn store_root(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ruskey-persist-{tag}-{}-{n}", std::process::id()))
}

fn pcfg(root: &PathBuf) -> PersistenceConfig {
    let mut p = PersistenceConfig::new(root);
    p.page_size = 512;
    p.cost = CostModel::FREE;
    p
}

/// A small buffer so the scenarios flush and compact runs to disk — the
/// structure the manifest (not the WAL) must carry across the restart.
fn small_cfg() -> RusKeyConfig {
    let mut cfg = RusKeyConfig::scaled_default();
    cfg.lsm.buffer_bytes = 4096;
    cfg.lsm.size_ratio = 4;
    cfg
}

fn persistent_store(shards: usize, p: &PersistenceConfig) -> RusKey {
    RusKey::open(small_cfg(), shards, Box::new(NoOpTuner), Backend::Create(p))
        .expect("open persistent store")
}

fn recovered_store(shards: usize, p: &PersistenceConfig) -> RusKey {
    RusKey::open(
        small_cfg(),
        shards,
        Box::new(NoOpTuner),
        Backend::Recover(p),
    )
    .expect("recover persistent store")
}

fn key(i: u64) -> Bytes {
    encode_key(i, 16)
}

// ----------------------------------------------------------------------
// 1. Restart equivalence
// ----------------------------------------------------------------------

/// Acceptance (ISSUE 5): a `FileDisk`-backed store at `N ∈ {1, 2, 4}`
/// survives drop + recover with its flushed runs intact — every get and
/// scan bit-identical to the uninterrupted store.
#[test]
fn restart_equivalence_at_every_shard_count() {
    const KEYS: u64 = 800;
    for shards in [1usize, 2, 4] {
        let root = store_root("equiv");
        let p = pcfg(&root);
        let mut db = persistent_store(shards, &p);

        // Mission-driven mixed workload with flush/compaction boundaries
        // mid-run, then an unflushed tail synced only by group commit.
        let spec = WorkloadSpec {
            key_space: KEYS,
            key_len: 16,
            value_len: 64,
            ..WorkloadSpec::scaled_default(KEYS)
        }
        .with_mix(OpMix::balanced());
        let mut g = OpGenerator::new(spec, 7 + shards as u64);
        for _ in 0..6 {
            db.run_mission(&g.take_ops(250));
        }
        db.put(key(KEYS + 1), b"tail-write".as_ref());
        db.group_commit();
        assert!(
            db.stats().flushes > 0,
            "{shards} shards: the scenario must flush runs to disk"
        );

        // The uninterrupted store's answers, over the whole key space.
        let expected_gets: Vec<Option<Bytes>> = (0..KEYS + 2).map(|i| db.get(&key(i))).collect();
        let lo = key(0);
        let hi = key(KEYS + 2);
        let expected_scan = db.scan(&lo, &hi, usize::MAX);
        let expected_bounded = db.scan(&key(100), &key(300), 37);
        drop(db); // restart: memtables, runs, filters, fences all die

        let mut rec = recovered_store(shards, &p);
        assert!(
            rec.stats().runs_recovered > 0,
            "{shards} shards: recovery must rebuild runs from data pages"
        );
        for (i, want) in expected_gets.iter().enumerate() {
            assert_eq!(
                &rec.get(&key(i as u64)),
                want,
                "{shards} shards: get({i}) diverged after restart"
            );
        }
        assert_eq!(
            rec.scan(&lo, &hi, usize::MAX),
            expected_scan,
            "{shards} shards: full scan diverged after restart"
        );
        assert_eq!(
            rec.scan(&key(100), &key(300), 37),
            expected_bounded,
            "{shards} shards: bounded scan diverged after restart"
        );

        // The recovered store keeps operating — and survives a second
        // restart with the new writes intact.
        let r = rec.run_mission(&g.take_ops(250));
        assert!(r.ops >= 250);
        rec.put(key(KEYS + 3), b"post-recovery".as_ref());
        rec.group_commit();
        let expected2: Vec<Option<Bytes>> = (0..KEYS + 4).map(|i| rec.get(&key(i))).collect();
        drop(rec);
        let mut rec2 = recovered_store(shards, &p);
        for (i, want) in expected2.iter().enumerate() {
            assert_eq!(
                &rec2.get(&key(i as u64)),
                want,
                "{shards} shards: get({i}) diverged after the second restart"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

// ----------------------------------------------------------------------
// 2. Schedule proptest
// ----------------------------------------------------------------------

/// One step of the random persistent schedule.
#[derive(Debug, Clone)]
enum PersistOp {
    Put(u16, u8),
    Delete(u16),
    /// Force a memtable flush on one shard (mid-run flush/compaction
    /// boundary; the shard index is taken modulo the shard count).
    Flush(u8),
    /// A group-commit barrier (mission boundary).
    Commit,
}

fn persist_op() -> impl Strategy<Value = PersistOp> {
    prop_oneof![
        8 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| PersistOp::Put(k % 120, v)),
        2 => any::<u16>().prop_map(|k| PersistOp::Delete(k % 120)),
        1 => any::<u8>().prop_map(PersistOp::Flush),
        1 => Just(PersistOp::Commit),
    ]
}

fn apply(db: &mut RusKey, op: &PersistOp, shards: usize) {
    match *op {
        PersistOp::Put(k, v) => db.put(key(k as u64), vec![v; 16]),
        PersistOp::Delete(k) => db.delete(key(k as u64)),
        PersistOp::Flush(s) => db.shard_mut(s as usize % shards).flush(),
        PersistOp::Commit => {
            db.group_commit();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Random schedules with mid-run flush/compaction boundaries: the
    /// recovered persistent store is get/scan-identical to a fresh
    /// (simulated-disk, non-durable) store executing the same schedule.
    #[test]
    fn recovered_store_equals_uninterrupted_schedule(
        ops in prop::collection::vec(persist_op(), 1..120),
        shards in 1usize..5,
    ) {
        let root = store_root("prop");
        let p = pcfg(&root);
        let mut db = persistent_store(shards, &p);
        for op in &ops {
            apply(&mut db, op, shards);
        }
        db.group_commit(); // everything acknowledged before the restart
        drop(db);

        let disk = ruskey_repro::storage::SimulatedDisk::new(512, CostModel::FREE);
        let mut reference =
            RusKey::open(small_cfg(), shards, Box::new(NoOpTuner), Backend::Volatile(disk))
                .expect("open");
        for op in &ops {
            apply(&mut reference, op, shards);
        }

        let mut rec = recovered_store(shards, &p);
        for k in 0u64..120 {
            prop_assert_eq!(
                rec.get(&key(k)),
                reference.get(&key(k)),
                "shards={} key={}: get diverged",
                shards, k
            );
        }
        let lo = key(0);
        let hi = key(120);
        prop_assert_eq!(
            rec.scan(&lo, &hi, usize::MAX),
            reference.scan(&lo, &hi, usize::MAX),
            "shards={}: scan diverged",
            shards
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

// ----------------------------------------------------------------------
// 3. Snapshot round trip and the flushed watermark
// ----------------------------------------------------------------------

/// A one-tree persistent setup: `FileDisk` data pages, manifest and WAL
/// under `root`.
fn tree_paths(root: &Path) -> (PathBuf, PathBuf, PathBuf) {
    (root.join("data"), root.join("MANIFEST"), root.join("wal"))
}

fn persistent_tree(root: &Path, cfg: LsmConfig) -> FlsmTree {
    let (data, manifest, wal) = tree_paths(root);
    let disk = FileDisk::new(data, 256, CostModel::FREE).expect("open data dir");
    let mut t = FlsmTree::new(cfg, disk);
    t.attach_manifest(Manifest::create(manifest, 0).expect("create manifest"));
    t.attach_wal(Wal::open(wal).expect("open wal"));
    t
}

fn recover_tree(root: &Path, cfg: LsmConfig) -> FlsmTree {
    let (data, manifest, wal) = tree_paths(root);
    let disk = FileDisk::new(data, 256, CostModel::FREE).expect("open data dir");
    FlsmTree::recover_persistent(cfg, disk, manifest, wal, 0).expect("recover tree")
}

fn tree_cfg(transition: TransitionStrategy, background: bool) -> LsmConfig {
    LsmConfig {
        buffer_bytes: 1024,
        size_ratio: 4,
        initial_policy: 2,
        transition,
        background_maintenance: background,
        l0_stall_runs: 64,
        ..LsmConfig::scaled_default()
    }
}

/// One structural step of a random tree schedule.
#[derive(Debug, Clone)]
enum TreeStep {
    /// A burst of puts (may flush and merge inline).
    Puts(u8),
    Flush,
    /// One background maintenance step: a flush, a merge's build or its
    /// apply.
    Maintain,
    /// `set_policy(level, k)` on a materialized level.
    Policy(u8, u8),
}

fn tree_step() -> impl Strategy<Value = TreeStep> {
    prop_oneof![
        4 => any::<u8>().prop_map(TreeStep::Puts),
        1 => Just(TreeStep::Flush),
        3 => Just(TreeStep::Maintain),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(l, k)| TreeStep::Policy(l, k)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// After every structural step of a random schedule — flushes, inline
    /// and background merges, every transition strategy, on a fresh or a
    /// bulk-loaded tree — the tree's projection equals the state recovered
    /// from disk, and a tree recovered at the end projects the same.
    #[test]
    fn snapshot_equals_the_recovered_state_after_every_structural_step(
        steps in prop::collection::vec(tree_step(), 1..40),
        strategy in 0usize..3,
        background in any::<bool>(),
        bulk in any::<bool>(),
    ) {
        let transition = [
            TransitionStrategy::Flexible,
            TransitionStrategy::Lazy,
            TransitionStrategy::Greedy,
        ][strategy];
        let cfg = tree_cfg(transition, background);
        let root = store_root("snapshot");
        std::fs::create_dir_all(&root).unwrap();
        let manifest = tree_paths(&root).1;
        let mut t = persistent_tree(&root, cfg.clone());
        let on_disk = || Manifest::recover(&manifest).unwrap().unwrap().state().clone();
        if bulk {
            t.bulk_load((0..600u64).map(|i| (key(i * 2), Bytes::from(vec![i as u8; 20]))).collect());
            prop_assert_eq!(ManifestState::of(&t), on_disk(), "after the bulk load");
        }
        let mut next = 0u64;
        for (i, step) in steps.iter().enumerate() {
            match *step {
                TreeStep::Puts(n) => {
                    for _ in 0..n / 4 + 1 {
                        t.put(key(next * 7 % 1_500), Bytes::from(vec![next as u8; 24]));
                        next += 1;
                    }
                }
                TreeStep::Flush => t.flush(),
                TreeStep::Maintain => {
                    t.step_maintenance();
                }
                TreeStep::Policy(level, k) if t.level_count() > 0 => {
                    t.set_policy(level as usize % t.level_count(), u32::from(k % 4) + 1);
                }
                TreeStep::Policy(..) => {}
            }
            prop_assert_eq!(ManifestState::of(&t), on_disk(), "after step {} ({:?})", i, step);
        }
        t.commit_wal().unwrap();
        let want = ManifestState::of(&t);
        drop(t);
        let r = recover_tree(&root, cfg);
        prop_assert_eq!(ManifestState::of(&r), want, "the recovered tree's projection");
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A commit made while acknowledged writes sit only in the memtable — a
/// background merge's apply, or a policy transition — records the
/// *flushed* watermark, not the live sequence number, so those writes
/// still replay from the WAL after a restart.
#[test]
fn a_commit_beside_unflushed_writes_keeps_them_across_a_restart() {
    for by_merge in [true, false] {
        let cfg = tree_cfg(TransitionStrategy::Flexible, true);
        let root = store_root("watermark");
        std::fs::create_dir_all(&root).unwrap();
        let mut t = persistent_tree(&root, cfg.clone());
        let val = |i: u64| Bytes::from(format!("value-{i:08}"));
        let mut i = 0;
        while !t.has_pending_compaction() {
            t.put(key(i), val(i));
            t.step_maintenance();
            i += 1;
            assert!(i < 100_000, "no merge was ever built");
        }
        t.flush();
        let flushed = i;
        // Acknowledged, and only in the memtable (well under a buffer).
        for j in flushed..flushed + 10 {
            t.put(key(j), val(j));
        }
        t.commit_wal().unwrap();
        let generation = t.manifest().unwrap().generation();
        if by_merge {
            assert!(t.has_pending_compaction(), "the flush left the merge built");
            assert!(t.step_maintenance(), "the apply step runs");
        } else {
            t.set_policy(0, if t.policy(0) == 1 { 3 } else { 1 });
        }
        assert_eq!(
            t.manifest().unwrap().generation(),
            generation + 1,
            "by_merge={by_merge}: the step must commit"
        );
        drop(t);
        let mut r = recover_tree(&root, cfg);
        assert_eq!(r.stats().replayed_tail, 10, "by_merge={by_merge}");
        for j in 0..flushed + 10 {
            assert_eq!(r.get(&key(j)), Some(val(j)), "by_merge={by_merge}: key {j}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

// ----------------------------------------------------------------------
// 4. Arbitrary bytes in a manifest slot
// ----------------------------------------------------------------------

/// The state committed as generation `g` by the fuzz below.
fn fuzz_state(g: u64) -> ManifestState {
    let run = |id: u64| RunRecord {
        run_id: id,
        extent_id: id,
        pages: 1,
        capacity_bytes: 1024,
        entry_count: 1,
        data_bytes: 30,
        max_seq: id,
        bloom_bits_per_key: 8.0,
        min_key: Bytes::from_static(b"a"),
        max_key: Bytes::from_static(b"z"),
    };
    let levels = (0..g % 3 + 1)
        .map(|l| LevelManifest {
            policy: (g + l) as u32 % 4 + 1,
            pending: g.is_multiple_of(2).then_some(2),
            sealed: (0..l + g % 2).map(|i| run(g * 10 + l * 3 + i)).collect(),
            active: (l == 0).then(|| run(g * 10 + 9)),
        })
        .collect();
    ManifestState {
        levels,
        seq: g * 100,
        next_run_id: g * 10 + 10,
    }
}

/// A corruption applied to one slot file.
#[derive(Debug, Clone)]
enum Corruption {
    Replace(Vec<u8>),
    BitFlip(usize),
    Truncate(usize),
    Garbage(Vec<u8>),
}

fn corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        2 => prop::collection::vec(any::<u8>(), 0..300).prop_map(Corruption::Replace),
        3 => any::<usize>().prop_map(Corruption::BitFlip),
        3 => any::<usize>().prop_map(Corruption::Truncate),
        2 => prop::collection::vec(any::<u8>(), 1..64).prop_map(Corruption::Garbage),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Arbitrary bytes in either slot never panic recovery: it yields the
    /// other slot's state (or the damaged slot's own, where the damage
    /// missed its records), or fails typed — and does the same twice.
    #[test]
    fn arbitrary_bytes_in_either_slot_recover_the_other_or_fail_typed(
        commits in 2u64..6,
        slot in 0usize..2,
        corruption in corruption(),
    ) {
        let path = store_root("fuzz").with_extension("manifest");
        let slots = Manifest::slot_paths(&path);
        {
            let mut m = Manifest::create(&path, 0).unwrap();
            for g in 1..=commits {
                prop_assert!(m.commit(fuzz_state(g)).unwrap());
            }
        }
        // Generation g lives in slot g mod 2: the newest in one, the one
        // before it in the other.
        let state_in = |slot: usize| fuzz_state(if commits % 2 == slot as u64 { commits } else { commits - 1 });
        let mut data = std::fs::read(&slots[slot]).unwrap();
        match &corruption {
            Corruption::Replace(bytes) => data.clone_from(bytes),
            Corruption::BitFlip(pos) => {
                let pos = pos % data.len();
                data[pos] ^= 1 << (pos % 8);
            }
            Corruption::Truncate(keep) => data.truncate(keep % (data.len() + 1)),
            Corruption::Garbage(bytes) => data.extend_from_slice(bytes),
        }
        std::fs::write(&slots[slot], &data).unwrap();

        let outcome = |r: std::io::Result<Option<Manifest>>| match r {
            Ok(m) => Ok(m.map(|m| m.state().clone())),
            Err(e) => Err((e.kind(), ManifestError::of(&e))),
        };
        let first = outcome(Manifest::recover(&path)); // must not panic
        match &first {
            Ok(Some(state)) => prop_assert!(
                *state == state_in(1 - slot) || *state == state_in(slot),
                "{:?}: recovered a state no slot committed",
                &corruption
            ),
            Ok(None) => prop_assert!(false, "{:?}: the other slot was lost", &corruption),
            Err((kind, refusal)) => {
                prop_assert_eq!(*kind, std::io::ErrorKind::InvalidData);
                prop_assert!(refusal.is_some(), "{:?}: an untyped failure", &corruption);
            }
        }
        prop_assert_eq!(first, outcome(Manifest::recover(&path)), "recovery must be deterministic");
        slots.iter().for_each(|p| {
            let _ = std::fs::remove_file(p);
        });
    }
}

// ----------------------------------------------------------------------
// 5. Manifests recovery refuses
// ----------------------------------------------------------------------

/// The extent files under a one-shard store's data directory.
fn extent_files(p: &PersistenceConfig) -> usize {
    std::fs::read_dir(p.data_dir(0)).map_or(0, |d| d.count())
}

/// A one-shard store holding `n` flushed keys.
fn flushed_store(tag: &str, n: u64) -> (PathBuf, PersistenceConfig) {
    let root = store_root(tag);
    let p = pcfg(&root);
    let mut db = persistent_store(1, &p);
    for i in 0..n {
        db.put(key(i), vec![i as u8; 16]);
    }
    db.group_commit();
    db.shard_mut(0).flush();
    drop(db);
    assert!(extent_files(&p) > 0, "the store must hold extents");
    (root, p)
}

/// The one-shard store's recovery error, which must be a manifest refusal.
fn refused(p: &PersistenceConfig) -> (StoreError, String) {
    let err = RusKey::open(small_cfg(), 1, Box::new(NoOpTuner), Backend::Recover(p))
        .err()
        .expect("recovery must refuse the manifest");
    let said = err.to_string();
    (err, said)
}

/// A version 2 manifest — an edit log, the format before snapshots — is
/// refused at open with an error naming the shard and the version, and
/// nothing in the directory is deleted or rewritten.
#[test]
fn a_v2_manifest_is_refused_with_its_version() {
    let (root, p) = flushed_store("v2", 300);
    let [first, second] = Manifest::slot_paths(&p.manifest_path(0));
    // A v2 directory: one file, a `[0][RKMF][2]` header, then batches.
    let mut v2 = Vec::new();
    for body in [
        &b"\0FMKR\x02\0\0\0"[..],
        &[1, 1, 0, 0, 0, 6, 7, 0, 0, 0, 0, 0, 0, 0][..],
    ] {
        v2.extend((body.len() as u32).to_le_bytes());
        v2.extend(crc32(body).to_le_bytes());
        v2.extend_from_slice(body);
    }
    std::fs::write(&first, &v2).unwrap();
    std::fs::remove_file(&second).unwrap();
    let extents = extent_files(&p);

    let (err, said) = refused(&p);
    assert!(
        matches!(
            err,
            StoreError::Manifest {
                shard: 0,
                error: ManifestError::Version(2)
            }
        ),
        "{said}"
    );
    assert!(
        said.contains("shard 0") && said.contains("version 2"),
        "{said}"
    );
    assert_eq!(extent_files(&p), extents, "an extent was deleted");
    assert_eq!(
        std::fs::read(&first).unwrap(),
        v2,
        "the v2 file was touched"
    );
    assert!(!second.exists(), "a slot was created");
    let _ = std::fs::remove_dir_all(&root);
}

/// A manifest with a foreign version word (CRC fixed up) or with no valid
/// snapshot in either slot fails the open, typed, and deletes no extent —
/// it used to recover an empty tree whose orphan sweep deleted them all.
/// Once the slots are restored, every key is back.
#[test]
fn a_foreign_or_corrupt_manifest_fails_typed_and_deletes_nothing() {
    let (root, p) = flushed_store("foreign", 2000);
    let slots = Manifest::slot_paths(&p.manifest_path(0));
    let originals = slots.clone().map(|s| std::fs::read(s).unwrap());
    let extents = extent_files(&p);

    // The header's version word bumped, its CRC fixed up.
    let mut foreign = originals[0].clone();
    foreign[13..17].copy_from_slice(&(MANIFEST_VERSION + 1).to_le_bytes());
    let crc = crc32(&foreign[8..17]);
    foreign[4..8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&slots[0], &foreign).unwrap();
    let (err, said) = refused(&p);
    assert!(
        matches!(
            err,
            StoreError::Manifest {
                shard: 0,
                error: ManifestError::Version(v)
            } if v == MANIFEST_VERSION + 1
        ),
        "{said}"
    );
    assert_eq!(
        extent_files(&p),
        extents,
        "a foreign version deleted extents"
    );

    // Both slots corrupt: no valid snapshot beside the extents.
    for (slot, original) in slots.iter().zip(&originals) {
        let mut bad = original.clone();
        bad[30] ^= 0xff;
        std::fs::write(slot, bad).unwrap();
    }
    let (err, said) = refused(&p);
    assert!(
        matches!(
            err,
            StoreError::Manifest {
                shard: 0,
                error: ManifestError::NoSnapshot
            }
        ),
        "{said}"
    );
    assert_eq!(
        extent_files(&p),
        extents,
        "a corrupt manifest deleted extents"
    );

    for (slot, original) in slots.iter().zip(&originals) {
        std::fs::write(slot, original).unwrap();
    }
    let mut rec = recovered_store(1, &p);
    for i in 0..2000u64 {
        assert_eq!(
            rec.get(&key(i)).as_deref(),
            Some(&[i as u8; 16][..]),
            "key {i}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// CRC-32 (IEEE), one bit at a time: the record log's checksum.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}
