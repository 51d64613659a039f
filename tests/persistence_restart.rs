//! Restart-equivalence harness for full-store persistence.
//!
//! Four suites pin the persistence contract of the manifest + `FileDisk`
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
//! 3. **Manifest replay fuzz**: random valid edit histories corrupted by
//!    bit flips, truncation, and appended garbage never panic recovery,
//!    which must yield deterministically one of the committed-batch
//!    prefix states (batches are atomic — no half-applied mutation can
//!    ever fold).
//! 4. **An edit no build writes any more**: a tree whose manifest holds
//!    a `MoveRun` (an older build's trivial move) recovers with the run
//!    at its target level, every key intact, and later commits replayed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use proptest::prelude::*;

use ruskey_repro::lsm::manifest::{Manifest, ManifestEdit, ManifestState, RunRecord};
use ruskey_repro::lsm::{FlsmTree, LsmConfig, Wal};
use ruskey_repro::ruskey::db::RusKeyConfig;
use ruskey_repro::ruskey::sharded::{Backend, PersistenceConfig, RusKey};
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
    // An aggressive checkpoint cadence so the scenarios exercise live
    // log compaction (and recovery from checkpointed, multi-level
    // manifests), not just plain append-only histories.
    p.checkpoint_every = 8;
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
// 3. Manifest replay fuzz
// ----------------------------------------------------------------------

/// Model used to *generate* valid edit histories: tracks enough state to
/// only emit edits the fold accepts.
#[derive(Default)]
struct EditModel {
    levels: Vec<(Vec<u64>, Option<u64>)>, // (sealed ids, active id)
    next_id: u64,
    seq: u64,
}

impl EditModel {
    /// Produces the next valid edit for an action code, or `None` when
    /// the code has no valid target (e.g. a seal with no active run).
    fn edit_for(&mut self, code: u8) -> Option<ManifestEdit> {
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
        match code % 6 {
            0 | 1 => {
                // Add a run to an existing level or the next fresh one.
                let lvl = (code as usize / 6) % (self.levels.len() + 1);
                if lvl == self.levels.len() {
                    self.levels.push((Vec::new(), None));
                }
                self.next_id += 1;
                let id = self.next_id;
                let active = code.is_multiple_of(2) && self.levels[lvl].1.is_none();
                if active {
                    self.levels[lvl].1 = Some(id);
                } else {
                    self.levels[lvl].0.push(id);
                }
                Some(ManifestEdit::AddRun {
                    level: lvl as u32,
                    active,
                    run: run(id),
                })
            }
            2 => {
                // Seal the first level with an active run.
                let lvl = self.levels.iter().position(|l| l.1.is_some())?;
                let id = self.levels[lvl].1.take().unwrap();
                self.levels[lvl].0.push(id);
                Some(ManifestEdit::SealRun {
                    level: lvl as u32,
                    run_id: id,
                })
            }
            3 => {
                // Remove some existing run.
                let lvl = self
                    .levels
                    .iter()
                    .position(|l| !l.0.is_empty() || l.1.is_some())?;
                let (sealed, active) = &mut self.levels[lvl];
                let id = if let Some(id) = active.take() {
                    id
                } else {
                    sealed.remove(0)
                };
                Some(ManifestEdit::RemoveRun {
                    level: lvl as u32,
                    run_id: id,
                })
            }
            4 => {
                let lvl = (code as usize / 6) % (self.levels.len() + 1);
                if lvl == self.levels.len() {
                    self.levels.push((Vec::new(), None));
                }
                Some(ManifestEdit::SetPolicy {
                    level: lvl as u32,
                    policy: u32::from(code % 4) + 1,
                    pending: code.is_multiple_of(3).then_some(2),
                })
            }
            _ => {
                self.seq += u64::from(code) + 1;
                Some(ManifestEdit::SeqWatermark { seq: self.seq })
            }
        }
    }
}

/// A corruption applied to a valid manifest image (mirrors the WAL fuzz).
#[derive(Debug, Clone)]
enum Corruption {
    BitFlip(usize),
    Truncate(usize),
    Garbage(Vec<u8>),
}

fn corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        3 => any::<usize>().prop_map(Corruption::BitFlip),
        3 => any::<usize>().prop_map(Corruption::Truncate),
        2 => prop::collection::vec(any::<u8>(), 1..64).prop_map(Corruption::Garbage),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Corrupted manifests never panic recovery, and the recovered state
    /// is deterministically one of the committed-batch prefix states —
    /// bit flips, truncation, duplicate/out-of-order bytes can only ever
    /// truncate history, never half-apply or reorder it.
    #[test]
    fn manifest_recovery_of_corrupted_log_yields_a_prefix_state(
        actions in prop::collection::vec(any::<u8>(), 0..40),
        batch_every in 1usize..4,
        corruption in corruption(),
    ) {
        let path = store_root("fuzz").with_extension("manifest");
        let _ = std::fs::remove_file(&path);
        // Build a valid history and snapshot the state after each commit.
        let mut snapshots: Vec<ManifestState> = vec![ManifestState::default()];
        {
            let mut m = Manifest::create(&path, 0).unwrap();
            let mut model = EditModel::default();
            for (i, &code) in actions.iter().enumerate() {
                if let Some(edit) = model.edit_for(code) {
                    m.log(edit);
                }
                if (i + 1) % batch_every == 0 && m.commit().unwrap() {
                    snapshots.push(m.state().clone());
                }
            }
            if m.commit().unwrap() {
                snapshots.push(m.state().clone());
            }
        }
        let mut data = std::fs::read(&path).unwrap();
        match &corruption {
            Corruption::BitFlip(pos) if !data.is_empty() => {
                let pos = pos % data.len();
                data[pos] ^= 1 << (pos % 8);
            }
            Corruption::BitFlip(_) => {}
            Corruption::Truncate(keep) => {
                let keep = keep % (data.len() + 1);
                data.truncate(keep);
            }
            Corruption::Garbage(bytes) => data.extend_from_slice(bytes),
        }
        std::fs::write(&path, &data).unwrap();

        let (m1, _) = Manifest::recover(&path, 0).unwrap(); // must not panic
        let state1 = m1.state().clone();
        drop(m1);
        prop_assert!(
            snapshots.contains(&state1),
            "corruption {:?}: recovered state is not a committed prefix",
            &corruption
        );
        // Determinism: recovering the truncated file again agrees.
        let (m2, _) = Manifest::recover(&path, 0).unwrap();
        prop_assert_eq!(&state1, m2.state(), "recovery must be deterministic");
        let _ = std::fs::remove_file(&path);
    }
}

// ----------------------------------------------------------------------
// 4. An edit no build writes any more
// ----------------------------------------------------------------------

/// Level 1 keeps two runs, so its active run seals before any merge.
fn move_run_cfg() -> LsmConfig {
    LsmConfig {
        buffer_bytes: 1024,
        size_ratio: 4,
        initial_policy: 2,
        ..LsmConfig::scaled_default()
    }
}

fn recover_tree(root: &Path) -> FlsmTree {
    let disk = FileDisk::new(root.join("data"), 256, CostModel::FREE).expect("open data dir");
    FlsmTree::recover_persistent(
        move_run_cfg(),
        disk,
        root.join("MANIFEST"),
        root.join("wal"),
        0,
        0,
    )
    .expect("recover tree")
}

/// Run ids the tree's manifest holds sealed at `level`.
fn sealed_ids(t: &FlsmTree, level: usize) -> Vec<u64> {
    let state = t.manifest().expect("manifest attached").state();
    state
        .levels
        .get(level)
        .map_or(Vec::new(), |l| l.sealed.iter().map(|r| r.run_id).collect())
}

fn assert_reads(t: &mut FlsmTree, model: &BTreeMap<u64, Bytes>) {
    for (k, v) in model {
        assert_eq!(t.get(&key(*k)).as_ref(), Some(v), "key {k}");
    }
    let expected: Vec<(Bytes, Bytes)> = model.iter().map(|(k, v)| (key(*k), v.clone())).collect();
    assert_eq!(t.scan(&key(0), &key(u64::MAX), usize::MAX), expected);
}

/// Older builds' background pickers re-parented a lone sealed run with a
/// `MoveRun` edit. No build writes it any more, but a directory holding
/// one must still recover: the run at its target level, every key
/// unchanged by get and by scan, and every commit after the move
/// replayed.
#[test]
fn a_logged_move_run_recovers_at_its_target_level() {
    let root = store_root("move-run");
    std::fs::create_dir_all(&root).unwrap();
    let val = |i: u64| Bytes::from(format!("value-{i:08}"));
    let mut model = BTreeMap::new();
    let disk = FileDisk::new(root.join("data"), 256, CostModel::FREE).unwrap();
    let mut t = FlsmTree::new(move_run_cfg(), disk);
    t.attach_manifest(Manifest::create(root.join("MANIFEST"), 0).unwrap());
    t.attach_wal(Wal::open(root.join("wal")).unwrap());
    let mut i = 0;
    while sealed_ids(&t, 0).is_empty() {
        t.put(key(i), val(i));
        model.insert(i, val(i));
        i += 1;
    }
    assert_eq!(t.level_count(), 1, "the first seal precedes any merge");
    let moved = sealed_ids(&t, 0)[0];
    // The edit as an older build's trivial move logged it.
    let m = t.manifest_mut().unwrap();
    m.log(ManifestEdit::MoveRun {
        from_level: 0,
        to_level: 1,
        run_id: moved,
    });
    m.commit().unwrap();
    t.commit_wal().unwrap();
    drop(t);

    let mut r = recover_tree(&root);
    assert_eq!(sealed_ids(&r, 0), Vec::<u64>::new());
    assert_eq!(sealed_ids(&r, 1), vec![moved]);
    assert_eq!(r.level_run_count(1), 1, "the tree holds the run at level 1");
    assert_reads(&mut r, &model);

    // Commits after the move: newer versions of moved keys, flushed above.
    for j in 0..40 {
        r.put(key(j * 2), val(j + 10_000));
        model.insert(j * 2, val(j + 10_000));
    }
    r.flush();
    r.commit_wal().unwrap();
    drop(r);
    let mut r = recover_tree(&root);
    assert_eq!(sealed_ids(&r, 1), vec![moved]);
    assert_reads(&mut r, &model);
    let _ = std::fs::remove_dir_all(&root);
}
