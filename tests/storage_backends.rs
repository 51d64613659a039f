//! Backend-equivalence integration tests: the engine must behave
//! identically on the simulated disk, the file-backed disk, and through
//! the block cache (which may change I/O counts but never results).

use std::collections::BTreeMap;
use std::sync::Arc;

use ruskey_repro::lsm::wal::Wal;
use ruskey_repro::lsm::{FlsmTree, KvEntry, LsmConfig};
use ruskey_repro::storage::{BlockCache, CostModel, FileDisk, SimulatedDisk, Storage};
use ruskey_repro::workload::{encode_key, OpGenerator, OpMix, Operation, WorkloadSpec};

fn cfg() -> LsmConfig {
    LsmConfig {
        buffer_bytes: 2048,
        size_ratio: 4,
        ..LsmConfig::scaled_default()
    }
}

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        key_space: 400,
        key_len: 16,
        value_len: 32,
        ..WorkloadSpec::scaled_default(400)
    }
    .with_mix(OpMix {
        lookup: 0.3,
        update: 0.55,
        delete: 0.05,
        scan: 0.1,
    })
}

/// Drives the same op stream against a tree and returns all lookup/scan
/// results for comparison.
fn drive(tree: &mut FlsmTree, seed: u64, steps: usize) -> Vec<String> {
    let mut gen = OpGenerator::new(spec(), seed);
    let mut outcomes = Vec::new();
    for _ in 0..steps {
        match gen.next_op() {
            Operation::Get { key } => {
                outcomes.push(format!("{:?}", tree.get(&key)));
            }
            Operation::Put { key, value } => tree.put(key, value),
            Operation::Delete { key } => tree.delete(key),
            Operation::Scan { start, end, limit } => {
                let r = tree.scan(&start, &end, limit);
                outcomes.push(format!("scan:{}", r.len()));
            }
        }
    }
    outcomes
}

#[test]
fn simulated_and_file_backends_agree() {
    let dir = std::env::temp_dir().join(format!("ruskey-eqv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let sim = SimulatedDisk::new(512, CostModel::FREE);
    let file = FileDisk::new(&dir, 512, CostModel::FREE).unwrap();

    let mut t_sim = FlsmTree::new(cfg(), sim);
    let mut t_file = FlsmTree::new(cfg(), file);

    let a = drive(&mut t_sim, 77, 2500);
    let b = drive(&mut t_file, 77, 2500);
    assert_eq!(a, b, "file-backed engine diverged from simulated engine");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn block_cache_is_transparent_and_saves_reads() {
    let raw = SimulatedDisk::new(512, CostModel::FREE);
    let cached_base = SimulatedDisk::new(512, CostModel::FREE);
    let cached: Arc<BlockCache<SimulatedDisk>> = BlockCache::new(Arc::clone(&cached_base), 2048);

    let mut t_raw = FlsmTree::new(cfg(), raw.clone());
    let mut t_cached = FlsmTree::new(cfg(), cached.clone());

    let a = drive(&mut t_raw, 99, 2500);
    let b = drive(&mut t_cached, 99, 2500);
    assert_eq!(a, b, "cache changed results");

    // The cache must strictly reduce device reads (point lookups repeat).
    assert!(
        cached_base.metrics().pages_read < raw.metrics().pages_read,
        "cache saved no reads: {} vs {}",
        cached_base.metrics().pages_read,
        raw.metrics().pages_read
    );
    assert!(cached.hits() > 0);

    // A cache far smaller than the tree is still transparent, and once a
    // warm pass has pulled a hot key range in, it holds that working set:
    // re-reading it costs zero device page reads.
    let small_base = SimulatedDisk::new(512, CostModel::FREE);
    let small: Arc<BlockCache<SimulatedDisk>> = BlockCache::new(Arc::clone(&small_base), 16);
    let mut t_small = FlsmTree::new(cfg(), small.clone());
    assert_eq!(
        drive(&mut t_small, 99, 2500),
        a,
        "an evicting cache changed results"
    );
    let key = |i| encode_key(i, spec().key_len);
    // A sweep over the whole key space evicts the hot range.
    for i in 0..spec().key_space {
        t_small.get(&key(i));
    }
    let hot: Vec<_> = (0..8).map(key).collect();
    let misses_before_warm = small.misses();
    let warm: Vec<_> = hot.iter().map(|k| t_small.get(k)).collect();
    assert!(
        small.misses() > misses_before_warm,
        "the warm pass must miss"
    );
    let reads_after_warm = small_base.metrics().pages_read;
    let reread: Vec<_> = hot.iter().map(|k| t_small.get(k)).collect();
    assert_eq!(warm, reread);
    assert_eq!(
        small_base.metrics().pages_read,
        reads_after_warm,
        "a warmed working set was read from the device again"
    );
}

#[test]
fn wal_recovery_restores_unflushed_writes() {
    let path = std::env::temp_dir().join(format!("ruskey-walrec-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // Phase 1: apply writes to a tree while logging them; "crash" before
    // any flush happens (buffer larger than the data).
    let mut expected: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
    {
        let disk = SimulatedDisk::new(512, CostModel::FREE);
        let mut tree = FlsmTree::new(
            LsmConfig {
                buffer_bytes: 1 << 20,
                ..cfg()
            },
            disk,
        );
        let mut wal = Wal::open(&path).unwrap();
        let mut gen = OpGenerator::new(spec(), 5);
        let mut seq = 0u64;
        for _ in 0..300 {
            match gen.next_op() {
                Operation::Put { key, value } => {
                    seq += 1;
                    let e = KvEntry::put(key.clone(), value.clone(), seq);
                    wal.append(&e).unwrap();
                    expected.insert(key.to_vec(), Some(value.to_vec()));
                    tree.put(key, value);
                }
                Operation::Delete { key } => {
                    seq += 1;
                    let e = KvEntry::delete(key.clone(), seq);
                    wal.append(&e).unwrap();
                    expected.insert(key.to_vec(), None);
                    tree.delete(key);
                }
                _ => {}
            }
        }
        wal.sync().unwrap();
        // tree dropped here without flushing: simulated crash.
    }

    // Phase 2: recover into a fresh tree by replaying the log.
    let disk = SimulatedDisk::new(512, CostModel::FREE);
    let mut recovered = FlsmTree::new(cfg(), disk);
    for e in Wal::replay(&path).unwrap() {
        if e.is_tombstone() {
            recovered.delete(e.key);
        } else {
            recovered.put(e.key, e.value);
        }
    }
    for (k, v) in &expected {
        let got = recovered.get(k);
        match v {
            Some(v) => assert_eq!(got.as_deref(), Some(v.as_slice()), "lost write"),
            None => assert_eq!(got, None, "lost delete"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn virtual_latency_is_deterministic_across_runs() {
    let run = || {
        let disk = SimulatedDisk::new(512, CostModel::NVME);
        let mut tree = FlsmTree::new(cfg(), disk);
        drive(&mut tree, 123, 2000);
        tree.storage().clock().now_ns()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "virtual time must be bit-for-bit reproducible");
    assert!(a > 0);
}

#[test]
fn cost_models_scale_latency_not_results() {
    let run = |cost: CostModel| {
        let disk = SimulatedDisk::new(512, cost);
        let mut tree = FlsmTree::new(cfg(), disk);
        let out = drive(&mut tree, 321, 1500);
        (out, tree.storage().clock().now_ns())
    };
    let (out_nvme, t_nvme) = run(CostModel::NVME);
    let (out_sata, t_sata) = run(CostModel::SATA_SSD);
    assert_eq!(out_nvme, out_sata, "device speed must not change semantics");
    assert!(
        t_sata > t_nvme,
        "slower device must accumulate more virtual time"
    );
}
