//! Bulk-load harness: a store loads every shard on its own lane.
//!
//! `RusKey::bulk_load` partitions the pairs by key hash and loads each
//! shard's tree on one lane — lane 0 on the caller's thread, the others
//! on scoped threads — and every tree loads in one pass over its sorted
//! pairs. At `N ∈ {1, 2, 4}` four things must hold:
//!
//! 1. **Determinism on disk**: two fresh roots loaded with the same pairs
//!    are byte-identical, every file of every shard directory (extents,
//!    manifest, WAL), however the lanes were scheduled.
//! 2. **Lanes**: the load ran on `N` distinct threads, lane 0 the caller's.
//! 3. **Accounting**: the first mission's window excludes the load: it is
//!    the merge of every shard's delta from where its load ended.
//! 4. **Restart**: recovering either root gives identical
//!    `shard_snapshots()` and reads, and every loaded pair reads back.
//! 5. **Pinned bytes**: a fresh root hashes to a recorded digest, so a
//!    change to how runs are built cannot move a byte on disk or an
//!    extent id (the block cache picks a page's segment by its id).

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use bytes::Bytes;

use ruskey_repro::lsm::TreeStatsSnapshot;
use ruskey_repro::ruskey::db::RusKeyConfig;
use ruskey_repro::ruskey::sharded::{Backend, PersistenceConfig, RusKey};
use ruskey_repro::ruskey::tuner::NoOpTuner;
use ruskey_repro::storage::{
    CostModel, Extent, IoCharge, SimulatedDisk, Storage, StorageMetrics, VirtualClock,
};
use ruskey_repro::workload::{bulk_load_pairs, OpGenerator, OpMix, WorkloadSpec};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const PAIRS: u64 = 3000;

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A unique, empty store root per scenario (parallel tests must not share).
fn store_root(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("ruskey-bulk-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A persistent store under `root` with 512-byte pages: every level of
/// a 3000-pair load holds several pages, so the load writes many extents.
fn persistence(root: &Path) -> PersistenceConfig {
    let mut p = PersistenceConfig::new(root);
    p.page_size = 512;
    p
}

/// A small buffer and `T = 4`, so a load spans several levels.
fn small_cfg() -> RusKeyConfig {
    let mut cfg = RusKeyConfig::scaled_default();
    cfg.lsm.buffer_bytes = 4096;
    cfg.lsm.size_ratio = 4;
    cfg
}

fn open(shards: usize, backend: Backend<'_>) -> RusKey {
    RusKey::open(small_cfg(), shards, Box::new(NoOpTuner), backend).expect("open")
}

fn pairs() -> Vec<(Bytes, Bytes)> {
    bulk_load_pairs(PAIRS, 16, 48, 17)
}

/// Every file under `dir`, by path relative to it, with its bytes.
fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut todo = vec![dir.to_path_buf()];
    while let Some(d) = todo.pop() {
        for entry in std::fs::read_dir(&d).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                todo.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("read file");
                out.insert(path.strip_prefix(dir).unwrap().to_path_buf(), bytes);
            }
        }
    }
    out
}

/// Every loaded key's value, then one scan over the whole key space.
fn reads(db: &mut RusKey, pairs: &[(Bytes, Bytes)]) -> (Vec<Option<Bytes>>, Vec<(Bytes, Bytes)>) {
    let gets = pairs.iter().map(|(k, _)| db.get(k)).collect();
    let scan = db.scan(&[0u8; 16], &[0xffu8; 16], usize::MAX);
    (gets, scan)
}

/// Checks 1 and 4: two roots loaded alike hold the same bytes, and
/// recovering either gives the same snapshots and reads, with every
/// loaded pair in them.
#[test]
fn loads_are_byte_identical_and_survive_a_restart() {
    let pairs = pairs();
    for n in SHARD_COUNTS {
        let roots = [store_root("a"), store_root("b")];
        let configs = roots.each_ref().map(|root| persistence(root));
        for p in &configs {
            let mut db = open(n, Backend::Create(p));
            db.bulk_load(pairs.clone());
        }
        let [a, b] = roots.each_ref().map(|root| files(root));
        assert_eq!(
            a.keys().collect::<Vec<_>>(),
            b.keys().collect::<Vec<_>>(),
            "N = {n}: the roots hold different files"
        );
        for (path, bytes) in &a {
            assert!(bytes == &b[path], "N = {n}: {} differs", path.display());
        }
        assert!(a.len() > 3 * n, "N = {n}: every shard wrote extents");

        let [mut ra, mut rb] = configs.each_ref().map(|p| open(n, Backend::Recover(p)));
        assert_eq!(
            ra.shard_snapshots(),
            rb.shard_snapshots(),
            "N = {n}: recovery"
        );
        let read = reads(&mut ra, &pairs);
        assert_eq!(read, reads(&mut rb, &pairs), "N = {n}: reads");
        let want: Vec<_> = pairs.iter().map(|(_, v)| Some(v.clone())).collect();
        assert_eq!(read.0, want, "N = {n}: a loaded pair is missing");
        assert_eq!(read.1.len(), pairs.len(), "N = {n}: scan");
        drop((ra, rb));
        roots.iter().for_each(|root| {
            let _ = std::fs::remove_dir_all(root);
        });
    }
}

/// A simulated disk that notes which threads allocate extents, in a set
/// every shard's disk shares: a load allocates one per run, on the lane
/// that loads the run's shard.
struct ThreadLog {
    disk: Arc<dyn Storage>,
    threads: Arc<Mutex<HashSet<ThreadId>>>,
}

impl Storage for ThreadLog {
    fn page_size(&self) -> usize {
        self.disk.page_size()
    }

    fn allocate(&self, pages: u32) -> Extent {
        self.threads.lock().unwrap().insert(thread::current().id());
        self.disk.allocate(pages)
    }

    fn write_page(&self, ext: Extent, idx: u32, data: &[u8]) -> IoCharge {
        self.disk.write_page(ext, idx, data)
    }

    fn try_read_page(&self, ext: Extent, idx: u32, buf: &mut Vec<u8>) -> std::io::Result<IoCharge> {
        self.disk.try_read_page(ext, idx, buf)
    }

    fn free(&self, ext: Extent) {
        self.disk.free(ext)
    }

    fn metrics(&self) -> StorageMetrics {
        self.disk.metrics()
    }

    fn clock(&self) -> &VirtualClock {
        self.disk.clock()
    }

    fn cost_model(&self) -> CostModel {
        self.disk.cost_model()
    }

    fn live_pages(&self) -> u64 {
        self.disk.live_pages()
    }
}

/// Checks 2 and 3: the load runs on `N` distinct threads, the caller's
/// among them, and the first mission's window holds its 50 lookups and
/// nothing of the load's (much larger) device time.
#[test]
fn every_shard_loads_on_its_own_lane_outside_the_first_window() {
    for n in SHARD_COUNTS {
        let threads = Arc::new(Mutex::new(HashSet::new()));
        let logs = (0..n)
            .map(|_| {
                Arc::new(ThreadLog {
                    disk: SimulatedDisk::new(512, CostModel::NVME),
                    threads: Arc::clone(&threads),
                }) as Arc<dyn Storage>
            })
            .collect();
        let mut db = open(n, Backend::Volatile(logs));
        db.bulk_load(pairs());
        let threads = threads.lock().unwrap().clone();
        assert_eq!(threads.len(), n, "N = {n}: one thread per lane");
        assert!(
            threads.contains(&thread::current().id()),
            "N = {n}: lane 0 left its caller"
        );

        let spec = WorkloadSpec {
            key_space: PAIRS,
            value_len: 48,
            ..WorkloadSpec::scaled_default(PAIRS)
        }
        .with_mix(OpMix::reads(1.0));
        let loaded = db.shard_snapshots();
        let r = db.run_mission(&OpGenerator::new(spec, 2).take_ops(50));
        let w = &r.window;
        assert_eq!((r.ops, w.lookups, w.updates), (50, 50, 0), "N = {n}");
        let after = db.shard_snapshots();
        let deltas: Vec<_> = after.iter().zip(&loaded).map(|(a, b)| a.delta(b)).collect();
        assert_eq!(
            w,
            &TreeStatsSnapshot::merge_all(&deltas),
            "N = {n}: the window must start where the load ended"
        );
        let load_busy: u64 = loaded.iter().map(|s| s.busy_ns).sum();
        assert!(load_busy > w.busy_ns, "N = {n}: the load cost nothing");
    }
}

/// FNV-1a over every file's relative path, length and bytes, in path
/// order.
fn digest(files: &BTreeMap<PathBuf, Vec<u8>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (path, bytes) in files {
        eat(path.to_string_lossy().as_bytes());
        eat(&(bytes.len() as u64).to_le_bytes());
        eat(bytes);
    }
    h
}

/// Check 5: a freshly loaded root, every file name and byte of it, hashes
/// to the digest recorded when each run was still written whole (the
/// extent and WAL files' bytes; the manifest's are those of its two
/// snapshot slots). With 8192 pairs the two bottom runs of each shard
/// span more than 256 pages at `N ∈ {1, 2}`, so a run's pages reach the
/// device before an earlier run's do.
#[test]
fn a_loaded_root_holds_the_pinned_bytes() {
    const WANT: [(usize, u64); 3] = [
        (1, 4_841_534_967_191_344_699),
        (2, 10_971_184_563_155_446_619),
        (4, 1_760_004_928_745_678_764),
    ];
    let pairs = bulk_load_pairs(8192, 16, 48, 17);
    for (n, want) in WANT {
        let root = store_root("pinned");
        open(n, Backend::Create(&persistence(&root))).bulk_load(pairs.clone());
        let files = files(&root);
        let got = digest(&files);
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(got, want, "N = {n}: the loaded root's bytes moved");
    }
}
