//! The ledger's one door into the system under test.
//!
//! Every call the ledger makes into `ruskey`, `ruskey-lsm`,
//! `ruskey-storage` and `ruskey-workload` is made in this file, and the
//! types the other files handle are re-exported from here, so a refactor of
//! those crates finds in one place the public entry points that must keep
//! compiling (the README lists them). The `ruskey_bench` library is not
//! used: it is editable code, and benchmark code must be byte-identical on
//! the parent and on the change it measures.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use ruskey::sharded::PersistenceConfig;
use ruskey::{NoOpTuner, RusKey, RusKeyConfig, ServingClient, ServingConfig, ShardedRusKey};
use ruskey_lsm::bloom::Bloom;
use ruskey_lsm::fence::FencePointers;
use ruskey_lsm::memtable::Memtable;
use ruskey_lsm::{KvEntry, Manifest, Wal};
use ruskey_storage::{BlockCache, FileDisk, SimulatedDisk};

pub use ruskey::{MetricsSnapshot, MissionReport};
pub use ruskey_lsm::{FlsmTree, Key, LevelStatsSnapshot, TreeStatsSnapshot};
pub use ruskey_storage::{
    CostModel, Extent, IoCharge, PowerCutPoint, Storage, StorageMetrics, VirtualClock,
};
pub use ruskey_workload::{
    bulk_load_pairs, client_scripts, encode_key, DynamicWorkload, KeyDistribution, OpGenerator,
    OpMix, Operation, WorkloadSpec,
};

use crate::trace::{self, Boundary, SpanKind, TracingStorage};
use crate::util::SplitMix64;

/// The load shape is sized for the two cores of the box the bounds were
/// measured on: two shards, so two worker threads; mission workloads are
/// driven by the main thread, which sleeps while the workers run.
pub const SHARDS: usize = 2;
pub const KEY_LEN: usize = 16;
pub const VALUE_LEN: usize = 112;
/// Operations per mission, the caller's unit of waiting.
pub const MISSION_OPS: usize = 1000;
/// A served client's unit of waiting: this many consecutive closed-loop
/// requests. Shorter than a mission so that a ten-second window yields a
/// thousand samples and its p99 has ten samples beyond it.
pub const SERVED_BATCH: usize = 100;
/// Bounded maintenance steps at a mission boundary, as `RusKey::run_mission`
/// and the shard workers grant them.
const MAINTAIN_STEPS: u64 = 4;

/// A key-value pair as the engine takes it.
pub type Pair = (Key, Key);

fn config(background_maintenance: bool) -> RusKeyConfig {
    let mut cfg = RusKeyConfig::scaled_default();
    cfg.lsm.background_maintenance = background_maintenance;
    cfg
}

/// Per-shard `FileDisk` + `BlockCache` + manifest + WAL under `root`, with
/// the defaults of `PersistenceConfig::new` (4 KiB pages, `CostModel::NVME`,
/// group-commit-only syncs) and the workload's cache size.
fn persistence(root: &Path, cache_pages: usize) -> PersistenceConfig {
    let mut p = PersistenceConfig::new(root);
    p.cache_pages = cache_pages;
    p
}

/// A key that sorts after every key `encode_key` produces, so a lookup of
/// it leaves the tree after the memtable check and one bounds comparison.
pub fn key_beyond_bounds() -> Key {
    Key::from(vec![0xff; KEY_LEN])
}

/// The store a workload drives.
pub enum Engine {
    /// The paper's single-tree store: Lerp-tuned, simulated disk, inline
    /// maintenance.
    Paper(Box<RusKey>),
    /// The persistent sharded store: untuned, background maintenance.
    Sharded(Box<ShardedRusKey>),
}

impl Engine {
    /// Lerp keeps its paper defaults but for one: it never declares a level
    /// converged. Convergence is a discrete event (train for 8 steps a
    /// mission before it, none after) whose mission flips between seeds;
    /// with it on, six seeds gave 25 to 43 kops/s and write amplification
    /// 3.2 to 4.8, which no bound can hold. Without it the model trains
    /// and moves Level 1's policy in every mission, so the tuner's cost and
    /// its decisions are both in every run.
    pub fn open_paper() -> Self {
        let mut cfg = config(false);
        cfg.lerp.min_tune_missions = usize::MAX;
        let disk = SimulatedDisk::new(ruskey_storage::DEFAULT_PAGE_SIZE, CostModel::NVME);
        Engine::Paper(Box::new(RusKey::with_lerp(cfg, disk)))
    }

    /// Creates a fresh persistent store under `root`, wiping a previous one.
    pub fn open_sharded(root: &Path, cache_pages: usize) -> Result<Self, String> {
        ShardedRusKey::try_with_tuner_persistent(
            config(true),
            SHARDS,
            Box::new(NoOpTuner),
            &persistence(root, cache_pages),
        )
        .map(|s| Engine::Sharded(Box::new(s)))
        .map_err(|e| format!("open persistent store: {e}"))
    }

    /// Reopens the store a dropped [`Engine::open_sharded`] left under `root`.
    pub fn recover_sharded(root: &Path, cache_pages: usize) -> Result<Self, String> {
        ShardedRusKey::recover_persistent(
            config(true),
            SHARDS,
            Box::new(NoOpTuner),
            &persistence(root, cache_pages),
        )
        .map(|s| Engine::Sharded(Box::new(s)))
        .map_err(|e| format!("recover persistent store: {e}"))
    }

    pub fn bulk_load(&mut self, pairs: Vec<Pair>) {
        match self {
            Engine::Paper(db) => db.bulk_load(pairs),
            Engine::Sharded(db) => db.bulk_load(pairs),
        }
    }

    pub fn run_mission(&mut self, ops: &[Operation]) -> Result<MissionReport, String> {
        match self {
            Engine::Paper(db) => Ok(db.run_mission(ops)),
            Engine::Sharded(db) => db
                .try_run_mission(ops)
                .map_err(|e| format!("mission failed: {e}")),
        }
    }

    pub fn get(&mut self, key: &[u8]) -> Option<Key> {
        match self {
            Engine::Paper(db) => db.get(key),
            Engine::Sharded(db) => db.get(key),
        }
    }

    /// Every live pair, in key order.
    pub fn scan_all(&mut self) -> Vec<Pair> {
        let (start, end) = ([0u8; 0], [0xffu8; KEY_LEN + 1]);
        match self {
            Engine::Paper(db) => db.scan(&start, &end, usize::MAX),
            Engine::Sharded(db) => db.scan(&start, &end, usize::MAX),
        }
    }

    fn trees(&self) -> Vec<&FlsmTree> {
        match self {
            Engine::Paper(db) => vec![db.tree()],
            Engine::Sharded(db) => (0..db.shard_count()).map(|i| db.shard(i)).collect(),
        }
    }

    /// Lifetime statistics of each shard, each on its own virtual clock.
    pub fn shard_stats(&self) -> Vec<TreeStatsSnapshot> {
        self.trees().iter().map(|t| t.stats()).collect()
    }

    /// Lifetime statistics, merged over shards.
    pub fn tree_stats(&self) -> TreeStatsSnapshot {
        TreeStatsSnapshot::merge_all(&self.shard_stats())
    }

    /// Lifetime page reads and writes of the shards' disks, summed (cache
    /// and sync counters are read from the tree statistics instead).
    pub fn storage_metrics(&self) -> StorageMetrics {
        let mut sum = StorageMetrics::default();
        for m in self.trees().iter().map(|t| t.storage().metrics()) {
            sum.pages_read += m.pages_read;
            sum.pages_written += m.pages_written;
        }
        sum
    }

    pub fn page_size(&self) -> usize {
        self.trees()[0].storage().page_size()
    }

    /// Allocated, unfreed pages over all shards' disks.
    pub fn live_pages(&self) -> u64 {
        self.trees().iter().map(|t| t.storage().live_pages()).sum()
    }

    /// Resident runs and materialized levels, summed over shards.
    pub fn runs_and_levels(&self) -> (u64, u64) {
        let (mut runs, mut levels) = (0, 0);
        for t in self.trees() {
            levels += t.level_count() as u64;
            runs += (0..t.level_count())
                .map(|i| t.level_run_count(i) as u64)
                .sum::<u64>();
        }
        (runs, levels)
    }

    fn sharded(&mut self) -> Result<&mut ShardedRusKey, String> {
        match self {
            Engine::Sharded(db) => Ok(db),
            Engine::Paper(_) => Err("serving needs the sharded store".into()),
        }
    }

    /// Serves `scripts` through `ShardedRusKey::serve`, one closed-loop
    /// client thread per script: a client sends its next request only
    /// after the reply to the previous one, so at most `scripts.len()`
    /// requests are ever in flight.
    pub fn serve_scripts(&mut self, scripts: &[Vec<Operation>]) -> Result<ServeOutcome, String> {
        let store = self.sharded()?;
        let frontend = store
            .serve(ServingConfig::default())
            .map_err(|e| format!("serve: {e}"))?;
        let t0 = Instant::now();
        let clients = thread::scope(|s| {
            let handles: Vec<_> = scripts
                .iter()
                .map(|script| {
                    let client = frontend.client();
                    s.spawn(move || run_client(&client, script))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let window_ns = t0.elapsed().as_nanos() as u64;
        let snapshot = store
            .finish_serving(frontend)
            .map_err(|e| format!("finish serving: {e}"))?;
        Ok(ServeOutcome {
            clients,
            window_ns,
            snapshot,
        })
    }

    /// Times `n` served lookups of [`key_beyond_bounds`] from one client:
    /// zero probes and zero pages, so what is left is submit → queue →
    /// worker → reply.
    pub fn frontend_roundtrips_ns(&mut self, n: usize) -> Result<Vec<u64>, String> {
        let store = self.sharded()?;
        let frontend = store
            .serve(ServingConfig::default())
            .map_err(|e| format!("serve: {e}"))?;
        let client = frontend.client();
        let key = key_beyond_bounds();
        let mut ns = Vec::with_capacity(n);
        let mut errors = 0u64;
        for _ in 0..n {
            let t = Instant::now();
            let reply = client.get(&key);
            ns.push(t.elapsed().as_nanos() as u64);
            errors += u64::from(!matches!(reply, Ok(None)));
        }
        drop(client);
        store
            .finish_serving(frontend)
            .map_err(|e| format!("finish serving: {e}"))?;
        if errors > 0 {
            return Err(format!(
                "{errors} round-trip lookups failed or found a value"
            ));
        }
        Ok(ns)
    }
}

/// What one closed-loop client measured.
#[derive(Debug, Default)]
pub struct ClientOutcome {
    /// Submit → reply per get.
    pub get_ns: Vec<u64>,
    /// Submit → ack per put or delete; the ack follows the fsync.
    pub write_ns: Vec<u64>,
    /// Wall time of every [`SERVED_BATCH`] consecutive requests.
    pub batch_ns: Vec<u64>,
    /// The reply to each get, in script order, checked against the shadow
    /// model after the window closes.
    pub replies: Vec<Option<Key>>,
    /// Requests that returned an error.
    pub errors: u64,
}

/// A finished serving window.
pub struct ServeOutcome {
    pub clients: Vec<ClientOutcome>,
    pub window_ns: u64,
    pub snapshot: MetricsSnapshot,
}

fn run_client(client: &ServingClient, script: &[Operation]) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let mut batch_start = Instant::now();
    for (i, op) in script.iter().enumerate() {
        let t = Instant::now();
        match op {
            Operation::Get { key } => {
                let reply = client.get(key);
                out.get_ns.push(t.elapsed().as_nanos() as u64);
                out.errors += u64::from(reply.is_err());
                out.replies.push(reply.unwrap_or(None));
            }
            Operation::Put { key, value } => {
                let ack = client.put(key.clone(), value.clone());
                out.write_ns.push(t.elapsed().as_nanos() as u64);
                out.errors += u64::from(ack.is_err());
            }
            Operation::Delete { key } => {
                let ack = client.delete(key.clone());
                out.write_ns.push(t.elapsed().as_nanos() as u64);
                out.errors += u64::from(ack.is_err());
            }
            Operation::Scan { start, end, limit } => {
                out.errors += u64::from(client.scan(start, end, *limit).is_err());
            }
        }
        if (i + 1) % SERVED_BATCH == 0 {
            let now = Instant::now();
            out.batch_ns.push((now - batch_start).as_nanos() as u64);
            batch_start = now;
        }
    }
    out
}

/// Where a replay runs the mission boundary (maintenance grant + commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitAt {
    /// After each mission, as `RusKey::run_mission` and a mission lane do.
    MissionEnd,
    /// After every operation, as the serving loop does for a batch of one
    /// (it measures 1.03 writes per commit, so batches of one are the rule):
    /// the maintenance grant always, the commit after a write.
    EveryOp,
}

/// One `FlsmTree` the ledger assembles from public parts, laid out on disk
/// like shard 0 of a persistent store, for the single-threaded replays.
pub struct ReplayTree {
    tree: FlsmTree,
    disk: Arc<FileDisk>,
}

impl ReplayTree {
    /// `traced` puts a [`TracingStorage`] above and below the block cache;
    /// otherwise the stack is exactly the one a persistent shard runs on.
    pub fn open(
        root: &Path,
        cache_pages: usize,
        traced: bool,
        background_maintenance: bool,
    ) -> Result<Self, String> {
        let io = |e: std::io::Error| format!("open replay tree: {e}");
        let p = persistence(root, cache_pages);
        match std::fs::remove_dir_all(p.shard_dir(0)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(io(e)),
            _ => {}
        }
        let disk = FileDisk::new(p.data_dir(0), p.page_size, p.cost).map_err(io)?;
        let storage: Arc<dyn Storage> = if traced {
            let device = TracingStorage::new(disk.clone(), Boundary::Device);
            TracingStorage::new(BlockCache::new(device, cache_pages), Boundary::Cache)
        } else {
            BlockCache::new(Arc::clone(&disk), cache_pages)
        };
        let mut tree = FlsmTree::try_new(config(background_maintenance).lsm, storage)
            .map_err(|e| format!("open replay tree: {e}"))?;
        tree.attach_manifest(Manifest::create(p.manifest_path(0), p.checkpoint_every).map_err(io)?);
        tree.attach_wal(Wal::open_with_sync_every(p.wal_path(0), p.sync_every).map_err(io)?);
        Ok(Self { tree, disk })
    }

    pub fn bulk_load(&mut self, pairs: Vec<Pair>) {
        self.tree.bulk_load(pairs);
    }

    #[cfg(test)]
    pub fn get(&mut self, key: &[u8]) -> Option<Key> {
        self.tree.get(key)
    }

    #[cfg(test)]
    pub fn stats(&self) -> TreeStatsSnapshot {
        self.tree.stats()
    }

    /// `open(2)` calls the file disk issued so far.
    pub fn fds_opened(&self) -> u64 {
        self.disk.fds_opened()
    }

    /// Scratch-buffer allocations the file disk made so far.
    pub fn buffer_grows(&self) -> u64 {
        self.disk.buffer_grows()
    }

    /// Executes `missions` op by op. With `RECORD`, every engine call is a
    /// root span on this thread's sink; without, nothing is timed per call
    /// (the caller times the whole replay).
    pub fn run_missions<const RECORD: bool>(
        &mut self,
        missions: &[Vec<Operation>],
        commit_at: CommitAt,
    ) -> Result<(), String> {
        for ops in missions {
            for op in ops {
                replay_op::<RECORD>(&mut self.tree, op);
                if commit_at == CommitAt::EveryOp {
                    replay_boundary::<RECORD>(&mut self.tree, op.is_write())?;
                }
            }
            if commit_at == CommitAt::MissionEnd {
                replay_boundary::<RECORD>(&mut self.tree, true)?;
            }
        }
        Ok(())
    }
}

#[inline(always)]
fn timed<const RECORD: bool, R>(kind: SpanKind, f: impl FnOnce() -> R) -> R {
    if RECORD {
        trace::span(kind, f)
    } else {
        f()
    }
}

/// One operation, with read results dropped inside the timed call as the
/// engine's own mission loop drops them.
fn replay_op<const RECORD: bool>(tree: &mut FlsmTree, op: &Operation) {
    match op {
        Operation::Get { key } => timed::<RECORD, _>(SpanKind::Get, || {
            black_box(tree.get(key));
        }),
        Operation::Put { key, value } => timed::<RECORD, _>(SpanKind::Put, || {
            tree.put(key.clone(), value.clone());
        }),
        Operation::Delete { key } => timed::<RECORD, _>(SpanKind::Delete, || {
            tree.delete(key.clone());
        }),
        Operation::Scan { start, end, limit } => timed::<RECORD, _>(SpanKind::Scan, || {
            black_box(tree.scan(start, end, *limit));
        }),
    }
}

/// `maintain(4)` unrolled into its `step_maintenance` calls so each is a
/// span, then the commit leg if the batch wrote (a mission lane always
/// runs it; the serving loop only after a batch with writes).
fn replay_boundary<const RECORD: bool>(tree: &mut FlsmTree, commit: bool) -> Result<(), String> {
    if tree.config().background_maintenance {
        for _ in 0..MAINTAIN_STEPS {
            if !timed::<RECORD, _>(SpanKind::MaintainStep, || tree.step_maintenance()) {
                break;
            }
        }
    }
    if commit {
        timed::<RECORD, _>(SpanKind::Commit, || tree.commit_wal_timed())
            .map_err(|e| format!("WAL commit failed: {e}"))?;
    }
    Ok(())
}

/// Timings of a scratch WAL in the data directory.
pub struct WalProbe {
    /// Mean ns per buffered append.
    pub append_ns: f64,
    /// One sample per `append` + `sync` pair, timing the `sync`.
    pub sync_ns: Vec<u64>,
}

pub fn probe_wal(dir: &Path) -> Result<WalProbe, String> {
    const APPENDS: u64 = 10_000;
    const SYNCS: u64 = 500;
    let io = |e: std::io::Error| format!("WAL probe: {e}");
    let path = dir.join("probe.wal");
    let mut wal = Wal::open(&path).map_err(io)?;
    let value = Key::from(vec![0x5a; VALUE_LEN]);
    let entry = |seq: u64| KvEntry::put(encode_key(seq, KEY_LEN), value.clone(), seq);
    let entries: Vec<KvEntry> = (0..APPENDS).map(entry).collect();
    let t = Instant::now();
    for e in &entries {
        wal.append(e).map_err(io)?;
    }
    let append_ns = t.elapsed().as_nanos() as f64 / APPENDS as f64;
    wal.reset().map_err(io)?;
    let mut sync_ns = Vec::with_capacity(SYNCS as usize);
    for seq in APPENDS..APPENDS + SYNCS {
        wal.append(&entry(seq)).map_err(io)?;
        let t = Instant::now();
        wal.sync().map_err(io)?;
        sync_ns.push(t.elapsed().as_nanos() as u64);
    }
    drop(wal);
    std::fs::remove_file(&path).map_err(io)?;
    Ok(WalProbe { append_ns, sync_ns })
}

/// Mean ns of one call of the read path's in-memory steps, on structures
/// sized as one shard of the workload holds them.
pub struct LeafProbe {
    pub bloom_contains_ns: f64,
    pub fence_locate_ns: f64,
    pub memtable_insert_ns: f64,
    pub memtable_get_ns: f64,
}

pub fn probe_leaves(entries_per_shard: u64) -> LeafProbe {
    const CALLS: u64 = 200_000;
    let cfg = config(true).lsm;
    let entry_bytes = KvEntry::put(encode_key(0, KEY_LEN), Key::from(vec![0; VALUE_LEN]), 0)
        .encoded_size() as u64;
    let mut rng = SplitMix64::new(entries_per_shard);
    // Half the probed ids are absent, as on a tree of several runs.
    let ids: Vec<Key> = (0..CALLS)
        .map(|_| encode_key(rng.below(2 * entries_per_shard), KEY_LEN))
        .collect();
    let per_call = |t: Instant, calls: u64| t.elapsed().as_nanos() as f64 / calls as f64;

    let keys: Vec<Key> = (0..entries_per_shard)
        .map(|id| encode_key(id, KEY_LEN))
        .collect();
    let bits = cfg.bloom.bits_for_level(0, cfg.size_ratio);
    let bloom = Bloom::build(keys.iter().map(|k| k.as_ref()), keys.len(), bits);
    let t = Instant::now();
    for k in &ids {
        black_box(bloom.contains(k));
    }
    let bloom_contains_ns = per_call(t, CALLS);

    let per_page = (ruskey_storage::DEFAULT_PAGE_SIZE as u64 / entry_bytes).max(1);
    let fence = FencePointers::new(keys.iter().step_by(per_page as usize).cloned().collect());
    let t = Instant::now();
    for k in &ids {
        black_box(fence.locate(k));
    }
    let fence_locate_ns = per_call(t, CALLS);

    // A memtable filled to the write buffer, refilled until enough calls.
    let buffered = (cfg.buffer_bytes / entry_bytes).max(1);
    let value = Key::from(vec![0x5a; VALUE_LEN]);
    let fill: Vec<KvEntry> = (0..buffered)
        .map(|i| {
            KvEntry::put(
                encode_key(rng.below(entries_per_shard), KEY_LEN),
                value.clone(),
                i,
            )
        })
        .collect();
    let rounds = CALLS.div_ceil(buffered);
    let mut memtable = Memtable::new();
    let t = Instant::now();
    for _ in 0..rounds {
        memtable = Memtable::new();
        for e in &fill {
            memtable.insert(e.clone());
        }
    }
    let memtable_insert_ns = per_call(t, rounds * buffered);
    let t = Instant::now();
    for k in &ids {
        black_box(memtable.get(k));
    }
    let memtable_get_ns = per_call(t, CALLS);

    LeafProbe {
        bloom_contains_ns,
        fence_locate_ns,
        memtable_insert_ns,
        memtable_get_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decorator must not change what the engine does: a decorated and
    /// a bare tree fed the same operations return the same gets and end
    /// with the same statistics, virtual clock included.
    #[test]
    fn tracing_storage_is_transparent() {
        let root = crate::run::scratch_dir("transparent");
        let pairs = bulk_load_pairs(3000, KEY_LEN, VALUE_LEN, 5);
        let spec = WorkloadSpec {
            mix: OpMix {
                lookup: 0.45,
                update: 0.4,
                delete: 0.1,
                scan: 0.05,
            },
            ..WorkloadSpec::scaled_default(3000)
        };
        let missions: Vec<Vec<Operation>> = {
            let mut g = OpGenerator::new(spec, 6);
            (0..10).map(|_| g.take_ops(200)).collect()
        };
        let run = |traced: bool| {
            let mut t =
                ReplayTree::open(&root.join(format!("t{traced}")), 64, traced, true).unwrap();
            t.bulk_load(pairs.clone());
            trace::start_recording(16_384);
            t.run_missions::<true>(&missions, CommitAt::MissionEnd)
                .unwrap();
            let spans = trace::stop_recording();
            let gets: Vec<Option<Key>> = (0..3200)
                .map(|id| t.get(&encode_key(id, KEY_LEN)))
                .collect();
            (gets, t.stats(), spans)
        };
        let (traced_gets, traced_stats, traced_spans) = run(true);
        let (bare_gets, bare_stats, bare_spans) = run(false);
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(traced_gets, bare_gets);
        assert_eq!(traced_stats, bare_stats);
        assert!(traced_stats.flushes > 0 && traced_stats.cache_misses > 0);
        // Same roots either way; only the traced stack adds storage spans.
        let roots = |s: &[trace::Span]| trace::reduce(s).roots;
        assert_eq!(roots(&traced_spans), roots(&bare_spans));
        assert!(traced_spans.len() > bare_spans.len());
        let r = trace::reduce(&traced_spans);
        assert_eq!(r.malformed, 0);
        assert_eq!(
            r.lsm_self_ns() + r.cache_self_ns + r.file_self_ns(),
            r.root_ns
        );
    }
}
