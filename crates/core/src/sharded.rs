//! The sharded engine core: hash-partitioned FLSM shards behind one store.
//!
//! [`RusKey`] is the store — the only place a mission runs. Keys
//! are hash-partitioned onto `N` independent [`FlsmTree`] shards (each with
//! its own memtable, levels and storage device), and a
//! mission executes as one **lane** per shard, in parallel — lane 0 on the
//! caller's thread, the others on scoped threads that live exactly as long
//! as the mission — with operations routed by the stable key hash of
//! [`ruskey_workload::routing`]. A store-wide range scan streams every
//! shard's lazy scan through one k-way merge into one sorted result, and a
//! bulk load deals its pairs onto their shards, shard 0's staying in the
//! input's buffer. The paper's single-tree system is this store opened
//! with one shard — one lane on the caller's thread, one tuner seat — so
//! all paper experiments run the loop below.
//!
//! The tuners sit in one **seat list**, one seat per shard, walked by one
//! loop after every mission (`tune_seats`, the only caller of
//! [`Tuner::tune`]): the paper's loop, once per shard. Seat 0 is the
//! [`Tuner`] (Lerp or a baseline) the store was opened with and seat `i`
//! is its [`Tuner::for_shard`]`(i)`. A seat reads its shard's *own*
//! reward slice — the shard's time-domain delta priced with its own
//! commit leg, not an ops-weighted average that lets idle siblings mask a
//! saturated shard — and its shard's [`TreeObservation`], and its policy
//! changes land on that shard only, so under skew each shard's tree
//! converges to *its* workload. A seat whose shard ran no operation is
//! skipped. With one shard the slice is the mission's [`MissionReport`],
//! which is the paper's single-tree loop exactly
//! (`tests/tuning_equivalence.rs` pins both shapes with goldens).
//!
//! ## Lanes: the tree never leaves the store
//!
//! Outside a serving session the store is the only home of a shard's
//! [`FlsmTree`]: the trees sit in a plain `Vec`, and whoever needs one
//! borrows it. The store owns **no thread**: whatever runs per shard runs
//! as one **lane** per shard under one function, `run_on_lanes`, which
//! spawns lanes `1..N` on [`std::thread::scope`] threads, runs lane 0 on
//! the caller's thread beside them, and joins them before it returns,
//! each lane's result in shard order — a one-shard store spawns nothing,
//! and dropping a store joins nothing. Three things run on lanes: opening
//! (each lane wipes and creates, or recovers, its shard's tree), bulk
//! loading (each lane loads its shard's pairs) and missions.
//!
//! A mission is one lane per shard (an empty lane still takes its
//! boundary grant and its commit leg), handed to `run_on_lanes` by
//! `run_lanes` over `shards.iter_mut()`. A lane **borrows**
//! its operations too: one [`partition_ops`] call hands each lane a
//! `Vec` of references into the caller's slice (a broadcast scan is one
//! operation every lane points at), which the scope makes legal. Each lane
//! is `exec::run_batch` on its `&mut FlsmTree` (execute each operation,
//! grant the boundary, run the commit leg), so the per-shard fsyncs
//! overlap. The group-commit barrier is the same runner with empty lanes
//! and no boundary. Disjoint `&mut` borrows are the whole protocol:
//! nothing is shipped, nothing is locked.
//!
//! **Panics**: a panic inside a lane (an engine bug — or the
//! `inject_worker_panic` test hook) is caught on the thread that ran it,
//! the caller's included, so the sibling lanes run to the end (and, on a
//! persistent store, commit — a partially applied batch, which is why a
//! failed store must be reopened with [`Backend::Recover`] rather than
//! retried in place). The dispatch then **fences** the shard: it returns
//! [`StoreError::ShardPanicked`], every later mission, barrier and
//! [`RusKey::serve`] fails fast with
//! [`StoreError::ShardFenced`] *before* touching any tree, ad-hoc
//! calls and [`RusKey::shard`] panic naming the shard, and the
//! half-changed tree is never read again (its siblings stay readable for
//! the post-mortem). A client that panics inside a shard's lock while
//! serving fences the shard the same way at
//! [`RusKey::finish_serving`] — one death protocol.
//! [`RusKey::run_mission`] converts these errors into a panic with
//! the shard named; [`RusKey::try_run_mission`] returns them.
//!
//! ## Time domains: exact accounting under parallelism
//!
//! Each shard owns a private **time domain**: its tree runs on its own
//! device, whose [`VirtualClock`](ruskey_storage::VirtualClock) and
//! metrics receive only that shard's charges. The domain belongs to the
//! device, not to a thread, so charges are exact no matter which thread
//! currently borrows the tree. At the store level the domains compose two
//! ways:
//!
//! * **mission wall time** (`clock_ns` of [`MissionReport::window`]) —
//!   the max over the participating shards' per-domain deltas (the
//!   mission is as slow as its busiest shard);
//! * **device-busy time** (the window's `busy_ns`) — the sum over the
//!   domains (total virtual work placed on the shards' devices).
//!
//! A mission's report is a window over the trees' statistics: the store
//! keeps one baseline snapshot per shard, deltas every shard against its
//! *own* baseline and merges the deltas, which is what makes both
//! readings exact (max-of-deltas is not delta-of-maxes). Ad-hoc
//! point/scan calls between missions fold into the next mission's window
//! (as they always have); broadcast scans among them are tracked so the
//! report still counts every scan logically once.
//!
//! ## Full-store persistence: per-shard `FileDisk`, manifest and WAL
//!
//! A store opened on [`Backend::Create`] gives every shard its own
//! directory ([`PersistenceConfig`]): an independent
//! [`FileDisk`] for its data pages (private
//! file handles, so the sharded real-file path takes no lock across
//! shards, and each disk's clock is the shard's time domain; the file of
//! a freed run waits in a one-file reserve and the next run overwrites
//! it, so a flush replacing the Level-1 active run creates, unlinks and
//! names no file, and its directory sync is skipped), a
//! [`Manifest`] that commits a snapshot of the shard's run/level structure
//! after every structural step into two alternating slot files, and the
//! shard's WAL ([`PersistenceConfig::wal_path`]).
//!
//! A put/delete is appended to its shard's log *before* the memtable
//! insert, without syncing per record. Every mission ends with a
//! **group-commit barrier**: each lane runs its shard's commit leg
//! ([`FlsmTree::commit_wal_timed`] — at most one fsync) as soon as its
//! operations finish, so the per-shard fsyncs run *concurrently* instead
//! of one after another. The batch's records become
//! acknowledged together at one sync per shard per mission, and the
//! barrier costs the max over the shards' legs, not their sum:
//! [`MissionReport::commit_ns`] is that max (the batch's durability
//! latency), [`MissionReport::commit_busy_ns`] the sum (the total sync
//! work, what a sequential barrier would have paid). A shard that crashes
//! mid-leg fails the mission but does not stop its siblings' fsyncs —
//! their batches commit, and the crash harness pins exactly which shards'
//! records became durable.
//! Outside missions, [`RusKey::group_commit`] runs the same
//! overlapped barrier on demand.
//!
//! The ordering contract — data pages, then manifest commit, then WAL
//! recycling, with obsolete pages freed (and their files reserved for
//! reuse) only after the commit is durable — means
//! reopening a dropped store on [`Backend::Recover`] always rebuilds a
//! consistent store: each manifest's newest valid snapshot gives the
//! levels back, every recorded run is rebuilt from its pages
//! (fences and Bloom filters re-derived identically), and the WAL tail
//! replays on top (valid prefix only, order pinned by record sequence
//! numbers), so the recovered store is get/scan-identical to the one that
//! was dropped. A shard whose manifest cannot be read — another format
//! version, or no valid snapshot beside extent files — fails the open
//! with [`StoreError::Manifest`] and deletes nothing.
//! `tests/persistence_restart.rs` pins restart equivalence at
//! `N ∈ {1, 2, 4}`; `tests/crash_recovery.rs` pins the recovery contract
//! with each shard's [`ruskey_storage::FaultPlan`] ([`FlsmTree::faults`]):
//! a fault armed at every WAL and manifest site for `N ∈ {1, 2, 4}`, a
//! power cut at both storage barriers, and failed extent, recycle, trim
//! and unlink calls.
//!
//! ## Ad-hoc operations and serving
//!
//! The plain KV interface (`get`/`put`/`delete`/`scan` between missions)
//! runs on the caller's thread: each call is `exec::execute` on the owning
//! shard's tree (a scan: a lazy `FlsmTree::range_scan` on every shard at
//! once, k-way merged, each shard's then drained to its own limit), with no
//! commit leg — durability waits for the next barrier — so its charges
//! land in the shard's own time domain. Every 32nd ad-hoc *write* per
//! shard (`ADHOC_BOUNDARY_OPS`) is a boundary — the one place that decides
//! when an ad-hoc write earns the grant every lane and served request
//! ends with. *What* a boundary grants is written once, in the tree
//! ([`FlsmTree::maintain_boundary`], a no-op with inline maintenance) —
//! so a put-heavy ad-hoc caller sees the exact backpressure and
//! `stall_ns` attribution a mission would. For *many concurrent
//! callers*, [`RusKey::serve`] moves every tree into a
//! [`ServingFrontend`], behind a per-shard lock, and each client runs its
//! requests **on its own thread**: lock, the same three calls of `exec`,
//! unlock, with a write's fsync shared across clients outside the lock.
//! For the length of the session the store has no trees, and
//! [`RusKey::finish_serving`] takes them back — see
//! [`crate::frontend`] for the client path, the group commit and the live
//! metrics.
//!
//! ## Opening a store
//!
//! [`RusKey::open`]`(cfg, shards, tuner, backend)` is the one opener, over
//! three [`Backend`]s: `Volatile` (one given device per shard, nothing
//! survives a drop), `Create` (a fresh directory per shard) and `Recover`
//! (reopen what a dropped persistent store left). It validates once,
//! checks the previous incarnation, wipes and builds each shard's tree
//! on its own lane with its logs attached or recovered (the first
//! failure in shard order is the one returned), seats `tuner` on shard 0 and
//! `tuner.for_shard(i)` on shard `i`, and — recovering — baselines the
//! statistics. Every failure, opening a store or running it, is one
//! [`StoreError`].

use std::collections::{BinaryHeap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::slice;
use std::sync::Arc;
use std::thread::{self, ThreadId};
use std::time::Instant;

use bytes::Bytes;
use ruskey_lsm::{ConfigError, FlsmTree, Manifest, ManifestError, TreeStatsSnapshot, Wal};
use ruskey_storage::{BlockCache, CostModel, FileDisk, Storage};
use ruskey_workload::routing::{partition_ops, shard_for_key};
use ruskey_workload::Operation;

use crate::db::RusKeyConfig;
use crate::exec::{execute, run_batch, CommitLeg, OpResult};
use crate::frontend::{MetricsSnapshot, ServingConfig, ServingFrontend};
use crate::lerp::Lerp;
use crate::stats::MissionReport;
use crate::tuner::{TreeObservation, Tuner};

/// Full-store persistence settings: where each shard's on-disk state
/// lives and how the two logs behave.
///
/// A persistent store gives every shard its **own directory** under
/// `root`, holding an independent [`FileDisk`] (its own file handles —
/// shards never serialize against each other on the real-file path), a
/// [`Manifest`] recording the shard's run/level structure in two slot
/// files, and a WAL for its write buffer:
///
/// ```text
/// root/
///   shard-0/ data/extent-*.run  MANIFEST  MANIFEST.1  wal
///   shard-1/ data/extent-*.run  MANIFEST  MANIFEST.1  wal
///   ...
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PersistenceConfig {
    /// Root directory of the store; one subdirectory per shard.
    pub root: PathBuf,
    /// Page size of the per-shard file disks.
    pub page_size: usize,
    /// Cost model charged for the (real) page I/O, keeping virtual-time
    /// accounting comparable with the simulated backend.
    pub cost: CostModel,
    /// Per-shard WAL auto-fsync cadence (records); 0 relies solely on
    /// the cross-shard group-commit barrier.
    pub sync_every: u64,
    /// Ignored: the manifest commits whole snapshots and needs no
    /// compaction. The field stays only for callers that still set it.
    pub checkpoint_every: u64,
    /// Per-shard block-cache capacity in pages; each shard's
    /// [`FileDisk`] serves reads through its own sharded LRU
    /// [`BlockCache`] of this size. 0 disables caching entirely (reads
    /// always reach the file).
    pub cache_pages: usize,
}

impl PersistenceConfig {
    /// Defaults: 4 KiB pages, the NVMe cost model, group-commit-only WAL
    /// syncs, and a 4096-page (16 MiB) block cache per shard.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            page_size: ruskey_storage::DEFAULT_PAGE_SIZE,
            cost: CostModel::NVME,
            sync_every: 0,
            checkpoint_every: 1024,
            cache_pages: 4096,
        }
    }

    /// Builds one shard's storage stack: a [`FileDisk`] over its data
    /// directory (created if absent), served through a [`BlockCache`]
    /// when `cache_pages > 0`.
    fn open_disk(&self, shard: usize) -> std::io::Result<Arc<dyn Storage>> {
        let disk = FileDisk::new(self.data_dir(shard), self.page_size, self.cost)?;
        Ok(match self.cache_pages {
            0 => disk,
            pages => BlockCache::new(disk, pages),
        })
    }

    /// One shard's directory.
    pub fn shard_dir(&self, shard: usize) -> PathBuf {
        self.root.join(format!("shard-{shard}"))
    }

    /// One shard's data-page directory (its `FileDisk` root).
    pub fn data_dir(&self, shard: usize) -> PathBuf {
        self.shard_dir(shard).join("data")
    }

    /// One shard's manifest path (its first slot; the second is
    /// [`Manifest::slot_paths`]' sibling).
    pub fn manifest_path(&self, shard: usize) -> PathBuf {
        self.shard_dir(shard).join("MANIFEST")
    }

    /// One shard's WAL path.
    pub fn wal_path(&self, shard: usize) -> PathBuf {
        self.shard_dir(shard).join("wal")
    }

    /// Number of shards the on-disk layout describes (highest `shard-<i>`
    /// directory index + 1), or 0 for a fresh root (or no root).
    pub(crate) fn shards_described(&self) -> std::io::Result<usize> {
        let entries = match std::fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut described = 0;
        for entry in entries {
            let name = entry?.file_name();
            let idx = name
                .to_string_lossy()
                .strip_prefix("shard-")
                .map(str::parse);
            described = described.max(idx.and_then(Result::ok).map_or(0, |i: usize| i + 1));
        }
        Ok(described)
    }
}

/// Why a store could not be opened, or could not run a mission, barrier
/// or serving session.
///
/// A panic inside a shard is terminal: the store reports it cleanly
/// (instead of hanging or limping on with a half-changed shard) and
/// refuses all further work. On the dispatch that *discovers* it the
/// sibling lanes still run to the end (and, on a persistent store,
/// commit): a partially applied batch. Callers must treat the store as
/// failed and, if persistent, reopen it with [`Backend::Recover`]; every
/// later dispatch fails fast before touching any tree.
#[derive(Debug)]
pub enum StoreError {
    /// The LSM configuration was rejected.
    Config(ConfigError),
    /// A store file (WAL, manifest, extent, directory) could not be
    /// created, read or synced — or the root holds a file this build
    /// refuses to recover (`ErrorKind::InvalidData`).
    Io(std::io::Error),
    /// Recovery found a store root that describes a different shard
    /// count than the one asked for — proceeding would drop or misroute
    /// its acknowledged writes.
    ShardCountMismatch {
        /// Number of shards the store root describes (highest
        /// `shard-<i>` directory index + 1).
        described: usize,
        /// The shard count recovery was asked for.
        shards: usize,
    },
    /// A shard's lane panicked while executing — or, while serving, a
    /// client panicked inside the shard's lock. The shard's tree was left
    /// half-changed and is fenced off: the store is permanently
    /// unavailable.
    ShardPanicked {
        /// The shard that died.
        shard: usize,
    },
    /// An earlier panic fenced `shard`. Nothing was executed and no tree
    /// was touched.
    ShardFenced {
        /// The fenced shard.
        shard: usize,
    },
    /// The trees are away in a serving session until
    /// [`RusKey::finish_serving`]. Nothing was executed and no tree was
    /// touched.
    Serving,
    /// A shard's manifest cannot be recovered: a slot was written by
    /// another format version, or no slot holds a valid snapshot while the
    /// shard's data directory holds extents. Nothing was deleted.
    Manifest {
        /// The shard whose manifest was refused.
        shard: usize,
        /// Why.
        error: ManifestError,
    },
    /// A shard's commit leg failed (the first failing shard, if several
    /// failed in one barrier): its WAL hit a real I/O error, or the
    /// shard's process had died ([`RusKey::crashed`]). The store itself
    /// stays alive: the batch's lanes were applied, but the failing
    /// shard's records are not acknowledged.
    Wal {
        /// The shard whose log failed.
        shard: usize,
        /// The underlying I/O error.
        error: std::io::Error,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Config(e) => write!(f, "invalid configuration: {e}"),
            StoreError::Io(e) => write!(f, "store I/O failed: {e}"),
            StoreError::ShardCountMismatch { described, shards } => write!(
                f,
                "store root describes {described} shards but recovery was asked \
                 for {shards}; the routing hash keys on the shard count, so a \
                 mismatch would drop or misroute acknowledged writes"
            ),
            StoreError::ShardPanicked { shard } => {
                write!(f, "shard {shard} panicked; the store is dead")
            }
            StoreError::ShardFenced { shard } => write!(
                f,
                "shard {shard} is fenced by an earlier panic; nothing was executed"
            ),
            StoreError::Serving => write!(f, "{AWAY_SERVING}; nothing was executed"),
            StoreError::Manifest { shard, error } => write!(f, "shard {shard}: {error}"),
            StoreError::Wal { shard, error } => {
                write!(f, "shard {shard}'s WAL commit failed: {error}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(error) | StoreError::Wal { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<ConfigError> for StoreError {
    fn from(e: ConfigError) -> Self {
        StoreError::Config(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Ad-hoc writes per shard between boundary grants — the one place that
/// decides *when* an ad-hoc write is a boundary (a mission lane and a
/// served request end in one by construction). What a boundary grants is
/// the tree's business: [`FlsmTree::maintain_boundary`].
const ADHOC_BOUNDARY_OPS: u64 = 32;

/// Said by every read of a tree that is not there to be read.
const AWAY_SERVING: &str = "the trees are away serving until `finish_serving`";

/// An RL-tuned key-value store over `N` hash-partitioned FLSM shards,
/// whose missions run one lane per shard in parallel; opened by
/// [`RusKey::open`]. At `N = 1` it is the paper's single-tree system.
pub struct RusKey {
    /// One tree per shard, borrowed by whoever runs an operation. Empty
    /// only while a serving session holds the trees.
    shards: Vec<FlsmTree>,
    /// The tuner seats, one per shard in shard order, walked by one loop
    /// after every mission (`tune_seats`).
    seats: Vec<Box<dyn Tuner>>,
    /// Each shard's statistics where the next mission's window opens, in
    /// shard order.
    baselines: Vec<TreeStatsSnapshot>,
    /// Missions reported so far: the next report's `mission_idx`.
    missions: u64,
    /// The OS thread that ran each shard's lane in the last mission or
    /// barrier, in shard order; entry 0 is that dispatch's caller.
    last_workers: Vec<ThreadId>,
    /// Ad-hoc [`RusKey::scan`] calls since the last mission report
    /// (or baseline). Each one broadcast to every shard, so the next
    /// mission's physical scan delta includes them `N` times; tracking
    /// them keeps the broadcast invariant exact.
    adhoc_scans: u64,
    /// Lifetime ad-hoc writes per shard: every [`ADHOC_BOUNDARY_OPS`]-th
    /// one is a maintenance boundary. One entry per shard in every state,
    /// so this is also the shard count while the trees are away.
    adhoc_writes: Vec<u64>,
    /// The fenced shard: something panicked inside it (a lane, or a client
    /// of a serving session) and left its tree half-changed. Every later
    /// mission, barrier and `serve` fails fast with
    /// [`StoreError::ShardFenced`] *before* touching any tree, so
    /// a dead engine applies at most one partial batch (the dispatch that
    /// discovered the death) and never more.
    dead: Option<usize>,
    /// Test hook: the shard whose next lane panics.
    doomed: Option<usize>,
}

/// Where a store's shards keep their state, and whether a persistent
/// store starts fresh or continues.
pub enum Backend<'a> {
    /// One device per shard, in shard order: shard `i`'s tree runs on
    /// `devices[i]`, whose clock is the shard's time domain, so per-shard
    /// time and I/O attribution is exact under parallel missions. A
    /// device's clock and metrics count everything ever run on it, so a
    /// reused device shows earlier work in a shard's statistics: compare
    /// deltas, as [`MissionReport`]s do. Nothing survives a drop.
    Volatile(Vec<Arc<dyn Storage>>),
    /// A fresh persistent store: every shard gets its own directory under
    /// the root, with an independent [`FileDisk`] for its data pages, a
    /// [`Manifest`] recording its run/level structure (a snapshot
    /// committed on every flush, compaction and transition) and a WAL
    /// for its write buffer (one fsync per shard per mission via the
    /// group-commit barrier). Any previous incarnation under the root is
    /// wiped first, shard directories beyond the new count included.
    Create(&'a PersistenceConfig),
    /// Reopens the persistent store a dropped one left under the root:
    /// each shard reopens its [`FileDisk`] directory, takes its
    /// manifest's newest valid snapshot as the run/level structure
    /// (rebuilding every run from its data pages, with fence
    /// pointers and Bloom filters re-derived identically), and replays
    /// its WAL tail on top — so the recovered store is get/scan-identical
    /// to the store that was dropped. The same shard count that produced
    /// the layout must be passed (the routing hash keys on it); any other
    /// count is refused. So is a root holding a routes file: its keys do
    /// not live on their hash shard. So is a shard whose manifest has
    /// another format version, or no valid snapshot beside extent files
    /// ([`StoreError::Manifest`]).
    Recover(&'a PersistenceConfig),
}

/// Removes a file or directory tree; one that is already absent is fine.
fn wipe(path: &Path) -> std::io::Result<()> {
    let removed = if path.is_dir() {
        std::fs::remove_dir_all(path)
    } else {
        std::fs::remove_file(path)
    };
    match removed {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Runs one lane per shard — `lanes` yields them in shard order — and
/// returns each lane's outcome in that order: its value, or the payload
/// of the panic that ended it. Lanes `1..N` are spawned on scoped
/// threads first, lane 0 runs on the caller's thread beside them (one
/// lane spawns nothing), and the scope joins them: the engine's one
/// synchronization point. A panic is caught where it happened — by the
/// join, or on the caller for lane 0 — so it never stops a sibling.
fn run_on_lanes<T, F>(lanes: impl IntoIterator<Item = F>) -> Vec<thread::Result<T>>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let mut lanes = lanes.into_iter();
    let Some(first) = lanes.next() else {
        return Vec::new();
    };
    thread::scope(|s| {
        let spawned: Vec<_> = lanes.map(|lane| s.spawn(lane)).collect();
        let first = catch_unwind(AssertUnwindSafe(first));
        let joined = spawned.into_iter().map(|lane| lane.join());
        std::iter::once(first).chain(joined).collect()
    })
}

/// A lane's value; a lane that panicked re-raises its own payload on the
/// caller.
fn rethrow<T>(lane: thread::Result<T>) -> T {
    lane.unwrap_or_else(|payload| resume_unwind(payload))
}

impl RusKey {
    /// Opens a store of `shards` hash-partitioned shards on `backend`,
    /// tuned by `tuner` — the one way a store is opened. The paper's
    /// single-tree system is `shards = 1` with a [`Lerp`] tuner.
    ///
    /// Validates the configuration, then either **wipes** the backend's
    /// previous incarnation ([`Backend::Create`]: a fresh store restarts
    /// sequence numbers at 1, so leftover logs, shard directories beyond
    /// the new count, and a `ROUTES` file must all go) or **checks**
    /// that it describes `shards` shards and holds no `ROUTES` file
    /// ([`Backend::Recover`]); builds each shard's tree with its
    /// WAL/manifest attached or recovered, one lane per shard (lane 0 on
    /// this thread, the others on scoped threads; a shard's own directory
    /// is wiped on its lane); seats `tuner` on shard 0 and
    /// `tuner.for_shard(i)` on shard `i` (Lerp: one agent per shard,
    /// shard `i` seeded `seed + i·104729`); and, recovering, baselines
    /// the statistics so the first mission report excludes recovery work
    /// (the recovery counters `runs_recovered` and `replayed_tail` still
    /// surface through [`RusKey::stats`]).
    ///
    /// # Errors
    /// The first failure in shard order, as a serial loop would return
    /// it, although the other lanes ran to the end: what they wiped,
    /// created or recovered the next open does again (recovery is
    /// idempotent).
    ///
    /// # Panics
    /// Panics if `shards` is zero, or if [`Backend::Volatile`] holds other
    /// than `shards` devices — a shard count is a structural choice made
    /// in code, not runtime input. A lane that panics re-raises its own
    /// payload here once every lane has ended.
    pub fn open(
        cfg: RusKeyConfig,
        shards: usize,
        tuner: Box<dyn Tuner>,
        backend: Backend<'_>,
    ) -> Result<Self, StoreError> {
        assert!(shards >= 1, "a store needs at least one shard");
        cfg.lsm.validate()?;
        match &backend {
            Backend::Volatile(devices) => assert_eq!(
                devices.len(),
                shards,
                "a volatile store needs one device per shard"
            ),
            Backend::Create(p) => {
                // Each lane wipes its own shard's directory; directories
                // beyond the new count go here.
                for i in shards..p.shards_described()? {
                    wipe(&p.shard_dir(i))?;
                }
                wipe(&p.root.join(ROUTES_FILE))?;
            }
            Backend::Recover(p) => {
                // The routing hash keys on the shard count, and a persistent
                // root holds every shard's directory: fewer shards than
                // described would drop acknowledged writes, more would
                // misroute keys and hide durable data behind empty shards.
                let described = p.shards_described()?;
                if described != 0 && described != shards {
                    return Err(StoreError::ShardCountMismatch { described, shards });
                }
                let routes = p.root.join(ROUTES_FILE);
                if routes.exists() {
                    return Err(StoreError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "{} re-homes keys away from their hash shard; this build \
                             routes by the key hash alone and would read stale values",
                            routes.display()
                        ),
                    )));
                }
            }
        }
        let build = |i: usize| -> Result<FlsmTree, StoreError> {
            let lsm = cfg.lsm.clone();
            Ok(match &backend {
                Backend::Volatile(devices) => FlsmTree::try_new(lsm, Arc::clone(&devices[i]))?,
                Backend::Create(p) => {
                    wipe(&p.shard_dir(i))?;
                    let mut tree = FlsmTree::try_new(lsm, p.open_disk(i)?)?;
                    tree.attach_manifest(Manifest::create(p.manifest_path(i), 0)?);
                    tree.attach_wal(Wal::open_with_sync_every(p.wal_path(i), p.sync_every)?);
                    tree
                }
                Backend::Recover(p) => {
                    let (manifest, wal) = (p.manifest_path(i), p.wal_path(i));
                    FlsmTree::recover_persistent(lsm, p.open_disk(i)?, manifest, wal, p.sync_every)
                        .map_err(|e| match ManifestError::of(&e) {
                            Some(error) => StoreError::Manifest { shard: i, error },
                            None => e.into(),
                        })?
                }
            })
        };
        let trees = run_on_lanes((0..shards).map(|i| move || build(i)))
            .into_iter()
            .map(rethrow)
            .collect::<Result<Vec<_>, _>>()?;
        let siblings: Vec<_> = (1..shards).map(|i| tuner.for_shard(i)).collect();
        let mut store = Self {
            shards: trees,
            seats: std::iter::once(tuner).chain(siblings).collect(),
            baselines: vec![TreeStatsSnapshot::default(); shards],
            missions: 0,
            last_workers: Vec::new(),
            adhoc_scans: 0,
            adhoc_writes: vec![0; shards],
            dead: None,
            doomed: None,
        };
        if matches!(backend, Backend::Recover(_)) {
            store.rebaseline();
        }
        Ok(store)
    }

    /// Number of shards — in every state, a serving session and a dead
    /// engine included.
    pub fn shard_count(&self) -> usize {
        self.adhoc_writes.len()
    }

    /// Panics unless shard `idx`'s tree may be read: not while a serving
    /// session holds the trees, and never again once the shard is fenced
    /// (its siblings stay readable for the post-mortem).
    fn assert_readable(&self, idx: usize) {
        if self.dead == Some(idx) {
            panic!("shard {idx} is fenced by an earlier panic; the store is unavailable");
        }
        assert!(!self.shards.is_empty(), "shard {idx}: {AWAY_SERVING}");
    }

    /// Read access to one shard's tree, which lives on the store outside
    /// a serving session (experiments and introspection).
    ///
    /// # Panics
    /// Panics if something panicked inside the shard and left its tree
    /// half-changed (the store is dead; see [`StoreError`]), or while
    /// the store is serving.
    pub fn shard(&self, idx: usize) -> &FlsmTree {
        self.assert_readable(idx);
        &self.shards[idx]
    }

    /// Mutable counterpart of [`RusKey::shard`].
    pub fn shard_mut(&mut self, idx: usize) -> &mut FlsmTree {
        self.assert_readable(idx);
        &mut self.shards[idx]
    }

    /// True if any shard's process died — its fault plan is dead: an armed
    /// fault fired, or a storage or log call failed mid-mutation — so the
    /// store is dead and the harness should recover from the logs. A
    /// fenced shard's tree is not asked.
    ///
    /// # Panics
    /// Panics while the store is serving.
    pub fn crashed(&self) -> bool {
        assert!(!self.shards.is_empty(), "{AWAY_SERVING}");
        let mut live = (0..self.shards.len()).filter(|&i| self.dead != Some(i));
        live.any(|i| self.shards[i].faults().is_dead())
    }

    /// Test hook (`tests/pool_stress.rs`): makes the given shard's next
    /// lane panic, simulating an engine bug inside a mission. The next
    /// mission or barrier reports the death as a clean [`StoreError`]
    /// instead of unwinding or hanging. A production store never calls
    /// this.
    #[doc(hidden)]
    pub fn inject_worker_panic(&mut self, shard: usize) {
        self.doomed = Some(shard);
    }

    /// Fails fast — before anything touches a tree or any other state —
    /// on a store with a fenced shard, or one whose trees are away
    /// serving.
    fn check_alive(&self) -> Result<(), StoreError> {
        match self.dead {
            Some(shard) => Err(StoreError::ShardFenced { shard }),
            None if self.shards.is_empty() => Err(StoreError::Serving),
            None => Ok(()),
        }
    }

    /// The one way a mission or barrier reaches the trees: runs one lane
    /// per shard — `lanes[i]` through `exec::run_batch` on shard `i`'s
    /// tree, ending in a boundary grant iff `boundary` and always in the
    /// shard's commit leg — and returns the legs in shard order.
    ///
    /// The lanes run on `run_on_lanes`, which catches a lane's panic
    /// where it ran, so the siblings of a lane that dies run to the end;
    /// the lowest such shard is fenced and reported as
    /// [`StoreError::ShardPanicked`]. A failed commit leg, a dead shard's
    /// included, is [`StoreError::Wal`] (lowest failing shard) on a live
    /// engine.
    fn run_lanes(
        &mut self,
        lanes: Vec<Vec<&Operation>>,
        boundary: bool,
    ) -> Result<Vec<CommitLeg>, StoreError> {
        self.check_alive()?;
        let doomed = self.doomed.take();
        let work = self
            .shards
            .iter_mut()
            .zip(lanes)
            .enumerate()
            .map(|(shard, (tree, ops))| {
                move || {
                    assert!(doomed != Some(shard), "injected lane panic (test hook)");
                    (thread::current().id(), run_batch(tree, ops, boundary))
                }
            });
        // Per lane: the thread that ran it and its commit leg, or the
        // payload of the panic that ended it.
        let results = run_on_lanes(work);
        let mut workers = Vec::with_capacity(results.len());
        let mut legs = Vec::with_capacity(results.len());
        let mut wal_failure = None;
        for (shard, result) in results.into_iter().enumerate() {
            let Ok((worker, mut leg)) = result else {
                self.dead.get_or_insert(shard);
                continue;
            };
            if let Some(error) = leg.error.take() {
                wal_failure.get_or_insert(StoreError::Wal { shard, error });
            }
            workers.push(worker);
            legs.push(leg);
        }
        if let Some(shard) = self.dead {
            return Err(StoreError::ShardPanicked { shard });
        }
        self.last_workers = workers;
        wal_failure.map_or(Ok(legs), Err)
    }

    /// The overlapped cross-shard group-commit barrier: every shard
    /// syncs its WAL at most once, concurrently with its siblings,
    /// acknowledging every record logged since the previous barrier —
    /// one fsync per shard per batch instead of one per record. Shards
    /// with nothing unacknowledged skip their fsync. A shard whose process
    /// died — before the barrier or inside its leg — fails the barrier
    /// ([`StoreError::Wal`]) without stopping its siblings' legs: it
    /// acknowledges nothing further, but the others' batches become
    /// durable, which is what lets the crash harness pin exactly which
    /// shards' records survived.
    ///
    /// # Panics
    /// Panics on [`StoreError`]; use [`RusKey::try_group_commit`]
    /// for fallible operation.
    pub fn group_commit(&mut self) {
        self.try_group_commit()
            .unwrap_or_else(|e| panic!("group commit failed: {e}"))
    }

    /// Fallible form of [`RusKey::group_commit`].
    pub fn try_group_commit(&mut self) -> Result<(), StoreError> {
        self.run_lanes(vec![Vec::new(); self.shard_count()], false)?;
        Ok(())
    }

    /// Whether the tuner reports convergence: *every* shard's seat has
    /// converged.
    pub fn tuner_converged(&self) -> bool {
        self.seats.iter().all(|t| t.converged())
    }

    /// Distinct OS threads that ran the last mission's or barrier's lanes
    /// (one per shard: the caller plus `N − 1` scoped threads).
    pub fn last_parallelism(&self) -> usize {
        self.last_workers.iter().collect::<HashSet<_>>().len()
    }

    /// The OS thread that ran each shard's lane in the last mission or
    /// barrier, in shard order (empty before the first). Entry 0 is the
    /// thread that called it; the others lived only as long as the
    /// dispatch — `tests/pool_stress.rs` pins both. Ad-hoc operations run
    /// on their caller and leave this alone.
    pub fn last_worker_threads(&self) -> &[ThreadId] {
        &self.last_workers
    }

    /// Store-wide statistics: every shard's snapshot merged
    /// ([`TreeStatsSnapshot::merge`]) — `clock_ns` is the wall
    /// composition (max over shard domains), `busy_ns` the device-busy
    /// composition (sum over shard domains).
    pub fn stats(&self) -> TreeStatsSnapshot {
        TreeStatsSnapshot::merge_all(&self.shard_snapshots())
    }

    /// One statistics snapshot per shard, in shard order — each covering
    /// exactly that shard's time domain.
    pub fn shard_snapshots(&self) -> Vec<TreeStatsSnapshot> {
        (0..self.shard_count())
            .map(|i| self.shard(i).stats())
            .collect()
    }

    // ------------------------------------------------------------------
    // Plain KV interface (outside missions)
    // ------------------------------------------------------------------

    /// One ad-hoc operation on one shard, on the caller's thread: the
    /// result comes home and durability waits for the next barrier. Every
    /// [`ADHOC_BOUNDARY_OPS`]-th write per shard is a boundary, so an
    /// ad-hoc write burst pays down its deferred work — and sees the
    /// backpressure and `stall_ns` attribution — exactly as a mission's
    /// writes would.
    ///
    /// # Panics
    /// A dead engine keeps the semantics the plain interface always had:
    /// a panic with the fenced shard named. So does a store that is
    /// serving.
    fn adhoc(&mut self, shard: usize, op: &Operation) -> OpResult {
        // A dead engine refuses every shard, not only the fenced one.
        self.assert_readable(self.dead.unwrap_or(shard));
        let boundary = op.is_write() && {
            self.adhoc_writes[shard] += 1;
            self.adhoc_writes[shard].is_multiple_of(ADHOC_BOUNDARY_OPS)
        };
        let tree = &mut self.shards[shard];
        let result = execute(tree, op);
        if boundary {
            tree.maintain_boundary();
        }
        result
    }

    /// Point lookup on the owning shard.
    pub fn get(&mut self, key: &[u8]) -> Option<Bytes> {
        let shard = shard_for_key(key, self.shard_count());
        let key = Bytes::copy_from_slice(key);
        self.adhoc(shard, &Operation::Get { key }).value()
    }

    /// Insert or overwrite on the owning shard (which interleaves
    /// boundary maintenance exactly as mission lanes do — an ad-hoc write
    /// burst gets the same L0 backpressure and `stall_ns` attribution a
    /// mission would).
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        let (key, value) = (key.into(), value.into());
        let shard = shard_for_key(&key, self.shard_count());
        self.adhoc(shard, &Operation::Put { key, value });
    }

    /// Delete on the owning shard (same maintenance interleaving as
    /// [`RusKey::put`]).
    pub fn delete(&mut self, key: impl Into<Bytes>) {
        let key = key.into();
        let shard = shard_for_key(&key, self.shard_count());
        self.adhoc(shard, &Operation::Delete { key });
    }

    /// Range scan over `[start, end)` with a result limit, streamed: one
    /// lazy [`FlsmTree::range_scan`] per shard, k-way merged straight into
    /// the result. Beyond the rows it returns, the scan holds one page per
    /// overlapping run and shard and one merge head per shard. Once the
    /// result is full, each shard's scan is driven on to its own `limit`
    /// without keeping its rows, so every shard reads the pages, and
    /// charges its own time domain with the cost, that a whole leg of its
    /// own would. The shards' reads interleave, so shards sharing a block
    /// cache may split their hits and misses differently than leg by leg.
    pub fn scan(&mut self, start: &[u8], end: &[u8], limit: usize) -> Vec<(Bytes, Bytes)> {
        self.adhoc_scans += 1;
        for shard in 0..self.shard_count() {
            // A dead engine refuses every shard, not only the fenced one.
            self.assert_readable(self.dead.unwrap_or(shard));
        }
        let mut legs: Vec<_> = self
            .shards
            .iter_mut()
            .map(|tree| tree.range_scan(start, end, limit))
            .collect();
        let rows = merge_sorted_scans(legs.iter_mut(), limit);
        legs.into_iter().for_each(|leg| leg.for_each(drop));
        rows
    }

    // ------------------------------------------------------------------
    // Concurrent serving
    // ------------------------------------------------------------------

    /// Starts a serving session: every shard's tree moves into the
    /// returned [`ServingFrontend`], behind a per-shard lock, and stays
    /// there until [`RusKey::finish_serving`]. The frontend is
    /// `Send + Sync`: hand out
    /// [`ServingClient`](crate::frontend::ServingClient)s to as many
    /// threads as you like — each runs its requests on its own thread,
    /// writes share fsyncs across clients through a per-shard group
    /// commit, and the live metrics registry tracks it all (see
    /// [`crate::frontend`]). [`ServingConfig`] carries no setting.
    ///
    /// While serving, the store itself has no trees: missions, barriers
    /// and a second `serve` return [`StoreError::Serving`], and ad-hoc ops
    /// and introspection panic, until `finish_serving` brings them home.
    /// Dropping the frontend without finishing drops the trees and leaves
    /// the store permanently unavailable.
    pub fn serve(&mut self, _: ServingConfig) -> Result<ServingFrontend, StoreError> {
        self.check_alive()?;
        let trees = std::mem::take(&mut self.shards);
        Ok(ServingFrontend::new(trees))
    }

    /// Ends a serving session: takes the trees back onto the store
    /// (waiting out the operation inside each shard; a client that still
    /// holds a handle gets `ServingError::Stopped` from then on), folds
    /// the served work out of the next mission's statistics delta
    /// (exactly like [`RusKey::bulk_load`] — the serving traffic
    /// is not a mission), and returns the session's final metrics
    /// snapshot.
    ///
    /// A shard that died serving (mid-serve crash injection, WAL failure)
    /// just returns its tree — the snapshot and
    /// [`RusKey::crashed`] tell the caller what happened. A shard
    /// a *client panicked inside* comes home fenced (its tree was left
    /// half-changed), and the engine is dead:
    /// [`StoreError::ShardPanicked`], with every sibling's tree home.
    pub fn finish_serving(
        &mut self,
        frontend: ServingFrontend,
    ) -> Result<MetricsSnapshot, StoreError> {
        (self.shards, self.dead) = frontend.take_trees();
        if let Some(shard) = self.dead {
            return Err(StoreError::ShardPanicked { shard });
        }
        let snapshot = frontend.metrics();
        self.rebaseline();
        Ok(snapshot)
    }

    // ------------------------------------------------------------------
    // Mission-driven operation
    // ------------------------------------------------------------------

    /// Folds everything the shards have done so far out of the next
    /// mission's report (a load, a recovery, a serving session, a mission
    /// that failed to commit — none of them is a mission).
    fn rebaseline(&mut self) {
        self.baselines = self.shard_snapshots();
        self.adhoc_scans = 0;
    }

    /// Bulk-loads the store, each shard on its own lane: lane 0 on this
    /// thread, the others on scoped threads that end before this returns.
    /// The pairs are dealt onto their owning shards in input order
    /// (`deal_by_shard`): shard 0's stay in `pairs`' own buffer and every
    /// other shard's move into a `Vec` of its exact size, so beside the
    /// input the deal holds the other shards' pairs and one shard index
    /// per pair (a one-shard store hands `pairs` to its tree whole). Of
    /// duplicate keys the first in input order wins. Resets the statistics
    /// baseline so mission reports exclude the load.
    ///
    /// # Panics
    /// Panics if a shard that receives pairs is not empty
    /// ([`FlsmTree::bulk_load`]), is fenced, or is away serving. A lane
    /// that panics re-raises its own payload here once every lane has
    /// ended (the lowest-numbered one, if several did).
    pub fn bulk_load(&mut self, pairs: Vec<(Bytes, Bytes)>) {
        let per_shard = deal_by_shard(pairs, self.shard_count());
        for (i, shard_pairs) in per_shard.iter().enumerate() {
            if !shard_pairs.is_empty() {
                self.assert_readable(i);
            }
        }
        let lanes = self.shards.iter_mut().zip(per_shard).map(|(tree, pairs)| {
            move || {
                if !pairs.is_empty() {
                    tree.bulk_load(pairs);
                }
            }
        });
        run_on_lanes(lanes).into_iter().for_each(rethrow);
        self.rebaseline();
    }

    /// Store-wide per-level policies: the modal policy across the shards
    /// holding each level (ties toward the smaller K) — exact whenever
    /// shards agree, and a one-shard store's own policies. The per-shard
    /// truth is [`RusKey::shard_policies`].
    pub(crate) fn policies(&self) -> Vec<u32> {
        let shards = self.shard_policies();
        let levels = shards.iter().map(Vec::len).max().unwrap_or(0);
        (0..levels)
            .map(|i| {
                let held: Vec<u32> = shards.iter().filter_map(|p| p.get(i).copied()).collect();
                modal_policy(&held)
            })
            .collect()
    }

    /// Every shard's true per-level policies, in shard order — exact
    /// even when per-shard tuners have diverged.
    pub fn shard_policies(&self) -> Vec<Vec<u32>> {
        (0..self.shard_count())
            .map(|i| self.shard(i).policies())
            .collect()
    }

    /// Processes one mission: routes the operations into per-shard lanes,
    /// runs them in parallel — lane 0 on this thread, the others on
    /// scoped threads; every shard count, `N = 1` included, runs the same
    /// code path — with each lane running its shard's group-commit leg as
    /// soon as its operations finish (overlapped fsyncs), builds the
    /// aggregated mission report, and lets each shard's tuner seat act on
    /// its own shard.
    ///
    /// # Panics
    /// Panics on [`StoreError`] (a dead engine or a WAL I/O failure);
    /// use [`RusKey::try_run_mission`] for fallible operation.
    pub fn run_mission(&mut self, ops: &[Operation]) -> MissionReport {
        self.try_run_mission(ops)
            .unwrap_or_else(|e| panic!("mission failed: {e}"))
    }

    /// Fallible form of [`RusKey::run_mission`]: lane panics and
    /// WAL I/O failures surface as [`StoreError`] instead of a panic
    /// (and never as a hang).
    pub fn try_run_mission(&mut self, ops: &[Operation]) -> Result<MissionReport, StoreError> {
        let t0 = Instant::now();
        let n = self.shard_count();
        // Logical scan count, taken at routing time: a range scan
        // broadcasts to every shard, so the shards' counters will see it
        // `N` times while the mission contains it once.
        let logical_scans = ops
            .iter()
            .filter(|op| matches!(op, Operation::Scan { .. }))
            .count() as u64;
        let lanes = partition_ops(ops, n);
        let legs = match self.run_lanes(lanes, true) {
            Ok(legs) => legs,
            Err(e) => {
                // A WAL commit failure leaves the engine alive with every
                // lane already applied but no report cut for it: rebaseline
                // so a later mission's report does not double-count this
                // mission's work. (A panic needs no rebaseline — the
                // engine is marked dead and no further report can be
                // built.)
                if matches!(e, StoreError::Wal { .. }) {
                    self.rebaseline();
                }
                return Err(e);
            }
        };
        let process_ns = t0.elapsed().as_nanos() as u64;
        let (mut report, slices) = self.cut_report(&legs, logical_scans, process_ns);
        report.model_update_ns = self.tune_seats(slices);
        report.policies_after = self.policies();
        report.shard_policies_after = self.shard_policies();
        Ok(report)
    }

    /// Closes the window of the mission that just ran and opens the next:
    /// every shard's snapshot is deltaed against its own baseline, and the
    /// deltas merge into the report's window (wall time the max, busy time
    /// the sum). The commit barrier ran inside the lanes, overlapped, so
    /// its latency is the slowest shard's leg and its work the sum of all
    /// legs.
    ///
    /// The report counts scans *logically* — one per mission operation,
    /// counted at routing time, plus the ad-hoc `scan()` calls since the
    /// last baseline — so `gamma` is comparable across shard counts; the
    /// window keeps the I/O and time of all `N` sub-scans, because that
    /// work really happened. Also returns one slice per shard, the reward
    /// signal of its tuner seat: that shard's own delta, its own physical
    /// operation counts (a broadcast scan is work the shard ran) and its
    /// own commit leg.
    fn cut_report(
        &mut self,
        legs: &[CommitLeg],
        logical_scans: u64,
        real_process_ns: u64,
    ) -> (MissionReport, Vec<MissionReport>) {
        let ends = self.shard_snapshots();
        let deltas: Vec<TreeStatsSnapshot> = ends
            .iter()
            .zip(&self.baselines)
            .map(|(end, base)| end.delta(base))
            .collect();
        // One report over a set of shard deltas, their scans counted as
        // `scans`, priced with their commit legs.
        let cut = |deltas: &[TreeStatsSnapshot], scans: u64, legs: &[CommitLeg]| {
            let window = TreeStatsSnapshot::merge_all(deltas);
            MissionReport {
                mission_idx: self.missions,
                ops: window.lookups + window.updates + scans,
                scans,
                end_to_end_ns: window.clock_ns,
                wal_synced: window.wal_synced,
                window,
                commit_ns: legs.iter().map(|leg| leg.ns).max().unwrap_or(0),
                commit_busy_ns: legs.iter().map(|leg| leg.ns).sum(),
                real_process_ns,
                shard_ops: deltas
                    .iter()
                    .map(|d| d.lookups + d.updates + d.scans)
                    .collect(),
                ..MissionReport::default()
            }
        };
        let slices = deltas
            .iter()
            .zip(legs)
            .map(|(d, leg)| cut(slice::from_ref(d), d.scans, slice::from_ref(leg)))
            .collect();
        let logical_scans = logical_scans + self.adhoc_scans;
        let report = cut(&deltas, logical_scans, legs);
        debug_assert_eq!(
            report.window.scans,
            logical_scans * deltas.len() as u64,
            "scan broadcast invariant violated: {} physical scans across {} shards \
             for {logical_scans} logical scans",
            report.window.scans,
            deltas.len(),
        );
        self.missions += 1;
        self.baselines = ends;
        self.adhoc_scans = 0;
        (report, slices)
    }

    /// Lets every tuner seat act on the finished mission — the one place a
    /// tuner runs — and returns the model-update time they spent.
    ///
    /// Seat `i` reads slice `i` — shard `i`'s time-domain delta, priced
    /// with *its* commit leg, not the barrier max (the slice's physical
    /// scan count stays: the shard really ran its broadcast leg) — and
    /// shard `i`'s observation, and its `(level, K)` changes land on
    /// shard `i` only. An idle shard's seat is skipped: a zero-op slice
    /// carries no signal (the common case under skew) and would feed its
    /// agent's replay degenerate rewards.
    fn tune_seats(&mut self, slices: Vec<MissionReport>) -> u64 {
        let mut model_ns = 0;
        let seats = self.seats.iter_mut().zip(&mut self.shards);
        for ((tuner, tree), slice) in seats.zip(slices) {
            if slice.ops == 0 {
                continue;
            }
            let model_before = tuner.model_update_ns();
            for (level, k) in tuner.tune(&slice, &TreeObservation::of(tree)) {
                tree.set_policy(level, k);
            }
            model_ns += tuner.model_update_ns().saturating_sub(model_before);
        }
        model_ns
    }
}

/// Old name of [`RusKey`], still used by the perf ledger's adapter.
#[deprecated(note = "use `RusKey`")]
#[doc(hidden)]
pub type ShardedRusKey = RusKey;

/// Old openers the perf ledger's adapter still calls; each is one call
/// into [`RusKey::open`] or [`RusKey::shard`].
impl RusKey {
    #[deprecated(note = "use `RusKey::open(cfg, 1, lerp, Backend::Volatile(vec![storage]))`")]
    #[doc(hidden)]
    pub fn with_lerp(cfg: RusKeyConfig, storage: Arc<dyn Storage>) -> Self {
        let lerp = Box::new(Lerp::new(cfg.lerp.clone()));
        Self::open(cfg, 1, lerp, Backend::Volatile(vec![storage])).expect("invalid RusKeyConfig")
    }

    #[deprecated(note = "use `RusKey::open` with `Backend::Create`")]
    #[doc(hidden)]
    pub fn try_with_tuner_persistent(
        cfg: RusKeyConfig,
        shards: usize,
        tuner: Box<dyn Tuner>,
        persistence: &PersistenceConfig,
    ) -> Result<Self, StoreError> {
        Self::open(cfg, shards, tuner, Backend::Create(persistence))
    }

    #[deprecated(note = "use `RusKey::open` with `Backend::Recover`")]
    #[doc(hidden)]
    pub fn recover_persistent(
        cfg: RusKeyConfig,
        shards: usize,
        tuner: Box<dyn Tuner>,
        persistence: &PersistenceConfig,
    ) -> Result<Self, StoreError> {
        Self::open(cfg, shards, tuner, Backend::Recover(persistence))
    }

    #[deprecated(note = "use `RusKey::shard(0)`")]
    #[doc(hidden)]
    pub fn tree(&self) -> &FlsmTree {
        self.shard(0)
    }
}

/// A file under the persistence root that this build refuses to
/// recover: earlier builds could re-home hot keys away from their hash
/// shard and listed them here, so recovering such a root by the key hash
/// would read stale values. A fresh open wipes it. Must not match the
/// `shard-` prefix the recovery scan parses.
const ROUTES_FILE: &str = "ROUTES";

/// The most common policy among the shards holding a level, ties broken
/// toward the smaller (more leveled, read-safer) K. Deterministic, and
/// the identity whenever all shards agree.
fn modal_policy(held: &[u32]) -> u32 {
    let mut sorted = held.to_vec();
    sorted.sort_unstable();
    let mut best = (1u32, 0usize);
    let mut i = 0;
    while i < sorted.len() {
        let run = sorted[i..].iter().take_while(|&&v| v == sorted[i]).count();
        if run > best.1 {
            best = (sorted[i], run);
        }
        i += run;
    }
    best.0
}

/// One head of the k-way scan merge; ordered so the smallest key wins.
struct MergeHead {
    key: Bytes,
    shard: usize,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for MergeHead {}

impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest key.
        other.key.cmp(&self.key)
    }
}

/// Deals `pairs` onto `shards` shards, each shard's in input order. Each
/// key is hashed once. Shard 0's pairs stay in `pairs`' own buffer,
/// compacted in place, which is then shrunk to them; every other shard's
/// are moved out into a `Vec` allocated at its exact length. Growing every
/// shard's `Vec` by doubling instead would hold up to twice its pairs. A
/// stable permutation of the whole input in place would hold less still,
/// but its 64-byte swaps land at random and it loads slower than these
/// sequential moves.
fn deal_by_shard(mut pairs: Vec<(Bytes, Bytes)>, shards: usize) -> Vec<Vec<(Bytes, Bytes)>> {
    if shards == 1 {
        return vec![pairs];
    }
    let ids: Vec<usize> = pairs
        .iter()
        .map(|(k, _)| shard_for_key(k, shards))
        .collect();
    let mut lens = vec![0; shards];
    ids.iter().for_each(|&shard| lens[shard] += 1);
    let mut per_shard = vec![Vec::new()];
    per_shard.extend(lens[1..].iter().map(|&len| Vec::with_capacity(len)));
    // `extract_if` asks about every pair once, in order, and yields the
    // moved ones in order: one walk over the ids answers it, a second
    // names each moved pair's shard.
    let (mut asked, mut moved) = (ids.iter(), ids.iter().filter(|&&shard| shard != 0));
    for pair in pairs.extract_if(.., |_| asked.next() != Some(&0)) {
        per_shard[*moved.next().expect("one id per moved pair")].push(pair);
    }
    pairs.shrink_to_fit();
    per_shard[0] = pairs;
    per_shard
}

/// K-way merges per-shard scan legs (each sorted, keys disjoint across
/// shards) into one sorted result of at most `limit` entries, taking rows
/// from the legs only as the merge needs them. A leg is any row iterator:
/// [`RusKey::scan`] passes lazy tree scans, the serving frontend's
/// broadcast scans their materialized legs. The result is allocated once
/// at the legs' known length (`size_hint`, capped by `limit`); legs that
/// know none grow it as rows arrive.
pub(crate) fn merge_sorted_scans<L>(
    legs: impl IntoIterator<Item = L>,
    limit: usize,
) -> Vec<(Bytes, Bytes)>
where
    L: IntoIterator<Item = (Bytes, Bytes)>,
{
    let mut iters: Vec<L::IntoIter> = legs.into_iter().map(IntoIterator::into_iter).collect();
    let known: usize = iters.iter().map(|it| it.size_hint().0).sum();
    let mut out = Vec::with_capacity(limit.min(known));
    let mut heap = BinaryHeap::with_capacity(iters.len());
    let mut values: Vec<Option<Bytes>> = vec![None; iters.len()];
    for (i, it) in iters.iter_mut().enumerate() {
        if let Some((k, v)) = it.next() {
            heap.push(MergeHead { key: k, shard: i });
            values[i] = Some(v);
        }
    }
    while out.len() < limit {
        let Some(MergeHead { key, shard }) = heap.pop() else {
            break;
        };
        let value = values[shard].take().expect("merge head without value");
        out.push((key, value));
        if let Some((k, v)) = iters[shard].next() {
            heap.push(MergeHead { key: k, shard });
            values[shard] = Some(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::{FixedPolicy, NoOpTuner};
    use ruskey_storage::{CostModel, SimulatedDisk};
    use ruskey_workload::{bulk_load_pairs, OpGenerator, OpMix, WorkloadSpec};

    impl RusKey {
        /// The tuner's display name (seat 0's; every seat is the same kind).
        pub(crate) fn tuner_name(&self) -> String {
            self.seats[0].name()
        }

        /// Cumulative model-update time (Fig. 13), summed over the seats.
        pub(crate) fn model_update_ns(&self) -> u64 {
            self.seats.iter().map(|t| t.model_update_ns()).sum()
        }
    }

    fn small_cfg() -> RusKeyConfig {
        let mut cfg = RusKeyConfig::scaled_default();
        cfg.lsm.buffer_bytes = 4096;
        cfg.lsm.size_ratio = 4;
        cfg
    }

    fn disk() -> Arc<SimulatedDisk> {
        SimulatedDisk::new(512, CostModel::NVME)
    }

    /// One fresh disk per shard.
    fn disks(shards: usize) -> Vec<Arc<dyn Storage>> {
        (0..shards).map(|_| disk() as Arc<dyn Storage>).collect()
    }

    fn volatile(cfg: RusKeyConfig, shards: usize) -> RusKey {
        RusKey::open(
            cfg,
            shards,
            Box::new(NoOpTuner),
            Backend::Volatile(disks(shards)),
        )
        .expect("open")
    }

    #[test]
    fn kv_roundtrip_across_shards() {
        let mut db = volatile(small_cfg(), 4);
        for i in 0..200u64 {
            db.put(ruskey_workload::encode_key(i, 16), vec![i as u8; 8]);
        }
        for i in 0..200u64 {
            let got = db.get(&ruskey_workload::encode_key(i, 16));
            assert_eq!(got.as_deref(), Some(vec![i as u8; 8].as_slice()), "key {i}");
        }
        db.delete(ruskey_workload::encode_key(7, 16));
        assert_eq!(db.get(&ruskey_workload::encode_key(7, 16)), None);
    }

    #[test]
    fn cross_shard_scan_is_globally_sorted_and_limited() {
        let mut db = volatile(small_cfg(), 4);
        for i in 0..300u64 {
            db.put(ruskey_workload::encode_key(i, 16), vec![1u8; 8]);
        }
        let all = db.scan(
            &ruskey_workload::encode_key(50, 16),
            &ruskey_workload::encode_key(150, 16),
            1000,
        );
        assert_eq!(all.len(), 100);
        for (w, pair) in all.windows(2).zip(all.iter().skip(1)) {
            assert!(w[0].0 < pair.0, "scan out of order");
        }
        let limited = db.scan(
            &ruskey_workload::encode_key(50, 16),
            &ruskey_workload::encode_key(150, 16),
            7,
        );
        assert_eq!(limited.len(), 7);
        assert_eq!(limited[..], all[..7]);
    }

    #[test]
    fn mission_reports_aggregate_all_shards() {
        let mut db = RusKey::open(
            small_cfg(),
            4,
            Box::new(FixedPolicy::moderate()),
            Backend::Volatile(disks(4)),
        )
        .expect("open");
        db.bulk_load(bulk_load_pairs(1000, 16, 48, 1));
        let spec = WorkloadSpec {
            key_space: 1000,
            value_len: 48,
            ..WorkloadSpec::scaled_default(1000)
        }
        .with_mix(OpMix::read_heavy());
        let mut g = OpGenerator::new(spec, 2);
        let r = db.run_mission(&g.take_ops(400));
        assert_eq!(r.ops, 400, "aggregated op count covers every shard");
        assert!((r.gamma() - 0.9).abs() < 0.08);
        assert!(r.end_to_end_ns > 0);
        assert!(!r.policies_after.is_empty());
        assert_eq!(db.last_parallelism(), 4, "one worker thread per shard");
        assert_eq!(db.last_worker_threads().len(), 4);
    }

    /// Every shard gets operations, so every seat — the given tuner on
    /// shard 0, its `for_shard` copies on the rest — sets its shard.
    #[test]
    fn every_seat_sets_its_own_shards_policy() {
        let mut db = RusKey::open(
            small_cfg(),
            3,
            Box::new(FixedPolicy::new(4)),
            Backend::Volatile(disks(3)),
        )
        .expect("open");
        db.bulk_load(bulk_load_pairs(900, 16, 48, 3));
        let spec = WorkloadSpec {
            key_space: 900,
            value_len: 48,
            ..WorkloadSpec::scaled_default(900)
        };
        let mut g = OpGenerator::new(spec, 5);
        db.run_mission(&g.take_ops(300));
        for s in 0..db.shard_count() {
            let tree = db.shard(s);
            for lvl in 0..tree.level_count() {
                assert_eq!(
                    tree.policy(lvl),
                    4,
                    "shard {s} level {lvl} missed its seat's policy"
                );
            }
        }
    }

    /// A seat whose shard ran nothing is skipped: only the shard that
    /// saw operations takes its seat's policy.
    #[test]
    fn an_idle_shards_seat_is_skipped() {
        let mut db = RusKey::open(
            small_cfg(),
            4,
            Box::new(FixedPolicy::new(4)),
            Backend::Volatile(disks(4)),
        )
        .expect("open");
        db.bulk_load(bulk_load_pairs(1200, 16, 48, 3));
        let start = db.shard_policies();
        let gets: Vec<Operation> = (0..1200u64)
            .map(|i| ruskey_workload::encode_key(i, 16))
            .filter(|key| shard_for_key(key, 4) == 0)
            .take(100)
            .map(|key| Operation::Get { key })
            .collect();
        let r = db.run_mission(&gets);
        assert_eq!(r.shard_ops, vec![100, 0, 0, 0]);
        assert!(!start[0].is_empty() && start[0].iter().all(|&k| k != 4));
        assert!(db.shard_policies()[0].iter().all(|&k| k == 4));
        assert_eq!(db.shard_policies()[1..], start[1..], "idle seats act");
    }

    /// Ad-hoc scans between missions broadcast to every shard; the next
    /// mission's report must still count each of them logically once and
    /// keep the broadcast invariant (no debug panic, no drift).
    #[test]
    fn adhoc_scans_between_missions_stay_logically_counted() {
        for shards in [1usize, 3] {
            let mut db = volatile(small_cfg(), shards);
            db.bulk_load(bulk_load_pairs(600, 16, 48, 9));
            let spec = WorkloadSpec {
                key_space: 600,
                value_len: 48,
                ..WorkloadSpec::scaled_default(600)
            }
            .with_mix(OpMix {
                lookup: 0.5,
                update: 0.35,
                delete: 0.05,
                scan: 0.1,
            });
            let mut g = OpGenerator::new(spec, 4);
            db.run_mission(&g.take_ops(200));
            // Two ad-hoc scans outside any mission.
            let lo = ruskey_workload::encode_key(0, 16);
            let hi = ruskey_workload::encode_key(600, 16);
            db.scan(&lo, &hi, 10);
            db.scan(&lo, &hi, 10);
            let ops = g.take_ops(200);
            let mission_scans = ops
                .iter()
                .filter(|o| matches!(o, ruskey_workload::Operation::Scan { .. }))
                .count() as u64;
            let r = db.run_mission(&ops);
            assert_eq!(
                r.scans,
                mission_scans + 2,
                "{shards} shards: ad-hoc scans count logically once each"
            );
            assert_eq!(r.ops, 200 + 2);
        }
    }

    #[test]
    fn try_with_tuner_rejects_bad_config() {
        let mut cfg = small_cfg();
        cfg.lsm.size_ratio = 1;
        let err = RusKey::open(cfg, 2, Box::new(NoOpTuner), Backend::Volatile(disks(2)));
        assert!(err.is_err());
    }

    #[test]
    #[should_panic(expected = "one device per shard")]
    fn a_volatile_store_needs_one_device_per_shard() {
        let _ = RusKey::open(
            small_cfg(),
            2,
            Box::new(NoOpTuner),
            Backend::Volatile(disks(1)),
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = RusKey::open(
            small_cfg(),
            0,
            Box::new(NoOpTuner),
            Backend::Volatile(disks(0)),
        );
    }

    /// An injected worker panic surfaces as a clean [`StoreError`] on
    /// the next dispatch — and the engine stays dead (no limping on with
    /// a missing shard), while dropping the store does not hang.
    #[test]
    fn worker_panic_is_a_clean_error_and_kills_the_engine() {
        let mut db = volatile(small_cfg(), 3);
        db.bulk_load(bulk_load_pairs(300, 16, 48, 5));
        let spec = WorkloadSpec {
            key_space: 300,
            value_len: 48,
            ..WorkloadSpec::scaled_default(300)
        };
        let mut g = OpGenerator::new(spec, 6);
        assert!(db.try_run_mission(&g.take_ops(100)).is_ok());
        db.inject_worker_panic(1);
        let err = db
            .try_run_mission(&g.take_ops(100))
            .expect_err("a dead worker must fail the mission");
        assert!(
            matches!(
                err,
                StoreError::ShardPanicked { shard: 1 } | StoreError::ShardFenced { shard: 1 }
            ),
            "unexpected error: {err}"
        );
        // Every later dispatch reports the dead worker too.
        let err2 = db
            .try_run_mission(&g.take_ops(50))
            .expect_err("the engine must stay dead");
        assert!(err2.to_string().contains("shard 1"), "{err2}");
    }

    /// The store says which of its three states it is in: home, serving
    /// (reads name the session, not a death), or dead (a refused call
    /// changes nothing). The shard count is the same in all three.
    #[test]
    fn a_store_says_where_its_trees_are() {
        let panic_of = |read: &dyn Fn()| -> String {
            let payload = catch_unwind(AssertUnwindSafe(read)).expect_err("must panic");
            payload.downcast_ref::<String>().expect("formatted").clone()
        };
        let mut db = volatile(small_cfg(), 2);
        let frontend = db.serve(ServingConfig::default()).expect("serve");
        assert_eq!(db.shard_count(), 2, "serving");
        let reads: [&dyn Fn(); 4] = [
            &|| drop(db.shard(1).stats()),
            &|| drop(db.stats()),
            &|| drop(db.policies()),
            &|| assert!(!db.crashed()),
        ];
        for read in reads {
            let said = panic_of(read);
            assert!(said.contains("away serving"), "{said}");
        }
        assert!(matches!(db.try_run_mission(&[]), Err(StoreError::Serving)));
        db.finish_serving(frontend).expect("finish serving");
        assert!(!db.crashed(), "home again");

        db.inject_worker_panic(1);
        assert!(db.try_group_commit().is_err());
        assert_eq!(db.shard_count(), 2, "dead");
        assert!(panic_of(&|| drop(db.stats())).contains("shard 1 is fenced"));
        assert_eq!(db.shard(0).stats().lookups, 0, "the sibling stays readable");
        let key = ruskey_workload::encode_key(1, 16);
        let gets = vec![Operation::Get { key }; 64];
        assert!(db.try_run_mission(&gets).is_err());
    }

    /// A store whose trees are away serving says so, not "shard 0 is
    /// fenced", on every dispatch, and touches no tree; once the session
    /// is finished the same store runs missions again.
    #[test]
    fn a_serving_store_reports_serving_not_a_fenced_shard() {
        let mut db = volatile(small_cfg(), 2);
        db.bulk_load(bulk_load_pairs(200, 16, 48, 1));
        let before = db.stats();
        let frontend = db.serve(ServingConfig::default()).expect("serve");
        assert!(matches!(db.try_run_mission(&[]), Err(StoreError::Serving)));
        assert!(matches!(db.try_group_commit(), Err(StoreError::Serving)));
        let again = db.serve(ServingConfig::default());
        assert!(matches!(again, Err(StoreError::Serving)));
        assert!(db.last_worker_threads().is_empty(), "no lane ran");
        db.finish_serving(frontend).expect("finish serving");
        assert_eq!(db.stats(), before, "no tree was touched");
        let gets: Vec<Operation> = (0..20u64)
            .map(|i| Operation::Get {
                key: ruskey_workload::encode_key(i, 16),
            })
            .collect();
        let r = db.try_run_mission(&gets).expect("home again");
        assert_eq!((r.ops, r.mission_idx), (20, 0), "no report was cut before");
        assert_eq!(db.last_parallelism(), 2);
    }

    /// The deprecated openers the perf ledger's adapter calls are plain
    /// calls into `open` and `shard(0)`.
    #[test]
    #[allow(deprecated)]
    fn the_ledger_aliases_forward_to_open() {
        let mut paper: ShardedRusKey = RusKey::with_lerp(small_cfg(), disk());
        assert_eq!(paper.shard_count(), 1);
        assert_eq!(paper.tuner_name(), "ruskey-lerp");
        paper.put(&b"k"[..], &b"v"[..]);
        assert!(std::ptr::eq(paper.tree(), paper.shard(0)));

        let root = std::env::temp_dir().join(format!(
            "ruskey-sharded-aliases-{}-{}",
            std::process::id(),
            line!()
        ));
        let mut pcfg = PersistenceConfig::new(&root);
        pcfg.page_size = 512;
        pcfg.cost = CostModel::FREE;
        let key = ruskey_workload::encode_key(3, 16);
        let mut db = RusKey::try_with_tuner_persistent(small_cfg(), 2, Box::new(NoOpTuner), &pcfg)
            .expect("create");
        db.put(key.clone(), vec![3u8; 8]);
        db.group_commit();
        drop(db);
        let mut rec = RusKey::recover_persistent(small_cfg(), 2, Box::new(NoOpTuner), &pcfg)
            .expect("recover");
        assert_eq!(rec.get(&key).as_deref(), Some(vec![3u8; 8].as_slice()));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The full-store persistence path at the store level: flushed runs
    /// and the WAL tail survive a drop + recover, and recovery counters
    /// flow into the next mission's report.
    #[test]
    fn persistent_store_survives_restart() {
        let root = std::env::temp_dir().join(format!(
            "ruskey-sharded-persist-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut pcfg = PersistenceConfig::new(&root);
        pcfg.page_size = 512;
        pcfg.cost = CostModel::FREE;
        let mut cfg = small_cfg();
        cfg.lsm.buffer_bytes = 2048; // force flushes: runs must hit disk
        let mut db = RusKey::open(cfg.clone(), 2, Box::new(NoOpTuner), Backend::Create(&pcfg))
            .expect("open persistent store");
        for i in 0..300u64 {
            db.put(ruskey_workload::encode_key(i, 16), vec![i as u8; 24]);
        }
        db.delete(ruskey_workload::encode_key(5, 16));
        db.group_commit();
        let flushes = db.stats().flushes;
        assert!(flushes > 0, "scenario must flush runs to disk");
        drop(db);

        let mut rec = RusKey::open(cfg.clone(), 2, Box::new(NoOpTuner), Backend::Recover(&pcfg))
            .expect("recover persistent store");
        let s = rec.stats();
        assert!(s.runs_recovered > 0, "flushed runs must be rebuilt");
        assert_eq!(s.manifest_edits, 0, "recovery writes no manifest record");
        for i in 0..300u64 {
            let got = rec.get(&ruskey_workload::encode_key(i, 16));
            if i == 5 {
                assert_eq!(got, None, "tombstone lost across restart");
            } else {
                assert_eq!(
                    got.as_deref(),
                    Some(vec![i as u8; 24].as_slice()),
                    "key {i}"
                );
            }
        }
        // Wrong shard counts are refused in *both* directions: fewer
        // would drop acknowledged writes, more would misroute keys and
        // hide durable data behind empty shards.
        drop(rec);
        let err = RusKey::open(cfg.clone(), 1, Box::new(NoOpTuner), Backend::Recover(&pcfg))
            .err()
            .expect("recovering fewer shards than described must fail");
        assert!(err.to_string().contains("2 shards"), "{err}");
        assert!(err.to_string().contains("store root describes"), "{err}");
        let err = RusKey::open(cfg, 4, Box::new(NoOpTuner), Backend::Recover(&pcfg))
            .err()
            .expect("recovering more shards than described must fail");
        assert!(err.to_string().contains("2 shards"), "{err}");
        assert!(err.to_string().contains("store root describes"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A fresh persistent store wipes the *whole* previous incarnation:
    /// shard directories beyond the new count must not survive, or every
    /// later recovery would refuse the store as a shard-count mismatch.
    #[test]
    fn fresh_persistent_store_wipes_a_wider_previous_incarnation() {
        let root = std::env::temp_dir().join(format!(
            "ruskey-sharded-rewipe-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut pcfg = PersistenceConfig::new(&root);
        pcfg.page_size = 512;
        pcfg.cost = CostModel::FREE;
        {
            let mut wide =
                RusKey::open(small_cfg(), 4, Box::new(NoOpTuner), Backend::Create(&pcfg))
                    .expect("open 4-shard store");
            wide.put(ruskey_workload::encode_key(1, 16), vec![1u8; 8]);
            wide.group_commit();
        }
        {
            let mut narrow =
                RusKey::open(small_cfg(), 2, Box::new(NoOpTuner), Backend::Create(&pcfg))
                    .expect("open 2-shard store over the old root");
            narrow.put(ruskey_workload::encode_key(2, 16), vec![2u8; 8]);
            narrow.group_commit();
        }
        let mut rec = RusKey::open(small_cfg(), 2, Box::new(NoOpTuner), Backend::Recover(&pcfg))
            .expect("a stale wider incarnation must not block recovery");
        assert_eq!(
            rec.get(&ruskey_workload::encode_key(2, 16)).as_deref(),
            Some(vec![2u8; 8].as_slice())
        );
        assert_eq!(
            rec.get(&ruskey_workload::encode_key(1, 16)),
            None,
            "the old incarnation's data must be gone"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn merge_handles_empty_and_interleaved_inputs() {
        let k = |i: u64| Bytes::copy_from_slice(&i.to_be_bytes());
        let v = Bytes::from_static(b"v");
        let merged = merge_sorted_scans(
            vec![
                vec![(k(1), v.clone()), (k(5), v.clone())],
                vec![],
                vec![(k(2), v.clone()), (k(3), v.clone()), (k(9), v.clone())],
            ],
            10,
        );
        let keys: Vec<u64> = merged
            .iter()
            .map(|(k, _)| u64::from_be_bytes(k.as_ref().try_into().unwrap()))
            .collect();
        assert_eq!(keys, vec![1, 2, 3, 5, 9]);
        // Allocated once, at the rows there are or the limit if fewer.
        assert_eq!(merged.capacity(), 5);
        let legs = vec![
            vec![(k(1), v.clone()), (k(4), v.clone())],
            vec![(k(2), v.clone()), (k(3), v.clone())],
        ];
        let capped = merge_sorted_scans(legs, 3);
        assert_eq!((capped.len(), capped.capacity()), (3, 3));
        assert!(merge_sorted_scans(Vec::<Vec<(Bytes, Bytes)>>::new(), 5).is_empty());
    }

    /// The store-wide scan as it was before it streamed: every shard's
    /// whole leg materialized through the ad-hoc door, one after the
    /// other, then merged. Kept as the oracle of the streamed scan.
    fn scan_by_legs(
        db: &mut RusKey,
        start: &[u8],
        end: &[u8],
        limit: usize,
    ) -> Vec<(Bytes, Bytes)> {
        db.adhoc_scans += 1;
        let op = Operation::Scan {
            start: Bytes::copy_from_slice(start),
            end: Bytes::copy_from_slice(end),
            limit,
        };
        let legs: Vec<_> = (0..db.shard_count())
            .map(|shard| db.adhoc(shard, &op).rows())
            .collect();
        merge_sorted_scans(legs, limit)
    }

    /// The streamed scan returns the rows the leg-by-leg oracle returns and
    /// leaves every shard's statistics where the oracle leaves them (clock,
    /// pages read, cache hits and misses): each shard's scan is drained to
    /// its own limit after the merge is full. Two persistent stores are
    /// built by the same operations, each behind a block cache smaller
    /// than its data, with tombstones, overwritten keys and keys still in
    /// the memtable; one is scanned by each path.
    #[test]
    fn a_streamed_scan_equals_the_leg_by_leg_scan() {
        let key = |i: u64| ruskey_workload::encode_key(i, 16);
        let build = |n: usize, side: &str| {
            let root = std::env::temp_dir().join(format!(
                "ruskey-streamed-scan-{}-{n}-{side}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let mut pcfg = PersistenceConfig::new(&root);
            pcfg.page_size = 512;
            pcfg.cache_pages = 16;
            let mut db = RusKey::open(small_cfg(), n, Box::new(NoOpTuner), Backend::Create(&pcfg))
                .expect("open persistent store");
            db.bulk_load(bulk_load_pairs(1500, 16, 48, 11));
            for i in (0..1500).step_by(3) {
                db.put(key(i), vec![7u8; 40]);
            }
            for i in (1..1500).step_by(7) {
                db.delete(key(i));
            }
            for i in 1500..1530 {
                db.put(key(i), vec![9u8; 8]);
            }
            db.group_commit();
            (db, root)
        };
        let ranges: Vec<(Bytes, Bytes, usize)> = [0, 1, 7, usize::MAX]
            .into_iter()
            .flat_map(|limit| {
                [
                    (key(0), key(2000), limit),
                    (key(400), key(1520), limit),
                    (key(900), key(300), limit),
                    (key(500), key(500), limit),
                ]
            })
            .collect();
        for n in [1, 2, 4] {
            let ((mut streamed, a), (mut legs, b)) = (build(n, "a"), build(n, "b"));
            assert_eq!(
                streamed.shard_snapshots(),
                legs.shard_snapshots(),
                "N={n}: same build"
            );
            assert!(streamed.stats().flushes > 0, "N={n}: runs must be on disk");
            for (start, end, limit) in &ranges {
                let want = scan_by_legs(&mut legs, start, end, *limit);
                let got = streamed.scan(start, end, *limit);
                let at = format!("N={n} [{start:?}, {end:?}) limit {limit}");
                assert_eq!(got, want, "{at}: rows");
                assert_eq!(
                    streamed.shard_snapshots(),
                    legs.shard_snapshots(),
                    "{at}: statistics"
                );
                assert_eq!(streamed.adhoc_scans, legs.adhoc_scans, "{at}: scans");
            }
            let full = streamed.scan(&key(0), &key(2000), usize::MAX);
            assert!(
                full.iter().any(|(k, _)| *k == key(1510)),
                "N={n}: memtable rows"
            );
            assert!(full.iter().all(|(k, _)| *k != key(8)), "N={n}: tombstones");
            assert!(
                streamed.stats().cache_misses > 0,
                "N={n}: the cache must miss"
            );
            drop((streamed, legs));
            let _ = (std::fs::remove_dir_all(a), std::fs::remove_dir_all(b));
        }
    }

    /// A sharded load deals each shard its pairs in input order, so of a
    /// key given several times the value first in input order wins, as in
    /// a one-tree load; every shard holds what a one-shard store loaded
    /// with that shard's pairs alone holds.
    #[test]
    fn a_sharded_load_keeps_the_first_of_duplicate_keys() {
        let key = |i: u64| ruskey_workload::encode_key(i, 16);
        let value = |i: u64, copy: u8| Bytes::from(vec![copy; 8 + i as usize % 5]);
        let mut pairs: Vec<(Bytes, Bytes)> = Vec::new();
        for copy in 0..3u8 {
            for i in 0..600u64 {
                if copy == 0 || i % (copy as u64 + 2) == 0 {
                    pairs.push((key(i), value(i, copy)));
                }
            }
        }
        pairs.rotate_left(150);
        let first = |k: &Bytes| pairs.iter().find(|(pk, _)| pk == k).map(|(_, v)| v.clone());
        for n in [2, 4] {
            let mut db = volatile(small_cfg(), n);
            db.bulk_load(pairs.clone());
            for i in 0..600u64 {
                assert_eq!(db.get(&key(i)), first(&key(i)), "N={n} key {i}");
            }
            for shard in 0..n {
                let mut alone = volatile(small_cfg(), 1);
                let own = pairs.iter().filter(|(k, _)| shard_for_key(k, n) == shard);
                alone.bulk_load(own.cloned().collect());
                let (lo, hi) = (key(0), key(600));
                assert_eq!(
                    db.shards[shard].scan(&lo, &hi, usize::MAX),
                    alone.shards[0].scan(&lo, &hi, usize::MAX),
                    "N={n} shard {shard}"
                );
            }
        }
    }
}
