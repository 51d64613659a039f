//! The FLSM-tree: a flexible LSM-tree with per-level compaction policies and
//! transition-friendly policy changes (§4.2).

use std::sync::Arc;

use ruskey_storage::{Extent, FaultPlan, Storage};

use crate::compaction::{Merge, Source};
use crate::config::LsmConfig;
use crate::entry::{EntryBuf, ENTRY_HEADER_BYTES};
use crate::iter::RangeScan;
use crate::level::{self, Level};
use crate::manifest::{LevelManifest, Manifest, ManifestError, ManifestState};
use crate::memtable::Memtable;
use crate::picker::{self, SCORE_SCALE};
use crate::run::{LookupKey, ProbeOutcome, Run, RunBuilder, RunId};
use crate::stats::{LevelStatsSnapshot, TreeStatsSnapshot};
use crate::transition::TransitionStrategy;
use crate::types::{EntryRef, Key, KvEntry, OpKind, SeqNo, Value};
use crate::wal::{SyncTicket, Wal};

/// Whether `key` falls inside aggregate `bounds` (false for none: an empty
/// level or tree).
fn in_bounds(bounds: &Option<(Key, Key)>, key: &[u8]) -> bool {
    bounds
        .as_ref()
        .is_some_and(|(lo, hi)| lo.as_ref() <= key && key <= hi.as_ref())
}

/// The one probe loop below the memtable, under [`FlsmTree::get`]:
/// `levels` yields each level's aggregate bounds and its runs in probe
/// order (newest data first).
///
/// O(1) bound fast paths: a key outside the aggregate range of every
/// resident run cannot exist on disk — return with zero probes, zero Bloom
/// checks, and zero page I/O. The tree-wide check rejects in one comparison
/// pair; a level whose own bounds exclude the key is skipped the same way.
/// A key that passes is hashed and prefixed once ([`LookupKey`]) for every
/// run it probes. Each probed level's counters land in `stats` (indexed by
/// level).
fn probe_levels<'a>(
    storage: &dyn Storage,
    key: &[u8],
    tree_bounds: &Option<(Key, Key)>,
    levels: impl Iterator<Item = (&'a Option<(Key, Key)>, impl Iterator<Item = &'a Arc<Run>>)>,
    stats: &mut [LevelStatsSnapshot],
) -> Option<Value> {
    if !in_bounds(tree_bounds, key) {
        return None;
    }
    let lookup = LookupKey::new(key);
    for (idx, (bounds, runs)) in levels.enumerate() {
        if !in_bounds(bounds, key) {
            continue;
        }
        let st = &mut stats[idx];
        let t0 = storage.clock().now();
        let mut found: Option<Option<Value>> = None;
        for run in runs {
            let r = run.probe(storage, &lookup);
            st.probes += 1;
            st.lookup_pages += r.pages_read as u64;
            match r.outcome {
                ProbeOutcome::Found(value) => {
                    found = Some(value);
                    break;
                }
                ProbeOutcome::FalsePositive => st.false_positives += 1,
                ProbeOutcome::FilteredOut => {}
            }
        }
        st.lookup_ns += storage.clock().elapsed_since(t0);
        if let Some(value) = found {
            return value;
        }
    }
    None
}

/// A flexible LSM-tree.
///
/// ```
/// use ruskey_lsm::{FlsmTree, LsmConfig};
/// use ruskey_storage::{CostModel, SimulatedDisk};
///
/// let disk = SimulatedDisk::new(4096, CostModel::NVME);
/// let mut tree = FlsmTree::new(LsmConfig::scaled_default(), disk);
/// tree.put(&b"hello"[..], &b"world"[..]);
/// assert_eq!(tree.get(b"hello").as_deref(), Some(&b"world"[..]));
/// tree.delete(&b"hello"[..]);
/// assert_eq!(tree.get(b"hello"), None);
/// ```
pub struct FlsmTree {
    storage: Arc<dyn Storage>,
    cfg: LsmConfig,
    memtable: Memtable,
    levels: Vec<Level>,
    level_stats: Vec<LevelStatsSnapshot>,
    seq: SeqNo,
    /// The flushed sequence watermark: `seq` as of the last flush or bulk
    /// load, so every write at or below it lives in a run. The manifest
    /// records this, never the live `seq`: a commit made while the
    /// memtable holds acknowledged writes must leave them to the WAL.
    flushed_seq: SeqNo,
    next_run_id: RunId,
    lookups: u64,
    updates: u64,
    scans: u64,
    flushes: u64,
    /// Optional write-ahead log: when attached, every put/delete is
    /// appended *before* the memtable insert and the log is recycled after
    /// each successful memtable flush. WAL I/O is charged to this tree's
    /// storage time domain.
    wal: Option<Wal>,
    /// Optional manifest: when attached, each structural step commits the
    /// tree's projection ([`ManifestState::of`]) at its end, so the full
    /// run/level structure survives a restart on a persistent backend.
    manifest: Option<Manifest>,
    /// Runs superseded by the mutation in flight, freed where its
    /// manifest commit lands: with a manifest attached only *after* the
    /// state without them is durable, so recovery never falls back to runs
    /// whose pages are already gone.
    pending_retire: Vec<Arc<Run>>,
    /// Virtual ns the write path spent blocked on structural work
    /// (flushes triggered by `put`/`delete`, backpressure stalls).
    stall_ns: u64,
    /// Background merges (maintenance steps that merged a level).
    bg_compactions: u64,
    /// Runs rebuilt from manifest + data pages by the last recovery.
    runs_recovered: u64,
    /// WAL records replayed on top of the recovered structure by the
    /// last recovery.
    replayed_tail: u64,
    /// Extent files orphaned by a pre-commit power cut and garbage-
    /// collected by the last recovery.
    orphans_collected: u64,
    /// The shard's fault plan, shared with the storage device (when it has
    /// one) and the attached logs: its dead flag is the tree's one "the
    /// process died" — an armed crash fired, or a storage barrier or log
    /// call failed and power-failed the tree.
    faults: Arc<FaultPlan>,
    /// Set when the in-flight mutation fsynced freshly created extents:
    /// their directory entries still need the one `sync_dir` barrier
    /// before the manifest state referencing them may commit.
    dir_sync_due: bool,
    /// Tree-wide aggregate `[min, max]` key range over every resident
    /// run (all levels), cached so a lookup outside it returns in O(1)
    /// with zero probes and zero I/O. `None` while no runs exist.
    /// Maintained together with the per-level [`Level::bounds`] at every
    /// structural mutation.
    bounds: Option<(Key, Key)>,
}

impl FlsmTree {
    /// Creates an empty tree over `storage`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid ([`LsmConfig::validate`]);
    /// use [`FlsmTree::try_new`] for fallible construction.
    pub fn new(cfg: LsmConfig, storage: Arc<dyn Storage>) -> Self {
        Self::try_new(cfg, storage).unwrap_or_else(|e| panic!("invalid LsmConfig: {e}"))
    }

    /// Creates an empty tree over `storage`, rejecting invalid
    /// configurations instead of panicking.
    pub fn try_new(
        cfg: LsmConfig,
        storage: Arc<dyn Storage>,
    ) -> Result<Self, crate::config::ConfigError> {
        cfg.validate()?;
        let faults = storage.faults().cloned().unwrap_or_default();
        Ok(Self {
            storage,
            cfg,
            memtable: Memtable::new(),
            levels: Vec::new(),
            level_stats: Vec::new(),
            seq: 0,
            flushed_seq: 0,
            next_run_id: 1,
            lookups: 0,
            updates: 0,
            scans: 0,
            flushes: 0,
            wal: None,
            manifest: None,
            pending_retire: Vec::new(),
            stall_ns: 0,
            bg_compactions: 0,
            runs_recovered: 0,
            replayed_tail: 0,
            orphans_collected: 0,
            faults,
            dir_sync_due: false,
            bounds: None,
        })
    }

    /// Recovers a tree from its **two** logs on a persistent storage
    /// backend — the full-store restart path:
    ///
    /// 1. the manifest's newest valid snapshot gives the run/level
    ///    structure (policies, sealed/active runs in exact probe order,
    ///    flushed sequence watermark, run-id allocation);
    /// 2. every recorded run is rebuilt from its data pages on `storage`
    ///    (`Run::recover` re-derives identical fence pointers and Bloom
    ///    filters, cross-checking the record's integrity expectations);
    /// 3. extents orphaned by a pre-commit power cut — data files no
    ///    recovered run references — are garbage-collected, and their
    ///    ids re-enter allocation safely;
    /// 4. the WAL tail — everything logged since the last flush — is
    ///    replayed into the memtable on top, order pinned by record seq.
    ///
    /// Both logs stay attached for subsequent operation. WAL records that
    /// a flush already superseded — the crash hit between the manifest
    /// commit and the WAL recycling, or a power cut lost a recycling's
    /// zero-fill — carry a seq at or below the recovered watermark and
    /// are skipped, so an older generation never shadows a newer run.
    ///
    /// The page reads recovery performs are charged to this tree's
    /// storage time domain like any other I/O.
    ///
    /// # Errors
    /// Besides I/O and corrupt-page errors, an `InvalidData` error
    /// carrying a [`ManifestError`] when a manifest slot has another
    /// format version, or when no slot holds a valid snapshot while
    /// `storage` holds pages. Nothing is deleted on any error.
    pub fn recover_persistent(
        cfg: LsmConfig,
        storage: Arc<dyn Storage>,
        manifest_path: impl AsRef<std::path::Path>,
        wal_path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<Self> {
        let mut manifest = match Manifest::recover(&manifest_path)? {
            Some(m) => m,
            None if storage.live_pages() > 0 => return Err(ManifestError::NoSnapshot.into()),
            None => Manifest::create(&manifest_path, 0)?,
        };
        let mut tree = Self::try_new(cfg, storage)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let state = manifest.state();
        let mut live = Vec::new();
        for (idx, lvl) in state.levels.iter().enumerate() {
            tree.ensure_level(idx);
            let level = &mut tree.levels[idx];
            (level.policy, level.pending_policy) = (lvl.policy, lvl.pending);
            let recover = |rec| Run::recover(tree.storage.as_ref(), rec).map(Arc::new);
            level.sealed = lvl.sealed.iter().map(recover).collect::<Result<_, _>>()?;
            level.active = lvl.active.as_ref().map(recover).transpose()?;
            level.refresh_bounds();
            live.extend(lvl.sealed.iter().chain(&lvl.active).map(|r| r.extent_id));
        }
        tree.runs_recovered = live.len() as u64;
        tree.refresh_tree_bounds();
        // Every run's max_seq is at or below the flushed watermark.
        (tree.seq, tree.flushed_seq) = (state.seq, state.seq);
        tree.next_run_id = state.next_run_id;
        // Garbage-collect extents orphaned by a power cut between their
        // data-page writes and the manifest commit: anything on the
        // device the recovered structure does not reference. Must run
        // *before* the WAL replay — a replay-triggered flush allocates
        // fresh extents the sweep must not touch — and it resets extent-
        // id allocation so the collected ids are safely reusable.
        tree.orphans_collected = tree.storage.collect_orphans(&live)?.len() as u64;
        // Replay the log's valid prefix in ascending sequence order, so the
        // latest version of a key wins in the memtable regardless of how
        // the log bytes were produced.
        let (wal, mut records) = Wal::recover(wal_path)?;
        records.retain(|e| e.seq > tree.seq);
        records.sort_by_key(|e| e.seq);
        tree.replayed_tail = records.len() as u64;
        for e in records {
            tree.seq = tree.seq.max(e.seq);
            tree.memtable.insert(e);
        }
        manifest.share_faults(&tree.faults);
        tree.manifest = Some(manifest);
        tree.attach_wal(wal);
        Ok(tree)
    }

    /// Attaches a write-ahead log: subsequent puts/deletes append to it
    /// before entering the memtable, and each successful memtable flush
    /// recycles it. Replaces any previously attached log; the log visits
    /// the tree's fault plan from now on.
    pub fn attach_wal(&mut self, mut wal: Wal) {
        wal.share_faults(&self.faults);
        self.wal = Some(wal);
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Mutable access to the attached write-ahead log.
    pub fn wal_mut(&mut self) -> Option<&mut Wal> {
        self.wal.as_mut()
    }

    /// Attaches a manifest: each later structural step (a flush, a
    /// compaction, a transition, a bulk load) commits the tree's
    /// projection at its end. A fresh manifest holds the empty state, so
    /// it must be attached while the tree is still empty. The manifest
    /// visits the tree's fault plan from now on.
    pub fn attach_manifest(&mut self, mut manifest: Manifest) {
        debug_assert!(
            self.levels.is_empty() && self.memtable.is_empty(),
            "attach_manifest requires an empty tree"
        );
        manifest.share_faults(&self.faults);
        self.manifest = Some(manifest);
    }

    /// The attached manifest, if any.
    pub fn manifest(&self) -> Option<&Manifest> {
        self.manifest.as_ref()
    }

    /// The shard's fault plan: the storage device's, shared with the
    /// attached logs (a tree over a device without one has its own). A
    /// test arms a [`ruskey_storage::Fault`] at a [`ruskey_storage::Site`]
    /// through it. Its [`FaultPlan::is_dead`] is the tree's one "the
    /// process died" flag — an armed fault fired, the storage device or a
    /// log failed mid-mutation, or the engine killed it after a panic
    /// inside the shard: the shard is dead and the harness should recover
    /// from the logs.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// `Err` once the shard's process died: what a commit leg returns, and
    /// what a mission lane returns before it executes anything on a dead
    /// shard.
    pub fn alive(&self) -> std::io::Result<()> {
        if self.faults.is_dead() {
            return Err(std::io::Error::other("the shard's process died"));
        }
        Ok(())
    }

    /// Syncs the attached WAL — the per-shard leg of a group-commit
    /// barrier. Exactly one fsync is issued, and only when unacknowledged
    /// records exist (an idle shard pays nothing), so a batch costs at
    /// most one sync per shard. The fsync's virtual cost is charged to
    /// this tree's storage time domain. Returns whether a sync was issued.
    ///
    /// This is [`FlsmTree::begin_commit`], the ticket's fsync and
    /// [`FlsmTree::finish_commit`] back to back — the one sync path; the
    /// serving frontend makes the three calls itself so that it holds the
    /// tree only for the first and the last.
    ///
    /// A shard whose process died — before the leg or inside it — fails
    /// it: a write issued after the death was never logged, so no barrier
    /// may answer as if it were acknowledged.
    pub fn commit_wal(&mut self) -> std::io::Result<bool> {
        let Some(ticket) = self.begin_commit()? else {
            return Ok(false);
        };
        let synced = ticket.sync_data();
        Ok(self.finish_commit(&ticket, synced)?.is_some())
    }

    /// First half of a commit leg: if the WAL holds unacknowledged records,
    /// writes its buffer to the file and returns the ticket whose fsync
    /// covers them (`Wal::begin_sync`). `None`: nothing to sync — no log,
    /// an idle one, or a memtable flush already superseded every record.
    ///
    /// A write that fails power-fails the shard, as a failed append, fsync
    /// or recycle does: the records it held may be half on the disk, so no
    /// later write may go down behind them. That error, and any once the
    /// shard's process died, is returned.
    pub fn begin_commit(&mut self) -> std::io::Result<Option<SyncTicket>> {
        let begun = match &mut self.wal {
            Some(wal) if wal.unsynced() > 0 => wal.begin_sync(),
            _ => Ok(None),
        };
        let ticket = begun.inspect_err(|_| self.faults.kill())?;
        self.alive().map(|()| ticket)
    }

    /// Second half of a commit leg, given what the ticket's fsync
    /// returned: the log's accounting (`Wal::finish_sync`) and, when it
    /// counted, the fsync's virtual cost on this tree's time domain.
    /// Returns the records newly acknowledged; `None` for a stale ticket,
    /// which acknowledges and charges nothing.
    ///
    /// A failed fsync power-fails the shard, as a failed extent, directory
    /// or manifest barrier does: the kernel may have dropped the dirty
    /// pages it could not write, so no later fsync may acknowledge the
    /// records they held. That error, and any once the shard's process
    /// died (no cost accrues to a dead domain), is returned.
    pub fn finish_commit(
        &mut self,
        ticket: &SyncTicket,
        synced: std::io::Result<()>,
    ) -> std::io::Result<Option<u64>> {
        if let Err(e) = synced {
            self.faults.kill();
            return Err(e);
        }
        let newly = self.wal.as_mut().and_then(|wal| wal.finish_sync(ticket));
        self.alive()?;
        if newly.is_some() {
            self.storage
                .charge_cpu(self.storage.cost_model().wal_sync_ns);
        }
        Ok(newly)
    }

    /// Whether every record `ticket` covers is acknowledged: covered by a
    /// finished fsync, or superseded by a memtable flush. True without a
    /// log.
    pub fn covers(&self, ticket: &SyncTicket) -> bool {
        self.wal.as_ref().is_none_or(|wal| wal.covers(ticket))
    }

    /// [`FlsmTree::commit_wal`] with its cost measured on this tree's own
    /// storage time domain: returns whether a sync was issued and the
    /// virtual ns the commit leg added to the domain. This is the entry
    /// point the engine's commit barriers call — from the mission thread
    /// for a single tree, or from a sharded mission's lane, whose leg
    /// runs concurrently with its siblings' (the per-domain clock makes
    /// the reading exact either way).
    pub fn commit_wal_timed(&mut self) -> std::io::Result<(bool, u64)> {
        let before = self.storage.clock().now_ns();
        let synced = self.commit_wal()?;
        Ok((synced, self.storage.clock().now_ns() - before))
    }

    /// The tree's configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.cfg
    }

    /// The storage device the tree runs on.
    pub fn storage(&self) -> &Arc<dyn Storage> {
        &self.storage
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Inserts or overwrites a key. With a WAL attached the write is
    /// logged before it enters the memtable.
    pub fn put(&mut self, key: impl Into<Key>, value: impl Into<Value>) {
        self.seq += 1;
        self.updates += 1;
        self.storage
            .charge_cpu(self.storage.cost_model().cpu_memtable_ns);
        let e = KvEntry::put(key, value, self.seq);
        self.log_write(&e);
        self.memtable.insert(e);
        self.after_write();
    }

    /// Deletes a key (writes a tombstone). With a WAL attached the
    /// tombstone is logged before it enters the memtable.
    pub fn delete(&mut self, key: impl Into<Key>) {
        self.seq += 1;
        self.updates += 1;
        self.storage
            .charge_cpu(self.storage.cost_model().cpu_memtable_ns);
        let e = KvEntry::delete(key, self.seq);
        self.log_write(&e);
        self.memtable.insert(e);
        self.after_write();
    }

    /// Appends one entry to the attached WAL (no-op without one), charging
    /// the append to this tree's storage time domain. A log that cannot
    /// take the record is a power failure, like a failed barrier: the
    /// write is never acknowledged, and the tree is crashed.
    fn log_write(&mut self, e: &KvEntry) {
        let Some(wal) = &mut self.wal else {
            return;
        };
        if wal.append(e).is_err() {
            self.faults.kill();
            return;
        }
        if self.faults.is_dead() {
            // Appends on a dead handle are no-ops; a dead process
            // charges nothing to its time domain.
            return;
        }
        let ns = self.storage.cost_model().wal_append_ns;
        if ns > 0 {
            self.storage.charge_cpu(ns);
        }
    }

    /// Structural work a `put`/`delete` may have to absorb inline, with
    /// the time it blocks measured onto `stall_ns` (measured elapsed
    /// virtual time — structural I/O and CPU keep their ordinary charges;
    /// the counter only attributes them to the write that waited).
    ///
    /// Inline mode flushes the moment the buffer fills (and the flush may
    /// cascade). Background mode defers the flush to maintenance steps,
    /// keeping only a 2× buffer backstop so an unserviced tree cannot
    /// grow its memtable without bound, and stalls the write while
    /// Level 1 has piled up more than [`FlsmTree::L0_STALL_RUNS`] runs —
    /// the stall *runs* maintenance steps, so it is backpressure that
    /// drains the debt it is blocked on.
    fn after_write(&mut self) {
        let t0 = self.storage.clock().now();
        let limit = if self.cfg.background_maintenance {
            self.cfg.buffer_bytes.saturating_mul(2)
        } else {
            self.cfg.buffer_bytes
        };
        if self.memtable.bytes() >= limit {
            self.flush();
        }
        if self.cfg.background_maintenance {
            while self.level_run_count(0) > Self::L0_STALL_RUNS {
                if !self.step_maintenance() {
                    break;
                }
            }
        }
        self.stall_ns += self.storage.clock().elapsed_since(t0);
    }

    /// Flushes the memtable into Level 1 (index 0) regardless of fill.
    ///
    /// Ordering is the durability contract of the two-log design,
    /// extended to power-failure semantics: the flushed run's data pages
    /// are written *and fsynced* first (extent fsync, then one directory
    /// fsync naming it), then the manifest commits the tree's new state
    /// (run added, superseded runs removed, flushed watermark) as one
    /// snapshot, and only then is the WAL recycled — so at every
    /// crash or power-cut point either the manifest or the WAL still
    /// covers the flushed records, and the manifest never references
    /// pages the device could lose. A recycling that fails is a power
    /// failure like a failed barrier: the committed flush already covers
    /// every record the log held.
    pub fn flush(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        let flushed = std::mem::take(&mut self.memtable);
        self.flushes += 1;
        self.admit_batch(0, Source::Mem(flushed.cursor()));
        self.flushed_seq = self.seq;
        self.commit_manifest();
        if self.faults.is_dead() {
            // Process death inside the manifest commit: the WAL must keep
            // its records (they may be the only copy).
            return;
        }
        if self.wal.as_mut().is_some_and(|w| w.reset().is_err()) {
            self.faults.kill();
        }
    }

    // ------------------------------------------------------------------
    // Manifest plumbing
    // ------------------------------------------------------------------

    /// Step 1 of the power-failure contract: a freshly built run's data
    /// pages are fsynced *before* any manifest state referencing them can
    /// commit, and the pending directory barrier is noted for commit
    /// time. Volatile backends no-op at zero cost; a failed barrier
    /// means the device power-failed and the mutation is abandoned.
    fn sync_new_run(&mut self, ext: Extent) {
        if self.faults.is_dead() {
            return;
        }
        match self.storage.sync_extent(ext) {
            Ok(_) => self.dir_sync_due = true,
            Err(_) => self.faults.kill(),
        }
    }

    /// Commits the tree's projection to the attached manifest, charges
    /// one record append and one sync to this tree's storage time domain
    /// when a record was written, and — only once it is durable — frees
    /// the extents of the runs the mutation superseded. A commit that
    /// fails is a power failure, like a failed barrier.
    fn commit_manifest(&mut self) {
        // Step 2 boundary of the power-failure contract: every extent
        // this mutation created is already fsynced; one directory fsync
        // now makes their *names* durable before the manifest state
        // referencing them commits. Volatile backends no-op.
        if self.dir_sync_due && !self.faults.is_dead() {
            match self.storage.sync_dir() {
                Ok(_) => self.dir_sync_due = false,
                Err(_) => self.faults.kill(),
            }
        }
        let state = self.manifest.as_ref().map(|_| ManifestState::of(self));
        let (Some(m), Some(state)) = (&mut self.manifest, state) else {
            self.free_retired();
            return;
        };
        let Ok(wrote) = m.commit(state) else {
            self.faults.kill();
            return;
        };
        if self.faults.is_dead() {
            // Process death: the deferred frees never happen (recovery
            // sweeps the orphaned pages) and a dead process charges
            // nothing to its time domain.
            return;
        }
        if wrote {
            let cost = self.storage.cost_model();
            self.storage
                .charge_cpu(cost.wal_append_ns + cost.wal_sync_ns);
        }
        self.free_retired();
    }

    /// Retires a superseded run: its extent is freed where the mutation's
    /// manifest commit lands ([`FlsmTree::commit_manifest`]).
    fn retire_run(&mut self, run: Arc<Run>) {
        self.pending_retire.push(run);
    }

    /// Frees the extents of the runs the committed mutation superseded, in
    /// the order they were retired. Freeing through `storage` also purges
    /// any block-cache pages mapping the extent — the extent id re-enters
    /// circulation only here.
    ///
    /// No reader can hold a freed run: every read borrows the tree, and a
    /// merge reads its inputs before it retires them.
    fn free_retired(&mut self) {
        for run in self.pending_retire.drain(..) {
            self.storage.free(run.extent());
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Point lookup. Returns the latest value, or `None` if absent/deleted.
    pub fn get(&mut self, key: &[u8]) -> Option<Value> {
        self.lookups += 1;
        if let Some(buffered) = self.memtable.lookup(key) {
            return buffered.cloned();
        }
        let levels = self.levels.iter().map(|l| (&l.bounds, l.probe_order()));
        probe_levels(
            self.storage.as_ref(),
            key,
            &self.bounds,
            levels,
            &mut self.level_stats,
        )
    }

    /// Range scan over `[start, end)`, at most `limit` results, in key order.
    /// Deleted keys are excluded; each key appears once with its latest value.
    /// An inverted range (`start > end`) is empty, like `[a, a)`, and still
    /// counts as a scan.
    ///
    /// [`FlsmTree::range_scan`] collected: the result holds every row it
    /// returns, and each row's key and value are slices of the page they
    /// were read from (or the memtable's own handles), not copies.
    pub fn scan(&mut self, start: &[u8], end: &[u8], limit: usize) -> Vec<(Key, Value)> {
        let mut rows = Vec::with_capacity(limit.min(128));
        rows.extend(self.range_scan(start, end, limit));
        rows
    }

    /// The lazy form of [`FlsmTree::scan`]: the same rows, produced one
    /// at a time. It holds one cursor per overlapping run (one page each)
    /// and one on the memtable, and reads a page only when a row needs it,
    /// so the pages read and the cache traffic are the collected scan's
    /// once it has been driven to its end or its limit. The scan counts
    /// when it is made.
    pub fn range_scan<'a>(
        &'a mut self,
        start: &[u8],
        end: &'a [u8],
        limit: usize,
    ) -> RangeScan<'a> {
        self.scans += 1;
        let tree: &'a Self = self;
        if start > end {
            return RangeScan::new(Vec::new(), end, 0);
        }
        let storage: &dyn Storage = tree.storage.as_ref();
        let mut sources = vec![Source::Mem(tree.memtable.range(start, end))];
        for level in &tree.levels {
            for run in level.probe_order() {
                if start <= run.max_key().as_ref() && run.min_key().as_ref() < end {
                    sources.push(Source::Run(run.cursor_from(storage, start)));
                }
            }
        }
        RangeScan::new(sources, end, limit)
    }

    // ------------------------------------------------------------------
    // Structure management
    // ------------------------------------------------------------------

    fn ensure_level(&mut self, idx: usize) {
        while self.levels.len() <= idx {
            let i = self.levels.len();
            self.levels.push(Level::new(
                i,
                self.cfg.level_capacity(i),
                self.cfg.initial_policy,
            ));
            self.level_stats.push(LevelStatsSnapshot::default());
        }
    }

    /// Refreshes the cached bounds of `levels[idx]` and the tree-wide
    /// aggregate; called after every mutation of a level's run set.
    fn refresh_bounds(&mut self, idx: usize) {
        self.levels[idx].refresh_bounds();
        self.refresh_tree_bounds();
    }

    /// Recomputes the tree-wide aggregate bounds from the cached
    /// per-level bounds (O(levels), no run access).
    fn refresh_tree_bounds(&mut self) {
        let levels = self.levels.iter().filter_map(|l| l.bounds.as_ref());
        self.bounds = level::span(levels.map(|(lo, hi)| (lo, hi)));
    }

    /// The tree-wide aggregate `[min, max]` key range over all resident
    /// runs, or `None` while nothing has been flushed.
    pub fn key_bounds(&self) -> Option<(&Key, &Key)> {
        self.bounds.as_ref().map(|(lo, hi)| (lo, hi))
    }

    /// Admits a sorted batch (from a flush or an upper-level merge) into the
    /// active run of level `idx`, then cascades if the level became full.
    fn admit_batch(&mut self, idx: usize, batch: Source<'_>) {
        if batch.entry().is_none() {
            return;
        }
        self.ensure_level(idx);
        let t0 = self.storage.clock().now();
        let m0 = self.storage.metrics();

        // Tombstones may be dropped only when the merge output will be the
        // *only* data at the deepest populated depth: no sealed runs remain
        // in this level and nothing lives below, so no older version of any
        // key can resurface.
        let is_bottom = self.levels[idx].sealed.is_empty()
            && self.levels[idx + 1..].iter().all(|l| l.run_count() == 0);
        let bits = self.cfg.bloom.bits_for_level(idx, self.cfg.size_ratio);
        let active_cap = self.levels[idx].active_capacity();
        let old_active = self.levels[idx].active.take();

        let mut sources = Vec::with_capacity(2);
        if let Some(active) = &old_active {
            sources.push(Source::Run(active.cursor(self.storage.as_ref())));
        }
        sources.push(batch);

        let mut merge = Merge::new(sources, is_bottom);
        let run_id = self.next_run_id;
        self.next_run_id += 1;
        let mut builder = RunBuilder::new(run_id, self.storage.as_ref(), bits);
        merge.drain_into(|e| builder.push(e));
        let keys_processed = merge.entries_in;
        self.storage
            .charge_cpu(self.storage.cost_model().cpu_merge_per_key_ns * keys_processed);

        let new_run = builder.finish(active_cap).map(Arc::new);
        if let Some(run) = &new_run {
            // The run's pages must be durable before a state naming it
            // can commit (power-failure contract, step 1).
            self.sync_new_run(run.extent());
        }
        if let Some(old) = old_active {
            self.retire_run(old);
        }
        if let Some(run) = new_run {
            let sealed = run.data_bytes() >= run.capacity_bytes();
            let level = &mut self.levels[idx];
            if sealed {
                level.sealed.push(run);
            } else {
                level.active = Some(run);
            }
        }

        let dm = self.storage.metrics().delta(&m0);
        let st = &mut self.level_stats[idx];
        st.compact_ns += self.storage.clock().elapsed_since(t0);
        st.compact_pages_read += dm.pages_read;
        st.compact_pages_written += dm.pages_written;
        st.compact_keys += keys_processed;
        self.refresh_bounds(idx);

        // Background mode leaves a full level in place for the picker;
        // inline mode cascades immediately, on the caller's (write) path.
        if !self.cfg.background_maintenance && self.levels[idx].is_full() && !self.faults.is_dead()
        {
            self.merge_down(idx);
        }
    }

    /// Merges all runs of level `idx` into level `idx + 1`: the inline
    /// cascade of a full level and a greedy transition.
    fn merge_down(&mut self, idx: usize) {
        let runs = self.levels[idx].take_all_runs();
        self.merge_level(idx, runs);
    }

    /// The one level merge, under [`FlsmTree::merge_down`] and a background
    /// step: k-way merges `runs`, just removed from level `idx`, retires
    /// them, and admits the output into level `idx + 1`. The level adopts
    /// its pending (lazy) policy once it is empty.
    fn merge_level(&mut self, idx: usize, runs: Vec<Arc<Run>>) {
        self.ensure_level(idx + 1);
        let t0 = self.storage.clock().now();
        let m0 = self.storage.metrics();

        let sources = runs
            .iter()
            .map(|r| Source::Run(r.cursor(self.storage.as_ref())))
            .collect();
        let mut merge = Merge::new(sources, false);
        let mut batch = EntryBuf::default();
        merge.drain_into(|e| batch.push(e));
        let keys = merge.entries_in;
        self.storage
            .charge_cpu(self.storage.cost_model().cpu_merge_per_key_ns * keys);
        runs.into_iter().for_each(|r| self.retire_run(r));

        let dm = self.storage.metrics().delta(&m0);
        let st = &mut self.level_stats[idx];
        st.compact_ns += self.storage.clock().elapsed_since(t0);
        st.compact_pages_read += dm.pages_read;
        st.compact_pages_written += dm.pages_written;
        st.compact_keys += keys;
        st.merges_down += 1;

        // The level lost its runs; the tree aggregate must not keep
        // covering their range (the admitted batch below may be empty
        // after tombstone drops, so this cannot ride on admit_batch).
        self.refresh_bounds(idx);
        if self.levels[idx].run_count() == 0 {
            self.levels[idx].adopt_pending_policy();
        }
        self.admit_batch(idx + 1, Source::Buf(batch.cursor()));
    }

    // ------------------------------------------------------------------
    // Background maintenance
    // ------------------------------------------------------------------

    /// Runs one bounded unit of background maintenance; returns whether
    /// any work was done. Priority order:
    ///
    /// 1. flush a memtable at or over the configured buffer size;
    /// 2. ask the picker ([`picker::pick`]) for the neediest level, merge
    ///    its sealed runs into the next level and commit the manifest.
    ///
    /// Either way the step ends on a manifest commit. Callers interleave
    /// steps between operation batches; [`FlsmTree::maintain`] loops. On a
    /// quiescent tree the step does nothing and reports no work done.
    pub fn step_maintenance(&mut self) -> bool {
        if self.faults.is_dead() {
            return false;
        }
        if self.memtable.bytes() >= self.cfg.buffer_bytes {
            self.flush();
            return true;
        }
        let Some(idx) = picker::pick(&self.levels) else {
            return false;
        };
        let runs = std::mem::take(&mut self.levels[idx].sealed);
        self.merge_level(idx, runs);
        self.bg_compactions += 1;
        self.commit_manifest();
        true
    }

    /// Runs up to `max_steps` maintenance steps; returns how many did
    /// work. A return below `max_steps` means the tree went quiescent.
    pub fn maintain(&mut self, max_steps: u64) -> u64 {
        let mut steps = 0;
        while steps < max_steps && self.step_maintenance() {
            steps += 1;
        }
        steps
    }

    /// Maintenance steps one boundary grant may run.
    pub const BOUNDARY_MAINTAIN_STEPS: u64 = 4;

    /// Backpressure threshold of background mode: a `put`/`delete` stalls
    /// (runs maintenance steps inline) while Level 1 holds more runs.
    pub const L0_STALL_RUNS: usize = 8;

    /// The boundary grant: the bounded share of deferred structural work
    /// a caller owes the tree whenever a batch of operations ends (a
    /// mission lane, a served batch, every n-th ad-hoc write): up to
    /// [`FlsmTree::BOUNDARY_MAINTAIN_STEPS`] steps, each a flush or a whole
    /// level merge with its manifest commit. With
    /// `background_maintenance` off the write path already did the work
    /// inline and the grant is a no-op. Callers decide *when* a boundary
    /// falls; how much it grants is decided here, once.
    pub fn maintain_boundary(&mut self) -> u64 {
        if self.cfg.background_maintenance {
            self.maintain(Self::BOUNDARY_MAINTAIN_STEPS)
        } else {
            0
        }
    }

    /// Bytes resident in levels the picker currently scores at or above
    /// the work threshold — a gauge of outstanding structural debt.
    pub(crate) fn pending_compaction_bytes(&self) -> u64 {
        self.levels
            .iter()
            .filter(|l| !l.sealed.is_empty() && picker::level_score(l) >= SCORE_SCALE)
            .map(Level::data_bytes)
            .sum()
    }

    // ------------------------------------------------------------------
    // Compaction-policy tuning interface
    // ------------------------------------------------------------------

    /// Number of levels materialized so far.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The policy `K_i` of a (zero-based) level; levels beyond the current
    /// depth report the configured initial policy.
    pub fn policy(&self, idx: usize) -> u32 {
        self.levels
            .get(idx)
            .map_or(self.cfg.initial_policy, |l| l.policy)
    }

    /// Policies of all materialized levels.
    pub fn policies(&self) -> Vec<u32> {
        self.levels.iter().map(|l| l.policy).collect()
    }

    /// Changes the compaction policy of level `idx` to `k` (clamped to
    /// `[1, T]`), using the configured [`TransitionStrategy`].
    pub fn set_policy(&mut self, idx: usize, k: u32) {
        self.ensure_level(idx);
        let k = self.cfg.clamp_policy(k as i64);
        if self.levels[idx].policy == k && self.levels[idx].pending_policy.is_none() {
            return;
        }
        self.level_stats[idx].transitions += 1;
        match self.cfg.transition {
            TransitionStrategy::Flexible => self.levels[idx].apply_flexible(k),
            TransitionStrategy::Lazy => self.levels[idx].apply_lazy(k),
            TransitionStrategy::Greedy => {
                // §4.1: merge and flush all the level's data into the next
                // level immediately, then rebuild under the new policy.
                self.levels[idx].policy = k;
                self.levels[idx].pending_policy = None;
                if self.levels[idx].run_count() > 0 {
                    self.merge_down(idx);
                }
            }
        }
        self.commit_manifest();
    }

    /// Sets every materialized level's policy to `k`.
    pub fn set_policy_all(&mut self, k: u32) {
        for idx in 0..self.levels.len() {
            self.set_policy(idx, k);
        }
    }

    // ------------------------------------------------------------------
    // Introspection & statistics
    // ------------------------------------------------------------------

    /// Fill ratio `D/C` of a level.
    pub fn level_fill(&self, idx: usize) -> f64 {
        self.levels.get(idx).map_or(0.0, Level::fill_ratio)
    }

    /// Number of runs in a level.
    pub fn level_run_count(&self, idx: usize) -> usize {
        self.levels.get(idx).map_or(0, Level::run_count)
    }

    /// Snapshot of all statistics. One tree is one time domain, so the
    /// wall (`clock_ns`) and busy (`busy_ns`) readings coincide here; they
    /// diverge only in shard-merged snapshots.
    pub fn stats(&self) -> TreeStatsSnapshot {
        let domain_ns = self.storage.clock().now_ns();
        let io = self.storage.metrics();
        TreeStatsSnapshot {
            lookups: self.lookups,
            updates: self.updates,
            scans: self.scans,
            flushes: self.flushes,
            clock_ns: domain_ns,
            busy_ns: domain_ns,
            wal_appends: self.wal.as_ref().map_or(0, Wal::appended),
            wal_syncs: self.wal.as_ref().map_or(0, Wal::sync_count),
            wal_synced: self.wal.as_ref().map_or(0, Wal::durable_records),
            manifest_edits: self.manifest.as_ref().map_or(0, Manifest::records),
            runs_recovered: self.runs_recovered,
            replayed_tail: self.replayed_tail,
            orphans_collected: self.orphans_collected,
            extent_syncs: io.extent_syncs,
            dir_syncs: io.dir_syncs,
            unlink_failures: io.unlink_failures,
            cache_hits: io.cache_hits,
            cache_misses: io.cache_misses,
            cache_evictions: io.cache_evictions,
            stall_ns: self.stall_ns,
            bg_compactions: self.bg_compactions,
            pending_compaction_bytes: self.pending_compaction_bytes(),
            levels: self.level_stats.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Bulk loading
    // ------------------------------------------------------------------

    /// Bulk-loads a fresh tree with unique key-value pairs, mimicking the
    /// steady-state layout reached after sustained insertion: deeper levels
    /// hold (exponentially) more data, and every level holds a uniform
    /// sample of the key space so probe behaviour matches a naturally grown
    /// tree. Of duplicate keys the first in input order wins.
    ///
    /// One pass over the sorted pairs picks each entry's level and sums
    /// the levels' bytes; a second deals every pair straight into its
    /// level's run builders, round robin, consuming the input. Beyond the
    /// pairs themselves it holds one level byte per entry and, per run, the
    /// pages not yet appended to storage, until the runs are finished in
    /// run-id order.
    ///
    /// # Panics
    /// Panics if the tree is not empty.
    pub fn bulk_load(&mut self, mut pairs: Vec<(Key, Value)>) {
        assert!(
            self.levels.is_empty() && self.memtable.is_empty(),
            "bulk_load requires an empty tree"
        );
        if pairs.is_empty() {
            return;
        }
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup_by(|a, b| a.0 == b.0);
        self.seq = pairs.len() as u64 + 1;
        let size = |(k, v): &(Key, Value)| (ENTRY_HEADER_BYTES + k.len() + v.len()) as u64;
        let total: u64 = pairs.iter().map(size).sum();

        // Choose the number of levels so the layout matches a naturally
        // grown tree: upper levels about half full, the bottom level holding
        // the bulk of the data (at most 90% full).
        const UPPER_FILL: f64 = 0.5;
        const BOTTOM_FILL: f64 = 0.9;
        let mut depth = 1usize;
        loop {
            let uppers: f64 = (0..depth - 1)
                .map(|i| self.cfg.level_capacity(i) as f64 * UPPER_FILL)
                .sum();
            let bottom_remaining = total as f64 - uppers;
            if bottom_remaining <= self.cfg.level_capacity(depth - 1) as f64 * BOTTOM_FILL
                || depth >= 24
            {
                break;
            }
            depth += 1;
        }
        self.ensure_level(depth - 1);

        // Per-level byte targets: upper levels half full, bottom the rest.
        let mut targets = vec![0u64; depth];
        let mut remaining = total;
        for (i, target) in targets.iter_mut().enumerate().take(depth - 1) {
            let take = remaining.min((self.cfg.level_capacity(i) as f64 * UPPER_FILL) as u64);
            *target = take;
            remaining -= take;
        }
        targets[depth - 1] = remaining;

        // Pass 1: deal entries to levels proportionally (largest-remainder
        // credit scheme) so each level samples the key space uniformly.
        let mut level_bytes = vec![0u64; depth];
        let mut credit = vec![0f64; depth];
        let fractions: Vec<f64> = targets.iter().map(|&t| t as f64 / total as f64).collect();
        let level_of: Vec<u8> = pairs
            .iter()
            .map(|pair| {
                for (c, f) in credit.iter_mut().zip(&fractions) {
                    *c += f;
                }
                let lvl = (0..depth)
                    .max_by(|&a, &b| credit[a].total_cmp(&credit[b]))
                    .unwrap_or(0);
                credit[lvl] -= 1.0;
                level_bytes[lvl] += size(pair);
                lvl as u8
            })
            .collect();

        // Each level stripes across ceil(bytes / run_cap) runs so every run
        // spans the key space (as tiering produces naturally); run ids go
        // level by level, run by run. The builders fill side by side, so
        // each claims its extent as it is made, in run-id order.
        let storage = Arc::clone(&self.storage);
        let mut rows: Vec<Vec<RunBuilder>> = Vec::with_capacity(depth);
        for (idx, &bytes) in level_bytes.iter().enumerate() {
            let bits = self.cfg.bloom.bits_for_level(idx, self.cfg.size_ratio);
            let runs = bytes.div_ceil(self.levels[idx].active_capacity());
            let ids = self.next_run_id..self.next_run_id + runs;
            self.next_run_id += runs;
            let builder = |id| RunBuilder::new(id, storage.as_ref(), bits).claim_extent();
            rows.push(ids.map(builder).collect());
        }

        // Pass 2: each pair goes straight into its level's next run.
        let mut next = vec![0usize; depth];
        for (i, ((key, value), lvl)) in pairs.into_iter().zip(level_of).enumerate() {
            let (row, run) = (&mut rows[lvl as usize], &mut next[lvl as usize]);
            row[*run].push(EntryRef {
                key: &key,
                value: &value,
                seq: i as u64 + 1,
                kind: OpKind::Put,
            });
            *run = (*run + 1) % row.len();
        }

        for (idx, row) in rows.into_iter().enumerate() {
            let run_cap = self.levels[idx].active_capacity();
            let n_runs = row.len();
            for (b, builder) in row.into_iter().enumerate() {
                if let Some(run) = builder.finish(run_cap).map(Arc::new) {
                    self.sync_new_run(run.extent());
                    let active = b + 1 == n_runs && run.data_bytes() < run.capacity_bytes();
                    let level = &mut self.levels[idx];
                    if active {
                        level.active = Some(run);
                    } else {
                        level.sealed.push(run);
                    }
                }
            }
        }
        self.levels.iter_mut().for_each(Level::refresh_bounds);
        self.refresh_tree_bounds();
        self.flushed_seq = self.seq;
        self.commit_manifest();
    }
}

impl ManifestState {
    /// The tree's structure as its manifest records it: every level's
    /// policies and runs in probe order, the next run id and the flushed
    /// sequence watermark.
    pub fn of(tree: &FlsmTree) -> Self {
        let levels = tree.levels.iter().map(|l| LevelManifest {
            policy: l.policy,
            pending: l.pending_policy,
            sealed: l.sealed.iter().map(|r| r.record()).collect(),
            active: l.active.as_ref().map(|r| r.record()),
        });
        Self {
            levels: levels.collect(),
            seq: tree.flushed_seq,
            next_run_id: tree.next_run_id,
        }
    }
}

impl std::fmt::Debug for FlsmTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("FlsmTree");
        s.field("levels", &self.levels.len())
            .field("memtable_bytes", &self.memtable.bytes())
            .field("policies", &self.policies());
        s.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use ruskey_storage::{CostModel, Fault, SimulatedDisk, Site};

    impl FlsmTree {
        /// Changes the transition strategy used by subsequent policy changes.
        fn set_transition_strategy(&mut self, strategy: TransitionStrategy) {
            self.cfg.transition = strategy;
        }

        /// Logical bytes stored in a level (0 when the level doesn't exist).
        fn level_bytes(&self, idx: usize) -> u64 {
            self.levels.get(idx).map_or(0, Level::data_bytes)
        }

        /// Capacity `C_i` of a level as configured.
        fn level_capacity(&self, idx: usize) -> u64 {
            self.cfg.level_capacity(idx)
        }
    }

    fn key(i: u64) -> Key {
        Bytes::copy_from_slice(&i.to_be_bytes())
    }

    fn val(i: u64) -> Value {
        Bytes::from(format!("value-{i:08}"))
    }

    /// A drained scan counts the rows the collected scan returns and reads
    /// the same pages in the same order. Twin trees sit behind block caches
    /// smaller than their data, so the order shows in later hits. Every
    /// limit, over a full, a partial, an inverted and an empty range, must
    /// leave equal tree statistics and equal cache and device counters; the
    /// run of small limits puts some limit at a page boundary, where one
    /// merge step too many would read a page the collected scan does not.
    #[test]
    fn a_drained_scan_reads_what_a_collected_scan_reads() {
        let twin = || {
            let cache =
                ruskey_storage::BlockCache::new(SimulatedDisk::new(512, CostModel::NVME), 24);
            let cfg = LsmConfig {
                buffer_bytes: 4096,
                size_ratio: 4,
                ..LsmConfig::scaled_default()
            };
            let mut t = FlsmTree::new(cfg, cache.clone());
            t.bulk_load((0..3000u64).map(|i| (key(i), val(i))).collect());
            for i in (0..3000u64).step_by(7) {
                t.put(key(i), val(i + 1));
            }
            for i in (0..3000u64).step_by(11) {
                t.delete(key(i));
            }
            (t, cache)
        };
        let (mut collected, collected_cache) = twin();
        let (mut drained, drained_cache) = twin();
        assert!(collected.level_count() >= 2 && !collected.memtable.is_empty());
        let ranges = [(0, 3000), (700, 1900), (1900, 700), (5000, 6000)];
        for (start, end) in ranges {
            for limit in [0, 1, 7, usize::MAX].into_iter().chain(2..48) {
                let (start, end) = (key(start), key(end));
                let rows = collected.scan(&start, &end, limit).len();
                let what = format!("{start:?}..{end:?} limit {limit}");
                assert_eq!(
                    drained.range_scan(&start, &end, limit).drain(),
                    rows,
                    "{what}"
                );
                assert_eq!(collected.stats(), drained.stats(), "{what}");
                assert_eq!(collected_cache.metrics(), drained_cache.metrics(), "{what}");
            }
        }
        assert!(collected_cache.metrics().cache_evictions > 0);
    }

    /// A sharded mission lends each tree to a scoped thread, so the tree
    /// (and everything it owns) must stay `Send`. Compile-time assertion.
    #[test]
    fn tree_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FlsmTree>();
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let cfg = LsmConfig {
            size_ratio: 1,
            ..LsmConfig::scaled_default()
        };
        let err = FlsmTree::try_new(cfg, disk).expect_err("must reject T < 2");
        assert!(err.to_string().contains("size_ratio"));
    }

    fn small_tree() -> FlsmTree {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let cfg = LsmConfig {
            buffer_bytes: 1024,
            size_ratio: 4,
            initial_policy: 1,
            ..LsmConfig::scaled_default()
        };
        FlsmTree::new(cfg, disk)
    }

    #[test]
    fn put_get_roundtrip_through_flushes() {
        let mut t = small_tree();
        for i in 0..500u64 {
            t.put(key(i), val(i));
        }
        for i in 0..500u64 {
            assert_eq!(t.get(&key(i)), Some(val(i)), "key {i}");
        }
        assert!(t.level_count() >= 1);
        assert!(t.stats().flushes > 0);
    }

    #[test]
    fn overwrites_return_latest() {
        let mut t = small_tree();
        for round in 0..5u64 {
            for i in 0..100u64 {
                t.put(key(i), val(i * 1000 + round));
            }
        }
        for i in 0..100u64 {
            assert_eq!(t.get(&key(i)), Some(val(i * 1000 + 4)));
        }
    }

    #[test]
    fn deletes_mask_older_values() {
        let mut t = small_tree();
        for i in 0..200u64 {
            t.put(key(i), val(i));
        }
        for i in 0..200u64 {
            if i % 3 == 0 {
                t.delete(key(i));
            }
        }
        // Force everything to disk.
        t.flush();
        for i in 0..200u64 {
            if i % 3 == 0 {
                assert_eq!(t.get(&key(i)), None, "deleted key {i} resurfaced");
            } else {
                assert_eq!(t.get(&key(i)), Some(val(i)));
            }
        }
    }

    #[test]
    fn levels_grow_with_data() {
        let mut t = small_tree();
        for i in 0..3000u64 {
            t.put(key(i), val(i));
        }
        assert!(t.level_count() >= 2, "expected cascade, got {:?}", t);
        // Level capacities must respect the invariant D <= C after quiescence.
        for idx in 0..t.level_count() {
            assert!(
                t.level_bytes(idx) <= t.level_capacity(idx),
                "level {idx} over capacity"
            );
        }
    }

    #[test]
    fn tiering_policy_accumulates_runs() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let cfg = LsmConfig {
            buffer_bytes: 1024,
            size_ratio: 4,
            initial_policy: 4, // tiering
            ..LsmConfig::scaled_default()
        };
        let mut t = FlsmTree::new(cfg, disk);
        for i in 0..400u64 {
            t.put(key(i), val(i));
        }
        // With K = T = 4 each flush becomes its own run in L1.
        assert!(t.level_run_count(0) >= 2 || t.level_count() > 1);
        for i in 0..400u64 {
            assert_eq!(t.get(&key(i)), Some(val(i)));
        }
    }

    #[test]
    fn scan_returns_sorted_latest_versions() {
        let mut t = small_tree();
        for i in 0..300u64 {
            t.put(key(i), val(i));
        }
        for i in 100..120u64 {
            t.put(key(i), val(i + 5000));
        }
        t.delete(key(105));
        let result = t.scan(&key(100), &key(110), 100);
        let keys: Vec<u64> = result
            .iter()
            .map(|(k, _)| u64::from_be_bytes(k.as_ref().try_into().unwrap()))
            .collect();
        assert_eq!(keys, vec![100, 101, 102, 103, 104, 106, 107, 108, 109]);
        for (k, v) in &result {
            let i = u64::from_be_bytes(k.as_ref().try_into().unwrap());
            assert_eq!(*v, val(i + 5000));
        }
    }

    #[test]
    fn scan_respects_limit() {
        let mut t = small_tree();
        for i in 0..100u64 {
            t.put(key(i), val(i));
        }
        let result = t.scan(&key(0), &key(100), 7);
        assert_eq!(result.len(), 7);
    }

    #[test]
    fn set_policy_flexible_is_free() {
        let mut t = small_tree();
        for i in 0..2000u64 {
            t.put(key(i), val(i));
        }
        let before = t.storage().metrics();
        t.set_policy(0, 4);
        t.set_policy(1, 3);
        let delta = t.storage().metrics().delta(&before);
        assert_eq!(delta.pages_read, 0, "flexible transition must not read");
        assert_eq!(delta.pages_written, 0, "flexible transition must not write");
        assert_eq!(t.policy(0), 4);
        assert_eq!(t.policy(1), 3);
        // Data still all readable.
        for i in (0..2000u64).step_by(97) {
            assert_eq!(t.get(&key(i)), Some(val(i)));
        }
    }

    #[test]
    fn set_policy_greedy_pays_io() {
        let mut t = small_tree();
        t.set_transition_strategy(TransitionStrategy::Greedy);
        for i in 0..2000u64 {
            t.put(key(i), val(i));
        }
        // Ensure level 0 holds data before the transition.
        assert!(t.level_bytes(0) > 0 || t.level_bytes(1) > 0);
        let with_data = (0..t.level_count())
            .find(|&i| t.level_bytes(i) > 0)
            .unwrap();
        let before = t.storage().metrics();
        t.set_policy(with_data, 4);
        let delta = t.storage().metrics().delta(&before);
        assert!(
            delta.pages_read > 0,
            "greedy transition must rewrite the level"
        );
        assert_eq!(t.level_bytes(with_data), 0, "greedy empties the level");
        for i in (0..2000u64).step_by(131) {
            assert_eq!(t.get(&key(i)), Some(val(i)));
        }
    }

    #[test]
    fn set_policy_lazy_defers() {
        let mut t = small_tree();
        t.set_transition_strategy(TransitionStrategy::Lazy);
        for i in 0..300u64 {
            t.put(key(i), val(i));
        }
        t.set_policy(0, 4);
        // Policy not yet in force.
        assert_eq!(t.policy(0), 1);
        // Keep writing until level 0 has merged down at least once more.
        let merges_before = t.stats().levels[0].merges_down;
        let mut i = 300u64;
        while t.stats().levels[0].merges_down == merges_before {
            t.put(key(i), val(i));
            i += 1;
            assert!(i < 100_000, "level never merged");
        }
        assert_eq!(t.policy(0), 4, "lazy policy adopted after merge");
    }

    #[test]
    fn flexible_seals_oversized_active() {
        let mut t = small_tree();
        // Fill level 0's active run partially under K = 1 (cap = whole level).
        for i in 0..120u64 {
            t.put(key(i), val(i));
        }
        t.flush();
        if t.level_run_count(0) == 0 {
            return; // data cascaded; nothing to check here
        }
        let runs_before = t.level_run_count(0);
        // K = 4 shrinks active capacity to 1/4; an active run bigger than
        // that must be sealed immediately (§4.2 case K' > K).
        t.set_policy(0, 4);
        assert!(t.level_run_count(0) >= runs_before);
        for i in (0..120u64).step_by(13) {
            assert_eq!(t.get(&key(i)), Some(val(i)));
        }
    }

    #[test]
    fn bulk_load_layout_and_correctness() {
        let disk = SimulatedDisk::new(512, CostModel::FREE);
        let cfg = LsmConfig {
            buffer_bytes: 2048,
            size_ratio: 4,
            initial_policy: 2,
            ..LsmConfig::scaled_default()
        };
        let mut t = FlsmTree::new(cfg, disk);
        let pairs: Vec<(Key, Value)> = (0..4000u64).map(|i| (key(i), val(i))).collect();
        t.bulk_load(pairs);
        assert!(t.level_count() >= 2);
        // Deeper levels hold more data.
        let top = t.level_bytes(0);
        let bottom = t.level_bytes(t.level_count() - 1);
        assert!(bottom > top, "bottom {bottom} must exceed top {top}");
        // No level overflows.
        for idx in 0..t.level_count() {
            assert!(t.level_bytes(idx) <= t.level_capacity(idx));
        }
        // All readable.
        for i in (0..4000u64).step_by(37) {
            assert_eq!(t.get(&key(i)), Some(val(i)));
        }
        // Writes continue to work after a bulk load.
        for i in 4000..4500u64 {
            t.put(key(i), val(i));
        }
        assert_eq!(t.get(&key(4321)), Some(val(4321)));
    }

    #[test]
    #[should_panic(expected = "empty tree")]
    fn bulk_load_rejects_nonempty() {
        let mut t = small_tree();
        t.put(key(1), val(1));
        t.flush();
        t.bulk_load(vec![(key(2), val(2))]);
    }

    /// The three-stage loader the one-pass `bulk_load` replaced, kept as
    /// its oracle: owned entries, then one `Vec` per level, then one per
    /// run, each copied into a builder that is finished before the next
    /// one starts.
    fn staged_bulk_load(t: &mut FlsmTree, mut pairs: Vec<(Key, Value)>) {
        assert!(
            t.levels.is_empty() && t.memtable.is_empty(),
            "bulk_load requires an empty tree"
        );
        if pairs.is_empty() {
            return;
        }
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup_by(|a, b| a.0 == b.0);

        let entries: Vec<KvEntry> = pairs
            .into_iter()
            .enumerate()
            .map(|(i, (k, v))| KvEntry::put(k, v, i as u64 + 1))
            .collect();
        t.seq = entries.len() as u64 + 1;
        let total: u64 = entries.iter().map(|e| e.encoded_size() as u64).sum();

        // Choose the number of levels so the layout matches a naturally
        // grown tree: upper levels about half full, the bottom level holding
        // the bulk of the data (at most 90% full).
        const UPPER_FILL: f64 = 0.5;
        const BOTTOM_FILL: f64 = 0.9;
        let mut depth = 1usize;
        loop {
            let uppers: f64 = (0..depth - 1)
                .map(|i| t.cfg.level_capacity(i) as f64 * UPPER_FILL)
                .sum();
            let bottom_remaining = total as f64 - uppers;
            if bottom_remaining <= t.cfg.level_capacity(depth - 1) as f64 * BOTTOM_FILL
                || depth >= 24
            {
                break;
            }
            depth += 1;
        }
        t.ensure_level(depth - 1);

        // Per-level byte targets: upper levels half full, bottom the rest.
        let mut targets = vec![0u64; depth];
        let mut remaining = total;
        for (i, target) in targets.iter_mut().enumerate().take(depth - 1) {
            let take = remaining.min((t.cfg.level_capacity(i) as f64 * UPPER_FILL) as u64);
            *target = take;
            remaining -= take;
        }
        targets[depth - 1] = remaining;

        // Deal entries to levels proportionally (largest-remainder credit
        // scheme) so each level samples the key space uniformly.
        let mut per_level: Vec<Vec<KvEntry>> = vec![Vec::new(); depth];
        let mut credit = vec![0f64; depth];
        let fractions: Vec<f64> = targets.iter().map(|&t| t as f64 / total as f64).collect();
        for e in entries {
            for (c, f) in credit.iter_mut().zip(&fractions) {
                *c += f;
            }
            let lvl = credit
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            credit[lvl] -= 1.0;
            per_level[lvl].push(e);
        }

        // Build each level's runs: stripe across ceil(bytes / run_cap) runs
        // so every run spans the key space (as tiering produces naturally).
        for (idx, level_entries) in per_level.into_iter().enumerate() {
            if level_entries.is_empty() {
                continue;
            }
            let bytes: u64 = level_entries.iter().map(|e| e.encoded_size() as u64).sum();
            let run_cap = t.levels[idx].active_capacity();
            let n_runs = (bytes.div_ceil(run_cap)).max(1) as usize;
            let bits = t.cfg.bloom.bits_for_level(idx, t.cfg.size_ratio);
            let mut buckets: Vec<Vec<KvEntry>> = vec![Vec::new(); n_runs];
            for (j, e) in level_entries.into_iter().enumerate() {
                buckets[j % n_runs].push(e);
            }
            for (b, bucket) in buckets.into_iter().enumerate() {
                let run_id = t.next_run_id;
                t.next_run_id += 1;
                let mut builder = RunBuilder::new(run_id, t.storage.as_ref(), bits);
                for e in &bucket {
                    builder.push(e.borrowed());
                }
                if let Some(run) = builder.finish(run_cap).map(Arc::new) {
                    t.sync_new_run(run.extent());
                    let is_last = b == n_runs - 1;
                    let active = is_last && run.data_bytes() < run.capacity_bytes();
                    let level = &mut t.levels[idx];
                    if active {
                        level.active = Some(run);
                    } else {
                        level.sealed.push(run);
                    }
                }
            }
        }
        for idx in 0..t.levels.len() {
            t.levels[idx].refresh_bounds();
        }
        t.refresh_tree_bounds();
        t.flushed_seq = t.seq;
        t.commit_manifest();
    }

    /// What a bulk load leaves behind, compared between the loaders: per
    /// level, per run (sealed runs in order, then the active one) whether
    /// it is active, its `Debug` form (id, extent, entry count, Bloom bits,
    /// fence keys, bounds, max seq) and its pages read back; then the
    /// tree's seq, the next run id and the manifest slots' bytes.
    type Layout = (
        Vec<Vec<(bool, String, Vec<Vec<u8>>)>>,
        SeqNo,
        RunId,
        Vec<u8>,
    );

    fn load_layout(
        loader: fn(&mut FlsmTree, Vec<(Key, Value)>),
        cfg: &LsmConfig,
        pairs: &[(Key, Value)],
        manifest: &std::path::Path,
    ) -> Layout {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let mut t = FlsmTree::new(cfg.clone(), disk);
        t.attach_manifest(Manifest::create(manifest, 0).unwrap());
        loader(&mut t, pairs.to_vec());
        let storage = t.storage.as_ref();
        let levels = t
            .levels
            .iter()
            .map(|level| {
                let runs = level.sealed.iter().map(|r| (false, r));
                let runs = runs.chain(level.active.iter().map(|r| (true, r)));
                runs.map(|(active, run)| {
                    let pages = (0..run.page_count())
                        .map(|idx| {
                            let mut page = Vec::new();
                            storage.read_page(run.extent(), idx, &mut page);
                            page
                        })
                        .collect();
                    (active, format!("{run:?}"), pages)
                })
                .collect()
            })
            .collect();
        let slots = Manifest::slot_paths(manifest).map(|p| std::fs::read(p).unwrap());
        (levels, t.seq, t.next_run_id, slots.concat())
    }

    /// The one-pass loader lays out exactly what the staged loader did, on
    /// random loads with duplicate keys (the first in input order wins),
    /// at depths 1 to 4 and initial K in {1, 2, 5, 10} — levels of many
    /// runs each — and on a one-entry load.
    #[test]
    fn one_pass_bulk_load_equals_the_staged_loader() {
        let dir = std::env::temp_dir().join(format!("ruskey-bulk-oracle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let (mut depths, mut most_runs) = (std::collections::BTreeSet::new(), 0);
        let mut cases = vec![(1, vec![(key(7), val(7))])];
        for k in [1, 2, 5, 10] {
            for n in [150u64, 1_500, 12_000, 40_000] {
                // Keys from a domain half again the load's size: about a
                // quarter of the pairs repeat a key with another value.
                let pairs = (0..n)
                    .map(|i| {
                        let value = vec![b'a' + (i % 26) as u8; 1 + next(40) as usize];
                        (key(next(n * 3 / 2)), Value::from(value))
                    })
                    .collect();
                cases.push((k, pairs));
            }
        }
        for (k, pairs) in &cases {
            let cfg = LsmConfig {
                buffer_bytes: 1024,
                size_ratio: 10,
                initial_policy: *k,
                ..LsmConfig::scaled_default()
            };
            let want = load_layout(staged_bulk_load, &cfg, pairs, &dir.join("staged"));
            let got = load_layout(FlsmTree::bulk_load, &cfg, pairs, &dir.join("one-pass"));
            depths.insert(want.0.len());
            most_runs = want.0.iter().map(Vec::len).fold(most_runs, usize::max);
            assert_eq!(got, want, "K = {k}, {} pairs", pairs.len());
        }
        assert_eq!(depths.into_iter().collect::<Vec<_>>(), [1, 2, 3, 4]);
        assert!(most_runs >= 5, "some level must hold several runs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_track_operations() {
        let mut t = small_tree();
        for i in 0..50u64 {
            t.put(key(i), val(i));
        }
        for i in 0..20u64 {
            t.get(&key(i));
        }
        t.scan(&key(0), &key(10), 5);
        let s = t.stats();
        assert_eq!(s.updates, 50);
        assert_eq!(s.lookups, 20);
        assert_eq!(s.scans, 1);
    }

    #[test]
    fn policy_clamped_to_t() {
        let mut t = small_tree();
        t.set_policy(0, 99);
        assert_eq!(t.policy(0), 4); // T = 4
        t.set_policy(0, 0);
        assert_eq!(t.policy(0), 1);
    }

    fn wal_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ruskey-tree-wal-{name}-{}", std::process::id()))
    }

    /// Writes are logged before the memtable insert: a tree dropped
    /// without flushing recovers its synced writes from the WAL, replayed
    /// in sequence order on top of an empty manifest.
    #[test]
    fn recover_restores_synced_writes() {
        let path = wal_path("recover");
        let manifest = wal_path("recover-manifest");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&manifest);
        let cfg = LsmConfig {
            buffer_bytes: 1 << 20, // large: nothing flushes
            size_ratio: 4,
            ..LsmConfig::scaled_default()
        };
        {
            let disk = SimulatedDisk::new(256, CostModel::FREE);
            let mut t = FlsmTree::new(cfg.clone(), disk);
            t.attach_wal(crate::wal::Wal::open(&path).unwrap());
            for i in 0..50u64 {
                t.put(key(i), val(i));
            }
            t.put(key(7), val(777)); // overwrite: replay must keep the latest
            t.delete(key(9));
            t.commit_wal().unwrap();
            t.put(key(99), val(99)); // never synced: must not survive
            drop(t); // process death: user-space WAL buffer is lost
        }
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let mut r = FlsmTree::recover_persistent(cfg, disk, &manifest, &path).unwrap();
        for i in 0..50u64 {
            match i {
                7 => assert_eq!(r.get(&key(7)), Some(val(777))),
                9 => assert_eq!(r.get(&key(9)), None, "tombstone must replay"),
                _ => assert_eq!(r.get(&key(i)), Some(val(i)), "key {i}"),
            }
        }
        assert_eq!(r.get(&key(99)), None, "unsynced write resurfaced");
        // The recovered tree keeps logging: a new write plus commit is
        // durable across another restart.
        r.put(key(100), val(100));
        r.commit_wal().unwrap();
        drop(r);
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let mut r2 = FlsmTree::recover_persistent(
            LsmConfig {
                buffer_bytes: 1 << 20,
                size_ratio: 4,
                ..LsmConfig::scaled_default()
            },
            disk,
            &manifest,
            &path,
        )
        .unwrap();
        assert_eq!(r2.get(&key(100)), Some(val(100)));
        assert_eq!(r2.get(&key(3)), Some(val(3)));
        let _ = std::fs::remove_file(&path);
        let _ = Manifest::slot_paths(&manifest).map(std::fs::remove_file);
    }

    /// A memtable flush supersedes the log: the WAL truncates, so replay
    /// after a flush yields only post-flush writes.
    #[test]
    fn flush_recycles_the_wal() {
        let path = wal_path("flush-reset");
        let _ = std::fs::remove_file(&path);
        let mut t = small_tree();
        t.attach_wal(crate::wal::Wal::open(&path).unwrap());
        for i in 0..50u64 {
            t.put(key(i), val(i));
        }
        t.flush();
        assert_eq!(t.wal().unwrap().records(), 0, "flush must reset the log");
        t.put(key(1000), val(1000));
        t.commit_wal().unwrap();
        let replayed = crate::wal::Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 1, "only the post-flush write is logged");
        assert_eq!(t.stats().wal_appends, 51, "lifetime appends keep counting");
        let _ = std::fs::remove_file(&path);
    }

    /// A log write that fails is a power failure, not a panic: the tree is
    /// crashed (a served put is refused as such) and still answers reads.
    #[test]
    fn a_failed_wal_write_crashes_the_tree_without_a_panic() {
        let path = wal_path("failed-append");
        let _ = std::fs::remove_file(&path);
        let mut t = small_tree();
        t.attach_wal(crate::wal::Wal::open(&path).unwrap());
        let full = Fault::Error(std::io::ErrorKind::StorageFull);
        t.faults().arm(Site::WalAppend, 0, full);
        t.put(key(1), val(1));
        assert!(t.faults().is_dead());
        t.put(key(2), val(2));
        assert_eq!(t.wal().unwrap().records(), 0, "neither put was framed");
        assert_eq!(t.get(&key(1)), Some(val(1)), "the memtable still reads");
        let _ = std::fs::remove_file(&path);
    }

    /// `covers` reads the log's own counters: a record is covered once an
    /// fsync that started after it finished, or once a flush superseded it.
    #[test]
    fn covers_follows_the_fsync_and_the_flush() {
        let path = wal_path("covers");
        let _ = std::fs::remove_file(&path);
        let mut t = small_tree();
        t.attach_wal(crate::wal::Wal::open(&path).unwrap());
        t.put(key(1), val(1));
        let first = t.begin_commit().unwrap().expect("an unsynced record");
        assert!(!t.covers(&first), "unsynced");
        t.put(key(2), val(2));
        let second = t.begin_commit().unwrap().unwrap();
        let synced = first.sync_data();
        assert_eq!(t.finish_commit(&first, synced).unwrap(), Some(1));
        assert!(t.covers(&first), "covered by its finished fsync");
        assert!(!t.covers(&second), "the later record is not");
        t.flush();
        assert!(t.covers(&second), "the flush superseded the record");
        let synced = second.sync_data();
        assert_eq!(t.finish_commit(&second, synced).unwrap(), None, "stale");
        let _ = std::fs::remove_file(&path);
    }

    /// WAL costs are charged to the tree's storage time domain: appends
    /// and the group-commit sync advance the virtual clock.
    #[test]
    fn wal_costs_land_on_the_time_domain() {
        let path = wal_path("costs");
        let _ = std::fs::remove_file(&path);
        let disk = SimulatedDisk::new(256, CostModel::NVME);
        let cfg = LsmConfig {
            buffer_bytes: 1 << 20,
            size_ratio: 4,
            ..LsmConfig::scaled_default()
        };
        let mut t = FlsmTree::new(cfg, disk);
        t.attach_wal(crate::wal::Wal::open(&path).unwrap());
        let base = t.storage().clock().now_ns();
        t.put(key(1), val(1));
        let after_put = t.storage().clock().now_ns();
        assert_eq!(
            after_put - base,
            CostModel::NVME.cpu_memtable_ns + CostModel::NVME.wal_append_ns,
            "put charges memtable + WAL append"
        );
        assert!(t.commit_wal().unwrap());
        assert_eq!(
            t.storage().clock().now_ns() - after_put,
            CostModel::NVME.wal_sync_ns,
            "group commit charges one sync"
        );
        assert!(!t.commit_wal().unwrap(), "idle shard must not re-sync");
        let _ = std::fs::remove_file(&path);
    }

    /// The cached aggregate bounds — per level and the tree total — must
    /// equal the values recomputed fresh from the resident runs.
    fn assert_bounds_invariant(t: &FlsmTree) {
        let mut want: Option<(Key, Key)> = None;
        for l in &t.levels {
            assert_eq!(
                l.bounds,
                l.computed_bounds(),
                "level {} cached bounds diverged from the resident runs",
                l.index
            );
            if let Some((lo, hi)) = &l.bounds {
                want = Some(match want {
                    None => (lo.clone(), hi.clone()),
                    Some((wl, wh)) => (
                        if *lo < wl { lo.clone() } else { wl },
                        if *hi > wh { hi.clone() } else { wh },
                    ),
                });
            }
        }
        assert_eq!(
            t.bounds, want,
            "tree aggregate bounds diverged from the level bounds"
        );
    }

    /// ISSUE tentpole (c): a lookup outside every resident run's range
    /// costs zero run probes (hence zero Bloom checks) and zero page
    /// reads — the O(1) bound fast path rejects before any per-run work.
    #[test]
    fn out_of_bounds_lookup_costs_zero_probes_and_zero_reads() {
        let mut t = small_tree();
        for i in 100..300u64 {
            t.put(key(i), val(i));
        }
        t.flush(); // memtable empty: lookups must go to the levels
        let (lo, hi) = {
            let (lo, hi) = t.key_bounds().expect("resident runs have bounds");
            (lo.clone(), hi.clone())
        };
        assert_eq!(lo, key(100));
        assert_eq!(hi, key(299));

        let probes = |t: &FlsmTree| -> u64 { t.stats().levels.iter().map(|l| l.probes).sum() };
        let probes_before = probes(&t);
        let reads_before = t.storage.metrics().pages_read;
        assert_eq!(t.get(&key(5)), None, "below every bound");
        assert_eq!(t.get(&key(100_000)), None, "above every bound");
        assert_eq!(
            probes(&t),
            probes_before,
            "out-of-range lookups must probe no run"
        );
        assert_eq!(
            t.storage.metrics().pages_read,
            reads_before,
            "out-of-range lookups must read no page"
        );
        // In-range lookups still pay the normal probe path.
        assert_eq!(t.get(&key(150)), Some(val(150)));
        assert!(probes(&t) > probes_before);
    }

    /// The bounds caches stay exact through every structural mutation:
    /// flushes, compaction cascades, and all three transition strategies
    /// (greedy rewrites run membership via `merge_down`).
    #[test]
    fn bounds_invariant_holds_through_mutations() {
        for strategy in [
            TransitionStrategy::Flexible,
            TransitionStrategy::Lazy,
            TransitionStrategy::Greedy,
        ] {
            let disk = SimulatedDisk::new(256, CostModel::FREE);
            let cfg = LsmConfig {
                buffer_bytes: 1024,
                size_ratio: 4,
                initial_policy: 2,
                transition: strategy,
                ..LsmConfig::scaled_default()
            };
            let mut t = FlsmTree::new(cfg, disk);
            assert_eq!(t.key_bounds(), None, "empty tree has no bounds");
            for i in 0..2500u64 {
                t.put(key(i), val(i));
                if i % 500 == 0 {
                    assert_bounds_invariant(&t);
                }
            }
            t.flush();
            assert_bounds_invariant(&t);
            t.set_policy(0, 4);
            assert_bounds_invariant(&t);
            t.set_policy(1, 3);
            assert_bounds_invariant(&t);
            t.set_policy(0, 1);
            assert_bounds_invariant(&t);
            for i in 2500..3000u64 {
                t.put(key(i), val(i));
            }
            t.flush();
            assert_bounds_invariant(&t);
        }
    }

    /// Recovery rebuilds the bounds caches: a recovered persistent tree
    /// carries exact bounds and rejects out-of-range keys for free.
    #[test]
    fn bounds_rebuilt_by_recovery() {
        let dir = persist_dir("bounds");
        let cfg = LsmConfig {
            buffer_bytes: 1024,
            size_ratio: 4,
            initial_policy: 2,
            ..LsmConfig::scaled_default()
        };
        {
            let mut t = persistent_tree(&dir, cfg.clone());
            for i in 50..800u64 {
                t.put(key(i), val(i));
            }
            t.commit_wal().unwrap();
            assert!(t.stats().flushes > 0);
            drop(t);
        }
        let mut r = recover_persistent_tree(&dir, cfg);
        assert_bounds_invariant(&r);
        let probes_before: u64 = r.stats().levels.iter().map(|l| l.probes).sum();
        let reads_before = r.storage.metrics().pages_read;
        assert_eq!(r.get(&key(10)), None);
        assert_eq!(r.get(&key(10_000)), None);
        assert_eq!(
            r.stats().levels.iter().map(|l| l.probes).sum::<u64>(),
            probes_before,
            "recovered tree must reject out-of-range keys without probing"
        );
        assert_eq!(r.storage.metrics().pages_read, reads_before);
        assert_eq!(r.get(&key(400)), Some(val(400)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn persist_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ruskey-tree-persist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn persistent_tree(dir: &std::path::Path, cfg: LsmConfig) -> FlsmTree {
        let disk = ruskey_storage::FileDisk::new(dir.join("data"), 256, CostModel::FREE).unwrap();
        let mut t = FlsmTree::new(cfg, disk);
        t.attach_manifest(crate::manifest::Manifest::create(dir.join("MANIFEST"), 0).unwrap());
        t.attach_wal(crate::wal::Wal::open(dir.join("wal")).unwrap());
        t
    }

    fn recover_persistent_tree(dir: &std::path::Path, cfg: LsmConfig) -> FlsmTree {
        let disk = ruskey_storage::FileDisk::new(dir.join("data"), 256, CostModel::FREE).unwrap();
        FlsmTree::recover_persistent(cfg, disk, dir.join("MANIFEST"), dir.join("wal")).unwrap()
    }

    /// The full-store restart path: flushed runs are rebuilt from the
    /// manifest + data pages, the WAL tail replays on top, and the
    /// recovered tree keeps operating (and survives another restart).
    #[test]
    fn persistent_restart_preserves_runs_and_wal_tail() {
        let dir = persist_dir("roundtrip");
        let cfg = LsmConfig {
            buffer_bytes: 1024,
            size_ratio: 4,
            initial_policy: 2,
            ..LsmConfig::scaled_default()
        };
        {
            let mut t = persistent_tree(&dir, cfg.clone());
            for i in 0..600u64 {
                t.put(key(i), val(i));
            }
            t.delete(key(17));
            t.put(key(3), val(9999)); // overwrite across flush boundaries
            t.commit_wal().unwrap(); // sync the unflushed tail
            assert!(t.stats().flushes > 0, "scenario must exercise flushes");
            assert!(t.level_count() >= 2, "scenario must exercise compaction");
            drop(t); // restart: in-memory structure is gone
        }
        let mut r = recover_persistent_tree(&dir, cfg.clone());
        assert!(r.stats().runs_recovered > 0, "flushed runs must be rebuilt");
        for i in 0..600u64 {
            match i {
                17 => assert_eq!(r.get(&key(17)), None, "tombstone lost"),
                3 => assert_eq!(r.get(&key(3)), Some(val(9999))),
                _ => assert_eq!(r.get(&key(i)), Some(val(i)), "key {i} lost"),
            }
        }
        // The recovered tree keeps operating and survives another restart.
        for i in 600..700u64 {
            r.put(key(i), val(i));
        }
        r.commit_wal().unwrap();
        drop(r);
        let mut r2 = recover_persistent_tree(&dir, cfg);
        assert_eq!(r2.get(&key(650)), Some(val(650)));
        assert_eq!(r2.get(&key(5)), Some(val(5)));
        assert_eq!(r2.get(&key(17)), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Policy transitions are structural edits: flexible and lazy
    /// transitions (including the pending marker) survive a restart.
    #[test]
    fn persistent_restart_preserves_policies() {
        let dir = persist_dir("policies");
        let cfg = LsmConfig {
            buffer_bytes: 1024,
            size_ratio: 4,
            ..LsmConfig::scaled_default()
        };
        {
            let mut t = persistent_tree(&dir, cfg.clone());
            for i in 0..400u64 {
                t.put(key(i), val(i));
            }
            t.set_policy(0, 4);
            t.set_transition_strategy(TransitionStrategy::Lazy);
            t.set_policy(1, 3);
            t.commit_wal().unwrap();
            drop(t);
        }
        let r = recover_persistent_tree(&dir, cfg);
        assert_eq!(r.policy(0), 4, "flexible transition lost");
        // The lazy transition is still pending; the recovered level
        // carries the marker so the next merge adopts it.
        assert!(
            r.policy(1) == 3 || r.levels[1].pending_policy == Some(3),
            "lazy transition lost: policy {} pending {:?}",
            r.policy(1),
            r.levels[1].pending_policy
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A file disk that, once armed, panics on the second batch a run
    /// builder appends to one extent: the process dies mid-build with a
    /// partial extent on disk that no manifest names.
    struct CutOff {
        disk: Arc<ruskey_storage::FileDisk>,
        armed: std::sync::atomic::AtomicBool,
        cut: std::sync::Mutex<Option<u64>>,
    }

    impl Storage for CutOff {
        fn page_size(&self) -> usize {
            self.disk.page_size()
        }
        fn allocate(&self, pages: u32) -> Extent {
            self.disk.allocate(pages)
        }
        fn write_page(&self, ext: Extent, idx: u32, data: &[u8]) -> ruskey_storage::IoCharge {
            self.disk.write_page(ext, idx, data)
        }
        fn append_pages(
            &self,
            ext: Option<Extent>,
            pages: &[&[u8]],
        ) -> Option<(Extent, ruskey_storage::IoCharge)> {
            let armed = self.armed.load(std::sync::atomic::Ordering::Relaxed);
            if let Some(ext) = ext.filter(|_| armed && !pages.is_empty()) {
                *self.cut.lock().unwrap() = Some(ext.id);
                panic!("cut off at extent {}'s second batch", ext.id);
            }
            self.disk.append_pages(ext, pages)
        }
        fn try_read_page(
            &self,
            ext: Extent,
            idx: u32,
            buf: &mut Vec<u8>,
        ) -> std::io::Result<ruskey_storage::IoCharge> {
            self.disk.try_read_page(ext, idx, buf)
        }
        fn sync_extent(&self, ext: Extent) -> std::io::Result<ruskey_storage::IoCharge> {
            self.disk.sync_extent(ext)
        }
        fn sync_dir(&self) -> std::io::Result<ruskey_storage::IoCharge> {
            self.disk.sync_dir()
        }
        fn free(&self, ext: Extent) {
            self.disk.free(ext)
        }
        fn metrics(&self) -> ruskey_storage::StorageMetrics {
            self.disk.metrics()
        }
        fn clock(&self) -> &ruskey_storage::VirtualClock {
            self.disk.clock()
        }
        fn cost_model(&self) -> CostModel {
            self.disk.cost_model()
        }
        fn live_pages(&self) -> u64 {
            self.disk.live_pages()
        }
    }

    /// A merge cut off between two batches of its output run loses
    /// nothing acknowledged: recovery reads back the bulk load and every
    /// committed put, and its orphan sweep removes the partial extent.
    #[test]
    fn a_build_cut_off_between_batches_recovers() {
        let dir = persist_dir("cutoff");
        let cfg = LsmConfig {
            buffer_bytes: 4096,
            size_ratio: 4,
            ..LsmConfig::scaled_default()
        };
        let disk = Arc::new(CutOff {
            disk: ruskey_storage::FileDisk::new(dir.join("data"), 256, CostModel::FREE).unwrap(),
            armed: Default::default(),
            cut: Default::default(),
        });
        let mut t = FlsmTree::new(cfg.clone(), disk.clone());
        t.attach_manifest(crate::manifest::Manifest::create(dir.join("MANIFEST"), 0).unwrap());
        t.attach_wal(crate::wal::Wal::open(dir.join("wal")).unwrap());
        let loaded: Vec<(Key, Value)> = (0..6_000u64).map(|i| (key(2 * i), val(i))).collect();
        t.bulk_load(loaded.clone());
        disk.armed.store(true, std::sync::atomic::Ordering::Relaxed);
        let mut acked = 0;
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..50_000u64 {
                t.put(key(2 * i + 1), val(i));
                if i % 50 == 49 {
                    t.commit_wal().unwrap();
                    acked = i + 1;
                }
            }
        }));
        assert!(died.is_err(), "no build reached a second batch");
        assert!(acked > 0, "nothing was acknowledged before the cut");
        drop(t);
        let cut = disk.cut.lock().unwrap().expect("the cut names its extent");
        drop(disk);

        let mut r = recover_persistent_tree(&dir, cfg);
        assert!(r.stats().orphans_collected >= 1);
        let partial = dir.join("data").join(format!("extent-{cut:08}.run"));
        assert!(!partial.exists(), "the partial extent survived recovery");
        for (k, v) in &loaded {
            assert_eq!(r.get(k).as_ref(), Some(v), "a loaded pair is lost");
        }
        for i in 0..acked {
            assert_eq!(r.get(&key(2 * i + 1)), Some(val(i)), "acknowledged put {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The free rule: a superseded run's extent is freed where the
    /// manifest commit removing it lands — after the commit when a
    /// manifest is attached, so the storage never holds a manifest that
    /// references freed pages. After every mutation, on every kind of tree,
    /// nothing waits to be freed and the live pages on storage are exactly
    /// the resident runs' pages.
    #[test]
    fn superseded_runs_are_freed_after_the_commit() {
        fn assert_settled(t: &FlsmTree, what: &str) {
            assert!(t.pending_retire.is_empty(), "{what}: frees drain at commit");
            let resident: u64 = t
                .levels
                .iter()
                .flat_map(Level::probe_order)
                .map(|r| u64::from(r.page_count()))
                .sum();
            assert_eq!(t.storage().live_pages(), resident, "{what}");
        }
        let cfg = LsmConfig {
            buffer_bytes: 1024,
            size_ratio: 4,
            ..LsmConfig::scaled_default()
        };
        let bg_cfg = LsmConfig {
            background_maintenance: true,
            ..cfg.clone()
        };

        // A persistent tree: the live pages are also the manifest's.
        let dir = persist_dir("frees");
        let mut t = persistent_tree(&dir, cfg.clone());
        for i in 0..2000u64 {
            t.put(key(i), val(i));
            assert_settled(&t, "persistent put");
        }
        let recorded: u64 = t
            .manifest()
            .unwrap()
            .state()
            .levels
            .iter()
            .flat_map(|l| l.sealed.iter().chain(l.active.iter()))
            .map(|r| r.pages as u64)
            .sum();
        assert_eq!(t.storage().live_pages(), recorded);
        let _ = std::fs::remove_dir_all(&dir);

        // A volatile tree with no manifest frees at the same point.
        let mut t = FlsmTree::new(cfg.clone(), SimulatedDisk::new(256, CostModel::FREE));
        for i in 0..2000u64 {
            t.put(key(i), val(i));
            assert_settled(&t, "volatile put");
        }
        assert!(t.level_count() >= 2, "the load must merge runs away");

        // A background tree, its debt drained one maintenance step at a
        // time: every merge frees its inputs at its commit.
        let mut t = FlsmTree::new(bg_cfg, SimulatedDisk::new(256, CostModel::FREE));
        for i in 0..2000u64 {
            t.put(key(i % 700), val(i));
            assert_settled(&t, "background put");
        }
        while t.maintain(1) > 0 {
            assert_settled(&t, "maintenance step");
        }
        assert!(
            t.stats().bg_compactions > 0,
            "the load must trigger compactions"
        );

        // A greedy transition merges a level away at its own commit.
        t.set_transition_strategy(TransitionStrategy::Greedy);
        let level = (0..t.level_count())
            .find(|&l| t.level_run_count(l) > 0)
            .unwrap();
        t.set_policy(level, if t.policy(level) == 1 { 2 } else { 1 });
        assert_eq!(t.level_run_count(level), 0, "the transition merged");
        assert_settled(&t, "greedy transition");
    }

    #[test]
    fn zero_cost_probe_for_absent_range() {
        let mut t = small_tree();
        for i in 0..200u64 {
            t.put(key(i), val(i));
        }
        t.flush();
        let before = t.storage().metrics().pages_read;
        // Key far outside every run's range: filtered by min/max, no I/O.
        t.get(&key(1_000_000));
        assert_eq!(t.storage().metrics().pages_read, before);
    }

    /// Background maintenance must be purely a *scheduling* change: the
    /// same operations against an inline tree and a background tree —
    /// with structural debt left outstanding mid-stream — read back
    /// identically.
    #[test]
    fn background_maintenance_matches_inline_and_defers_the_cascade() {
        let base = LsmConfig {
            buffer_bytes: 1024,
            size_ratio: 4,
            initial_policy: 1,
            ..LsmConfig::scaled_default()
        };
        let mut inline_t = FlsmTree::new(base.clone(), SimulatedDisk::new(256, CostModel::FREE));
        let bg_cfg = LsmConfig {
            background_maintenance: true,
            ..base
        };
        let mut bg = FlsmTree::new(bg_cfg, SimulatedDisk::new(256, CostModel::FREE));
        let mut saw_debt = false;
        for i in 0..3000u64 {
            let k = i % 911;
            inline_t.put(key(k), val(i));
            bg.put(key(k), val(i));
            if i % 13 == 0 {
                inline_t.delete(key((i + 7) % 911));
                bg.delete(key((i + 7) % 911));
            }
            if i % 97 == 0 {
                // One step at a time so a merge left due is observable
                // between steps.
                for _ in 0..3 {
                    bg.maintain(1);
                    saw_debt |= bg.pending_compaction_bytes() > 0;
                    // A read while the debt is outstanding must already match.
                    assert_eq!(bg.get(&key(k)), inline_t.get(&key(k)));
                }
            }
        }
        assert!(saw_debt, "the mix must leave a merge due between steps");
        while bg.maintain(8) > 0 {}
        assert!(
            bg.stats().bg_compactions > 0,
            "background steps must have run"
        );
        for k in 0..911u64 {
            assert_eq!(bg.get(&key(k)), inline_t.get(&key(k)), "key {k}");
        }
        assert_eq!(
            bg.scan(&key(0), &key(911), usize::MAX),
            inline_t.scan(&key(0), &key(911), usize::MAX)
        );
        assert_bounds_invariant(&bg);
    }

    /// `stall_ns` attributes structural time to the writes that waited:
    /// a flush-heavy inline load accrues it, an all-in-buffer load never
    /// does.
    #[test]
    fn stall_time_lands_on_the_counter() {
        let mut t = FlsmTree::new(
            LsmConfig {
                buffer_bytes: 1024,
                size_ratio: 4,
                ..LsmConfig::scaled_default()
            },
            SimulatedDisk::new(256, CostModel::NVME),
        );
        for i in 0..500u64 {
            t.put(key(i), val(i));
        }
        assert!(t.stats().flushes > 0);
        assert!(t.stats().stall_ns > 0, "inline flushes must be attributed");

        let mut calm = FlsmTree::new(
            LsmConfig::scaled_default(),
            SimulatedDisk::new(256, CostModel::NVME),
        );
        for i in 0..100u64 {
            calm.put(key(i), val(i));
        }
        assert_eq!(calm.stats().flushes, 0);
        assert_eq!(calm.stats().stall_ns, 0, "no structural work, no stall");
    }
    /// Fence keys, run bounds, level and tree bounds and the manifest's
    /// run records own exactly their bytes. A key that was a slice of the
    /// page it was read from would keep that 4 KiB page alive for as long
    /// as the run lives; here every page of every run is held by the test
    /// alone once the runs it belonged to are merged away and freed.
    #[test]
    fn retained_keys_pin_no_page() {
        let path = std::env::temp_dir().join(format!("ruskey-pins-{}", std::process::id()));
        let _ = Manifest::slot_paths(&path).map(std::fs::remove_file);
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let cfg = LsmConfig {
            buffer_bytes: 1024,
            size_ratio: 4,
            initial_policy: 2,
            ..LsmConfig::scaled_default()
        };
        let mut t = FlsmTree::new(cfg, disk.clone());
        t.attach_manifest(Manifest::create(&path, 0).unwrap());
        for i in 0..400u64 {
            t.put(key(i * 3), val(i));
        }
        let runs: Vec<Arc<Run>> = t
            .levels
            .iter()
            .flat_map(Level::probe_order)
            .cloned()
            .collect();
        assert!(runs.len() >= 3, "scenario must leave several merged runs");
        let pages: Vec<Key> = runs
            .iter()
            .flat_map(|run| (0..run.page_count()).map(|p| (run.extent(), p)))
            .map(|(ext, p)| disk.try_read_shared(ext, p).unwrap().0)
            .collect();
        assert!(pages.iter().all(|p| !p.is_unique()), "the disk holds them");
        let old_ids: Vec<u64> = runs.iter().map(|r| r.extent().id).collect();
        drop(runs);

        // A scan's rows are the one thing allowed to hold a page; a get's
        // value is a copy.
        let got = t.get(&key(3)).unwrap();
        let rows = t.scan(&key(0), &key(30), 5);
        assert_eq!((got, rows.len()), (val(1), 5));

        // Churn until every one of those runs has been merged away.
        let mut i = 400u64;
        while t
            .levels
            .iter()
            .flat_map(Level::probe_order)
            .any(|r| old_ids.contains(&r.extent().id))
        {
            t.put(key(i * 3 + 1), val(i));
            i += 1;
            assert!(i < 100_000, "old runs never left the tree");
        }
        assert_eq!(
            disk.live_extents(),
            t.levels.iter().map(Level::run_count).sum::<usize>()
        );
        let pinned = pages.iter().filter(|p| !p.is_unique()).count();
        assert!((1..=rows.len()).contains(&pinned), "only rows hold pages");
        drop(rows);
        assert!(pages.iter().all(Key::is_unique));
        let _ = Manifest::slot_paths(&path).map(std::fs::remove_file);
    }

    /// Damaged page *contents* — an entry count, a key or value length, a
    /// kind byte that lies — fail recovery with `InvalidData` naming the
    /// run; nothing indexes out of bounds and nothing panics.
    #[test]
    fn corrupt_page_contents_are_a_typed_recovery_error() {
        let dir = persist_dir("corrupt-page");
        let cfg = LsmConfig {
            buffer_bytes: 1024,
            size_ratio: 4,
            ..LsmConfig::scaled_default()
        };
        let rec = {
            let mut t = persistent_tree(&dir, cfg.clone());
            for i in 0..300u64 {
                t.put(key(i), val(i));
            }
            t.flush();
            let state = t.manifest().unwrap().state();
            let runs = state
                .levels
                .iter()
                .flat_map(|l| l.sealed.iter().chain(l.active.as_ref()));
            runs.max_by_key(|r| r.pages).unwrap().clone()
        };
        assert!(rec.pages >= 2);
        let file = dir
            .join("data")
            .join(format!("extent-{:08}.run", rec.extent_id));
        let pristine = std::fs::read(&file).unwrap();
        // Offsets inside the first slot: 4 bytes of slot header, 2 of page
        // header, then the first entry's klen (2), vlen (4), seq (8), kind.
        let first_entry = 4 + crate::entry::PAGE_HEADER_BYTES;
        let second_slot = 256 + 4;
        for (what, at, byte) in [
            ("entry count", 4 + 1, 0x7f),
            ("klen", first_entry + 1, 0xff),
            ("vlen", first_entry + 2 + 3, 0x10),
            ("kind", first_entry + 14, 0x02),
            ("kind on a later page", second_slot + first_entry + 14, 0xee),
        ] {
            let mut bytes = pristine.clone();
            bytes[at] = byte;
            std::fs::write(&file, &bytes).unwrap();
            let recovered = std::panic::catch_unwind(|| {
                let disk =
                    ruskey_storage::FileDisk::new(dir.join("data"), 256, CostModel::FREE).unwrap();
                FlsmTree::recover_persistent(
                    cfg.clone(),
                    disk,
                    dir.join("MANIFEST"),
                    dir.join("wal"),
                )
                .map(|_| ())
            });
            let err = recovered
                .unwrap_or_else(|_| panic!("a corrupt {what} panicked recovery"))
                .expect_err(what);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
            let named = format!("run {} (extent {})", rec.run_id, rec.extent_id);
            assert!(err.to_string().contains(&named), "{what}: {err}");
        }
        std::fs::write(&file, &pristine).unwrap();
        recover_persistent_tree(&dir, cfg);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The seal rule quantizes the K ladder. `admit_batch` merges the
    /// whole batch into the active run and seals the run once it holds at
    /// least `active_capacity()` = C/K bytes, so a Level-1 run holds
    /// ⌈(C/K) / b⌉ flushes of `b` bytes each. A flush is the first memtable
    /// fill at or over the buffer: 459 entries of 143 bytes, 65 637 bytes,
    /// just over C/T = 65 536 at T = 10. So K = 6..9 all seal at two
    /// flushes, while K = 5 (C/5 = 131 072 bytes) seals at two only if the
    /// two share fewer than two keys: 202 bytes of slack.
    #[test]
    fn a_level_1_run_seals_after_a_quantized_number_of_flushes() {
        let put = |t: &mut FlsmTree, i: u64| {
            t.put(Bytes::from(format!("{i:016}")), Bytes::from(vec![7u8; 112]));
        };
        // Each flush after the first starts by writing the previous
        // flush's last `repeats` keys again.
        let flushes_to_seal = |k: u32, repeats: u64| {
            let disk = SimulatedDisk::new(4096, CostModel::FREE);
            let mut t = FlsmTree::new(LsmConfig::scaled_default(), disk);
            t.set_policy(0, k);
            let mut next = 0u64;
            loop {
                let flushes = t.flushes;
                for i in next.saturating_sub(repeats)..next {
                    put(&mut t, i);
                }
                while t.flushes == flushes {
                    put(&mut t, next);
                    next += 1;
                }
                // Sealed, or sealed and merged down with the full level.
                if !t.levels[0].sealed.is_empty() || t.levels[0].active.is_none() {
                    return t.flushes;
                }
            }
        };
        let ladder = |repeats| {
            (1..=10)
                .map(|k| flushes_to_seal(k, repeats))
                .collect::<Vec<_>>()
        };
        assert_eq!(ladder(0), [10, 5, 4, 3, 2, 2, 2, 2, 2, 1]);
        assert_eq!(ladder(2), [11, 6, 4, 3, 3, 2, 2, 2, 2, 1]);
    }
}
