//! The concurrent serving frontend: many clients, one sharded engine.
//!
//! [`ServingFrontend`] turns a [`RusKey`](crate::sharded::RusKey)
//! into a `Send + Sync` service handle. For the length of a session the
//! frontend holds every shard's tree behind a **per-shard lock**, and a
//! request is **served on its caller's thread**: there is no serving
//! thread, no request queue and no reply channel, so a request costs no
//! thread wake-up and a [`ServingClient`] sleeps only when its shard is
//! contended or, for a write, for the fsync that covers it. One request
//! is:
//!
//! 1. **lock** the owning shard (a `try_lock` that fails is counted as a
//!    stall before the client blocks);
//! 2. **execute** the [`Operation`] through `execute` — the same executor
//!    a mission lane and an ad-hoc call use;
//! 3. **boundary**: [`FlsmTree::maintain_boundary`], the same grant a
//!    mission lane gets between its operations and its commit. A write
//!    then runs the first half of the commit leg
//!    ([`FlsmTree::begin_commit`]): its WAL record goes from the buffer to
//!    the file and the client takes a [`SyncTicket`] for the fsync;
//! 4. **unlock**. A read returns here — it never waits on an fsync, its
//!    own shard's or anyone's;
//! 5. **group commit**, a write only, with the tree lock released. Each
//!    shard has one **syncer** lock, held across its fsync. The writer
//!    takes it, then asks under the tree lock whether its record is
//!    acknowledged already ([`FlsmTree::covers`], from the log's own
//!    counters: an fsync that finished while it queued, or a memtable
//!    flush, covered it) and returns if so. Otherwise it takes a fresh
//!    ticket ([`FlsmTree::begin_commit`]), which covers every record in the
//!    file, runs `sync_data` under no tree lock, and makes the second half
//!    of the commit leg ([`FlsmTree::finish_commit`]: the log's accounting
//!    and the fsync's virtual cost) under the tree lock for the few
//!    hundred ns that takes. The writers queued behind it then find their
//!    records covered, so one fsync serves them all.
//!
//! Steps 2, 3 and 5 are the three calls of `exec` (execute, boundary
//! grant, commit leg) made by the served door, with the commit leg split
//! around the unlock; [`FlsmTree::commit_wal`] is the same two halves
//! back to back, so there is one sync path and one rule for a failed
//! write or fsync. The syncer lock is only ever taken with no tree lock
//! held; the tree lock may be taken inside it, never the other way round,
//! so the two cannot deadlock.
//!
//! ## The contract
//!
//! * **Ack after fsync.** `Ok` from a write means a `sync_data` that
//!   *started after* the record reached the log file has *returned* — or
//!   a memtable flush superseded the record (the flushed run is durable
//!   before the log is recycled; a syncer whose ticket predates the
//!   recycling counts nothing twice). A log that dies (fault injection)
//!   or fails with a real I/O error acknowledges nothing further, to the
//!   syncer or to any writer queued behind it: a failed write or fsync
//!   power-fails the shard, so its write answers
//!   [`ServingError::Crashed`]. The shard's fault plan is its one dead
//!   flag, and a shard whose plan is dead refuses every later request
//!   with [`ServingError::Stopped`]. A client that panics inside a
//!   shard's lock poisons it, so that shard's later requests answer
//!   `Stopped` too; at the session's end the shard dies on its fault
//!   plan, as a shard whose mission lane panicked does, and its siblings
//!   serve on meanwhile.
//! * **Order.** Operations on one shard are serialized by its lock, in
//!   the order the lock was won; a client's own requests are ordered
//!   because it issues one at a time. So read-your-writes per client is
//!   structural: a client's write is in the memtable before its `put`
//!   returns, and its next `get` takes the same lock.
//! * **Visibility before acknowledgement.** A write is visible to other
//!   clients' reads from its unlock, which is before its fsync. Nothing is
//!   promised about an unacknowledged write until `Ok`.
//! * **Group commit.** Writers that reach step 5 while a syncer's fsync
//!   is in flight are all covered by the next one, so at clients ≫ shards
//!   the mean records per fsync exceeds one (`tests/serving.rs` pins
//!   this) — the ≤ 1-fsync-per-shard-per-batch
//!   bound that mission barriers give one caller, amortized over every
//!   connected client.
//!
//! The tree lock is never held across a WAL `sync_data`. Structural work
//! a write absorbs — a memtable flush, backpressure — does run under the
//! lock, on the client's thread, as it runs on a lane's thread in a
//! mission.
//!
//! ## Contention
//!
//! A closed-loop client has one request outstanding, so the client count
//! already bounds in-flight work: at most *clients* requests exist at once
//! and nothing queues without bound. Time a client spends blocked on a taken
//! shard lock is surfaced as `stall_ns` (and a `stalls` count) in the
//! metrics, beside each request's `lock_wait_ns`.
//!
//! ## Live metrics
//!
//! [`ServingMetrics`] is a registry of atomics — request counters by
//! kind, stalls, per-shard in-flight gauges, power-of-two histograms for
//! records-per-fsync and commit latency, and three more that split every
//! request's real time into **lock wait / execute / commit wait** ("why
//! was that put slow" has an answer in the system's own output).
//! [`ServingFrontend::metrics`] snapshots it without stopping the world —
//! readers never take a lock the serving path holds — and
//! [`MetricsSnapshot::render_prometheus`] renders the classic text
//! exposition format.
//!
//! Serving sessions bracket missions: start with
//! [`RusKey::serve`](crate::sharded::RusKey::serve), hand
//! [`ServingClient`]s to threads, and call
//! [`RusKey::finish_serving`](crate::sharded::RusKey::finish_serving)
//! to stop, restore the trees, and fold the serving work out of the next
//! mission's statistics delta.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, TryLockError};
use std::time::Instant;

use bytes::Bytes;
use ruskey_lsm::{FlsmTree, SyncTicket};
use ruskey_workload::routing::shard_for_key;
use ruskey_workload::Operation;

use crate::exec::{execute, OpResult};
use crate::sharded::merge_sorted_scans;

/// Relaxed is enough everywhere here: every counter is a monotonic
/// statistic, never a synchronization edge.
const RLX: Ordering = Ordering::Relaxed;

/// The argument of [`RusKey::serve`](crate::sharded::RusKey::serve): a
/// serving session has no setting. The type stays only because the
/// benchmark's adapter calls `serve(ServingConfig::default())`; it goes
/// with the old openers in `sharded.rs` when the adapter moves to
/// `RusKey::open`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServingConfig {}

/// Why a serving request failed.
#[derive(Debug, Clone, Copy)]
pub enum ServingError {
    /// The session has ended (`finish_serving` took the trees home), the
    /// shard's fault plan is dead (it crashed, or a storage or log call
    /// power-failed it), or a client panicked inside it: the request was
    /// not executed — or, for a write, was executed but never
    /// acknowledged.
    Stopped,
    /// The shard's process died mid-serve — an injected crash, or a
    /// failed WAL write or fsync, which power-fails the shard: the write
    /// was executed but is **not** acknowledged — recovery decides what
    /// survives.
    Crashed,
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingError::Stopped => write!(f, "serving session ended or shard dead"),
            ServingError::Crashed => write!(f, "shard crashed mid-serve; write unacknowledged"),
        }
    }
}

impl std::error::Error for ServingError {}

/// Power-of-two histogram: bucket `i` counts observations in
/// `[2^(i-1), 2^i)` (bucket 0 counts zeros). Observation and snapshot
/// are lock-free.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 65],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub(crate) fn observe(&self, value: u64) {
        let idx = (64 - value.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, RLX);
        self.sum.fetch_add(value, RLX);
        self.count.fetch_add(1, RLX);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(RLX)).collect(),
            sum: self.sum.load(RLX),
            count: self.count.load(RLX),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; bucket `i` covers `[2^(i-1), 2^i)`.
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }
}

/// The live metrics registry of one serving session: plain atomics,
/// updated by the clients, snapshotted by anyone without stopping the
/// world.
#[derive(Debug)]
pub struct ServingMetrics {
    gets: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
    scans: AtomicU64,
    stalls: AtomicU64,
    stall_ns: AtomicU64,
    acked_writes: AtomicU64,
    batches: AtomicU64,
    queue_depth: Vec<AtomicU64>,
    shard_ops: Vec<AtomicU64>,
    batch_writes: Histogram,
    commit_ns: Histogram,
    lock_wait_ns: Histogram,
    execute_ns: Histogram,
    commit_wait_ns: Histogram,
}

impl ServingMetrics {
    fn new(shards: usize) -> Self {
        Self {
            gets: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            scans: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            stall_ns: AtomicU64::new(0),
            acked_writes: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            queue_depth: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            shard_ops: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            batch_writes: Histogram::new(),
            commit_ns: Histogram::new(),
            lock_wait_ns: Histogram::new(),
            execute_ns: Histogram::new(),
            commit_wait_ns: Histogram::new(),
        }
    }

    /// Copies every counter at one instant (per counter; the registry is
    /// lock-free on the serving path, so this never blocks a request).
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            gets: self.gets.load(RLX),
            puts: self.puts.load(RLX),
            deletes: self.deletes.load(RLX),
            scans: self.scans.load(RLX),
            stalls: self.stalls.load(RLX),
            stall_ns: self.stall_ns.load(RLX),
            acked_writes: self.acked_writes.load(RLX),
            batches: self.batches.load(RLX),
            queue_depth: self.queue_depth.iter().map(|d| d.load(RLX)).collect(),
            shard_ops: self.shard_ops.iter().map(|d| d.load(RLX)).collect(),
            batch_writes: self.batch_writes.snapshot(),
            commit_ns: self.commit_ns.snapshot(),
            lock_wait_ns: self.lock_wait_ns.snapshot(),
            execute_ns: self.execute_ns.snapshot(),
            commit_wait_ns: self.commit_wait_ns.snapshot(),
        }
    }
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Point lookups served (includes unacknowledged failures).
    pub gets: u64,
    /// Puts served.
    pub puts: u64,
    /// Deletes served.
    pub deletes: u64,
    /// Range scans served.
    pub scans: u64,
    /// Times a client found its shard's lock taken (`try_lock` failed)
    /// and blocked for it.
    pub stalls: u64,
    /// Total real ns clients spent blocked on taken shard locks.
    pub stall_ns: u64,
    /// Writes acknowledged: covered by a returned fsync, or superseded
    /// by a memtable flush, before their client unblocked.
    pub acked_writes: u64,
    /// Fsyncs finished by a syncer (one group commit each).
    pub batches: u64,
    /// Per shard, the requests inside or waiting for the shard at
    /// snapshot time — at most the number of clients.
    pub queue_depth: Vec<u64>,
    /// Requests executed per shard since the session started (scan legs
    /// count once per shard they touch) — the hot-shard skew signal.
    pub shard_ops: Vec<u64>,
    /// Records each finished fsync newly covered — the cross-client
    /// group-commit coalescing histogram; `mean()` > 1 means writers
    /// shared fsyncs.
    pub batch_writes: HistogramSnapshot,
    /// Commit latency histogram (virtual ns, one observation per fsync).
    pub commit_ns: HistogramSnapshot,
    /// Real ns each request waited for its shard's lock.
    pub lock_wait_ns: HistogramSnapshot,
    /// Real ns each request held the lock: execute, boundary grant and,
    /// for a write, the WAL buffer's trip to the file.
    pub execute_ns: HistogramSnapshot,
    /// Real ns each write waited, lock released, for the fsync covering
    /// it (its own as syncer, or the one in flight).
    pub commit_wait_ns: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Total requests served.
    pub fn requests(&self) -> u64 {
        self.gets + self.puts + self.deletes + self.scans
    }

    /// Mean records newly covered per fsync (the group-commit batch size
    /// observed across clients; 0 when nothing was synced).
    pub fn mean_batch_writes(&self) -> f64 {
        self.batch_writes.mean()
    }

    /// Hottest-shard load as a multiple of the mean shard load (1.0 is
    /// perfectly balanced; 0.0 before any request executed).
    pub fn shard_imbalance(&self) -> f64 {
        crate::stats::imbalance(&self.shard_ops)
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut counter = |name: &str, labels: &str, v: u64| {
            out.push_str(&format!("ruskey_serving_{name}{labels} {v}\n"));
        };
        counter("requests_total", "{kind=\"get\"}", self.gets);
        counter("requests_total", "{kind=\"put\"}", self.puts);
        counter("requests_total", "{kind=\"delete\"}", self.deletes);
        counter("requests_total", "{kind=\"scan\"}", self.scans);
        counter("queue_stalls_total", "", self.stalls);
        counter("queue_stall_ns_total", "", self.stall_ns);
        counter("acked_writes_total", "", self.acked_writes);
        counter("commit_batches_total", "", self.batches);
        for (i, d) in self.queue_depth.iter().enumerate() {
            counter("queue_depth", &format!("{{shard=\"{i}\"}}"), *d);
        }
        for (i, d) in self.shard_ops.iter().enumerate() {
            counter("shard_ops_total", &format!("{{shard=\"{i}\"}}"), *d);
        }
        counter("batch_writes_sum", "", self.batch_writes.sum);
        counter("batch_writes_count", "", self.batch_writes.count);
        for (name, h) in [
            ("commit_ns", &self.commit_ns),
            ("lock_wait_ns", &self.lock_wait_ns),
            ("execute_ns", &self.execute_ns),
            ("commit_wait_ns", &self.commit_wait_ns),
        ] {
            counter(&format!("{name}_sum"), "", h.sum);
            counter(&format!("{name}_count"), "", h.count);
        }
        out
    }
}

/// One shard of a serving session: its tree behind the lock a client
/// holds while it executes, and the lock of the shard's one syncer, held
/// across the group commit's fsync with the tree lock released.
struct ShardSlot {
    /// `None` once `finish_serving` took the tree home.
    tree: Mutex<Option<FlsmTree>>,
    /// Taken with no tree lock held; the tree lock is taken inside it.
    syncer: Mutex<()>,
}

/// State shared by the frontend and every client of one serving session.
struct ServeShared {
    slots: Vec<ShardSlot>,
    metrics: ServingMetrics,
}

/// A `Send + Sync` handle over a store that is currently serving: holds
/// the shard trees for the length of the session, produces
/// [`ServingClient`]s for worker threads and snapshots the live metrics.
/// Obtained from
/// [`RusKey::serve`](crate::sharded::RusKey::serve); must
/// be returned to
/// [`RusKey::finish_serving`](crate::sharded::RusKey::finish_serving)
/// — dropping it instead drops the trees with it and leaves the engine
/// permanently unavailable.
pub struct ServingFrontend {
    shared: Arc<ServeShared>,
}

impl ServingFrontend {
    /// Starts a session over the store's trees, in shard order.
    pub(crate) fn new(trees: Vec<FlsmTree>) -> Self {
        let shared = ServeShared {
            metrics: ServingMetrics::new(trees.len()),
            slots: trees
                .into_iter()
                .map(|tree| ShardSlot {
                    tree: Mutex::new(Some(tree)),
                    syncer: Mutex::default(),
                })
                .collect(),
        };
        Self {
            shared: Arc::new(shared),
        }
    }

    /// Ends the session: waits out the operation inside each shard and
    /// takes its tree, in shard order. A client that still holds a handle
    /// finds the slot empty and gets [`ServingError::Stopped`]. A shard
    /// whose lock is poisoned — a client panicked inside it — dies on its
    /// fault plan, as a shard whose lane panicked does, and the first such
    /// shard is named.
    pub(crate) fn take_trees(&self) -> (Vec<FlsmTree>, Option<usize>) {
        let slots = &self.shared.slots;
        let take = |slot: &ShardSlot| {
            let mut guard = slot.tree.lock().unwrap_or_else(PoisonError::into_inner);
            let tree = guard.take().expect("a session ends once");
            if slot.tree.is_poisoned() {
                tree.faults().kill();
            }
            tree
        };
        let trees = slots.iter().map(take).collect();
        // Asked last: with its slot empty no client can die inside a shard.
        (trees, slots.iter().position(|slot| slot.tree.is_poisoned()))
    }

    /// Creates a client handle for one connection/thread. Clients are
    /// `Send`: move one into each thread.
    pub fn client(&self) -> ServingClient {
        ServingClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Snapshots the live metrics registry without stopping the world.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }
}

/// One client's handle on a serving session: runs each request on its own
/// thread under the owning shard's lock. It sleeps only when that lock is
/// taken (surfaced as a stall) and, for a write, for the fsync that covers
/// it.
pub struct ServingClient {
    shared: Arc<ServeShared>,
}

impl ServingClient {
    /// Counts the request by kind.
    fn count(&self, op: &Operation) {
        let m = &self.shared.metrics;
        let counter = match op {
            Operation::Get { .. } => &m.gets,
            Operation::Put { .. } => &m.puts,
            Operation::Delete { .. } => &m.deletes,
            Operation::Scan { .. } => &m.scans,
        };
        counter.fetch_add(1, RLX);
    }

    /// One operation on one shard, counted in the shard's gauge
    /// from before it asks for the lock until it has its answer — the
    /// same thread adds and subtracts, so the gauge never exceeds the
    /// number of clients.
    fn run(&self, shard: usize, op: &Operation) -> Result<OpResult, ServingError> {
        let gauge = &self.shared.metrics.queue_depth[shard];
        gauge.fetch_add(1, RLX);
        let result = self.run_locked(shard, op);
        gauge.fetch_sub(1, RLX);
        result
    }

    /// The client path (module docs): lock, execute, boundary grant,
    /// unlock; a write then waits — lock released — for its group commit.
    fn run_locked(&self, shard: usize, op: &Operation) -> Result<OpResult, ServingError> {
        let (slot, m) = (&self.shared.slots[shard], &self.shared.metrics);
        let asked = Instant::now();
        let mut guard = match slot.tree.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                let guard = slot.tree.lock().map_err(|_| ServingError::Stopped)?;
                m.stalls.fetch_add(1, RLX);
                m.stall_ns.fetch_add(asked.elapsed().as_nanos() as u64, RLX);
                guard
            }
            Err(TryLockError::Poisoned(_)) => return Err(ServingError::Stopped),
        };
        let locked = Instant::now();
        m.lock_wait_ns.observe((locked - asked).as_nanos() as u64);
        let tree = match guard.as_mut() {
            Some(tree) if !tree.faults().is_dead() => tree,
            _ => return Err(ServingError::Stopped),
        };
        m.shard_ops[shard].fetch_add(1, RLX);
        let result = execute(tree, op);
        tree.maintain_boundary();
        // A write leaves the lock with its record in the file and a
        // ticket for the fsync; the fsync itself waits for the unlock.
        let begun = (result == OpResult::Written).then(|| tree.begin_commit());
        drop(guard);
        let unlocked = Instant::now();
        m.execute_ns.observe((unlocked - locked).as_nanos() as u64);
        let Some(begun) = begun else {
            return Ok(result);
        };
        let acked = match begun {
            // The shard died: a crash, or a log write that failed and
            // power-failed it. Recovery decides what survives.
            Err(_) => Err(ServingError::Crashed),
            // Nothing left to sync: the store keeps no log, or a memtable
            // flush superseded the record.
            Ok(None) => Ok(()),
            Ok(Some(ticket)) => self.group_commit(shard, &ticket),
        };
        m.commit_wait_ns
            .observe(unlocked.elapsed().as_nanos() as u64);
        acked?;
        m.acked_writes.fetch_add(1, RLX);
        Ok(result)
    }

    /// Step 5, tree lock released: returns once `mine`'s records are
    /// acknowledged. As the shard's one syncer at a time, it returns at
    /// once if what finished while it queued covers them; otherwise it
    /// syncs everything in the file, for every writer queued behind it.
    fn group_commit(&self, shard: usize, mine: &SyncTicket) -> Result<(), ServingError> {
        let (slot, m) = (&self.shared.slots[shard], &self.shared.metrics);
        let _syncer = slot.syncer.lock().map_err(|_| ServingError::Stopped)?;
        let mut guard = slot.tree.lock().map_err(|_| ServingError::Stopped)?;
        let tree = guard.as_mut().ok_or(ServingError::Stopped)?;
        if tree.covers(mine) {
            return Ok(());
        }
        let Some(ticket) = tree.begin_commit().map_err(|_| ServingError::Crashed)? else {
            return Ok(());
        };
        drop(guard);
        let synced = ticket.sync_data();
        let mut guard = slot.tree.lock().map_err(|_| ServingError::Stopped)?;
        let tree = guard.as_mut().ok_or(ServingError::Stopped)?;
        let before = tree.storage().clock().now_ns();
        let newly = tree.finish_commit(&ticket, synced);
        let virtual_ns = tree.storage().clock().now_ns() - before;
        // `None`: a memtable flush superseded the log while the fsync was
        // in flight and has already counted its records.
        if let Some(newly) = newly.map_err(|_| ServingError::Crashed)? {
            m.batches.fetch_add(1, RLX);
            m.batch_writes.observe(newly);
            m.commit_ns.observe(virtual_ns);
        }
        Ok(())
    }

    /// The shard owning `key`: the key hash, as on every other path.
    fn owner(&self, key: &[u8]) -> usize {
        shard_for_key(key, self.shared.slots.len())
    }

    /// One point operation, start to finish: count, then run on the
    /// owning shard.
    fn point(&self, shard: usize, op: Operation) -> Result<OpResult, ServingError> {
        self.count(&op);
        self.run(shard, &op)
    }

    /// Point lookup on the owning shard.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>, ServingError> {
        let key = Bytes::copy_from_slice(key);
        self.point(self.owner(&key), Operation::Get { key })
            .map(OpResult::value)
    }

    /// Insert or overwrite. `Ok` means the write is **acknowledged**: an
    /// fsync that started after its record reached the log file returned
    /// before the reply (or a memtable flush superseded the record), so
    /// it survives a crash.
    pub fn put(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> Result<(), ServingError> {
        let (key, value) = (key.into(), value.into());
        self.point(self.owner(&key), Operation::Put { key, value })
            .map(drop)
    }

    /// Deletes a key, with the same acknowledgement contract as
    /// [`ServingClient::put`].
    pub fn delete(&self, key: impl Into<Bytes>) -> Result<(), ServingError> {
        let key = key.into();
        self.point(self.owner(&key), Operation::Delete { key })
            .map(drop)
    }

    /// Range scan over `[start, end)` with a result limit: one leg per
    /// shard, one after the other on this thread, each materialized whole
    /// under its shard's lock (so each leg is atomic within its shard;
    /// there is no cross-shard point-in-time, exactly as on the mission
    /// path), then k-way merged into one sorted result. Unlike
    /// [`RusKey::scan`](crate::RusKey::scan), which streams its shards, it
    /// holds every leg's rows until the merge returns.
    pub fn scan(
        &self,
        start: &[u8],
        end: &[u8],
        limit: usize,
    ) -> Result<Vec<(Bytes, Bytes)>, ServingError> {
        let op = Operation::Scan {
            start: Bytes::copy_from_slice(start),
            end: Bytes::copy_from_slice(end),
            limit,
        };
        self.count(&op);
        let per_shard = (0..self.shared.slots.len())
            .map(|shard| self.run(shard, &op).map(OpResult::rows))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(merge_sorted_scans(per_shard, limit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HistogramSnapshot {
        /// Upper bound of the bucket holding quantile `q` (0 when empty):
        /// a ≤ 2× overestimate, which is what a bucketed histogram can
        /// promise. Exact percentiles come from client-recorded latencies.
        fn quantile_upper(&self, q: f64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
            let mut seen = 0u64;
            for (i, &n) in self.buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    // Bucket i covers [2^(i-1), 2^i): its upper bound.
                    return match i {
                        0 => 0,
                        64.. => u64::MAX,
                        _ => 1u64 << i,
                    };
                }
            }
            0
        }
    }

    #[test]
    fn frontend_and_client_are_thread_safe() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<ServingFrontend>();
        assert_send::<ServingClient>();
    }

    #[test]
    fn histogram_mean_and_quantiles() {
        let h = Histogram::new();
        for v in [1u64, 1, 2, 4, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1008);
        assert!((s.mean() - 201.6).abs() < 1e-9);
        // p50 is 2, in bucket [2, 4) -> upper bound 4.
        assert_eq!(s.quantile_upper(0.5), 4);
        // p100 is 1000, in bucket [512, 1024) -> upper bound 1024.
        assert_eq!(s.quantile_upper(1.0), 1024);
        assert_eq!(HistogramSnapshot::default().quantile_upper(0.99), 0);
        assert_eq!(HistogramSnapshot::default().mean(), 0.0);
    }

    #[test]
    fn histogram_zero_observation_is_bucket_zero() {
        let h = Histogram::new();
        h.observe(0);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.quantile_upper(1.0), 0);
    }

    #[test]
    fn metrics_snapshot_and_prometheus_render() {
        let m = ServingMetrics::new(2);
        m.gets.fetch_add(3, RLX);
        m.puts.fetch_add(2, RLX);
        m.queue_depth[1].fetch_add(7, RLX);
        m.shard_ops[0].fetch_add(1, RLX);
        m.shard_ops[1].fetch_add(5, RLX);
        m.batch_writes.observe(4);
        m.lock_wait_ns.observe(30);
        m.execute_ns.observe(2000);
        m.execute_ns.observe(500);
        m.commit_wait_ns.observe(80_000);
        let s = m.snapshot();
        assert_eq!(s.requests(), 5);
        assert_eq!(s.queue_depth, vec![0, 7]);
        assert_eq!(s.shard_ops, vec![1, 5]);
        assert!((s.shard_imbalance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.mean_batch_writes(), 4.0);
        let text = s.render_prometheus();
        assert!(text.contains("ruskey_serving_requests_total{kind=\"get\"} 3"));
        assert!(text.contains("ruskey_serving_queue_depth{shard=\"1\"} 7"));
        assert!(text.contains("ruskey_serving_shard_ops_total{shard=\"0\"} 1"));
        assert!(text.contains("ruskey_serving_batch_writes_sum 4"));
        // Where a request's time went, from the system's own output.
        assert_eq!(s.execute_ns.count, 2);
        assert!(text.contains("ruskey_serving_lock_wait_ns_sum 30\n"));
        assert!(text.contains("ruskey_serving_execute_ns_sum 2500\n"));
        assert!(text.contains("ruskey_serving_execute_ns_count 2\n"));
        assert!(text.contains("ruskey_serving_commit_wait_ns_sum 80000\n"));
        assert!(text.contains("ruskey_serving_commit_ns_count 0\n"));
    }

    #[test]
    fn empty_snapshot_has_zero_imbalance() {
        assert_eq!(MetricsSnapshot::default().shard_imbalance(), 0.0);
    }
}
