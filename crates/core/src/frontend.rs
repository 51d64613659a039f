//! The concurrent serving frontend: many clients, one sharded engine.
//!
//! [`ServingFrontend`] turns a [`ShardedRusKey`](crate::sharded::ShardedRusKey)
//! into a `Send + Sync` service handle. While the store is serving, every
//! shard's tree lives on its persistent worker (the same pool thread that
//! executes mission lanes), which drains a **bounded per-shard MPSC
//! queue** in batches:
//!
//! 1. block for the first request, then greedily drain up to
//!    `batch_ops` more without blocking — whatever concurrent clients
//!    enqueued while the previous batch was executing or committing;
//! 2. run every request's [`Operation`] through `execute` — the same
//!    executor a mission lane and an ad-hoc call use. A read's result is
//!    sent back at once (FIFO order per shard makes read-your-writes per
//!    client structural, not probabilistic); a write's reply is held;
//! 3. the batch's end is a maintenance boundary:
//!    [`FlsmTree::maintain_boundary`], the same grant a mission lane
//!    gets between its operations and its commit;
//! 4. if the batch contained writes, run **one** `commit_leg` covering
//!    all of them, then send the held replies — ack-after-commit, so an
//!    acknowledged write is always covered by an fsync (or superseded by
//!    a flush) before its client unblocks.
//!
//! Steps 2–4 are the one path of `exec`; a served batch is the
//! door that replies per operation, always grants the boundary, and
//! commits only when it wrote.
//!
//! Step 4 is the cross-client group commit: the ≤ 1-fsync-per-shard-
//! per-batch bound that mission barriers provide for one caller now
//! amortizes over every connected client — requests that arrive during a
//! commit form the next batch, so under concurrency the mean writes per
//! fsync exceeds one (the `repro serve` experiment pins this).
//!
//! ## Admission control and backpressure
//!
//! Two mechanisms keep an overloaded frontend honest instead of letting
//! queues grow without bound:
//!
//! * a **token bucket** ([`ServingConfig::rate_limit_per_sec`] /
//!   [`ServingConfig::burst`]) rejects requests once the bucket drains —
//!   [`ServingError::Rejected`] carries a `retry_after` hint, and a
//!   rejected operation was **not** executed (the proptest in
//!   `tests/serving.rs` pins that rejections never drop an acknowledged
//!   op);
//! * the bounded queue itself: when a shard's queue is at
//!   [`ServingConfig::queue_depth`], the submitting client blocks until
//!   the worker drains — the wait is surfaced as `stall_ns` (and a
//!   `stalls` count) in the metrics, and the per-write queue wait is
//!   attributed to the shard tree via [`FlsmTree::note_queue_stall_ns`]
//!   so it reaches the mission report's `queue_stall_ns`.
//!
//! ## Live metrics
//!
//! [`ServingMetrics`] is a registry of atomics — request counters by
//! kind, rejections, stalls, per-shard queue-depth gauges, power-of-two
//! histograms for writes-per-commit and commit latency, and per-client
//! counters (CAMAL's motivation: keep per-client workload composition
//! live so a tuner can eventually see it). [`ServingFrontend::metrics`]
//! snapshots it without stopping the world — readers never take a lock
//! the serving path holds — and
//! [`MetricsSnapshot::render_prometheus`] renders the classic
//! text exposition format.
//!
//! Serving sessions bracket missions: start with
//! [`ShardedRusKey::serve`](crate::sharded::ShardedRusKey::serve), hand
//! [`ServingClient`]s to threads, and call
//! [`ShardedRusKey::finish_serving`](crate::sharded::ShardedRusKey::finish_serving)
//! to stop, restore the trees, and fold the serving work out of the next
//! mission's statistics delta.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use ruskey_lsm::FlsmTree;
use ruskey_workload::routing::RoutingTable;
use ruskey_workload::Operation;

use crate::exec::{commit_leg, execute, OpResult};
use crate::sharded::{merge_sorted_scans, InFlight};

/// Relaxed is enough everywhere here: every counter is a monotonic
/// statistic, never a synchronization edge.
const RLX: Ordering = Ordering::Relaxed;

/// Tuning knobs of a serving session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingConfig {
    /// Bounded per-shard request-queue capacity. A full queue blocks the
    /// submitting client (surfaced as `stall_ns`), which is the
    /// queue-depth watermark backpressure.
    pub queue_depth: usize,
    /// Maximum requests a shard worker drains into one batch (and so the
    /// most writes one commit leg can cover).
    pub batch_ops: usize,
    /// Token-bucket refill rate in requests per second across all
    /// clients; 0 disables admission control entirely.
    pub rate_limit_per_sec: u64,
    /// Token-bucket capacity: the burst admitted from a full bucket
    /// before the refill rate gates. Ignored when
    /// `rate_limit_per_sec == 0`.
    pub burst: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            queue_depth: 64,
            batch_ops: 64,
            rate_limit_per_sec: 0,
            burst: 64,
        }
    }
}

/// Why a serving request failed.
#[derive(Debug)]
pub enum ServingError {
    /// Admission control rejected the request before it was enqueued:
    /// the token bucket is empty. The operation did **not** execute;
    /// retry no sooner than `retry_after`.
    Rejected {
        /// Estimated wait until the bucket holds a token again.
        retry_after: Duration,
    },
    /// The serving session has stopped (the store is shutting the
    /// frontend down, or the shard's serve loop already exited); the
    /// request was not executed — or, for a write, was executed but
    /// never acknowledged.
    Stopped,
    /// The shard's log simulated a process crash mid-serve (fault
    /// injection): the write batch was executed but is **not**
    /// acknowledged — recovery decides what survives.
    Crashed,
    /// The shard's WAL failed with a real I/O error during the commit
    /// leg: the batch is not acknowledged.
    Wal,
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingError::Rejected { retry_after } => {
                write!(f, "admission rejected; retry after {retry_after:?}")
            }
            ServingError::Stopped => write!(f, "serving session stopped"),
            ServingError::Crashed => write!(f, "shard crashed mid-serve; write unacknowledged"),
            ServingError::Wal => write!(f, "WAL commit failed; write unacknowledged"),
        }
    }
}

impl std::error::Error for ServingError {}

/// A token bucket shared by every client of one serving session: `rate`
/// tokens per second refill up to `capacity`, one token per request.
#[derive(Debug)]
pub struct TokenBucket {
    rate_per_sec: f64,
    capacity: f64,
    state: Mutex<BucketState>,
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    /// A bucket refilling `rate_per_sec` tokens up to `capacity`;
    /// `rate_per_sec == 0` admits everything.
    pub fn new(rate_per_sec: u64, capacity: u64) -> Self {
        Self {
            rate_per_sec: rate_per_sec as f64,
            capacity: (capacity.max(1)) as f64,
            state: Mutex::new(BucketState {
                tokens: (capacity.max(1)) as f64,
                last_refill: Instant::now(),
            }),
        }
    }

    /// Takes one token, or reports how long until one is available.
    pub fn try_take(&self) -> Result<(), Duration> {
        if self.rate_per_sec <= 0.0 {
            return Ok(());
        }
        let mut s = self.state.lock().expect("token bucket poisoned");
        let now = Instant::now();
        let refill = now.duration_since(s.last_refill).as_secs_f64() * self.rate_per_sec;
        s.tokens = (s.tokens + refill).min(self.capacity);
        s.last_refill = now;
        if s.tokens >= 1.0 {
            s.tokens -= 1.0;
            Ok(())
        } else {
            Err(Duration::from_secs_f64(
                (1.0 - s.tokens) / self.rate_per_sec,
            ))
        }
    }
}

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
    pub fn observe(&self, value: u64) {
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
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Upper bound of the bucket holding quantile `q` (0 when empty):
    /// a ≤ 2× overestimate, which is what a bucketed histogram can
    /// promise. Exact percentiles come from client-recorded latencies.
    pub fn quantile_upper(&self, q: f64) -> u64 {
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

/// Live per-client workload counters (one set per [`ServingClient`]).
#[derive(Debug, Default)]
pub struct ClientCounters {
    gets: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
    scans: AtomicU64,
    rejections: AtomicU64,
}

/// A point-in-time copy of one client's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientSnapshot {
    /// Client id, in creation order.
    pub id: u64,
    /// Point lookups issued.
    pub gets: u64,
    /// Puts issued.
    pub puts: u64,
    /// Deletes issued.
    pub deletes: u64,
    /// Range scans issued.
    pub scans: u64,
    /// Requests the token bucket rejected.
    pub rejections: u64,
}

/// The live metrics registry of one serving session: plain atomics,
/// updated by clients and shard workers, snapshotted by anyone without
/// stopping the world.
#[derive(Debug)]
pub struct ServingMetrics {
    gets: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
    scans: AtomicU64,
    rejections: AtomicU64,
    stalls: AtomicU64,
    stall_ns: AtomicU64,
    acked_writes: AtomicU64,
    batches: AtomicU64,
    queue_depth: Vec<AtomicU64>,
    shard_ops: Vec<AtomicU64>,
    batch_writes: Histogram,
    commit_ns: Histogram,
    next_client: AtomicU64,
    /// Locked only at client registration and snapshot time — never on
    /// the per-request path.
    clients: Mutex<Vec<(u64, Arc<ClientCounters>)>>,
}

impl ServingMetrics {
    fn new(shards: usize) -> Self {
        Self {
            gets: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            scans: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            stall_ns: AtomicU64::new(0),
            acked_writes: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            queue_depth: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            shard_ops: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            batch_writes: Histogram::new(),
            commit_ns: Histogram::new(),
            next_client: AtomicU64::new(0),
            clients: Mutex::new(Vec::new()),
        }
    }

    fn register_client(&self) -> (u64, Arc<ClientCounters>) {
        let id = self.next_client.fetch_add(1, RLX);
        let counters = Arc::new(ClientCounters::default());
        self.clients
            .lock()
            .expect("client registry poisoned")
            .push((id, Arc::clone(&counters)));
        (id, counters)
    }

    /// Copies every counter at one instant (per counter; the registry is
    /// lock-free on the serving path, so this never blocks a request).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            gets: self.gets.load(RLX),
            puts: self.puts.load(RLX),
            deletes: self.deletes.load(RLX),
            scans: self.scans.load(RLX),
            rejections: self.rejections.load(RLX),
            stalls: self.stalls.load(RLX),
            stall_ns: self.stall_ns.load(RLX),
            acked_writes: self.acked_writes.load(RLX),
            batches: self.batches.load(RLX),
            queue_depth: self.queue_depth.iter().map(|d| d.load(RLX)).collect(),
            shard_ops: self.shard_ops.iter().map(|d| d.load(RLX)).collect(),
            batch_writes: self.batch_writes.snapshot(),
            commit_ns: self.commit_ns.snapshot(),
            clients: self
                .clients
                .lock()
                .expect("client registry poisoned")
                .iter()
                .map(|(id, c)| ClientSnapshot {
                    id: *id,
                    gets: c.gets.load(RLX),
                    puts: c.puts.load(RLX),
                    deletes: c.deletes.load(RLX),
                    scans: c.scans.load(RLX),
                    rejections: c.rejections.load(RLX),
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Point lookups served (admitted; includes unacknowledged failures).
    pub gets: u64,
    /// Puts admitted.
    pub puts: u64,
    /// Deletes admitted.
    pub deletes: u64,
    /// Range scans admitted.
    pub scans: u64,
    /// Requests the token bucket rejected (never executed).
    pub rejections: u64,
    /// Times a client blocked on a full shard queue (the queue-depth
    /// watermark).
    pub stalls: u64,
    /// Total real ns clients spent blocked on full shard queues.
    pub stall_ns: u64,
    /// Writes acknowledged after their batch's commit leg.
    pub acked_writes: u64,
    /// Write batches committed (one commit leg each).
    pub batches: u64,
    /// Per-shard queue depth at snapshot time.
    pub queue_depth: Vec<u64>,
    /// Requests executed per shard since the session started (scan legs
    /// count once per shard they touch) — the hot-shard skew signal.
    pub shard_ops: Vec<u64>,
    /// Writes covered per commit leg — the cross-client group-commit
    /// coalescing histogram; `mean()` > 1 means coalescing happened.
    pub batch_writes: HistogramSnapshot,
    /// Commit-leg latency histogram (virtual ns, fsyncs only).
    pub commit_ns: HistogramSnapshot,
    /// Per-client workload counters, in client-creation order.
    pub clients: Vec<ClientSnapshot>,
}

impl MetricsSnapshot {
    /// Total admitted requests.
    pub fn requests(&self) -> u64 {
        self.gets + self.puts + self.deletes + self.scans
    }

    /// Mean writes covered per commit leg (the group-commit batch size
    /// observed across clients; 0 when no batch committed).
    pub fn mean_batch_writes(&self) -> f64 {
        self.batch_writes.mean()
    }

    /// Hottest-shard load as a multiple of the mean shard load (1.0 is
    /// perfectly balanced; 0.0 before any request executed).
    pub fn shard_imbalance(&self) -> f64 {
        let total: u64 = self.shard_ops.iter().sum();
        if self.shard_ops.is_empty() || total == 0 {
            return 0.0;
        }
        let max = *self.shard_ops.iter().max().unwrap() as f64;
        max / (total as f64 / self.shard_ops.len() as f64)
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
        counter("rejections_total", "", self.rejections);
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
        counter("commit_ns_sum", "", self.commit_ns.sum);
        counter("commit_ns_count", "", self.commit_ns.count);
        out
    }
}

/// One request on a shard's serving queue.
pub(crate) enum ShardRequest {
    /// Execute `op` and answer on `reply`: a read as soon as it ran, a
    /// write after its batch's commit leg.
    Op {
        op: Operation,
        reply: mpsc::Sender<Reply>,
        /// When a write was submitted (its queue wait is attributed to
        /// the shard); reads carry no clock reading.
        enqueued: Option<Instant>,
    },
    /// Stop serving after the current batch (sent once per shard by
    /// `finish_serving`).
    Shutdown,
}

/// A shard worker's answer to one request. `Ok(OpResult::Written)` is an
/// acknowledgement: the write's batch committed and the tree is alive, so
/// the record is fsync-covered (or flush-superseded).
pub(crate) type Reply = Result<OpResult, ServingError>;

/// State shared by every client and shard worker of one serving session.
pub(crate) struct ServeShared {
    pub(crate) cfg: ServingConfig,
    pub(crate) metrics: Arc<ServingMetrics>,
    pub(crate) bucket: Arc<TokenBucket>,
    /// Frozen copy of the store's key re-homing overrides: clients must
    /// route exactly like the mission path or re-homed keys would read
    /// from the wrong shard.
    pub(crate) routes: RoutingTable,
}

impl ServeShared {
    pub(crate) fn new(cfg: ServingConfig, shards: usize, routes: RoutingTable) -> Self {
        let bucket = Arc::new(TokenBucket::new(cfg.rate_limit_per_sec, cfg.burst));
        Self {
            cfg,
            metrics: Arc::new(ServingMetrics::new(shards)),
            bucket,
            routes,
        }
    }
}

/// The serve loop of one shard, run on the shard's persistent pool
/// worker while a serving session is active (see the module docs for the
/// batch/maintain/commit/ack cycle). Returns when the session shuts down,
/// every sender is gone, or the shard dies (crash or WAL error) —
/// the worker then ships the tree home.
pub(crate) fn serve_shard(
    shard: usize,
    tree: &mut FlsmTree,
    rx: &Receiver<ShardRequest>,
    shared: &ServeShared,
) {
    let m = &shared.metrics;
    let batch_max = shared.cfg.batch_ops.max(1);
    let mut acks: Vec<mpsc::Sender<Reply>> = Vec::new();
    let mut stop = false;
    while !stop {
        // Block for the first request; drain greedily after it. The
        // greedy drain is what forms cross-client batches: everything
        // enqueued while the previous batch executed or committed.
        let Ok(first) = rx.recv() else { break };
        let mut batch = Vec::with_capacity(batch_max);
        batch.push(first);
        batch.extend(rx.try_iter().take(batch_max - 1));
        for req in batch {
            let ShardRequest::Op {
                op,
                reply,
                enqueued,
            } = req
            else {
                stop = true;
                continue;
            };
            m.queue_depth[shard].fetch_sub(1, RLX);
            m.shard_ops[shard].fetch_add(1, RLX);
            if let Some(enqueued) = enqueued {
                tree.note_queue_stall_ns(enqueued.elapsed().as_nanos() as u64);
            }
            match execute(tree, op) {
                OpResult::Written => acks.push(reply),
                read => {
                    let _ = reply.send(Ok(read));
                }
            }
        }
        tree.maintain_boundary();
        if !acks.is_empty() {
            // The cross-client group commit: one leg covers every write
            // of the batch; acks only go out after it.
            let writes = acks.len() as u64;
            let leg = commit_leg(tree);
            m.batches.fetch_add(1, RLX);
            m.batch_writes.observe(writes);
            if leg.synced {
                m.commit_ns.observe(leg.ns);
            }
            // A log that failed with a real I/O error, or died mid-batch
            // (fault injection), acknowledges nothing; recovery decides
            // what survives.
            let (failed, crashed) = (leg.error.is_some(), tree.crashed());
            if !failed && !crashed {
                m.acked_writes.fetch_add(writes, RLX);
            }
            for ack in acks.drain(..) {
                let _ = ack.send(if failed {
                    Err(ServingError::Wal)
                } else if crashed {
                    Err(ServingError::Crashed)
                } else {
                    Ok(OpResult::Written)
                });
            }
            stop |= failed;
        }
        // Stop serving a dead shard.
        stop |= tree.crashed();
    }
}

/// A `Send + Sync` handle over a store that is currently serving:
/// produces [`ServingClient`]s for worker threads and snapshots the live
/// metrics. Obtained from
/// [`ShardedRusKey::serve`](crate::sharded::ShardedRusKey::serve); must
/// be returned to
/// [`ShardedRusKey::finish_serving`](crate::sharded::ShardedRusKey::finish_serving)
/// — dropping it instead leaves the shard trees on the workers and the
/// engine permanently unavailable.
pub struct ServingFrontend {
    pub(crate) senders: Vec<SyncSender<ShardRequest>>,
    pub(crate) shared: Arc<ServeShared>,
    /// The shipped trees, collected by `finish_serving`. Wrapped in a
    /// mutex only to keep the handle `Sync`; it is taken exactly once,
    /// at session end.
    pub(crate) in_flight: Mutex<InFlight>,
}

impl ServingFrontend {
    /// Creates a client handle for one connection/thread. Clients are
    /// `Send` (move one into each thread) and register a live counter
    /// set in the metrics registry.
    pub fn client(&self) -> ServingClient {
        let (id, counters) = self.shared.metrics.register_client();
        ServingClient {
            senders: self.senders.clone(),
            shared: Arc::clone(&self.shared),
            counters,
            id,
        }
    }

    /// Number of shards being served.
    pub fn shard_count(&self) -> usize {
        self.senders.len()
    }

    /// Snapshots the live metrics registry without stopping the world.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }
}

/// One client's handle on a serving session: submits requests through
/// the per-shard queues, pays the token bucket, and blocks only on its
/// own replies (plus the queue-watermark stall when a shard is
/// saturated).
pub struct ServingClient {
    senders: Vec<SyncSender<ShardRequest>>,
    shared: Arc<ServeShared>,
    counters: Arc<ClientCounters>,
    id: u64,
}

impl ServingClient {
    /// This client's id in the metrics registry.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Pays the token bucket and counts the request, store-wide and for
    /// this client. A rejected request is counted only as a rejection.
    fn admit(&self, op: &Operation) -> Result<(), ServingError> {
        let (m, c) = (&self.shared.metrics, &self.counters);
        if let Err(retry_after) = self.shared.bucket.try_take() {
            m.rejections.fetch_add(1, RLX);
            c.rejections.fetch_add(1, RLX);
            return Err(ServingError::Rejected { retry_after });
        }
        let (all, mine) = match op {
            Operation::Get { .. } => (&m.gets, &c.gets),
            Operation::Put { .. } => (&m.puts, &c.puts),
            Operation::Delete { .. } => (&m.deletes, &c.deletes),
            Operation::Scan { .. } => (&m.scans, &c.scans),
        };
        all.fetch_add(1, RLX);
        mine.fetch_add(1, RLX);
        Ok(())
    }

    /// Enqueues one admitted operation on a shard's queue.
    fn submit(
        &self,
        shard: usize,
        op: Operation,
        reply: mpsc::Sender<Reply>,
    ) -> Result<(), ServingError> {
        let m = &self.shared.metrics;
        let req = ShardRequest::Op {
            enqueued: op.is_write().then(Instant::now),
            op,
            reply,
        };
        match self.senders[shard].try_send(req) {
            Ok(()) => {}
            Err(TrySendError::Full(req)) => {
                // Queue-depth watermark: the shard is saturated. Block
                // until the worker drains, surfacing the wait as a stall.
                let t0 = Instant::now();
                let sent = self.senders[shard].send(req);
                m.stalls.fetch_add(1, RLX);
                m.stall_ns.fetch_add(t0.elapsed().as_nanos() as u64, RLX);
                if sent.is_err() {
                    return Err(ServingError::Stopped);
                }
            }
            Err(TrySendError::Disconnected(_)) => return Err(ServingError::Stopped),
        }
        m.queue_depth[shard].fetch_add(1, RLX);
        Ok(())
    }

    /// The shard owning `key` under the session's frozen routing table.
    fn owner(&self, key: &[u8]) -> usize {
        self.shared.routes.shard_for(key, self.senders.len())
    }

    /// One point operation, start to finish: admit, enqueue on the owning
    /// shard's queue, wait for the reply.
    fn point(&self, shard: usize, op: Operation) -> Result<OpResult, ServingError> {
        self.admit(&op)?;
        let (tx, rx) = mpsc::channel();
        self.submit(shard, op, tx)?;
        rx.recv().unwrap_or(Err(ServingError::Stopped))
    }

    /// Point lookup, routed to the owning shard's queue.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>, ServingError> {
        let key = Bytes::copy_from_slice(key);
        self.point(self.owner(&key), Operation::Get { key })
            .map(OpResult::value)
    }

    /// Insert or overwrite. `Ok` means the write is **acknowledged**:
    /// its batch's commit leg ran before the reply (fsync-covered or
    /// flush-superseded), so it survives a crash.
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

    /// Range scan over `[start, end)` with a result limit: broadcast to
    /// every shard's queue (each leg is atomic within its shard; there
    /// is no cross-shard point-in-time, exactly as on the mission path),
    /// k-way merged into one sorted result.
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
        self.admit(&op)?;
        let (tx, rx) = mpsc::channel();
        let n = self.senders.len();
        for shard in 0..n {
            self.submit(shard, op.clone(), tx.clone())?;
        }
        drop(tx);
        let mut per_shard = Vec::with_capacity(n);
        for _ in 0..n {
            let leg = rx.recv().unwrap_or(Err(ServingError::Stopped))?;
            per_shard.push(leg.rows());
        }
        Ok(merge_sorted_scans(per_shard, limit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontend_and_client_are_thread_safe() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<ServingFrontend>();
        assert_send::<ServingClient>();
    }

    #[test]
    fn token_bucket_rejects_then_refills() {
        let b = TokenBucket::new(1_000_000, 2);
        assert!(b.try_take().is_ok());
        assert!(b.try_take().is_ok());
        // The burst is spent; at 1M/s the next token is ~1µs away, so
        // either an immediate reject with a positive hint or (if the OS
        // slept us) a refilled success is acceptable.
        match b.try_take() {
            Ok(()) => {}
            Err(retry_after) => assert!(retry_after > Duration::ZERO),
        }
        // After a full refill interval the bucket admits again.
        std::thread::sleep(Duration::from_millis(1));
        assert!(b.try_take().is_ok());
    }

    #[test]
    fn zero_rate_bucket_admits_everything() {
        let b = TokenBucket::new(0, 1);
        for _ in 0..10_000 {
            assert!(b.try_take().is_ok());
        }
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
        let (id, c) = m.register_client();
        c.puts.fetch_add(2, RLX);
        let s = m.snapshot();
        assert_eq!(s.requests(), 5);
        assert_eq!(s.queue_depth, vec![0, 7]);
        assert_eq!(s.shard_ops, vec![1, 5]);
        assert!((s.shard_imbalance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.mean_batch_writes(), 4.0);
        assert_eq!(s.clients.len(), 1);
        assert_eq!(s.clients[0].id, id);
        assert_eq!(s.clients[0].puts, 2);
        let text = s.render_prometheus();
        assert!(text.contains("ruskey_serving_requests_total{kind=\"get\"} 3"));
        assert!(text.contains("ruskey_serving_queue_depth{shard=\"1\"} 7"));
        assert!(text.contains("ruskey_serving_shard_ops_total{shard=\"0\"} 1"));
        assert!(text.contains("ruskey_serving_batch_writes_sum 4"));
    }

    #[test]
    fn empty_snapshot_has_zero_imbalance() {
        assert_eq!(MetricsSnapshot::default().shard_imbalance(), 0.0);
    }

    #[test]
    fn serving_config_defaults_are_sane() {
        let cfg = ServingConfig::default();
        assert!(cfg.queue_depth > 0);
        assert!(cfg.batch_ops > 1, "batching requires room to coalesce");
        assert_eq!(cfg.rate_limit_per_sec, 0, "admission off by default");
    }
}
