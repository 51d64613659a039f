//! Root meta-crate of the RusKey reproduction workspace.
//!
//! Re-exports every workspace crate so the runnable examples under
//! `examples/` and the cross-crate integration tests under `tests/` can use
//! one dependency. Library users should depend on the individual crates
//! (most importantly [`ruskey`]) directly. The paper-experiment harness
//! (one store per method, run over a mission schedule) lives in
//! `ruskey-bench`, which the tests and examples take as a dev-dependency.
//!
//! # The sharded engine core
//!
//! The store's engine is sharded for multi-core scaling:
//! [`ruskey::RusKey`] hash-partitions keys onto `N`
//! independent FLSM-trees ([`lsm`]) that share one storage device
//! ([`storage`], whose accounting is atomic and `Sync`). A mission
//! executes as one **lane** per shard, in parallel under
//! `std::thread::scope`: lane 0 on the caller's thread, lanes `1..N` on
//! scoped threads that live as long as the mission (a one-shard store
//! spawns nothing), with operations routed by the stable FNV-1a hash in
//! [`workload::routing`]. A store-wide range scan streams its shards:
//! one lazy tree scan per shard, k-way merged straight into the result
//! (a served scan materializes one leg per shard under that shard's
//! lock, then merges), and a bulk load deals its pairs onto their shards
//! without copying the whole input: shard 0's stay in the input's buffer,
//! the others move into `Vec`s of their exact size.
//! A shard's tree never leaves the store: the trees sit in a plain `Vec`
//! and a lane is a `&mut` borrow of one, so the hot path carries no
//! locks and no channels, a store that is not inside a mission, an open
//! or a bulk load (which run on the same lanes) owns no OS thread, and
//! `N = 1` runs through the same path as any other shard count. There is **one way to run an operation**: execute each
//! [`workload::Operation`], grant the maintenance boundary
//! ([`lsm::FlsmTree::maintain_boundary`]), run the shard's commit leg.
//! A mission lane, the standalone group commit (empty lanes, no
//! boundary), an ad-hoc `get`/`put`/`delete`/`scan` (one operation on the
//! caller's thread that keeps its result and leaves the commit to the
//! next barrier) and a served request all make those calls; missions
//! and barriers share one lane runner, and every store is opened by one
//! call, [`ruskey::RusKey::open`], over a [`ruskey::Backend`] (volatile,
//! or persistent and either created fresh or recovered); every failure,
//! opening or running, is one [`ruskey::StoreError`]. Operations are
//! **borrowed** on the way:
//! a lane is a `Vec` of references into the slice `run_mission` was
//! given, a broadcast scan is one operation every lane points at, and
//! nothing is cloned before the tree keeps a key or a value. A panic
//! inside a lane — the caller's included — surfaces as a clean
//! [`ruskey::StoreError`] (never an unwind, never a hang) and
//! fences the shard, exactly as a client panicking inside a served shard
//! does: one death protocol.
//! Each shard runs on its own device, whose virtual clock is the shard's
//! **time domain**, so per-shard and per-level time attribution is exact
//! under parallelism;
//! domains compose store-wide into mission wall time (max) and
//! device-busy time (sum). There is **one mission loop** — lanes,
//! statistics collector, tuner seats, FLSM transition (paper §3, Fig. 1) —
//! and the tuners sit in one **seat list**, one seat per shard: seat 0 is
//! the tuner the store was opened with ([`ruskey::lerp`] or a baseline)
//! and seat `i` its [`ruskey::tuner::Tuner::for_shard`]`(i)`. The engine
//! exports the tuners a store runs: Lerp, whose agents learn through the
//! [`ruskey::lerp::LevelLearner`] seam, and the fixed, Lazy-Leveling and
//! greedy baselines; the two brute-force RL baselines of the paper's §7
//! impracticality study are schedules over that seam in `ruskey-bench`. Each seat
//! runs the paper's loop on its own shard — that shard's exact signal in,
//! that shard's policy changes out (see the tuning section below).
//! The single-tree store every paper experiment drives is this store
//! opened with **one shard** — not a second engine: its missions are
//! one-lane missions, its plain calls are ad-hoc operations. `tests/sharded_equivalence.rs` pins that a one-shard
//! store adds nothing to the accounting of the bare tree under it and
//! that `N` shards are observationally equivalent to one,
//! `tests/time_domains.rs` asserts per-shard accounting exactness at
//! `N ∈ {2, 4}`, and `tests/pool_stress.rs` pins the lanes' thread
//! identity (lane 0 is the caller, `N` distinct threads per mission),
//! single-threaded-replay determinism, and clean panic propagation from
//! any lane.
//!
//! # Durability & recovery: the two-log contract
//!
//! The store's durability splits across **two logs with disjoint
//! responsibilities**:
//!
//! * the **WAL** ([`lsm::Wal`]) protects the *write buffer*: each shard
//!   appends every put/delete *before* the memtable insert and recycles
//!   the log in place whenever a flush supersedes it. Per-record fsyncs
//!   would dominate write cost, so the sharded store runs a **cross-shard
//!   group commit**: every mission ends with a commit barrier that fsyncs each
//!   shard's log at most once, with the per-shard legs running
//!   *concurrently* inside the shards' lanes — the barrier costs
//!   the slowest shard's fsync, not the sum, and a shard crashing mid-leg
//!   cannot stop its siblings' batches from committing;
//! * the **manifest** ([`lsm::Manifest`]) protects the *tree structure*:
//!   every structural mutation commits one CRC-framed snapshot of the
//!   whole structure — each level's policies, its runs with their page
//!   extents and fence/Bloom metadata, the next run id, the flushed
//!   sequence watermark — into the older of two slot files, so the other
//!   slot still holds the previous state while a write is in flight.
//!
//! The two logs differ only in what a record's body holds. Both are
//! codecs over one crate-private record log in `ruskey-lsm`
//! (`record_log.rs`), which frames `[len][crc32][body]` records in place,
//! writes and fsyncs them, replays the longest valid prefix (stopping at
//! a torn length, a CRC mismatch or the zero header of a recycled tail),
//! and visits its shard's fault plan before each write and fsync. A log write or a manifest commit
//! that fails with an I/O error is a power failure, like a failed
//! barrier: the tree is crashed, and a served write is refused as
//! crashed rather than panicking its client.
//!
//! Ordering makes the two logs compose, and on a real filesystem the
//! ordering is enforced **to power-failure grade** by a three-step
//! contract per structural mutation:
//!
//! 1. **data durable** — the pages of every run the mutation created are
//!    written and the extent file is `fsync`ed
//!    ([`storage::Storage::sync_extent`]);
//! 2. **names durable** — one directory-handle `fsync`
//!    ([`storage::Storage::sync_dir`]) makes the extent files' directory
//!    entries survive power loss;
//! 3. **structure durable** — only then does the manifest snapshot commit,
//!    and only after *that* is the WAL recycled (obsolete pages are
//!    freed only after the commit).
//!
//! A power cut between any two steps loses nothing acknowledged: the
//! commit is aborted, the WAL keeps its records, and recovery rolls the
//! structure back to the previous commit while the log replays the rest.
//! Recycling zero-fills the log in place without an fsync of its own;
//! records of a finished generation that a power cut brings back are
//! already in a committed run, and recovery skips them by sequence
//! number.
//! The extent files a pre-commit cut strands on disk are swept by
//! recovery ([`storage::Storage::collect_orphans`], counted as
//! [`lsm::TreeStatsSnapshot::orphans_collected`]), and recovery reads go
//! through the fallible [`storage::Storage::try_read_shared`] — a missing,
//! torn, or corrupt extent, or page contents that do not parse, surface
//! as a typed error naming the run, not a panic. So at every crash point either the manifest or the WAL still
//! covers each acknowledged write, and the manifest never references
//! pages that were not durably written.
//!
//! On a **persistent backend**
//! ([`ruskey::Backend::Create`] gives
//! every shard its own [`storage::FileDisk`] directory — independent
//! file handles, no cross-shard serialization — plus a manifest and a
//! WAL), the store is fully restartable: reopening it on
//! [`ruskey::Backend::Recover`] (or
//! [`lsm::FlsmTree::recover_persistent`] for one tree) takes each
//! manifest's newest valid snapshot, rebuilds every recorded run
//! from its data pages (fence pointers and Bloom filters re-derived
//! identically), and replays the WAL tail on top (longest valid prefix,
//! replay order pinned by record sequence numbers) — get/scan-identical
//! to the store that was dropped. The persistent store is the only
//! durable one: a store on the simulated disk is volatile, and nothing of
//! it survives a drop.
//!
//! Durability traffic and recovery work are first-class metrics: WAL
//! appends/fsyncs/acknowledged records, both barrier compositions
//! ([`ruskey::stats::MissionReport::commit_ns`], the overlapped max, vs
//! [`ruskey::stats::MissionReport::commit_busy_ns`], the sequential
//! sum), the manifest records written (`manifest_edits`) and the recovery
//! counters (`runs_recovered`, `replayed_tail`) are fields of
//! [`lsm::TreeStatsSnapshot`]: the store's
//! lifetime reading is [`ruskey::RusKey::stats`], a mission's share its
//! report's [`ruskey::stats::MissionReport::window`].
//!
//! Faults are injected through one [`storage::FaultPlan`] per shard,
//! shared by its file disk, WAL and manifest ([`lsm::FlsmTree::faults`]):
//! every durable-path call — an append, a `pwrite`, a trim, an fsync, an
//! unlink — visits a named [`storage::Site`] first, where an armed
//! [`storage::Fault`] fires (a crash before or after the call, a torn
//! write, a power cut, or an error the call returns). Once a shard's plan
//! is dead, every barrier on it fails typed, so no write issued after the
//! death is acknowledged. The contract is
//! pinned three ways: `tests/crash_recovery.rs` runs the plan over the WAL
//! write path (crash before and after an append, a torn write, a crash
//! after the fsync; `N ∈ {1, 2, 4}`), over the manifest (crash before the
//! slot write, a torn slot, a crash between the write and its fsync and
//! after the fsync, and a slot torn from outside), over the fsync
//! barriers themselves (torn extent file, unlinked directory entry) and
//! over failed calls (ENOSPC on an extent write or create, a failed WAL
//! recycle, a failed trim, a failed unlink) — recovery must restore
//! exactly the acknowledged prefix and sweep the orphans;
//! `tests/persistence_restart.rs` asserts restart equivalence at
//! `N ∈ {1, 2, 4}` with a random-schedule proptest and a fuzz test of
//! arbitrary bytes in either manifest slot; and `tests/pool_stress.rs` checks the group commit against
//! routing ground truth — at most one fsync per shard per mission, every
//! write logged once and acknowledged at its barrier, the overlapped
//! barrier ([`ruskey::stats::MissionReport::commit_ns`]) within the
//! sequential sum.
//!
//! # The read path: serving-grade raw speed
//!
//! Point lookups are engineered to cost as little *real* time as the
//! layout allows, in four layers that compose:
//!
//! * **O(1) out-of-range rejection** — every level maintains the
//!   aggregate `[min, max]` key bounds of its runs (and the tree the
//!   union across levels), refreshed incrementally on flush, compaction,
//!   policy transition, and recovery. A get outside the tree bounds
//!   returns in constant time — zero Bloom probes, zero fence-pointer
//!   searches, zero page reads — and a get outside one level's bounds
//!   skips that whole level ([`lsm::FlsmTree::key_bounds`]).
//! * **one prepared key per lookup** — a get that passes the bounds
//!   hashes its key once for every run's Bloom filter and takes its
//!   16-byte prefix once ([`lsm::run::LookupKey`]); each run's fence
//!   pointers binary-search one contiguous array of their first keys'
//!   prefixes and compare full keys only where a prefix ties.
//! * **a sharded, serving-grade block cache** —
//!   [`storage::BlockCache`] keys pages by `(extent, page)` across K
//!   independently locked LRU segments (FNV-1a segment selection, true
//!   O(1) insert/touch/evict on an intrusive slab list). A hit costs a
//!   memcpy and charges only the CPU probe cost to the virtual clock —
//!   the cost model's accounting stays exact, so cache-disabled runs
//!   remain bit-identical to the simulated device. Invalidation follows
//!   the two-log contract: [`storage::Storage::free`] purges the
//!   extent's pages *before* the id can be reused, so recovery and
//!   compaction can never serve a stale page
//!   (`tests/cache_equivalence.rs` pins cached ≡ uncached at
//!   `N ∈ {1, 2, 4}` through flushes, compaction, and restart).
//! * **zero-alloc positional file I/O** — [`storage::FileDisk`] caches
//!   one file handle per extent (open once, `pread`/`pwrite` thereafter,
//!   no seek state and no per-read `open`) and stages pages through a
//!   reusable buffer, one per disk; `fds_opened` / `buffer_grows`
//!   counters prove both properties at steady state.
//!
//! Cache traffic is observable end to end: hit/miss/eviction counters
//! flow from [`storage::StorageMetrics`] through
//! [`lsm::TreeStatsSnapshot`], whose per-mission delta is
//! [`ruskey::stats::MissionReport::window`]. The contract is pinned
//! by unit and integration tests: an out-of-range get costs zero probes
//! and zero page reads (`crates/lsm/src/tree.rs`), the prefix fence
//! search finds the page the full-key search finds and the Bloom hash
//! sets the recorded bits (`crates/lsm/src/{fence,bloom}.rs`), `FileDisk`
//! opens each extent once and reuses its page buffer
//! (`crates/storage/src/file.rs`), and a warmed working set re-read
//! through the cache costs zero device reads
//! (`tests/storage_backends.rs`). Real ns per get is the perf ledger's
//! to measure (`lsm.get_ns_*`, `storage.cache.*`). Each
//! persistent shard serves through its own cache, sized by
//! [`ruskey::sharded::PersistenceConfig`]'s `cache_pages` (0 disables
//! caching entirely).
//!
//! # Background maintenance: structural work off the hot path
//!
//! With [`lsm::LsmConfig`]'s `background_maintenance` enabled, flushes
//! and compactions leave the write path: `put`/`delete` only append to
//! the WAL and the memtable, and the structural work runs as **bounded,
//! explicit steps** ([`lsm::FlsmTree::step_maintenance`] /
//! [`lsm::FlsmTree::maintain`]). The tree owns the one rule for how many
//! a boundary grants ([`lsm::FlsmTree::maintain_boundary`]); callers only
//! decide where a boundary falls — the end of a mission lane, the end of
//! a served batch, every 32nd ad-hoc write to a shard. The pieces
//! compose as follows:
//!
//! * **Score-based picker** — [`lsm::picker::level_score`] scores
//!   every level (bytes over capacity, L0 additionally by run count
//!   against [`lsm::picker::L0_RUN_LIMIT`], scaled by
//!   [`lsm::picker::SCORE_SCALE`]) and [`lsm::picker::pick`] names the
//!   highest scorer, whose sealed runs are merged into the next level.
//! * **Two-step merges** — one maintenance step *builds* the
//!   replacement batch from the picked runs (the inputs stay live for
//!   readers throughout); a later step revalidates and *applies* it:
//!   remove inputs, admit the merged run below, commit the manifest
//!   batch. A crash between the steps loses nothing — the inputs are
//!   still the manifest's truth.
//! * **Deferred frees extend the two-log contract** — a superseded
//!   run's extent and cache pages are freed only once the manifest
//!   commit that removed it is durable; [`storage::Storage::free`] then
//!   purges its cache pages before the extent id can be reused. Every
//!   read borrows the tree, so no reader holds a run across the free,
//!   and recovery never observes a recycled page.
//! * **Backpressure** — the write path stalls (running maintenance
//!   steps inline) only when L0's run count exceeds
//!   [`lsm::LsmConfig`]'s `l0_stall_runs`; the time spent is *measured*,
//!   never charged, and reported as `stall_ns` of
//!   [`lsm::TreeStatsSnapshot`] (a mission's share in its report's
//!   `window`), alongside `bg_compactions` (background merges applied) and
//!   `pending_compaction_bytes` (structural debt still owed).
//!
//! The contract is pinned by `tests/background_maintenance.rs` (a
//! proptest that the background store is bit-identical to a quiescent
//! inline store at `N ∈ {1, 2, 4}`, including reads racing an in-flight
//! merge, and a write-heavy script on one tree whose background per-op
//! virtual p99 must not exceed the inline tree's) and the
//! `manifest_crash_points_with_a_background_merge_in_flight` matrix in
//! `tests/crash_recovery.rs`.
//!
//! # Serving: many concurrent clients, one engine
//!
//! [`ruskey::frontend::ServingFrontend`]
//! ([`RusKey::serve`](ruskey::RusKey::serve))
//! turns the store into a `Send + Sync` service handle: any number of
//! [`ruskey::frontend::ServingClient`]s run get/put/delete/scan
//! concurrently, each **on its own thread under the owning shard's
//! lock** — no serving thread, no request queue, no wake-up per request —
//! through the same executor, boundary grant and commit leg as a mission
//! lane. A read returns at the unlock (the lock's order makes
//! read-your-writes structural) and never waits on an fsync; a write
//! leaves the lock with its record in the log file and is acknowledged
//! only after a **per-shard leader group commit** outside the lock: one
//! writer at a time fsyncs everything flushed so far, the writers that
//! arrive meanwhile share the next fsync, so under concurrency the fsync
//! amortizes over clients (16 writers over 2 shards share fsyncs,
//! pinned by `tests/serving.rs`).
//! A closed-loop client has one request outstanding, so the client
//! count bounds in-flight work; time blocked on a taken shard lock is
//! recorded as `stall_ns`.
//! Live counters, per-shard in-flight gauges, and power-of-two
//! histograms — lock wait, execute and commit wait per request among
//! them — are snapshotted wait-free and render in the Prometheus text
//! format ([`ruskey::frontend::MetricsSnapshot::render_prometheus`]).
//!
//! Ad-hoc operations on the store itself (`get`/`put`/`delete`/`scan`
//! outside missions and serving sessions) run on the caller's thread,
//! straight on the owning shard's tree through the same executor, so
//! they share the mission path's time-domain attribution and — the
//! backpressure contract — every 32nd write to a shard is a maintenance
//! boundary; an ad-hoc write burst in background mode keeps L0 bounded
//! by `l0_stall_runs` and records its waits as `stall_ns`
//! (`tests/background_maintenance.rs`), and ad-hoc scans visit the
//! shards in turn with exact per-shard accounting
//! (`tests/time_domains.rs`). `tests/sharded_equivalence.rs` pins that
//! the mission, ad-hoc and serving doors leave identical stores.
//!
//! The serving contract is pinned by `tests/serving.rs` — K-client
//! equivalence to a single-threaded replay at `N ∈ {1, 2, 4}`,
//! read-your-writes under concurrency, shared fsyncs with nothing lost,
//! and a mid-serve crash after a WAL append losing no acknowledged
//! write. Served throughput and request latency are the perf ledger's
//! `serve-mixed` workload.
//!
//! # Per-shard learned tuning
//!
//! Under skewed key popularity the shards see *different* workloads, so
//! one store-wide policy is the wrong answer for somebody. A store
//! therefore seats one tuner per shard: seat `i` is the opening tuner's
//! [`ruskey::tuner::Tuner::for_shard`]`(i)` (a Lerp agent seeded
//! `seed + i·104729`, a baseline's plain copy), so a store opened with a
//! [`ruskey::Lerp`] tuner runs one Lerp agent per shard, and the signal
//! path is exact rather
//! than averaged: each agent is rewarded from its shard's **reward
//! slice** — the shard's own time-domain delta with its own commit leg,
//! split out by the stats collector instead of merged — observes its
//! own [`ruskey::tuner::TreeObservation`], and lands policy changes
//! only on the owning shard ([`ruskey::RusKey::shard_policies`]
//! and [`ruskey::stats::MissionReport::shard_policies_after`] expose the
//! per-shard result). Idle shards are skipped — a zero-op slice carries
//! no signal, and skipping keeps a cold shard's replay buffer clean
//! under skew. At `N = 1` the one seat reads the mission's whole report:
//! the paper's loop, not a second code path.
//!
//! A key's shard is its hash everywhere ([`workload::routing::shard_for_key`]):
//! missions, ad-hoc ops, bulk load and the serving frontend. Skew shows
//! up as measurements, not as moved keys: the per-shard `shard_ops`
//! counters, [`ruskey::stats::MissionReport::shard_imbalance`] and
//! [`ruskey::frontend::MetricsSnapshot::shard_imbalance`].
//!
//! The contract is pinned by `tests/tuning_equivalence.rs` (goldens of
//! the seats' decisions at `N = 1` and under skew at `N = 4`) and the
//! `repro tuning --json` experiment, whose `tuning_ok` verdict CI greps:
//! the per-shard agents must really move policies on the uniform, skewed
//! and shifting workloads.

#![forbid(unsafe_code)]

/// Compiles the Rust blocks of the top-level `README.md` as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use ruskey;
pub use ruskey_analysis as analysis;
pub use ruskey_lsm as lsm;
pub use ruskey_rl as rl;
pub use ruskey_storage as storage;
pub use ruskey_workload as workload;
