//! **RusKey** — an RL-tuned LSM-tree key-value store for dynamic workloads,
//! with a sharded engine core for multi-core scaling.
//!
//! Reproduction of *"Learning to Optimize LSM-trees: Towards A Reinforcement
//! Learning based Key-Value Store for Dynamic Workloads"* (Mo, Chen, Luo,
//! Shan; SIGMOD 2023, arXiv:2308.07013), grown toward a production-scale
//! store.
//!
//! # Architecture
//!
//! The engine core is **sharded**: [`RusKey`] hash-partitions
//! the key space onto `N` independent [FLSM-trees](ruskey_lsm::FlsmTree)
//! (each with its own memtable and levels) sharing one storage device.
//! Missions execute in parallel — one lane per shard on a `&mut` borrow of
//! its tree, lane 0 on the caller's thread and the rest on scoped threads,
//! operations routed by the stable key hash of
//! [`ruskey_workload::routing`]. A store-wide range scan
//! ([`RusKey::scan`]) streams its shards: one lazy
//! [`ruskey_lsm::FlsmTree::range_scan`] per shard, k-way merged straight
//! into the result; a served scan materializes one leg per shard under
//! that shard's lock, then merges. Opening a store and bulk-loading it run
//! on the same lanes, one shard each; the load keeps shard 0's pairs in
//! the input's own buffer and moves every other shard's into a `Vec` of
//! its exact size. The trees
//! never leave the store and the store owns no thread.
//!
//! There is **one mission loop** (paper §3, Fig. 1), in
//! [`RusKey::try_run_mission`]:
//!
//! 1. the operations are partitioned into lanes that *borrow* them, and
//!    the lanes run;
//! 2. the store closes the mission's window: every shard's
//!    [`ruskey_lsm::TreeStatsSnapshot`] is deltaed against its own
//!    baseline and the deltas merge into [`MissionReport::window`];
//! 3. the tuners, sitting in one **seat list** with one seat per shard,
//!    act — the only place a [`tuner::Tuner`] runs. Seat 0 is the tuner
//!    the store was opened with and seat `i` its
//!    [`tuner::Tuner::for_shard`]`(i)`; each reads its shard's own slice
//!    of the report and its shard's tree structure, and its per-level
//!    policy changes land on that shard only, applied via the configured
//!    flexible transition (§4). With one shard this is the paper's loop.
//!
//! Accounting under parallelism is exact: every shard runs on its own
//! device, whose clock is the shard's **time domain** and whose metrics
//! count the shard's I/O alone, so per-level `lookup_ns`/`compact_ns`
//! never absorb a concurrent sibling's charges.
//! Domains compose at the store level as the mission's **wall time** (max
//! over shards, the window's `clock_ns`) and the **device-busy time** (sum
//! over shards, the window's `busy_ns`).
//!
//! Every way into a shard's tree — a mission lane, the group-commit
//! barrier, an ad-hoc `get`/`put`/`delete`/`scan`, a request served by
//! the [`frontend`] — runs the same three calls in the same order: one
//! executor over a borrowed [`ruskey_workload::Operation`], the boundary
//! grant the tree owns ([`ruskey_lsm::FlsmTree::maintain_boundary`]), and
//! the shard's commit leg. The doors differ only in how many operations
//! they bring, whether their end is a boundary, and whether they commit
//! (a served write takes the commit leg in two halves, around the fsync
//! it shares with the other clients); all of them run on the thread that
//! asked.
//!
//! There is **one store type and one opener**: [`RusKey::open`]`(cfg,
//! shards, tuner, backend)` over a [`Backend`] (volatile, or a persistent
//! store created fresh or recovered), and every failure is one
//! [`StoreError`]. The single-tree store the paper evaluates, and every
//! paper experiment drives, is that store opened with **one shard**: its
//! missions are one-lane missions on the caller's thread with one seat,
//! its plain calls are ad-hoc operations. What the integration suite pins
//! is that a one-shard store leaves exactly the statistics of the bare
//! [`ruskey_lsm::FlsmTree`] under it, and that an `N`-shard store returns
//! the same get/scan results for the same operation sequence. The
//! paper-experiment harness that loads such a store and runs it over a
//! mission schedule is not part of this crate: it lives in `ruskey-bench`.
//!
//! Two tuning models matter:
//!
//! * [`lerp::Lerp`] — the paper's level-based DDPG model with policy
//!   propagation (§5): it learns Level 1 (and Level 2 under the Monkey
//!   scheme), then extends the learned policy to all deeper levels
//!   analytically (Lemma 5.1);
//! * the baseline [`tuner::Tuner`]s — fixed policies (Aggressive/Moderate/
//!   Lazy), Dostoevsky's Lazy-Leveling and greedy threshold heuristics
//!   (Fig. 12).
//!
//! Lerp asks its learner only what the [`lerp::LevelLearner`] seam
//! offers, and DDPG is the one learner behind it. The two brute-force RL
//! baselines of the §7 impracticality study are schedules over that seam,
//! and live with the experiments in `ruskey-bench`: this crate exports
//! the tuners a store runs.
//!
//! ```
//! use std::sync::Arc;
//!
//! use ruskey::{Backend, Lerp, RusKey, RusKeyConfig};
//! use ruskey_storage::{CostModel, SimulatedDisk, Storage};
//!
//! // The paper's single-tree store…
//! let cfg = RusKeyConfig::scaled_default();
//! let lerp = Box::new(Lerp::new(cfg.lerp.clone()));
//! let disk = SimulatedDisk::new(4096, CostModel::NVME);
//! let mut db = RusKey::open(cfg, 1, lerp, Backend::Volatile(vec![disk]))?;
//! db.put(&b"k"[..], &b"v"[..]);
//! assert_eq!(db.get(b"k").as_deref(), Some(&b"v"[..]));
//!
//! // …and the same store hash-partitioned across four shards, each on its
//! // own disk.
//! let cfg = RusKeyConfig::scaled_default();
//! let lerp = Box::new(Lerp::new(cfg.lerp.clone()));
//! let disks = (0..4)
//!     .map(|_| SimulatedDisk::new(4096, CostModel::NVME) as Arc<dyn Storage>)
//!     .collect();
//! let mut db = RusKey::open(cfg, 4, lerp, Backend::Volatile(disks))?;
//! db.put(&b"k"[..], &b"v"[..]);
//! assert_eq!(db.get(b"k").as_deref(), Some(&b"v"[..]));
//! # Ok::<(), ruskey::StoreError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod db;
mod exec;
pub mod frontend;
pub mod lerp;
pub mod sharded;
pub mod state;
pub mod stats;
pub mod tuner;

pub use db::RusKeyConfig;
pub use frontend::{MetricsSnapshot, ServingClient, ServingConfig, ServingError, ServingFrontend};
pub use lerp::{Lerp, LerpConfig, LevelLearner};
#[allow(deprecated)]
pub use sharded::ShardedRusKey;
pub use sharded::{Backend, RusKey, StoreError};
pub use stats::MissionReport;
pub use tuner::{FixedPolicy, GreedyHeuristic, LazyLeveling, NoOpTuner, TreeObservation, Tuner};
