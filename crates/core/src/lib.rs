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
//! The engine core is **sharded**: [`sharded::ShardedRusKey`] hash-partitions
//! the key space onto `N` independent [FLSM-trees](ruskey_lsm::FlsmTree)
//! (each with its own memtable and levels) sharing one storage device.
//! Missions execute in parallel — one lane per shard on a `&mut` borrow of
//! its tree, lane 0 on the caller's thread and the rest on scoped threads,
//! operations routed by the stable key hash of
//! [`ruskey_workload::routing`]; cross-shard range scans are k-way merged.
//! The trees never leave the store and the store owns no thread. Tuning stays global and works exactly as in
//! the paper:
//!
//! 1. per-shard statistics merge into one store-wide
//!    [`ruskey_lsm::TreeStatsSnapshot`], from which the [`stats`] collector
//!    builds the mission's [`MissionReport`];
//! 2. a single tuner observes the aggregated report and tree structure;
//! 3. its per-level policy changes fan out to every shard, applied via the
//!    configured flexible transition (§4).
//!
//! Accounting under parallelism is exact: every shard runs on its own
//! **time domain** (a [`ruskey_storage::ShardStorage`] view with a private
//! clock and metrics over the shared device), so per-level
//! `lookup_ns`/`compact_ns` never absorb a concurrent sibling's charges.
//! Domains compose at the store level as the mission's **wall time** (max
//! over shards, [`stats::MissionReport::end_to_end_ns`]) and the
//! **device-busy time** (sum over shards,
//! [`stats::MissionReport::device_busy_ns`]).
//!
//! Every way into a shard's tree — a mission lane, the group-commit
//! barrier, an ad-hoc `get`/`put`/`delete`/`scan`, a request served by
//! the [`frontend`], and [`db::RusKey::run_mission`] — runs the same three
//! calls in the same order: one executor over
//! [`ruskey_workload::Operation`], the boundary grant the tree owns
//! ([`ruskey_lsm::FlsmTree::maintain_boundary`]), and the shard's commit
//! leg. The doors differ only in how many operations they bring, whether
//! their end is a boundary, and whether they commit (a served write takes
//! the commit leg in two halves, around the fsync it shares with the other
//! clients); all of them run on the thread that asked.
//!
//! [`db::RusKey`] is the single-tree engine — the `N = 1` case the paper
//! evaluates — and remains the harness used by all paper experiments. An
//! `N`-shard store is observationally equivalent to it for the same
//! operation sequence (same get/scan results; identical mission counters at
//! `N = 1`), which the integration suite asserts property-style.
//!
//! Two tuning models matter:
//!
//! * [`lerp::Lerp`] — the paper's level-based DDPG model with policy
//!   propagation (§5): it learns Level 1 (and Level 2 under the Monkey
//!   scheme), then extends the learned policy to all deeper levels
//!   analytically (Lemma 5.1);
//! * the baseline [`tuner::Tuner`]s — fixed policies (Aggressive/Moderate/
//!   Lazy), Dostoevsky's Lazy-Leveling, greedy threshold heuristics
//!   (Fig. 12), and brute-force RL variants (§7) for comparison.
//!
//! ```
//! use ruskey::db::{RusKey, RusKeyConfig};
//! use ruskey::sharded::ShardedRusKey;
//! use ruskey_storage::{CostModel, SimulatedDisk};
//!
//! // The paper's single-tree store…
//! let disk = SimulatedDisk::new(4096, CostModel::NVME);
//! let mut db = RusKey::with_lerp(RusKeyConfig::scaled_default(), disk);
//! db.put(&b"k"[..], &b"v"[..]);
//! assert_eq!(db.get(b"k").as_deref(), Some(&b"v"[..]));
//!
//! // …and the same engine hash-partitioned across four shards.
//! let disk = SimulatedDisk::new(4096, CostModel::NVME);
//! let mut db = ShardedRusKey::with_lerp(RusKeyConfig::scaled_default(), 4, disk);
//! db.put(&b"k"[..], &b"v"[..]);
//! assert_eq!(db.get(b"k").as_deref(), Some(&b"v"[..]));
//! ```

#![warn(missing_docs)]

pub mod db;
pub mod dqn_lerp;
mod exec;
pub mod frontend;
pub mod lerp;
pub mod runner;
pub mod sharded;
pub mod state;
pub mod stats;
pub mod tuner;

pub use db::{RusKey, RusKeyConfig};
pub use dqn_lerp::DqnLerp;
pub use frontend::{MetricsSnapshot, ServingClient, ServingConfig, ServingError, ServingFrontend};
pub use lerp::{Lerp, LerpConfig};
pub use sharded::{DurabilityConfig, OpenError, ShardedRusKey};
pub use stats::{LevelMissionStats, MissionReport, StatsCollector};
pub use tuner::{
    BruteForceLerp, FixedPolicy, GreedyHeuristic, LazyLeveling, NoOpTuner, PerLevelNoPropagation,
    TreeObservation, Tuner,
};
