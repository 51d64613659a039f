//! The FLSM-tree engine of the RusKey reproduction.
//!
//! This crate implements the paper's §4 contribution plus the classic
//! LSM-tree substrate it extends:
//!
//! * a write-buffer [`memtable`], sorted disk-resident [`run`]s with
//!   [`bloom`] filters and [`fence`] pointers, and k-way merging
//!   [`compaction`] — with **one page cursor and one merge kernel** under
//!   everything that walks a run: a flush, a merge-down, a
//!   policy-transition merge, a scan, a point probe and recovery all read
//!   a page as the shared handle the device or cache already holds
//!   ([`ruskey_storage::Storage::try_read_shared`]) and walk its entries
//!   in place ([`entry::EntryCursor`], [`run::RunCursor`]); every merge is
//!   [`compaction::Merge`] over cursors, comparing keys where they lie;
//!   every run is written by [`run::RunBuilder`], in batches of 256
//!   pages appended as they fill
//!   ([`ruskey_storage::Storage::append_pages`]). Bytes are copied
//!   when an entry enters a new run and when a caller is handed a value;
//!   nothing the engine retains (fence keys, run and level bounds,
//!   manifest records) shares an allocation with a page;
//! * per-level compaction policies `K_i` (max number of sorted runs in
//!   level *i*, `K_i ∈ [1, T]`; `K_i = 1` is leveling, `K_i = T` is tiering),
//!   following Dostoevsky's hybrid-policy formulation;
//! * the **FLSM-tree** ([`tree::FlsmTree`]): a flexible LSM-tree that allows
//!   *different-sized runs in one level*, so a policy change only affects the
//!   capacity of the level's *active run* — the flexible transition of §4.2;
//! * the two baseline transition strategies of §4.1 (**greedy**: flush the
//!   level immediately; **lazy**: defer the new policy until the level next
//!   empties), selectable per tree via [`transition::TransitionStrategy`];
//! * Bloom-filter memory schemes: uniform bits-per-key and the **Monkey**
//!   allocation (`f_i = T^{i-1}·f_1`) used in §5.2 Case 2 ([`monkey`]);
//! * exact per-level statistics ([`stats`]) feeding the RL reward
//!   (`t_i`, the level-based latency) and the experiment harness;
//! * a write-ahead log ([`wal`]) that an [`tree::FlsmTree`] optionally
//!   owns: puts/deletes are logged before the memtable insert and the log
//!   is recycled in place on flush (see the [`wal`] module docs for the
//!   durability contract and crash-injection hooks);
//! * a versioned, checksummed [`manifest`] that commits a snapshot of the
//!   tree's structure (policies, runs, the flushed watermark) after every
//!   structural step into two alternating slot files, so
//!   [`tree::FlsmTree::recover_persistent`] can rebuild the *full*
//!   run/level structure from the manifest plus the data pages on a
//!   persistent storage backend, then rebuild the write buffer from the
//!   WAL's valid prefix on top — the manifest and the WAL recover as one
//!   unit;
//! * **background maintenance**: with
//!   [`config::LsmConfig::background_maintenance`] enabled a score-based
//!   [`picker`] moves flushes and compactions off the write path into
//!   explicit [`tree::FlsmTree::step_maintenance`] steps; every read
//!   borrows the tree, so a superseded run's extent is freed where the
//!   manifest commit that removed it lands.
//!
//! All I/O goes through the [`ruskey_storage::Storage`] abstraction so the
//! engine runs identically on the simulated device and on real files.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bloom;
pub mod compaction;
pub mod config;
pub mod entry;
pub mod fence;
mod iter;
pub mod level;
pub mod manifest;
pub mod memtable;
pub mod monkey;
pub mod picker;
mod record_log;
pub mod run;
pub mod stats;
pub mod transition;
pub mod tree;
pub mod types;
pub mod wal;

pub use config::{BloomScheme, ConfigError, LsmConfig};
pub use iter::RangeScan;
pub use manifest::{Manifest, ManifestError, ManifestState, RunRecord};
pub use picker::SCORE_SCALE;
pub use stats::{LevelStatsSnapshot, TreeStatsSnapshot};
pub use transition::TransitionStrategy;
pub use tree::FlsmTree;
pub use types::{Key, KvEntry, OpKind, SeqNo, Value};
pub use wal::{SyncTicket, Wal};

#[cfg(test)]
mod oracle;
