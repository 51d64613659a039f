//! Workload generation for the RusKey reproduction.
//!
//! The paper drives RusKey with synthetic key-value workloads: streams of
//! lookups and updates (plus range scans for YCSB (d)) whose composition
//! shifts over time, chopped into fixed-size *missions* between which the
//! tuner acts. This crate reproduces that driver:
//!
//! * [`dist`] — key popularity distributions: uniform, YCSB-style scrambled
//!   Zipfian, latest, and hotspot;
//! * [`ops`] — the operation vocabulary and per-workload operation mixes;
//! * [`generator`] — deterministic seeded operation streams and bulk-load
//!   key sets;
//! * [`mission`] — mission segmentation (paper default: 50 000 ops/mission,
//!   scaled down in the experiments here);
//! * [`dynamic`] — multi-session dynamic workloads (Fig. 7: read-heavy →
//!   balanced → write-heavy → write-inclined → read-inclined);
//! * [`ycsb`] — presets for the paper's mixes and the YCSB A/B/C standards;
//! * [`routing`] — stable hash routing of operations onto the shards of a
//!   sharded store (point ops to one shard, scans broadcast);
//! * [`closed_loop`] — deterministic per-client scripts over disjoint key
//!   ranges, driving the concurrent serving frontend at concurrency `K`
//!   while keeping every interleaving equivalent to a single-threaded
//!   replay.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod closed_loop;
pub mod dist;
pub mod dynamic;
pub mod generator;
pub mod mission;
pub mod ops;
pub mod routing;
pub mod ycsb;

pub use closed_loop::{client_key_range, client_scripts};
pub use dist::KeyDistribution;
pub use dynamic::{DynamicWorkload, Session};
pub use generator::{bulk_load_pairs, encode_key, OpGenerator, WorkloadSpec};
pub use mission::MissionStream;
pub use ops::{OpMix, Operation};
pub use routing::{partition_ops, shard_for_key};
