//! Observational equivalence of background maintenance: a store running
//! flushes and compactions off the hot path (deferred to mission
//! boundaries, one flush or one level merge per step, superseded runs
//! freed at the commit that removes them) must remain bit-identical to a
//! quiescent store that compacts inline — for gets and scans, at every
//! shard count, and in particular *while* structural debt is outstanding:
//! full levels wait for their merge, and a grant can end before it.
//!
//! The picker's unit tests (score ordering, L0 run-count trigger) live
//! next to it in `crates/lsm/src/picker.rs`; this file pins the
//! end-to-end read contract across the engine layers.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use ruskey_repro::lsm::{FlsmTree, LsmConfig};
use ruskey_repro::ruskey::db::RusKeyConfig;
use ruskey_repro::ruskey::sharded::{Backend, RusKey};
use ruskey_repro::ruskey::tuner::NoOpTuner;
use ruskey_repro::storage::{CostModel, SimulatedDisk, Storage};
use ruskey_repro::workload::encode_key;

/// Small buffers so a few hundred ops produce real flushes and merges.
fn cfg(background: bool) -> RusKeyConfig {
    let mut cfg = RusKeyConfig::scaled_default();
    cfg.lsm.buffer_bytes = 1024;
    cfg.lsm.size_ratio = 4;
    cfg.lsm.background_maintenance = background;
    cfg
}

fn disk() -> Arc<dyn Storage> {
    SimulatedDisk::new(256, CostModel::FREE)
}

/// One fresh disk per shard.
fn disks(shards: usize) -> Vec<Arc<dyn Storage>> {
    (0..shards).map(|_| disk()).collect()
}

/// An untuned store with one shard per device.
fn volatile(cfg: RusKeyConfig, devices: Vec<Arc<dyn Storage>>) -> RusKey {
    let shards = devices.len();
    RusKey::open(cfg, shards, Box::new(NoOpTuner), Backend::Volatile(devices)).expect("open")
}

fn key(k: u16) -> Bytes {
    Bytes::copy_from_slice(&(k as u64).to_be_bytes())
}

fn value(k: u16, v: u8) -> Bytes {
    let mut buf = vec![v; 32];
    buf[..2].copy_from_slice(&k.to_be_bytes());
    Bytes::from(buf)
}

/// An operation in the random-interleaving equivalence test.
#[derive(Debug, Clone)]
enum ModelOp {
    Put(u16, u8),
    Delete(u16),
    Get(u16),
    Scan(u16, u16),
}

fn model_op() -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        5 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| ModelOp::Put(k % 384, v)),
        1 => any::<u16>().prop_map(|k| ModelOp::Delete(k % 384)),
        3 => any::<u16>().prop_map(|k| ModelOp::Get(k % 384)),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(a, b)| ModelOp::Scan(a % 384, b % 384)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// For arbitrary put/delete/get/scan interleavings and `N ∈ {1, 2,
    /// 4}` shards, a background-maintenance `RusKey` — stepping
    /// its deferred work at mission boundaries every 24 ops, so reads
    /// routinely land on levels still waiting for their merge — returns
    /// exactly what the quiescent inline-compacting store and a
    /// `BTreeMap` model return.
    #[test]
    fn background_store_is_bit_identical_to_quiescent(
        ops in prop::collection::vec(model_op(), 1..300),
        shards_idx in 0usize..3,
    ) {
        let shards = [1usize, 2, 4][shards_idx];
        let mut bg = volatile(cfg(true), disks(shards));
        let mut quiet = volatile(cfg(false), disks(1));
        let mut model: BTreeMap<Bytes, Bytes> = BTreeMap::new();

        for (step, op) in ops.iter().enumerate() {
            match *op {
                ModelOp::Put(k, v) => {
                    model.insert(key(k), value(k, v));
                    bg.put(key(k), value(k, v));
                    quiet.put(key(k), value(k, v));
                }
                ModelOp::Delete(k) => {
                    model.remove(&key(k));
                    bg.delete(key(k));
                    quiet.delete(key(k));
                }
                ModelOp::Get(k) => {
                    let got = bg.get(&key(k));
                    prop_assert_eq!(&got, &quiet.get(&key(k)), "step {}: stores diverged", step);
                    prop_assert_eq!(got.as_ref(), model.get(&key(k)), "step {}: model diverged", step);
                }
                ModelOp::Scan(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let got = bg.scan(&key(lo), &key(hi), usize::MAX);
                    prop_assert_eq!(&got, &quiet.scan(&key(lo), &key(hi), usize::MAX),
                        "step {}: scans diverged", step);
                    let want: Vec<(Bytes, Bytes)> = model
                        .range(key(lo)..key(hi))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want, "step {}: scan model diverged", step);
                }
            }
            if (step + 1) % 24 == 0 {
                // The mission boundary: each shard worker runs its
                // bounded maintenance steps, possibly leaving merges due
                // for the next reads to land on.
                bg.run_mission(&[]);
            }
        }

        // Drain the structural debt, then sweep the full key space.
        for _ in 0..12 {
            bg.run_mission(&[]);
        }
        for k in 0u16..384 {
            prop_assert_eq!(bg.get(&key(k)).as_ref(), model.get(&key(k)), "final sweep at {}", k);
        }
        let full = bg.scan(&key(0), &key(384), usize::MAX);
        prop_assert_eq!(full.len(), model.len(), "final scan cardinality");
    }
}

/// Deterministic companion: a heavy overwrite stream at every shard
/// count, with bounded maintenance grants interleaved so background
/// merges provably run between reads (asserted via the `bg_compactions`
/// counter), and gets/scans compared against the quiescent store at every
/// boundary.
#[test]
fn in_flight_merges_are_read_equivalent_at_each_shard_count() {
    for &shards in &[1usize, 2, 4] {
        let mut bg = volatile(cfg(true), disks(shards));
        let mut quiet = volatile(cfg(false), disks(1));
        // 1201 distinct keys so every shard's resident set outgrows its
        // L0 capacity even at N = 4 — smaller spaces fit entirely in L0
        // and legitimately never compact.
        for i in 0u16..4800 {
            let k = (i.wrapping_mul(7)) % 1201;
            if i % 11 == 10 {
                bg.delete(key(k));
                quiet.delete(key(k));
            } else {
                bg.put(key(k), value(k, (i % 251) as u8));
                quiet.put(key(k), value(k, (i % 251) as u8));
            }
            if (i + 1) % 48 == 0 {
                bg.run_mission(&[]);
                for probe in 0..8u16 {
                    let p = (k + probe * 149) % 1201;
                    assert_eq!(
                        bg.get(&key(p)),
                        quiet.get(&key(p)),
                        "shards={shards} i={i}: get diverged at boundary"
                    );
                }
                assert_eq!(
                    bg.scan(&key(0), &key(1201), 64),
                    quiet.scan(&key(0), &key(1201), 64),
                    "shards={shards} i={i}: scan diverged at boundary"
                );
            }
        }
        let stats = bg.stats();
        assert!(
            stats.bg_compactions > 0,
            "shards={shards}: the stream must exercise background structural steps"
        );
        assert_eq!(stats.stall_ns, 0, "FREE cost model: stalls measure no time");
        for _ in 0..12 {
            bg.run_mission(&[]);
        }
        for k in 0u16..1201 {
            assert_eq!(
                bg.get(&key(k)),
                quiet.get(&key(k)),
                "shards={shards}: drained stores diverged at {k}"
            );
        }
    }
}

/// Regression for the ad-hoc backpressure bypass: an *ad-hoc* write
/// burst in background mode — no missions, no explicit maintenance —
/// is subject to the same backpressure as the mission path. L0 stays
/// bounded by [`FlsmTree::L0_STALL_RUNS`], boundary maintenance actually runs (on
/// the caller's thread, every 32nd write per shard), and the time writes
/// spent stalled (backstop flushes and
/// stall-loop drains) is recorded as `stall_ns`, never lost.
#[test]
fn adhoc_write_burst_in_background_mode_is_backpressured() {
    let mut cfg = RusKeyConfig::scaled_default();
    cfg.lsm.buffer_bytes = 1024;
    cfg.lsm.size_ratio = 4;
    cfg.lsm.background_maintenance = true;
    // A real cost model, unlike the FREE one above: stalled virtual time
    // must be measurable for the recording assertion to mean anything.
    let disk = || SimulatedDisk::new(256, CostModel::NVME) as Arc<dyn Storage>;
    let shards = 2;
    let mut db = volatile(cfg.clone(), (0..shards).map(|_| disk()).collect());
    // Values big enough that a shard's memtable passes the 2x-buffer
    // backstop *between* worker maintenance boundaries — the burst must
    // actually hit the write-path backpressure, not just the boundaries.
    let big_value = |k: u16, v: u8| {
        let mut buf = vec![v; 96];
        buf[..2].copy_from_slice(&k.to_be_bytes());
        Bytes::from(buf)
    };
    for i in 0u16..3000 {
        let k = i % 997;
        db.put(key(k), big_value(k, (i % 251) as u8));
    }
    for shard in 0..shards {
        assert!(
            db.shard(shard).level_run_count(0) <= FlsmTree::L0_STALL_RUNS,
            "shard {shard}: an ad-hoc burst must not grow L0 past the stall threshold"
        );
    }
    let stats = db.stats();
    assert!(
        stats.bg_compactions > 0,
        "boundary maintenance must run on the ad-hoc path"
    );
    assert!(
        stats.stall_ns > 0,
        "backpressured ad-hoc writes must record their stall time"
    );

    // A one-shard store's plain puts are the same ad-hoc path, every 32nd
    // one a boundary grant, under the same backpressure.
    let mut single = volatile(cfg, vec![disk()]);
    for i in 0u16..3000 {
        let k = i % 997;
        single.put(key(k), big_value(k, (i % 251) as u8));
    }
    assert!(
        single.shard(0).level_run_count(0) <= FlsmTree::L0_STALL_RUNS,
        "RusKey: an ad-hoc burst must not grow L0 past the stall threshold"
    );
    let stats = single.shard(0).stats();
    assert!(
        stats.bg_compactions > 0,
        "RusKey: boundary maintenance must run on the ad-hoc path"
    );
    assert!(
        stats.stall_ns > 0,
        "RusKey: backpressured ad-hoc writes must record their stall time"
    );
}

/// Per-op virtual latencies, sorted, of a write-heavy script (70 % puts,
/// 10 % deletes, 20 % gets, keys striding 1 500 slots) on one tree over
/// the simulated NVMe device, and the background steps it applied. With
/// `background` the structural work waits for a boundary grant every 32
/// ops, outside every timed op, as a mission lane's end would give it.
fn write_heavy_op_latencies(background: bool) -> (Vec<u64>, u64) {
    let cfg = LsmConfig {
        buffer_bytes: 8192,
        size_ratio: 4,
        initial_policy: 1,
        background_maintenance: background,
        ..LsmConfig::scaled_default()
    };
    let mut tree = FlsmTree::new(cfg, SimulatedDisk::new(4096, CostModel::NVME));
    let value = Bytes::from(vec![b'v'; 112]);
    let mut latencies = Vec::with_capacity(4000);
    for i in 0..4000u64 {
        let k = encode_key(i.wrapping_mul(7919) % 1500, 16);
        let t0 = tree.storage().clock().now_ns();
        match i % 10 {
            7 => tree.delete(k),
            8 | 9 => drop(tree.get(&k)),
            _ => tree.put(k, value.clone()),
        }
        latencies.push(tree.storage().clock().now_ns() - t0);
        if background && (i + 1) % 32 == 0 {
            tree.maintain_boundary();
        }
    }
    latencies.sort_unstable();
    (latencies, tree.stats().bg_compactions)
}

/// Moving flushes and merges off the op path must not worsen the op
/// tail: the background tree's per-op virtual p99 is at most the inline
/// tree's, whose puts pay every flush and cascade themselves.
#[test]
fn background_beats_inline_tail_latency() {
    let p99 = |sorted: &[u64]| sorted[(sorted.len() - 1) * 99 / 100];
    let (inline, _) = write_heavy_op_latencies(false);
    let (background, bg_compactions) = write_heavy_op_latencies(true);
    assert!(bg_compactions > 0, "background steps must run");
    assert!(
        p99(&background) <= p99(&inline),
        "deferred structural work must not worsen the op tail: {} vs {}",
        p99(&background),
        p99(&inline)
    );
}
