//! Shard-aware operation routing.
//!
//! A sharded store hash-partitions the key space across `N` independent
//! FLSM shards. Routing lives in the workload crate because it is a
//! property of the *operation stream*, not of any one engine: benchmarks
//! pre-partition missions with [`partition_ops`], and the engine routes
//! single operations with [`shard_for_key`]. A key's shard is its hash,
//! full stop: every path (missions, ad-hoc operations, bulk load, the
//! serving frontend) asks [`shard_for_key`], and a range scan goes to
//! every shard. Lanes borrow the mission's operations; nothing is cloned
//! on the way to a shard.
//!
//! The hash is FNV-1a over the key bytes — stable across runs, platforms,
//! and releases, so a store's partitioning never silently changes.

use crate::ops::Operation;

/// FNV-1a 64-bit hash of `key` — the stable shard-routing hash.
pub(crate) fn route_hash(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The shard (in `[0, shards)`) owning `key`.
///
/// # Panics
/// Panics if `shards` is zero.
pub fn shard_for_key(key: &[u8], shards: usize) -> usize {
    assert!(shards > 0, "a store needs at least one shard");
    (route_hash(key) % shards as u64) as usize
}

/// Partitions a mission into per-shard lanes that borrow the caller's
/// operations, preserving each shard's relative operation order: a point
/// operation lands on the one shard owning its key, a scan is appended to
/// every lane at its position.
///
/// # Panics
/// Panics if `shards` is zero.
pub fn partition_ops(ops: &[Operation], shards: usize) -> Vec<Vec<&Operation>> {
    assert!(shards > 0, "a store needs at least one shard");
    // Vec::clone drops capacity, so build each lane's allocation directly.
    let mut out: Vec<Vec<&Operation>> = (0..shards)
        .map(|_| Vec::with_capacity(ops.len() / shards + 1))
        .collect();
    for op in ops {
        match op {
            Operation::Get { key } | Operation::Put { key, .. } | Operation::Delete { key } => {
                out[shard_for_key(key, shards)].push(op);
            }
            Operation::Scan { .. } => out.iter_mut().for_each(|lane| lane.push(op)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{encode_key, OpGenerator, WorkloadSpec};
    use crate::ops::OpMix;

    #[test]
    fn routing_is_stable_across_runs_and_releases() {
        // Pinned values: changing the hash would silently repartition
        // every existing store, so the mapping is part of the contract.
        assert_eq!(route_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(route_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            shard_for_key(&encode_key(0, 16), 4),
            shard_for_key(&encode_key(0, 16), 4)
        );
        let expected: Vec<usize> = (0..8u64)
            .map(|id| shard_for_key(&encode_key(id, 16), 4))
            .collect();
        let again: Vec<usize> = (0..8u64)
            .map(|id| shard_for_key(&encode_key(id, 16), 4))
            .collect();
        assert_eq!(expected, again);
    }

    #[test]
    fn single_shard_takes_everything() {
        for id in 0..100u64 {
            assert_eq!(shard_for_key(&encode_key(id, 16), 1), 0);
        }
    }

    #[test]
    fn partition_preserves_order_and_covers_all_ops() {
        let spec = WorkloadSpec::scaled_default(500).with_mix(OpMix {
            lookup: 0.4,
            update: 0.4,
            delete: 0.1,
            scan: 0.1,
        });
        let ops = OpGenerator::new(spec, 17).take_ops(1000);
        let lanes = partition_ops(&ops, 4);
        let scans = ops
            .iter()
            .filter(|o| matches!(o, Operation::Scan { .. }))
            .count();
        let points = ops.len() - scans;
        let total: usize = lanes.iter().map(Vec::len).sum();
        assert_eq!(
            total,
            points + 4 * scans,
            "every op routed, scans to all lanes"
        );
        // Relative order within a lane follows the mission order.
        for lane in &lanes {
            let mut positions = lane
                .iter()
                .map(|op| ops.iter().position(|o| std::ptr::eq(o, *op)).unwrap());
            let mut prev = None;
            for p in &mut positions {
                if let Some(q) = prev {
                    assert!(p > q, "lane order diverged from mission order");
                }
                prev = Some(p);
            }
        }
    }

    #[test]
    fn partition_ops_matches_per_key_routing() {
        let spec = WorkloadSpec::scaled_default(300).with_mix(OpMix {
            lookup: 0.4,
            update: 0.4,
            delete: 0.1,
            scan: 0.1,
        });
        let ops = OpGenerator::new(spec, 23).take_ops(500);
        for shards in [1usize, 3, 4] {
            // The oracle routes one operation at a time: a point op to
            // its key's hash shard, a scan to every lane.
            let mut routed: Vec<Vec<&Operation>> = vec![Vec::new(); shards];
            for op in &ops {
                match op {
                    Operation::Get { key }
                    | Operation::Put { key, .. }
                    | Operation::Delete { key } => routed[shard_for_key(key, shards)].push(op),
                    Operation::Scan { .. } => routed.iter_mut().for_each(|lane| lane.push(op)),
                }
            }
            assert_eq!(partition_ops(&ops, shards), routed, "{shards} shards");
        }
    }

    #[test]
    fn hash_partitioning_is_roughly_balanced() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for id in 0..80_000u64 {
            counts[shard_for_key(&encode_key(id, 16), shards)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*max < min * 12 / 10, "shard skew beyond 20%: {counts:?}");
    }
}
