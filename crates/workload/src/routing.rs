//! Shard-aware operation routing.
//!
//! A sharded store hash-partitions the key space across `N` independent
//! FLSM shards. Routing lives in the workload crate because it is a
//! property of the *operation stream*, not of any one engine: benchmarks
//! pre-partition missions with [`partition_ops`], and the engine routes
//! single operations with [`shard_for_key`] — both through a
//! [`RoutingTable`] once keys have been re-homed. Lanes borrow the mission's
//! operations; nothing is cloned on the way to a shard.
//!
//! The hash is FNV-1a over the key bytes — stable across runs, platforms,
//! and releases, so a store's partitioning never silently changes.

use crate::ops::Operation;
use bytes::Bytes;

/// Where one operation must execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Exactly one shard owns the key.
    Shard(usize),
    /// Every shard participates (range scans span the hash partition).
    Broadcast,
}

/// FNV-1a 64-bit hash of `key` — the stable shard-routing hash.
pub fn route_hash(key: &[u8]) -> u64 {
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

/// Routes one operation: point operations go to the owning shard, range
/// scans broadcast to all shards.
pub fn route_op(op: &Operation, shards: usize) -> Route {
    match op {
        Operation::Get { key } | Operation::Put { key, .. } | Operation::Delete { key } => {
            Route::Shard(shard_for_key(key, shards))
        }
        Operation::Scan { .. } => Route::Broadcast,
    }
}

/// Partitions a mission by the key hash alone: [`RoutingTable::partition_ops`]
/// under an empty table, what a store without re-homed keys runs.
pub fn partition_ops(ops: &[Operation], shards: usize) -> Vec<Vec<&Operation>> {
    RoutingTable::new().partition_ops(ops, shards)
}

/// A per-key routing override table: the hot-shard balancer's output.
///
/// Keys absent from the table route by [`shard_for_key`] as always; a
/// present key has been *re-homed* to the recorded shard. The table is the
/// single source of routing truth for a balanced store — every point-op
/// path (mission partitioning, ad-hoc reads/writes, the serving frontend)
/// must consult it, or a re-homed key would be read where it no longer
/// lives. Scans are unaffected: they broadcast to every shard regardless
/// of where any individual key resides.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    overrides: std::collections::HashMap<Bytes, usize>,
}

impl RoutingTable {
    /// An empty table: pure hash routing.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shard owning `key` under this table.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn shard_for(&self, key: &[u8], shards: usize) -> usize {
        assert!(shards > 0, "a store needs at least one shard");
        match self.overrides.get(key) {
            // An override that points beyond the current shard count
            // (table written by a larger store) falls back to hashing.
            Some(&s) if s < shards => s,
            _ => shard_for_key(key, shards),
        }
    }

    /// Re-homes `key` to `shard`. Idempotent; later calls win.
    pub fn set(&mut self, key: Bytes, shard: usize) {
        self.overrides.insert(key, shard);
    }

    /// Drops the override for `key`, restoring hash routing.
    pub fn remove(&mut self, key: &[u8]) {
        self.overrides.remove(key);
    }

    /// Number of re-homed keys.
    pub fn len(&self) -> usize {
        self.overrides.len()
    }

    /// True when no key is re-homed (pure hash routing).
    pub fn is_empty(&self) -> bool {
        self.overrides.is_empty()
    }

    /// Iterates the overrides as `(key, shard)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&Bytes, usize)> {
        self.overrides.iter().map(|(k, &s)| (k, s))
    }

    /// Partitions a mission into per-shard lanes that borrow the caller's
    /// operations, preserving each shard's relative operation order: a
    /// point operation lands on the one shard owning its key under this
    /// table, a scan is appended to every lane at its position.
    pub fn partition_ops<'a>(
        &self,
        ops: &'a [Operation],
        shards: usize,
    ) -> Vec<Vec<&'a Operation>> {
        assert!(shards > 0, "a store needs at least one shard");
        // Vec::clone drops capacity, so build each lane's allocation directly.
        let mut out: Vec<Vec<&Operation>> = (0..shards)
            .map(|_| Vec::with_capacity(ops.len() / shards + 1))
            .collect();
        for op in ops {
            match op {
                Operation::Get { key } | Operation::Put { key, .. } | Operation::Delete { key } => {
                    out[self.shard_for(key, shards)].push(op);
                }
                Operation::Scan { .. } => out.iter_mut().for_each(|lane| lane.push(op)),
            }
        }
        out
    }
}

/// Tuning knobs for hot-shard detection and mitigation.
#[derive(Debug, Clone, PartialEq)]
pub struct BalanceConfig {
    /// Re-home keys only when [`LoadSketch::imbalance`] (max shard ops /
    /// mean shard ops) exceeds this. 1.0 is perfect balance; the default
    /// tolerates modest skew before paying migration cost.
    pub imbalance_threshold: f64,
    /// Minimum decayed operations observed before acting — avoids
    /// reacting to noise on a near-idle store.
    pub min_ops: u64,
    /// Maximum keys migrated per balancing pass.
    pub max_moves: usize,
    /// Heavy-hitter sketch capacity (distinct candidate keys tracked).
    pub capacity: usize,
    /// Multiplicative decay applied to all counters after each pass, so
    /// the sketch tracks *recent* load and a formerly-viral key ages out.
    pub decay: f64,
}

impl Default for BalanceConfig {
    fn default() -> Self {
        Self {
            imbalance_threshold: 1.5,
            min_ops: 256,
            max_moves: 4,
            capacity: 32,
            decay: 0.5,
        }
    }
}

/// A cheap load sketch for hot-shard detection: decayed per-shard op
/// counters plus a Misra–Gries heavy-hitter summary over point-op keys.
///
/// Misra–Gries with capacity `k` guarantees any key with frequency above
/// `n/(k+1)` is present in the summary — exactly the "one viral key"
/// regime the balancer targets. Counts are approximate (undercounted by
/// at most `n/(k+1)`), which is fine: the balancer only needs the *top*
/// keys on the hottest shard, not exact frequencies.
#[derive(Debug, Clone)]
pub struct LoadSketch {
    shard_ops: Vec<f64>,
    counters: std::collections::HashMap<Bytes, f64>,
    capacity: usize,
}

impl LoadSketch {
    /// Creates a sketch over `shards` shards tracking at most `capacity`
    /// candidate heavy keys.
    pub fn new(shards: usize, capacity: usize) -> Self {
        Self {
            shard_ops: vec![0.0; shards],
            counters: std::collections::HashMap::with_capacity(capacity + 1),
            capacity: capacity.max(1),
        }
    }

    /// Records one point operation on `key`, executed by `shard`.
    pub fn record(&mut self, key: &[u8], shard: usize) {
        self.record_bulk(shard, 1);
        if let Some(c) = self.counters.get_mut(key) {
            *c += 1.0;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(Bytes::copy_from_slice(key), 1.0);
            return;
        }
        // Misra–Gries decrement step: no slot free, all counters pay.
        self.counters.retain(|_, c| {
            *c -= 1.0;
            *c > 0.0
        });
    }

    /// Records `n` shard-executed operations that carry no single key
    /// (e.g. a broadcast scan leg) — they weigh the shard's load counter
    /// but nominate no heavy-hitter candidate.
    pub fn record_bulk(&mut self, shard: usize, n: u64) {
        if let Some(c) = self.shard_ops.get_mut(shard) {
            *c += n as f64;
        }
    }

    /// Decayed per-shard operation counters.
    pub fn shard_ops(&self) -> &[f64] {
        &self.shard_ops
    }

    /// Total decayed operations observed.
    pub fn total_ops(&self) -> f64 {
        self.shard_ops.iter().sum()
    }

    /// Load imbalance: max shard counter over the mean. 1.0 means
    /// balanced; 0.0 means no load observed yet (less than one whole
    /// recent observation — decayed residue is noise, not skew).
    pub fn imbalance(&self) -> f64 {
        let total: f64 = self.shard_ops.iter().sum();
        if self.shard_ops.is_empty() || total < 1.0 {
            return 0.0;
        }
        let max = self.shard_ops.iter().cloned().fold(0.0f64, f64::max);
        max / (total / self.shard_ops.len() as f64)
    }

    /// The shard with the highest decayed load.
    pub fn hottest_shard(&self) -> usize {
        self.shard_ops
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// The shard with the lowest decayed load.
    pub fn coldest_shard(&self) -> usize {
        self.shard_ops
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Current heavy-hitter candidates, hottest first.
    pub fn heavy_hitters(&self) -> Vec<(Bytes, f64)> {
        let mut hh: Vec<(Bytes, f64)> =
            self.counters.iter().map(|(k, &c)| (k.clone(), c)).collect();
        hh.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        hh
    }

    /// Applies multiplicative decay to every counter, dropping candidates
    /// that fade below one observation.
    pub fn decay(&mut self, factor: f64) {
        let f = factor.clamp(0.0, 1.0);
        for c in &mut self.shard_ops {
            *c *= f;
        }
        self.counters.retain(|_, c| {
            *c *= f;
            *c >= 1.0
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{encode_key, OpGenerator, WorkloadSpec};
    use crate::ops::OpMix;
    use bytes::Bytes;

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
    fn point_ops_route_scans_broadcast() {
        let k = Bytes::from_static(b"somekey~");
        let shard = shard_for_key(&k, 8);
        assert_eq!(
            route_op(&Operation::Get { key: k.clone() }, 8),
            Route::Shard(shard)
        );
        assert_eq!(
            route_op(
                &Operation::Put {
                    key: k.clone(),
                    value: k.clone()
                },
                8
            ),
            Route::Shard(shard)
        );
        assert_eq!(
            route_op(&Operation::Delete { key: k.clone() }, 8),
            Route::Shard(shard)
        );
        assert_eq!(
            route_op(
                &Operation::Scan {
                    start: k.clone(),
                    end: k,
                    limit: 5
                },
                8
            ),
            Route::Broadcast
        );
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
    fn routing_table_overrides_point_ops_only() {
        let mut table = RoutingTable::new();
        let k = Bytes::from_static(b"viral-key-000000");
        let home = shard_for_key(&k, 4);
        assert_eq!(table.shard_for(&k, 4), home, "empty table = hash routing");
        assert!(table.is_empty());
        let target = (home + 1) % 4;
        table.set(k.clone(), target);
        assert_eq!(table.shard_for(&k, 4), target);
        assert_eq!(table.len(), 1);
        // Other keys are untouched.
        let other = Bytes::from_static(b"other-key-000000");
        assert_eq!(table.shard_for(&other, 4), shard_for_key(&other, 4));
        // Partitioning follows the override; scans still broadcast.
        let ops = vec![
            Operation::Get { key: k.clone() },
            Operation::Scan {
                start: Bytes::from_static(b"a"),
                end: Bytes::from_static(b"z"),
                limit: 10,
            },
        ];
        let lanes = table.partition_ops(&ops, 4);
        assert_eq!(lanes[target].len(), 2, "get routed to override + scan");
        assert_eq!(lanes[home].len(), 1, "home shard sees only the scan");
        // Removal restores hash routing.
        table.remove(&k);
        assert_eq!(table.shard_for(&k, 4), home);
        assert!(table.is_empty());
    }

    #[test]
    fn routing_table_ignores_out_of_range_overrides() {
        let mut table = RoutingTable::new();
        let k = Bytes::from_static(b"some-key");
        table.set(k.clone(), 7);
        assert_eq!(
            table.shard_for(&k, 2),
            shard_for_key(&k, 2),
            "override beyond shard count falls back to hashing"
        );
    }

    #[test]
    fn routing_table_partition_matches_plain_partition_when_empty() {
        let spec = WorkloadSpec::scaled_default(300).with_mix(OpMix {
            lookup: 0.4,
            update: 0.4,
            delete: 0.1,
            scan: 0.1,
        });
        let ops = OpGenerator::new(spec, 23).take_ops(500);
        let table = RoutingTable::new();
        for shards in [1usize, 3, 4] {
            // The plain partition runs through an empty table too, so the
            // oracle is the per-operation router, one operation at a time.
            let mut routed: Vec<Vec<&Operation>> = vec![Vec::new(); shards];
            for op in &ops {
                match route_op(op, shards) {
                    Route::Shard(s) => routed[s].push(op),
                    Route::Broadcast => routed.iter_mut().for_each(|lane| lane.push(op)),
                }
            }
            assert_eq!(table.partition_ops(&ops, shards), routed);
            assert_eq!(partition_ops(&ops, shards), routed);
        }
    }

    #[test]
    fn load_sketch_finds_the_viral_key() {
        let mut sketch = LoadSketch::new(4, 8);
        let viral = Bytes::from_static(b"viral-key");
        // One viral key at ~50% of traffic, the rest spread over many
        // distinct keys (far more than the sketch capacity).
        for i in 0..1000u64 {
            if i % 2 == 0 {
                sketch.record(&viral, 3);
            } else {
                sketch.record(&encode_key(i, 16), (i % 3) as usize);
            }
        }
        let hh = sketch.heavy_hitters();
        assert_eq!(hh[0].0, viral, "viral key must surface: {hh:?}");
        assert_eq!(sketch.hottest_shard(), 3);
        assert!(sketch.imbalance() > 1.5, "imbalance {}", sketch.imbalance());
        assert!(sketch.total_ops() > 999.0);
    }

    #[test]
    fn load_sketch_decay_ages_out_history() {
        let mut sketch = LoadSketch::new(2, 4);
        let old = Bytes::from_static(b"formerly-viral");
        for _ in 0..100 {
            sketch.record(&old, 0);
        }
        assert_eq!(sketch.heavy_hitters()[0].0, old);
        sketch.decay(0.001);
        assert!(
            sketch.heavy_hitters().is_empty(),
            "decayed candidates below one observation are dropped"
        );
        assert!(sketch.total_ops() < 1.0);
        assert_eq!(sketch.imbalance(), 0.0, "no recent load = no imbalance");
        // Fresh load on the other shard now dominates.
        sketch.record_bulk(1, 50);
        assert_eq!(sketch.hottest_shard(), 1);
        assert_eq!(sketch.coldest_shard(), 0);
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
