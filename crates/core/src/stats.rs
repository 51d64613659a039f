//! The statistics collector (paper §3.1).
//!
//! RusKey "maintains a statistics collector that keeps track of necessary
//! statistics of RusKey and application workload over time. Besides overall
//! statistics of the FLSM-tree, it tracks statistics separately for each
//! FLSM-tree level to support the level-based training scheme in Lerp. It
//! also collects the operation composition in each mission for detecting
//! changes in the application workload."

use ruskey_lsm::TreeStatsSnapshot;

/// Per-level statistics of one mission.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LevelMissionStats {
    /// Level-based latency `t_i` during the mission (virtual ns).
    pub latency_ns: u64,
    /// Lookup time within `t_i`.
    pub lookup_ns: u64,
    /// Compaction time within `t_i`.
    pub compact_ns: u64,
    /// Pages read in the level (lookups + compactions).
    pub pages_read: u64,
    /// Pages written in the level (compactions).
    pub pages_written: u64,
    /// Run probes in the level.
    pub probes: u64,
    /// Bloom false positives in the level.
    pub false_positives: u64,
    /// Keys processed by compactions attributed to the level.
    pub compact_keys: u64,
}

/// Everything RusKey knows about one processed mission.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MissionReport {
    /// Mission ordinal (0-based).
    pub mission_idx: u64,
    /// Operations in the mission.
    pub ops: u64,
    /// Lookups (gets) in the mission.
    pub lookups: u64,
    /// Updates (puts + deletes) in the mission.
    pub updates: u64,
    /// Range scans in the mission.
    pub scans: u64,
    /// End-to-end latency `t'` of the mission (virtual ns). Under
    /// sharding this is the mission's **wall** time: the max over the
    /// participating shards' time-domain deltas.
    pub end_to_end_ns: u64,
    /// Total virtual work of the mission (ns): the **sum** over the
    /// shards' time-domain deltas (device-busy composition). Equals
    /// `end_to_end_ns` for a single-shard store.
    pub device_busy_ns: u64,
    /// Per-level statistics (index 0 = the paper's Level 1).
    pub levels: Vec<LevelMissionStats>,
    /// WAL records appended during the mission (0 for a non-durable
    /// store): the write-path durability traffic.
    pub wal_appends: u64,
    /// WAL fsyncs issued during the mission. Under cross-shard group
    /// commit this is at most one per participating shard per mission —
    /// the invariant the crash-recovery harness asserts.
    pub wal_syncs: u64,
    /// WAL records acknowledged durable during the mission (covered by a
    /// fsync, or superseded by a memtable flush). With group commit every
    /// logged record is acknowledged by its mission's commit barrier at
    /// the latest, so this equals the mission's update count for a
    /// durable store.
    pub wal_synced: u64,
    /// Barrier latency of the mission's group commit (virtual ns): the
    /// **max** over the shards' commit legs. The legs run concurrently,
    /// each inside its shard's lane, so the batch waits only for the
    /// slowest shard's fsync.
    pub commit_ns: u64,
    /// Total sync work of the group commit (virtual ns): the **sum** over
    /// the shards' commit legs — what a sequential barrier would have
    /// cost, and the share of `device_busy_ns` durability is responsible
    /// for. Equals `commit_ns` for a single-shard store; the
    /// `tests/pool_stress.rs` proptest pins `commit_ns <= commit_busy_ns` for any op mix.
    pub commit_busy_ns: u64,
    /// Lifetime structural edits through the shards' manifests (replayed
    /// at recovery plus committed since; summed over shards). Unlike the
    /// counters above this is **not** a per-mission delta: recovery
    /// counters describe the store, so the report carries the current
    /// lifetime reading. 0 for a non-persistent store.
    pub manifest_edits: u64,
    /// Runs rebuilt from manifest + data pages by the last recovery
    /// (lifetime, summed over shards).
    pub runs_recovered: u64,
    /// WAL records replayed on top of the recovered structure by the
    /// last recovery (lifetime, summed over shards).
    pub replayed_tail: u64,
    /// Extent files orphaned by a pre-commit power cut and removed by the
    /// last recovery's orphan sweep (lifetime, summed over shards).
    pub orphans_collected: u64,
    /// Block-cache hits during the mission (summed over shards; 0 when
    /// the serving path has no cache, e.g. the simulated backend).
    pub cache_hits: u64,
    /// Block-cache misses during the mission (reads that reached the
    /// device; summed over shards).
    pub cache_misses: u64,
    /// Block-cache evictions during the mission (summed over shards).
    pub cache_evictions: u64,
    /// Virtual ns the mission's writes spent blocked on structural work
    /// (inline flushes/cascades, background-mode backpressure stalls;
    /// summed over shards).
    pub stall_ns: u64,
    /// Real wall-clock ns writes spent waiting for a serving frontend's
    /// per-shard lock before a shard executed them (summed over shards;
    /// 0 outside serving).
    pub queue_stall_ns: u64,
    /// Background maintenance steps (applied merges and trivial moves)
    /// completed during the mission (summed over shards; 0 for an
    /// inline-compaction store).
    pub bg_compactions: u64,
    /// Bytes sitting in levels that score at or above the compaction
    /// threshold at mission end — a gauge of outstanding structural
    /// debt, summed over shards, not a per-mission delta.
    pub pending_compaction_bytes: u64,
    /// Real wall-clock time spent processing the mission (ns) — used by the
    /// Fig. 13 model-cost comparison.
    pub real_process_ns: u64,
    /// Real wall-clock time the tuner spent updating its model (ns).
    pub model_update_ns: u64,
    /// Policies in force *after* the tuner acted. For a sharded store
    /// this is the per-level **modal** policy across shards; the
    /// per-shard truth is `shard_policies_after`.
    pub policies_after: Vec<u32>,
    /// *Physical* operations executed per shard during the mission, in
    /// shard order (a broadcast scan counts once on every shard it
    /// touched) — one entry for a one-shard store.
    pub shard_ops: Vec<u64>,
    /// Per-shard policies in force after the tuner acted, in shard
    /// order — exact even when per-shard tuners have diverged (the
    /// merged `policies_after` cannot represent divergence).
    pub shard_policies_after: Vec<Vec<u32>>,
}

impl MissionReport {
    /// Lookup fraction `γ` of the mission (scans count as lookups).
    pub fn gamma(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        (self.lookups + self.scans) as f64 / self.ops as f64
    }

    /// Mean end-to-end (wall) latency per operation (virtual ns).
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.end_to_end_ns as f64 / self.ops as f64
    }

    /// Mean device-busy time per operation (virtual ns): total virtual
    /// work across all shard domains divided by the logical op count.
    pub fn busy_ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.device_busy_ns as f64 / self.ops as f64
    }

    /// Mean group-commit batch size: WAL records appended per fsync
    /// during the mission (0 when no sync was issued). Group commit's
    /// whole point is making this large — one fsync amortized over the
    /// batch.
    pub fn wal_batch_size(&self) -> f64 {
        if self.wal_syncs == 0 {
            return 0.0;
        }
        self.wal_appends as f64 / self.wal_syncs as f64
    }

    /// Mean level latency per operation for level `idx` (virtual ns).
    pub fn level_ns_per_op(&self, idx: usize) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.levels.get(idx).map_or(0.0, |l| l.latency_ns as f64) / self.ops as f64
    }

    /// Hot-shard imbalance of the mission: max over `shard_ops` divided
    /// by the mean. 1.0 means perfectly balanced; `n` means a single
    /// shard absorbed all traffic. 0.0 when `shard_ops` is empty (a
    /// default-built report) or no shard did any work.
    pub fn shard_imbalance(&self) -> f64 {
        let total: u64 = self.shard_ops.iter().sum();
        if self.shard_ops.is_empty() || total == 0 {
            return 0.0;
        }
        let max = *self.shard_ops.iter().max().unwrap() as f64;
        let mean = total as f64 / self.shard_ops.len() as f64;
        max / mean
    }
}

/// Builds [`MissionReport`]s from tree-statistics snapshots.
///
/// The collector keeps one baseline snapshot *per shard time domain*
/// (a one-shard store is the one-domain case). Each mission, every
/// shard's snapshot is deltaed against its own baseline and the deltas
/// are merged — wall time as the max over domains, device-busy time as
/// the sum — which is exact under parallel shard execution. Deltaing a
/// pre-merged snapshot would not be: the delta of per-shard maxima is
/// not the maximum of per-shard deltas.
#[derive(Debug, Default)]
pub struct StatsCollector {
    missions: u64,
    last_snapshots: Vec<TreeStatsSnapshot>,
}

impl StatsCollector {
    /// Creates a collector; call [`StatsCollector::baseline_shards`] once
    /// before the first mission.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of missions reported so far.
    pub fn missions(&self) -> u64 {
        self.missions
    }

    /// Records the store's baselines (e.g. after bulk load, so the first
    /// mission's delta excludes setup work): one snapshot per shard time
    /// domain, in shard order.
    pub fn baseline_shards(&mut self, snapshots: Vec<TreeStatsSnapshot>) {
        self.last_snapshots = snapshots;
    }

    /// Builds the report for the mission that just finished from every
    /// shard's end snapshot (in the same shard order as the baseline).
    /// Each domain is deltaed against its own baseline; the deltas merge
    /// into wall (max) and device-busy (sum) mission times.
    ///
    /// Also returns one *slice* report per shard, each built from that
    /// shard's own domain delta only: the reward signal of the shard's
    /// tuner seat. A slice's `ops`/`scans` are the shard's **physical**
    /// counts (a broadcast scan appears on every shard it ran on — that is
    /// the work the shard's tuner must price). The merged report and all
    /// slices carry the same `mission_idx`; the mission counter advances
    /// once.
    pub fn report_mission_shards_split(
        &mut self,
        end_snapshots: Vec<TreeStatsSnapshot>,
        real_process_ns: u64,
    ) -> (MissionReport, Vec<MissionReport>) {
        let zero = TreeStatsSnapshot::default();
        let deltas: Vec<TreeStatsSnapshot> = end_snapshots
            .iter()
            .enumerate()
            .map(|(i, s)| s.delta(self.last_snapshots.get(i).unwrap_or(&zero)))
            .collect();
        let merged = Self::build_report(&deltas, &end_snapshots, self.missions, real_process_ns);
        let slices = (0..deltas.len())
            .map(|i| {
                Self::build_report(
                    std::slice::from_ref(&deltas[i]),
                    std::slice::from_ref(&end_snapshots[i]),
                    self.missions,
                    real_process_ns,
                )
            })
            .collect();
        self.missions += 1;
        self.last_snapshots = end_snapshots;
        (merged, slices)
    }

    /// Builds one report from a set of domain deltas (merged wall = max,
    /// busy = sum) and the matching end snapshots (source of the
    /// lifetime counters and gauges).
    fn build_report(
        deltas: &[TreeStatsSnapshot],
        end_snapshots: &[TreeStatsSnapshot],
        mission_idx: u64,
        real_process_ns: u64,
    ) -> MissionReport {
        let d = TreeStatsSnapshot::merge_all(deltas);
        let levels = d
            .levels
            .iter()
            .map(|l| LevelMissionStats {
                latency_ns: l.total_ns(),
                lookup_ns: l.lookup_ns,
                compact_ns: l.compact_ns,
                pages_read: l.lookup_pages + l.compact_pages_read,
                pages_written: l.compact_pages_written,
                probes: l.probes,
                false_positives: l.false_positives,
                compact_keys: l.compact_keys,
            })
            .collect();
        MissionReport {
            mission_idx,
            ops: d.lookups + d.updates + d.scans,
            lookups: d.lookups,
            updates: d.updates,
            scans: d.scans,
            end_to_end_ns: d.clock_ns,
            device_busy_ns: d.busy_ns,
            wal_appends: d.wal_appends,
            wal_syncs: d.wal_syncs,
            wal_synced: d.wal_synced,
            // Recovery/manifest counters are lifetime store facts, not
            // mission deltas: report the current reading.
            manifest_edits: end_snapshots.iter().map(|s| s.manifest_edits).sum(),
            runs_recovered: end_snapshots.iter().map(|s| s.runs_recovered).sum(),
            replayed_tail: end_snapshots.iter().map(|s| s.replayed_tail).sum(),
            orphans_collected: end_snapshots.iter().map(|s| s.orphans_collected).sum(),
            cache_hits: d.cache_hits,
            cache_misses: d.cache_misses,
            cache_evictions: d.cache_evictions,
            stall_ns: d.stall_ns,
            queue_stall_ns: d.queue_stall_ns,
            bg_compactions: d.bg_compactions,
            // A gauge, not a counter: report the end-of-mission reading.
            pending_compaction_bytes: end_snapshots
                .iter()
                .map(|s| s.pending_compaction_bytes)
                .sum(),
            commit_ns: 0,
            commit_busy_ns: 0,
            levels,
            real_process_ns,
            model_update_ns: 0,
            policies_after: Vec::new(),
            shard_ops: deltas
                .iter()
                .map(|x| x.lookups + x.updates + x.scans)
                .collect(),
            shard_policies_after: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruskey_lsm::LevelStatsSnapshot;

    fn snap(lookups: u64, updates: u64, clock: u64, lvl_ns: u64) -> TreeStatsSnapshot {
        TreeStatsSnapshot {
            lookups,
            updates,
            clock_ns: clock,
            busy_ns: clock,
            levels: vec![LevelStatsSnapshot {
                lookup_ns: lvl_ns,
                ..Default::default()
            }],
            ..Default::default()
        }
    }

    #[test]
    fn reports_are_deltas() {
        let mut c = StatsCollector::new();
        c.baseline_shards(vec![snap(10, 10, 1000, 100)]);
        let (r, _) = c.report_mission_shards_split(vec![snap(15, 25, 4000, 400)], 7);
        assert_eq!(r.ops, 20);
        assert_eq!(r.lookups, 5);
        assert_eq!(r.updates, 15);
        assert_eq!(r.end_to_end_ns, 3000);
        assert_eq!(r.device_busy_ns, 3000, "one domain: busy == wall");
        assert_eq!(r.levels[0].latency_ns, 300);
        assert_eq!(r.real_process_ns, 7);
        assert_eq!(r.mission_idx, 0);
        // Second mission starts from the last snapshot.
        let (r2, _) = c.report_mission_shards_split(vec![snap(16, 26, 4100, 410)], 3);
        assert_eq!(r2.ops, 2);
        assert_eq!(r2.mission_idx, 1);
    }

    #[test]
    fn sharded_reports_delta_each_domain_then_compose() {
        let mut c = StatsCollector::new();
        // Two shards whose domains sit at different absolute times.
        c.baseline_shards(vec![snap(10, 0, 1000, 0), snap(0, 0, 200, 0)]);
        // Shard 0 advances 500 ns, shard 1 advances 2000 ns.
        let ends = vec![snap(12, 0, 1500, 0), snap(3, 0, 2200, 0)];
        let (r, _) = c.report_mission_shards_split(ends, 1);
        assert_eq!(r.ops, 5);
        assert_eq!(r.lookups, 5);
        assert_eq!(r.end_to_end_ns, 2000, "wall = max(500, 2000)");
        assert_eq!(r.device_busy_ns, 2500, "busy = 500 + 2000");
        assert!((r.busy_ns_per_op() - 500.0).abs() < 1e-12);
    }

    #[test]
    fn wal_counters_flow_through_mission_deltas() {
        let mut c = StatsCollector::new();
        let mut before = snap(0, 10, 100, 0);
        before.wal_appends = 10;
        before.wal_syncs = 1;
        before.wal_synced = 10;
        c.baseline_shards(vec![before]);
        let mut after = snap(0, 35, 400, 0);
        after.wal_appends = 35;
        after.wal_syncs = 2;
        after.wal_synced = 35;
        let (r, _) = c.report_mission_shards_split(vec![after], 1);
        assert_eq!(r.wal_appends, 25);
        assert_eq!(r.wal_syncs, 1);
        assert_eq!(r.wal_synced, 25);
        assert!((r.wal_batch_size() - 25.0).abs() < 1e-12);
        // No syncs: batch size is defined as 0, not a division by zero.
        assert_eq!(MissionReport::default().wal_batch_size(), 0.0);
    }

    #[test]
    fn maintenance_counters_flow_through_mission_reports() {
        let mut c = StatsCollector::new();
        let mut before = snap(0, 10, 100, 0);
        before.stall_ns = 40;
        before.bg_compactions = 3;
        before.pending_compaction_bytes = 9999;
        c.baseline_shards(vec![before]);
        let mut after = snap(0, 35, 400, 0);
        after.stall_ns = 100;
        after.bg_compactions = 7;
        after.pending_compaction_bytes = 4096;
        let (r, _) = c.report_mission_shards_split(vec![after], 1);
        assert_eq!(r.stall_ns, 60);
        assert_eq!(r.bg_compactions, 4);
        assert_eq!(
            r.pending_compaction_bytes, 4096,
            "a gauge reports the end-of-mission reading, not a delta"
        );
    }

    #[test]
    fn split_reports_slice_per_shard() {
        let mut c = StatsCollector::new();
        c.baseline_shards(vec![snap(10, 0, 1000, 0), snap(0, 0, 200, 0)]);
        let ends = vec![snap(12, 4, 1500, 0), snap(3, 0, 2200, 0)];
        let (merged, slices) = c.report_mission_shards_split(ends, 1);
        assert_eq!(slices.len(), 2);
        // The merged view composes both domains.
        assert_eq!(merged.ops, 9);
        assert_eq!(merged.end_to_end_ns, 2000);
        assert_eq!(merged.device_busy_ns, 2500);
        assert_eq!(merged.shard_ops, vec![6, 3]);
        // Slices carry each shard's own delta, same mission ordinal.
        assert_eq!(slices[0].ops, 6);
        assert_eq!(slices[0].lookups, 2);
        assert_eq!(slices[0].updates, 4);
        assert_eq!(slices[0].end_to_end_ns, 500);
        assert_eq!(slices[0].device_busy_ns, 500);
        assert_eq!(slices[1].ops, 3);
        assert_eq!(slices[1].end_to_end_ns, 2000);
        assert_eq!(slices[0].mission_idx, merged.mission_idx);
        assert_eq!(slices[1].mission_idx, merged.mission_idx);
        // The mission counter advanced exactly once.
        assert_eq!(c.missions(), 1);
    }

    #[test]
    fn shard_imbalance_is_max_over_mean() {
        let mut r = MissionReport::default();
        assert_eq!(r.shard_imbalance(), 0.0, "no shard data");
        r.shard_ops = vec![0, 0];
        assert_eq!(r.shard_imbalance(), 0.0, "no work");
        r.shard_ops = vec![5, 5, 5, 5];
        assert!((r.shard_imbalance() - 1.0).abs() < 1e-12, "balanced");
        r.shard_ops = vec![12, 0, 0, 0];
        assert!((r.shard_imbalance() - 4.0).abs() < 1e-12, "one hot shard");
    }

    #[test]
    fn gamma_and_per_op() {
        let r = MissionReport {
            ops: 100,
            lookups: 90,
            updates: 10,
            end_to_end_ns: 5000,
            levels: vec![LevelMissionStats {
                latency_ns: 1000,
                ..Default::default()
            }],
            ..Default::default()
        };
        assert!((r.gamma() - 0.9).abs() < 1e-12);
        assert!((r.ns_per_op() - 50.0).abs() < 1e-12);
        assert!((r.level_ns_per_op(0) - 10.0).abs() < 1e-12);
        assert_eq!(r.level_ns_per_op(5), 0.0);
    }

    #[test]
    fn empty_mission_is_safe() {
        let r = MissionReport::default();
        assert_eq!(r.gamma(), 0.0);
        assert_eq!(r.ns_per_op(), 0.0);
    }
}
