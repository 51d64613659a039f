//! Per-level and tree-wide statistics.
//!
//! The RusKey stats collector (paper §3.1) feeds two signals into the RL
//! reward: the *end-to-end latency* `t'` and the *level-based latency* `t_i`.
//! This module accumulates both, along with the I/O and false-positive
//! counters used by the experiments.

/// One level's counters: the tree accumulates into it, and a copy taken
/// at any moment is that moment's snapshot (supports deltas and merges).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LevelStatsSnapshot {
    /// Virtual ns spent probing this level during lookups.
    pub lookup_ns: u64,
    /// Pages read by lookups in this level.
    pub lookup_pages: u64,
    /// Run probes performed in this level.
    pub probes: u64,
    /// Bloom false positives observed in this level.
    pub false_positives: u64,
    /// Virtual ns spent on compaction work attributed to this level.
    pub compact_ns: u64,
    /// Pages read by compactions attributed to this level.
    pub compact_pages_read: u64,
    /// Pages written by compactions attributed to this level.
    pub compact_pages_written: u64,
    /// Entries processed by compactions attributed to this level.
    pub compact_keys: u64,
    /// Number of full-level merges pushed down from this level.
    pub merges_down: u64,
    /// Number of policy transitions applied at this level.
    pub transitions: u64,
}

impl LevelStatsSnapshot {
    /// Level-based latency `t_i`.
    pub fn total_ns(&self) -> u64 {
        self.lookup_ns + self.compact_ns
    }

    /// Counter-wise `self + other`: the combined view of one level across
    /// two shards of a sharded store.
    pub(crate) fn merged(&self, other: &LevelStatsSnapshot) -> LevelStatsSnapshot {
        LevelStatsSnapshot {
            lookup_ns: self.lookup_ns + other.lookup_ns,
            lookup_pages: self.lookup_pages + other.lookup_pages,
            probes: self.probes + other.probes,
            false_positives: self.false_positives + other.false_positives,
            compact_ns: self.compact_ns + other.compact_ns,
            compact_pages_read: self.compact_pages_read + other.compact_pages_read,
            compact_pages_written: self.compact_pages_written + other.compact_pages_written,
            compact_keys: self.compact_keys + other.compact_keys,
            merges_down: self.merges_down + other.merges_down,
            transitions: self.transitions + other.transitions,
        }
    }

    /// Counter-wise `self - earlier` (saturating).
    pub(crate) fn delta(&self, earlier: &LevelStatsSnapshot) -> LevelStatsSnapshot {
        LevelStatsSnapshot {
            lookup_ns: self.lookup_ns.saturating_sub(earlier.lookup_ns),
            lookup_pages: self.lookup_pages.saturating_sub(earlier.lookup_pages),
            probes: self.probes.saturating_sub(earlier.probes),
            false_positives: self.false_positives.saturating_sub(earlier.false_positives),
            compact_ns: self.compact_ns.saturating_sub(earlier.compact_ns),
            compact_pages_read: self
                .compact_pages_read
                .saturating_sub(earlier.compact_pages_read),
            compact_pages_written: self
                .compact_pages_written
                .saturating_sub(earlier.compact_pages_written),
            compact_keys: self.compact_keys.saturating_sub(earlier.compact_keys),
            merges_down: self.merges_down.saturating_sub(earlier.merges_down),
            transitions: self.transitions.saturating_sub(earlier.transitions),
        }
    }
}

/// Tree-wide statistics snapshot.
///
/// A snapshot taken from one tree describes one *time domain*: `clock_ns`
/// and `busy_ns` are both that domain's timeline. Merging shard snapshots
/// ([`TreeStatsSnapshot::merge`]) composes domains two ways at once:
/// `clock_ns` takes the **max** (wall composition — the longest domain
/// timeline) and `busy_ns` takes the **sum** (device-busy composition —
/// total virtual work performed). To window a parallel mission exactly,
/// delta each shard's snapshot against its own baseline first and merge
/// the deltas; max-of-deltas is not delta-of-maxes.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TreeStatsSnapshot {
    /// Number of lookups served.
    pub lookups: u64,
    /// Number of updates (puts + deletes) applied.
    pub updates: u64,
    /// Number of range scans served.
    pub scans: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Virtual time in this snapshot's domain (I/O + charged CPU), ns.
    /// Merged snapshots carry the max over the merged domains (wall).
    pub clock_ns: u64,
    /// Total virtual work, ns. Equals `clock_ns` for a single tree; merged
    /// snapshots carry the sum over the merged domains (device-busy).
    pub busy_ns: u64,
    /// Lifetime records appended to the tree's write-ahead log (0 when the
    /// tree runs without one).
    pub wal_appends: u64,
    /// Lifetime WAL fsyncs — the group-commit cost counter (≤ 1 per shard
    /// per batch under the mission barrier).
    pub wal_syncs: u64,
    /// Lifetime WAL records acknowledged durable: covered by a successful
    /// fsync, or superseded by a memtable flush that persisted them into
    /// the tree.
    pub wal_synced: u64,
    /// Snapshot records the tree's manifest wrote since it was created or
    /// recovered: one per structural step that changed the tree (0 when
    /// the tree runs without a manifest).
    pub manifest_edits: u64,
    /// Runs rebuilt from manifest + data pages by the last recovery.
    pub runs_recovered: u64,
    /// WAL records replayed on top of the recovered structure by the
    /// last recovery.
    pub replayed_tail: u64,
    /// Extent files orphaned by a pre-commit power cut and removed by the
    /// last recovery's orphan sweep.
    pub orphans_collected: u64,
    /// Lifetime extent-file fsyncs issued (power-failure contract, step 1:
    /// data pages durable before their manifest commit).
    pub extent_syncs: u64,
    /// Lifetime directory-handle fsyncs issued (power-failure contract,
    /// step 2: extent creation durable before the manifest names it).
    pub dir_syncs: u64,
    /// Lifetime freed extent files whose unlink failed (left for the next
    /// open's orphan sweep).
    pub unlink_failures: u64,
    /// Lifetime block-cache hits on the tree's storage (0 without a
    /// cache in the serving path).
    pub cache_hits: u64,
    /// Lifetime block-cache misses (reads that reached the device).
    pub cache_misses: u64,
    /// Lifetime block-cache evictions.
    pub cache_evictions: u64,
    /// Virtual ns that `put`/`delete` calls spent blocked on structural
    /// work: the inline flush/cascade in classic mode, or the flush
    /// backstop plus L0 backpressure stalls in background mode. Measured
    /// elapsed time on the tree's clock, never an extra charge.
    pub stall_ns: u64,
    /// Real wall-clock ns writes spent waiting for a serving frontend's
    /// per-shard lock before the tree executed them (0 outside serving).
    /// Kept apart from the virtual `stall_ns`: lock wait is scheduling
    /// delay, not device work.
    pub queue_stall_ns: u64,
    /// Background merges applied.
    pub bg_compactions: u64,
    /// Bytes resident in levels whose compaction score is at or above the
    /// picker threshold — a gauge of structural debt, not a counter.
    pub pending_compaction_bytes: u64,
    /// Per-level snapshots, index 0 = the paper's Level 1.
    pub levels: Vec<LevelStatsSnapshot>,
}

impl TreeStatsSnapshot {
    /// Counter-wise delta versus an earlier snapshot. Levels missing from
    /// `earlier` (created in between) are taken as-is.
    pub fn delta(&self, earlier: &TreeStatsSnapshot) -> TreeStatsSnapshot {
        let levels = self
            .levels
            .iter()
            .enumerate()
            .map(|(i, l)| match earlier.levels.get(i) {
                Some(e) => l.delta(e),
                None => *l,
            })
            .collect();
        TreeStatsSnapshot {
            lookups: self.lookups.saturating_sub(earlier.lookups),
            updates: self.updates.saturating_sub(earlier.updates),
            scans: self.scans.saturating_sub(earlier.scans),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            clock_ns: self.clock_ns.saturating_sub(earlier.clock_ns),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
            wal_appends: self.wal_appends.saturating_sub(earlier.wal_appends),
            wal_syncs: self.wal_syncs.saturating_sub(earlier.wal_syncs),
            wal_synced: self.wal_synced.saturating_sub(earlier.wal_synced),
            manifest_edits: self.manifest_edits.saturating_sub(earlier.manifest_edits),
            runs_recovered: self.runs_recovered.saturating_sub(earlier.runs_recovered),
            replayed_tail: self.replayed_tail.saturating_sub(earlier.replayed_tail),
            orphans_collected: self
                .orphans_collected
                .saturating_sub(earlier.orphans_collected),
            extent_syncs: self.extent_syncs.saturating_sub(earlier.extent_syncs),
            dir_syncs: self.dir_syncs.saturating_sub(earlier.dir_syncs),
            unlink_failures: self.unlink_failures.saturating_sub(earlier.unlink_failures),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
            stall_ns: self.stall_ns.saturating_sub(earlier.stall_ns),
            queue_stall_ns: self.queue_stall_ns.saturating_sub(earlier.queue_stall_ns),
            bg_compactions: self.bg_compactions.saturating_sub(earlier.bg_compactions),
            // A gauge: the delta window ends at `self`, so its end-state
            // debt is the meaningful reading.
            pending_compaction_bytes: self.pending_compaction_bytes,
            levels,
        }
    }

    /// Merges another shard's snapshot into a store-wide view.
    ///
    /// Operation and I/O counters add up shard-wise; per-level snapshots
    /// add element-wise (the deeper shard's extra levels are taken as-is).
    /// Time composes per domain: `clock_ns` takes the **max** (mission
    /// wall time is bounded by the busiest shard), `busy_ns` the **sum**
    /// (the total work on the shards' devices). Both compositions
    /// are commutative and associative, so any merge order agrees.
    pub fn merge(&self, other: &TreeStatsSnapshot) -> TreeStatsSnapshot {
        let n = self.levels.len().max(other.levels.len());
        let zero = LevelStatsSnapshot::default();
        let levels = (0..n)
            .map(|i| {
                self.levels
                    .get(i)
                    .unwrap_or(&zero)
                    .merged(other.levels.get(i).unwrap_or(&zero))
            })
            .collect();
        TreeStatsSnapshot {
            lookups: self.lookups + other.lookups,
            updates: self.updates + other.updates,
            scans: self.scans + other.scans,
            flushes: self.flushes + other.flushes,
            clock_ns: self.clock_ns.max(other.clock_ns),
            busy_ns: self.busy_ns + other.busy_ns,
            wal_appends: self.wal_appends + other.wal_appends,
            wal_syncs: self.wal_syncs + other.wal_syncs,
            wal_synced: self.wal_synced + other.wal_synced,
            manifest_edits: self.manifest_edits + other.manifest_edits,
            runs_recovered: self.runs_recovered + other.runs_recovered,
            replayed_tail: self.replayed_tail + other.replayed_tail,
            orphans_collected: self.orphans_collected + other.orphans_collected,
            extent_syncs: self.extent_syncs + other.extent_syncs,
            dir_syncs: self.dir_syncs + other.dir_syncs,
            unlink_failures: self.unlink_failures + other.unlink_failures,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            cache_evictions: self.cache_evictions + other.cache_evictions,
            stall_ns: self.stall_ns + other.stall_ns,
            queue_stall_ns: self.queue_stall_ns + other.queue_stall_ns,
            bg_compactions: self.bg_compactions + other.bg_compactions,
            pending_compaction_bytes: self.pending_compaction_bytes
                + other.pending_compaction_bytes,
            levels,
        }
    }

    /// Merges the snapshots of all shards of a store ([`TreeStatsSnapshot::merge`]
    /// folded over an iterator).
    pub fn merge_all<'a>(snapshots: impl IntoIterator<Item = &'a TreeStatsSnapshot>) -> Self {
        snapshots
            .into_iter()
            .fold(TreeStatsSnapshot::default(), |acc, s| acc.merge(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_total_combines_lookup_and_compact() {
        let s = LevelStatsSnapshot {
            lookup_ns: 10,
            compact_ns: 32,
            ..Default::default()
        };
        assert_eq!(s.total_ns(), 42);
    }

    #[test]
    fn snapshot_delta() {
        let a = LevelStatsSnapshot {
            probes: 10,
            false_positives: 2,
            ..Default::default()
        };
        let b = LevelStatsSnapshot {
            probes: 4,
            false_positives: 1,
            ..Default::default()
        };
        let d = a.delta(&b);
        assert_eq!(d.probes, 6);
        assert_eq!(d.false_positives, 1);
    }

    #[test]
    fn merge_composes_wall_as_max_and_busy_as_sum() {
        let a = TreeStatsSnapshot {
            lookups: 5,
            updates: 2,
            clock_ns: 900,
            busy_ns: 900,
            levels: vec![LevelStatsSnapshot {
                probes: 3,
                lookup_ns: 10,
                ..Default::default()
            }],
            ..Default::default()
        };
        let b = TreeStatsSnapshot {
            lookups: 1,
            updates: 4,
            clock_ns: 1000,
            busy_ns: 1000,
            levels: vec![
                LevelStatsSnapshot {
                    probes: 2,
                    lookup_ns: 5,
                    ..Default::default()
                },
                LevelStatsSnapshot {
                    compact_keys: 7,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.lookups, 6);
        assert_eq!(m.updates, 6);
        // Wall composition: max over domains. Busy composition: sum.
        assert_eq!(m.clock_ns, 1000);
        assert_eq!(m.busy_ns, 1900);
        assert_eq!(m.levels.len(), 2);
        assert_eq!(m.levels[0].probes, 5);
        assert_eq!(m.levels[0].lookup_ns, 15);
        assert_eq!(m.levels[1].compact_keys, 7);
        // merge_all folds over shards; empty input is the identity.
        let all = TreeStatsSnapshot::merge_all([&a, &b]);
        assert_eq!(all, m);
        assert_eq!(
            TreeStatsSnapshot::merge_all([]),
            TreeStatsSnapshot::default()
        );
    }

    #[test]
    fn per_domain_delta_then_merge_supports_sharded_missions() {
        // The sharded store deltas each shard against its own baseline and
        // merges the deltas: wall = max of per-domain deltas, busy = sum.
        let before_a = TreeStatsSnapshot {
            lookups: 10,
            clock_ns: 100,
            busy_ns: 100,
            ..Default::default()
        };
        let before_b = TreeStatsSnapshot {
            lookups: 20,
            clock_ns: 40,
            busy_ns: 40,
            ..Default::default()
        };
        let after_a = TreeStatsSnapshot {
            lookups: 14,
            clock_ns: 250,
            busy_ns: 250,
            ..Default::default()
        };
        let after_b = TreeStatsSnapshot {
            lookups: 27,
            clock_ns: 90,
            busy_ns: 90,
            ..Default::default()
        };
        let d =
            TreeStatsSnapshot::merge_all([&after_a.delta(&before_a), &after_b.delta(&before_b)]);
        assert_eq!(d.lookups, 11);
        assert_eq!(d.clock_ns, 150, "wall = max(150, 50)");
        assert_eq!(d.busy_ns, 200, "busy = 150 + 50");
    }

    #[test]
    fn wal_counters_merge_as_sums_and_delta_counterwise() {
        let a = TreeStatsSnapshot {
            wal_appends: 10,
            wal_syncs: 2,
            wal_synced: 8,
            ..Default::default()
        };
        let b = TreeStatsSnapshot {
            wal_appends: 4,
            wal_syncs: 1,
            wal_synced: 4,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.wal_appends, 14);
        assert_eq!(m.wal_syncs, 3);
        assert_eq!(m.wal_synced, 12);
        let d = a.delta(&b);
        assert_eq!(d.wal_appends, 6);
        assert_eq!(d.wal_syncs, 1);
        assert_eq!(d.wal_synced, 4);
    }

    #[test]
    fn maintenance_counters_delta_and_merge() {
        let later = TreeStatsSnapshot {
            stall_ns: 100,
            bg_compactions: 7,
            pending_compaction_bytes: 4_096,
            ..Default::default()
        };
        let earlier = TreeStatsSnapshot {
            stall_ns: 40,
            bg_compactions: 3,
            pending_compaction_bytes: 9_999,
            ..Default::default()
        };
        let d = later.delta(&earlier);
        assert_eq!(d.stall_ns, 60);
        assert_eq!(d.bg_compactions, 4);
        // Gauge semantics: the delta reports the window's end state, not a
        // subtraction against the earlier reading.
        assert_eq!(d.pending_compaction_bytes, 4_096);
        let m = later.merge(&earlier);
        assert_eq!(m.stall_ns, 140);
        assert_eq!(m.bg_compactions, 10);
        assert_eq!(m.pending_compaction_bytes, 14_095);
    }

    #[test]
    fn tree_delta_handles_new_levels() {
        let earlier = TreeStatsSnapshot {
            lookups: 5,
            levels: vec![LevelStatsSnapshot {
                probes: 3,
                ..Default::default()
            }],
            ..Default::default()
        };
        let later = TreeStatsSnapshot {
            lookups: 9,
            levels: vec![
                LevelStatsSnapshot {
                    probes: 7,
                    ..Default::default()
                },
                LevelStatsSnapshot {
                    probes: 2,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        let d = later.delta(&earlier);
        assert_eq!(d.lookups, 4);
        assert_eq!(d.levels[0].probes, 4);
        assert_eq!(d.levels[1].probes, 2);
    }
}
