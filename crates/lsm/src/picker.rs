//! Score-based compaction picker.
//!
//! Inline mode merges a level the moment it fills, on the write path. In
//! background mode the tree instead asks the picker *which* level most
//! needs work and runs one bounded step at a time off the hot path. The
//! scoring follows the classic level-management scheme (see the jdb
//! snippet in SNIPPETS.md): scores are expressed against a fixed scale,
//! Level 1 (index 0) is additionally scored by run count (runs there are
//! small and each one taxes every lookup), and a level holding a *single*
//! sealed run that overlaps nothing in the next level qualifies for a
//! **trivial move** — re-parenting the run handle without rewriting a
//! byte — as long as the overlap with the *grandparent* level stays
//! bounded, so the move does not set up a pathologically wide merge two
//! levels down.
//!
//! The picker only ever selects **sealed** runs, and a background step
//! always takes *all* of a level's sealed runs. That pair of rules keeps
//! the per-key version ordering of the probe path intact: within a level
//! the active run is strictly newer than every sealed run, so versions of
//! a key can never be split across "moved below" and "left behind".

use std::sync::Arc;

use crate::level::Level;
use crate::run::Run;

/// Fixed-point scale for compaction scores: a score at or above this
/// value means the level needs structural work.
pub const SCORE_SCALE: u64 = 100;

/// Picker thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PickerConfig {
    /// Run-count threshold for Level 1 (index 0): the level scores
    /// `run_count · SCORE_SCALE / l0_run_limit` in addition to its byte
    /// fill, so a pile-up of small runs triggers work before the bytes do.
    pub l0_run_limit: u64,
    /// Maximum bytes of grandparent-level overlap a trivial move may
    /// carry; beyond this the runs are merged normally instead.
    pub gp_limit_bytes: u64,
}

impl Default for PickerConfig {
    fn default() -> Self {
        Self {
            l0_run_limit: 4,
            gp_limit_bytes: 640 << 20,
        }
    }
}

/// One unit of work selected by the picker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPick {
    /// Level whose sealed runs should move down (zero-based).
    pub level: usize,
    /// The level's score at pick time (≥ [`SCORE_SCALE`]).
    pub score: u64,
    /// Whether the sealed runs can be re-parented to the next level
    /// without a merge (no overlap with any resident run there, bounded
    /// grandparent overlap).
    pub trivial: bool,
}

/// Selects which level's sealed runs to compact next.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactionPicker {
    cfg: PickerConfig,
}

impl CompactionPicker {
    /// Creates a picker with the given thresholds.
    pub fn new(cfg: PickerConfig) -> Self {
        Self { cfg }
    }

    /// The level's compaction score against [`SCORE_SCALE`]: its byte
    /// fill ratio, and for Level 1 (index 0) also its run count against
    /// the configured limit.
    pub fn level_score(&self, level: &Level) -> u64 {
        let bytes = level
            .data_bytes()
            .saturating_mul(SCORE_SCALE)
            .checked_div(level.capacity)
            .unwrap_or(u64::MAX);
        if level.index == 0 {
            let runs = (level.run_count() as u64).saturating_mul(SCORE_SCALE)
                / self.cfg.l0_run_limit.max(1);
            bytes.max(runs)
        } else {
            bytes
        }
    }

    /// Picks the highest-scoring level that has sealed runs and a score
    /// at or above the scale; ties go to the shallower level (its runs
    /// tax more of the probe path). Returns `None` when no level needs
    /// work — the tree is structurally quiescent.
    pub fn pick(&self, levels: &[Level]) -> Option<CompactionPick> {
        let mut best: Option<CompactionPick> = None;
        for (idx, level) in levels.iter().enumerate() {
            if level.sealed.is_empty() {
                continue;
            }
            let score = self.level_score(level);
            if score < SCORE_SCALE {
                continue;
            }
            if best.is_none_or(|b| score > b.score) {
                best = Some(CompactionPick {
                    level: idx,
                    score,
                    trivial: self.is_trivial_move(levels, idx),
                });
            }
        }
        best
    }

    /// Whether `levels[idx]`'s sealed runs can move to `idx + 1` without
    /// a merge: there must be exactly **one** (several sealed runs carry
    /// redundant versions — relocating them would just push the merge
    /// debt down a level), it must overlap **no** resident run at the
    /// target (active or sealed — the target's probe order would
    /// otherwise serve stale versions), and its overlap with the
    /// grandparent level must not exceed the configured bound.
    pub fn is_trivial_move(&self, levels: &[Level], idx: usize) -> bool {
        let candidates = &levels[idx].sealed;
        if candidates.len() != 1 {
            return false;
        }
        if let Some(target) = levels.get(idx + 1) {
            let overlaps = candidates
                .iter()
                .any(|run| target.probe_order().any(|res| runs_overlap(run, res)));
            if overlaps {
                return false;
            }
        }
        let gp = levels
            .get(idx + 2)
            .map_or(0, |g| overlap_bytes(candidates, g));
        gp <= self.cfg.gp_limit_bytes
    }
}

/// Whether two runs' key ranges intersect.
pub fn runs_overlap(a: &Run, b: &Run) -> bool {
    a.min_key() <= b.max_key() && b.min_key() <= a.max_key()
}

/// Total data bytes of `target` runs whose key range intersects any of
/// `runs` — the work a future merge at `target` would have to rewrite.
pub fn overlap_bytes(runs: &[Arc<Run>], target: &Level) -> u64 {
    target
        .probe_order()
        .filter(|res| runs.iter().any(|r| runs_overlap(r, res)))
        .map(|res| res.data_bytes())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunBuilder;
    use crate::types::KvEntry;
    use bytes::Bytes;
    use ruskey_storage::{CostModel, SimulatedDisk, Storage};

    fn key(i: u64) -> Bytes {
        Bytes::from(format!("key-{i:06}"))
    }

    /// A run spanning `[lo, hi]` with one filler entry per step of 2.
    fn run_in(storage: &dyn Storage, id: u64, lo: u64, hi: u64) -> Arc<Run> {
        let mut b = RunBuilder::new(id, storage.page_size(), 8.0);
        let mut i = lo;
        let mut seq = 1;
        while i < hi {
            b.push(KvEntry::put(key(i), Bytes::from_static(b"v"), seq).borrowed());
            seq += 1;
            i += 2;
        }
        b.push(KvEntry::put(key(hi), Bytes::from_static(b"v"), seq).borrowed());
        Arc::new(b.finish(storage, u64::MAX).unwrap())
    }

    fn level_with(index: usize, capacity: u64, sealed: Vec<Arc<Run>>) -> Level {
        let mut l = Level::new(index, capacity, 1);
        l.sealed = sealed;
        l.refresh_bounds();
        l
    }

    #[test]
    fn scores_order_by_fill_and_pick_prefers_fullest() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let p = CompactionPicker::default();
        // Level 0 barely filled, level 1 grossly over capacity.
        let l0 = level_with(0, 1 << 30, vec![run_in(disk.as_ref(), 1, 0, 10)]);
        let big = run_in(disk.as_ref(), 2, 0, 400);
        let l1 = level_with(1, big.data_bytes() / 2, vec![big]);
        assert!(p.level_score(&l0) < SCORE_SCALE);
        assert!(p.level_score(&l1) >= SCORE_SCALE);
        let pick = p.pick(&[l0, l1]).expect("over-capacity level needs work");
        assert_eq!(pick.level, 1);
        assert!(pick.score >= SCORE_SCALE);
    }

    #[test]
    fn level0_scores_by_run_count_too() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let p = CompactionPicker::default();
        // Capacity far above the data: bytes alone would never trigger,
        // but 5 runs against an L0 limit of 4 must.
        let sealed: Vec<Arc<Run>> = (0..5)
            .map(|i| run_in(disk.as_ref(), i + 1, i * 100, i * 100 + 50))
            .collect();
        let l0 = level_with(0, 1 << 30, sealed);
        assert!(p.level_score(&l0) >= SCORE_SCALE);
        let pick = p.pick(&[l0]).expect("run pile-up needs work");
        assert_eq!(pick.level, 0);
    }

    #[test]
    fn quiescent_levels_pick_nothing() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let p = CompactionPicker::default();
        let l0 = level_with(0, 1 << 30, vec![run_in(disk.as_ref(), 1, 0, 10)]);
        // A full level with no sealed runs is not pickable either.
        let mut l1 = Level::new(1, 1, 1);
        l1.refresh_bounds();
        assert!(p.pick(&[l0, l1]).is_none());
    }

    #[test]
    fn disjoint_runs_are_a_trivial_move() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let p = CompactionPicker::default();
        let l0 = level_with(0, 1, vec![run_in(disk.as_ref(), 1, 0, 99)]);
        let l1 = level_with(1, 1 << 30, vec![run_in(disk.as_ref(), 2, 200, 299)]);
        let pick = p.pick(&[l0, l1]).unwrap();
        assert_eq!(pick.level, 0);
        assert!(pick.trivial, "no overlap at the target level");
    }

    #[test]
    fn multiple_sealed_runs_disqualify_a_trivial_move() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let p = CompactionPicker::default();
        // Both runs are disjoint from the (empty) target, but moving two
        // mutually redundant runs would only relocate the merge debt.
        let l0 = level_with(
            0,
            1,
            vec![
                run_in(disk.as_ref(), 1, 0, 99),
                run_in(disk.as_ref(), 2, 0, 99),
            ],
        );
        let l1 = level_with(1, 1 << 30, vec![]);
        let pick = p.pick(&[l0, l1]).unwrap();
        assert!(!pick.trivial, "a multi-run level must merge, not move");
    }

    #[test]
    fn target_overlap_disqualifies_a_trivial_move() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let p = CompactionPicker::default();
        let l0 = level_with(0, 1, vec![run_in(disk.as_ref(), 1, 0, 99)]);
        let l1 = level_with(1, 1 << 30, vec![run_in(disk.as_ref(), 2, 50, 150)]);
        let pick = p.pick(&[l0, l1]).unwrap();
        assert_eq!(pick.level, 0);
        assert!(!pick.trivial, "target-level overlap forces a merge");
    }

    #[test]
    fn grandparent_overlap_bounds_a_trivial_move() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let l0 = level_with(0, 1, vec![run_in(disk.as_ref(), 1, 0, 99)]);
        let l1 = level_with(1, 1 << 30, vec![run_in(disk.as_ref(), 2, 200, 299)]);
        let gp_run = run_in(disk.as_ref(), 3, 0, 99);
        let gp_bytes = gp_run.data_bytes();
        let l2 = level_with(2, 1 << 30, vec![gp_run]);
        assert_eq!(overlap_bytes(&l0.sealed, &l2), gp_bytes);

        let generous = CompactionPicker::new(PickerConfig {
            gp_limit_bytes: gp_bytes,
            ..PickerConfig::default()
        });
        let strict = CompactionPicker::new(PickerConfig {
            gp_limit_bytes: gp_bytes - 1,
            ..PickerConfig::default()
        });
        let levels = [l0, l1, l2];
        assert!(generous.is_trivial_move(&levels, 0));
        assert!(
            !strict.is_trivial_move(&levels, 0),
            "over-bound grandparent overlap must force a merge"
        );
    }
}
