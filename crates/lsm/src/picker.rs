//! Score-based compaction picker.
//!
//! Inline mode merges a level the moment it fills, on the write path. In
//! background mode the tree instead asks the picker *which* level most
//! needs work and runs one bounded step at a time off the hot path. The
//! scoring follows the classic level-management scheme (see the jdb
//! snippet in SNIPPETS.md): scores are expressed against a fixed scale,
//! and Level 1 (index 0) is additionally scored by run count (runs there
//! are small and each one taxes every lookup). The picked level's sealed
//! runs are always merged into the next level, under that level's policy
//! `K` (§4).
//!
//! The picker only ever selects **sealed** runs, and a background step
//! always takes *all* of a level's sealed runs. That pair of rules keeps
//! the per-key version ordering of the probe path intact: within a level
//! the active run is strictly newer than every sealed run, so versions of
//! a key can never be split across "merged below" and "left behind".

use crate::level::Level;

/// Fixed-point scale for compaction scores: a score at or above this
/// value means the level needs structural work.
pub const SCORE_SCALE: u64 = 100;

/// Run-count threshold for Level 1 (index 0): the level scores
/// `run_count · SCORE_SCALE / L0_RUN_LIMIT` in addition to its byte
/// fill, so a pile-up of small runs triggers work before the bytes do.
pub const L0_RUN_LIMIT: u64 = 4;

/// The level's compaction score against [`SCORE_SCALE`]: its byte fill
/// ratio, and for Level 1 (index 0) also its run count against
/// [`L0_RUN_LIMIT`].
pub fn level_score(level: &Level) -> u64 {
    let bytes = level
        .data_bytes()
        .saturating_mul(SCORE_SCALE)
        .checked_div(level.capacity)
        .unwrap_or(u64::MAX);
    if level.index == 0 {
        let runs = (level.run_count() as u64).saturating_mul(SCORE_SCALE) / L0_RUN_LIMIT;
        bytes.max(runs)
    } else {
        bytes
    }
}

/// Picks the highest-scoring level that has sealed runs and a score at
/// or above the scale, and returns its (zero-based) index; ties go to the
/// shallower level (its runs tax more of the probe path). Returns `None`
/// when no level needs work — the tree is structurally quiescent.
pub fn pick(levels: &[Level]) -> Option<usize> {
    let mut best: Option<(usize, u64)> = None;
    for (idx, level) in levels.iter().enumerate() {
        if level.sealed.is_empty() {
            continue;
        }
        let score = level_score(level);
        if score >= SCORE_SCALE && best.is_none_or(|(_, b)| score > b) {
            best = Some((idx, score));
        }
    }
    best.map(|(idx, _)| idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Run, RunBuilder};
    use crate::types::KvEntry;
    use bytes::Bytes;
    use ruskey_storage::{CostModel, SimulatedDisk, Storage};
    use std::sync::Arc;

    fn key(i: u64) -> Bytes {
        Bytes::from(format!("key-{i:06}"))
    }

    /// A run spanning `[lo, hi]` with one filler entry per step of 2.
    fn run_in(storage: &dyn Storage, id: u64, lo: u64, hi: u64) -> Arc<Run> {
        let mut b = RunBuilder::new(id, storage, 8.0);
        let mut i = lo;
        let mut seq = 1;
        while i < hi {
            b.push(KvEntry::put(key(i), Bytes::from_static(b"v"), seq).borrowed());
            seq += 1;
            i += 2;
        }
        b.push(KvEntry::put(key(hi), Bytes::from_static(b"v"), seq).borrowed());
        Arc::new(b.finish(u64::MAX).unwrap())
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
        // Level 0 barely filled, level 1 grossly over capacity.
        let l0 = level_with(0, 1 << 30, vec![run_in(disk.as_ref(), 1, 0, 10)]);
        let big = run_in(disk.as_ref(), 2, 0, 400);
        let l1 = level_with(1, big.data_bytes() / 2, vec![big]);
        assert!(level_score(&l0) < SCORE_SCALE);
        assert!(level_score(&l1) >= SCORE_SCALE);
        let levels = [l0, l1];
        let picked = pick(&levels).expect("over-capacity level needs work");
        assert_eq!(picked, 1);
        assert!(level_score(&levels[picked]) >= SCORE_SCALE);
    }

    #[test]
    fn level0_scores_by_run_count_too() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        // Capacity far above the data: bytes alone would never trigger,
        // but 5 runs against an L0 limit of 4 must.
        let sealed: Vec<Arc<Run>> = (0..5)
            .map(|i| run_in(disk.as_ref(), i + 1, i * 100, i * 100 + 50))
            .collect();
        let l0 = level_with(0, 1 << 30, sealed);
        assert!(level_score(&l0) >= SCORE_SCALE);
        let picked = pick(&[l0]).expect("run pile-up needs work");
        assert_eq!(picked, 0);
    }

    #[test]
    fn quiescent_levels_pick_nothing() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let l0 = level_with(0, 1 << 30, vec![run_in(disk.as_ref(), 1, 0, 10)]);
        // A full level with no sealed runs is not pickable either.
        let mut l1 = Level::new(1, 1, 1);
        l1.refresh_bounds();
        assert!(pick(&[l0, l1]).is_none());
    }
}
