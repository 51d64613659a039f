//! A single FLSM-tree level.
//!
//! A level holds a set of *sealed* runs plus at most one *active* run. The
//! active run admits batches merged down from the level above; when it
//! reaches its capacity it is sealed and a fresh active run is opened. In
//! contrast to a classic LSM-tree, sealed runs may have **different sizes**,
//! because each run's capacity is fixed at its creation from the policy in
//! force at that moment (§4.2). The level's compaction policy `K` only
//! governs the capacity of the *current and future* active runs:
//! `active_capacity = C / K`.

use std::sync::Arc;

use crate::run::Run;
use crate::types::Key;

/// One level of the FLSM-tree.
#[derive(Debug)]
pub struct Level {
    /// Zero-based index (0 = the paper's Level 1).
    pub index: usize,
    /// Level capacity `C_i` in bytes.
    pub capacity: u64,
    /// Current compaction policy `K_i ∈ [1, T]`.
    pub policy: u32,
    /// Policy recorded but not yet applied (lazy transition, §4.1).
    pub pending_policy: Option<u32>,
    /// Sealed runs, oldest first. Never modified by transitions. Runs are
    /// shared handles: snapshots and in-flight background merges may pin
    /// the same run while it stays resident here.
    pub sealed: Vec<Arc<Run>>,
    /// The run currently admitting merged batches from above, if any.
    pub active: Option<Arc<Run>>,
    /// Aggregate `[min, max]` key range over every resident run, cached
    /// so a lookup can reject out-of-range keys in O(1) without touching
    /// a single run. `None` while the level is empty. Maintained by
    /// `Level::refresh_bounds`, which the tree calls at every
    /// structural mutation (admit, merge, bulk load, recovery); must
    /// always equal `Level::computed_bounds`.
    pub bounds: Option<(Key, Key)>,
}

impl Level {
    /// Creates an empty level.
    pub(crate) fn new(index: usize, capacity: u64, policy: u32) -> Self {
        assert!(policy >= 1, "policy must be at least 1");
        Self {
            index,
            capacity,
            policy,
            pending_policy: None,
            sealed: Vec::new(),
            active: None,
            bounds: None,
        }
    }

    /// Capacity of the active run under the current policy: `C / K`.
    pub(crate) fn active_capacity(&self) -> u64 {
        (self.capacity / self.policy as u64).max(1)
    }

    /// Total logical bytes stored in the level.
    pub(crate) fn data_bytes(&self) -> u64 {
        self.sealed.iter().map(|r| r.data_bytes()).sum::<u64>()
            + self.active.as_ref().map_or(0, |r| r.data_bytes())
    }

    /// Number of runs currently in the level (sealed + active).
    pub(crate) fn run_count(&self) -> usize {
        self.sealed.len() + usize::from(self.active.is_some())
    }

    /// Fill ratio `D/C ∈ [0, ~1]` (may transiently exceed 1 right before a
    /// full-level merge).
    pub(crate) fn fill_ratio(&self) -> f64 {
        self.data_bytes() as f64 / self.capacity as f64
    }

    /// Whether the level has reached capacity and must merge down.
    pub(crate) fn is_full(&self) -> bool {
        self.data_bytes() >= self.capacity
    }

    /// Seals the active run (no-op when there is none).
    pub(crate) fn seal_active(&mut self) {
        if let Some(run) = self.active.take() {
            self.sealed.push(run);
        }
    }

    /// Runs in probe order: active first (newest data), then sealed runs
    /// newest-to-oldest.
    pub(crate) fn probe_order(&self) -> impl Iterator<Item = &Arc<Run>> {
        self.active.iter().chain(self.sealed.iter().rev())
    }

    /// Removes and returns all runs (active first sealed last — age does not
    /// matter for a full merge, sequence numbers resolve versions).
    pub(crate) fn take_all_runs(&mut self) -> Vec<Arc<Run>> {
        let mut runs: Vec<Arc<Run>> = self.active.take().into_iter().collect();
        runs.append(&mut self.sealed);
        self.bounds = None;
        runs
    }

    /// Recomputes the cached aggregate bounds from the resident runs.
    /// Called by the tree after every mutation that changes the level's
    /// run membership.
    pub(crate) fn refresh_bounds(&mut self) {
        self.bounds = self.computed_bounds();
    }

    /// The aggregate `[min, max]` key range computed fresh from the
    /// resident runs — the value the cached [`Level::bounds`] must equal
    /// (the invariant the bounds tests pin).
    pub(crate) fn computed_bounds(&self) -> Option<(Key, Key)> {
        self.probe_order().fold(None, |acc, run| {
            Some(match acc {
                None => (run.min_key().clone(), run.max_key().clone()),
                Some((lo, hi)) => (
                    if *run.min_key() < lo {
                        run.min_key().clone()
                    } else {
                        lo
                    },
                    if *run.max_key() > hi {
                        run.max_key().clone()
                    } else {
                        hi
                    },
                ),
            })
        })
    }

    /// Applies the flexible transition for a new policy `k` (§4.2): change
    /// the policy, retarget the active run's capacity, and seal it
    /// immediately if it already exceeds the new capacity.
    pub(crate) fn apply_flexible(&mut self, k: u32) {
        self.policy = k;
        self.pending_policy = None;
        let cap = self.active_capacity();
        if let Some(active) = &self.active {
            active.set_capacity_bytes(cap);
            if active.data_bytes() >= cap {
                self.seal_active();
            }
        }
    }

    /// Records a lazy transition: the policy will be adopted when the level
    /// next empties via a full-level merge.
    pub(crate) fn apply_lazy(&mut self, k: u32) {
        if k == self.policy {
            self.pending_policy = None;
        } else {
            self.pending_policy = Some(k);
        }
    }

    /// Adopts any pending (lazy) policy; called right after the level
    /// empties through a full-level compaction.
    pub(crate) fn adopt_pending_policy(&mut self) {
        if let Some(k) = self.pending_policy.take() {
            self.policy = k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_level_accounting() {
        let l = Level::new(0, 1000, 2);
        assert_eq!(l.data_bytes(), 0);
        assert_eq!(l.run_count(), 0);
        assert_eq!(l.fill_ratio(), 0.0);
        assert!(!l.is_full());
        assert_eq!(l.active_capacity(), 500);
    }

    #[test]
    fn active_capacity_follows_policy() {
        let mut l = Level::new(0, 1000, 1);
        assert_eq!(l.active_capacity(), 1000);
        l.policy = 4;
        assert_eq!(l.active_capacity(), 250);
        l.policy = 10;
        assert_eq!(l.active_capacity(), 100);
    }

    #[test]
    fn lazy_records_without_applying() {
        let mut l = Level::new(0, 1000, 2);
        l.apply_lazy(5);
        assert_eq!(l.policy, 2);
        assert_eq!(l.pending_policy, Some(5));
        l.adopt_pending_policy();
        assert_eq!(l.policy, 5);
        assert_eq!(l.pending_policy, None);
    }

    #[test]
    fn lazy_same_policy_clears_pending() {
        let mut l = Level::new(0, 1000, 2);
        l.apply_lazy(5);
        l.apply_lazy(2);
        assert_eq!(l.pending_policy, None);
    }

    #[test]
    fn flexible_changes_policy_immediately() {
        let mut l = Level::new(0, 1000, 2);
        l.apply_flexible(8);
        assert_eq!(l.policy, 8);
        assert_eq!(l.pending_policy, None);
        assert_eq!(l.active_capacity(), 125);
    }
}
