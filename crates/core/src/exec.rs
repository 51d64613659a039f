//! The one way an operation runs against a shard's tree.
//!
//! Every door into a tree — a mission lane, the standalone group-commit
//! barrier, an ad-hoc `get`/`put`/`delete`/`scan`, a served request — is
//! the same three calls in the same order (the paper's one-shard store
//! has no door of its own: its missions are lanes and its plain calls
//! are ad-hoc ops):
//!
//! 1. [`execute`] each [`Operation`] (the only place that maps an
//!    operation kind onto `FlsmTree::{get, put, delete, scan}`; a lane,
//!    which keeps no result, drains its scans instead of collecting them);
//! 2. the boundary grant, [`FlsmTree::maintain_boundary`] (the tree owns
//!    how much deferred structural work a boundary pays down);
//! 3. the commit leg, the shard's at-most-one-fsync group commit:
//!    [`FlsmTree::commit_wal`], which is `begin_commit`, the fsync and
//!    `finish_commit` back to back.
//!
//! Which of the three a caller takes depends only on what it is, and a
//! dead shard — its fault plan killed by a crash, a failed call or a
//! panic — runs nothing at any door:
//!
//! | door                 | operations | boundary grant                        | commit leg                                   | on a dead shard                                |
//! |----------------------|------------|---------------------------------------|----------------------------------------------|------------------------------------------------|
//! | mission lane         | its lane   | yes                                   | yes                                          | fails                                          |
//! | `group_commit`       | none       | no                                    | yes                                          | fails                                          |
//! | ad-hoc op, served op | one        | ad-hoc: every 32nd write; served: yes | ad-hoc: no; served: iff a write, by a syncer | ad-hoc: write dropped, read panics; `Stopped`  |
//!
//! The first two are [`run_batch`], run by the store's lane runner on a
//! `&mut` borrow of the shard's tree (lane 0 on the mission's caller, the
//! others on scoped threads). An ad-hoc call makes the calls itself on the
//! caller's thread, because it keeps its one result and leaves durability
//! to the next barrier. The store-wide ad-hoc scan is the one exception
//! to [`execute`]: it streams every shard at once through
//! `FlsmTree::range_scan`, the lazy form of `FlsmTree::scan`, so that no
//! shard's rows are materialized beside the merged result (it writes
//! nothing, so it has no boundary and no commit leg either way). A served
//! request makes the calls under the shard's
//! lock ([`crate::frontend`]), taking the commit leg in its two halves
//! around the unlock: `begin_commit` writes its record to the file, and
//! the shard's one syncer at a time runs the fsync — covering every
//! writer queued behind it — and `finish_commit`.
//!
//! Operations are **borrowed** all the way down: a lane is a `Vec` of
//! references into the slice `run_mission` was given (the scoped lane
//! threads end before that borrow does), a broadcast scan is one operation
//! every lane points at, and [`execute`] bumps a key's or value's refcount
//! only where the tree keeps it (a put, a delete).

use bytes::Bytes;
use ruskey_lsm::FlsmTree;
use ruskey_workload::Operation;

/// What one executed [`Operation`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum OpResult {
    /// A get's value (`None`: absent or tombstoned).
    Value(Option<Bytes>),
    /// A put or delete was applied.
    Written,
    /// A scan's sorted rows.
    Rows(Vec<(Bytes, Bytes)>),
}

impl OpResult {
    /// A get's value. [`execute`] pairs result kinds with operation kinds,
    /// so any other kind here is a bug in the caller.
    pub(crate) fn value(self) -> Option<Bytes> {
        match self {
            OpResult::Value(v) => v,
            other => unreachable!("a get yields a value, not {other:?}"),
        }
    }

    /// A scan's rows (see [`OpResult::value`] for the contract).
    pub(crate) fn rows(self) -> Vec<(Bytes, Bytes)> {
        match self {
            OpResult::Rows(rows) => rows,
            other => unreachable!("a scan yields rows, not {other:?}"),
        }
    }
}

/// Executes one operation against a tree.
pub(crate) fn execute(tree: &mut FlsmTree, op: &Operation) -> OpResult {
    match op {
        Operation::Get { key } => OpResult::Value(tree.get(key)),
        Operation::Put { key, value } => {
            tree.put(key.clone(), value.clone());
            OpResult::Written
        }
        Operation::Delete { key } => {
            tree.delete(key.clone());
            OpResult::Written
        }
        Operation::Scan { start, end, limit } => OpResult::Rows(tree.scan(start, end, *limit)),
    }
}

/// Runs a batch through the path: run every operation, grant the boundary
/// if this batch ends in one, run the commit leg. Returns the virtual ns
/// the leg added to the shard's time domain, or the error that left the
/// batch unacknowledged. The barrier is the empty batch without a
/// boundary. A lane's reads run for their cost and build
/// no results: a get's value is dropped, and a scan is drained
/// ([`ruskey_lsm::RangeScan::drain`]), reading the pages a collected scan
/// reads without slicing a row out of them.
///
/// A shard whose fault plan is dead runs nothing: the batch fails at once
/// ([`FlsmTree::alive`]), as a served request on it is refused, so no
/// lane reads a tree its process died inside.
pub(crate) fn run_batch<'a>(
    tree: &mut FlsmTree,
    ops: impl IntoIterator<Item = &'a Operation>,
    boundary: bool,
) -> std::io::Result<u64> {
    tree.alive()?;
    for op in ops {
        if let Operation::Scan { start, end, limit } = op {
            tree.range_scan(start, end, *limit).drain();
        } else {
            execute(tree, op);
        }
    }
    if boundary {
        tree.maintain_boundary();
    }
    tree.commit_wal_timed().map(|(_, ns)| ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruskey_lsm::LsmConfig;
    use ruskey_storage::{CostModel, SimulatedDisk};

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// Each operation kind yields its matching result kind: hit, miss,
    /// tombstoned key, and a scan cut off by its limit.
    #[test]
    fn each_operation_kind_yields_its_result() {
        let mut tree = FlsmTree::new(
            LsmConfig::scaled_default(),
            SimulatedDisk::new(512, CostModel::NVME),
        );
        for k in ["a", "b", "c", "d"] {
            let put = Operation::Put {
                key: b(k),
                value: b(&format!("v-{k}")),
            };
            assert_eq!(execute(&mut tree, &put), OpResult::Written);
        }
        let get = |tree: &mut FlsmTree, k: &str| execute(tree, &Operation::Get { key: b(k) });
        assert_eq!(get(&mut tree, "b").value(), Some(b("v-b")), "hit");
        assert_eq!(get(&mut tree, "zz"), OpResult::Value(None), "miss");
        assert_eq!(
            execute(&mut tree, &Operation::Delete { key: b("b") }),
            OpResult::Written
        );
        assert_eq!(get(&mut tree, "b"), OpResult::Value(None), "tombstoned");
        let scan = Operation::Scan {
            start: b("a"),
            end: b("z"),
            limit: 2,
        };
        assert_eq!(
            execute(&mut tree, &scan).rows(),
            vec![(b("a"), b("v-a")), (b("c"), b("v-c"))],
            "the limited scan skips the tombstone and stops at two rows"
        );
    }

    /// A batch applies every operation in order and ends in the commit
    /// leg, which is free without a WAL; the empty batch is the barrier.
    #[test]
    fn run_batch_applies_every_operation_then_commits() {
        let mut tree = FlsmTree::new(
            LsmConfig::scaled_default(),
            SimulatedDisk::new(512, CostModel::NVME),
        );
        let ops = vec![
            Operation::Put {
                key: b("k"),
                value: b("v"),
            },
            Operation::Put {
                key: b("k"),
                value: b("w"),
            },
            Operation::Delete { key: b("gone") },
        ];
        assert_eq!(run_batch(&mut tree, &ops, true).unwrap(), 0);
        let get = Operation::Get { key: b("k") };
        assert_eq!(execute(&mut tree, &get).value(), Some(b("w")));
        assert_eq!(run_batch(&mut tree, [], false).unwrap(), 0);
    }
}
