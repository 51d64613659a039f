//! The one way an operation runs against a shard's tree.
//!
//! Every door into a tree — a mission lane, the standalone group-commit
//! barrier, an ad-hoc `get`/`put`/`delete`/`scan`, a served request, and
//! [`RusKey::run_mission`](crate::db::RusKey::run_mission) — is the same
//! three calls in the same order:
//!
//! 1. [`execute`] each [`Operation`] (the only place that maps an
//!    operation kind onto `FlsmTree::{get, put, delete, scan}`);
//! 2. the boundary grant, [`FlsmTree::maintain_boundary`] (the tree owns
//!    how much deferred structural work a boundary pays down);
//! 3. the commit leg, the shard's at-most-one-fsync group commit:
//!    [`FlsmTree::commit_wal`], which is `begin_commit`, the fsync and
//!    `finish_commit` back to back.
//!
//! A [`Door`] names the caller and so which of the optional parts it takes:
//!
//! | door                    | keep results | boundary grant      | commit leg                   |
//! |-------------------------|--------------|---------------------|------------------------------|
//! | mission lane, `RusKey`  | no           | yes                 | yes ([`commit_leg`])         |
//! | `group_commit`          | — (no ops)   | no                  | yes ([`commit_leg`])         |
//! | ad-hoc op               | yes (one)    | every 32nd write    | no                           |
//! | served request          | yes (one)    | yes                 | iff a write; halves split    |
//!
//! The first three run through [`run_batch`] on the shard's pool worker.
//! A served request runs on its client's thread under the shard's lock
//! ([`crate::frontend`]) and makes the same three calls itself, because it
//! takes the commit leg in its two halves: `begin_commit` before the
//! unlock, the fsync — shared with every writer waiting on the shard —
//! and `finish_commit` after it.

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
pub(crate) fn execute(tree: &mut FlsmTree, op: Operation) -> OpResult {
    match op {
        Operation::Get { key } => OpResult::Value(tree.get(&key)),
        Operation::Put { key, value } => {
            tree.put(key, value);
            OpResult::Written
        }
        Operation::Delete { key } => {
            tree.delete(key);
            OpResult::Written
        }
        Operation::Scan { start, end, limit } => OpResult::Rows(tree.scan(&start, &end, limit)),
    }
}

/// The doors that run a batch through the path, each fixing which of
/// the optional parts it takes (module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Door {
    /// A mission lane: results dropped (reads run for their cost), then
    /// the boundary grant, then the commit leg.
    Lane,
    /// The standalone barrier: the empty batch, commit leg only.
    Commit,
    /// An ad-hoc call: its results come home, durability waits for the
    /// next barrier, and the caller says whether this write is a boundary.
    Adhoc { boundary: bool },
}

/// Outcome of one shard's commit leg.
#[derive(Debug, Default)]
pub(crate) struct CommitLeg {
    /// Whether an fsync was issued (idle shards skip theirs).
    pub(crate) synced: bool,
    /// Virtual ns the leg added to the shard's time domain.
    pub(crate) ns: u64,
    /// A real I/O failure; the batch is not acknowledged.
    pub(crate) error: Option<std::io::Error>,
}

/// Runs one shard's commit leg, measured on the tree's own time domain.
pub(crate) fn commit_leg(tree: &mut FlsmTree) -> CommitLeg {
    match tree.commit_wal_timed() {
        Ok((synced, ns)) => CommitLeg {
            synced,
            ns,
            error: None,
        },
        Err(error) => CommitLeg {
            error: Some(error),
            ..CommitLeg::default()
        },
    }
}

/// What a batch reports home: its commit leg and, for a door that keeps
/// them, one result per operation in order.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    pub(crate) commit: CommitLeg,
    pub(crate) results: Vec<OpResult>,
}

/// Runs a batch through the path: execute every operation, grant the
/// boundary, run the commit leg — the last two as the door asks.
pub(crate) fn run_batch(
    tree: &mut FlsmTree,
    ops: impl IntoIterator<Item = Operation>,
    door: Door,
) -> Outcome {
    let (keep, boundary, commit) = match door {
        Door::Lane => (false, true, true),
        Door::Commit => (false, false, true),
        Door::Adhoc { boundary } => (true, boundary, false),
    };
    let mut out = Outcome::default();
    for op in ops {
        let result = execute(tree, op);
        if keep {
            out.results.push(result);
        }
    }
    if boundary {
        tree.maintain_boundary();
    }
    if commit {
        out.commit = commit_leg(tree);
    }
    out
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
            assert_eq!(execute(&mut tree, put), OpResult::Written);
        }
        let get = |tree: &mut FlsmTree, k: &str| execute(tree, Operation::Get { key: b(k) });
        assert_eq!(get(&mut tree, "b").value(), Some(b("v-b")), "hit");
        assert_eq!(get(&mut tree, "zz"), OpResult::Value(None), "miss");
        assert_eq!(
            execute(&mut tree, Operation::Delete { key: b("b") }),
            OpResult::Written
        );
        assert_eq!(get(&mut tree, "b"), OpResult::Value(None), "tombstoned");
        let scan = Operation::Scan {
            start: b("a"),
            end: b("z"),
            limit: 2,
        };
        assert_eq!(
            execute(&mut tree, scan).rows(),
            vec![(b("a"), b("v-a")), (b("c"), b("v-c"))],
            "the limited scan skips the tombstone and stops at two rows"
        );
    }

    /// A door that keeps results gets one per operation, in order; one
    /// that does not gets none. Without a WAL the commit leg is free.
    #[test]
    fn run_batch_keeps_results_only_when_asked() {
        let mut tree = FlsmTree::new(
            LsmConfig::scaled_default(),
            SimulatedDisk::new(512, CostModel::NVME),
        );
        let ops = || {
            vec![
                Operation::Put {
                    key: b("k"),
                    value: b("v"),
                },
                Operation::Get { key: b("k") },
            ]
        };
        let kept = run_batch(&mut tree, ops(), Door::Adhoc { boundary: false });
        assert_eq!(
            kept.results,
            vec![OpResult::Written, OpResult::Value(Some(b("v")))]
        );
        let lane = run_batch(&mut tree, ops(), Door::Lane);
        assert!(lane.results.is_empty());
        assert!(!lane.commit.synced && lane.commit.error.is_none());
    }
}
