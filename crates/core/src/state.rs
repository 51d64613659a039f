//! RL state featurization (paper §5.1.1).
//!
//! "The state captures the parameters related to the FLSM-tree and the
//! workload within a mission. Our model state consists of internal
//! statistics of the LSM-tree, such as the number of read and write I/Os,
//! the level capacities, and the current compaction policies at each level.
//! It also includes workload statistics such as the read/write ratio in the
//! previous mission."
//!
//! All features are normalized to roughly `[0, 1]` so one network
//! architecture works across levels and scales.

use crate::stats::MissionReport;
use crate::tuner::TreeObservation;

/// Number of features in a per-level state vector.
pub const LEVEL_STATE_DIM: usize = 6;

/// Builds the state vector for `level` from the last mission's report and
/// the current tree observation.
pub fn level_state(report: &MissionReport, obs: &TreeObservation, level: usize) -> Vec<f32> {
    let t = obs.size_ratio as f32;
    let policy = obs.policies.get(level).copied().unwrap_or(1) as f32;
    let fill = obs.fills.get(level).copied().unwrap_or(0.0) as f32;
    let runs = obs.run_counts.get(level).copied().unwrap_or(0) as f32;
    let gamma = report.gamma() as f32;
    let ops = report.ops.max(1) as f64;
    let (reads_per_op, writes_per_op) = report
        .window
        .levels
        .get(level)
        .map(|l| {
            let read = l.lookup_pages + l.compact_pages_read;
            (read as f64 / ops, l.compact_pages_written as f64 / ops)
        })
        .unwrap_or((0.0, 0.0));
    vec![
        policy / t,
        gamma,
        fill.clamp(0.0, 1.5),
        runs / t,
        squash(reads_per_op),
        squash(writes_per_op),
    ]
}

/// Smoothly maps `[0, ∞)` to `[0, 1)`: `x / (1 + x)`.
fn squash(x: f64) -> f32 {
    (x / (1.0 + x)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruskey_lsm::{LevelStatsSnapshot, TreeStatsSnapshot};

    fn obs() -> TreeObservation {
        TreeObservation {
            policies: vec![2, 5],
            fills: vec![0.5, 0.9],
            run_counts: vec![2, 5],
            size_ratio: 10,
            level_count: 2,
        }
    }

    fn report() -> MissionReport {
        MissionReport {
            ops: 100,
            window: TreeStatsSnapshot {
                lookups: 50,
                updates: 50,
                levels: vec![
                    LevelStatsSnapshot {
                        lookup_pages: 100,
                        compact_pages_written: 50,
                        ..Default::default()
                    },
                    LevelStatsSnapshot {
                        lookup_pages: 300,
                        compact_pages_written: 10,
                        ..Default::default()
                    },
                ],
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn features_are_normalized() {
        let s = level_state(&report(), &obs(), 0);
        assert_eq!(s.len(), LEVEL_STATE_DIM);
        for (i, v) in s.iter().enumerate() {
            assert!((0.0..=1.5).contains(v), "feature {i} = {v} out of range");
        }
        assert!((s[0] - 0.2).abs() < 1e-6); // policy 2 / T 10
        assert!((s[1] - 0.5).abs() < 1e-6); // gamma
    }

    #[test]
    fn missing_level_defaults() {
        let s = level_state(&report(), &obs(), 7);
        assert_eq!(s[0], 0.1); // default policy 1 / T 10
        assert_eq!(s[4], 0.0);
        assert_eq!(s[5], 0.0);
    }

    #[test]
    fn squash_behaviour() {
        assert_eq!(squash(0.0), 0.0);
        assert!((squash(1.0) - 0.5).abs() < 1e-6);
        assert!(squash(1000.0) < 1.0);
    }
}
