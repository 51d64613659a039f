//! The experiment harness behind every paper figure and table.
//!
//! An experiment is a roster of tuners, each run over a mission schedule
//! on its own freshly loaded store: [`prepared_store`] opens and loads the
//! store, and [`run`] — the one harness loop — runs it over the schedule,
//! recording per mission exactly the series the paper plots. A schedule
//! is any iterator of `(session, ops)`: a static mix is
//! [`ExperimentScale::static_missions`], a dynamic one a
//! [`DynamicWorkload`](ruskey_workload::DynamicWorkload).

use std::sync::Arc;

use ruskey::db::RusKeyConfig;
use ruskey::sharded::{Backend, RusKey};
use ruskey::stats::MissionReport;
use ruskey::tuner::Tuner;
use ruskey_storage::{CostModel, SimulatedDisk, Storage};
use ruskey_workload::{bulk_load_pairs, OpGenerator, Operation, WorkloadSpec};

use crate::percentile::tail_mean;

/// One point of an experiment time series.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionRecord {
    /// Mission ordinal.
    pub mission: usize,
    /// Session index (0 for static workloads).
    pub session: usize,
    /// Mean latency per operation (virtual ms, as the paper plots).
    pub latency_ms_per_op: f64,
    /// Mission write latency total (virtual seconds) — Fig. 10(a).
    pub write_latency_s: f64,
    /// Mission read latency total (virtual seconds) — Fig. 10(b).
    pub read_latency_s: f64,
    /// Policy of Level 1 after tuning (the paper's policy trace subplots).
    pub policy_l1: u32,
    /// All per-level policies after tuning.
    pub policies: Vec<u32>,
    /// Model update time in real ns (Fig. 13).
    pub model_update_ns: u64,
    /// Whether the tuner reported convergence after this mission.
    pub converged: bool,
}

impl MissionRecord {
    /// The record of one mission's report, in session `session`.
    pub(crate) fn from_report(report: &MissionReport, session: usize, converged: bool) -> Self {
        // Split the mission's virtual time into read- and write-attributed
        // shares using per-level accounting (lookups vs compactions); the
        // memtable/cpu remainder goes to writes.
        let lookup_ns: u64 = report.window.levels.iter().map(|l| l.lookup_ns).sum();
        let write_ns = report.window.clock_ns.saturating_sub(lookup_ns);
        Self {
            mission: report.mission_idx as usize,
            session,
            latency_ms_per_op: report.ns_per_op() / 1e6,
            write_latency_s: write_ns as f64 / 1e9,
            read_latency_s: lookup_ns as f64 / 1e9,
            policy_l1: report.policies_after.first().copied().unwrap_or(1),
            policies: report.policies_after.clone(),
            model_update_ns: report.model_update_ns,
            converged,
        }
    }
}

/// Shared experiment scale parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentScale {
    /// Entries bulk-loaded before the workload (paper: 100 M; scaled).
    pub load_entries: u64,
    /// Operations per mission (paper: 50 000; scaled).
    pub mission_size: usize,
    /// Missions per static experiment / per session.
    pub missions: usize,
    /// Key length in bytes.
    pub key_len: usize,
    /// Value length in bytes.
    pub value_len: usize,
    /// Storage page size.
    pub page_size: usize,
    /// Device cost model.
    pub cost: CostModel,
    /// Workload RNG seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// The default scaled-down experiment: ~20 k keys, 1 000-op missions.
    pub fn small() -> Self {
        Self {
            load_entries: 20_000,
            mission_size: 1000,
            missions: 120,
            key_len: 16,
            value_len: 112,
            page_size: 4096,
            cost: CostModel::NVME,
            seed: 42,
        }
    }

    /// A tiny scale for tests.
    pub fn tiny() -> Self {
        Self {
            load_entries: 2_000,
            mission_size: 200,
            missions: 20,
            ..Self::small()
        }
    }

    /// The workload spec implied by this scale.
    pub fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            key_space: self.load_entries,
            key_len: self.key_len,
            value_len: self.value_len,
            ..WorkloadSpec::scaled_default(self.load_entries)
        }
    }

    /// Creates a fresh simulated disk for one run.
    pub fn disk(&self) -> Arc<dyn Storage> {
        SimulatedDisk::new(self.page_size, self.cost)
    }

    /// A static mix's schedule: `missions` missions of `mission_size`
    /// operations drawn from `spec`, all in session 0.
    pub fn static_missions(
        &self,
        spec: WorkloadSpec,
    ) -> impl Iterator<Item = (usize, Vec<Operation>)> {
        let mut generator = OpGenerator::new(spec, self.seed.wrapping_add(1));
        let mission_size = self.mission_size;
        (0..self.missions).map(move |_| (0, generator.take_ops(mission_size)))
    }
}

/// Builds a one-shard store with the given tuner on `storage`, bulk-loaded
/// with the scale's entries.
///
/// # Panics
/// Panics if the configuration is invalid.
pub fn prepared_store(
    cfg: RusKeyConfig,
    scale: &ExperimentScale,
    tuner: Box<dyn Tuner>,
    storage: Arc<dyn Storage>,
) -> RusKey {
    let mut db = RusKey::open(cfg, 1, tuner, Backend::Volatile(vec![storage]))
        .unwrap_or_else(|e| panic!("invalid RusKeyConfig: {e}"));
    db.bulk_load(bulk_load_pairs(
        scale.load_entries,
        scale.key_len,
        scale.value_len,
        scale.seed,
    ));
    db
}

/// Runs `db` over a mission schedule of `(session, ops)` and returns the
/// mission series.
pub fn run(
    mut db: RusKey,
    missions: impl IntoIterator<Item = (usize, Vec<Operation>)>,
) -> Vec<MissionRecord> {
    missions
        .into_iter()
        .map(|(session, ops)| {
            let report = db.run_mission(&ops);
            MissionRecord::from_report(&report, session, db.tuner_converged())
        })
        .collect()
}

/// Mean latency per op (ms) over the converged tail of a series — the
/// paper's ranking metric ("average time cost per operation after the RL
/// model is converged in each session"): the [`tail_mean`] of its
/// latencies.
pub(crate) fn converged_mean_latency(records: &[MissionRecord], tail_fraction: f64) -> f64 {
    let latencies: Vec<f64> = records.iter().map(|r| r.latency_ms_per_op).collect();
    tail_mean(&latencies, tail_fraction)
}

/// Ranks methods by a metric (1 = best/lowest). Ties share the better rank;
/// a NaN (a method with no data) ranks after every number, tied with every
/// other NaN.
pub(crate) fn rank(values: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        let (x, y) = (values[a], values[b]);
        x.is_nan().cmp(&y.is_nan()).then(x.total_cmp(&y))
    });
    let mut ranks = vec![0usize; values.len()];
    for (pos, &i) in idx.iter().enumerate() {
        // Share rank with an equal-valued predecessor; NaNs are all equal.
        let tied_with = |j: usize| {
            let (p, v) = (values[j], values[i]);
            (v - p).abs() < 1e-12 || p.is_nan() && v.is_nan()
        };
        ranks[i] = match pos.checked_sub(1).map(|p| idx[p]) {
            Some(j) if tied_with(j) => ranks[j],
            _ => pos + 1,
        };
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruskey::tuner::{FixedPolicy, NoOpTuner};
    use ruskey_workload::OpMix;

    fn quick_cfg() -> RusKeyConfig {
        let mut cfg = RusKeyConfig::scaled_default();
        cfg.lsm.buffer_bytes = 8192;
        cfg.lsm.size_ratio = 5;
        cfg
    }

    fn run_mix(
        scale: &ExperimentScale,
        tuner: Box<dyn Tuner>,
        spec: WorkloadSpec,
    ) -> Vec<MissionRecord> {
        let db = prepared_store(quick_cfg(), scale, tuner, scale.disk());
        run(db, scale.static_missions(spec))
    }

    #[test]
    fn static_run_produces_series() {
        let scale = ExperimentScale::tiny();
        let spec = scale.spec().with_mix(OpMix::balanced());
        let records = run_mix(&scale, Box::new(NoOpTuner), spec);
        assert_eq!(records.len(), scale.missions);
        assert!(records.iter().all(|r| r.latency_ms_per_op > 0.0));
        assert!(records.iter().all(|r| r.session == 0));
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.mission, i);
        }
    }

    #[test]
    fn aggressive_beats_lazy_on_reads() {
        // The core trade-off the whole paper rests on: K=1 must out-read
        // K=T, and K=T must out-write K=1.
        let scale = ExperimentScale {
            load_entries: 4000,
            mission_size: 400,
            missions: 12,
            ..ExperimentScale::tiny()
        };
        let read_spec = scale.spec().with_mix(OpMix::reads(0.95));
        let r_aggr = run_mix(&scale, Box::new(FixedPolicy::new(1)), read_spec.clone());
        let r_lazy = run_mix(&scale, Box::new(FixedPolicy::new(5)), read_spec);
        let a = converged_mean_latency(&r_aggr, 0.5);
        let l = converged_mean_latency(&r_lazy, 0.5);
        assert!(a < l, "aggressive {a} should beat lazy {l} on reads");

        let write_spec = scale.spec().with_mix(OpMix::reads(0.05));
        let w_aggr = run_mix(&scale, Box::new(FixedPolicy::new(1)), write_spec.clone());
        let w_lazy = run_mix(&scale, Box::new(FixedPolicy::new(5)), write_spec);
        let a = converged_mean_latency(&w_aggr, 0.5);
        let l = converged_mean_latency(&w_lazy, 0.5);
        assert!(l < a, "lazy {l} should beat aggressive {a} on writes");
    }

    #[test]
    fn rank_handles_ties() {
        assert_eq!(rank(&[3.0, 1.0, 2.0]), vec![3, 1, 2]);
        assert_eq!(rank(&[1.0, 1.0, 2.0]), vec![1, 1, 3]);
    }

    #[test]
    fn a_method_without_data_ranks_last() {
        assert_eq!(rank(&[1.0, f64::NAN, 0.5]), vec![2, 3, 1]);
        // Two methods without data tie, after every method with data.
        assert_eq!(rank(&[f64::NAN, 1.0, -f64::NAN]), vec![2, 1, 2]);
        assert_eq!(rank(&[f64::NAN, f64::NAN]), vec![1, 1]);
    }

    #[test]
    fn converged_tail_mean() {
        let mk = |l: f64| MissionRecord {
            mission: 0,
            session: 0,
            latency_ms_per_op: l,
            write_latency_s: 0.0,
            read_latency_s: 0.0,
            policy_l1: 1,
            policies: vec![],
            model_update_ns: 0,
            converged: true,
        };
        let records = vec![mk(10.0), mk(2.0), mk(4.0)];
        assert!((converged_mean_latency(&records, 0.5) - 3.0).abs() < 1e-9);
        assert!((converged_mean_latency(&records, 1.0) - 16.0 / 3.0).abs() < 1e-9);
    }
}
