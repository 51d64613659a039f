//! Ablation studies for the reproduction's design choices.
//!
//! Not figures from the paper, but experiments that probe its claims:
//!
//! * **Block cache** — §1.2 motivates black-box tuning partly because
//!   caches defeat white-box formulas; we measure how a page cache shifts
//!   the optimal policy.
//! * **Device cost model** — §1.2 cites Zhu et al.: on fast devices CPU
//!   (Bloom hashing) can dominate I/O; we sweep cost models and report how
//!   the white-box optimum moves.
//! * **Reward mix α** — the weight between level-local and end-to-end
//!   latency in Lerp's reward (§5.1.3).

use std::sync::Arc;

use ruskey::lerp::{Lerp, LerpConfig, PropagationScheme};
use ruskey::tuner::FixedPolicy;
use ruskey::RusKeyConfig;
use ruskey_analysis::cost::{optimal_k_int, CostParams};
use ruskey_lsm::bloom::fpr_for_bits;
use ruskey_storage::{BlockCache, CostModel, SimulatedDisk, Storage};
use ruskey_workload::OpMix;

use crate::claims::{ClaimRow, Outcome};
use crate::runner::{converged_mean_latency, prepared_store, run, ExperimentScale};

/// Every ablation's rows: the block cache, the device cost model and the
/// reward mix.
pub fn ablations(scale: &ExperimentScale) -> Outcome {
    let mut rows = ablation_cache(scale);
    rows.extend(ablation_cost_model());
    rows.extend(ablation_alpha(scale));
    Outcome {
        rows,
        ..Outcome::default()
    }
}

/// Effect of an LRU block cache on the read/write trade-off: the same
/// fixed policies measured with and without a cache, as
/// `ablation.<cache>.k<K>` tail ms/op.
fn ablation_cache(scale: &ExperimentScale) -> Vec<ClaimRow> {
    let mut rows = Vec::new();
    for (label, cache_pages) in [("no-cache", 0usize), ("cache-1k-pages", 1024)] {
        for k in [1u32, 5, 10] {
            let base = SimulatedDisk::new(scale.page_size, scale.cost);
            let storage: Arc<dyn Storage> = if cache_pages > 0 {
                BlockCache::new(base, cache_pages)
            } else {
                base
            };
            let cfg = RusKeyConfig::scaled_default();
            let db = prepared_store(cfg, scale, Box::new(FixedPolicy::new(k)), storage);
            let spec = scale.spec().with_mix(OpMix::balanced());
            let latencies: Vec<f64> = run(db, scale.static_missions(spec))
                .iter()
                .map(|r| r.latency_ms_per_op)
                .collect();
            let tail = crate::tail_mean(&latencies, 1.0 / 3.0);
            rows.push(ClaimRow::recorded(format!("ablation.{label}.k{k}"), tail));
        }
    }
    rows
}

/// The white-box optimal K (Eq. 5, Lemma 5.1) at T = 10 on a device
/// `cost`, for a workload whose share of point lookups is `gamma`.
pub fn whitebox_k(cost: &CostModel, gamma: f64) -> u32 {
    let p = CostParams {
        size_ratio: 10.0,
        entry_bytes: 143.0,
        page_bytes: 4096.0,
        read_io_ns: cost.read_page_ns as f64,
        write_io_ns: cost.write_page_ns as f64,
        cpu_probe_ns: cost.cpu_probe_ns as f64,
        cpu_merge_ns: cost.cpu_merge_per_key_ns as f64,
        gamma,
    };
    optimal_k_int(&p, fpr_for_bits(8.0), 10)
}

/// How the white-box optimal policy moves across device cost models — the
/// Zhu-et-al. CPU-dominance point from §1.2: `ablation.whitebox_k.<device>.
/// gamma<γ>`, for a read-heavy, balanced and write-heavy γ in that order.
fn ablation_cost_model() -> Vec<ClaimRow> {
    let mut rows = Vec::new();
    for (device, cost) in [
        ("NVMe", CostModel::NVME),
        ("SATA-SSD", CostModel::SATA_SSD),
        ("CPU-bound", CostModel::CPU_BOUND),
    ] {
        for gamma in [0.9, 0.5, 0.1] {
            let id = format!("ablation.whitebox_k.{device}.gamma{gamma}");
            rows.push(ClaimRow::recorded(id, whitebox_k(&cost, gamma).into()));
        }
    }
    rows
}

/// Reward mix α sweep: how strongly the level-local latency is weighted in
/// Lerp's reward (§5.1.3; the paper uses 1/2, this reproduction 0.85 —
/// see [`LerpConfig::paper_default`]). Per α: the tail ms/op, the mission
/// Lerp converged at (none if it did not) and its final K(L1).
fn ablation_alpha(scale: &ExperimentScale) -> Vec<ClaimRow> {
    let mut rows = Vec::new();
    for alpha in [0.25, 0.5, 0.85, 1.0] {
        let mut cfg = LerpConfig::paper_default(PropagationScheme::Uniform);
        cfg.alpha = alpha;
        cfg.seed = scale.seed;
        let spec = scale.spec().with_mix(OpMix::write_heavy());
        let lerp = Box::new(Lerp::new(cfg));
        let db = prepared_store(RusKeyConfig::scaled_default(), scale, lerp, scale.disk());
        let records = run(db, scale.static_missions(spec));
        let converged_at = records.iter().position(|r| r.converged);
        let final_k1 = records.last().map_or(1, |r| r.policy_l1);
        let id = format!("ablation.alpha{alpha}");
        rows.extend([
            ClaimRow::recorded(
                format!("{id}.tail_ms"),
                converged_mean_latency(&records, 0.3),
            ),
            ClaimRow::recorded(
                format!("{id}.converged_at"),
                converged_at.map_or(f64::NAN, |m| m as f64),
            ),
            ClaimRow::recorded(format!("{id}.final_k1"), final_k1.into()),
        ]);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_sweep_shapes() {
        let rows = ablation_cost_model();
        assert_eq!(rows.len(), 9);
        for device in rows.chunks(3) {
            let (k_read, k_bal, k_write) = (device[0].ours, device[1].ours, device[2].ours);
            // More reads -> more aggressive compaction (never the reverse).
            assert!(
                k_read <= k_bal && k_bal <= k_write,
                "{}: {k_read} {k_bal} {k_write}",
                device[0].id
            );
        }
    }

    #[test]
    fn cache_ablation_runs_tiny() {
        let scale = ExperimentScale {
            load_entries: 1500,
            mission_size: 100,
            missions: 4,
            ..ExperimentScale::tiny()
        };
        let rows = ablation_cache(&scale);
        assert_eq!(rows.len(), 6);
        for r in rows {
            assert!(r.ours > 0.0, "{}", r.id);
        }
    }
}
