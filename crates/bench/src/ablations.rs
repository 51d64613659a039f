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

use crate::runner::{converged_mean_latency, prepared_store, run, ExperimentScale};

/// Result row shared by the ablations.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Tail mean latency (ms/op).
    pub tail_latency_ms: f64,
    /// Mission index at convergence (if converged).
    pub converged_at: Option<usize>,
    /// Final Level-1 policy.
    pub final_k1: u32,
}

/// Effect of an LRU block cache on the read/write trade-off: the same
/// fixed policies measured with and without a cache.
pub fn ablation_cache(scale: &ExperimentScale) -> Vec<AblationRow> {
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
            rows.push(AblationRow {
                label: format!("{label}/K={k}"),
                tail_latency_ms: crate::tail_mean(&latencies, 1.0 / 3.0),
                converged_at: None,
                final_k1: k,
            });
        }
    }
    rows
}

/// How the white-box optimal policy moves across device cost models — the
/// Zhu-et-al. CPU-dominance point from §1.2.
pub fn ablation_cost_model() -> Vec<(String, u32, u32, u32)> {
    let fpr = fpr_for_bits(8.0);
    [
        ("NVMe", CostModel::NVME),
        ("SATA-SSD", CostModel::SATA_SSD),
        ("CPU-bound", CostModel::CPU_BOUND),
    ]
    .iter()
    .map(|(label, cm)| {
        let k_for = |gamma: f64| {
            let p = CostParams {
                size_ratio: 10.0,
                entry_bytes: 143.0,
                page_bytes: 4096.0,
                read_io_ns: cm.read_page_ns as f64,
                write_io_ns: cm.write_page_ns as f64,
                cpu_probe_ns: cm.cpu_probe_ns as f64,
                cpu_merge_ns: cm.cpu_merge_per_key_ns as f64,
                gamma,
            };
            optimal_k_int(&p, fpr, 10)
        };
        (label.to_string(), k_for(0.9), k_for(0.5), k_for(0.1))
    })
    .collect()
}

/// Reward mix α sweep: how strongly the level-local latency is weighted in
/// Lerp's reward (§5.1.3; the paper uses 1/2, this reproduction 0.85 —
/// see [`LerpConfig::paper_default`]).
pub fn ablation_alpha(scale: &ExperimentScale) -> Vec<AblationRow> {
    [0.25, 0.5, 0.85, 1.0]
        .iter()
        .map(|&alpha| {
            let mut cfg = LerpConfig::paper_default(PropagationScheme::Uniform);
            cfg.alpha = alpha;
            cfg.seed = scale.seed;
            let spec = scale.spec().with_mix(OpMix::write_heavy());
            let lerp = Box::new(Lerp::new(cfg));
            let db = prepared_store(RusKeyConfig::scaled_default(), scale, lerp, scale.disk());
            let records = run(db, scale.static_missions(spec));
            AblationRow {
                label: format!("alpha={alpha}"),
                tail_latency_ms: converged_mean_latency(&records, 0.3),
                converged_at: records.iter().position(|r| r.converged),
                final_k1: records.last().map_or(1, |r| r.policy_l1),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_sweep_shapes() {
        let rows = ablation_cost_model();
        assert_eq!(rows.len(), 3);
        for (label, k_read, k_bal, k_write) in &rows {
            assert!(!label.is_empty());
            // More reads -> more aggressive compaction (never the reverse).
            assert!(
                k_read <= k_bal && k_bal <= k_write,
                "{label}: {k_read} {k_bal} {k_write}"
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
            assert!(r.tail_latency_ms > 0.0, "{}", r.label);
        }
    }
}
