//! The per-level white-box cost model (paper §5.2, Eq. 5).
//!
//! Expected time overhead per operation in level *i* with policy `K`:
//!
//! ```text
//!   f_i·I_r·K·γ            (query I/O: false positives read one page each)
//! + c_r·K·γ                (query CPU: probing K runs' metadata)
//! + (T·E)/(B·K)·(I_r+I_w)·(1−γ)   (update I/O: T/K compactions ·E/B pages)
//! + (T/K)·c_w·(1−γ)        (update CPU: merge work per participation)
//! ```
//!
//! Minimizing over `K` gives `K*² = X / (Y·T^{i−1} + Z)` with
//! `X = T·E·(I_r+I_w)·(1−γ) + T·B·c_w·(1−γ)`, `Y = B·f_1·I_r·γ`,
//! `Z = B·c_r·γ` — the basis of Lemma 5.1.

/// Parameters of the white-box model (notation of Table 1 / §5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Capacity ratio `T` between adjacent levels.
    pub size_ratio: f64,
    /// Entry size `E` in bytes.
    pub entry_bytes: f64,
    /// Page size `B` in bytes.
    pub page_bytes: f64,
    /// Average read-I/O time `I_r` (ns per page).
    pub read_io_ns: f64,
    /// Average write-I/O time `I_w` (ns per page).
    pub write_io_ns: f64,
    /// CPU cost `c_r` of probing one run's metadata (ns).
    pub cpu_probe_ns: f64,
    /// CPU cost `c_w` per key during compaction (ns).
    pub cpu_merge_ns: f64,
    /// Lookup fraction `γ` of the workload.
    pub gamma: f64,
}

/// Expected cost (ns) per operation contributed by one level with
/// false-positive rate `fpr` and policy `k` (Eq. 5).
pub fn level_cost_ns(p: &CostParams, fpr: f64, k: f64) -> f64 {
    assert!(k >= 1.0, "policy must be >= 1");
    let query_io = fpr * p.read_io_ns * k * p.gamma;
    let query_cpu = p.cpu_probe_ns * k * p.gamma;
    let upd = 1.0 - p.gamma;
    let update_io =
        (p.size_ratio * p.entry_bytes) / (p.page_bytes * k) * (p.read_io_ns + p.write_io_ns) * upd;
    let update_cpu = (p.size_ratio / k) * p.cpu_merge_ns * upd;
    query_io + query_cpu + update_io + update_cpu
}

/// The continuous optimal policy `K*` for a level with FPR `fpr`:
/// `K*² = [T·E·(I_r+I_w)·(1−γ) + T·B·c_w·(1−γ)] / [B·f·I_r·γ + B·c_r·γ]`.
///
/// Returns `f64::INFINITY` for a write-only workload (γ = 0): compaction
/// should be maximally lazy and the caller clamps to `T`.
pub fn optimal_k(p: &CostParams, fpr: f64) -> f64 {
    let upd = 1.0 - p.gamma;
    let x = p.size_ratio * p.entry_bytes * (p.read_io_ns + p.write_io_ns) * upd
        + p.size_ratio * p.page_bytes * p.cpu_merge_ns * upd;
    let denom =
        p.page_bytes * fpr * p.read_io_ns * p.gamma + p.page_bytes * p.cpu_probe_ns * p.gamma;
    if denom <= 0.0 {
        return f64::INFINITY;
    }
    (x / denom).sqrt()
}

/// The optimal integer policy clamped to `[1, T]`.
pub fn optimal_k_int(p: &CostParams, fpr: f64, t_max: u32) -> u32 {
    let k = optimal_k(p, fpr);
    if !k.is_finite() {
        return t_max;
    }
    (k.round() as i64).clamp(1, t_max as i64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CostParams {
        /// The paper's case-study constants with an NVMe-like device.
        fn paper_case_study(gamma: f64) -> Self {
            Self {
                size_ratio: 10.0,
                entry_bytes: 1024.0,
                page_bytes: 4096.0,
                read_io_ns: 25_000.0,
                write_io_ns: 20_000.0,
                cpu_probe_ns: 500.0,
                cpu_merge_ns: 200.0,
                gamma,
            }
        }
    }

    #[test]
    fn read_only_prefers_k_equals_one() {
        let p = CostParams::paper_case_study(0.999);
        let c1 = level_cost_ns(&p, 0.01, 1.0);
        let c10 = level_cost_ns(&p, 0.01, 10.0);
        assert!(c1 < c10, "read-heavy should prefer aggressive compaction");
        assert!(optimal_k(&p, 0.01) < 2.0);
    }

    #[test]
    fn write_only_prefers_k_equals_t() {
        let p = CostParams::paper_case_study(0.001);
        let c1 = level_cost_ns(&p, 0.01, 1.0);
        let c10 = level_cost_ns(&p, 0.01, 10.0);
        assert!(c10 < c1, "write-heavy should prefer lazy compaction");
        assert!(optimal_k(&p, 0.01) > 10.0);
        assert_eq!(optimal_k_int(&p, 0.01, 10), 10);
    }

    #[test]
    fn gamma_zero_is_infinite() {
        let p = CostParams::paper_case_study(0.0);
        assert!(!optimal_k(&p, 0.01).is_finite());
        assert_eq!(optimal_k_int(&p, 0.01, 10), 10);
    }

    #[test]
    fn optimum_minimizes_the_curve() {
        let p = CostParams::paper_case_study(0.5);
        let fpr = 0.01;
        let kstar = optimal_k(&p, fpr);
        let c_star = level_cost_ns(&p, fpr, kstar.max(1.0));
        for k in [1.0, 2.0, 3.0, 5.0, 8.0, 10.0] {
            assert!(
                c_star <= level_cost_ns(&p, fpr, k) + 1e-9,
                "K*={kstar} not optimal vs K={k}"
            );
        }
    }

    #[test]
    fn higher_fpr_pushes_k_down() {
        // A level with worse filters pays more per run probed, so the
        // optimal policy is more aggressive (smaller K).
        let p = CostParams::paper_case_study(0.5);
        assert!(optimal_k(&p, 0.1) < optimal_k(&p, 0.001));
    }
}
