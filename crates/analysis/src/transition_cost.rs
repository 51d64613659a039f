//! Transition cost, delay, and additional cost (paper §4.3, Table 2).
//!
//! | Transition | Cost | Delay (s) | Additional cost (I/Os) |
//! |---|---|---|---|
//! | Greedy | `C/2B` | 0 | `TC(1−x)/(2BK)` (either direction) |
//! | Lazy | 0 | `C/(2·N_u·E)` | `K<K'`: `TC(1−x)(K'−K)/(2BKK')`; `K>K'`: `fC(1−x²)(K−K')γ/(2E(1−γ))` |
//! | Flexible | 0 | 0 | `K<K'`: 0; `K>K'`: `fC(x−x²)(K−K')γ/(E(1−γ))` |
//!
//! The case study in §4.3 (T=10, B=4096, E=1024, C=1 024 000, f=0.01,
//! K=5→K'=4, x=γ=1/2) yields 125, 3.75 and 2.5 I/Os respectively.

/// A policy-transition scenario at one level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionScenario {
    /// Level capacity `C` (bytes).
    pub level_capacity: f64,
    /// Page size `B` (bytes).
    pub page_bytes: f64,
    /// Entry size `E` (bytes).
    pub entry_bytes: f64,
    /// Level Bloom-filter false-positive rate `f`.
    pub fpr: f64,
    /// Capacity ratio `T`.
    pub size_ratio: f64,
    /// Old policy `K`.
    pub k_old: f64,
    /// New policy `K'`.
    pub k_new: f64,
    /// Fill fraction `x = D/C` of the level when the transition arrives.
    pub fill: f64,
    /// Lookup fraction `γ` of the workload.
    pub gamma: f64,
    /// Updates arriving per second `N_u` (for the lazy delay).
    pub updates_per_sec: f64,
}

impl TransitionScenario {
    /// The paper's §4.3 case-study scenario.
    pub fn paper_case_study() -> Self {
        Self {
            level_capacity: 1_024_000.0,
            page_bytes: 4096.0,
            entry_bytes: 1024.0,
            fpr: 0.01,
            size_ratio: 10.0,
            k_old: 5.0,
            k_new: 4.0,
            fill: 0.5,
            gamma: 0.5,
            updates_per_sec: 1000.0,
        }
    }

    /// Delay in seconds before the new policy takes effect (Table 2 row 2).
    /// Only lazy waits (`C/(2·N_u·E)`); greedy and flexible act immediately.
    pub fn delay_secs(&self, lazy: bool) -> f64 {
        if lazy {
            self.level_capacity / (2.0 * self.updates_per_sec * self.entry_bytes)
        } else {
            0.0
        }
    }

    /// Additional I/O cost of a greedy transition (Eq. 1):
    /// `TC(1−x)/(2BK)` — extra write amplification from merging a
    /// partially-filled level.
    pub fn additional_cost_greedy(&self) -> f64 {
        self.size_ratio * self.level_capacity * (1.0 - self.fill)
            / (2.0 * self.page_bytes * self.k_old)
    }

    /// Additional I/O cost of a lazy transition (Eq. 2 / §4.3):
    /// extra reads when `K > K'`, extra write amplification when `K < K'`.
    pub fn additional_cost_lazy(&self) -> f64 {
        if self.k_old > self.k_new {
            self.fpr
                * self.level_capacity
                * (1.0 - self.fill * self.fill)
                * (self.k_old - self.k_new)
                * self.gamma
                / (2.0 * self.entry_bytes * (1.0 - self.gamma))
        } else if self.k_old < self.k_new {
            self.size_ratio * self.level_capacity * (1.0 - self.fill) * (self.k_new - self.k_old)
                / (2.0 * self.page_bytes * self.k_old * self.k_new)
        } else {
            0.0
        }
    }

    /// Additional I/O cost of a flexible transition (Eq. 3):
    /// `fC(x−x²)(K−K')γ/(E(1−γ))` when `K > K'`, zero otherwise.
    pub fn additional_cost_flexible(&self) -> f64 {
        if self.k_old > self.k_new {
            self.fpr
                * self.level_capacity
                * (self.fill - self.fill * self.fill)
                * (self.k_old - self.k_new)
                * self.gamma
                / (self.entry_bytes * (1.0 - self.gamma))
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_case_study_numbers() {
        let s = TransitionScenario::paper_case_study();
        assert!((s.additional_cost_greedy() - 125.0).abs() < 1e-9);
        assert!((s.additional_cost_lazy() - 3.75).abs() < 1e-9);
        assert!((s.additional_cost_flexible() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn immediate_costs_and_delays() {
        let s = TransitionScenario::paper_case_study();
        // C/(2·N_u·E) = 1_024_000 / (2·1000·1024) = 0.5 s.
        assert!((s.delay_secs(true) - 0.5).abs() < 1e-9);
        assert_eq!(s.delay_secs(false), 0.0);
    }

    #[test]
    fn flexible_never_worse_than_lazy() {
        // Sweep the parameter space: flexible ≤ lazy for K > K'.
        for k_old in 2..=10 {
            for k_new in 1..k_old {
                for fill10 in 1..10 {
                    for gamma10 in 1..10 {
                        let s = TransitionScenario {
                            k_old: k_old as f64,
                            k_new: k_new as f64,
                            fill: fill10 as f64 / 10.0,
                            gamma: gamma10 as f64 / 10.0,
                            ..TransitionScenario::paper_case_study()
                        };
                        assert!(
                            s.additional_cost_flexible() <= s.additional_cost_lazy() + 1e-12,
                            "flexible > lazy at K={k_old}->{k_new}, x={}, γ={}",
                            s.fill,
                            s.gamma
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn flexible_free_when_k_increases() {
        let s = TransitionScenario {
            k_old: 2.0,
            k_new: 8.0,
            ..TransitionScenario::paper_case_study()
        };
        assert_eq!(s.additional_cost_flexible(), 0.0);
        assert!(s.additional_cost_lazy() > 0.0);
        assert!(s.additional_cost_greedy() > 0.0);
    }

    #[test]
    fn greedy_cost_shrinks_with_fill() {
        // A fuller level wastes less write amplification when flushed early.
        let mut nearly_empty = TransitionScenario::paper_case_study();
        nearly_empty.fill = 0.05;
        let mut nearly_full = TransitionScenario::paper_case_study();
        nearly_full.fill = 0.95;
        assert!(nearly_empty.additional_cost_greedy() > nearly_full.additional_cost_greedy());
    }

    #[test]
    fn no_change_no_cost() {
        let s = TransitionScenario {
            k_old: 5.0,
            k_new: 5.0,
            ..TransitionScenario::paper_case_study()
        };
        assert_eq!(s.additional_cost_lazy(), 0.0);
        assert_eq!(s.additional_cost_flexible(), 0.0);
    }
}
