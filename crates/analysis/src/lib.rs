//! White-box cost analysis for the RusKey reproduction.
//!
//! RusKey does not replace classic white-box models — it *embeds* one:
//! policy propagation (§5.2) extends the policies the RL model learns for
//! the first one or two levels to all deeper levels through a closed-form
//! analysis, and the FLSM-tree design is justified by the transition-cost
//! model of §4.3 (Table 2). This crate implements those formulas:
//!
//! * [`cost`] — the per-level expected operation cost (Eq. 5) and its
//!   closed-form optimum `K*_i`;
//! * [`propagation`] — Lemma 5.1: inferring `K*_{i+1}` from `K*_i`
//!   and `K*_{i−1}` under the Monkey scheme, plus the uniform-scheme
//!   copy rule (Case 1);
//! * [`transition_cost`] — the transition cost / delay / additional-cost
//!   formulas of Table 2 for greedy, lazy, and flexible transitions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod propagation;
pub mod transition_cost;

pub use cost::{level_cost_ns, optimal_k, optimal_k_int, CostParams};
pub use propagation::{propagate_continuous, propagate_rounded, uniform_propagation};
pub use transition_cost::TransitionScenario;
