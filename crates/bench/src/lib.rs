//! Experiment harness regenerating every table and figure of the paper.
//!
//! The paper-experiment harness lives here, and only here: [`runner`]
//! opens and bulk-loads one store per method ([`prepared_store`]) and
//! runs it over a mission schedule ([`run`], the one harness loop). Each
//! `figN`/`tableN` function runs the corresponding experiment at a
//! configurable scale and returns an [`Outcome`]: its [`ClaimRow`]s (an
//! id, the paper's value, ours, the spread over seeds and a verdict) and
//! the series it plots. The `repro` binary prints the rows as one
//! Markdown table ([`claims_table`]), writes them as JSON ([`rows_json`])
//! and writes the series as CSV; `repro claims` folds every experiment's
//! rows over three seeds ([`fold_seeds`]) into the table `EXPERIMENTS.md`
//! holds. Beside the paper, `tuning` pins the per-shard Lerp seats as a
//! `tuning.ok` claim beside their recorded rows and `ablations` sweeps the
//! design choices. The tuners come from the engine crate (`ruskey`), with
//! one exception: the two RL baselines of the §7 impracticality study,
//! brute-force whole-tree DDPG and per-level DDPG without propagation, are
//! schedules over Lerp's learner seam kept beside `bruteforce`, the one
//! experiment that runs them. The engine's end-to-end and per-layer performance is
//! measured by the perf ledger (`ledger/`), not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod claims;
pub mod experiments;
pub mod output;
pub mod percentile;
pub mod runner;
pub mod tuning;

pub use ablations::*;
pub use claims::*;
pub use experiments::*;
pub use output::*;
pub use percentile::*;
pub use runner::*;
pub use tuning::*;
