//! Experiment harness regenerating every table and figure of the paper.
//!
//! The paper-experiment harness lives here, and only here: [`runner`]
//! opens and bulk-loads one store per method ([`prepared_store`]) and
//! runs it over a mission schedule ([`run`], the one harness loop). Each
//! `figN`/`tableN` function runs the corresponding experiment at a
//! configurable scale and returns structured results; the `repro` binary
//! prints them as aligned tables/CSV. Beside the paper, `tuning` pins the
//! per-shard Lerp seats as a JSON verdict and `ablations` sweeps the
//! design choices. The engine's end-to-end and per-layer performance is
//! measured by the perf ledger (`ledger/`), not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod experiments;
pub mod output;
pub mod percentile;
pub mod runner;
pub mod tuning;

pub use ablations::*;
pub use experiments::*;
pub use output::*;
pub use percentile::*;
pub use runner::*;
pub use tuning::*;
