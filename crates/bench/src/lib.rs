//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `figN`/`tableN` function runs the corresponding experiment at a
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
pub mod tuning;

/// Serializes the unit tests that measure *real* time: run concurrently
/// in one test process they perturb each other's wall-clock readings.
/// Poisoning is ignored — a panicked holder already failed its own test.
#[cfg(test)]
pub(crate) static REAL_TIME_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
pub(crate) fn real_time_test_guard() -> std::sync::MutexGuard<'static, ()> {
    REAL_TIME_TEST_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

pub use ablations::*;
pub use experiments::*;
pub use output::*;
pub use percentile::*;
pub use tuning::*;
