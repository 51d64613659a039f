//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `figN`/`tableN` function runs the corresponding experiment at a
//! configurable scale and returns structured results; the `repro` binary
//! prints them as aligned tables/CSV, and the Criterion benches execute
//! reduced versions of the same code paths.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod compaction;
pub mod durability;
pub mod experiments;
pub mod output;
pub mod percentile;
pub mod persistence;
pub mod read_path;
pub mod scaling;
pub mod serve;
pub mod tuning;

/// Serializes the unit tests that measure *real* time or spawn client
/// threads (read-path latency ordering, the serving experiment): run
/// concurrently in one test process they perturb each other's wall-clock
/// readings. Poisoning is ignored — a panicked holder already failed its
/// own test.
#[cfg(test)]
pub(crate) static REAL_TIME_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
pub(crate) fn real_time_test_guard() -> std::sync::MutexGuard<'static, ()> {
    REAL_TIME_TEST_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

pub use ablations::*;
pub use compaction::*;
pub use experiments::*;
pub use output::*;
pub use percentile::*;
pub use persistence::*;
pub use read_path::*;
pub use scaling::*;
pub use serve::*;
pub use tuning::*;
