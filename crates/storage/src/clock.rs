//! Deterministic virtual clocks with *time domains*.
//!
//! All storage and CPU costs in the simulation are expressed as virtual
//! nanoseconds accumulated on a [`VirtualClock`]. Experiments that compare
//! "latency" between compaction policies therefore produce exactly the same
//! numbers on every run, for every machine.
//!
//! Every clock belongs to a **time domain**, identified by a [`DomainId`]
//! minted at construction; clones share both the counter and the domain.
//! A sharded store gives each shard its own device, and so its own domain,
//! so a shard windowing its clock — [`VirtualClock::now`] then
//! [`VirtualClock::elapsed_since`] — only ever observes its *own* charges,
//! never a concurrent sibling's. Timestamps are domain-tagged:
//! asking a clock for the elapsed time since a timestamp taken from a
//! *different* domain is a bug (the old shared-clock accounting silently
//! returned 0 or absorbed foreign charges), and panics in debug builds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a time domain. Each `VirtualClock::new` mints a fresh
/// one; clones of a clock stay in its domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainId(u64);

/// Source of fresh domain ids, process-wide.
static NEXT_DOMAIN: AtomicU64 = AtomicU64::new(0);

/// A point on one domain's timeline, tagged with its [`DomainId`] so that
/// cross-domain elapsed queries are detected instead of silently wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timestamp {
    ns: u64,
    domain: DomainId,
}

/// A monotonically increasing virtual-time counter (nanoseconds) owning one
/// time domain.
///
/// Cloning the clock is cheap and shares the underlying counter *and*
/// domain, so a disk, an engine, and a stats collector can all observe the
/// same timeline. Constructing a new clock starts a new domain.
#[derive(Debug, Clone)]
pub struct VirtualClock {
    ns: Arc<AtomicU64>,
    domain: DomainId,
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl VirtualClock {
    /// Creates a clock starting at time zero, in a fresh time domain.
    pub(crate) fn new() -> Self {
        Self {
            ns: Arc::new(AtomicU64::new(0)),
            domain: DomainId(NEXT_DOMAIN.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Current virtual time as a domain-tagged [`Timestamp`], for later
    /// [`VirtualClock::elapsed_since`] windows.
    pub fn now(&self) -> Timestamp {
        Timestamp {
            ns: self.now_ns(),
            domain: self.domain,
        }
    }

    /// Advances the clock by `ns` nanoseconds and returns the new time.
    pub(crate) fn advance(&self, ns: u64) -> u64 {
        self.ns.fetch_add(ns, Ordering::Relaxed) + ns
    }

    /// Returns the virtual time elapsed since `start`.
    ///
    /// # Panics
    /// Panics in debug builds if `start` was taken from a different time
    /// domain — such a window would attribute another domain's charges (or
    /// silently clamp to 0), which is exactly the accounting bug domains
    /// exist to prevent. Release builds saturate to 0.
    pub fn elapsed_since(&self, start: Timestamp) -> u64 {
        debug_assert_eq!(
            start.domain, self.domain,
            "elapsed_since across time domains: timestamp from {:?} queried on {:?}",
            start.domain, self.domain
        );
        self.now_ns().saturating_sub(start.ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Timestamp {
        /// The raw virtual time of the timestamp (nanoseconds).
        fn ns(&self) -> u64 {
            self.ns
        }
    }

    impl VirtualClock {
        /// The clock's time domain.
        pub(crate) fn domain(&self) -> DomainId {
            self.domain
        }
    }

    #[test]
    fn starts_at_zero() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now().ns(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let c = VirtualClock::new();
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.advance(5), 15);
        assert_eq!(c.now_ns(), 15);
    }

    #[test]
    fn clones_share_time_and_domain() {
        let c = VirtualClock::new();
        let c2 = c.clone();
        assert_eq!(c.domain(), c2.domain());
        c.advance(7);
        assert_eq!(c2.now_ns(), 7);
        c2.advance(3);
        assert_eq!(c.now_ns(), 10);
        // A cloned clock's timestamps are valid on the original.
        let t = c2.now();
        c.advance(5);
        assert_eq!(c.elapsed_since(t), 5);
    }

    #[test]
    fn fresh_clocks_get_fresh_domains() {
        let a = VirtualClock::new();
        let b = VirtualClock::new();
        assert_ne!(a.domain(), b.domain());
    }

    #[test]
    fn elapsed_within_domain() {
        let c = VirtualClock::new();
        c.advance(2);
        let t = c.now();
        c.advance(3);
        assert_eq!(c.elapsed_since(t), 3);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "domain check is debug-only")]
    fn cross_domain_elapsed_panics_in_debug() {
        let a = VirtualClock::new();
        let b = VirtualClock::new();
        a.advance(5);
        let foreign = b.now();
        let result = std::panic::catch_unwind(|| a.elapsed_since(foreign));
        assert!(result.is_err(), "cross-domain window must panic in debug");
    }

    /// Several threads may charge one domain (serving clients take turns
    /// on a shard's device); concurrent advances must never lose ticks.
    #[test]
    fn concurrent_advances_are_lossless() {
        let c = VirtualClock::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.advance(3);
                    }
                });
            }
        });
        assert_eq!(c.now_ns(), 4 * 10_000 * 3);
    }
}
