//! One fault plan per shard: the crash-injection hook in front of every
//! durable-path call.
//!
//! A shard's [`crate::FileDisk`], write-ahead log and manifest share one
//! [`FaultPlan`] through an `Arc`. Each of their durable-path calls — a
//! `pwrite`, a trim, an `fsync`, an `unlink`, the WAL append that frames a
//! record — first visits its [`Site`]. A test arms one [`Fault`] at one
//! site with [`FaultPlan::arm`]; it fires on the site's `after + 1`-th
//! visit. Every fault but [`Fault::Error`] kills the plan, and a dead plan
//! is the shard's one "the process died" flag ([`FaultPlan::is_dead`]):
//! from then on every site answers [`Fault::Crash`], so a dead process
//! issues nothing more. A call that really fails kills the plan too where
//! its caller cannot report the error (an extent write or creation).
//!
//! Unarmed, a visit costs one relaxed atomic load and takes no lock.

use std::io;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, PoisonError};

/// A durable-path call a fault can be armed in front of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Framing a record into the WAL's user-space buffer.
    WalAppend,
    /// The WAL buffer's positioned write.
    WalWrite,
    /// One positioned write (of up to 64 KiB) of a WAL recycle's zero-fill.
    WalRecycle,
    /// The WAL's `fdatasync`, on whichever thread holds the sync ticket.
    WalSync,
    /// The positioned write of a manifest slot's image.
    ManifestWrite,
    /// The manifest slot's `fdatasync`.
    ManifestSync,
    /// Creating an extent file.
    ExtentCreate,
    /// Growing an extent file to its allocation (`set_len`).
    ExtentSize,
    /// One positioned write (of up to 256 pages) of an extent's pages.
    ExtentWrite,
    /// Trimming a recycled extent file's former tail before its sync.
    ExtentTrim,
    /// An extent file's `fdatasync`.
    ExtentSync,
    /// Unlinking a freed extent file.
    ExtentUnlink,
    /// The data directory's `fsync`, when a file was created since the last.
    DirSync,
}

/// What an armed site does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The process dies before the call: nothing is issued.
    Crash,
    /// The call completes, then the process dies.
    CrashAfter,
    /// The first half of the call's bytes is written, then the process
    /// dies; at a site that writes no bytes it is [`Fault::CrashAfter`].
    Torn,
    /// Power is lost before the call: the process dies, and at the two
    /// `FileDisk` barriers what was not synced is dropped too — the extent
    /// being synced is torn ([`Site::ExtentSync`]), and the extent files
    /// created since the last directory sync lose their names
    /// ([`Site::DirSync`]). Elsewhere it is [`Fault::Crash`].
    PowerCut,
    /// The call returns this error and issues nothing; the plan lives on.
    Error(io::ErrorKind),
}

const ARMED: u8 = 1;
const DEAD: u8 = 2;

/// The fault plan a shard's durable components share (see the module
/// docs).
///
/// `state` holds the `ARMED` and `DEAD` bits and is read `Relaxed`: it
/// publishes no other data. What is armed lives under the lock, which a
/// visit takes only while `ARMED` is set; the lock recovers a poisoned
/// guard, since an arm or a visit replaces the option whole.
#[derive(Debug, Default)]
pub struct FaultPlan {
    state: AtomicU8,
    armed: Mutex<Option<(Site, u64, Fault)>>,
}

impl FaultPlan {
    /// Arms `fault` to fire on the `after + 1`-th visit of `site`,
    /// replacing any armed fault.
    pub fn arm(&self, site: Site, after: u64, fault: Fault) {
        *self.armed.lock().unwrap_or_else(PoisonError::into_inner) = Some((site, after, fault));
        self.state.fetch_or(ARMED, Ordering::Relaxed);
    }

    /// True once the process died: a fault fired, or a component killed
    /// the plan after a call failed.
    pub fn is_dead(&self) -> bool {
        self.state.load(Ordering::Relaxed) & DEAD != 0
    }

    /// Kills the plan: every later visit answers [`Fault::Crash`].
    pub fn kill(&self) {
        self.state.fetch_or(DEAD, Ordering::Relaxed);
    }

    /// Visits `site`: `None` lets the call go ahead; otherwise the fault
    /// to apply, [`Fault::Crash`] on a dead plan.
    fn fire(&self, site: Site) -> Option<Fault> {
        match self.state.load(Ordering::Relaxed) {
            0 => return None,
            state if state & DEAD != 0 => return Some(Fault::Crash),
            _ => {}
        }
        let mut armed = self.armed.lock().unwrap_or_else(PoisonError::into_inner);
        let (at, after, fault) = (*armed).filter(|armed| armed.0 == site)?;
        *armed = after.checked_sub(1).map(|after| (at, after, fault));
        if armed.is_some() {
            return None;
        }
        self.state.fetch_and(!ARMED, Ordering::Relaxed);
        if !matches!(fault, Fault::Error(_)) {
            self.kill();
        }
        Some(fault)
    }

    /// Visits `site` and issues `call` as the visit allows, telling it
    /// whether to write only the first half of its bytes: `Some` with its
    /// result when it was issued (whole, torn, or before a death), `None`
    /// when nothing was. The caller asks [`FaultPlan::is_dead`] whether the
    /// process survived the call.
    pub fn run<T>(
        &self,
        site: Site,
        call: impl FnOnce(bool) -> io::Result<T>,
    ) -> io::Result<Option<T>> {
        Self::apply(self.fire(site), call, || ())
    }

    /// Visits a barrier's `site` and issues its `sync`: `Ok` only when the
    /// process survives it. Under an armed [`Fault::PowerCut`], `cut`
    /// drops what the sync would have made durable, in its place.
    pub(crate) fn barrier(
        &self,
        site: Site,
        sync: impl FnOnce() -> io::Result<()>,
        cut: impl FnOnce(),
    ) -> io::Result<()> {
        let fault = self.fire(site);
        match Self::apply(fault, |_| sync(), cut)? {
            // Only an unarmed visit survives: an armed `Error` returned.
            Some(()) if fault.is_none() => Ok(()),
            _ => Err(dead()),
        }
    }

    /// What every fault means to the call it fires in front of.
    fn apply<T>(
        fault: Option<Fault>,
        call: impl FnOnce(bool) -> io::Result<T>,
        cut: impl FnOnce(),
    ) -> io::Result<Option<T>> {
        match fault {
            None | Some(Fault::CrashAfter) => call(false).map(Some),
            Some(Fault::Torn) => call(true).map(Some),
            Some(Fault::Error(kind)) => Err(kind.into()),
            Some(Fault::PowerCut) => {
                cut();
                Ok(None)
            }
            Some(Fault::Crash) => Ok(None),
        }
    }
}

/// The error a durable call on a dead device or shard returns.
pub(crate) fn dead() -> io::Error {
    io::Error::other("device dead: the process died, or a call failed")
}
