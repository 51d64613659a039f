//! Simulated storage substrate for the RusKey reproduction.
//!
//! The paper evaluates RusKey on RocksDB over a 1 TB NVMe SSD. This crate
//! replaces the physical device with a deterministic, in-memory *simulated
//! disk*: every page read and write is counted exactly and charged a
//! configurable amount of virtual time ([`CostModel`]). The LSM engine built
//! on top performs the same logical page I/O it would issue against a real
//! device, so read/write amplification — the quantity all of the paper's
//! experiments trade off — is measured exactly, while experiments stay
//! laptop-scale and perfectly reproducible.
//!
//! Components:
//! * [`VirtualClock`] — monotonically increasing virtual nanosecond counter
//!   belonging to one *time domain* ([`clock::DomainId`]); timestamps are
//!   domain-tagged so cross-domain windows are caught instead of silently
//!   mis-attributed.
//! * [`CostModel`] — per-page I/O latencies plus the CPU cost constants
//!   (`c_r`, `c_w`) used by the paper's white-box model (§5.2, Eq. 5).
//! * [`SimulatedDisk`] — page store with exact I/O accounting.
//! * [`BlockCache`] — sharded, O(1)-eviction LRU page cache. Disabled by
//!   default on the simulated backend (matching the paper's direct-I/O
//!   setup, so virtual accounting stays bit-identical); the persistent
//!   store serves each shard's file disk through one.
//! * [`FileDisk`] — a real-file backend implementing the same [`Storage`]
//!   trait, for running the engine against an actual filesystem: cached
//!   fds (one `open` per extent, not per read), positional `pread`/
//!   `pwrite` I/O, and one reusable page buffer per disk.
//!
//! # Fallible reads and power-failure durability
//!
//! Real devices fail in ways a simulation never does: an extent file can be
//! missing after a crash, a page can be torn mid-write, a slot header can be
//! corrupt. [`Storage::try_read_page`] is therefore the *required* read
//! primitive — it surfaces those states as typed [`std::io::Error`]s so
//! recovery can decide, while the provided [`Storage::read_page`] keeps the
//! infallible panic-on-corruption contract for steady-state paths that have
//! already validated their extents.
//!
//! # Shared reads and bulk writes
//!
//! The engine itself reads through [`Storage::try_read_shared`], which
//! returns the page as a reference-counted handle, and writes a run in
//! batches of pages with [`Storage::append_pages`] as it builds it. Both
//! are *provided* methods, so a backend or decorator that implements only
//! the required ones behaves — and charges — identically: the shared read
//! defaults to a copy of [`Storage::try_read_page`], and the append
//! defaults to "cannot append", on which the engine keeps the whole run
//! and writes it with one [`Storage::write_pages`]. The backends here
//! override them to skip work: the block cache hands out the handle it
//! holds (a hit copies nothing), [`FileDisk`] copies a missed page once
//! into the handle the cache then keeps and puts a batch down in one
//! positional write, the simulated disk stores its pages as handles. Durability barriers follow the same
//! split: [`Storage::sync_extent`] (fsync a run's data before its manifest
//! commit) and [`Storage::sync_dir`] (fsync the directory so extent creation
//! and renames survive power loss) are real `fsync`s on [`FileDisk`] and
//! free no-ops on volatile backends. [`Storage::collect_orphans`] removes
//! extent files a pre-commit power cut left behind.
//!
//! # Fault injection
//!
//! A [`FaultPlan`] (`fault.rs`) is the one crash-injection hook of a
//! shard: its [`FileDisk`] (reached through [`Storage::faults`]), its
//! write-ahead log and its manifest share one, and every durable-path call
//! visits a named [`Site`] first, where an armed [`Fault`] fires — a crash
//! before or after the call, a torn write, a power cut, or an error the
//! call returns. The plan's dead flag is the shard's "the process died".

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod clock;
pub mod cost;
pub mod disk;
pub mod fault;
pub mod file;
pub mod metrics;

pub use cache::BlockCache;
pub use clock::{DomainId, Timestamp, VirtualClock};
pub use cost::CostModel;
pub use disk::{Extent, IoCharge, PowerCutPoint, SimulatedDisk, Storage};
pub use fault::{Fault, FaultPlan, Site};
pub use file::FileDisk;
pub use metrics::StorageMetrics;

/// Default page size, matching the paper's setting `B = 4096` bytes.
pub const DEFAULT_PAGE_SIZE: usize = 4096;
