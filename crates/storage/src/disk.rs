//! The simulated disk and the [`Storage`] abstraction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use bytes::Bytes;

use crate::clock::VirtualClock;
use crate::cost::CostModel;
use crate::fault::FaultPlan;
use crate::metrics::{AtomicMetrics, StorageMetrics};

/// A contiguous allocation of pages on a storage device.
///
/// Extents are handed out by [`Storage::allocate`] and identify the pages of
/// one sorted run. They are plain identifiers — freeing is explicit via
/// [`Storage::free`], mirroring how an LSM engine deletes (or recycles)
/// obsolete run files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extent {
    /// Unique identifier of the allocation.
    pub id: u64,
    /// Number of pages in the allocation.
    pub pages: u32,
}

/// The exact cost of one storage call: the virtual nanoseconds charged to
/// the caller's timeline plus the device I/O performed, as a metrics delta.
///
/// Returning the charge from [`Storage::write_page`]/[`Storage::read_page`]
/// lets a wrapping backend (a [`crate::BlockCache`]) report exactly what
/// each call cost. A cache hit, for example, reports its CPU cost in `ns`
/// with a zero `io` delta — no device read happened.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoCharge {
    /// Total virtual ns charged to the storage clock by this call.
    pub ns: u64,
    /// Device I/O the call performed (zero on e.g. cache hits).
    pub io: StorageMetrics,
}

impl std::ops::AddAssign for IoCharge {
    fn add_assign(&mut self, rhs: Self) {
        self.ns += rhs.ns;
        self.io += rhs.io;
    }
}

/// The storage barriers a power cut was once armed at through
/// [`Storage::arm_power_cut`]. Nothing fires at them any more: a shard's
/// [`crate::FaultPlan`] arms [`crate::Fault::PowerCut`] at
/// [`crate::Site::ExtentSync`] or [`crate::Site::DirSync`] instead. The
/// type stays only while the perf ledger's storage decorator names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerCutPoint {
    /// Before an extent's fsync.
    ExtentUnsynced,
    /// Before the directory fsync.
    DirUnsynced,
}

/// A page-granular storage device.
///
/// Both the [`SimulatedDisk`] and the real-file [`crate::FileDisk`] implement
/// this trait, so the LSM engine is oblivious to which backend it runs on.
///
/// # Fallible reads and power-failure durability
///
/// [`Storage::try_read_page`] is the primitive every backend implements:
/// a missing extent file, a torn (short) page, or a corrupt slot header
/// surfaces as an [`std::io::Error`] the caller can type-match — this is
/// what lets recovery turn a power-failure artifact into a typed error
/// instead of a panic. [`Storage::read_page`] is the serving-path wrapper
/// that panics on those errors (after a successful recovery every
/// recorded page is readable, so an error there is a logic bug).
/// [`Storage::sync_extent`] and [`Storage::sync_dir`] are the durability
/// barriers the LSM layer orders *before* its manifest commit; volatile
/// backends treat them as free no-ops.
pub trait Storage: Send + Sync {
    /// Size of one page in bytes (`B` in the paper, default 4096).
    fn page_size(&self) -> usize;

    /// Allocates `pages` pages and returns their extent. Its id is unique
    /// among live extents, but may be one [`Storage::free`] released
    /// earlier: [`crate::FileDisk`] hands a freed extent's id back with its
    /// file.
    fn allocate(&self, pages: u32) -> Extent;

    /// Writes `data` (at most one page) to page `idx` of `ext`, returning
    /// the exact [`IoCharge`] so wrappers can mirror the accounting.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds or `data` exceeds the page size.
    fn write_page(&self, ext: Extent, idx: u32, data: &[u8]) -> IoCharge;

    /// Reads page `idx` of `ext` into `buf` (cleared first), returning the
    /// exact [`IoCharge`] so wrappers can mirror the accounting — or an
    /// error when the page cannot be served: a freed/unknown extent, an
    /// extent file a power failure erased ([`std::io::ErrorKind::NotFound`]),
    /// a torn page ([`std::io::ErrorKind::UnexpectedEof`]), or a corrupt
    /// slot header ([`std::io::ErrorKind::InvalidData`]). Recovery reads
    /// go through this method so those failures stay typed.
    fn try_read_page(&self, ext: Extent, idx: u32, buf: &mut Vec<u8>) -> std::io::Result<IoCharge>;

    /// Reads page `idx` of `ext` into `buf` (cleared first), returning the
    /// exact [`IoCharge`] so wrappers can mirror the accounting.
    ///
    /// # Panics
    /// Panics if the page cannot be served (see [`Storage::try_read_page`]
    /// for the failure taxonomy) — the serving path treats that as a
    /// logic bug, since recovery already proved every recorded page
    /// readable.
    fn read_page(&self, ext: Extent, idx: u32, buf: &mut Vec<u8>) -> IoCharge {
        self.try_read_page(ext, idx, buf)
            .unwrap_or_else(|e| panic!("read page {}:{idx}: {e}", ext.id))
    }

    /// Reads page `idx` of `ext` as a shared handle: the zero-copy read the
    /// engine's page cursor runs on. Fails like [`Storage::try_read_page`],
    /// charges like it, and touches the same page — the default *is* that
    /// call plus one copy into a fresh handle. A backend that already holds
    /// the page behind a reference count (the block cache, the simulated
    /// disk) overrides this to hand that handle out, so a hit copies
    /// nothing; the handle keeps the page's bytes alive for as long as the
    /// caller holds it, whatever the backend evicts or frees meanwhile.
    fn try_read_shared(&self, ext: Extent, idx: u32) -> std::io::Result<(Bytes, IoCharge)> {
        let mut buf = Vec::with_capacity(self.page_size());
        let charge = self.try_read_page(ext, idx, &mut buf)?;
        Ok((Bytes::from(buf), charge))
    }

    /// Writes `pages[i]` to page `i` of `ext` for every `i` — a whole run
    /// at once, as the run builder puts one down over a storage that
    /// cannot [append](Storage::append_pages) — and returns the summed
    /// [`IoCharge`]. Equivalent to calling
    /// [`Storage::write_page`] for each page in order, which is what the
    /// default does; [`crate::FileDisk`] puts the pages down in large
    /// positional writes instead of one per page.
    ///
    /// # Panics
    /// Panics if `pages` outnumbers the extent or a page exceeds the page
    /// size.
    fn write_pages(&self, ext: Extent, pages: &[&[u8]]) -> IoCharge {
        let mut total = IoCharge::default();
        for (idx, page) in pages.iter().enumerate() {
            total += self.write_page(ext, idx as u32, page);
        }
        total
    }

    /// Appends `pages` after the last page of `ext` — of a new, empty
    /// extent when `ext` is `None` — and returns the grown extent with the
    /// summed [`IoCharge`]. Page `i` lands at index `ext.pages + i` and is
    /// charged as [`Storage::write_page`] would charge it, so a run written
    /// in batches costs what one [`Storage::write_pages`] of it costs; an
    /// empty `pages` only allocates. This is how a run builder puts a run
    /// down in bounded memory before it knows the run's length.
    ///
    /// The default returns `None` and does nothing — no allocation, no
    /// write: the backend cannot grow an extent. A caller then keeps the
    /// whole run and writes it with [`Storage::allocate`] and
    /// [`Storage::write_pages`] once it is complete, so a decorator that
    /// implements only the required methods still stores the same pages
    /// under the same extent ids. Every backend here overrides it; a
    /// decorator overrides it by forwarding.
    ///
    /// # Panics
    /// Panics if `ext` is unknown or freed, or a page exceeds the page
    /// size.
    fn append_pages(&self, ext: Option<Extent>, pages: &[&[u8]]) -> Option<(Extent, IoCharge)> {
        let _ = (ext, pages);
        None
    }

    /// Durably flushes an extent's written pages (`fsync(2)` of the extent
    /// file on a real-file backend; a free no-op on volatile backends).
    /// Counts one [`StorageMetrics::extent_syncs`] when real work happens.
    /// An error means the extent's data could not be made durable — on a
    /// power-cut fault injection the un-synced writes are already gone.
    fn sync_extent(&self, _ext: Extent) -> std::io::Result<IoCharge> {
        Ok(IoCharge::default())
    }

    /// Durably flushes the backend's directory entries (fsync of the
    /// directory handle on a real-file backend): what makes extent files
    /// created since the last call survive power loss. Counts one
    /// [`StorageMetrics::dir_syncs`] when real work happens — when a file
    /// was created since the last call; otherwise it is free.
    fn sync_dir(&self) -> std::io::Result<IoCharge> {
        Ok(IoCharge::default())
    }

    /// Removes extents present on the backend but absent from `live` —
    /// the garbage a pre-commit power cut leaves behind (data written,
    /// manifest never committed). Returns the collected ids. A no-op on
    /// volatile backends (a fresh process inherits nothing). Recovery
    /// calls this once, after folding the manifest and before anything
    /// can allocate.
    fn collect_orphans(&self, _live: &[u64]) -> std::io::Result<Vec<u64>> {
        Ok(Vec::new())
    }

    /// A no-op kept for the perf ledger's storage decorator, which still
    /// forwards it (see [`PowerCutPoint`]).
    fn arm_power_cut(&self, _point: PowerCutPoint, _after: u64) {}

    /// The fault plan this device shares with its shard's logs, if it has
    /// one: [`crate::FileDisk`] does, and a decorator forwards its inner
    /// device's. A tree over a device without one makes its own — so a
    /// decorator that does not forward it splits the shard's plan: the
    /// tree and its logs then die on their own plan, the device on its.
    fn faults(&self) -> Option<&Arc<FaultPlan>> {
        None
    }

    /// Releases an extent. A freed id may come back from the next
    /// [`Storage::allocate`], holding another run's pages, so a caller
    /// frees an extent only once nothing durable or in flight names it (a
    /// block cache purges the id's pages before it forwards the free).
    fn free(&self, ext: Extent);

    /// Snapshot of the device's I/O counters (a block cache adds its hits,
    /// misses and evictions).
    fn metrics(&self) -> StorageMetrics;

    /// The device's virtual clock: one time domain, advanced by every
    /// charge made through this handle.
    fn clock(&self) -> &VirtualClock;

    /// The cost model used for virtual-time charging.
    fn cost_model(&self) -> CostModel;

    /// Charges pure CPU time to this handle's clock (used by the engine for
    /// `c_r`/`c_w` style costs so that everything lands on one timeline).
    fn charge_cpu(&self, ns: u64) {
        self.clock().advance(ns);
    }

    /// Number of live (allocated, unfreed) pages, for space accounting.
    fn live_pages(&self) -> u64;
}

/// Pages of one extent: each slot is `None` until written. A page is a
/// shared handle so [`Storage::try_read_shared`] can hand it out as is.
type ExtentSlots = Vec<Option<Bytes>>;

/// In-memory page store with exact, deterministic I/O accounting.
///
/// The extent map's lock recovers a poisoned guard
/// (`PoisonError::into_inner`) instead of panicking: a writer changes the
/// map by one insert, remove or page store, and the one panic under the
/// write lock (a write to an unknown extent) fires before anything
/// changes — so a map a panicking writer held is still whole.
pub struct SimulatedDisk {
    page_size: usize,
    cost: CostModel,
    clock: VirtualClock,
    next_id: AtomicU64,
    live_pages: AtomicU64,
    extents: RwLock<HashMap<u64, ExtentSlots>>,
    metrics: AtomicMetrics,
}

impl SimulatedDisk {
    /// Creates a disk with the given page size and cost model.
    pub fn new(page_size: usize, cost: CostModel) -> Arc<Self> {
        assert!(page_size >= 64, "page size unreasonably small");
        Arc::new(Self {
            page_size,
            cost,
            clock: VirtualClock::new(),
            next_id: AtomicU64::new(1),
            live_pages: AtomicU64::new(0),
            extents: RwLock::new(HashMap::new()),
            metrics: AtomicMetrics::default(),
        })
    }

    /// Number of live extents (≈ live run files).
    pub fn live_extents(&self) -> usize {
        self.extents
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

impl Storage for SimulatedDisk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocate(&self, pages: u32) -> Extent {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slots: ExtentSlots = (0..pages).map(|_| None).collect();
        self.extents
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, slots);
        self.live_pages.fetch_add(pages as u64, Ordering::Relaxed);
        Extent { id, pages }
    }

    fn write_page(&self, ext: Extent, idx: u32, data: &[u8]) -> IoCharge {
        assert!(
            data.len() <= self.page_size,
            "page overflow: {} > {}",
            data.len(),
            self.page_size
        );
        assert!(
            idx < ext.pages,
            "page index {idx} out of bounds ({})",
            ext.pages
        );
        {
            let mut extents = self.extents.write().unwrap_or_else(PoisonError::into_inner);
            let slots = extents
                .get_mut(&ext.id)
                .unwrap_or_else(|| panic!("write to freed/unknown extent {}", ext.id));
            slots[idx as usize] = Some(Bytes::copy_from_slice(data));
        }
        let io = StorageMetrics {
            pages_written: 1,
            bytes_written: data.len() as u64,
            write_ns: self.cost.write_page_ns,
            ..StorageMetrics::default()
        };
        self.metrics
            .charge(&self.clock, self.cost.write_page_ns, io)
    }

    fn append_pages(&self, ext: Option<Extent>, pages: &[&[u8]]) -> Option<(Extent, IoCharge)> {
        let ext = ext.unwrap_or_else(|| self.allocate(0));
        let grown = Extent {
            id: ext.id,
            pages: ext.pages + pages.len() as u32,
        };
        self.extents
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .get_mut(&ext.id)
            .unwrap_or_else(|| panic!("append to freed/unknown extent {}", ext.id))
            .resize(grown.pages as usize, None);
        self.live_pages
            .fetch_add(pages.len() as u64, Ordering::Relaxed);
        let mut charge = IoCharge::default();
        for (idx, page) in (ext.pages..).zip(pages) {
            charge += self.write_page(grown, idx, page);
        }
        Some((grown, charge))
    }

    fn try_read_page(&self, ext: Extent, idx: u32, buf: &mut Vec<u8>) -> std::io::Result<IoCharge> {
        let (page, charge) = self.try_read_shared(ext, idx)?;
        buf.clear();
        buf.extend_from_slice(&page);
        Ok(charge)
    }

    fn try_read_shared(&self, ext: Extent, idx: u32) -> std::io::Result<(Bytes, IoCharge)> {
        let page = {
            let extents = self.extents.read().unwrap_or_else(PoisonError::into_inner);
            let slots = extents.get(&ext.id).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("read from freed/unknown extent {}", ext.id),
                )
            })?;
            slots[idx as usize].clone().ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("read of unwritten page {}:{idx}", ext.id),
                )
            })?
        };
        let io = StorageMetrics {
            pages_read: 1,
            bytes_read: page.len() as u64,
            read_ns: self.cost.read_page_ns,
            ..StorageMetrics::default()
        };
        Ok((
            page,
            self.metrics.charge(&self.clock, self.cost.read_page_ns, io),
        ))
    }

    fn free(&self, ext: Extent) {
        if self
            .extents
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&ext.id)
            .is_some()
        {
            self.live_pages
                .fetch_sub(ext.pages as u64, Ordering::Relaxed);
        }
    }

    fn metrics(&self) -> StorageMetrics {
        self.metrics.snapshot()
    }

    fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    fn cost_model(&self) -> CostModel {
        self.cost
    }

    fn live_pages(&self) -> u64 {
        self.live_pages.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Arc<SimulatedDisk> {
        SimulatedDisk::new(128, CostModel::NVME)
    }

    #[test]
    fn write_read_roundtrip() {
        let d = disk();
        let ext = d.allocate(2);
        d.write_page(ext, 0, b"hello");
        d.write_page(ext, 1, b"world");
        let mut buf = Vec::new();
        d.read_page(ext, 0, &mut buf);
        assert_eq!(&buf, b"hello");
        d.read_page(ext, 1, &mut buf);
        assert_eq!(&buf, b"world");
    }

    #[test]
    fn metrics_count_exactly() {
        let d = disk();
        let ext = d.allocate(1);
        d.write_page(ext, 0, &[0u8; 100]);
        let mut buf = Vec::new();
        d.read_page(ext, 0, &mut buf);
        d.read_page(ext, 0, &mut buf);
        let m = d.metrics();
        assert_eq!(m.pages_written, 1);
        assert_eq!(m.pages_read, 2);
        assert_eq!(m.bytes_written, 100);
        assert_eq!(m.bytes_read, 200);
        assert_eq!(m.write_ns, CostModel::NVME.write_page_ns);
        assert_eq!(m.read_ns, 2 * CostModel::NVME.read_page_ns);
    }

    #[test]
    fn clock_advances_with_io() {
        let d = disk();
        let ext = d.allocate(1);
        d.write_page(ext, 0, b"x");
        let mut buf = Vec::new();
        d.read_page(ext, 0, &mut buf);
        assert_eq!(
            d.clock().now_ns(),
            CostModel::NVME.write_page_ns + CostModel::NVME.read_page_ns
        );
    }

    #[test]
    fn free_releases_pages() {
        let d = disk();
        let a = d.allocate(3);
        let b = d.allocate(2);
        assert_eq!(d.live_pages(), 5);
        assert_eq!(d.live_extents(), 2);
        d.free(a);
        assert_eq!(d.live_pages(), 2);
        assert_eq!(d.live_extents(), 1);
        d.free(b);
        assert_eq!(d.live_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "freed/unknown extent")]
    fn read_after_free_panics() {
        let d = disk();
        let ext = d.allocate(1);
        d.write_page(ext, 0, b"x");
        d.free(ext);
        let mut buf = Vec::new();
        d.read_page(ext, 0, &mut buf);
    }

    #[test]
    #[should_panic(expected = "page overflow")]
    fn oversized_write_panics() {
        let d = disk();
        let ext = d.allocate(1);
        d.write_page(ext, 0, &[0u8; 4096]);
    }

    #[test]
    fn charge_cpu_hits_same_clock() {
        let d = disk();
        d.charge_cpu(42);
        assert_eq!(d.clock().now_ns(), 42);
    }

    /// Shards of a sharded store hand `Arc<dyn Storage>` clones to worker
    /// threads; the trait object must stay `Send + Sync`.
    #[test]
    fn storage_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Arc<dyn Storage>>();
        assert_send_sync::<SimulatedDisk>();
    }

    /// One device shared by parallel shard workers must account every page
    /// exactly: counters are atomic, so no I/O may be lost or double-counted.
    #[test]
    fn concurrent_shards_account_exactly() {
        const THREADS: u64 = 4;
        const PAGES_PER_THREAD: u64 = 200;
        let d: Arc<SimulatedDisk> = disk();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let d = Arc::clone(&d);
                s.spawn(move || {
                    let ext = d.allocate(PAGES_PER_THREAD as u32);
                    let mut buf = Vec::new();
                    for i in 0..PAGES_PER_THREAD as u32 {
                        d.write_page(ext, i, &[7u8; 64]);
                        d.read_page(ext, i, &mut buf);
                    }
                });
            }
        });
        let m = d.metrics();
        let total = THREADS * PAGES_PER_THREAD;
        assert_eq!(m.pages_written, total);
        assert_eq!(m.pages_read, total);
        assert_eq!(m.bytes_written, total * 64);
        assert_eq!(
            d.clock().now_ns(),
            total * (CostModel::NVME.write_page_ns + CostModel::NVME.read_page_ns)
        );
        assert_eq!(d.live_pages(), total);
        assert_eq!(d.live_extents(), THREADS as usize);
    }

    /// A backend written before the shared read and the bulk write existed
    /// implements only the required methods; the provided defaults then
    /// return the same bytes for the same charges as a backend's own.
    #[test]
    fn provided_methods_equal_the_backends_own() {
        struct RequiredOnly(Arc<SimulatedDisk>);
        impl Storage for RequiredOnly {
            fn page_size(&self) -> usize {
                self.0.page_size()
            }
            fn allocate(&self, pages: u32) -> Extent {
                self.0.allocate(pages)
            }
            fn write_page(&self, ext: Extent, idx: u32, data: &[u8]) -> IoCharge {
                self.0.write_page(ext, idx, data)
            }
            fn try_read_page(
                &self,
                ext: Extent,
                idx: u32,
                buf: &mut Vec<u8>,
            ) -> std::io::Result<IoCharge> {
                self.0.try_read_page(ext, idx, buf)
            }
            fn free(&self, ext: Extent) {
                self.0.free(ext)
            }
            fn metrics(&self) -> StorageMetrics {
                self.0.metrics()
            }
            fn clock(&self) -> &VirtualClock {
                self.0.clock()
            }
            fn cost_model(&self) -> CostModel {
                self.0.cost_model()
            }
            fn live_pages(&self) -> u64 {
                self.0.live_pages()
            }
        }
        let (own, plain) = (disk(), RequiredOnly(disk()));
        let pages: [&[u8]; 3] = [b"alpha", b"", b"gamma-gamma"];
        let (ext_a, ext_b) = (own.allocate(3), plain.allocate(3));
        assert_eq!(
            own.write_pages(ext_a, &pages),
            plain.write_pages(ext_b, &pages)
        );
        for (i, page) in pages.iter().enumerate() {
            let a = own.try_read_shared(ext_a, i as u32).unwrap();
            let b = plain.try_read_shared(ext_b, i as u32).unwrap();
            assert_eq!(a, b);
            assert_eq!(&a.0[..], *page);
        }
        assert_eq!(own.metrics(), plain.metrics());
        assert_eq!(own.clock().now_ns(), plain.clock().now_ns());
        let freed = Extent { id: 99, pages: 1 };
        assert_eq!(
            plain.try_read_shared(freed, 0).unwrap_err().kind(),
            own.try_read_shared(freed, 0).unwrap_err().kind()
        );
        // The default append allocates and writes nothing; the disk's own
        // grows a fresh extent batch by batch, charged as one bulk write.
        assert!(plain.append_pages(None, &pages).is_none());
        assert_eq!(plain.live_pages(), 3);
        let (whole, fresh) = (disk(), disk());
        let want = whole.write_pages(whole.allocate(3), &pages);
        let (ext, mut charge) = fresh.append_pages(None, &pages[..1]).unwrap();
        let (ext, rest) = fresh.append_pages(Some(ext), &pages[1..]).unwrap();
        charge += rest;
        assert_eq!((ext, charge, fresh.live_pages()), (ext_a, want, 3));
        assert_eq!(fresh.metrics(), whole.metrics());
        for (i, page) in pages.iter().enumerate() {
            assert_eq!(&fresh.try_read_shared(ext, i as u32).unwrap().0[..], *page);
        }
    }
}
