//! Real-file storage backend.
//!
//! Implements [`Storage`] on top of a directory of per-extent files so the
//! engine can be exercised against an actual filesystem (the persistent
//! sharded store gives every shard its own `FileDisk` directory, and the
//! integration tests drive it directly). I/O is still *counted* and charged
//! to the virtual clock with the same cost model, so results remain
//! comparable with the simulated device.
//!
//! The hot path is built for serving, not just correctness:
//!
//! * **fd cache** — each extent file is opened once and its handle kept in
//!   a map until [`Storage::free`] takes it out, so a page read costs one
//!   `pread`, not an `open` + `seek` + `read` + `close` round trip. The
//!   map's lock is held only for the handle lookup; the I/O itself runs
//!   on a cloned [`Arc<File>`] outside the lock, so reads on different
//!   extents (and even the same extent) proceed concurrently.
//! * **positional I/O** — reads and writes go through
//!   [`FileExt::read_exact_at`] / [`FileExt::write_all_at`]: no seek
//!   state, no `&mut File`, no serialization point per extent.
//! * **one write per batch** — the engine hands a run over 256 pages at
//!   a time as it builds it ([`Storage::append_pages`]), and each batch's
//!   slots are staged in one buffer and put down past the end of the
//!   extent's file with a single `pwrite` ([`Storage::write_pages`] takes
//!   one per 256 pages likewise), where a per-page loop paid a system
//!   call a page.
//! * **zero-alloc steady state** — each disk has one staging buffer,
//!   reused across calls and threads; after the first call no write
//!   allocates, and a read allocates only the page handle it returns
//!   ([`Storage::try_read_shared`]: one copy out of the staging buffer
//!   into the handle a block cache above keeps). [`FileDisk::fds_opened`]
//!   and [`FileDisk::buffer_grows`] expose counters so benchmarks can
//!   assert both properties instead of trusting them.
//!
//! * **recycled extent files** — [`Storage::free`] keeps the file of the
//!   extent it releases, open, in a one-file reserve instead of unlinking
//!   it, and the next [`Storage::allocate`] (or first
//!   [`Storage::append_pages`]) overwrites that file from slot 0 under
//!   the same id before it creates a new one. A run replacing another
//!   (the Level-1 active run at every flush) therefore alternates between
//!   two files: no `creat`, no `unlink`, no new directory entry to fsync,
//!   and an `fdatasync` over blocks the file already holds. The reserve
//!   has no knob. It holds one file, and only while the pages on disk
//!   stay at or below the high-water mark of [`Storage::live_pages`]
//!   since open; any other freed file is unlinked. A recycled file longer
//!   than its new run is trimmed at [`Storage::sync_extent`], and a clean
//!   drop unlinks the reserved file, so a reopen counts live pages
//!   exactly.
//!
//! Opening a directory that already holds extent files *continues* it:
//! existing extents stay readable (the manifest records their ids) and new
//! allocations resume past the highest id on disk — this is what makes the
//! backend restartable. Extent files have unique ids among the live
//! extents (a recycled file takes back the id it was freed under), so
//! creation, removal, and page I/O on different extents are independent,
//! and each shard owning its own `FileDisk` means shards never serialize
//! against each other on the real-file path.
//!
//! **Power-failure semantics.** Writing pages only puts bytes in the OS
//! page cache; the backend therefore exposes the two barriers a
//! power-failure-grade commit protocol needs: [`Storage::sync_extent`]
//! (`fsync(2)` of one extent file — the data) and [`Storage::sync_dir`]
//! (fsync of the directory handle — the extent files' *names*). A
//! directory sync with no extent file created since the last one has no
//! name to make durable: it returns at once, with no syscall and no
//! charge. A reserved file is one the engine freed only after the
//! manifest commit that dropped it became durable, so no durable manifest
//! generation can name a file while it is overwritten; a cut in the middle
//! leaves an orphan that recovery's sweep deletes, as it deletes whatever
//! the reserve held. Reads are
//! fallible at the [`Storage::try_read_page`] layer: an extent file a
//! power cut erased surfaces as [`std::io::ErrorKind::NotFound`], a torn
//! page as [`std::io::ErrorKind::UnexpectedEof`], and a corrupt slot
//! header as [`std::io::ErrorKind::InvalidData`] — never a panic, so
//! recovery decides. An extent id this incarnation never handed out and
//! no previous incarnation could have written still panics: that is a
//! logic bug, not a durability artifact.
//!
//! **Faults.** The disk owns its shard's [`FaultPlan`] ([`Storage::faults`]
//! hands it to the tree, which shares it with the WAL and the manifest).
//! Every durable-path call visits its [`Site`] first: an extent's create,
//! size, write, trim, sync and unlink, and the directory sync. A failed
//! create, size or write — `ENOSPC`, say, or an armed
//! [`Fault::Error`](crate::Fault::Error) — is never a panic: it kills the
//! plan, the device is dead as after a cut (no call writes to the disk
//! again), and every barrier from then on returns an error, on which the
//! tree power-fails. A failed unlink is counted
//! ([`StorageMetrics::unlink_failures`]) and left to the next open's
//! orphan sweep. An armed [`Fault::PowerCut`](crate::Fault::PowerCut)
//! tears the extent being synced at [`Site::ExtentSync`], and at
//! [`Site::DirSync`] erases the files created since the last directory
//! sync.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use bytes::Bytes;

use crate::clock::VirtualClock;
use crate::cost::CostModel;
use crate::disk::{Extent, IoCharge, Storage};
use crate::fault::{self, FaultPlan, Site};
use crate::metrics::{AtomicMetrics, StorageMetrics};

/// Per-page on-disk prefix: the little-endian payload length. The slot a
/// page occupies is `page_size + SLOT_HEADER` bytes, so the full logical
/// `page_size` stays usable — identical to the simulated device's contract.
const SLOT_HEADER: usize = 4;

/// Most slots one positional write carries: a run of up to this many pages
/// goes down in a single `pwrite` (1 MiB at the default page size), a
/// longer one in as few as fit, so the staging buffer stays bounded.
const BULK_SLOTS: usize = 256;

/// A [`Storage`] backend keeping each extent in one file under a directory.
///
/// Its locks recover a poisoned guard (`PoisonError::into_inner`) instead
/// of panicking: each guards a map, list or option that one insert,
/// remove, push, take or assignment changes whole, so a thread that
/// panicked while holding one left no half-made change behind, or the
/// staging buffer, whose old bytes no call reads.
pub struct FileDisk {
    dir: PathBuf,
    page_size: usize,
    cost: CostModel,
    clock: VirtualClock,
    next_id: AtomicU64,
    live_pages: AtomicU64,
    metrics: AtomicMetrics,
    /// Open handle per live extent; populated at allocation (or first
    /// access after a reopen) and dropped in [`Storage::free`].
    handles: Mutex<HashMap<u64, Arc<File>>>,
    fds_opened: AtomicU64,
    /// Reusable staging buffer: one allocation per disk (per high-water
    /// mark: a slot for reads, up to [`BULK_SLOTS`] slots for a run's
    /// write), not one per read or write. Only one thread uses a shard's
    /// disk at a time (its lane, or whoever holds its serving lock), so
    /// the lock is never contended there.
    page_buf: Mutex<Vec<u8>>,
    buffer_grows: AtomicU64,
    /// Open handle on the directory itself, for [`Storage::sync_dir`].
    dir_handle: File,
    /// Extent ids created since the last directory fsync — the files a
    /// power cut at [`Site::DirSync`] erases from the directory, and the
    /// names that make the next [`Storage::sync_dir`] real.
    pending_dir: Mutex<Vec<u64>>,
    /// The file of a freed extent kept for the next allocation (see the
    /// module docs): its handle leaves `handles` while it waits here.
    reserve: Mutex<Option<Reserved>>,
    /// Highest `live_pages` since open: the bound on pages on disk that
    /// decides whether a freed file may wait in the reserve.
    live_high: AtomicU64,
    /// The shard's fault plan: once it is dead, mutations no-op.
    faults: Arc<FaultPlan>,
}

/// The extent id of a directory entry named like an extent file.
fn extent_id(entry: &std::fs::DirEntry) -> Option<u64> {
    let name = entry.file_name();
    let id = name
        .to_str()?
        .strip_prefix("extent-")?
        .strip_suffix(".run")?;
    id.parse().ok()
}

/// An extent file waiting in [`FileDisk`]'s reserve.
struct Reserved {
    id: u64,
    /// Slots the file holds on disk.
    slots: u64,
    file: Arc<File>,
}

impl FileDisk {
    /// Opens a file-backed disk rooted at `dir` (created if missing). A
    /// directory with existing extent files is continued: their pages
    /// count as live and new allocations start past the highest id found.
    pub fn new(
        dir: impl Into<PathBuf>,
        page_size: usize,
        cost: CostModel,
    ) -> std::io::Result<Arc<Self>> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut max_id = 0u64;
        let mut live_pages = 0u64;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let Some(id) = extent_id(&entry) else {
                continue;
            };
            max_id = max_id.max(id);
            live_pages += entry.metadata()?.len() / (page_size + SLOT_HEADER) as u64;
        }
        let dir_handle = File::open(&dir)?;
        Ok(Arc::new(Self {
            dir,
            page_size,
            cost,
            clock: VirtualClock::new(),
            next_id: AtomicU64::new(max_id + 1),
            live_pages: AtomicU64::new(live_pages),
            metrics: AtomicMetrics::default(),
            handles: Mutex::new(HashMap::new()),
            fds_opened: AtomicU64::new(0),
            page_buf: Mutex::new(Vec::new()),
            buffer_grows: AtomicU64::new(0),
            dir_handle,
            pending_dir: Mutex::new(Vec::new()),
            reserve: Mutex::new(None),
            live_high: AtomicU64::new(live_pages),
            faults: Arc::default(),
        }))
    }

    fn path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("extent-{id:08}.run"))
    }

    /// Bytes one page occupies on disk: the payload plus its length prefix.
    fn slot(&self) -> usize {
        self.page_size + SLOT_HEADER
    }

    /// The cached handle for an extent, opening (and caching) it on first
    /// access — e.g. for extents inherited from a previous incarnation.
    ///
    /// A missing file surfaces as a typed [`std::io::ErrorKind::NotFound`]
    /// error for recovery to decide, never a panic: after a power cut the
    /// file-derived allocation watermark cannot distinguish an id that was
    /// never allocated from one whose un-fsynced directory entry the cut
    /// erased — both present as "no such file", and only the caller (who
    /// holds the manifest) knows which ids it acknowledged.
    fn try_handle(&self, id: u64) -> std::io::Result<Arc<File>> {
        let mut handles = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(f) = handles.get(&id) {
            return Ok(Arc::clone(f));
        }
        let f = Arc::new(
            OpenOptions::new()
                .read(true)
                .write(true)
                .open(self.path(id))
                .map_err(|e| {
                    std::io::Error::new(e.kind(), format!("extent file {id} missing: {e}"))
                })?,
        );
        self.fds_opened.fetch_add(1, Ordering::Relaxed);
        handles.insert(id, Arc::clone(&f));
        Ok(f)
    }

    /// Issues `call` at `site` (see [`FaultPlan::run`]): `None` when it
    /// was not issued or failed, which kills the plan — an extent's
    /// create, size or write has no caller to report the error to.
    fn issue<T>(&self, site: Site, call: impl FnOnce(bool) -> std::io::Result<T>) -> Option<T> {
        let done = self.faults.run(site, call).ok().flatten();
        if done.is_none() {
            self.faults.kill();
        }
        done
    }

    /// Unlinks extent `id`'s file, counting a failure instead of dropping it.
    fn unlink(&self, id: u64) {
        let unlinked = self
            .faults
            .run(Site::ExtentUnlink, |_| std::fs::remove_file(self.path(id)));
        if unlinked.is_err() {
            self.metrics.unlink_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts `pages` more live pages and raises the high-water mark.
    fn add_live(&self, pages: u64) {
        let live = self.live_pages.fetch_add(pages, Ordering::Relaxed) + pages;
        self.live_high.fetch_max(live, Ordering::Relaxed);
    }

    /// Lifetime count of `open(2)` calls issued — one per extent per
    /// incarnation, never one per read (the fd cache's contract).
    pub fn fds_opened(&self) -> u64 {
        self.fds_opened.load(Ordering::Relaxed)
    }

    /// Lifetime count of staging-buffer (re)allocations — bounded by its
    /// growth steps, never by the number of reads or writes, nor by the
    /// threads that use the disk (the zero-alloc contract).
    pub fn buffer_grows(&self) -> u64 {
        self.buffer_grows.load(Ordering::Relaxed)
    }

    /// Runs `f` over `slots` on-disk slots of the staging buffer, counting
    /// any capacity growth. The bytes are whatever the last call left: a
    /// reader overwrites all of them, a writer zeroes the padding it leaves.
    fn with_slot_buf<R>(&self, slots: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut buf = self.page_buf.lock().unwrap_or_else(PoisonError::into_inner);
        let len = slots * self.slot();
        if buf.len() < len {
            if buf.capacity() < len {
                self.buffer_grows.fetch_add(1, Ordering::Relaxed);
            }
            buf.resize(len, 0);
        }
        f(&mut buf[..len])
    }

    /// Writes `pages` into consecutive slots of `ext` starting at slot
    /// `first`, [`BULK_SLOTS`] per positional write, and charges one page
    /// write each.
    fn write_slots(&self, ext: Extent, first: u32, pages: &[&[u8]]) -> IoCharge {
        assert!(
            pages.iter().all(|p| p.len() <= self.page_size),
            "page overflow"
        );
        assert!(
            first as usize + pages.len() <= ext.pages as usize,
            "page index out of bounds"
        );
        let slot = self.slot();
        for (chunk_idx, chunk) in pages.chunks(BULK_SLOTS).enumerate() {
            // Slots are fixed-size on disk: pad with zeros, prefix with length.
            let written = self.with_slot_buf(chunk.len(), |buf| {
                for (dst, page) in buf.chunks_exact_mut(slot).zip(chunk) {
                    let (header, payload) = dst.split_at_mut(SLOT_HEADER);
                    header.copy_from_slice(&(page.len() as u32).to_le_bytes());
                    payload[..page.len()].copy_from_slice(page);
                    payload[page.len()..].fill(0);
                }
                let at = (first as u64 + (chunk_idx * BULK_SLOTS) as u64) * slot as u64;
                let part = |torn| &buf[..buf.len() >> u8::from(torn)];
                self.issue(Site::ExtentWrite, |torn| {
                    self.try_handle(ext.id)?.write_all_at(part(torn), at)
                })
            });
            if written.is_none() {
                return IoCharge::default();
            }
        }
        let n = pages.len() as u64;
        let io = StorageMetrics {
            pages_written: n,
            bytes_written: pages.iter().map(|p| p.len() as u64).sum(),
            write_ns: n * self.cost.write_page_ns,
            ..StorageMetrics::default()
        };
        self.metrics
            .charge(&self.clock, n * self.cost.write_page_ns, io)
    }

    /// Reads slot `idx` of `ext` into the staging buffer, validates its
    /// length prefix, hands the payload to `take` and charges one page
    /// read.
    fn read_slot<R>(
        &self,
        ext: Extent,
        idx: u32,
        take: impl FnOnce(&[u8]) -> R,
    ) -> std::io::Result<(R, IoCharge)> {
        let f = self.try_handle(ext.id)?;
        let (taken, len) = self.with_slot_buf(1, |slot| {
            // A short read = the file ends before this page: a torn
            // extent (power cut between write and fsync), typed as
            // UnexpectedEof by read_exact_at.
            f.read_exact_at(slot, idx as u64 * self.slot() as u64)
                .map_err(|e| {
                    std::io::Error::new(e.kind(), format!("read page {}:{idx}: {e}", ext.id))
                })?;
            let (header, payload) = slot.split_at(SLOT_HEADER);
            let len = u32::from_le_bytes(header.try_into().expect("slot header is 4 bytes"));
            // A slot length prefix beyond the page payload would slice out
            // of bounds below: surface the corruption, never panic.
            let page = payload.get(..len as usize).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "corrupt page header {}:{idx}: slot length {len} > page size {}",
                        ext.id, self.page_size
                    ),
                )
            })?;
            Ok::<_, std::io::Error>((take(page), len as u64))
        })?;
        let io = StorageMetrics {
            pages_read: 1,
            bytes_read: len,
            read_ns: self.cost.read_page_ns,
            ..StorageMetrics::default()
        };
        Ok((
            taken,
            self.metrics.charge(&self.clock, self.cost.read_page_ns, io),
        ))
    }
}

impl Storage for FileDisk {
    fn page_size(&self) -> usize {
        self.page_size
    }

    /// Overwrites the reserved file from slot 0 under its old id when the
    /// reserve holds one; creates a new file otherwise.
    ///
    /// On a dead device, or when the file cannot be created or sized, the
    /// id is handed out all the same, so the doomed caller can finish its
    /// motions, and nothing touches the disk.
    fn allocate(&self, pages: u32) -> Extent {
        let reserved = self
            .reserve
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take_if(|_| !self.faults.is_dead());
        let id = reserved
            .as_ref()
            .map_or_else(|| self.next_id.fetch_add(1, Ordering::Relaxed), |r| r.id);
        let create = |_| {
            let mut open = OpenOptions::new();
            let f = open.read(true).write(true).create(true).truncate(true);
            let f = Arc::new(f.open(self.path(id))?);
            self.fds_opened.fetch_add(1, Ordering::Relaxed);
            // The new directory entry is not durable until the next sync_dir.
            self.pending_dir
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(id);
            Ok(f)
        };
        let (f, slots) = match reserved {
            Some(r) => (Some(r.file), r.slots),
            None => (self.issue(Site::ExtentCreate, create), 0),
        };
        // A longer recycled file keeps its tail until sync_extent trims it.
        let len = pages as u64 * self.slot() as u64;
        let size = |f: &Arc<File>| self.issue(Site::ExtentSize, |_| f.set_len(len)).is_some();
        if let Some(f) = f.filter(|f| slots >= pages as u64 || size(f)) {
            self.handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(id, f);
            self.add_live(pages as u64);
        }
        Extent { id, pages }
    }

    fn write_page(&self, ext: Extent, idx: u32, data: &[u8]) -> IoCharge {
        self.write_slots(ext, idx, &[data])
    }

    fn write_pages(&self, ext: Extent, pages: &[&[u8]]) -> IoCharge {
        self.write_slots(ext, 0, pages)
    }

    /// Grows the extent's file by writing past its end, 256 pages per
    /// positional write, as [`Storage::write_pages`] does.
    fn append_pages(&self, ext: Option<Extent>, pages: &[&[u8]]) -> Option<(Extent, IoCharge)> {
        let ext = ext.unwrap_or_else(|| self.allocate(0));
        let grown = Extent {
            id: ext.id,
            pages: ext.pages + pages.len() as u32,
        };
        if !self.faults.is_dead() {
            self.add_live(pages.len() as u64);
        }
        Some((grown, self.write_slots(grown, ext.pages, pages)))
    }

    fn try_read_page(&self, ext: Extent, idx: u32, buf: &mut Vec<u8>) -> std::io::Result<IoCharge> {
        let ((), charge) = self.read_slot(ext, idx, |page| {
            buf.clear();
            buf.extend_from_slice(page);
        })?;
        Ok(charge)
    }

    /// The one copy of a miss: out of the staging buffer into the handle
    /// the block cache above keeps.
    fn try_read_shared(&self, ext: Extent, idx: u32) -> std::io::Result<(Bytes, IoCharge)> {
        self.read_slot(ext, idx, Bytes::copy_from_slice)
    }

    fn sync_extent(&self, ext: Extent) -> std::io::Result<IoCharge> {
        let f = self.try_handle(ext.id)?;
        // A recycled file may still hold its former run's tail: trim it
        // before the sync makes the length durable.
        let len = ext.pages as u64 * self.slot() as u64;
        if f.metadata()?.len() > len {
            self.faults.run(Site::ExtentTrim, |_| f.set_len(len))?;
        }
        // A power cut loses the writes still in the page cache: the file is
        // torn (a torn tail, not clean truncation to zero, is what real
        // filesystems leave).
        let torn = (ext.pages as u64 / 2) * self.slot() as u64 + SLOT_HEADER as u64 / 2;
        self.faults
            .barrier(Site::ExtentSync, || f.sync_data(), || drop(f.set_len(torn)))?;
        let io = StorageMetrics {
            extent_syncs: 1,
            ..StorageMetrics::default()
        };
        Ok(self.metrics.charge(&self.clock, self.cost.wal_sync_ns, io))
    }

    /// Free when no extent file was created since the last directory
    /// sync: there is no name to make durable, so no syscall, count or
    /// charge — and no visit to [`Site::DirSync`]. A dead device fails it
    /// all the same, as it fails every barrier.
    fn sync_dir(&self) -> std::io::Result<IoCharge> {
        let mut pending = self
            .pending_dir
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if pending.is_empty() {
            if self.faults.is_dead() {
                return Err(fault::dead());
            }
            return Ok(IoCharge::default());
        }
        // A power cut before the directory fsync: the files created since
        // the last sync_dir vanish wholesale.
        let cut = || {
            for id in std::mem::take(&mut *pending) {
                self.handles
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&id);
                // A reserved file's pages are not live.
                let reserved = self
                    .reserve
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take_if(|r| r.id == id)
                    .is_some();
                if let Ok(meta) = std::fs::metadata(self.path(id)) {
                    if std::fs::remove_file(self.path(id)).is_ok() && !reserved {
                        self.live_pages
                            .fetch_sub(meta.len() / self.slot() as u64, Ordering::Relaxed);
                    }
                }
            }
        };
        self.faults
            .barrier(Site::DirSync, || self.dir_handle.sync_all(), cut)?;
        pending.clear();
        let io = StorageMetrics {
            dir_syncs: 1,
            ..StorageMetrics::default()
        };
        Ok(self.metrics.charge(&self.clock, self.cost.wal_sync_ns, io))
    }

    fn collect_orphans(&self, live: &[u64]) -> std::io::Result<Vec<u64>> {
        let mut collected = Vec::new();
        let mut max_retained = 0u64;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let Some(id) = extent_id(&entry) else {
                continue;
            };
            if live.contains(&id) {
                max_retained = max_retained.max(id);
                continue;
            }
            let pages = entry.metadata()?.len() / self.slot() as u64;
            self.handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&id);
            std::fs::remove_file(entry.path())?;
            self.live_pages.fetch_sub(pages, Ordering::Relaxed);
            collected.push(id);
        }
        if !collected.is_empty() {
            // Make the unlinks durable, then let allocation reuse the
            // collected ids: with the stale files gone, reuse is safe.
            self.dir_handle.sync_all()?;
            self.next_id.store(max_retained + 1, Ordering::Relaxed);
            collected.sort_unstable();
        }
        Ok(collected)
    }

    fn faults(&self) -> Option<&Arc<FaultPlan>> {
        Some(&self.faults)
    }

    /// Keeps the extent's file, open, in the reserve when the reserve is
    /// empty and the pages on disk stay within the high-water mark of live
    /// pages; unlinks it otherwise.
    fn free(&self, ext: Extent) {
        if self.faults.is_dead() {
            return;
        }
        // The file's length, not the extent's pages: a recycled file not
        // yet trimmed still holds its former tail. A missing file (erased
        // by a power cut) has nothing left to free.
        let Ok(f) = self.try_handle(ext.id) else {
            return;
        };
        self.handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&ext.id);
        let live = self
            .live_pages
            .fetch_sub(ext.pages as u64, Ordering::Relaxed)
            - ext.pages as u64;
        let slots = f.metadata().map(|m| m.len().div_ceil(self.slot() as u64));
        let mut reserve = self.reserve.lock().unwrap_or_else(PoisonError::into_inner);
        match slots {
            Ok(slots)
                if reserve.is_none() && live + slots <= self.live_high.load(Ordering::Relaxed) =>
            {
                *reserve = Some(Reserved {
                    id: ext.id,
                    slots,
                    file: f,
                });
                return;
            }
            _ => drop(reserve),
        }
        // The handle goes with the file.
        drop(f);
        self.unlink(ext.id);
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

/// A clean close unlinks the reserved file, so a reopen counts exactly the
/// live pages; after a crash, recovery's orphan sweep deletes it instead.
impl Drop for FileDisk {
    fn drop(&mut self) {
        let reserved = self
            .reserve
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(r) = reserved.filter(|_| !self.faults.is_dead()) {
            self.unlink(r.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fault;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ruskey-filedisk-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_and_metrics() {
        let dir = tmpdir("roundtrip");
        let d = FileDisk::new(&dir, 256, CostModel::FREE).unwrap();
        let ext = d.allocate(2);
        d.write_page(ext, 0, b"alpha");
        d.write_page(ext, 1, b"beta");
        let mut buf = Vec::new();
        d.read_page(ext, 1, &mut buf);
        assert_eq!(&buf, b"beta");
        d.read_page(ext, 0, &mut buf);
        assert_eq!(&buf, b"alpha");
        let m = d.metrics();
        assert_eq!(m.pages_written, 2);
        assert_eq!(m.pages_read, 2);
        d.free(ext);
        assert_eq!(d.live_pages(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fd cache's contract: any number of page reads and writes on an
    /// extent cost exactly one `open` (at allocation), and freeing the
    /// extent drops the handle.
    #[test]
    fn fd_cache_opens_each_extent_once() {
        let dir = tmpdir("fdcache");
        let d = FileDisk::new(&dir, 256, CostModel::FREE).unwrap();
        let ext = d.allocate(4);
        assert_eq!(d.fds_opened(), 1);
        let mut buf = Vec::new();
        for round in 0..50 {
            for i in 0..4 {
                d.write_page(ext, i, &[round as u8; 32]);
                d.read_page(ext, i, &mut buf);
            }
        }
        assert_eq!(d.fds_opened(), 1, "per-read opens must be gone");
        d.free(ext);
        assert!(
            d.handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_empty(),
            "free must drop the handle"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The zero-alloc contract: the scratch buffer grows at most once per
    /// thread (to the page size), regardless of call count.
    #[test]
    fn page_buffer_is_reused_across_calls() {
        let dir = tmpdir("zeroalloc");
        let d = FileDisk::new(&dir, 256, CostModel::FREE).unwrap();
        let ext = d.allocate(2);
        let mut buf = Vec::new();
        d.write_page(ext, 0, b"warm");
        d.read_page(ext, 0, &mut buf);
        let grows_after_warmup = d.buffer_grows();
        for _ in 0..200 {
            d.write_page(ext, 1, b"steady");
            d.read_page(ext, 1, &mut buf);
        }
        assert_eq!(
            d.buffer_grows(),
            grows_after_warmup,
            "steady-state reads and writes must not allocate"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One staging buffer per disk, not per thread: a second thread that
    /// reads and writes the disk after the first reuses the buffer the
    /// first grew (a mission's scoped lane thread is a new thread each
    /// time).
    #[test]
    fn threads_share_the_disks_staging_buffer() {
        let dir = tmpdir("sharedbuf");
        let d = FileDisk::new(&dir, 256, CostModel::FREE).unwrap();
        let ext = d.allocate(1);
        for round in 0..2u8 {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut buf = Vec::new();
                    d.write_page(ext, 0, &[round; 32]);
                    d.read_page(ext, 0, &mut buf);
                    assert_eq!(buf, [round; 32]);
                });
            });
        }
        assert_eq!(d.buffer_grows(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Reopening a directory continues it: existing extents stay
    /// readable (their handles re-cached lazily on first access), their
    /// pages count as live, and new allocations never collide with ids
    /// from the previous incarnation.
    #[test]
    fn reopen_continues_extent_ids_and_live_pages() {
        let dir = tmpdir("reopen");
        let (ext_a, pages_before) = {
            let d = FileDisk::new(&dir, 256, CostModel::FREE).unwrap();
            let a = d.allocate(3);
            d.write_page(a, 0, b"persisted");
            let b = d.allocate(2);
            d.free(b);
            (a, d.live_pages())
        };
        let d = FileDisk::new(&dir, 256, CostModel::FREE).unwrap();
        assert_eq!(d.live_pages(), pages_before, "live pages survive reopen");
        let mut buf = Vec::new();
        d.read_page(ext_a, 0, &mut buf);
        assert_eq!(&buf, b"persisted");
        assert_eq!(d.fds_opened(), 1, "lazy reopen of the surviving extent");
        let fresh = d.allocate(1);
        assert!(
            fresh.id > ext_a.id,
            "new ids must not collide with surviving extents"
        );
        d.write_page(fresh, 0, b"new");
        d.read_page(ext_a, 0, &mut buf);
        assert_eq!(&buf, b"persisted", "old extent untouched by new writes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Extent-file slots on disk, read from the directory.
    fn slots_on_disk(d: &FileDisk) -> u64 {
        std::fs::read_dir(&d.dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_string_lossy().starts_with("extent-"))
            .map(|e| e.metadata().unwrap().len().div_ceil(d.slot() as u64))
            .sum()
    }

    /// The reserve's bound: under allocate/append/free churn — runs of
    /// every length replacing older ones, some freed before their sync as
    /// a builder cut off mid-run is — the extent files on disk never hold
    /// more slots than the high-water mark of live pages, and a reopen
    /// plus the orphan sweep brings the pages on disk back to the live
    /// ones. Recycling happened: fewer files were created than runs built.
    #[test]
    fn recycled_files_stay_within_the_live_high_water_mark() {
        let dir = tmpdir("reserve");
        let d = FileDisk::new(&dir, 64, CostModel::FREE).unwrap();
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        // Two runs built side by side, as a bulk load's builders are: the
        // first recycles a longer file, and freed before its sync, with
        // its tail, it would leave more on disk than was ever live.
        let page = [0u8; 40];
        let a = d.append_pages(None, &[&page[..]; 30]).unwrap().0;
        d.sync_extent(a).unwrap();
        d.free(a);
        let b = d.append_pages(None, &[&page[..]; 2]).unwrap().0;
        let c = d.append_pages(None, &[&page[..]; 28]).unwrap().0;
        assert_eq!((b.id, d.live_pages()), (a.id, 30));
        d.free(b);
        assert!(
            slots_on_disk(&d) <= 30,
            "the tail must not wait in the reserve"
        );
        d.sync_extent(c).unwrap();
        let (mut live, mut high, mut runs) = (vec![c], 30u64, 2u64);
        for step in 0..400 {
            let mut ext = None;
            let page = [step as u8; 40];
            for _ in 0..=next(3) {
                let batch = vec![&page[..]; 1 + next(30) as usize];
                ext = d.append_pages(ext, &batch).map(|(e, _)| e);
                high = high.max(d.live_pages());
            }
            let ext = ext.unwrap();
            runs += 1;
            if next(8) == 0 {
                // Cut off before its sync: freed with whatever tail it has.
                d.free(ext);
            } else {
                d.sync_extent(ext).unwrap();
                live.push(ext);
            }
            assert!(slots_on_disk(&d) <= high, "step {step}: after a free");
            while live.len() > 1 + next(6) as usize {
                d.free(live.remove(next(live.len() as u64) as usize));
                assert!(slots_on_disk(&d) <= high, "step {step}: after a free");
            }
        }
        assert!(
            d.fds_opened() < runs / 2,
            "{} files for {runs} runs",
            d.fds_opened()
        );
        let live_pages: u64 = live.iter().map(|e| e.pages as u64).sum();
        assert_eq!(d.live_pages(), live_pages);
        // A crash leaves the reserved file behind: reopen beside the live
        // instance, before its drop unlinks the file.
        let reopened = FileDisk::new(&dir, 64, CostModel::FREE).unwrap();
        let ids: Vec<u64> = live.iter().map(|e| e.id).collect();
        reopened.collect_orphans(&ids).unwrap();
        assert_eq!(reopened.live_pages(), live_pages);
        assert_eq!(slots_on_disk(&reopened), live_pages);
        for ext in &live {
            let (page, _) = reopened.try_read_shared(*ext, ext.pages - 1).unwrap();
            assert_eq!(page.len(), 40);
        }
        drop((d, reopened));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A directory sync with no extent file created since the last one
    /// makes nothing durable: no count, no charge, no visit to its site.
    /// A recycled file's creation that is not yet durable
    /// keeps the next sync real.
    #[test]
    fn sync_dir_without_new_names_is_free() {
        let dir = tmpdir("syncdir");
        let d = FileDisk::new(&dir, 64, CostModel::NVME).unwrap();
        assert_eq!(d.sync_dir().unwrap(), IoCharge::default());
        let a = d.allocate(2);
        d.free(a);
        let b = d.allocate(1);
        assert_eq!(b.id, a.id, "the reserved file comes back");
        assert_eq!(
            d.sync_dir().unwrap().io.dir_syncs,
            1,
            "a's name is not durable yet"
        );
        d.free(b);
        assert_eq!(d.allocate(3).id, a.id);
        let (clock, metrics) = (d.clock().now_ns(), d.metrics());
        // Armed at the next real sync: the free sync does not visit it.
        d.faults.arm(Site::DirSync, 0, Fault::PowerCut);
        assert_eq!(d.sync_dir().unwrap(), IoCharge::default());
        assert_eq!((d.clock().now_ns(), d.metrics()), (clock, metrics));
        let c = d.allocate(1);
        assert_ne!(c.id, a.id, "the reserve is empty: a new file");
        assert!(
            d.sync_dir().is_err(),
            "the cut fires at the sync with a name"
        );
        assert!(!d.path(c.id).exists() && d.path(a.id).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A create, size or write that fails is no panic: the device is dead
    /// from then on (nothing more is written or charged), and both
    /// barriers return an error — the directory sync too when no name
    /// waits (a failed create leaves none).
    #[test]
    fn a_failed_extent_call_kills_the_device_and_fails_the_next_barrier() {
        for site in [Site::ExtentCreate, Site::ExtentSize, Site::ExtentWrite] {
            let dir = tmpdir("failed-call");
            let d = FileDisk::new(&dir, 64, CostModel::NVME).unwrap();
            let enospc = Fault::Error(std::io::ErrorKind::StorageFull);
            d.faults.arm(site, 0, enospc);
            let ext = d.allocate(2);
            assert_eq!(d.write_page(ext, 0, b"lost"), IoCharge::default());
            assert!(d.faults.is_dead(), "{site:?}");
            assert!(d.sync_extent(ext).is_err(), "{site:?}");
            assert!(d.sync_dir().is_err(), "{site:?}: with or without new names");
            assert_eq!(d.metrics(), StorageMetrics::default(), "{site:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Independent `FileDisk` instances (one per shard) share no locks:
    /// concurrent allocate/write/read/free across instances in disjoint
    /// directories must be safe and exact.
    #[test]
    fn per_shard_instances_run_concurrently() {
        const PAGES: u64 = 50;
        let dirs: Vec<_> = (0..4).map(|i| tmpdir(&format!("conc-{i}"))).collect();
        let disks: Vec<_> = dirs
            .iter()
            .map(|d| FileDisk::new(d, 256, CostModel::FREE).unwrap())
            .collect();
        std::thread::scope(|s| {
            for d in &disks {
                let d = Arc::clone(d);
                s.spawn(move || {
                    let ext = d.allocate(PAGES as u32);
                    let mut buf = Vec::new();
                    for i in 0..PAGES as u32 {
                        d.write_page(ext, i, &[9u8; 64]);
                        d.read_page(ext, i, &mut buf);
                    }
                });
            }
        });
        for d in &disks {
            assert_eq!(d.metrics().pages_written, PAGES);
            assert_eq!(d.metrics().pages_read, PAGES);
            assert_eq!(d.live_pages(), PAGES);
        }
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Concurrent readers on one shared instance: the fd cache hands out
    /// clones of the same handle and positional I/O keeps them
    /// independent — no interleaving corruption, no extra opens.
    #[test]
    fn shared_instance_serves_concurrent_readers() {
        let dir = tmpdir("shared");
        let d = FileDisk::new(&dir, 256, CostModel::FREE).unwrap();
        let ext = d.allocate(8);
        for i in 0..8 {
            d.write_page(ext, i, &[i as u8; 100]);
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let d = Arc::clone(&d);
                s.spawn(move || {
                    let mut buf = Vec::new();
                    for round in 0..100 {
                        let i = round % 8;
                        d.read_page(ext, i, &mut buf);
                        assert_eq!(buf.len(), 100);
                        assert!(buf.iter().all(|&b| b == i as u8));
                    }
                });
            }
        });
        assert_eq!(d.fds_opened(), 1);
        assert_eq!(d.metrics().pages_read, 400);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_page_preserves_length() {
        let dir = tmpdir("partial");
        let d = FileDisk::new(&dir, 256, CostModel::FREE).unwrap();
        let ext = d.allocate(1);
        d.write_page(ext, 0, &[7u8; 100]);
        let mut buf = Vec::new();
        d.read_page(ext, 0, &mut buf);
        assert_eq!(buf.len(), 100);
        assert!(buf.iter().all(|&b| b == 7));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bulk write, and a run appended in batches to a file that starts
    /// empty, are the per-page loop in fewer system calls: the same file
    /// bytes (zero padding included), the same charge, the same counters —
    /// across the chunk boundary and for short pages.
    #[test]
    fn bulk_write_equals_page_writes() {
        let pages: Vec<Vec<u8>> = (0..2 * BULK_SLOTS + 7)
            .map(|i| vec![i as u8; 1 + (i * 13) % 64])
            .collect();
        let refs: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
        let (dir_a, dir_b) = (tmpdir("bulk-a"), tmpdir("bulk-b"));
        let a = FileDisk::new(&dir_a, 64, CostModel::NVME).unwrap();
        let b = FileDisk::new(&dir_b, 64, CostModel::NVME).unwrap();
        let (ext_a, ext_b) = (a.allocate(refs.len() as u32), b.allocate(refs.len() as u32));
        // Dirty the staging buffer so stale bytes would show as padding.
        a.write_page(a.allocate(1), 0, &[0xAB; 64]);
        let mut looped = IoCharge::default();
        for (i, page) in refs.iter().enumerate() {
            looped += b.write_page(ext_b, i as u32, page);
        }
        assert_eq!(a.write_pages(ext_a, &refs), looped);
        assert_eq!(a.metrics().bytes_written, b.metrics().bytes_written + 64);
        assert_eq!(
            std::fs::read(a.path(ext_a.id)).unwrap(),
            std::fs::read(b.path(ext_b.id)).unwrap()
        );
        for (i, page) in refs.iter().enumerate() {
            let (got, _) = a.try_read_shared(ext_a, i as u32).unwrap();
            assert_eq!(&got[..], *page);
        }

        let dir_c = tmpdir("bulk-c");
        let c = FileDisk::new(&dir_c, 64, CostModel::NVME).unwrap();
        let (mut ext_c, mut appended) = (None, IoCharge::default());
        for batch in refs.chunks(BULK_SLOTS + 3) {
            let (grown, charge) = c.append_pages(ext_c, batch).unwrap();
            ext_c = Some(grown);
            appended += charge;
        }
        assert_eq!((ext_c, appended), (Some(ext_b), looped));
        assert_eq!((c.metrics(), c.live_pages()), (b.metrics(), b.live_pages()));
        assert_eq!(
            std::fs::read(c.path(ext_b.id)).unwrap(),
            std::fs::read(b.path(ext_b.id)).unwrap()
        );
        for dir in [dir_a, dir_b, dir_c] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
