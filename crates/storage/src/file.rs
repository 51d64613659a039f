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
//! * **one record per extent file (the fd cache)** — the disk keeps one
//!   table of its extent files: per file its open handle, its length in
//!   slots and the state of its syncs. A file is opened once, when it is
//!   created (or on first access after a reopen, the one time its length
//!   is read from the kernel), so a page read costs one `pread`, not an
//!   `open` + `seek` + `read` + `close` round trip, and no barrier or free
//!   asks the kernel for a length the table holds. The table's lock is
//!   held only for the lookup; the I/O itself runs on a cloned
//!   [`Arc<File>`] outside the lock, so reads on different extents (and
//!   even the same extent) proceed concurrently.
//! * **positional I/O** — reads and writes go through
//!   [`FileExt::read_exact_at`] / [`FileExt::write_all_at`]: no seek
//!   state, no `&mut File`, no serialization point per extent.
//! * **one write per batch** — the engine hands a run over 256 pages at
//!   a time as it builds it ([`Storage::append_pages`]), and each batch's
//!   slots are staged in one buffer and put down past the end of the
//!   extent's file with a single `pwrite`, where a per-page loop paid a
//!   system call a page.
//! * **zero-alloc steady state** — each disk has one staging buffer,
//!   reused across calls and threads; after the first call no write
//!   allocates, and a read allocates only the page handle it returns
//!   ([`Storage::try_read_shared`]: one copy out of the staging buffer
//!   into the handle a block cache above keeps). [`FileDisk::fds_opened`]
//!   and [`FileDisk::buffer_grows`] expose counters so benchmarks can
//!   assert both properties instead of trusting them.
//!
//! * **recycled extent files** — [`Storage::free`] moves the record of the
//!   extent it releases, file still open, into a one-file reserve instead
//!   of unlinking the file, and the next [`Storage::allocate`] (or first
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
//! * **one I/O worker per process** — every disk hands one long-lived
//!   thread (spawned by the first disk opened, never joined) the file
//!   calls the commit order does not need on the caller's thread. After
//!   each batch's `pwrite`, [`Storage::append_pages`] queues an
//!   `fdatasync` of the extent, so the sync runs while the caller copies
//!   the pages into its cache and builds the run's filter and fences;
//!   [`Storage::sync_extent`] then waits for a sync that started after the
//!   extent's last write, and issues its own only when none did: after a
//!   [`Storage::write_page`] or a trim, or while the eager sync still
//!   waits in the queue (the barrier takes it over rather than wait
//!   behind other disks' jobs). The worker shares the disk's table: it
//!   takes the file to sync from the extent's record, and records the
//!   sync's result there. [`Storage::free`] queues the unlink of a file it
//!   does not reserve, and its record leaves the table. Syncs run before
//!   unlinks, an extent has at most one sync queued and not started, and
//!   a disk's drop waits for its queued jobs, so a reopen never races a
//!   stale unlink. One thread, not one per disk: threads started and
//!   ended per disk each got a fresh malloc arena and raised the
//!   process's peak RSS.
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
//! tree power-fails. The barriers visit their sites on the caller's
//! thread, once per call, whether or not the worker's eager sync covers
//! the writes; a failed eager sync is the barrier's error and is never
//! retried (after a failed `fsync` Linux marks the pages clean). Unlinks
//! visit [`Site::ExtentUnlink`] on the worker: a failed one is counted
//! ([`StorageMetrics::unlink_failures`]) and left to the next open's
//! orphan sweep, and on a dead plan the worker issues nothing, so the
//! sweep deletes what was still queued. An armed
//! [`Fault::PowerCut`](crate::Fault::PowerCut) tears the extent being
//! synced at [`Site::ExtentSync`], and at [`Site::DirSync`] erases the
//! files created since the last directory sync.

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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
/// of panicking: no call panics between the steps of a change to the
/// table or the worker's queues, so a thread that panicked while holding
/// one left no half-made change behind, and the staging buffer's old
/// bytes are read by no call.
pub struct FileDisk {
    dir: PathBuf,
    page_size: usize,
    cost: CostModel,
    clock: VirtualClock,
    next_id: AtomicU64,
    live_pages: AtomicU64,
    metrics: Arc<AtomicMetrics>,
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
    /// Highest `live_pages` since open: the bound on pages on disk that
    /// decides whether a freed file may wait in the reserve.
    live_high: AtomicU64,
    /// The shard's fault plan: once it is dead, mutations no-op.
    faults: Arc<FaultPlan>,
    /// The disk's table of extent files, which the I/O worker shares, and
    /// its jobs there.
    jobs: Arc<Jobs>,
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

/// The process's one I/O worker (see the module docs).
static WORKER: Worker = Worker {
    queue: Mutex::new(Queue {
        spawned: false,
        syncs: VecDeque::new(),
        unlinks: VecDeque::new(),
        #[cfg(test)]
        spawns: 0,
    }),
    wake: Condvar::new(),
};

/// The queues every disk hands the worker thread. The thread is detached
/// on purpose: it lives as long as the process, and a disk's drop, not a
/// join, waits for that disk's jobs.
struct Worker {
    queue: Mutex<Queue>,
    wake: Condvar,
}

struct Queue {
    /// Whether the thread runs: it is spawned once and never joined.
    spawned: bool,
    /// Eager extent syncs, by extent id, all run before any unlink.
    syncs: VecDeque<(Arc<Jobs>, u64)>,
    unlinks: VecDeque<(Arc<Jobs>, PathBuf)>,
    #[cfg(test)]
    spawns: u32,
}

impl Worker {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Spawns the worker thread unless it runs already.
    fn start(&'static self) -> std::io::Result<()> {
        let mut queue = self.lock();
        if !queue.spawned {
            std::thread::Builder::new()
                .name("ruskey-io".into())
                .spawn(|| self.run())?;
            queue.spawned = true;
            #[cfg(test)]
            {
                queue.spawns += 1;
            }
        }
        Ok(())
    }

    fn push(&self, add: impl FnOnce(&mut Queue)) {
        add(&mut self.lock());
        self.wake.notify_one();
    }

    /// The worker thread: a sync whenever one waits, else an unlink.
    fn run(&self) {
        // Bind this thread to a malloc arena now, while the threads that
        // opened the first disk hold theirs. Bound at its first free
        // instead (a freed path), it could take the arena a finished lane
        // thread left free, and the next lane would grow a new one: about
        // 1.7 MiB more peak RSS on the ledger's `write-heavy`.
        drop(std::hint::black_box(Box::new(0u8)));
        let mut queue = self.lock();
        loop {
            if let Some((disk, id)) = queue.syncs.pop_front() {
                drop(queue);
                if let Some((start, file)) = disk.claim(id) {
                    // A failure is recorded for the barrier, never retried.
                    let _ = disk.sync(id, start, &file);
                }
                disk.finish();
            } else if let Some((disk, path)) = queue.unlinks.pop_front() {
                drop(queue);
                disk.unlink(&path);
                disk.finish();
            } else {
                queue = wait(&self.wake, queue);
                continue;
            }
            queue = self.lock();
        }
    }
}

/// Waits on `cv`, recovering a poisoned guard as every lock here does.
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// A disk's table of extent files, shared with its jobs on the worker.
struct Jobs {
    faults: Arc<FaultPlan>,
    metrics: Arc<AtomicMetrics>,
    state: Mutex<JobState>,
    /// Signalled whenever a job finishes.
    done: Condvar,
    /// `fdatasync` calls the barrier issued itself, no eager sync covering
    /// the writes.
    #[cfg(test)]
    lane_fsyncs: AtomicU64,
    /// Extent file lengths read from the kernel for a record.
    #[cfg(test)]
    length_reads: AtomicU64,
}

/// The table (see the module docs). No call into the kernel runs under
/// its lock but opening an inherited extent's file and a simulated power
/// cut at [`Site::DirSync`].
#[derive(Default)]
struct JobState {
    /// The disk's jobs queued or running.
    pending: usize,
    /// The disk's write sequence number: bumped by every write to an
    /// extent, so a sync started at `seq` covers every write numbered up
    /// to it.
    seq: u64,
    /// The record of every live extent's file.
    open: HashMap<u64, ExtentFile>,
    /// A freed extent's record, kept for the next allocation.
    reserve: Option<(u64, ExtentFile)>,
    /// Extent ids created since the last directory fsync — the files a
    /// power cut at [`Site::DirSync`] erases from the directory, and the
    /// names that make the next [`Storage::sync_dir`] real.
    unnamed: Vec<u64>,
}

/// One extent file: made when the file is created (or first opened after
/// a reopen), moved whole into the reserve and back, and dropped when its
/// unlink is queued.
struct ExtentFile {
    file: Arc<File>,
    /// The file's length in slots.
    slots: u64,
    synced: Synced,
}

impl JobState {
    /// The record of extent `id`: a live extent's, else the reserve's —
    /// a queued eager sync may outlive the extent's free.
    fn find(&mut self, id: u64) -> Option<&mut ExtentFile> {
        let reserved = self.reserve.as_mut().filter(|(held, _)| *held == id);
        self.open.get_mut(&id).or(reserved.map(|(_, ext)| ext))
    }

    /// Files a new record for extent `id`. Its file's syncs are unknown,
    /// so the record numbers a write: the first barrier issues its own
    /// `fdatasync`.
    fn make(&mut self, id: u64, file: Arc<File>, slots: u64) {
        self.seq += 1;
        let synced = Synced {
            written: self.seq,
            ..Synced::default()
        };
        self.open.insert(
            id,
            ExtentFile {
                file,
                slots,
                synced,
            },
        );
    }

    /// Starts a sync of extent `id` now, in place of any queued one: the
    /// sequence number it covers.
    fn start_sync(&mut self, id: u64) -> u64 {
        let seq = self.seq;
        if let Some(ext) = self.find(id) {
            ext.synced.queued = false;
            ext.synced.started = seq;
        }
        seq
    }
}

/// One extent file's syncs, in write sequence numbers.
#[derive(Default)]
struct Synced {
    /// The extent's last write.
    written: u64,
    /// An eager sync waits in the worker's queue, not started: it covers
    /// every write made before it starts.
    queued: bool,
    /// When the last sync to start, on the worker or the barrier, started.
    started: u64,
    /// When the last sync to succeed started.
    covered: u64,
    /// A failed sync's error: every later barrier's. Never retried.
    failed: Option<std::io::ErrorKind>,
}

impl Jobs {
    fn lock(&self) -> MutexGuard<'_, JobState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Numbers a write to extent `id`, after which its file is
    /// `slots(old slots)` long, and, when `eager`, queues an eager sync of
    /// it unless one is queued already.
    fn wrote(self: &Arc<Self>, id: u64, eager: bool, slots: impl FnOnce(u64) -> u64) {
        let mut state = self.lock();
        state.seq += 1;
        let seq = state.seq;
        let Some(ext) = state.find(id) else {
            return;
        };
        ext.synced.written = seq;
        ext.slots = slots(ext.slots);
        if !eager || std::mem::replace(&mut ext.synced.queued, true) {
            return;
        }
        state.pending += 1;
        drop(state);
        WORKER.push(|q| q.syncs.push_back((Arc::clone(self), id)));
    }

    /// Starts the sync of extent `id` queued for the worker, unless the
    /// barrier took it over: the sequence number it covers, and the file.
    fn claim(&self, id: u64) -> Option<(u64, Arc<File>)> {
        let mut state = self.lock();
        let file = state
            .find(id)
            .filter(|ext| ext.synced.queued)
            .map(|ext| Arc::clone(&ext.file))?;
        Some((state.start_sync(id), file))
    }

    /// Issues a sync of extent `id` started at `start` and records its
    /// result for the barrier. On a dead plan it issues nothing and fails.
    fn sync(&self, id: u64, start: u64, file: &File) -> std::io::Result<()> {
        let result = if self.faults.is_dead() {
            Err(fault::dead())
        } else {
            file.sync_data()
        };
        if let Some(ext) = self.lock().find(id) {
            match &result {
                Ok(()) => ext.synced.covered = ext.synced.covered.max(start),
                Err(e) => ext.synced.failed = Some(e.kind()),
            }
        }
        self.done.notify_all();
        result
    }

    /// Ends one job and wakes whoever waits on the disk.
    fn finish(&self) {
        self.lock().pending -= 1;
        self.done.notify_all();
    }

    /// The barrier's sync of extent `id`: waits for a sync that started
    /// after the extent's last write, and issues its own when none did —
    /// taking over the queued sync, if one waits, rather than waiting
    /// behind the worker's other jobs.
    fn await_sync(&self, id: u64, file: &File) -> std::io::Result<()> {
        let mut state = self.lock();
        let start = loop {
            let Some(synced) = state.find(id).map(|ext| &ext.synced) else {
                break state.seq;
            };
            if let Some(kind) = synced.failed {
                return Err(kind.into());
            }
            if synced.covered >= synced.written {
                return Ok(());
            }
            if synced.started < synced.written {
                break state.start_sync(id);
            }
            state = wait(&self.done, state);
        };
        drop(state);
        #[cfg(test)]
        self.lane_fsyncs.fetch_add(1, Ordering::Relaxed);
        self.sync(id, start, file)
    }

    /// Unlinks an extent file, counting a failure instead of dropping it.
    fn unlink(&self, path: &Path) {
        let unlinked = self
            .faults
            .run(Site::ExtentUnlink, |_| std::fs::remove_file(path));
        if unlinked.is_err() {
            self.metrics.unlink_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Waits until none of the disk's jobs is queued or running.
    fn wait_idle(&self) {
        let mut state = self.lock();
        while state.pending > 0 {
            state = wait(&self.done, state);
        }
    }
}

impl FileDisk {
    /// Opens a file-backed disk rooted at `dir` (created if missing). A
    /// directory with existing extent files is continued: their pages
    /// count as live and new allocations start past the highest id found.
    /// Fails if the process's I/O worker is not running and cannot be
    /// spawned.
    pub fn new(
        dir: impl Into<PathBuf>,
        page_size: usize,
        cost: CostModel,
    ) -> std::io::Result<Arc<Self>> {
        WORKER.start()?;
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
        let (faults, metrics) = (Arc::<FaultPlan>::default(), Arc::<AtomicMetrics>::default());
        let jobs = Arc::new(Jobs {
            faults: Arc::clone(&faults),
            metrics: Arc::clone(&metrics),
            state: Mutex::default(),
            done: Condvar::new(),
            #[cfg(test)]
            lane_fsyncs: AtomicU64::new(0),
            #[cfg(test)]
            length_reads: AtomicU64::new(0),
        });
        Ok(Arc::new(Self {
            dir,
            page_size,
            cost,
            clock: VirtualClock::new(),
            next_id: AtomicU64::new(max_id + 1),
            live_pages: AtomicU64::new(live_pages),
            metrics,
            fds_opened: AtomicU64::new(0),
            page_buf: Mutex::new(Vec::new()),
            buffer_grows: AtomicU64::new(0),
            dir_handle,
            live_high: AtomicU64::new(live_pages),
            faults,
            jobs,
        }))
    }

    fn path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("extent-{id:08}.run"))
    }

    /// Bytes one page occupies on disk: the payload plus its length prefix.
    fn slot(&self) -> usize {
        self.page_size + SLOT_HEADER
    }

    /// What `read` takes from an extent's record, making the record on
    /// first access to an extent inherited from a previous incarnation:
    /// its file is opened and its length read once, here.
    ///
    /// A missing file surfaces as a typed [`std::io::ErrorKind::NotFound`]
    /// error for recovery to decide, never a panic: after a power cut the
    /// file-derived allocation watermark cannot distinguish an id that was
    /// never allocated from one whose un-fsynced directory entry the cut
    /// erased — both present as "no such file", and only the caller (who
    /// holds the manifest) knows which ids it acknowledged.
    fn record<R>(&self, id: u64, read: impl FnOnce(&ExtentFile) -> R) -> std::io::Result<R> {
        let mut state = self.jobs.lock();
        if let Some(ext) = state.find(id) {
            return Ok(read(ext));
        }
        let missing = |e: std::io::Error| {
            std::io::Error::new(e.kind(), format!("extent file {id} missing: {e}"))
        };
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.path(id))
            .map_err(missing)?;
        self.fds_opened.fetch_add(1, Ordering::Relaxed);
        let slots = file.metadata()?.len().div_ceil(self.slot() as u64);
        #[cfg(test)]
        self.jobs.length_reads.fetch_add(1, Ordering::Relaxed);
        state.make(id, Arc::new(file), slots);
        Ok(read(&state.open[&id]))
    }

    /// The extent's open file (see [`FileDisk::record`]).
    fn try_handle(&self, id: u64) -> std::io::Result<Arc<File>> {
        self.record(id, |ext| Arc::clone(&ext.file))
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
    /// write each. The extent's record numbers the write, and `eager`
    /// queues a sync of it on the I/O worker.
    fn write_slots(&self, ext: Extent, first: u32, pages: &[&[u8]], eager: bool) -> IoCharge {
        assert!(
            pages.iter().all(|p| p.len() <= self.page_size),
            "page overflow"
        );
        let end = first as usize + pages.len();
        assert!(end <= ext.pages as usize, "page index out of bounds");
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
        if !pages.is_empty() && !self.faults.is_dead() {
            self.jobs
                .wrote(ext.id, eager, |slots| slots.max(end as u64));
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
        let slots = u64::from(pages);
        let reserved = self.jobs.lock().reserve.take_if(|_| !self.faults.is_dead());
        let len = slots * self.slot() as u64;
        let size = |file: &File| {
            self.issue(Site::ExtentSize, |_| file.set_len(len))
                .is_some()
        };
        if let Some((id, mut ext)) = reserved {
            // A longer recycled file keeps its tail until sync_extent trims it.
            if ext.slots >= slots || size(&ext.file) {
                ext.slots = ext.slots.max(slots);
                self.jobs.lock().open.insert(id, ext);
                self.add_live(slots);
            }
            return Extent { id, pages };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let create = |_| {
            let mut open = OpenOptions::new();
            let f = open.read(true).write(true).create(true).truncate(true);
            let f = f.open(self.path(id))?;
            self.fds_opened.fetch_add(1, Ordering::Relaxed);
            Ok(f)
        };
        if let Some(f) = self.issue(Site::ExtentCreate, create).filter(|f| size(f)) {
            let mut state = self.jobs.lock();
            // The new directory entry is not durable until the next sync_dir.
            state.unnamed.push(id);
            state.make(id, Arc::new(f), slots);
            drop(state);
            self.add_live(slots);
        }
        Extent { id, pages }
    }

    /// Queues no sync: the extent's next [`Storage::sync_extent`] issues
    /// its own.
    fn write_page(&self, ext: Extent, idx: u32, data: &[u8]) -> IoCharge {
        self.write_slots(ext, idx, &[data], false)
    }

    /// Grows the extent's file by writing past its end, 256 pages per
    /// positional write, then queues an eager sync of the extent on the
    /// I/O worker.
    fn append_pages(&self, ext: Option<Extent>, pages: &[&[u8]]) -> Option<(Extent, IoCharge)> {
        let ext = ext.unwrap_or_else(|| self.allocate(0));
        let grown = Extent {
            id: ext.id,
            pages: ext.pages + pages.len() as u32,
        };
        if !self.faults.is_dead() {
            self.add_live(pages.len() as u64);
        }
        Some((grown, self.write_slots(grown, ext.pages, pages, true)))
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
        let (f, slots) = self.record(ext.id, |rec| (Arc::clone(&rec.file), rec.slots))?;
        // A recycled file may still hold its former run's tail: trim it
        // before the sync makes the length durable.
        if slots > u64::from(ext.pages) {
            let len = ext.pages as u64 * self.slot() as u64;
            self.faults.run(Site::ExtentTrim, |_| f.set_len(len))?;
            self.jobs.wrote(ext.id, false, |_| ext.pages.into());
        }
        // A power cut loses the writes still in the page cache: the file is
        // torn (a torn tail, not clean truncation to zero, is what real
        // filesystems leave).
        let torn = (ext.pages as u64 / 2) * self.slot() as u64 + SLOT_HEADER as u64 / 2;
        self.faults.barrier(
            Site::ExtentSync,
            || self.jobs.await_sync(ext.id, &f),
            || drop(f.set_len(torn)),
        )?;
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
        let unnamed = self.jobs.lock().unnamed.len();
        if unnamed == 0 {
            if self.faults.is_dead() {
                return Err(fault::dead());
            }
            return Ok(IoCharge::default());
        }
        // A power cut before the directory fsync: the files created since
        // the last sync_dir vanish wholesale.
        let cut = || {
            let mut state = self.jobs.lock();
            for id in std::mem::take(&mut state.unnamed) {
                // Only a live extent counts pages: a reserved file, or a
                // freed one whose unlink is still queued, has none.
                let live = state.open.remove(&id).map_or(0, |ext| ext.slots);
                state.reserve.take_if(|(held, _)| *held == id);
                if std::fs::remove_file(self.path(id)).is_ok() {
                    self.live_pages.fetch_sub(live, Ordering::Relaxed);
                }
            }
        };
        self.faults
            .barrier(Site::DirSync, || self.dir_handle.sync_all(), cut)?;
        // A name created during the fsync waits for the next one.
        self.jobs.lock().unnamed.drain(..unnamed);
        let io = StorageMetrics {
            dir_syncs: 1,
            ..StorageMetrics::default()
        };
        Ok(self.metrics.charge(&self.clock, self.cost.wal_sync_ns, io))
    }

    /// Waits for the disk's queued jobs first: an id it frees for reuse
    /// must have no unlink left in the queue.
    fn collect_orphans(&self, live: &[u64]) -> std::io::Result<Vec<u64>> {
        self.jobs.wait_idle();
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
            let closed = self.jobs.lock().open.remove(&id);
            drop(closed);
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

    /// Moves the extent's record, file open, into the reserve when the
    /// reserve is empty and the pages on disk stay within the high-water
    /// mark of live pages; queues the file's unlink on the I/O worker, and
    /// drops the record, otherwise.
    fn free(&self, ext: Extent) {
        // A missing file (erased by a power cut) has nothing left to free.
        if self.faults.is_dead() || self.try_handle(ext.id).is_err() {
            return;
        }
        let live = self
            .live_pages
            .fetch_sub(ext.pages as u64, Ordering::Relaxed)
            - ext.pages as u64;
        let mut state = self.jobs.lock();
        let Some(freed) = state.open.remove(&ext.id) else {
            return;
        };
        // The file's slots, not the extent's pages: a recycled file not yet
        // trimmed still holds its former tail.
        if state.reserve.is_none() && live + freed.slots <= self.live_high.load(Ordering::Relaxed) {
            state.reserve = Some((ext.id, freed));
            return;
        }
        state.pending += 1;
        drop(state);
        // The handle goes with the file.
        drop(freed);
        let path = self.path(ext.id);
        WORKER.push(|q| q.unlinks.push_back((Arc::clone(&self.jobs), path)));
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

/// A close first waits for the disk's queued jobs, so no unlink of it
/// outlives it. A clean close then unlinks the reserved file, so a reopen
/// counts exactly the live pages; after a crash, recovery's orphan sweep
/// deletes it instead.
impl Drop for FileDisk {
    fn drop(&mut self) {
        self.jobs.wait_idle();
        let reserved = self.jobs.lock().reserve.take();
        if let Some((id, _)) = reserved.filter(|_| !self.faults.is_dead()) {
            self.jobs.unlink(&self.path(id));
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
        assert!(d.jobs.lock().open.is_empty(), "free must drop the handle");
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

    /// Extent-file slots on disk, read from the directory once the disk's
    /// queued unlinks have run.
    fn slots_on_disk(d: &FileDisk) -> u64 {
        d.jobs.wait_idle();
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

    /// The coverage rule: the eager sync an append queues covers the
    /// barrier (no `fdatasync` of the barrier's own, one `extent_syncs`
    /// all the same), but only for the writes made before it started; a
    /// page written after it makes the next barrier issue its own, and
    /// that sync covers a barrier with no write since.
    #[test]
    fn an_eager_sync_covers_only_the_writes_before_it() {
        let dir = tmpdir("coverage");
        let d = FileDisk::new(&dir, 64, CostModel::NVME).unwrap();
        let lane_fsyncs = || d.jobs.lane_fsyncs.load(Ordering::Relaxed);
        let ext = d.append_pages(None, &[&[1u8; 40][..]; 3]).unwrap().0;
        d.jobs.wait_idle();
        assert_eq!(d.sync_extent(ext).unwrap().io.extent_syncs, 1);
        assert_eq!((lane_fsyncs(), d.metrics().extent_syncs), (0, 1));
        d.write_page(ext, 1, b"after the eager sync");
        d.sync_extent(ext).unwrap();
        assert_eq!(lane_fsyncs(), 1, "the write needs the barrier's own sync");
        d.sync_extent(ext).unwrap();
        assert_eq!((lane_fsyncs(), d.metrics().extent_syncs), (1, 3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The table's contract: the disk reads an extent file's length from
    /// the kernel only on first access to an extent inherited from a
    /// reopen, never at a barrier, a free or a reuse, and the length it
    /// keeps still decides the trim of a recycled file.
    #[test]
    fn the_table_reads_a_length_only_for_an_inherited_extent() {
        let dir = tmpdir("table");
        let d = FileDisk::new(&dir, 64, CostModel::FREE).unwrap();
        let length_reads = |d: &FileDisk| d.jobs.length_reads.load(Ordering::Relaxed);
        let page = [5u8; 40];
        let long = d.append_pages(None, &[&page[..]; 30]).unwrap().0;
        d.sync_extent(long).unwrap();
        d.free(long);
        let short = d.append_pages(None, &[&page[..]; 2]).unwrap().0;
        assert_eq!(short.id, long.id, "the reserved file comes back");
        d.sync_extent(short).unwrap();
        let on_disk = std::fs::metadata(d.path(short.id)).unwrap().len();
        assert_eq!(on_disk, 2 * d.slot() as u64, "the barrier trims the tail");
        let mut live = vec![short];
        for round in 0..60usize {
            let mut ext = None;
            for batch in 0..=round % 3 {
                let pages = vec![&page[..]; 1 + (round * 7 + batch) % 20];
                ext = d.append_pages(ext, &pages).map(|(e, _)| e);
            }
            d.sync_extent(ext.unwrap()).unwrap();
            live.push(ext.unwrap());
            if live.len() > 3 {
                d.free(live.remove(round % 3));
            }
        }
        assert!(d.fds_opened() < 30, "{} files for 61 runs", d.fds_opened());
        assert_eq!(length_reads(&d), 0, "fresh extents read no length");
        drop(d);
        let reopened = FileDisk::new(&dir, 64, CostModel::FREE).unwrap();
        reopened.free(live[0]);
        assert_eq!(length_reads(&reopened), 1, "one inherited extent");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Frees hand their unlinks to the worker, and a clean drop waits for
    /// them: what stays on disk is exactly the live extents' files.
    #[test]
    fn a_clean_drop_leaves_exactly_the_live_files() {
        let dir = tmpdir("reclaim");
        let d = FileDisk::new(&dir, 64, CostModel::FREE).unwrap();
        let page = [7u8; 40];
        let exts: Vec<Extent> = (0..12)
            .map(|i| d.append_pages(None, &vec![&page[..]; 1 + i % 4]).unwrap().0)
            .collect();
        let (freed, live): (Vec<Extent>, Vec<Extent>) =
            exts.into_iter().partition(|e| e.id % 3 != 0);
        for ext in freed {
            d.free(ext);
        }
        drop(d);
        let mut on_disk: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| extent_id(&e.unwrap()))
            .collect();
        on_disk.sort_unstable();
        assert_eq!(on_disk, live.iter().map(|e| e.id).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Disks opened on several threads at once share the one worker: it
    /// is spawned once per process, never once per disk.
    #[test]
    fn disks_opened_on_many_threads_share_one_worker() {
        let dirs: Vec<_> = (0..16).map(|i| tmpdir(&format!("worker-{i}"))).collect();
        std::thread::scope(|s| {
            for chunk in dirs.chunks(4) {
                s.spawn(move || {
                    for dir in chunk {
                        let d = FileDisk::new(dir, 64, CostModel::FREE).unwrap();
                        let ext = d.append_pages(None, &[&[3u8; 40][..]; 2]).unwrap().0;
                        d.sync_extent(ext).unwrap();
                    }
                });
            }
        });
        assert_eq!(WORKER.lock().spawns, 1);
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
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

    /// A run appended in batches to a file that starts empty is the
    /// per-page loop in fewer system calls: the same file bytes (zero
    /// padding included, behind a dirty staging buffer too), the same
    /// charge, the same counters — across the chunk boundary and for short
    /// pages.
    #[test]
    fn bulk_write_equals_page_writes() {
        let pages: Vec<Vec<u8>> = (0..2 * BULK_SLOTS + 7)
            .map(|i| vec![i as u8; 1 + (i * 13) % 64])
            .collect();
        let refs: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
        let append = |d: &FileDisk| {
            let (mut ext, mut charge) = (None, IoCharge::default());
            for batch in refs.chunks(BULK_SLOTS + 3) {
                let (grown, c) = d.append_pages(ext, batch).unwrap();
                ext = Some(grown);
                charge += c;
            }
            (ext.unwrap(), charge)
        };
        let dirs = [tmpdir("bulk-a"), tmpdir("bulk-b"), tmpdir("bulk-c")];
        let [a, b, c] = dirs
            .each_ref()
            .map(|dir| FileDisk::new(dir, 64, CostModel::NVME).unwrap());
        let ext_b = b.allocate(refs.len() as u32);
        let mut looped = IoCharge::default();
        for (i, page) in refs.iter().enumerate() {
            looped += b.write_page(ext_b, i as u32, page);
        }
        // Dirty the staging buffer so stale bytes would show as padding.
        a.write_page(a.allocate(1), 0, &[0xAB; 64]);
        let (ext_a, charge) = append(&a);
        assert_eq!(charge, looped);
        assert_eq!(a.metrics().bytes_written, b.metrics().bytes_written + 64);
        assert_eq!(
            std::fs::read(a.path(ext_a.id)).unwrap(),
            std::fs::read(b.path(ext_b.id)).unwrap()
        );
        for (i, page) in refs.iter().enumerate() {
            let (got, _) = a.try_read_shared(ext_a, i as u32).unwrap();
            assert_eq!(&got[..], *page);
        }

        assert_eq!(append(&c), (ext_b, looped));
        assert_eq!((c.metrics(), c.live_pages()), (b.metrics(), b.live_pages()));
        assert_eq!(
            std::fs::read(c.path(ext_b.id)).unwrap(),
            std::fs::read(b.path(ext_b.id)).unwrap()
        );
        for dir in dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
