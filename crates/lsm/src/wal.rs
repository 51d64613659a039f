//! Write-ahead log: the durability substrate of the engine's write path.
//!
//! Every put/delete is appended here *before* it enters the memtable
//! ([`crate::FlsmTree`] owns an optional `Wal` and logs automatically), so
//! the write buffer — the only volatile state between memtable flushes —
//! can be reconstructed after a crash. Record format:
//!
//! ```text
//! [len: u32] [crc32: u32] [seq: u64] [kind: u8] [klen: u16] [key] [value]
//! ```
//!
//! ## Durability contract
//!
//! Appends buffer in user space; the buffer reaches the file only at
//! [`Wal::flush`] (process-crash safety) and becomes stable at
//! [`Wal::sync`] (fsync — power-failure safety). Three policies layer on
//! top:
//!
//! * **manual** ([`Wal::open`]): nothing is durable until the caller
//!   syncs — the raw substrate for group commit;
//! * **auto-sync** ([`Wal::open_with_sync_every`]): an fsync every `n`
//!   appends bounds the loss window to `n - 1` records;
//! * **group commit** (the sharded store): one [`Wal::sync`] per shard per
//!   batch at a mission-level commit barrier, so the fsync cost is
//!   amortized over the whole batch instead of paid per record. The
//!   per-shard sync legs run *concurrently*, each inside its shard's
//!   mission lane — the barrier waits for the slowest shard, not the sum
//!   of all shards, and a shard that crashes mid-leg does not stop its
//!   siblings' fsyncs from completing.
//!
//! [`Wal::sync`] is two halves around the fsync: [`Wal::begin_sync`] moves
//! the buffer into the file and hands out a [`SyncTicket`],
//! [`Wal::finish_sync`] does the accounting once the ticket's fsync has
//! returned. A caller that shares the log behind a lock (the serving
//! frontend) makes the two calls under the lock and the fsync outside it,
//! so appends and reads go on while the device works.
//!
//! A record is *acknowledged* only once a sync covering it succeeds;
//! [`Wal::durable_records`] counts exactly those. After a successful
//! memtable flush the log's contents are superseded by the flushed run and
//! [`Wal::reset`] **recycles** the file (which also clears the
//! unsynced-window counter — a reset log has nothing left to lose).
//!
//! ## One file, recycled in place
//!
//! The log is one file that is never truncated while in use. Appends are
//! positioned writes at the end of the current *generation* (the records
//! since the last reset), and a reset zero-fills that generation and
//! rewinds to offset 0 — no truncate, no fsync, no reopen. One invariant
//! holds throughout: every byte past the current generation is zero or
//! past EOF. [`Wal::reset`] keeps it by zero-filling; [`Wal::recover`] and
//! [`Wal::open`] keep it by cutting an existing file back to its valid
//! prefix, so a record is never written behind a gap.
//!
//! Why: once the file has reached its working size, every append and
//! group commit overwrites blocks that are already allocated, so the
//! `fdatasync` has only data to write. Extending a file (or truncating
//! it) changes its size, and the fsync must then also wait for the file
//! system's journal to commit that metadata.
//!
//! Why it is safe: replay stops at a zero header (its length is below a
//! record's minimum), so a zero-filled log replays exactly like an empty
//! one. A power cut may land after a reset but before the zero-fill
//! reaches the disk; then records of *finished* generations can replay.
//! Every one of them went into a run the manifest committed before the
//! reset, so it carries a sequence number at or below the recovered
//! tree's, and recovery drops it ([`crate::FlsmTree::recover_persistent`];
//! on a volatile backend flushed runs are lost at a restart regardless).
//! An acknowledged record of the live generation was covered by an
//! `fdatasync` of the same file, and that fsync also wrote the zero-filled
//! pages it lies on.
//!
//! ## Recovery
//!
//! [`Wal::replay`] parses the longest valid prefix of a log file: it stops
//! at the first record whose length field overruns the file (torn write),
//! whose CRC mismatches (corruption) or whose header is zero (a recycled
//! tail), and never panics on arbitrary bytes. [`Wal::recover`]
//! additionally truncates the file back to that valid prefix — so later
//! appends extend a clean log rather than trailing garbage — and returns a
//! handle ready for appending. Replay order is pinned by the sequence
//! numbers in the record headers; callers sort by `seq` before
//! reinsertion so recovery is deterministic regardless of how the log was
//! produced.
//!
//! Note the WAL protects the *write buffer* only — one half of the
//! engine's two-log durability contract. The other half is the
//! [`crate::manifest::Manifest`], which records the tree *structure*
//! (runs, levels, policies) so that on a persistent backend
//! ([`ruskey_storage::FileDisk`]) flushed runs survive a restart too:
//! [`crate::FlsmTree::recover_persistent`] rebuilds the structure from
//! manifest + data pages and replays this log's tail on top. A flush
//! recycles the WAL only *after* the manifest batch covering the
//! flushed run is durable, so every acknowledged write is always covered
//! by at least one of the logs. On the deliberately volatile simulated
//! backend the WAL is the whole recovery story.
//!
//! ## Crash injection
//!
//! For the crash-recovery test harness the log carries a built-in fault
//! hook: [`Wal::arm_crash`] plants a [`CrashPoint`] that, once reached,
//! simulates the process dying at that instant — the user-space buffer is
//! discarded, and every later call on the handle becomes a no-op (a dead
//! process issues no more I/O). [`CrashPoint::MidFlush`] additionally
//! writes only half of the pending buffer first, producing the torn tail
//! that replay must tolerate.

use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;

use crate::types::{KvEntry, OpKind};

/// Slice-by-8 lookup tables for the reflected IEEE polynomial: `[0]` is the
/// classic byte-at-a-time table, `[k]` advances a byte `k` positions further.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 8 * 256 {
        let (k, byte) = (i / 256, i % 256);
        t[k][byte] = if k == 0 {
            let (mut crc, mut bit) = (byte as u32, 0);
            while bit < 8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                bit += 1;
            }
            crc
        } else {
            let prev = t[k - 1][byte];
            (prev >> 8) ^ t[0][(prev & 0xff) as usize]
        };
        i += 1;
    }
    t
};

/// CRC-32 (IEEE) over `data`, eight bytes per step. Shared with the
/// manifest's record framing.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let x = u64::from_le_bytes(w.try_into().expect("8-byte chunk")) ^ crc as u64;
        crc = (0..8).fold(0, |acc, k| acc ^ t[7 - k][(x >> (8 * k)) as u8 as usize]);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Where in the WAL write path a simulated crash fires (test harness).
///
/// Each point models the process dying at a distinct instant relative to
/// the durability boundary of one record or batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Before the record is even buffered: the write is lost entirely.
    PreAppend,
    /// After the record is buffered but before any flush/sync: the
    /// user-space buffer dies with the process.
    PostAppend,
    /// Immediately after a successful fsync: the batch is durable, the
    /// process dies before acknowledging further work.
    PostSync,
    /// In the middle of flushing the buffer to the file: only a prefix of
    /// the buffered bytes reaches the disk — the torn-write case.
    MidFlush,
}

/// An armed crash: fires when `point` is visited for the `after + 1`-th
/// time.
#[derive(Debug, Clone, Copy)]
struct ArmedCrash {
    point: CrashPoint,
    after: u64,
}

/// One fsync of the log, split so that it can run without the log: taken
/// by [`Wal::begin_sync`] once the buffer is in the file, it carries the
/// file handle, the lifetime append count the fsync will cover, and the log
/// generation it belongs to. The holder calls [`SyncTicket::sync_data`] —
/// under no lock the log's owner holds — and hands the ticket back to
/// [`Wal::finish_sync`].
#[derive(Debug, Clone)]
pub struct SyncTicket {
    file: Arc<File>,
    generation: u64,
    appended: u64,
}

impl SyncTicket {
    /// Lifetime appends ([`Wal::appended`]) in the file when the ticket was
    /// taken: an fsync started later covers every one of them.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The fsync itself.
    pub fn sync_data(&self) -> std::io::Result<()> {
        self.file.sync_data()
    }
}

/// What [`Wal::reset`] writes over a finished generation, a block at a time.
static ZEROS: [u8; 1 << 16] = [0; 1 << 16];

/// Fsyncs `path`'s parent directory (`.` for a bare file name): a file
/// creation or rename is not durable across power loss until the
/// directory entry itself is.
pub(crate) fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// A write-ahead log: one file, appended to and recycled in place.
pub struct Wal {
    /// Shared with the [`SyncTicket`]s in flight.
    file: Arc<File>,
    /// User-space buffer: bytes appended but not yet written to the file.
    /// Dies with the process — exactly the data a crash loses.
    buf: Vec<u8>,
    /// Bytes of the current generation in the file: the next write lands
    /// here, and every byte past it is zero or past EOF.
    written: u64,
    /// Records in the current log generation (file + buffer); zeroed by
    /// [`Wal::reset`].
    records: u64,
    /// Auto-fsync every `n` appends; 0 = manual syncs only.
    sync_every: u64,
    /// Records appended since the last successful fsync.
    unsynced: u64,
    /// Lifetime appends through this handle (never reset).
    total_appends: u64,
    /// Lifetime successful fsyncs (never reset).
    syncs: u64,
    /// Lifetime records covered by a successful fsync (never reset).
    durable: u64,
    /// Bumped by every [`Wal::reset`]: a ticket of an older generation
    /// syncs records a flush has already superseded (and counted).
    generation: u64,
    /// Armed fault-injection point, if any.
    crash: Option<ArmedCrash>,
    /// True once a simulated crash fired: the handle is "dead" and every
    /// operation is a no-op.
    crashed: bool,
}

impl Wal {
    /// Opens (creating or continuing) the log at `path`, with manual
    /// durability: appends buffer in user space until [`Wal::flush`] or
    /// [`Wal::sync`] is called.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open_with_sync_every(path, 0)
    }

    /// Opens the log with an automatic fsync every `sync_every` appends
    /// (0 disables auto-sync), bounding crash loss to the last
    /// `sync_every - 1` records. An existing regular file is cut back to
    /// its valid prefix and continued after it; a device starts at 0.
    pub fn open_with_sync_every(path: impl AsRef<Path>, sync_every: u64) -> std::io::Result<Self> {
        let path = path.as_ref();
        let valid = match std::fs::metadata(path) {
            Ok(m) if m.is_file() => Self::replay_prefix(path)?.1,
            _ => 0,
        };
        Self::open_at(path, sync_every, valid)
    }

    /// Opens the log for writing at `valid`, the end of its valid prefix,
    /// truncating whatever follows it.
    fn open_at(path: &Path, sync_every: u64, valid: u64) -> std::io::Result<Self> {
        let existed = path.exists();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        let meta = file.metadata()?;
        if meta.is_file() && meta.len() > valid {
            file.set_len(valid)?;
            file.sync_data()?;
        }
        if !existed {
            // A freshly created log is not durable until its directory
            // entry is: power loss before the dir fsync would lose the
            // file — and with it every acknowledged record.
            sync_parent_dir(path)?;
        }
        Ok(Self {
            file: Arc::new(file),
            buf: Vec::new(),
            written: valid,
            records: 0,
            sync_every,
            unsynced: 0,
            total_appends: 0,
            syncs: 0,
            durable: 0,
            generation: 0,
            crash: None,
            crashed: false,
        })
    }

    /// Recovers a log: parses the longest valid prefix of the file at
    /// `path`, truncates the file back to that prefix (dropping any torn
    /// tail so future appends extend a clean log), and returns the parsed
    /// records alongside a handle open for appending. The records are
    /// counted as durable — they were read back from the disk.
    pub fn recover(
        path: impl AsRef<Path>,
        sync_every: u64,
    ) -> std::io::Result<(Self, Vec<KvEntry>)> {
        let path = path.as_ref();
        let (records, valid_bytes) = Self::replay_prefix(path)?;
        let mut wal = Self::open_at(path, sync_every, valid_bytes)?;
        wal.records = records.len() as u64;
        wal.durable = records.len() as u64;
        Ok((wal, records))
    }

    /// Appends one entry. Durability follows the flush policy: with
    /// auto-sync configured the append fsyncs once the cadence is
    /// reached, otherwise it only buffers until [`Wal::flush`]/[`Wal::sync`].
    pub fn append(&mut self, e: &KvEntry) -> std::io::Result<()> {
        if self.crashed {
            return Ok(());
        }
        if self.hit(CrashPoint::PreAppend) {
            // Process death before buffering: every unflushed byte dies.
            self.buf.clear();
            return Ok(());
        }
        // Encode in place: header placeholder, body, then the length and
        // the checksum of the body just written.
        const HEADER: usize = 8;
        let at = self.buf.len();
        self.buf.reserve(HEADER + 11 + e.key.len() + e.value.len());
        self.buf.extend_from_slice(&[0u8; HEADER]);
        self.buf.extend_from_slice(&e.seq.to_le_bytes());
        self.buf.push(e.kind.to_byte());
        self.buf
            .extend_from_slice(&(e.key.len() as u16).to_le_bytes());
        self.buf.extend_from_slice(&e.key);
        self.buf.extend_from_slice(&e.value);
        let body = at + HEADER;
        let len = (self.buf.len() - body) as u32;
        let crc = crc32(&self.buf[body..]);
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self.buf[at + 4..body].copy_from_slice(&crc.to_le_bytes());
        self.records += 1;
        self.unsynced += 1;
        self.total_appends += 1;
        if self.hit(CrashPoint::PostAppend) {
            // Process death after buffering: the buffer (this record
            // included) dies with the process.
            self.buf.clear();
            return Ok(());
        }
        if self.sync_every > 0 && self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes buffered records to the file without forcing them to stable
    /// storage — the cheap mission-boundary policy: survives a process
    /// crash, not a power failure. Deliberately does *not* reset the
    /// auto-sync cadence, so the `sync_every` power-failure bound holds
    /// however often callers flush.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.crashed {
            return Ok(());
        }
        self.flush_buf()
    }

    /// Flushes buffered records and fsyncs the file — the group-commit
    /// primitive: one call makes every record appended so far durable
    /// (acknowledged). It is [`Wal::begin_sync`], the ticket's fsync and
    /// [`Wal::finish_sync`] back to back; a caller that must not hold the
    /// log across the fsync makes the three calls itself.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if let Some(ticket) = self.begin_sync()? {
            ticket.sync_data()?;
            self.finish_sync(&ticket);
        }
        Ok(())
    }

    /// First half of a sync: writes the buffer to the file and hands out
    /// the ticket whose fsync will cover every record appended so far.
    /// `None` on a dead handle — including one a [`CrashPoint::MidFlush`]
    /// killed inside this very flush: no sync starts, so no record becomes
    /// acknowledged.
    pub fn begin_sync(&mut self) -> std::io::Result<Option<SyncTicket>> {
        if self.crashed {
            return Ok(None);
        }
        self.flush_buf()?;
        Ok((!self.crashed).then(|| SyncTicket {
            file: Arc::clone(&self.file),
            generation: self.generation,
            appended: self.total_appends,
        }))
    }

    /// Second half of a sync, called once the ticket's fsync returned
    /// `Ok` (a failed fsync is never finished, which leaves `unsynced()`
    /// and the auto-sync cadence honest): counts the fsync and moves the
    /// records it newly covered out of the loss window. Tickets may finish
    /// in any order; a record is counted by the first that covers it.
    ///
    /// Returns how many records that was — or `None` when nothing may be
    /// acknowledged on the strength of this call: the handle is dead, the
    /// ticket is from before a [`Wal::reset`] (whose flush already counted
    /// its records; no counter moves), or [`CrashPoint::PostSync`] fired
    /// here (the batch is counted durable, the process died before saying
    /// so).
    pub fn finish_sync(&mut self, ticket: &SyncTicket) -> Option<u64> {
        if self.crashed || ticket.generation != self.generation {
            return None;
        }
        let covered = self.total_appends - self.unsynced;
        let newly = ticket.appended.saturating_sub(covered);
        self.syncs += 1;
        self.durable += newly;
        self.unsynced -= newly;
        (!self.hit(CrashPoint::PostSync)).then_some(newly)
    }

    /// Writes the user-space buffer to the file, honoring an armed
    /// [`CrashPoint::MidFlush`]: the crash writes only the first half of
    /// the pending bytes (a torn write) before the process "dies".
    fn flush_buf(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let len = if self.hit(CrashPoint::MidFlush) {
            self.buf.len() / 2
        } else {
            self.buf.len()
        };
        self.file.write_all_at(&self.buf[..len], self.written)?;
        self.written += len as u64;
        self.buf.clear();
        Ok(())
    }

    /// Number of records appended in the current log generation (since
    /// open or the last [`Wal::reset`]).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Lifetime number of records appended through this handle.
    pub fn appended(&self) -> u64 {
        self.total_appends
    }

    /// Records appended since the last fsync — the current power-failure
    /// loss window.
    pub fn unsynced(&self) -> u64 {
        self.unsynced
    }

    /// Lifetime number of successful fsyncs through this handle — the
    /// group-commit cost counter (≤ 1 per shard per batch under the
    /// mission barrier).
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }

    /// Lifetime number of records that have exited the loss window — the
    /// acknowledged write count: covered by a successful fsync, or
    /// superseded by a memtable flush (the flushed run persists them, so
    /// [`Wal::reset`] resolves them too).
    pub fn durable_records(&self) -> u64 {
        self.durable
    }

    /// Recycles the log (after a successful memtable flush): the flushed
    /// run supersedes the logged records, so the user-space buffer is
    /// discarded, the generation in the file is zero-filled in place and
    /// the next append lands at offset 0, and the unsynced window resets
    /// to zero — a reset log has nothing left to lose. Nothing is fsynced
    /// here: the next sync writes the zeroed pages with its records.
    pub fn reset(&mut self) -> std::io::Result<()> {
        if self.crashed {
            return Ok(());
        }
        self.buf.clear();
        // Records still in the loss window are superseded by the flushed
        // run: they leave the window as acknowledged, not as lost.
        self.durable += self.unsynced;
        for at in (0..self.written).step_by(ZEROS.len()) {
            let n = ZEROS.len().min((self.written - at) as usize);
            self.file.write_all_at(&ZEROS[..n], at)?;
        }
        self.written = 0;
        self.generation += 1;
        self.records = 0;
        self.unsynced = 0;
        Ok(())
    }

    /// Arms a simulated crash: the `after + 1`-th visit of `point` kills
    /// this handle (discarding the user-space buffer, as process death
    /// would). Test-harness hook; a production store never arms one.
    pub fn arm_crash(&mut self, point: CrashPoint, after: u64) {
        self.crash = Some(ArmedCrash { point, after });
    }

    /// True once an armed crash has fired: the handle is dead and every
    /// operation is a no-op. Counters keep reporting the pre-crash state
    /// of the (simulated) process.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Kills the handle from outside: the tree calls this when the
    /// storage device reports a power cut, so the WAL behaves exactly
    /// like a process that died — the user-space buffer is lost, the
    /// on-disk prefix stays authoritative for recovery.
    pub fn mark_crashed(&mut self) {
        self.crashed = true;
        self.buf.clear();
    }

    /// Visits a crash point: decrements an armed countdown and, when it
    /// fires, kills the handle. Returns true if the crash fired *now*.
    fn hit(&mut self, point: CrashPoint) -> bool {
        match self.crash {
            Some(ref mut armed) if armed.point == point => {
                if armed.after > 0 {
                    armed.after -= 1;
                    false
                } else {
                    self.crash = None;
                    self.crashed = true;
                    // The caller discards the user-space buffer (MidFlush
                    // half-writes it first, so the clear cannot live here).
                    true
                }
            }
            _ => false,
        }
    }

    /// Replays a log file, returning the longest valid prefix of records.
    /// Never panics on arbitrary bytes: parsing stops at the first
    /// truncated or checksum-failing record.
    pub fn replay(path: impl AsRef<Path>) -> std::io::Result<Vec<KvEntry>> {
        Self::replay_prefix(path).map(|(records, _)| records)
    }

    /// [`Wal::replay`] plus the byte length of the valid prefix, so
    /// recovery can truncate a torn tail before appending again.
    pub fn replay_prefix(path: impl AsRef<Path>) -> std::io::Result<(Vec<KvEntry>, u64)> {
        let mut data = Vec::new();
        match File::open(path.as_ref()) {
            Ok(mut f) => {
                f.read_to_end(&mut data)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
            Err(e) => return Err(e),
        }
        let mut out = Vec::new();
        let mut off = 0usize;
        while off + 8 <= data.len() {
            let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap());
            let start = off + 8;
            let end = start.saturating_add(len);
            if end > data.len() {
                break; // truncated tail
            }
            let body = &data[start..end];
            if crc32(body) != crc || len < 11 {
                break; // corrupt record: stop replay
            }
            let seq = u64::from_le_bytes(body[0..8].try_into().unwrap());
            let Some(kind) = OpKind::from_byte(body[8]) else {
                break;
            };
            let klen = u16::from_le_bytes(body[9..11].try_into().unwrap()) as usize;
            if 11 + klen > body.len() {
                break;
            }
            let key = Bytes::copy_from_slice(&body[11..11 + klen]);
            let value = Bytes::copy_from_slice(&body[11 + klen..]);
            out.push(KvEntry {
                key,
                value,
                seq,
                kind,
            });
            off = end;
        }
        Ok((out, off as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ruskey-wal-{name}-{}", std::process::id()))
    }

    fn e(k: &str, v: &str, seq: u64) -> KvEntry {
        KvEntry::put(
            Bytes::copy_from_slice(k.as_bytes()),
            Bytes::copy_from_slice(v.as_bytes()),
            seq,
        )
    }

    #[test]
    fn append_sync_replay() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&e("a", "1", 1)).unwrap();
            wal.append(&KvEntry::delete(Bytes::from_static(b"b"), 2))
                .unwrap();
            wal.append(&e("c", "3", 3)).unwrap();
            wal.sync().unwrap();
            assert_eq!(wal.appended(), 3);
            assert_eq!(wal.records(), 3);
            assert_eq!(wal.sync_count(), 1);
            assert_eq!(wal.durable_records(), 3);
        }
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[0].key.as_ref(), b"a");
        assert!(replayed[1].is_tombstone());
        assert_eq!(replayed[2].seq, 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let replayed = Wal::replay(tmp("never-created-xyz")).unwrap();
        assert!(replayed.is_empty());
    }

    #[test]
    fn replay_stops_at_truncation() {
        let path = tmp("truncated");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&e("a", "1", 1)).unwrap();
            wal.append(&e("b", "2", 2)).unwrap();
            wal.sync().unwrap();
        }
        // Chop off the last 5 bytes (torn write).
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 5]).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].key.as_ref(), b"a");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_stops_at_corruption() {
        let path = tmp("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&e("a", "1", 1)).unwrap();
            wal.append(&e("b", "2", 2)).unwrap();
            wal.sync().unwrap();
        }
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xFF; // flip a bit in record 2's value
        std::fs::write(&path, &data).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reset_recycles_the_file_in_place() {
        let path = tmp("reset");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&e("a", "1", 1)).unwrap();
        wal.sync().unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.records(), 0);
        wal.append(&e("z", "9", 9)).unwrap();
        wal.sync().unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].key.as_ref(), b"z");
        let _ = std::fs::remove_file(&path);
    }

    /// Pins the reset invariant: truncating the log clears the unsynced
    /// loss window (a reset log has nothing left to lose), while the
    /// lifetime counters keep accumulating.
    #[test]
    fn reset_clears_unsynced_window() {
        let path = tmp("reset-unsynced");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open_with_sync_every(&path, 8).unwrap();
        for i in 1..=5u64 {
            wal.append(&e(&format!("k{i}"), "v", i)).unwrap();
        }
        assert_eq!(wal.unsynced(), 5);
        wal.reset().unwrap();
        assert_eq!(wal.unsynced(), 0, "reset must clear the loss window");
        assert_eq!(wal.records(), 0);
        assert_eq!(wal.appended(), 5, "lifetime appends survive reset");
        // The auto-sync cadence restarts from a clean window: the next
        // sync happens 8 appends after the reset, not 3.
        for i in 6..=12u64 {
            wal.append(&e(&format!("k{i}"), "v", i)).unwrap();
        }
        assert_eq!(wal.unsynced(), 7, "no premature auto-sync after reset");
        assert_eq!(wal.sync_count(), 0);
        wal.append(&e("k13", "v", 13)).unwrap();
        assert_eq!(wal.unsynced(), 0, "cadence of 8 reached");
        assert_eq!(wal.sync_count(), 1);
        let _ = std::fs::remove_file(&path);
    }

    // ------------------------------------------------------------------
    // Recycling: generations written over each other in one file
    // ------------------------------------------------------------------

    /// Record `i` of a generation: every record encodes to `REC` bytes,
    /// so generations' record boundaries line up (the worst case).
    fn rec(i: u64) -> KvEntry {
        e(&format!("k{i:03}"), "value", i)
    }
    const REC: u64 = 8 + 11 + 4 + 5;

    /// Appends and syncs records `seqs` as one generation.
    fn generation(wal: &mut Wal, seqs: std::ops::RangeInclusive<u64>) -> Vec<KvEntry> {
        let records: Vec<KvEntry> = seqs.map(rec).collect();
        records.iter().for_each(|r| wal.append(r).unwrap());
        wal.sync().unwrap();
        records
    }

    #[test]
    fn a_shorter_generation_over_a_longer_one_replays_only_itself() {
        let path = tmp("recycle-shorter");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        generation(&mut wal, 1..=6);
        wal.reset().unwrap();
        let second = generation(&mut wal, 7..=8);
        assert_eq!(Wal::replay(&path).unwrap(), second);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_longer_generation_grows_past_the_old_end_and_replays_whole() {
        let path = tmp("recycle-longer");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        generation(&mut wal, 1..=2);
        wal.reset().unwrap();
        let second = generation(&mut wal, 3..=8);
        assert_eq!(Wal::replay(&path).unwrap(), second);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 6 * REC);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reset_keeps_the_length_and_zeroes_everything_past_the_generation() {
        let path = tmp("recycle-zeroes");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        generation(&mut wal, 1..=5);
        wal.reset().unwrap();
        let data = std::fs::read(&path).unwrap();
        assert_eq!(
            data.len() as u64,
            5 * REC,
            "a reset must not shrink the file"
        );
        assert!(
            data.iter().all(|&b| b == 0),
            "the finished generation is zeroed"
        );
        generation(&mut wal, 6..=6);
        let data = std::fs::read(&path).unwrap();
        assert_eq!(data.len() as u64, 5 * REC);
        assert!(data[REC as usize..].iter().all(|&b| b == 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_continues_a_recycled_file_after_its_valid_prefix() {
        let path = tmp("recycle-reopen");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        generation(&mut wal, 1..=5);
        wal.reset().unwrap();
        let mut want = generation(&mut wal, 6..=7);
        drop(wal);
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            2 * REC,
            "open cuts the zeroed tail"
        );
        want.extend(generation(&mut wal, 8..=8));
        assert_eq!(Wal::replay(&path).unwrap(), want);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crc_detects_changes() {
        assert_ne!(crc32(b"hello"), crc32(b"hellp"));
        assert_eq!(crc32(b""), 0);
    }

    /// The checksum the log was first written with: one bit at a time. The
    /// table-driven [`crc32`] must agree with it on every input, or logs
    /// and manifests written before it stop replaying.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// One record as the log first framed it: body in a buffer of its own,
    /// then length, checksum and body appended.
    fn frame_with_body_buffer(out: &mut Vec<u8>, e: &KvEntry) {
        let mut body = Vec::new();
        body.extend_from_slice(&e.seq.to_le_bytes());
        body.push(e.kind.to_byte());
        body.extend_from_slice(&(e.key.len() as u16).to_le_bytes());
        body.extend_from_slice(&e.key);
        body.extend_from_slice(&e.value);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32_bitwise(&body).to_le_bytes());
        out.extend_from_slice(&body);
    }

    #[test]
    fn table_crc_equals_the_bitwise_crc() {
        // The IEEE check value, then every length around the 8-byte step
        // at every alignment, over bytes from a fixed generator.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..600)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..9 {
            for len in (0..70).chain([255, 256, 257, 511, 590]) {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "{start}+{len}");
            }
        }
    }

    /// The file an append produces is, byte for byte, the file the first
    /// framing produced — golden bytes for one record included, so both
    /// framings changing together would still be caught.
    #[test]
    fn in_place_append_writes_the_same_bytes() {
        let path = tmp("same-bytes");
        let _ = std::fs::remove_file(&path);
        let records = [
            e("a", "1", 1),
            KvEntry::delete(Bytes::from_static(b"tomb"), 2),
            e("", "", 3),
            KvEntry::put(Bytes::from(vec![7u8; 300]), Bytes::from(vec![9u8; 5000]), 4),
        ];
        let mut want = Vec::new();
        let mut wal = Wal::open(&path).unwrap();
        for r in &records {
            frame_with_body_buffer(&mut want, r);
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), want);
        assert_eq!(
            want[..21],
            [13, 0, 0, 0, 0xbe, 0xa2, 0x66, 0x47, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, b'a', b'1']
        );
        assert_eq!(Wal::replay(&path).unwrap(), records);
        let _ = std::fs::remove_file(&path);
    }

    /// Simulates a crash: the handle is leaked so its user-space buffer
    /// is never flushed, exactly like a process dying mid-append.
    fn crash(wal: Wal) {
        std::mem::forget(wal);
    }

    #[test]
    fn auto_sync_bounds_crash_loss() {
        let path = tmp("autosync");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open_with_sync_every(&path, 4).unwrap();
            for i in 1..=10u64 {
                wal.append(&e(&format!("k{i}"), "v", i)).unwrap();
            }
            // Appends 1..=8 were covered by the two automatic syncs; 9 and
            // 10 sit in the loss window.
            assert_eq!(wal.appended(), 10);
            assert_eq!(wal.unsynced(), 2);
            assert_eq!(wal.sync_count(), 2);
            assert_eq!(wal.durable_records(), 8);
            crash(wal);
        }
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(
            replayed.len(),
            8,
            "auto-sync every 4 must preserve the first 8 of 10 records"
        );
        assert_eq!(replayed.last().unwrap().seq, 8);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn manual_policy_without_flush_loses_buffered_records() {
        let path = tmp("manual-crash");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&e("a", "1", 1)).unwrap();
            wal.append(&e("b", "2", 2)).unwrap();
            assert_eq!(wal.unsynced(), 2);
            crash(wal);
        }
        // The documented (and previously silent) failure mode of the
        // manual policy: "logged" but unflushed records vanish.
        assert!(Wal::replay(&path).unwrap().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mission_boundary_flush_survives_process_crash() {
        let path = tmp("flush-boundary");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&e("a", "1", 1)).unwrap();
            wal.append(&e("b", "2", 2)).unwrap();
            wal.flush().unwrap(); // mission boundary
                                  // flush() bounds *process-crash* loss; the power-failure
                                  // window (fsync cadence) is untouched.
            assert_eq!(wal.unsynced(), 2);
            wal.append(&e("c", "3", 3)).unwrap();
            crash(wal);
        }
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 2, "flushed prefix survives, tail is lost");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_does_not_defer_auto_sync() {
        let path = tmp("flush-vs-autosync");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open_with_sync_every(&path, 2).unwrap();
            wal.append(&e("a", "1", 1)).unwrap();
            wal.flush().unwrap(); // must not reset the fsync cadence
            wal.append(&e("b", "2", 2)).unwrap(); // second append: auto-sync
            assert_eq!(wal.unsynced(), 0, "cadence of 2 reached despite flush");
            wal.append(&e("c", "3", 3)).unwrap();
            crash(wal);
        }
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 2, "the auto-synced prefix survives");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_stops_at_mid_record_truncation_after_auto_sync() {
        let path = tmp("autosync-midrec");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open_with_sync_every(&path, 1).unwrap();
            for i in 1..=3u64 {
                wal.append(&e(&format!("key-{i}"), "value", i)).unwrap();
            }
            crash(wal);
        }
        // Tear the last record in half (torn write at power loss): chop
        // inside record 3's body, past its header.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 2, "torn third record must be dropped");
        assert_eq!(replayed[1].seq, 2);
        let _ = std::fs::remove_file(&path);
    }

    // ------------------------------------------------------------------
    // Crash-point fault injection
    // ------------------------------------------------------------------

    #[test]
    fn pre_append_crash_loses_the_record_and_kills_the_handle() {
        let path = tmp("crash-preappend");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&e("a", "1", 1)).unwrap();
        wal.sync().unwrap();
        wal.arm_crash(CrashPoint::PreAppend, 0);
        wal.append(&e("b", "2", 2)).unwrap(); // fires: record never buffered
        assert!(wal.is_crashed());
        // Dead handle: everything is a no-op.
        wal.append(&e("c", "3", 3)).unwrap();
        wal.sync().unwrap();
        wal.reset().unwrap();
        assert_eq!(Wal::replay(&path).unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn post_append_crash_discards_the_buffer() {
        let path = tmp("crash-postappend");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&e("a", "1", 1)).unwrap();
        wal.sync().unwrap();
        wal.arm_crash(CrashPoint::PostAppend, 1);
        wal.append(&e("b", "2", 2)).unwrap(); // countdown: 1 -> 0
        wal.append(&e("c", "3", 3)).unwrap(); // fires: b and c die in the buffer
        assert!(wal.is_crashed());
        assert_eq!(
            Wal::replay(&path).unwrap().len(),
            1,
            "only the synced record"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn post_sync_crash_keeps_the_batch_durable() {
        let path = tmp("crash-postsync");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&e("a", "1", 1)).unwrap();
        wal.append(&e("b", "2", 2)).unwrap();
        wal.arm_crash(CrashPoint::PostSync, 0);
        wal.sync().unwrap(); // batch committed, then the process dies
        assert!(wal.is_crashed());
        assert_eq!(wal.durable_records(), 2, "the sync completed first");
        assert_eq!(Wal::replay(&path).unwrap().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_flush_crash_tears_the_tail_but_keeps_a_prefix() {
        let path = tmp("crash-midflush");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&e("a", "1", 1)).unwrap();
        wal.sync().unwrap();
        for i in 2..=9u64 {
            wal.append(&e(&format!("key-{i}"), "some-value", i))
                .unwrap();
        }
        wal.arm_crash(CrashPoint::MidFlush, 0);
        wal.sync().unwrap(); // torn: only half the batch bytes hit the file
        assert!(wal.is_crashed());
        assert_eq!(
            wal.durable_records(),
            1,
            "the torn sync acknowledged nothing"
        );
        let replayed = Wal::replay(&path).unwrap();
        // Replay yields a strict prefix: at least the previously synced
        // record, fewer than the full batch, all in order.
        assert!(
            !replayed.is_empty() && replayed.len() < 9,
            "{}",
            replayed.len()
        );
        for (i, r) in replayed.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1, "prefix order broken");
        }
        let _ = std::fs::remove_file(&path);
    }

    // ------------------------------------------------------------------
    // The split sync: begin → fsync → finish
    // ------------------------------------------------------------------

    /// A fresh log at `tmp(name)` holding `n` buffered records.
    fn log_with(name: &str, n: u64) -> (PathBuf, Wal) {
        let path = tmp(name);
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        for i in 1..=n {
            wal.append(&e(&format!("key-{i}"), "value", i)).unwrap();
        }
        (path, wal)
    }

    fn counters(wal: &Wal) -> (u64, u64, u64) {
        (wal.unsynced(), wal.durable_records(), wal.sync_count())
    }

    #[test]
    fn begin_fsync_finish_equals_sync() {
        let (whole_path, mut whole) = log_with("split-whole", 3);
        let (halves_path, mut halves) = log_with("split-halves", 3);
        whole.sync().unwrap();
        let ticket = halves.begin_sync().unwrap().expect("live log");
        assert_eq!(ticket.appended(), 3);
        assert_eq!(halves.unsynced(), 3, "nothing is durable before finish");
        ticket.sync_data().unwrap();
        assert_eq!(halves.finish_sync(&ticket), Some(3));
        assert_eq!(counters(&halves), counters(&whole));
        assert_eq!(counters(&halves), (0, 3, 1));
        assert_eq!(
            std::fs::read(&halves_path).unwrap(),
            std::fs::read(&whole_path).unwrap()
        );
        let _ = std::fs::remove_file(&whole_path);
        let _ = std::fs::remove_file(&halves_path);
    }

    /// Two tickets in flight: whichever order they finish in, every record
    /// is counted once, by the first ticket that covers it.
    #[test]
    fn overlapping_tickets_finish_in_either_order() {
        for newest_first in [false, true] {
            let (path, mut wal) = log_with("split-overlap", 2);
            let first = wal.begin_sync().unwrap().unwrap();
            for i in 3..=5u64 {
                wal.append(&e(&format!("key-{i}"), "value", i)).unwrap();
            }
            let second = wal.begin_sync().unwrap().unwrap();
            wal.append(&e("key-6", "value", 6)).unwrap();
            first.sync_data().unwrap();
            second.sync_data().unwrap();
            let covered = if newest_first {
                [wal.finish_sync(&second), wal.finish_sync(&first)]
            } else {
                [wal.finish_sync(&first), wal.finish_sync(&second)]
            };
            let expect = if newest_first { [5, 0] } else { [2, 3] };
            assert_eq!(covered, expect.map(Some), "newest_first={newest_first}");
            assert_eq!(counters(&wal), (1, 5, 2), "record 6 is still unsynced");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// A memtable flush between begin and finish supersedes the log: the
    /// reset counts the records, the late finish counts nothing.
    #[test]
    fn finish_after_reset_changes_no_counter() {
        let (path, mut wal) = log_with("split-reset", 4);
        let stale = wal.begin_sync().unwrap().unwrap();
        wal.reset().unwrap();
        wal.append(&e("key-5", "value", 5)).unwrap();
        let before = counters(&wal);
        assert_eq!(before, (1, 4, 0), "the reset resolved the four records");
        stale.sync_data().unwrap();
        assert_eq!(wal.finish_sync(&stale), None);
        assert_eq!(counters(&wal), before);
        // The new generation syncs as usual.
        wal.sync().unwrap();
        assert_eq!(counters(&wal), (0, 5, 1));
        assert_eq!(Wal::replay(&path).unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_flush_crash_inside_begin_hands_out_no_ticket() {
        let (path, mut wal) = log_with("split-midflush", 6);
        wal.arm_crash(CrashPoint::MidFlush, 0);
        assert!(wal.begin_sync().unwrap().is_none(), "no sync may start");
        assert!(wal.is_crashed());
        assert_eq!(wal.durable_records(), 0, "nothing acknowledged");
        assert_eq!(wal.sync_count(), 0);
        assert!(wal.begin_sync().unwrap().is_none(), "the handle stays dead");
        assert!(Wal::replay(&path).unwrap().len() < 6, "torn tail");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn post_sync_crash_inside_finish_acknowledges_nothing() {
        let (path, mut wal) = log_with("split-postsync", 2);
        let ticket = wal.begin_sync().unwrap().unwrap();
        ticket.sync_data().unwrap();
        wal.arm_crash(CrashPoint::PostSync, 0);
        assert_eq!(wal.finish_sync(&ticket), None, "died before saying so");
        assert!(wal.is_crashed());
        assert_eq!(wal.durable_records(), 2, "the fsync itself completed");
        assert_eq!(
            wal.finish_sync(&ticket),
            None,
            "a dead handle counts nothing"
        );
        assert_eq!(counters(&wal), (0, 2, 1));
        assert_eq!(Wal::replay(&path).unwrap().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    /// An fsync that fails is never finished, so the loss window keeps
    /// every record — through the halves and through `sync()` alike.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_fsync_leaves_unsynced_honest() {
        // fsync on a character device fails with EINVAL; writes succeed.
        let mut wal = Wal::open("/dev/null").unwrap();
        wal.append(&e("a", "1", 1)).unwrap();
        wal.append(&e("b", "2", 2)).unwrap();
        let ticket = wal.begin_sync().unwrap().unwrap();
        assert!(ticket.sync_data().is_err());
        assert_eq!(counters(&wal), (2, 0, 0));
        assert!(wal.sync().is_err());
        assert_eq!(counters(&wal), (2, 0, 0));
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    #[test]
    fn recover_truncates_torn_tail_and_appends_cleanly() {
        let path = tmp("recover-torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            for i in 1..=3u64 {
                wal.append(&e(&format!("key-{i}"), "value", i)).unwrap();
            }
            wal.sync().unwrap();
        }
        // Tear the third record.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 4]).unwrap();
        let (mut wal, records) = Wal::recover(&path, 0).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(wal.records(), 2);
        assert_eq!(wal.durable_records(), 2);
        // Appending after recovery extends a clean log: all records replay.
        wal.append(&e("key-4", "value", 4)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[2].seq, 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recover_missing_file_starts_empty() {
        let path = tmp("recover-missing");
        let _ = std::fs::remove_file(&path);
        let (wal, records) = Wal::recover(&path, 0).unwrap();
        assert!(records.is_empty());
        assert_eq!(wal.records(), 0);
        let _ = std::fs::remove_file(&path);
    }
}
