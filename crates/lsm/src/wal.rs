//! Write-ahead log: the durability substrate of the engine's write path.
//!
//! Every put/delete is appended here *before* it enters the memtable
//! ([`crate::FlsmTree`] owns an optional `Wal` and logs automatically), so
//! the write buffer — the only volatile state between memtable flushes —
//! can be reconstructed after a crash. The log is a `KvEntry` codec over
//! the crate's record log (framing, replay, recycling and sync tickets are
//! described there, in `record_log.rs`); one record's body is
//!
//! ```text
//! [seq: u64] [kind: u8] [klen: u16] [key] [value]
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
//! [`Wal::sync`] is two halves around the fsync: `Wal::begin_sync` moves
//! the buffer into the file and hands out a [`SyncTicket`],
//! `Wal::finish_sync` does the accounting once the ticket's fsync has
//! returned. A caller that shares the log behind a lock (the serving
//! frontend) makes the two calls under the lock and the fsync outside it,
//! so appends and reads go on while the device works.
//!
//! A record is *acknowledged* only once a sync covering it succeeds;
//! `Wal::durable_records` counts exactly those. After a successful
//! memtable flush the log's contents are superseded by the flushed run and
//! [`Wal::reset`] **recycles** the file in place (which also clears the
//! unsynced-window counter — a reset log has nothing left to lose).
//!
//! A power cut may land after a reset but before its zero-fill reaches the
//! disk; then records of *finished* generations replay. Every one of them
//! went into a run the manifest committed before the reset, so it carries a
//! sequence number at or below the recovered tree's, and recovery drops it
//! ([`crate::FlsmTree::recover_persistent`]; on a volatile backend flushed
//! runs are lost at a restart regardless).
//!
//! ## Recovery
//!
//! [`Wal::replay`] parses the longest valid prefix of a log file and never
//! panics on arbitrary bytes; a body too short for its header or its key,
//! or with an unknown kind, ends the prefix too. `Wal::recover`
//! additionally cuts the file back to that prefix — so later appends
//! extend a clean log rather than trailing garbage — and returns a handle
//! ready for appending. Replay order is pinned by the sequence numbers in
//! the records; callers sort by `seq` before reinsertion so recovery is
//! deterministic regardless of how the log was produced.
//!
//! Note the WAL protects the *write buffer* only — one half of the
//! engine's two-log durability contract. The other half is the
//! [`crate::manifest::Manifest`], which records the tree *structure*
//! (runs, levels, policies) so that on a persistent backend
//! ([`ruskey_storage::FileDisk`]) flushed runs survive a restart too:
//! [`crate::FlsmTree::recover_persistent`] rebuilds the structure from
//! manifest + data pages and replays this log's tail on top. A flush
//! recycles the WAL only *after* the manifest snapshot covering the
//! flushed run is durable, so every acknowledged write is always covered
//! by at least one of the logs. On the deliberately volatile simulated
//! backend the WAL is the whole recovery story.
//!
//! ## Crash injection
//!
//! The log visits four sites of its shard's [`ruskey_storage::FaultPlan`]
//! (the tree shares the plan with the log it attaches): [`Site::WalAppend`]
//! before a record is framed, [`Site::WalWrite`] before the buffer's
//! positioned write, [`Site::WalSync`] before a sync ticket's fsync — on
//! whichever thread holds the ticket — and [`Site::WalRecycle`] before each
//! zero-fill write of [`Wal::reset`]. A crash before an append loses the
//! record; one after it loses the buffer with the process; a torn write
//! leaves the torn tail replay must tolerate; a crash after the fsync
//! leaves the batch durable but unacknowledged. Once the plan is dead,
//! every call on the handle is a no-op: a dead process issues no more I/O,
//! and its counters stop where it died.

use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;

use ruskey_storage::{FaultPlan, Site};

pub use crate::record_log::SyncTicket;
use crate::record_log::{self, Cursor, RecordLog};
use crate::types::{KvEntry, OpKind};

/// A write-ahead log: one file, appended to and recycled in place.
pub struct Wal {
    log: RecordLog,
    /// Records in the current log generation (file + buffer); zeroed by
    /// [`Wal::reset`].
    records: u64,
    /// Auto-fsync every `n` appends; 0 = manual syncs only.
    sync_every: u64,
    /// Lifetime successful fsyncs (never reset).
    syncs: u64,
    /// Lifetime records covered by a successful fsync (never reset).
    durable: u64,
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
        Ok(Self::over(RecordLog::open(path, valid)?, sync_every))
    }

    fn over(log: RecordLog, sync_every: u64) -> Self {
        Self {
            log,
            records: 0,
            sync_every,
            syncs: 0,
            durable: 0,
        }
    }

    /// Recovers a log: parses the longest valid prefix of the file at
    /// `path`, truncates the file back to that prefix (dropping any torn
    /// tail so future appends extend a clean log), and returns the parsed
    /// records alongside a handle open for appending. The records are
    /// counted as durable — they were read back from the disk.
    pub(crate) fn recover(
        path: impl AsRef<Path>,
        sync_every: u64,
    ) -> std::io::Result<(Self, Vec<KvEntry>)> {
        let path = path.as_ref();
        let (records, valid_bytes) = Self::replay_prefix(path)?;
        let mut wal = Self::over(RecordLog::open(path, valid_bytes)?, sync_every);
        wal.records = records.len() as u64;
        wal.durable = records.len() as u64;
        Ok((wal, records))
    }

    /// Appends one entry. Durability follows the flush policy: with
    /// auto-sync configured the append fsyncs once the cadence is
    /// reached, otherwise it only buffers until [`Wal::flush`]/[`Wal::sync`].
    pub fn append(&mut self, e: &KvEntry) -> std::io::Result<()> {
        // The append is the call: a crash after it still frames the record.
        if self.log.faults.run(Site::WalAppend, |_| Ok(()))?.is_some() {
            self.log.append(|buf| {
                buf.reserve(11 + e.key.len() + e.value.len());
                buf.extend_from_slice(&e.seq.to_le_bytes());
                buf.push(e.kind.to_byte());
                buf.extend_from_slice(&(e.key.len() as u16).to_le_bytes());
                buf.extend_from_slice(&e.key);
                buf.extend_from_slice(&e.value);
            });
            self.records += 1;
        }
        if self.sync_every > 0 && self.log.unsynced() >= self.sync_every {
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
        self.log.write(Site::WalWrite, 1)
    }

    /// Flushes buffered records and fsyncs the file — the group-commit
    /// primitive: one call makes every record appended so far durable
    /// (acknowledged). It is `Wal::begin_sync`, the ticket's fsync and
    /// `Wal::finish_sync` back to back; a caller that must not hold the
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
    /// `None` on a dead handle — including one a crash killed inside this
    /// very write: no sync starts, so no record becomes acknowledged.
    pub(crate) fn begin_sync(&mut self) -> std::io::Result<Option<SyncTicket>> {
        self.flush()?;
        Ok((!self.log.faults.is_dead()).then(|| self.log.ticket()))
    }

    /// Second half of a sync, called once the ticket's fsync returned
    /// `Ok` (a failed fsync is never finished, which leaves `unsynced()`
    /// and the auto-sync cadence honest): counts the fsync and moves the
    /// records it newly covered out of the loss window. Tickets may finish
    /// in any order; a record is counted by the first that covers it.
    ///
    /// Returns how many records that was — or `None`, with no counter
    /// moved, when nothing may be acknowledged on the strength of this
    /// call: the handle is dead (a crash after the ticket's fsync included:
    /// the batch is durable, the process died before saying so), or the
    /// ticket is from before a [`Wal::reset`] (whose flush already counted
    /// its records).
    pub(crate) fn finish_sync(&mut self, ticket: &SyncTicket) -> Option<u64> {
        if self.log.faults.is_dead() {
            return None;
        }
        let newly = self.log.finish_sync(ticket)?;
        self.syncs += 1;
        self.durable += newly;
        Some(newly)
    }

    /// Number of records appended in the current log generation (since
    /// open or the last [`Wal::reset`]).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Lifetime number of records appended through this handle.
    pub(crate) fn appended(&self) -> u64 {
        self.log.appended()
    }

    /// Records appended since the last fsync — the current power-failure
    /// loss window.
    pub fn unsynced(&self) -> u64 {
        self.log.unsynced()
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
    pub(crate) fn durable_records(&self) -> u64 {
        self.durable
    }

    /// Recycles the log (after a successful memtable flush): the flushed
    /// run supersedes the logged records, so the user-space buffer is
    /// discarded, the generation in the file is zero-filled in place and
    /// the next append lands at offset 0, and the unsynced window resets
    /// to zero — a reset log has nothing left to lose. Nothing is fsynced
    /// here: the next sync writes the zeroed pages with its records.
    pub fn reset(&mut self) -> std::io::Result<()> {
        if self.log.faults.is_dead() {
            return Ok(());
        }
        // Records still in the loss window are superseded by the flushed
        // run: they leave the window as acknowledged, not as lost.
        self.durable += self.log.unsynced();
        self.log.recycle()?;
        self.records = 0;
        Ok(())
    }

    /// Makes the log visit `faults` from now on: the tree shares its
    /// shard's plan with the log it attaches.
    pub(crate) fn share_faults(&mut self, faults: &Arc<FaultPlan>) {
        self.log.faults = Arc::clone(faults);
    }

    /// Replays a log file, returning the longest valid prefix of records.
    /// Never panics on arbitrary bytes: parsing stops at the first
    /// truncated or checksum-failing record.
    pub fn replay(path: impl AsRef<Path>) -> std::io::Result<Vec<KvEntry>> {
        Self::replay_prefix(path.as_ref()).map(|(records, _)| records)
    }

    /// [`Wal::replay`] plus the byte length of the valid prefix, so
    /// recovery can truncate a torn tail before appending again.
    fn replay_prefix(path: &Path) -> std::io::Result<(Vec<KvEntry>, u64)> {
        let mut out = Vec::new();
        let valid = record_log::replay(path, |body| decode(body).map(|e| out.push(e)).is_some())?;
        Ok((out, valid))
    }
}

/// One record's body, or `None` when it is too short for its header or
/// its key, or names an unknown kind.
fn decode(body: &[u8]) -> Option<KvEntry> {
    let mut c = Cursor::new(body);
    let seq = c.u64()?;
    let kind = OpKind::from_byte(c.u8()?)?;
    let key = c.key()?;
    let value = Bytes::copy_from_slice(c.rest());
    Some(KvEntry {
        key,
        value,
        seq,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_log::tests::crc32_bitwise;
    use ruskey_storage::Fault;
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
        wal.log.faults.arm(Site::WalAppend, 0, Fault::Crash);
        wal.append(&e("b", "2", 2)).unwrap(); // fires: record never buffered
        assert!(wal.log.faults.is_dead());
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
        wal.log.faults.arm(Site::WalAppend, 1, Fault::CrashAfter);
        wal.append(&e("b", "2", 2)).unwrap(); // countdown: 1 -> 0
        wal.append(&e("c", "3", 3)).unwrap(); // fires: b and c die in the buffer
        assert!(wal.log.faults.is_dead());
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
        wal.log.faults.arm(Site::WalSync, 0, Fault::CrashAfter);
        wal.sync().unwrap(); // batch committed, then the process dies
        assert!(wal.log.faults.is_dead());
        // The fsync completed; the process died before counting it.
        assert_eq!(wal.durable_records(), 0, "died before saying so");
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
        wal.log.faults.arm(Site::WalWrite, 0, Fault::Torn);
        wal.sync().unwrap(); // torn: only half the batch bytes hit the file
        assert!(wal.log.faults.is_dead());
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
        wal.log.faults.arm(Site::WalWrite, 0, Fault::Torn);
        assert!(wal.begin_sync().unwrap().is_none(), "no sync may start");
        assert!(wal.log.faults.is_dead());
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
        wal.log.faults.arm(Site::WalSync, 0, Fault::CrashAfter);
        ticket.sync_data().unwrap(); // the fsync completes, then the process dies
        assert_eq!(wal.finish_sync(&ticket), None, "died before saying so");
        assert!(wal.log.faults.is_dead());
        assert_eq!(
            wal.finish_sync(&ticket),
            None,
            "a dead handle counts nothing"
        );
        assert_eq!(counters(&wal), (2, 0, 0));
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
