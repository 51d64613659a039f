//! The record log under the write-ahead log and the manifest: one file of
//! checksummed records, framed, written, synced, replayed and recycled in
//! one place. [`crate::wal::Wal`] is a `KvEntry` codec over it and
//! [`crate::manifest::Manifest`] a snapshot codec over two of them;
//! neither touches the framing.
//!
//! ## Format
//!
//! ```text
//! record = [len: u32] [crc32: u32] [body: len bytes]
//! ```
//!
//! Little-endian; the CRC-32 (IEEE) covers the body only. A log is records
//! back to back from offset 0, with no file header of its own: what a body
//! holds is the codec's business.
//!
//! ## The torn-tail rule
//!
//! [`replay`] walks the longest valid prefix of a file and never panics on
//! arbitrary bytes. It stops at the first record whose length overruns the
//! file (a torn write), whose CRC mismatches (corruption), or whose body is
//! empty: a zero header, which is what a recycled tail reads as (`len` 0,
//! `crc` 0, and the CRC of nothing is 0). The codec may stop it earlier by
//! rejecting a body. [`RecordLog::open`] cuts a file back to that prefix
//! before writing, so a record is never written behind garbage.
//!
//! ## One file, recycled in place
//!
//! A log is never truncated while in use. Appends frame records in place
//! into one user-space buffer (it dies with the process: exactly what a
//! crash loses), and [`RecordLog::write`] puts the buffer at the end of the
//! current *generation* with one positioned write. [`RecordLog::recycle`]
//! zero-fills the generation and rewinds to offset 0: no truncate, no
//! fsync, no reopen. One invariant holds throughout: **every byte past the
//! current generation is zero or past EOF.** The recycle keeps it by
//! zero-filling, [`RecordLog::open`] by cutting the file back to its valid
//! prefix. A manifest slot is the exception: it [`RecordLog::rewind`]s
//! and overwrites its head with a whole image, and its reader trusts only
//! the image's own records, never what lies past them.
//!
//! Why: once the file has reached its working size, every write overwrites
//! blocks that are already allocated, so the `fdatasync` has only data to
//! write. Extending a file (or truncating it) changes its size, and the
//! fsync must then also wait for the file system's journal to commit that
//! metadata.
//!
//! Why it is safe: a zero-filled log replays exactly like an empty one. A
//! power cut may land after a recycle but before the zero-fill reaches the
//! disk; then records of *finished* generations replay, and the log's owner
//! must recognise them (the WAL does, by sequence number). A record of the
//! live generation that a sync covered lies on pages that same `fdatasync`
//! wrote, zero-fill included.
//!
//! ## Syncing without the log
//!
//! A sync is two halves around the fsync: [`RecordLog::ticket`], once the
//! buffer is written, hands out a [`SyncTicket`] carrying the file, the
//! generation and the records it covers; [`RecordLog::finish_sync`] counts
//! them once the ticket's fsync returned. The holder may run the fsync
//! under no lock the log's owner holds, so appends go on while the device
//! works. Tickets may finish in any order; a record is counted by the first
//! that covers it, and a ticket from before a recycle counts nothing.
//!
//! ## Crash injection
//!
//! A log carries its shard's [`FaultPlan`] (a log of its own until the tree
//! it is attached to shares the shard's). Its owner names the sites: the
//! buffer's positioned write visits [`Site::WalWrite`] or
//! [`Site::ManifestWrite`], a sync ticket's fsync [`Site::WalSync`], the
//! manifest's fsync [`Site::ManifestSync`], and each zero-fill write of a
//! recycle [`Site::WalRecycle`]. A torn write puts down the first half of
//! the records, never padding; a dead plan issues nothing. A call that
//! fails returns its error with the plan alive and the buffer kept; the
//! tree that owns the log then kills the plan, for a failed write as for a
//! failed fsync, so a shard's log never writes behind a failure.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;
use ruskey_storage::{FaultPlan, Site};

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

/// CRC-32 (IEEE) over `data`, eight bytes per step.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let (words, rest) = data.as_chunks::<8>();
    for w in words {
        let x = u64::from_le_bytes(*w) ^ crc as u64;
        crc = (0..8).fold(0, |acc, k| acc ^ t[7 - k][(x >> (8 * k)) as u8 as usize]);
    }
    for &b in rest {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Fsyncs `path`'s parent directory (`.` for a bare file name): a file
/// creation or rename is not durable across power loss until the
/// directory entry itself is.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// A bounds-checked little-endian reader over a record body; every getter
/// returns `None` past the end, so decoding arbitrary bytes never panics.
pub(crate) struct Cursor<'a> {
    data: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Self { data, off: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.off.checked_add(n)?;
        let s = self.data.get(self.off..end)?;
        self.off = end;
        Some(s)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    pub(crate) fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u16`-length-prefixed key, copied out of the body.
    pub(crate) fn key(&mut self) -> Option<Bytes> {
        let len = self.u16()? as usize;
        self.take(len).map(Bytes::copy_from_slice)
    }

    /// Everything not read yet.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let s = &self.data[self.off..];
        self.off = self.data.len();
        s
    }

    pub(crate) fn at_end(&self) -> bool {
        self.off == self.data.len()
    }
}

/// Calls `visit` on the body of each record of the longest valid prefix of
/// `data`, in order, and returns the prefix's byte length. A `visit` that
/// returns false rejects its record: replay stops before it.
fn valid_prefix(data: &[u8], mut visit: impl FnMut(&[u8]) -> bool) -> usize {
    let mut off = 0;
    loop {
        let mut c = Cursor::new(&data[off..]);
        let (Some(len), Some(crc)) = (c.u32(), c.u32()) else {
            return off;
        };
        match c.take(len as usize) {
            Some(body) if !body.is_empty() && crc32(body) == crc && visit(body) => {
                off += 8 + body.len();
            }
            _ => return off,
        }
    }
}

/// [`valid_prefix`] over the file at `path`; a missing file is empty.
pub(crate) fn replay(path: &Path, visit: impl FnMut(&[u8]) -> bool) -> io::Result<u64> {
    match std::fs::read(path) {
        Ok(data) => Ok(valid_prefix(&data, visit) as u64),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(e),
    }
}

/// One fsync of a log, split so that it can run without the log: taken by
/// `crate::Wal::begin_sync` once the buffer is in the file, it carries the
/// file handle, the lifetime append count the fsync will cover, and the log
/// generation it belongs to. The holder calls [`SyncTicket::sync_data`] —
/// under no lock the log's owner holds — and hands the ticket back to
/// `crate::Wal::finish_sync`.
#[derive(Debug, Clone)]
pub struct SyncTicket {
    file: Arc<File>,
    faults: Arc<FaultPlan>,
    generation: u64,
    appended: u64,
}

impl SyncTicket {
    /// Lifetime appends (`crate::Wal::appended`) in the file when the
    /// ticket was taken: an fsync started later covers every one of them.
    pub(crate) fn appended(&self) -> u64 {
        self.appended
    }

    /// The fsync itself, at [`Site::WalSync`]: a process that died before
    /// it issues nothing and returns `Ok`.
    pub fn sync_data(&self) -> io::Result<()> {
        self.faults
            .run(Site::WalSync, |_| self.file.sync_data())
            .map(drop)
    }
}

/// What [`RecordLog::recycle`] writes over a finished generation, a block
/// at a time.
static ZEROS: [u8; 1 << 16] = [0; 1 << 16];

/// A log file, appended to through a user-space buffer and recycled in
/// place.
pub(crate) struct RecordLog {
    /// Shared with the [`SyncTicket`]s in flight.
    file: Arc<File>,
    /// The plan every site of this log visits.
    pub(crate) faults: Arc<FaultPlan>,
    /// Framed records not yet written to the file.
    buf: Vec<u8>,
    /// Bytes of the current generation in the file: the next write lands
    /// here, and every byte past it is zero or past EOF.
    written: u64,
    /// Bumped by every recycle.
    generation: u64,
    /// Lifetime records framed into this log.
    appended: u64,
    /// Lifetime records out of the loss window: covered by a finished
    /// sync, or resolved by a recycle.
    covered: u64,
}

impl RecordLog {
    /// Opens the log at `path` for writing at `valid`, the end of its valid
    /// prefix: creates the file if it is missing, cuts a regular file back
    /// to `valid` and fsyncs the cut, and fsyncs the parent directory of a
    /// file it created (a power cut before that would lose the file). A
    /// device is written from `valid` as it is.
    pub(crate) fn open(path: &Path, valid: u64) -> io::Result<Self> {
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
            sync_parent_dir(path)?;
        }
        Ok(Self::over(file, valid))
    }

    /// A log over a file already open for writing, its generation ending
    /// at `written`.
    pub(crate) fn over(file: File, written: u64) -> Self {
        Self {
            file: Arc::new(file),
            faults: Arc::default(),
            buf: Vec::new(),
            written,
            generation: 0,
            appended: 0,
            covered: 0,
        }
    }

    /// Frames one record in place at the end of the buffer: a header
    /// placeholder, the body `encode` writes, then the body's length and
    /// checksum over the placeholder.
    pub(crate) fn append(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; 8]);
        encode(&mut self.buf);
        let body = at + 8;
        let len = (self.buf.len() - body) as u32;
        let crc = crc32(&self.buf[body..]);
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self.buf[at + 4..body].copy_from_slice(&crc.to_le_bytes());
        self.appended += 1;
    }

    /// Rewinds to offset 0 without touching the file: the next write
    /// overwrites the log's head in place. Only the records framed after
    /// the rewind are the log's; a reader must stop at them, since what
    /// lies past them is an older image (a manifest slot reads two).
    pub(crate) fn rewind(&mut self) {
        self.buf.clear();
        self.written = 0;
    }

    /// Writes the buffer at the end of the generation with one positioned
    /// write at `site`, zero-padded to a multiple of `block` bytes (a zero
    /// header ends replay, and a write of whole blocks rewrites no partial
    /// one). A failed write keeps the buffer, so a retry writes the same
    /// bytes at the same offset.
    pub(crate) fn write(&mut self, site: Site, block: usize) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let framed = self.buf.len();
        self.buf.resize(framed.next_multiple_of(block), 0);
        let (file, buf, at) = (&self.file, &self.buf, self.written);
        let len = |torn| if torn { framed / 2 } else { buf.len() };
        let put = |torn| file.write_all_at(&buf[..len(torn)], at).map(|()| len(torn));
        if let Some(len) = self.faults.run(site, put)? {
            self.written += len as u64;
            self.buf.clear();
        }
        Ok(())
    }

    /// Fsyncs the file at `site`: whether the fsync was issued.
    pub(crate) fn sync_file(&self, site: Site) -> io::Result<bool> {
        Ok(self.faults.run(site, |_| self.file.sync_data())?.is_some())
    }

    /// First half of a sync, once the buffer is written: the ticket whose
    /// fsync covers every record appended so far.
    pub(crate) fn ticket(&self) -> SyncTicket {
        SyncTicket {
            file: Arc::clone(&self.file),
            faults: Arc::clone(&self.faults),
            generation: self.generation,
            appended: self.appended,
        }
    }

    /// Second half of a sync, once the ticket's fsync returned `Ok`: the
    /// records it newly covered, or `None` for a ticket from before a
    /// recycle (which already resolved its records).
    pub(crate) fn finish_sync(&mut self, ticket: &SyncTicket) -> Option<u64> {
        if ticket.generation != self.generation {
            return None;
        }
        let newly = ticket.appended.saturating_sub(self.covered);
        self.covered += newly;
        Some(newly)
    }

    /// Recycles the log in place: drops the buffer, zero-fills the
    /// generation in the file, rewinds to offset 0 and starts the next
    /// generation. Every record appended so far leaves the loss window.
    /// Nothing is fsynced here: the next sync writes the zeroed pages with
    /// its records. Each zero-fill write visits [`Site::WalRecycle`].
    pub(crate) fn recycle(&mut self) -> io::Result<()> {
        self.buf.clear();
        for at in (0..self.written).step_by(ZEROS.len()) {
            let zeros = &ZEROS[..ZEROS.len().min((self.written - at) as usize)];
            let put = |torn| {
                self.file
                    .write_all_at(&zeros[..zeros.len() >> u8::from(torn)], at)
            };
            if self.faults.run(Site::WalRecycle, put)?.is_none() {
                return Ok(());
            }
        }
        self.written = 0;
        self.generation += 1;
        self.covered = self.appended;
        Ok(())
    }

    /// Lifetime records framed into this log.
    pub(crate) fn appended(&self) -> u64 {
        self.appended
    }

    /// Records appended but neither covered by a finished sync nor
    /// resolved by a recycle: the power-failure loss window.
    pub(crate) fn unsynced(&self) -> u64 {
        self.appended - self.covered
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The checksum the logs were first written with: one bit at a time.
    /// The table-driven [`crc32`] must agree with it on every input, or
    /// logs and manifests written before it stop replaying.
    pub(crate) fn crc32_bitwise(data: &[u8]) -> u32 {
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

    #[test]
    fn crc_detects_changes() {
        assert_ne!(crc32(b"hello"), crc32(b"hellp"));
        assert_eq!(crc32(b""), 0);
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

    /// `bodies` framed back to back, checksummed one bit at a time.
    fn framed(bodies: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for body in bodies {
            out.extend_from_slice(&(body.len() as u32).to_le_bytes());
            out.extend_from_slice(&crc32_bitwise(body).to_le_bytes());
            out.extend_from_slice(body);
        }
        out
    }

    /// What a log over `tmp` holds after a generation of three long
    /// records, a recycle and a generation of `first` alone.
    fn recycled_file(first: &[u8]) -> Vec<u8> {
        let path = std::env::temp_dir().join(format!("ruskey-log-recycled-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut log = RecordLog::open(&path, 0).unwrap();
        for _ in 0..3 {
            log.append(|b| b.extend_from_slice(&[0xAB; 40]));
        }
        log.write(Site::WalWrite, 1).unwrap();
        log.recycle().unwrap();
        log.append(|b| b.extend_from_slice(first));
        log.write(Site::WalWrite, 1).unwrap();
        let data = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        data
    }

    /// Every stop rule at the record level, one row each: the bytes, the
    /// bodies replay visits, and the valid prefix it reports.
    #[test]
    fn replay_stops_at_the_first_invalid_record() {
        let (a, b): (&[u8], &[u8]) = (b"first", b"second record");
        let two = framed(&[a, b]);
        let end_a = 8 + a.len();
        let flipped = {
            let mut d = two.clone();
            *d.last_mut().unwrap() ^= 0x01;
            d
        };
        let huge = {
            let mut d = framed(&[a]);
            d.extend_from_slice(&u32::MAX.to_le_bytes());
            d.extend_from_slice(&crc32(b).to_le_bytes());
            d.extend_from_slice(b);
            d
        };
        let recycled = recycled_file(a);
        assert_eq!(recycled.len(), 3 * 48, "a recycle keeps the file's length");
        // Name, file bytes, bodies replayed, valid prefix.
        type Case<'a> = (&'a str, Vec<u8>, &'a [&'a [u8]], usize);
        let cases: [Case; 7] = [
            ("empty file", Vec::new(), &[], 0),
            ("two whole records", two.clone(), &[a, b], two.len()),
            ("torn length", two[..end_a + 3].to_vec(), &[a], end_a),
            ("torn body", two[..two.len() - 1].to_vec(), &[a], end_a),
            ("crc flip", flipped, &[a], end_a),
            ("zero header after a recycle", recycled, &[a], end_a),
            ("u32::MAX length", huge, &[a], end_a),
        ];
        for (name, data, want, prefix) in cases {
            let mut seen: Vec<Vec<u8>> = Vec::new();
            let valid = valid_prefix(&data, |body| {
                seen.push(body.to_vec());
                true
            });
            assert_eq!(seen, want, "{name}: records replayed");
            assert_eq!(valid, prefix, "{name}: valid prefix");
        }
        // A codec that rejects a body stops replay before it.
        let valid = valid_prefix(&two, |body| body == a);
        assert_eq!(valid, end_a, "a rejected body ends the prefix");
    }
}
