//! The manifest: the durability substrate of the tree *structure*.
//!
//! The engine runs two logs with disjoint responsibilities:
//!
//! * the [`crate::wal::Wal`] protects the **write buffer** — every
//!   put/delete is logged before the memtable insert and the log is
//!   recycled once a flush supersedes it;
//! * the **manifest** (this module) protects the **tree structure** —
//!   every structural step (a flush with its compaction cascade, the apply
//!   of a background merge, a policy transition, a bulk load) commits the
//!   tree's whole projection, [`ManifestState::of`]: each level's policies
//!   and runs in probe order, the next run id and the flushed sequence
//!   watermark. A [`crate::FlsmTree`] on a persistent storage backend is
//!   rebuilt after a restart from it: manifest → run/level structure, data
//!   pages → run contents, WAL tail → memtable.
//!
//! ## File format
//!
//! A manifest is two slot files, its path and a sibling
//! ([`Manifest::slot_paths`]). A slot holds one image over the crate's
//! record log (framing and the torn-record rule are described there, in
//! `record_log.rs`):
//!
//! ```text
//! slot     = header snapshot [zeros up to a 4 KiB multiple]
//! header   = record { 0u8, magic: u32 = "RKMF", version: u32 }
//! snapshot = record { 1u8, generation: u64, seq: u64, next_run_id: u64,
//!                     n_levels: u32, level* }
//! level    = { policy: u32, has_pending: u8, pending: u32,
//!              n_sealed: u32, run*, has_active: u8, run? }
//! ```
//!
//! Nothing after a slot's snapshot record is read, so a shorter image needs
//! no truncate over a longer one. A header naming another version refuses
//! the manifest ([`ManifestError::Version`]); there is no reader for older
//! versions (version 2 was an edit log).
//!
//! ## Commit and recovery
//!
//! Commit *g* writes the slot that does not hold generation *g − 1*, as one
//! positioned write and one `fdatasync`: no rename, no truncate, no
//! directory fsync. A commit whose state equals the last committed one
//! writes nothing. [`Manifest::recover`] takes the slot with the higher
//! generation whose snapshot validates, and the next commit goes to the
//! other slot. A torn write damages only the slot being written, so the
//! other still holds the previous generation.
//!
//! ## Ordering contract (why recovery never references missing pages)
//!
//! The tree fsyncs a run's data pages *before* committing a state that
//! names them, and frees a superseded run's pages only *after* the state
//! without it is durable ([`crate::FlsmTree`] defers the frees until the
//! commit returns). The slot a commit overwrites holds generation *g − 2*,
//! whose runs may be gone, but the other slot's generation *g − 1* names
//! only live pages until *g* is durable. A crash between the data-page
//! writes and the commit therefore only orphans unreferenced pages.
//!
//! ## Crash injection
//!
//! A commit visits two sites of its shard's [`ruskey_storage::FaultPlan`]
//! (the tree shares the plan with the manifest it attaches):
//! [`Site::ManifestWrite`] before the slot's positioned write and
//! [`Site::ManifestSync`] before its `fdatasync`. A crash before the write
//! loses the commit, a torn write leaves a torn slot (the other still holds
//! the previous generation), and a crash between the write and the fsync
//! leaves the image in the page cache, which survives a process death.
//! Once the plan is dead, a commit writes nothing.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ruskey_storage::{FaultPlan, Site};

use crate::record_log::{self, Cursor, RecordLog};
use crate::run::RunId;
use crate::types::{Key, SeqNo};

/// Magic number identifying a manifest file ("RKMF").
pub const MANIFEST_MAGIC: u32 = 0x524B_4D46;

/// Current manifest format version; recovery refuses anything else.
/// Version 3 commits whole snapshots into two slots.
pub const MANIFEST_VERSION: u32 = 3;

/// A slot image is zero-padded to a multiple of this many bytes.
const SLOT_BLOCK: usize = 4096;

/// Everything recovery needs to rebuild one sorted run from its data
/// pages: the page extent, the integrity expectations (entry count, byte
/// and key bounds, sequence watermark), and the Bloom budget the filter
/// is rebuilt with.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The run's id within its tree (strictly increasing at creation).
    pub run_id: RunId,
    /// Storage extent id holding the run's pages.
    pub extent_id: u64,
    /// Number of pages in the extent.
    pub pages: u32,
    /// FLSM per-run capacity (bytes), as last retargeted.
    pub capacity_bytes: u64,
    /// Number of entries the run holds.
    pub entry_count: u64,
    /// Logical data size (sum of encoded entry sizes).
    pub data_bytes: u64,
    /// Largest sequence number in the run.
    pub max_seq: SeqNo,
    /// Bits-per-key the run's Bloom filter was built with (recovery
    /// rebuilds an identical filter from the keys on the data pages).
    pub bloom_bits_per_key: f64,
    /// Smallest key in the run.
    pub min_key: Key,
    /// Largest key in the run.
    pub max_key: Key,
}

/// Why a manifest cannot be recovered. Carried inside the
/// `InvalidData` [`io::Error`] recovery returns ([`ManifestError::of`]
/// reads it back out); in either case nothing on disk was changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManifestError {
    /// A slot's header names this format version, which this build does
    /// not read.
    Version(u32),
    /// Neither slot holds a valid snapshot, yet the data directory holds
    /// extents: recovering an empty tree would sweep them all as orphans.
    NoSnapshot,
}

impl ManifestError {
    /// The refusal an error from [`Manifest::recover`] or
    /// [`crate::FlsmTree::recover_persistent`] carries, if it is one.
    pub fn of(e: &io::Error) -> Option<Self> {
        e.get_ref()?.downcast_ref().copied()
    }
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Version(v) => write!(
                f,
                "manifest format version {v} is not readable by this build \
                 (it reads version {MANIFEST_VERSION}); nothing was deleted"
            ),
            ManifestError::NoSnapshot => f.write_str(
                "no manifest slot holds a valid snapshot, yet the data directory \
                 holds extents; nothing was deleted",
            ),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<ManifestError> for io::Error {
    fn from(e: ManifestError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// One level of a manifest snapshot: policies plus runs in exact probe
/// order (sealed oldest-first, active separate) — the same shape as a live
/// [`crate::level::Level`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelManifest {
    /// The level's policy `K_i` (at least 1).
    pub policy: u32,
    /// A pending lazy policy, if one was recorded.
    pub pending: Option<u32>,
    /// Sealed runs, oldest first.
    pub sealed: Vec<RunRecord>,
    /// The active run, if any.
    pub active: Option<RunRecord>,
}

/// The complete tree structure one manifest snapshot records.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestState {
    /// Per-level structure, index 0 = the paper's Level 1.
    pub levels: Vec<LevelManifest>,
    /// The flushed sequence watermark: every write at or below it lives in
    /// a run, so recovery replays only the WAL records above it.
    pub seq: SeqNo,
    /// The run id the tree allocates next.
    pub next_run_id: RunId,
}

impl Default for ManifestState {
    /// An empty tree's: no levels, nothing flushed, run ids from 1.
    fn default() -> Self {
        Self {
            levels: Vec::new(),
            seq: 0,
            next_run_id: 1,
        }
    }
}

impl ManifestState {
    /// Hard ceiling on the level count a snapshot may decode to: far
    /// deeper than any reachable tree (capacities grow geometrically;
    /// `bulk_load` caps at 24), it only exists so a corrupt record cannot
    /// demand a pathological allocation.
    pub const MAX_LEVELS: usize = 64;
}

// ----------------------------------------------------------------------
// Binary encoding
// ----------------------------------------------------------------------

fn put_key(buf: &mut Vec<u8>, key: &Key) {
    buf.extend_from_slice(&(key.len() as u16).to_le_bytes());
    buf.extend_from_slice(key);
}

fn encode_run(buf: &mut Vec<u8>, r: &RunRecord) {
    buf.extend_from_slice(&r.run_id.to_le_bytes());
    buf.extend_from_slice(&r.extent_id.to_le_bytes());
    buf.extend_from_slice(&r.pages.to_le_bytes());
    buf.extend_from_slice(&r.capacity_bytes.to_le_bytes());
    buf.extend_from_slice(&r.entry_count.to_le_bytes());
    buf.extend_from_slice(&r.data_bytes.to_le_bytes());
    buf.extend_from_slice(&r.max_seq.to_le_bytes());
    buf.extend_from_slice(&r.bloom_bits_per_key.to_bits().to_le_bytes());
    put_key(buf, &r.min_key);
    put_key(buf, &r.max_key);
}

fn decode_run(c: &mut Cursor) -> Option<RunRecord> {
    Some(RunRecord {
        run_id: c.u64()?,
        extent_id: c.u64()?,
        pages: c.u32()?,
        capacity_bytes: c.u64()?,
        entry_count: c.u64()?,
        data_bytes: c.u64()?,
        max_seq: c.u64()?,
        bloom_bits_per_key: f64::from_bits(c.u64()?),
        min_key: c.key()?,
        max_key: c.key()?,
    })
}

fn encode_header(buf: &mut Vec<u8>) {
    buf.push(0);
    buf.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
    buf.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
}

fn encode_snapshot(buf: &mut Vec<u8>, generation: u64, s: &ManifestState) {
    buf.push(1);
    buf.extend_from_slice(&generation.to_le_bytes());
    buf.extend_from_slice(&s.seq.to_le_bytes());
    buf.extend_from_slice(&s.next_run_id.to_le_bytes());
    buf.extend_from_slice(&(s.levels.len() as u32).to_le_bytes());
    for l in &s.levels {
        buf.extend_from_slice(&l.policy.to_le_bytes());
        buf.push(u8::from(l.pending.is_some()));
        buf.extend_from_slice(&l.pending.unwrap_or(0).to_le_bytes());
        buf.extend_from_slice(&(l.sealed.len() as u32).to_le_bytes());
        l.sealed.iter().for_each(|r| encode_run(buf, r));
        buf.push(u8::from(l.active.is_some()));
        l.active.iter().for_each(|r| encode_run(buf, r));
    }
}

/// Decodes a snapshot body after its kind byte into its generation and
/// state, or nothing: a body that does not decode whole, holds more than
/// [`ManifestState::MAX_LEVELS`] levels or a policy below 1. A decoded
/// count reserves at most `MAX_LEVELS` levels and no runs, so a lying one
/// costs no allocation.
fn decode_snapshot(c: &mut Cursor) -> Option<(u64, ManifestState)> {
    let (generation, seq, next_run_id) = (c.u64()?, c.u64()?, c.u64()?);
    let n_levels = c.u32()? as usize;
    if n_levels > ManifestState::MAX_LEVELS {
        return None;
    }
    let mut levels = Vec::with_capacity(n_levels);
    for _ in 0..n_levels {
        let policy = c.u32()?;
        let (has_pending, pending) = (c.u8()? != 0, c.u32()?);
        let pending = has_pending.then_some(pending);
        if policy < 1 || pending == Some(0) {
            return None;
        }
        let sealed = (0..c.u32()?)
            .map(|_| decode_run(c))
            .collect::<Option<_>>()?;
        let active = match c.u8()? {
            0 => None,
            _ => Some(decode_run(c)?),
        };
        levels.push(LevelManifest {
            policy,
            pending,
            sealed,
            active,
        });
    }
    let state = ManifestState {
        levels,
        seq,
        next_run_id,
    };
    c.at_end().then_some((generation, state))
}

/// Puts a slot image at the head of `log` — the header, then the
/// snapshot, zero-padded to whole blocks — and fsyncs it: whether the
/// fsync was issued.
fn put(log: &mut RecordLog, generation: u64, state: &ManifestState) -> io::Result<bool> {
    log.rewind();
    log.append(encode_header);
    log.append(|buf| encode_snapshot(buf, generation, state));
    log.write(Site::ManifestWrite, SLOT_BLOCK)?;
    log.sync_file(Site::ManifestSync)
}

/// The generation and state of the slot file at `path`, if its first two
/// records are a header of this version and a snapshot that decodes
/// whole. Never panics on arbitrary bytes.
fn read_slot(path: &Path) -> io::Result<Option<(u64, ManifestState)>> {
    let (mut version, mut snapshot) = (None, None);
    record_log::replay(path, |body| {
        let mut c = Cursor::new(body);
        match c.u8() {
            Some(0) if version.is_none() => {
                version = (c.u32() == Some(MANIFEST_MAGIC)).then(|| c.u32()).flatten();
                version.is_some()
            }
            Some(1) if version == Some(MANIFEST_VERSION) => {
                snapshot = decode_snapshot(&mut c);
                false
            }
            _ => false,
        }
    })?;
    match version {
        Some(v) if v != MANIFEST_VERSION => Err(ManifestError::Version(v).into()),
        _ => Ok(snapshot),
    }
}

// ----------------------------------------------------------------------
// The manifest handle
// ----------------------------------------------------------------------

/// A manifest attached to one tree: two alternating snapshot slots.
pub struct Manifest {
    path: PathBuf,
    slots: [RecordLog; 2],
    /// The slot holding the last committed state; a commit writes the other.
    current: usize,
    /// The generation of the last committed state.
    generation: u64,
    /// The last committed state.
    state: ManifestState,
    /// Snapshot records committed through this handle.
    records: u64,
}

impl Manifest {
    /// The two slot files of the manifest at `path`: the path itself and
    /// its sibling `<path>.1`.
    pub fn slot_paths(path: &Path) -> [PathBuf; 2] {
        let mut sibling = path.as_os_str().to_owned();
        sibling.push(".1");
        [path.to_path_buf(), sibling.into()]
    }

    /// Creates a fresh manifest at `path`: slot 0 durably holds generation
    /// 0, the empty state, and slot 1 is cut to nothing. The second
    /// argument is ignored: it was the checkpoint cadence of the edit log,
    /// which snapshots do not need.
    pub fn create(path: impl AsRef<Path>, _checkpoint_every: u64) -> io::Result<Self> {
        let path = path.as_ref();
        let [first, second] = Self::slot_paths(path);
        let mut slots = [RecordLog::open(&first, 0)?, RecordLog::open(&second, 0)?];
        slots[1].faults = Arc::clone(&slots[0].faults);
        let state = ManifestState::default();
        put(&mut slots[0], 0, &state)?;
        Ok(Self {
            path: path.to_path_buf(),
            slots,
            current: 0,
            generation: 0,
            state,
            records: 0,
        })
    }

    /// Recovers the manifest at `path`: the valid snapshot with the higher
    /// generation of the two slots, the handle set to commit into the other
    /// slot. `None` if neither slot holds one, a missing manifest included.
    /// Reads only: nothing on disk changes.
    ///
    /// # Errors
    /// An `InvalidData` error carrying [`ManifestError::Version`] if a slot
    /// was written by another format version; I/O errors reading a slot.
    pub fn recover(path: impl AsRef<Path>) -> io::Result<Option<Self>> {
        let path = path.as_ref();
        let paths = Self::slot_paths(path);
        let mut read = [read_slot(&paths[0])?, read_slot(&paths[1])?];
        let generation_of = |slot: &Option<(u64, ManifestState)>| slot.as_ref().map(|s| s.0);
        let current = usize::from(generation_of(&read[1]) > generation_of(&read[0]));
        let Some((generation, state)) = read[current].take() else {
            return Ok(None);
        };
        let open = |p: &Path| RecordLog::open(p, std::fs::metadata(p).map_or(0, |m| m.len()));
        let mut slots = [open(&paths[0])?, open(&paths[1])?];
        slots[1].faults = Arc::clone(&slots[0].faults);
        Ok(Some(Self {
            path: path.to_path_buf(),
            slots,
            current,
            generation,
            state,
            records: 0,
        }))
    }

    /// The last committed state.
    pub fn state(&self) -> &ManifestState {
        &self.state
    }

    /// The generation of the last committed state.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Snapshot records committed through this handle.
    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    /// Commits `state` as the next generation: frames it into the slot
    /// not holding the last committed state, zero-pads the image to a
    /// 4 KiB multiple, writes it with one positioned write and
    /// `fdatasync`s. Returns whether the fsync was issued: a state equal
    /// to the last committed one writes nothing, and a process dead before
    /// the fsync (before the write included) commits nothing — the state
    /// and the mutation it described are lost, and the data pages it named
    /// are orphans. One that dies after the fsync has committed.
    pub fn commit(&mut self, state: ManifestState) -> io::Result<bool> {
        if state == self.state {
            return Ok(false);
        }
        let (slot, generation) = (1 - self.current, self.generation + 1);
        if !put(&mut self.slots[slot], generation, &state)? {
            return Ok(false);
        }
        (self.current, self.generation, self.state) = (slot, generation, state);
        self.records += 1;
        Ok(true)
    }

    /// Makes both slots visit `faults` from now on: the tree shares its
    /// shard's plan with the manifest it attaches.
    pub(crate) fn share_faults(&mut self, faults: &Arc<FaultPlan>) {
        self.slots
            .iter_mut()
            .for_each(|s| s.faults = Arc::clone(faults));
    }
}

impl std::fmt::Debug for Manifest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manifest")
            .field("path", &self.path)
            .field("generation", &self.generation)
            .field("levels", &self.state.levels.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_log::tests::crc32_bitwise;
    use bytes::Bytes;
    use ruskey_storage::Fault;

    fn tmp(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("ruskey-manifest-{name}-{}", std::process::id()));
        Manifest::slot_paths(&path).iter().for_each(|p| {
            let _ = std::fs::remove_file(p);
        });
        path
    }

    fn cleanup(path: &Path) {
        Manifest::slot_paths(path).iter().for_each(|p| {
            let _ = std::fs::remove_file(p);
        });
    }

    fn key(s: &str) -> Key {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn run(id: RunId) -> RunRecord {
        RunRecord {
            run_id: id,
            extent_id: id + 100,
            pages: 3,
            capacity_bytes: 4096,
            entry_count: 10,
            data_bytes: 300,
            max_seq: id * 10,
            bloom_bits_per_key: 8.0,
            min_key: key("a"),
            max_key: key("z"),
        }
    }

    fn level(policy: u32, sealed: &[RunId], active: Option<RunId>) -> LevelManifest {
        LevelManifest {
            policy,
            pending: None,
            sealed: sealed.iter().copied().map(run).collect(),
            active: active.map(run),
        }
    }

    fn state(levels: Vec<LevelManifest>, seq: SeqNo) -> ManifestState {
        let next_run_id = levels
            .iter()
            .flat_map(|l| l.sealed.iter().chain(&l.active))
            .map(|r| r.run_id + 1)
            .max()
            .unwrap_or(1);
        ManifestState {
            levels,
            seq,
            next_run_id,
        }
    }

    /// `body` framed as `[len][crc][body]`, with the checksum computed one
    /// bit at a time.
    fn frame(body: &[u8]) -> Vec<u8> {
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&crc32_bitwise(body).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    /// A slot image: `records` back to back, zero-padded to 4 KiB.
    fn image(records: &[Vec<u8>]) -> Vec<u8> {
        let mut out = records.concat();
        out.resize(out.len().next_multiple_of(SLOT_BLOCK), 0);
        out
    }

    fn snapshot_record(generation: u64, s: &ManifestState) -> Vec<u8> {
        let mut body = Vec::new();
        encode_snapshot(&mut body, generation, s);
        frame(&body)
    }

    fn read(path: &Path) -> Vec<u8> {
        std::fs::read(path).unwrap()
    }

    /// The slots a create and a commit leave behind, byte for byte — the
    /// header record and the head of the snapshot record as literals, so a
    /// framing and a codec changing together are caught.
    #[test]
    fn create_and_commit_write_the_same_bytes() {
        let path = tmp("same-bytes");
        let [first, second] = Manifest::slot_paths(&path);
        let header = [
            9, 0, 0, 0, 0x97, 0x02, 0xde, 0x19, 0, 0x46, 0x4D, 0x4B, 0x52, 3, 0, 0, 0,
        ];
        let mut m = Manifest::create(&path, 0).unwrap();
        let empty = snapshot_record(0, &ManifestState::default());
        assert_eq!(read(&first), image(&[header.to_vec(), empty]));
        assert_eq!(read(&second), []);
        let mut s = state(vec![level(2, &[1], Some(2))], 42);
        s.levels.push(LevelManifest {
            pending: Some(3),
            ..level(1, &[], None)
        });
        assert!(m.commit(s.clone()).unwrap());
        let want = image(&[header.to_vec(), snapshot_record(1, &s)]);
        assert_eq!(read(&second), want);
        assert_eq!(
            want[17..42],
            [
                // len, crc, kind, generation 1, seq 42
                189, 0, 0, 0, 0x1c, 0x2b, 0x3f, 0x5a, 1, 1, 0, 0, 0, 0, 0, 0, 0, 42, 0, 0, 0, 0, 0,
                0, 0
            ]
        );
        drop(m);
        let m = Manifest::recover(&path).unwrap().unwrap();
        assert_eq!((m.generation(), m.state()), (1, &s));
        cleanup(&path);
    }

    /// Commits round-trip through recovery, multi-level states included,
    /// and a recovered handle commits into the other slot.
    #[test]
    fn roundtrip_commit_and_recover() {
        let path = tmp("roundtrip");
        let a = state(vec![level(1, &[], Some(1))], 10);
        // A deep level holding a lower run id than a shallow one.
        let b = state(vec![level(1, &[3], Some(4)), level(2, &[], Some(2))], 40);
        {
            let mut m = Manifest::create(&path, 0).unwrap();
            assert!(m.commit(a.clone()).unwrap());
            assert!(m.commit(b.clone()).unwrap());
            assert_eq!((m.records(), m.generation()), (2, 2));
        }
        let mut m = Manifest::recover(&path).unwrap().unwrap();
        assert_eq!((m.generation(), m.state()), (2, &b));
        assert_eq!(m.records(), 0, "recovery writes nothing");
        assert!(m.commit(a.clone()).unwrap());
        drop(m);
        let m = Manifest::recover(&path).unwrap().unwrap();
        assert_eq!((m.generation(), m.state()), (3, &a));
        cleanup(&path);
    }

    /// A commit of the last committed state is free, and a missing
    /// manifest recovers as none.
    #[test]
    fn empty_commit_is_free_and_recovery_of_missing_file_is_empty() {
        let path = tmp("empty");
        assert!(Manifest::recover(&path).unwrap().is_none());
        let mut m = Manifest::create(&path, 0).unwrap();
        assert!(!m.commit(ManifestState::default()).unwrap());
        let s = state(vec![level(1, &[], Some(1))], 5);
        assert!(m.commit(s.clone()).unwrap());
        assert!(!m.commit(s.clone()).unwrap());
        assert_eq!((m.records(), m.generation()), (1, 1));
        drop(m);
        let m = Manifest::recover(&path).unwrap().unwrap();
        assert_eq!(m.state(), &s);
        cleanup(&path);
    }

    /// A mutation that removes run 1 and adds run 2 vanishes as a unit
    /// when its slot is torn: recovery takes the previous generation, and
    /// the next commit overwrites the torn slot.
    #[test]
    fn torn_tail_drops_the_whole_batch() {
        let path = tmp("torn");
        let a = state(vec![level(1, &[], Some(1))], 10);
        let b = state(vec![level(1, &[], Some(2))], 20);
        let newer = {
            let mut m = Manifest::create(&path, 0).unwrap();
            m.commit(a.clone()).unwrap();
            m.commit(b).unwrap();
            Manifest::slot_paths(&path)[m.current].clone()
        };
        let data = read(&newer);
        let mut flipped = data.clone();
        flipped[40] ^= 1;
        for (what, bytes) in [("truncated", data[..40].to_vec()), ("flipped", flipped)] {
            std::fs::write(&newer, bytes).unwrap();
            let mut m = Manifest::recover(&path).unwrap().unwrap();
            assert_eq!((m.generation(), m.state()), (1, &a), "{what}");
            let c = state(vec![level(1, &[], Some(3))], 30);
            assert!(m.commit(c.clone()).unwrap());
            assert_eq!(Manifest::slot_paths(&path)[m.current], newer, "{what}");
            drop(m);
            let m = Manifest::recover(&path).unwrap().unwrap();
            assert_eq!((m.generation(), m.state()), (2, &c), "{what}");
        }
        cleanup(&path);
    }

    /// A slot whose header names another version refuses the manifest,
    /// typed, and leaves its bytes alone; so does a version 2 edit log.
    #[test]
    fn wrong_version_is_refused() {
        let path = tmp("version");
        let [first, second] = Manifest::slot_paths(&path);
        for version in [2, MANIFEST_VERSION + 1] {
            let mut header = vec![0u8];
            header.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
            header.extend_from_slice(&version.to_le_bytes());
            let bytes = [frame(&header), frame(&[1, 0, 0, 0, 0])].concat();
            for (slot, other) in [(&first, &second), (&second, &first)] {
                std::fs::write(slot, &bytes).unwrap();
                let _ = std::fs::remove_file(other);
                let err = Manifest::recover(&path).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert_eq!(
                    ManifestError::of(&err),
                    Some(ManifestError::Version(version))
                );
                assert!(err.to_string().contains(&format!("version {version}")));
                assert_eq!(read(slot), bytes, "the refused slot is untouched");
                let _ = std::fs::remove_file(slot);
            }
        }
        cleanup(&path);
    }

    /// Crafted snapshot records — a level count past the ceiling, a run
    /// count of `u32::MAX`, a policy of 0 — are invalid slots, rejected
    /// without a pathological allocation; the other slot recovers.
    #[test]
    fn huge_run_count_is_rejected_without_allocating() {
        let path = tmp("hugecount");
        let good = state(vec![level(1, &[], Some(1))], 10);
        {
            let mut m = Manifest::create(&path, 0).unwrap();
            m.commit(good.clone()).unwrap();
        }
        let first = &Manifest::slot_paths(&path)[0];
        let mut header = Vec::new();
        encode_header(&mut header);
        let head = |n_levels: u32| {
            let mut body = vec![1u8];
            [9u64, 0, 1]
                .iter()
                .for_each(|x| body.extend(x.to_le_bytes()));
            body.extend(n_levels.to_le_bytes());
            body
        };
        let many_levels = head(10_000);
        let mut many_runs = head(1);
        many_runs.extend([1, 0, 0, 0, 0, 0, 0, 0, 0]);
        many_runs.extend(u32::MAX.to_le_bytes());
        let mut zero_policy = head(1);
        zero_policy.extend([0; 14]);
        for body in [many_levels, many_runs, zero_policy] {
            std::fs::write(first, [frame(&header), frame(&body)].concat()).unwrap();
            let m = Manifest::recover(&path).unwrap().unwrap();
            assert_eq!((m.generation(), m.state()), (1, &good));
        }
        cleanup(&path);
    }

    #[test]
    fn crash_points_kill_the_handle() {
        let path = tmp("crash");
        // PreCommit: the commit is lost entirely.
        let mut m = Manifest::create(&path, 0).unwrap();
        let a = state(Vec::new(), 1);
        m.commit(a.clone()).unwrap();
        m.slots[0].faults.arm(Site::ManifestWrite, 0, Fault::Crash);
        assert!(!m.commit(state(Vec::new(), 2)).unwrap());
        assert!(m.slots[0].faults.is_dead());
        // Dead handle: everything no-ops.
        assert!(!m.commit(state(Vec::new(), 3)).unwrap());
        assert_eq!(m.records(), 1);
        drop(m);
        let rec = Manifest::recover(&path).unwrap().unwrap();
        assert_eq!(rec.state(), &a);
        // PostCommit: the commit is durable, the handle dead after it.
        let mut m = rec;
        m.slots[0]
            .faults
            .arm(Site::ManifestSync, 0, Fault::CrashAfter);
        let b = state(Vec::new(), 4);
        assert!(m.commit(b.clone()).unwrap());
        assert!(m.slots[1].faults.is_dead());
        drop(m);
        assert_eq!(Manifest::recover(&path).unwrap().unwrap().state(), &b);
        cleanup(&path);
    }

    #[test]
    fn mid_commit_crash_leaves_a_recoverable_torn_tail() {
        let path = tmp("midcommit");
        let mut m = Manifest::create(&path, 0).unwrap();
        let a = state(vec![level(1, &[], Some(1))], 10);
        let b = state(vec![level(1, &[], Some(2))], 20);
        m.commit(a.clone()).unwrap();
        m.commit(b.clone()).unwrap();
        // Generation 3 tears over generation 1's slot.
        m.slots[0].faults.arm(Site::ManifestWrite, 0, Fault::Torn);
        assert!(!m.commit(state(vec![level(1, &[], Some(3))], 30)).unwrap());
        assert!(m.slots[0].faults.is_dead());
        drop(m);
        let rec = Manifest::recover(&path).unwrap().unwrap();
        assert_eq!(
            (rec.generation(), rec.state()),
            (2, &b),
            "the torn slot must vanish as a unit"
        );
        cleanup(&path);
    }

    /// Every slot of twenty commits sits in one 4 KiB block: the files
    /// never grow, and generation `g` lives in slot `g mod 2`.
    #[test]
    fn commits_alternate_slots_and_never_grow_the_files() {
        let path = tmp("alternate");
        let mut m = Manifest::create(&path, 0).unwrap();
        for g in 1..=20u64 {
            let s = state(vec![level(2, &[g], Some(g + 1))], g * 10);
            assert!(m.commit(s.clone()).unwrap());
            assert_eq!(m.current as u64, g % 2);
            let lens = Manifest::slot_paths(&path).map(|p| read(&p).len());
            assert_eq!(lens, [SLOT_BLOCK; 2], "generation {g}");
            let rec = Manifest::recover(&path).unwrap().unwrap();
            assert_eq!((rec.generation(), rec.state()), (g, &s));
        }
        cleanup(&path);
    }

    #[test]
    fn snapshots_survive_an_encode_decode_roundtrip() {
        let mut s = state(
            vec![
                level(3, &[7, 9], Some(42)),
                level(1, &[], None),
                level(2, &[11], None),
            ],
            12345,
        );
        s.levels[1].pending = Some(7);
        for (generation, s) in [(0, ManifestState::default()), (u64::MAX, s)] {
            let mut body = Vec::new();
            encode_snapshot(&mut body, generation, &s);
            let mut c = Cursor::new(&body[1..]);
            assert_eq!(decode_snapshot(&mut c), Some((generation, s)));
        }
    }
}
