//! The manifest: the durability substrate of the tree *structure*.
//!
//! The engine runs two logs with disjoint responsibilities:
//!
//! * the [`crate::wal::Wal`] protects the **write buffer** — every
//!   put/delete is logged before the memtable insert and the log is
//!   recycled once a flush supersedes it;
//! * the **manifest** (this module) protects the **tree structure** —
//!   every structural edit (a run created at some level with its page
//!   extent and fence/Bloom metadata, a run deleted by compaction, a
//!   policy transition, the flush sequence watermark) is appended here, so
//!   a [`crate::FlsmTree`] on a persistent storage backend can be rebuilt
//!   after a restart: manifest → run/level structure, data pages → run
//!   contents, WAL tail → memtable.
//!
//! ## File format
//!
//! The manifest is a `ManifestEdit` codec over the crate's record log
//! (framing, the torn-tail rule and opening at the valid prefix are
//! described there, in `record_log.rs`). It only appends; one record's
//! body is
//!
//! ```text
//! body    = [record_kind: u8] [payload]
//! kind 0  = header  { magic: u32 = "RKMF", version: u32 }
//! kind 1  = batch   { n_edits: u32, edit* }
//! ```
//!
//! The first record of a valid manifest is always a header; an unknown
//! version (or a missing/corrupt header) makes the whole file unreadable
//! by construction, which is the versioning contract.
//!
//! **Batches are atomic.** One structural mutation of the tree (a flush
//! with its compaction cascade, a policy transition, a bulk load) commits
//! *all* of its edits as a single CRC-covered record: either every edit of
//! the mutation survives or none does. This is what makes a torn tail
//! safe — a compaction that removes runs at level *i* and adds their
//! merged output at level *i + 1* can never be half-applied by recovery.
//!
//! ## Recovery
//!
//! [`Manifest::recover`] folds the longest **consistent** prefix of the
//! file: parsing stops at the first record that is truncated, fails its
//! CRC, decodes to an unknown edit, or does not *apply* cleanly to the
//! state folded so far (duplicate or out-of-order run ids, seals of
//! non-active runs, removals of unknown runs, a regressing sequence
//! watermark). The file is truncated back to that prefix, so later
//! appends extend a clean log. Folding is deterministic: recovering the
//! same bytes twice yields the same state.
//!
//! ## Checkpoint (log compaction)
//!
//! The log would otherwise grow with every flush, so
//! [`Manifest::checkpoint`] atomically rewrites it as `header + one batch
//! re-encoding the current state` (runs emitted in ascending run-id
//! order, which reconstructs every level's probe order exactly): the new
//! image is written to a temporary file, fsynced, renamed over the log,
//! and the parent directory is fsynced — without that last barrier a
//! power cut could roll the rename back and resurrect the old log. A
//! crash anywhere during the checkpoint leaves the previous log intact.
//! Commits auto-checkpoint once `checkpoint_every` edits have
//! accumulated since the last compaction.
//!
//! ## Ordering contract (why recovery never references missing pages)
//!
//! The tree writes a run's data pages *before* committing the edit that
//! references them, and frees an obsolete run's pages only *after* the
//! edit that removes it is durable ([`crate::FlsmTree`] defers the frees
//! until the commit returns). A crash between the data-page writes and
//! the manifest commit therefore only orphans unreferenced pages — it can
//! never produce a manifest that points at pages which were not written,
//! and a truncated tail rolls the state back to runs whose pages still
//! exist.
//!
//! ## Crash injection
//!
//! Like the WAL's [`crate::wal::CrashPoint`] hook, and through the same
//! countdown, the manifest carries [`ManifestCrashPoint`]s for the
//! recovery harness: a fired
//! crash kills the handle (a dead process appends nothing further) at one
//! of the interesting instants — before the batch is appended (the
//! crash-between-data-write-and-manifest-edit case), mid-append (a torn
//! manifest tail), after the append (before the WAL is recycled), or in the
//! middle of a checkpoint rewrite.

use std::fs::File;
use std::path::{Path, PathBuf};

use crate::record_log::{self, sync_parent_dir, Countdown, Cursor, RecordLog};
use crate::run::RunId;
use crate::types::{Key, SeqNo};

/// Magic number identifying a manifest file ("RKMF").
pub const MANIFEST_MAGIC: u32 = 0x524B_4D46;

/// Current manifest format version; recovery rejects anything else.
/// Version 2 added the `MoveRun` edit, which no build writes any more but
/// recovery still reads (see [`ManifestEdit::MoveRun`]).
pub const MANIFEST_VERSION: u32 = 2;

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
    /// FLSM per-run capacity assigned at creation (bytes).
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

/// One structural edit of the tree, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestEdit {
    /// A run was created at `level` — as the level's active run
    /// (`active == true`) or directly sealed.
    AddRun {
        /// Zero-based level index.
        level: u32,
        /// Whether the run entered as the level's active run.
        active: bool,
        /// The run's recovery metadata.
        run: RunRecord,
    },
    /// The level's active run was sealed.
    SealRun {
        /// Zero-based level index.
        level: u32,
        /// Id of the run being sealed (must be the level's active run).
        run_id: RunId,
    },
    /// The level's active run was retargeted to a new capacity (flexible
    /// transition, §4.2).
    RetargetRun {
        /// Zero-based level index.
        level: u32,
        /// Id of the run being retargeted (must be the level's active run).
        run_id: RunId,
        /// The new per-run capacity in bytes.
        capacity_bytes: u64,
    },
    /// A run was deleted (superseded by a merge or compaction).
    RemoveRun {
        /// Zero-based level index.
        level: u32,
        /// Id of the run being removed.
        run_id: RunId,
    },
    /// The level's compaction policy changed (and/or a lazy transition
    /// was recorded as pending).
    SetPolicy {
        /// Zero-based level index.
        level: u32,
        /// The policy now in force.
        policy: u32,
        /// A recorded-but-unapplied lazy policy, if any.
        pending: Option<u32>,
    },
    /// The tree's sequence watermark at a memtable flush (or bulk load):
    /// recovery seeds the sequence counter from the max of this, the
    /// recovered runs' `max_seq`, and the replayed WAL tail.
    SeqWatermark {
        /// The sequence counter at the flush.
        seq: SeqNo,
    },
    /// A sealed run was re-parented to a deeper level without rewriting
    /// its pages. The run joins the target level's sealed list, newest
    /// position. Only older builds' background pickers wrote this edit
    /// (a "trivial move"); recovery still decodes and applies it, so a
    /// directory such a build left behind replays every later commit.
    MoveRun {
        /// Zero-based level the run leaves.
        from_level: u32,
        /// Zero-based level the run joins.
        to_level: u32,
        /// Id of the run being moved (must be sealed at `from_level`).
        run_id: RunId,
    },
}

/// Why an edit did not apply to the folded state (recovery stops at the
/// batch containing the first such edit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// An `AddRun` reused or regressed a run id (ids are strictly
    /// increasing), or added an active run while one exists.
    InconsistentAdd,
    /// A seal/retarget named a run that is not the level's active run.
    NotActive,
    /// A removal named a run the level does not hold.
    UnknownRun,
    /// A policy edit carried a policy below 1.
    BadPolicy,
    /// A sequence watermark regressed.
    SeqRegressed,
    /// The edit referenced a level beyond the [`ManifestState::MAX_LEVELS`]
    /// ceiling.
    BadLevel,
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EditError::InconsistentAdd => "duplicate/out-of-order run id or double-active add",
            EditError::NotActive => "seal/retarget of a non-active run",
            EditError::UnknownRun => "removal of an unknown run",
            EditError::BadPolicy => "policy below 1",
            EditError::SeqRegressed => "sequence watermark regressed",
            EditError::BadLevel => "level index out of range",
        };
        f.write_str(s)
    }
}

/// One level of the folded manifest state: policies plus runs in exact
/// probe order (sealed oldest-first, active separate) — the same shape as
/// a live [`crate::level::Level`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelManifest {
    /// The level's policy; 0 means "never set" (recovery falls back to
    /// the configured initial policy).
    pub policy: u32,
    /// A pending lazy policy, if one was recorded.
    pub pending: Option<u32>,
    /// Sealed runs, oldest first.
    pub sealed: Vec<RunRecord>,
    /// The active run, if any.
    pub active: Option<RunRecord>,
}

impl LevelManifest {
    /// Number of runs the level describes.
    pub fn run_count(&self) -> usize {
        self.sealed.len() + usize::from(self.active.is_some())
    }
}

/// The complete tree structure described by a manifest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ManifestState {
    /// Per-level structure, index 0 = the paper's Level 1.
    pub levels: Vec<LevelManifest>,
    /// The last recorded sequence watermark.
    pub seq: SeqNo,
    /// The largest run id ever added (run ids are strictly increasing, so
    /// recovery resumes allocation at `max_run_id + 1`).
    pub max_run_id: RunId,
}

impl ManifestState {
    /// Hard ceiling on level indices: far deeper than any reachable tree
    /// (capacities grow geometrically; `bulk_load` caps at 24), it only
    /// exists so a corrupt edit cannot demand a pathological allocation.
    pub const MAX_LEVELS: usize = 64;

    /// Total runs across all levels.
    pub fn run_count(&self) -> usize {
        self.levels.iter().map(LevelManifest::run_count).sum()
    }

    fn level_mut(&mut self, level: u32) -> Result<&mut LevelManifest, EditError> {
        let idx = level as usize;
        // An edit may materialize levels it skips past (a checkpoint
        // batch emits runs in run-id order, which can reach a deep level
        // before any shallower one): missing levels spring into existence
        // with defaults, exactly like the tree's `ensure_level`.
        if idx >= Self::MAX_LEVELS {
            return Err(EditError::BadLevel);
        }
        while self.levels.len() <= idx {
            self.levels.push(LevelManifest::default());
        }
        Ok(&mut self.levels[idx])
    }

    /// Applies one edit, mirroring exactly what the live tree did.
    pub fn apply(&mut self, edit: &ManifestEdit) -> Result<(), EditError> {
        match edit {
            ManifestEdit::AddRun { level, active, run } => {
                if run.run_id <= self.max_run_id {
                    return Err(EditError::InconsistentAdd);
                }
                let l = self.level_mut(*level)?;
                if *active && l.active.is_some() {
                    return Err(EditError::InconsistentAdd);
                }
                if *active {
                    l.active = Some(run.clone());
                } else {
                    l.sealed.push(run.clone());
                }
                self.max_run_id = run.run_id;
                Ok(())
            }
            ManifestEdit::SealRun { level, run_id } => {
                let l = self.level_mut(*level)?;
                match l.active.take() {
                    Some(run) if run.run_id == *run_id => {
                        l.sealed.push(run);
                        Ok(())
                    }
                    other => {
                        l.active = other;
                        Err(EditError::NotActive)
                    }
                }
            }
            ManifestEdit::RetargetRun {
                level,
                run_id,
                capacity_bytes,
            } => {
                let l = self.level_mut(*level)?;
                match &mut l.active {
                    Some(run) if run.run_id == *run_id => {
                        run.capacity_bytes = *capacity_bytes;
                        Ok(())
                    }
                    _ => Err(EditError::NotActive),
                }
            }
            ManifestEdit::RemoveRun { level, run_id } => {
                let l = self.level_mut(*level)?;
                if l.active.as_ref().is_some_and(|r| r.run_id == *run_id) {
                    l.active = None;
                    return Ok(());
                }
                match l.sealed.iter().position(|r| r.run_id == *run_id) {
                    Some(i) => {
                        l.sealed.remove(i);
                        Ok(())
                    }
                    None => Err(EditError::UnknownRun),
                }
            }
            ManifestEdit::SetPolicy {
                level,
                policy,
                pending,
            } => {
                if *policy < 1 || pending.is_some_and(|p| p < 1) {
                    return Err(EditError::BadPolicy);
                }
                let l = self.level_mut(*level)?;
                l.policy = *policy;
                l.pending = *pending;
                Ok(())
            }
            ManifestEdit::SeqWatermark { seq } => {
                if *seq < self.seq {
                    return Err(EditError::SeqRegressed);
                }
                self.seq = *seq;
                Ok(())
            }
            ManifestEdit::MoveRun {
                from_level,
                to_level,
                run_id,
            } => {
                if *to_level as usize >= Self::MAX_LEVELS {
                    return Err(EditError::BadLevel);
                }
                let from = self.level_mut(*from_level)?;
                let Some(i) = from.sealed.iter().position(|r| r.run_id == *run_id) else {
                    return Err(EditError::UnknownRun);
                };
                let run = from.sealed.remove(i);
                self.level_mut(*to_level)?.sealed.push(run);
                Ok(())
            }
        }
    }
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

fn encode_edit(buf: &mut Vec<u8>, e: &ManifestEdit) {
    match e {
        ManifestEdit::AddRun { level, active, run } => {
            buf.push(1);
            buf.extend_from_slice(&level.to_le_bytes());
            buf.push(u8::from(*active));
            encode_run(buf, run);
        }
        ManifestEdit::SealRun { level, run_id } => {
            buf.push(2);
            buf.extend_from_slice(&level.to_le_bytes());
            buf.extend_from_slice(&run_id.to_le_bytes());
        }
        ManifestEdit::RetargetRun {
            level,
            run_id,
            capacity_bytes,
        } => {
            buf.push(3);
            buf.extend_from_slice(&level.to_le_bytes());
            buf.extend_from_slice(&run_id.to_le_bytes());
            buf.extend_from_slice(&capacity_bytes.to_le_bytes());
        }
        ManifestEdit::RemoveRun { level, run_id } => {
            buf.push(4);
            buf.extend_from_slice(&level.to_le_bytes());
            buf.extend_from_slice(&run_id.to_le_bytes());
        }
        ManifestEdit::SetPolicy {
            level,
            policy,
            pending,
        } => {
            buf.push(5);
            buf.extend_from_slice(&level.to_le_bytes());
            buf.extend_from_slice(&policy.to_le_bytes());
            buf.push(u8::from(pending.is_some()));
            buf.extend_from_slice(&pending.unwrap_or(0).to_le_bytes());
        }
        ManifestEdit::SeqWatermark { seq } => {
            buf.push(6);
            buf.extend_from_slice(&seq.to_le_bytes());
        }
        ManifestEdit::MoveRun {
            from_level,
            to_level,
            run_id,
        } => {
            buf.push(7);
            buf.extend_from_slice(&from_level.to_le_bytes());
            buf.extend_from_slice(&to_level.to_le_bytes());
            buf.extend_from_slice(&run_id.to_le_bytes());
        }
    }
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

fn decode_edit(c: &mut Cursor) -> Option<ManifestEdit> {
    match c.u8()? {
        1 => Some(ManifestEdit::AddRun {
            level: c.u32()?,
            active: c.u8()? != 0,
            run: decode_run(c)?,
        }),
        2 => Some(ManifestEdit::SealRun {
            level: c.u32()?,
            run_id: c.u64()?,
        }),
        3 => Some(ManifestEdit::RetargetRun {
            level: c.u32()?,
            run_id: c.u64()?,
            capacity_bytes: c.u64()?,
        }),
        4 => Some(ManifestEdit::RemoveRun {
            level: c.u32()?,
            run_id: c.u64()?,
        }),
        5 => {
            let level = c.u32()?;
            let policy = c.u32()?;
            let has_pending = c.u8()? != 0;
            let pending_raw = c.u32()?;
            Some(ManifestEdit::SetPolicy {
                level,
                policy,
                pending: has_pending.then_some(pending_raw),
            })
        }
        6 => Some(ManifestEdit::SeqWatermark { seq: c.u64()? }),
        7 => Some(ManifestEdit::MoveRun {
            from_level: c.u32()?,
            to_level: c.u32()?,
            run_id: c.u64()?,
        }),
        _ => None,
    }
}

/// Decodes a whole batch body after its kind byte, or nothing: batches
/// are atomic, a half-decodable one is torn. The reserve is capped by the
/// body length (an edit encodes to at least one byte) so a crafted count
/// cannot demand a pathological allocation.
fn decode_batch(payload: &[u8]) -> Option<Vec<ManifestEdit>> {
    let mut c = Cursor::new(payload);
    let n = c.u32()?;
    let mut batch = Vec::with_capacity((n as usize).min(payload.len()));
    for _ in 0..n {
        batch.push(decode_edit(&mut c)?);
    }
    c.at_end().then_some(batch)
}

fn encode_header(buf: &mut Vec<u8>) {
    buf.push(0);
    buf.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
    buf.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
}

fn encode_batch(buf: &mut Vec<u8>, edits: &[ManifestEdit]) {
    buf.push(1);
    buf.extend_from_slice(&(edits.len() as u32).to_le_bytes());
    for e in edits {
        encode_edit(buf, e);
    }
}

// ----------------------------------------------------------------------
// Crash injection
// ----------------------------------------------------------------------

/// Where in the manifest write path a simulated crash fires (test
/// harness), mirroring the WAL's [`crate::wal::CrashPoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManifestCrashPoint {
    /// Before the pending batch is appended: the data pages it references
    /// are on disk, the edit is lost — the crash *between the data-page
    /// write and the manifest edit*.
    PreCommit,
    /// In the middle of appending the batch record: only a prefix of its
    /// bytes reaches the file — the torn manifest tail.
    MidCommit,
    /// After the batch is durable but before the process does anything
    /// else (in particular before the WAL is recycled).
    PostCommit,
    /// In the middle of a checkpoint rewrite: the temporary file is torn
    /// and never renamed over the log.
    MidCheckpoint,
    /// Power cut after the checkpoint's rename but before the parent
    /// directory fsync: the rename was never made durable, so the old log
    /// bytes reappear at the path after restart.
    PreDirSync,
}

// ----------------------------------------------------------------------
// The manifest handle
// ----------------------------------------------------------------------

/// An append-only, checkpointed manifest log attached to one tree.
pub struct Manifest {
    path: PathBuf,
    log: RecordLog,
    /// The folded structure as of the last durable commit.
    state: ManifestState,
    /// Edits logged since the last commit (one mutation's batch).
    pending: Vec<ManifestEdit>,
    /// Lifetime edits through this handle: replayed at recovery plus
    /// committed since (never reset).
    edits: u64,
    /// Durable commits (batches) through this handle.
    commits: u64,
    /// Checkpoint rewrites through this handle.
    checkpoints: u64,
    /// Edits appended since the last checkpoint.
    edits_since_checkpoint: u64,
    /// Auto-checkpoint once this many edits accumulate (0 = never).
    checkpoint_every: u64,
    crash: Countdown<ManifestCrashPoint>,
}

impl Manifest {
    /// Creates a fresh manifest at `path` (truncating any previous file)
    /// holding only the version header.
    pub fn create(path: impl AsRef<Path>, checkpoint_every: u64) -> std::io::Result<Self> {
        Self::open(
            path.as_ref(),
            ManifestState::default(),
            0,
            0,
            checkpoint_every,
        )
    }

    /// Recovers a manifest: folds the longest consistent prefix of the
    /// file at `path` into a [`ManifestState`], truncates the file back
    /// to that prefix, and returns the handle ready for appending plus
    /// the number of edits replayed. A missing file (or one without a
    /// valid header) recovers to the empty state and is re-initialized.
    pub fn recover(path: impl AsRef<Path>, checkpoint_every: u64) -> std::io::Result<(Self, u64)> {
        let path = path.as_ref();
        let (state, edits, valid) = Self::fold_file(path)?;
        let m = Self::open(path, state, edits, valid, checkpoint_every)?;
        Ok((m, edits))
    }

    /// Opens the log at `path` cut back to `valid` bytes, which fold to
    /// `state`. With nothing valid left it starts a clean, versioned log,
    /// so future recoveries accept the appends. A stale checkpoint temp
    /// file is a crashed, never-renamed rewrite: the log itself is
    /// authoritative, the leftover goes.
    fn open(
        path: &Path,
        state: ManifestState,
        edits: u64,
        valid: u64,
        checkpoint_every: u64,
    ) -> std::io::Result<Self> {
        let _ = std::fs::remove_file(Self::tmp_path(path));
        let mut log = RecordLog::open(path, valid)?;
        if valid == 0 {
            log.append(encode_header);
            log.sync()?;
        }
        Ok(Self {
            path: path.to_path_buf(),
            log,
            state,
            pending: Vec::new(),
            edits,
            commits: 0,
            checkpoints: 0,
            edits_since_checkpoint: 0,
            checkpoint_every,
            crash: Countdown::default(),
        })
    }

    /// Parses a manifest file into (state, edits folded, valid byte
    /// length). The first record must be a header with this magic and
    /// version, or nothing is valid; a batch that does not decode whole,
    /// or does not apply to the state folded so far, ends the prefix.
    /// Never panics on arbitrary bytes.
    fn fold_file(path: &Path) -> std::io::Result<(ManifestState, u64, u64)> {
        let mut state = ManifestState::default();
        let mut edits = 0u64;
        let mut saw_header = false;
        let valid = record_log::replay(path, |body| {
            let Some((&kind, payload)) = body.split_first() else {
                return false;
            };
            match kind {
                0 if !saw_header => {
                    let mut c = Cursor::new(payload);
                    saw_header = c.u32() == Some(MANIFEST_MAGIC)
                        && c.u32() == Some(MANIFEST_VERSION)
                        && c.at_end();
                    saw_header
                }
                1 if saw_header => {
                    let Some(batch) = decode_batch(payload) else {
                        return false;
                    };
                    // Apply against a scratch copy: an inconsistent batch
                    // must not half-mutate the folded state.
                    let mut scratch = state.clone();
                    if batch.iter().try_for_each(|e| scratch.apply(e)).is_err() {
                        return false;
                    }
                    state = scratch;
                    edits += batch.len() as u64;
                    true
                }
                _ => false,
            }
        })?;
        Ok((state, edits, valid))
    }

    fn tmp_path(path: &Path) -> PathBuf {
        let mut p = path.as_os_str().to_owned();
        p.push(".tmp");
        PathBuf::from(p)
    }

    /// The folded structure as of the last durable commit.
    pub fn state(&self) -> &ManifestState {
        &self.state
    }

    /// Buffers one edit into the current mutation's batch. No-op on a
    /// dead (crashed) handle.
    pub fn log(&mut self, edit: ManifestEdit) {
        if self.crash.is_dead() {
            return;
        }
        self.pending.push(edit);
    }

    /// Number of edits buffered for the next commit.
    pub fn pending_edits(&self) -> usize {
        self.pending.len()
    }

    /// Lifetime edits through this handle (replayed at recovery plus
    /// committed since).
    pub fn edits(&self) -> u64 {
        self.edits
    }

    /// Durable commits (batches) through this handle.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Checkpoint rewrites through this handle.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Commits the buffered batch: encodes it as one atomic record,
    /// appends it, fsyncs, and folds it into the in-memory state.
    /// Returns whether a batch was written (an empty buffer is free).
    ///
    /// # Panics
    /// Panics (debug) if the buffered edits do not apply to the state —
    /// that is an emission bug in the tree, never an I/O condition.
    pub fn commit(&mut self) -> std::io::Result<bool> {
        if self.crash.is_dead() || self.pending.is_empty() {
            self.pending.clear();
            return Ok(false);
        }
        if self.crash.fires(ManifestCrashPoint::PreCommit) {
            // Process death before the edit reaches the log: the batch
            // (and the mutation it described) is lost; the data pages it
            // referenced become unreferenced orphans.
            self.pending.clear();
            return Ok(false);
        }
        let batch = std::mem::take(&mut self.pending);
        self.log.append(|buf| encode_batch(buf, &batch));
        if self.crash.fires(ManifestCrashPoint::MidCommit) {
            // Torn append: half the record's bytes reach the file.
            self.log.write(true)?;
            return Ok(false);
        }
        self.log.sync()?;
        for e in &batch {
            if let Err(err) = self.state.apply(e) {
                // Unreachable from the tree's emission; a bug here would
                // desync the folded state from the log.
                debug_assert!(false, "manifest emitted an inconsistent edit: {err}");
            }
        }
        self.edits += batch.len() as u64;
        self.edits_since_checkpoint += batch.len() as u64;
        self.commits += 1;
        if self.crash.fires(ManifestCrashPoint::PostCommit) {
            // The batch is durable; the process dies before doing
            // anything else (frees, WAL recycling).
            return Ok(true);
        }
        if self.checkpoint_every > 0 && self.edits_since_checkpoint >= self.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(true)
    }

    /// Appends the current state to `log` as `header + one batch`, with
    /// runs in ascending run-id order (which reconstructs every level's
    /// sealed order and active run exactly — within a level, sealed runs
    /// are sealed in id order and the active run carries the highest id).
    fn append_state(&self, log: &mut RecordLog) {
        let mut edits: Vec<ManifestEdit> = Vec::new();
        for (idx, l) in self.state.levels.iter().enumerate() {
            if l.policy != 0 || l.pending.is_some() {
                edits.push(ManifestEdit::SetPolicy {
                    level: idx as u32,
                    policy: if l.policy == 0 { 1 } else { l.policy },
                    pending: l.pending,
                });
            }
        }
        let mut runs: Vec<(u32, bool, &RunRecord)> = Vec::new();
        for (idx, l) in self.state.levels.iter().enumerate() {
            for r in &l.sealed {
                runs.push((idx as u32, false, r));
            }
            if let Some(r) = &l.active {
                runs.push((idx as u32, true, r));
            }
        }
        runs.sort_by_key(|(_, _, r)| r.run_id);
        for (level, active, run) in runs {
            edits.push(ManifestEdit::AddRun {
                level,
                active,
                run: run.clone(),
            });
        }
        if self.state.seq > 0 {
            edits.push(ManifestEdit::SeqWatermark {
                seq: self.state.seq,
            });
        }
        log.append(encode_header);
        if !edits.is_empty() {
            log.append(|buf| encode_batch(buf, &edits));
        }
    }

    /// Compacts the log: atomically rewrites the file as `header + one
    /// batch` describing the current state (write to a temporary file,
    /// fsync, rename over the log). A crash anywhere during the rewrite
    /// leaves the previous log intact.
    pub fn checkpoint(&mut self) -> std::io::Result<()> {
        if self.crash.is_dead() {
            return Ok(());
        }
        let tmp = Self::tmp_path(&self.path);
        let mut image = RecordLog::over(File::create(&tmp)?, 0);
        self.append_state(&mut image);
        if self.crash.fires(ManifestCrashPoint::MidCheckpoint) {
            // Torn rewrite, never renamed: the old log stays authoritative.
            return image.write(true);
        }
        // A power cut can roll back an un-fsynced rename: the armed
        // PreDirSync fault needs the old log bytes to restore.
        let pre_rename = if self.crash.is_armed_at(ManifestCrashPoint::PreDirSync) {
            Some(std::fs::read(&self.path)?)
        } else {
            None
        };
        image.sync()?;
        std::fs::rename(&tmp, &self.path)?;
        if let Some(old) = pre_rename.filter(|_| self.crash.fires(ManifestCrashPoint::PreDirSync)) {
            // The rename happened but its directory entry was never
            // fsynced: power loss makes the old bytes reappear.
            return std::fs::write(&self.path, old);
        }
        // The rename is not durable until the directory entry is: a power
        // cut here would resurrect the old (longer) log. Both states are
        // consistent, but the barrier makes checkpointing monotone.
        sync_parent_dir(&self.path)?;
        // The image's handle now names the log: later commits append to it.
        self.log = image;
        // Note: the checkpoint's max_run_id is the max over *live* runs,
        // which may be lower than the pre-checkpoint watermark if the
        // newest runs were removed. That is safe: ids are only compared
        // for strict growth against the folded state.
        self.edits_since_checkpoint = 0;
        self.checkpoints += 1;
        Ok(())
    }

    /// Arms a simulated crash: the `after + 1`-th visit of `point` kills
    /// this handle. Test-harness hook; a production store never arms one.
    pub fn arm_crash(&mut self, point: ManifestCrashPoint, after: u64) {
        self.crash.arm(point, after);
    }

    /// True once an armed crash has fired: the handle is dead and every
    /// operation is a no-op.
    pub fn is_crashed(&self) -> bool {
        self.crash.is_dead()
    }

    /// Kills the handle from outside: the tree calls this when the
    /// storage device reports a power cut, or a commit fails, so the
    /// manifest behaves exactly like a process that died before
    /// committing.
    pub fn mark_crashed(&mut self) {
        self.crash.kill();
        self.pending.clear();
        self.log.discard();
    }
}

impl std::fmt::Debug for Manifest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manifest")
            .field("path", &self.path)
            .field("edits", &self.edits)
            .field("runs", &self.state.run_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_log::tests::crc32_bitwise;
    use bytes::Bytes;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ruskey-manifest-{name}-{}", std::process::id()))
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

    /// `body` framed as `[len][crc][body]`, with the checksum computed one
    /// bit at a time.
    fn frame(body: &[u8]) -> Vec<u8> {
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&crc32_bitwise(body).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    /// A batch record's body: kind 1, the edit count, the edits.
    fn batch_body(edits: &[ManifestEdit]) -> Vec<u8> {
        let mut body = vec![1u8];
        body.extend_from_slice(&(edits.len() as u32).to_le_bytes());
        edits.iter().for_each(|e| encode_edit(&mut body, e));
        body
    }

    fn header_record() -> Vec<u8> {
        frame(&[0, 0x46, 0x4D, 0x4B, 0x52, 2, 0, 0, 0])
    }

    fn batch_record(edits: &[ManifestEdit]) -> Vec<u8> {
        frame(&batch_body(edits))
    }

    /// The file a create, one batch holding every edit kind and a
    /// checkpoint leave behind, byte for byte — the header record as a
    /// literal, so a framing and a codec changing together are caught.
    #[test]
    fn create_commit_and_checkpoint_write_the_same_bytes() {
        let path = tmp("same-bytes");
        let _ = std::fs::remove_file(&path);
        let header = [
            9, 0, 0, 0, 0xf2, 0x65, 0x62, 0xa1, 0, 0x46, 0x4D, 0x4B, 0x52, 2, 0, 0, 0,
        ];
        let batch = [
            ManifestEdit::AddRun {
                level: 0,
                active: true,
                run: run(1),
            },
            ManifestEdit::RetargetRun {
                level: 0,
                run_id: 1,
                capacity_bytes: 8192,
            },
            ManifestEdit::SealRun {
                level: 0,
                run_id: 1,
            },
            ManifestEdit::AddRun {
                level: 0,
                active: false,
                run: run(2),
            },
            ManifestEdit::MoveRun {
                from_level: 0,
                to_level: 1,
                run_id: 2,
            },
            ManifestEdit::RemoveRun {
                level: 0,
                run_id: 1,
            },
            ManifestEdit::SetPolicy {
                level: 1,
                policy: 3,
                pending: Some(2),
            },
            ManifestEdit::SeqWatermark { seq: 42 },
        ];
        let mut m = Manifest::create(&path, 0).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), header);
        batch.iter().for_each(|e| m.log(e.clone()));
        assert!(m.commit().unwrap());
        let mut want = header.to_vec();
        want.extend(frame(&batch_body(&batch)));
        assert_eq!(std::fs::read(&path).unwrap(), want);
        assert_eq!(
            want[17..31],
            [236, 0, 0, 0, 0x97, 0xb5, 0x9a, 0xa0, 1, 8, 0, 0, 0, 1]
        );
        m.checkpoint().unwrap();
        let mut want = header.to_vec();
        want.extend(frame(&batch_body(&[
            ManifestEdit::SetPolicy {
                level: 1,
                policy: 3,
                pending: Some(2),
            },
            ManifestEdit::AddRun {
                level: 1,
                active: false,
                run: run(2),
            },
            ManifestEdit::SeqWatermark { seq: 42 },
        ])));
        assert_eq!(std::fs::read(&path).unwrap(), want);
        drop(m);
        let (m, replayed) = Manifest::recover(&path, 0).unwrap();
        assert_eq!(replayed, 3);
        assert_eq!(m.state().levels[1].sealed, [run(2)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn roundtrip_commit_and_recover() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut m = Manifest::create(&path, 0).unwrap();
            m.log(ManifestEdit::AddRun {
                level: 0,
                active: true,
                run: run(1),
            });
            m.log(ManifestEdit::SeqWatermark { seq: 10 });
            assert!(m.commit().unwrap());
            m.log(ManifestEdit::SealRun {
                level: 0,
                run_id: 1,
            });
            m.log(ManifestEdit::AddRun {
                level: 0,
                active: true,
                run: run(2),
            });
            assert!(m.commit().unwrap());
            assert_eq!(m.edits(), 4);
            assert_eq!(m.commits(), 2);
        }
        let (m, replayed) = Manifest::recover(&path, 0).unwrap();
        assert_eq!(replayed, 4);
        let s = m.state();
        assert_eq!(s.levels.len(), 1);
        assert_eq!(s.levels[0].sealed.len(), 1);
        assert_eq!(s.levels[0].sealed[0].run_id, 1);
        assert_eq!(s.levels[0].active.as_ref().unwrap().run_id, 2);
        assert_eq!(s.seq, 10);
        assert_eq!(s.max_run_id, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_commit_is_free_and_recovery_of_missing_file_is_empty() {
        let path = tmp("empty");
        let _ = std::fs::remove_file(&path);
        let (mut m, replayed) = Manifest::recover(&path, 0).unwrap();
        assert_eq!(replayed, 0);
        assert_eq!(m.state(), &ManifestState::default());
        assert!(!m.commit().unwrap());
        // The re-initialized file carries a header: appends after an
        // empty recovery survive the next recovery.
        m.log(ManifestEdit::SeqWatermark { seq: 5 });
        m.commit().unwrap();
        drop(m);
        let (m2, r2) = Manifest::recover(&path, 0).unwrap();
        assert_eq!(r2, 1);
        assert_eq!(m2.state().seq, 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_drops_the_whole_batch() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut m = Manifest::create(&path, 0).unwrap();
            m.log(ManifestEdit::AddRun {
                level: 0,
                active: true,
                run: run(1),
            });
            m.commit().unwrap();
            // Batch 2 removes run 1 and adds run 2 — atomically.
            m.log(ManifestEdit::RemoveRun {
                level: 0,
                run_id: 1,
            });
            m.log(ManifestEdit::AddRun {
                level: 0,
                active: true,
                run: run(2),
            });
            m.commit().unwrap();
        }
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 5]).unwrap();
        let (m, _) = Manifest::recover(&path, 0).unwrap();
        // The torn batch vanished as a unit: run 1 is still present (the
        // half-applied alternative would have lost both runs).
        assert_eq!(m.state().levels[0].active.as_ref().unwrap().run_id, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn inconsistent_batches_truncate_deterministically() {
        let path = tmp("inconsistent");
        let _ = std::fs::remove_file(&path);
        // Hand-craft a log whose second batch is internally valid but
        // inconsistent with the folded state (removes an unknown run).
        let mut bytes = header_record();
        bytes.extend_from_slice(&batch_record(&[ManifestEdit::AddRun {
            level: 0,
            active: true,
            run: run(1),
        }]));
        bytes.extend_from_slice(&batch_record(&[ManifestEdit::RemoveRun {
            level: 0,
            run_id: 99,
        }]));
        bytes.extend_from_slice(&batch_record(&[ManifestEdit::SeqWatermark { seq: 7 }]));
        std::fs::write(&path, &bytes).unwrap();
        let (m, replayed) = Manifest::recover(&path, 0).unwrap();
        assert_eq!(replayed, 1, "folding stops at the inconsistent batch");
        assert_eq!(m.state().seq, 0, "batches past the break are dropped");
        // Determinism: recovering the (now truncated) file again agrees.
        let state1 = m.state().clone();
        drop(m);
        let (m2, r2) = Manifest::recover(&path, 0).unwrap();
        assert_eq!(r2, 1);
        assert_eq!(m2.state(), &state1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_version_reads_as_empty() {
        let path = tmp("version");
        let _ = std::fs::remove_file(&path);
        let mut body = vec![0u8];
        body.extend_from_slice(&MANIFEST_MAGIC.to_le_bytes());
        body.extend_from_slice(&(MANIFEST_VERSION + 1).to_le_bytes());
        let mut bytes = frame(&body);
        bytes.extend_from_slice(&batch_record(&[ManifestEdit::SeqWatermark { seq: 3 }]));
        std::fs::write(&path, &bytes).unwrap();
        let (m, replayed) = Manifest::recover(&path, 0).unwrap();
        assert_eq!(replayed, 0);
        assert_eq!(m.state(), &ManifestState::default());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_compacts_and_preserves_state() {
        let path = tmp("checkpoint");
        let _ = std::fs::remove_file(&path);
        let mut m = Manifest::create(&path, 0).unwrap();
        for i in 1..=20u64 {
            if i > 1 {
                m.log(ManifestEdit::RemoveRun {
                    level: 0,
                    run_id: i - 1,
                });
            }
            m.log(ManifestEdit::AddRun {
                level: 0,
                active: true,
                run: run(i),
            });
            m.commit().unwrap();
        }
        m.log(ManifestEdit::SetPolicy {
            level: 0,
            policy: 4,
            pending: Some(2),
        });
        m.log(ManifestEdit::SeqWatermark { seq: 500 });
        m.commit().unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        let state_before = m.state().clone();
        m.checkpoint().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "checkpoint must shrink the log");
        assert_eq!(m.state(), &state_before);
        drop(m);
        let (rec, _) = Manifest::recover(&path, 0).unwrap();
        // The recovered state matches except for max_run_id, which the
        // checkpoint rebases to the largest live id.
        assert_eq!(rec.state().levels, state_before.levels);
        assert_eq!(rec.state().seq, state_before.seq);
        assert_eq!(rec.state().max_run_id, 20);
        let _ = std::fs::remove_file(&path);
    }

    /// Regression: a checkpoint of a *multi-level* state must survive
    /// recovery. The merge-down pattern leaves a deep-level run with a
    /// lower id than later shallow runs, so the checkpoint batch (runs
    /// in ascending id order) reaches level 1 before any level-0 edit —
    /// the fold must materialize the skipped level instead of rejecting
    /// the whole batch (which silently recovered an *empty* store).
    #[test]
    fn checkpoint_preserves_multi_level_states() {
        let path = tmp("multilevel");
        let _ = std::fs::remove_file(&path);
        let mut m = Manifest::create(&path, 0).unwrap();
        // Flush: run 1 lands at level 0.
        m.log(ManifestEdit::AddRun {
            level: 0,
            active: true,
            run: run(1),
        });
        m.commit().unwrap();
        // Merge down: run 1 becomes run 2 at level 1.
        m.log(ManifestEdit::RemoveRun {
            level: 0,
            run_id: 1,
        });
        m.log(ManifestEdit::AddRun {
            level: 1,
            active: true,
            run: run(2),
        });
        m.commit().unwrap();
        // Next flush: run 3 at level 0 — a higher id than level 1's run.
        m.log(ManifestEdit::AddRun {
            level: 0,
            active: true,
            run: run(3),
        });
        m.log(ManifestEdit::SeqWatermark { seq: 30 });
        m.commit().unwrap();
        let state = m.state().clone();
        m.checkpoint().unwrap();
        drop(m);
        let (rec, _) = Manifest::recover(&path, 0).unwrap();
        assert_eq!(rec.state().levels, state.levels);
        assert_eq!(rec.state().seq, state.seq);
        assert_eq!(
            rec.state().levels[1].active.as_ref().unwrap().run_id,
            2,
            "the deep level's run must survive the checkpoint"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Regression: a crafted batch record claiming `u32::MAX` edits must
    /// not make recovery attempt a pathological allocation — the
    /// never-panics contract covers resource exhaustion too.
    #[test]
    fn huge_batch_count_is_rejected_without_allocating() {
        let path = tmp("hugecount");
        let _ = std::fs::remove_file(&path);
        let mut bytes = header_record();
        let mut body = vec![1u8];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&frame(&body));
        std::fs::write(&path, &bytes).unwrap();
        let (m, replayed) = Manifest::recover(&path, 0).unwrap();
        assert_eq!(replayed, 0, "the lying batch must be rejected");
        assert_eq!(m.state(), &ManifestState::default());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn auto_checkpoint_triggers_on_cadence() {
        let path = tmp("autockpt");
        let _ = std::fs::remove_file(&path);
        let mut m = Manifest::create(&path, 4).unwrap();
        for i in 1..=6u64 {
            m.log(ManifestEdit::AddRun {
                level: 0,
                active: false,
                run: run(i),
            });
            m.commit().unwrap();
        }
        assert!(m.checkpoints() >= 1, "cadence of 4 edits must checkpoint");
        drop(m);
        let (rec, _) = Manifest::recover(&path, 4).unwrap();
        assert_eq!(rec.state().levels[0].sealed.len(), 6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_points_kill_the_handle() {
        let path = tmp("crash");
        let _ = std::fs::remove_file(&path);
        // PreCommit: the batch is lost entirely.
        let mut m = Manifest::create(&path, 0).unwrap();
        m.log(ManifestEdit::SeqWatermark { seq: 1 });
        m.commit().unwrap();
        m.arm_crash(ManifestCrashPoint::PreCommit, 0);
        m.log(ManifestEdit::SeqWatermark { seq: 2 });
        assert!(!m.commit().unwrap());
        assert!(m.is_crashed());
        // Dead handle: everything no-ops.
        m.log(ManifestEdit::SeqWatermark { seq: 3 });
        assert!(!m.commit().unwrap());
        drop(m);
        let (rec, _) = Manifest::recover(&path, 0).unwrap();
        assert_eq!(rec.state().seq, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_commit_crash_leaves_a_recoverable_torn_tail() {
        let path = tmp("midcommit");
        let _ = std::fs::remove_file(&path);
        let mut m = Manifest::create(&path, 0).unwrap();
        m.log(ManifestEdit::AddRun {
            level: 0,
            active: true,
            run: run(1),
        });
        m.commit().unwrap();
        m.arm_crash(ManifestCrashPoint::MidCommit, 0);
        m.log(ManifestEdit::RemoveRun {
            level: 0,
            run_id: 1,
        });
        m.log(ManifestEdit::AddRun {
            level: 0,
            active: true,
            run: run(2),
        });
        assert!(!m.commit().unwrap());
        assert!(m.is_crashed());
        drop(m);
        let (rec, _) = Manifest::recover(&path, 0).unwrap();
        assert_eq!(
            rec.state().levels[0].active.as_ref().unwrap().run_id,
            1,
            "the torn batch must vanish as a unit"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_checkpoint_crash_keeps_the_old_log() {
        let path = tmp("midckpt");
        let _ = std::fs::remove_file(&path);
        let mut m = Manifest::create(&path, 0).unwrap();
        for i in 1..=3u64 {
            m.log(ManifestEdit::AddRun {
                level: 0,
                active: false,
                run: run(i),
            });
            m.commit().unwrap();
        }
        let state = m.state().clone();
        m.arm_crash(ManifestCrashPoint::MidCheckpoint, 0);
        m.checkpoint().unwrap();
        assert!(m.is_crashed());
        drop(m);
        let (rec, _) = Manifest::recover(&path, 0).unwrap();
        assert_eq!(rec.state(), &state, "the old log stays authoritative");
        assert!(
            !Manifest::tmp_path(&path).exists(),
            "recovery must clean the stale checkpoint temp file"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn apply_rejects_inconsistencies() {
        let mut s = ManifestState::default();
        s.apply(&ManifestEdit::AddRun {
            level: 0,
            active: true,
            run: run(5),
        })
        .unwrap();
        // Duplicate / regressed id.
        assert_eq!(
            s.apply(&ManifestEdit::AddRun {
                level: 0,
                active: false,
                run: run(5),
            }),
            Err(EditError::InconsistentAdd)
        );
        // Double active.
        assert_eq!(
            s.apply(&ManifestEdit::AddRun {
                level: 0,
                active: true,
                run: run(6),
            }),
            Err(EditError::InconsistentAdd)
        );
        // Seal of a non-active id.
        assert_eq!(
            s.apply(&ManifestEdit::SealRun {
                level: 0,
                run_id: 99
            }),
            Err(EditError::NotActive)
        );
        // Removal of an unknown run.
        assert_eq!(
            s.apply(&ManifestEdit::RemoveRun {
                level: 0,
                run_id: 99
            }),
            Err(EditError::UnknownRun)
        );
        // A skipped-past level materializes with defaults (checkpoint
        // batches reach deep levels before shallow ones)...
        s.apply(&ManifestEdit::SetPolicy {
            level: 7,
            policy: 2,
            pending: None,
        })
        .unwrap();
        assert_eq!(s.levels.len(), 8);
        // ...but the ceiling still rejects pathological indices.
        assert_eq!(
            s.apply(&ManifestEdit::SetPolicy {
                level: 10_000,
                policy: 2,
                pending: None
            }),
            Err(EditError::BadLevel)
        );
        // Seq regression.
        s.apply(&ManifestEdit::SeqWatermark { seq: 50 }).unwrap();
        assert_eq!(
            s.apply(&ManifestEdit::SeqWatermark { seq: 49 }),
            Err(EditError::SeqRegressed)
        );
        // Bad policy.
        assert_eq!(
            s.apply(&ManifestEdit::SetPolicy {
                level: 0,
                policy: 0,
                pending: None
            }),
            Err(EditError::BadPolicy)
        );
    }

    #[test]
    fn move_run_reparents_a_sealed_run() {
        let mut s = ManifestState::default();
        s.apply(&ManifestEdit::AddRun {
            level: 0,
            active: false,
            run: run(3),
        })
        .unwrap();
        // Moving the active run or an unknown id is rejected.
        assert_eq!(
            s.apply(&ManifestEdit::MoveRun {
                from_level: 0,
                to_level: 1,
                run_id: 99
            }),
            Err(EditError::UnknownRun)
        );
        assert_eq!(
            s.apply(&ManifestEdit::MoveRun {
                from_level: 0,
                to_level: 10_000,
                run_id: 3
            }),
            Err(EditError::BadLevel)
        );
        s.apply(&ManifestEdit::MoveRun {
            from_level: 0,
            to_level: 1,
            run_id: 3,
        })
        .unwrap();
        assert!(s.levels[0].sealed.is_empty());
        assert_eq!(s.levels[1].sealed.len(), 1);
        assert_eq!(s.levels[1].sealed[0].run_id, 3);
        // The move allocates no new run id.
        assert_eq!(s.max_run_id, 3);
    }

    #[test]
    fn edits_survive_an_encode_decode_roundtrip() {
        let edits = vec![
            ManifestEdit::AddRun {
                level: 3,
                active: true,
                run: run(42),
            },
            ManifestEdit::SealRun {
                level: 1,
                run_id: 7,
            },
            ManifestEdit::RetargetRun {
                level: 0,
                run_id: 9,
                capacity_bytes: 1 << 20,
            },
            ManifestEdit::RemoveRun {
                level: 2,
                run_id: 11,
            },
            ManifestEdit::SetPolicy {
                level: 1,
                policy: 3,
                pending: Some(7),
            },
            ManifestEdit::SetPolicy {
                level: 0,
                policy: 1,
                pending: None,
            },
            ManifestEdit::SeqWatermark { seq: 12345 },
            ManifestEdit::MoveRun {
                from_level: 0,
                to_level: 1,
                run_id: 42,
            },
        ];
        let mut body = Vec::new();
        for e in &edits {
            encode_edit(&mut body, e);
        }
        let mut c = Cursor::new(&body);
        for e in &edits {
            assert_eq!(decode_edit(&mut c).as_ref(), Some(e));
        }
        assert!(c.at_end());
    }
}
