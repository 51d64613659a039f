//! Immutable sorted runs.
//!
//! A run is the disk-resident unit of the LSM-tree: a sequence of pages of
//! sorted entries, paired with an in-memory Bloom filter and fence pointers.
//! In the FLSM-tree, every run additionally carries its own *capacity*,
//! assigned at creation from the level's policy at that moment — this is the
//! mechanism that lets runs of different sizes coexist in one level (§4.2).
//!
//! There is one way to read a run and one way to write one. Reading is the
//! [`RunCursor`]: it takes each page from [`Storage::try_read_shared`] as a
//! shared handle and walks the entries in place ([`EntryCursor`]), so a
//! point probe, a scan, a merge and recovery all touch the page the device
//! or cache already holds, and nothing is copied until a caller is handed
//! bytes to keep — a probe's value, a scan's rows. Writing is the
//! [`RunBuilder`]: it copies each entry once into one contiguous buffer
//! laid out page by page, puts the run down with a single
//! [`Storage::write_pages`], and hashes the Bloom keys out of that buffer.
//! Fence keys and the run's bounds are copies of exactly their bytes: they
//! live as long as the run does and must not keep a 4 KiB page alive each.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use ruskey_storage::{Extent, Storage};

use crate::bloom::Bloom;
use crate::entry::{encode_entry, CorruptPage, EntryCursor, PAGE_HEADER_BYTES};
use crate::fence::FencePointers;
use crate::types::{EntryRef, Key, SeqNo, Value};

/// Unique run identifier within one tree.
pub type RunId = u64;

/// The outcome of probing one run for a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// The run's metadata excluded the key without any I/O
    /// (range check or Bloom-filter negative).
    FilteredOut,
    /// The Bloom filter answered positive but the page did not contain the
    /// key — a false positive costing one page read.
    FalsePositive,
    /// The run holds a version of the key: a copy of its value, or `None`
    /// for a tombstone. The copy is the only thing a hit allocates; it
    /// does not keep the page alive.
    Found(Option<Value>),
}

/// Statistics of one probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeResult {
    /// What happened.
    pub outcome: ProbeOutcome,
    /// Pages read from storage during the probe (0 or 1).
    pub pages_read: u32,
}

/// The steady-state read: a page the manifest records is readable, so a
/// failure here is a logic bug ([`Storage::read_page`]'s contract).
fn read_shared(storage: &dyn Storage, ext: Extent, idx: u32) -> Bytes {
    match storage.try_read_shared(ext, idx) {
        Ok((page, _)) => page,
        Err(e) => panic!("read page {}:{idx}: {e}", ext.id),
    }
}

/// The steady-state answer to page contents that do not parse.
fn corrupt_page(ext: Extent, idx: u32, e: CorruptPage) -> ! {
    panic!("corrupt page {}:{idx}: {e}", ext.id)
}

/// An immutable sorted run.
#[derive(Debug)]
pub struct Run {
    id: RunId,
    extent: Extent,
    bloom: Bloom,
    fences: FencePointers,
    entry_count: u64,
    data_bytes: u64,
    /// Atomic so a *shared* run handle (`Arc<Run>`) can be retargeted in
    /// place by a flexible policy transition: the capacity is the only
    /// mutable field of an otherwise immutable run.
    capacity_bytes: AtomicU64,
    min_key: Key,
    max_key: Key,
    max_seq: SeqNo,
}

impl Run {
    /// Run identifier.
    pub fn id(&self) -> RunId {
        self.id
    }

    /// Logical data size in bytes (sum of encoded entry sizes).
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// The FLSM per-run capacity assigned at creation (bytes).
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes.load(Ordering::Relaxed)
    }

    /// Updates the capacity (only ever called on a level's *active* run when
    /// a flexible transition changes the policy, §4.2). Takes `&self`: runs
    /// are shared handles, and the capacity is their one interior-mutable
    /// field.
    pub fn set_capacity_bytes(&self, capacity: u64) {
        self.capacity_bytes.store(capacity, Ordering::Relaxed);
    }

    /// Number of entries in the run.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Number of pages occupied on storage.
    pub fn page_count(&self) -> u32 {
        self.extent.pages
    }

    /// The storage extent holding the run's pages (recorded in the
    /// manifest so the run survives a restart on a persistent backend).
    pub fn extent(&self) -> Extent {
        self.extent
    }

    /// Smallest key in the run.
    pub fn min_key(&self) -> &Key {
        &self.min_key
    }

    /// Largest key in the run.
    pub fn max_key(&self) -> &Key {
        &self.max_key
    }

    /// Largest sequence number in the run.
    pub fn max_seq(&self) -> SeqNo {
        self.max_seq
    }

    /// In-memory metadata footprint (Bloom bits + fence keys), bytes.
    pub fn metadata_bytes(&self) -> usize {
        self.bloom.memory_bytes() + self.fences.memory_bytes()
    }

    /// Probes the run for `key`, charging `c_r` CPU plus any page read to
    /// the storage clock.
    pub fn probe(&self, storage: &dyn Storage, key: &[u8]) -> ProbeResult {
        storage.charge_cpu(storage.cost_model().cpu_probe_ns);
        let filtered_out = ProbeResult {
            outcome: ProbeOutcome::FilteredOut,
            pages_read: 0,
        };
        if key < self.min_key.as_ref() || key > self.max_key.as_ref() {
            return filtered_out;
        }
        if !self.bloom.contains(key) {
            return filtered_out;
        }
        let Some(page_idx) = self.fences.locate(key) else {
            return filtered_out;
        };
        let page = read_shared(storage, self.extent, page_idx);
        let mut cursor =
            EntryCursor::page(&page[..]).unwrap_or_else(|e| corrupt_page(self.extent, page_idx, e));
        let mut outcome = ProbeOutcome::FalsePositive;
        // Entries within a page are sorted: stop once past the key.
        while let Some(e) = cursor.entry() {
            match e.key.cmp(key) {
                std::cmp::Ordering::Less => cursor
                    .advance()
                    .unwrap_or_else(|e| corrupt_page(self.extent, page_idx, e)),
                std::cmp::Ordering::Equal => {
                    let value = (!e.is_tombstone()).then(|| Value::copy_from_slice(e.value));
                    outcome = ProbeOutcome::Found(value);
                    break;
                }
                std::cmp::Ordering::Greater => break,
            }
        }
        ProbeResult {
            outcome,
            pages_read: 1,
        }
    }

    /// A cursor on the run's first entry (reads the first page).
    pub fn cursor<'a>(&self, storage: &'a dyn Storage) -> RunCursor<'a> {
        RunCursor::open(self.extent, storage, 0)
    }

    /// A cursor on the first entry with key `>= start`: reads the page the
    /// fence pointers name, and the one after it if that page ends first.
    pub fn cursor_from<'a>(&self, storage: &'a dyn Storage, start: &[u8]) -> RunCursor<'a> {
        let mut cursor = RunCursor::open(self.extent, storage, self.fences.seek_page(start));
        while cursor.entry().is_some_and(|e| e.key < start) {
            cursor.advance();
        }
        cursor
    }

    /// The fence pointers, for the test oracle's own seek.
    #[cfg(test)]
    pub(crate) fn fences(&self) -> &FencePointers {
        &self.fences
    }

    /// Frees the run's pages on storage. The run must not be used afterwards.
    pub fn destroy(self, storage: &dyn Storage) {
        storage.free(self.extent);
    }

    /// Rebuilds a run from its manifest record and data pages: every page
    /// of the recorded extent is read back and walked in place to
    /// re-derive the fence pointers and an identical Bloom filter, and
    /// the result is cross-checked against the record's integrity
    /// expectations (entry count, data bytes, key bounds, max seq).
    ///
    /// Returns `InvalidData` if the pages do not parse (an entry header
    /// running past its page, an unknown kind byte) or disagree with the
    /// record — a manifest that references pages which were never written
    /// cannot get here under the commit ordering contract (pages first,
    /// edit after), so either means externally corrupted page *contents*.
    /// A missing, truncated, or torn extent file surfaces the same way:
    /// the fallible [`Storage::try_read_shared`] propagates the backend's
    /// typed error wrapped with the run's identity, so recovery reports
    /// *which* run failed instead of panicking mid-restart.
    pub fn recover(
        storage: &dyn Storage,
        rec: &crate::manifest::RunRecord,
    ) -> std::io::Result<Run> {
        let extent = Extent {
            id: rec.extent_id,
            pages: rec.pages,
        };
        let mut first_keys: Vec<Key> = Vec::with_capacity(rec.pages as usize);
        let mut bloom = Bloom::sized_for(rec.entry_count as usize, rec.bloom_bits_per_key);
        let mut last_key: Vec<u8> = Vec::new();
        let (mut entries, mut data_bytes, mut max_seq) = (0u64, 0u64, 0 as SeqNo);
        for page in 0..rec.pages {
            let (bytes, _) = storage.try_read_shared(extent, page).map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!("run {} (extent {}): {e}", rec.run_id, rec.extent_id),
                )
            })?;
            let corrupt = |e: CorruptPage| corrupt_run(rec, &format!("page {page}: {e}"));
            let mut cursor = EntryCursor::page(&bytes[..]).map_err(corrupt)?;
            if let Some(first) = cursor.entry() {
                first_keys.push(Key::copy_from_slice(first.key));
            }
            while let Some(e) = cursor.entry() {
                if entries > 0 && last_key.as_slice() >= e.key {
                    return Err(corrupt_run(rec, "keys out of order"));
                }
                entries += 1;
                data_bytes += e.encoded_size() as u64;
                max_seq = max_seq.max(e.seq);
                bloom.insert(e.key);
                last_key.clear();
                last_key.extend_from_slice(e.key);
                cursor.advance().map_err(corrupt)?;
            }
        }
        let bounds_ok = first_keys.first() == Some(&rec.min_key) && rec.max_key == last_key;
        if entries != rec.entry_count
            || data_bytes != rec.data_bytes
            || max_seq != rec.max_seq
            || !bounds_ok
        {
            return Err(corrupt_run(rec, "pages disagree with the manifest record"));
        }
        Ok(Run {
            id: rec.run_id,
            extent,
            bloom,
            fences: FencePointers::new(first_keys),
            entry_count: rec.entry_count,
            data_bytes: rec.data_bytes,
            capacity_bytes: AtomicU64::new(rec.capacity_bytes),
            min_key: rec.min_key.clone(),
            max_key: rec.max_key.clone(),
            max_seq: rec.max_seq,
        })
    }
}

fn corrupt_run(rec: &crate::manifest::RunRecord, what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("run {} (extent {}): {what}", rec.run_id, rec.extent_id),
    )
}

/// A cursor over a run's entries in key order: on one entry at a time,
/// borrowed from the page handle it holds. Advancing past the last entry
/// of a page reads the next page at once, so the cursor is always either
/// on an entry or at the end of the run.
pub struct RunCursor<'a> {
    storage: &'a dyn Storage,
    extent: Extent,
    next_page: u32,
    page: EntryCursor<Bytes>,
}

impl<'a> RunCursor<'a> {
    fn open(extent: Extent, storage: &'a dyn Storage, start_page: u32) -> Self {
        let mut cursor = Self {
            storage,
            extent,
            next_page: start_page,
            page: EntryCursor::page(Bytes::new()).expect("an empty page parses"),
        };
        cursor.load_next_page();
        cursor
    }

    /// Reads pages until one holds an entry or the run ends.
    fn load_next_page(&mut self) {
        while self.page.entry().is_none() && self.next_page < self.extent.pages {
            let idx = self.next_page;
            self.next_page += 1;
            self.page = EntryCursor::page(read_shared(self.storage, self.extent, idx))
                .unwrap_or_else(|e| corrupt_page(self.extent, idx, e));
        }
    }

    /// The entry the cursor is on, or `None` at the end of the run.
    pub fn entry(&self) -> Option<EntryRef<'_>> {
        self.page.entry()
    }

    /// Key and value of the current entry as slices of its page handle
    /// (see [`EntryCursor::row`]).
    pub fn row(&self) -> Option<(Key, Value)> {
        self.page.row()
    }

    /// Moves to the next entry, reading the next page if this one is done.
    ///
    /// # Panics
    /// Panics if a page cannot be read or does not parse: on the
    /// steady-state path both are logic bugs (recovery already walked
    /// every recorded page).
    pub fn advance(&mut self) {
        let idx = self.next_page.wrapping_sub(1);
        self.page
            .advance()
            .unwrap_or_else(|e| corrupt_page(self.extent, idx, e));
        self.load_next_page();
    }
}

/// Builds a run from entries supplied in strictly ascending key order.
pub struct RunBuilder {
    id: RunId,
    page_size: usize,
    bits_per_key: f64,
    /// Every page of the run back to back, each led by its entry count.
    out: Vec<u8>,
    /// Where each page starts in `out`; the last one is still filling.
    page_starts: Vec<usize>,
    /// Entries in the page still filling.
    page_entries: u16,
    first_keys: Vec<Key>,
    entries: u64,
    data_bytes: u64,
    /// Where the last pushed key sits in `out`.
    last_key: Range<usize>,
    max_seq: SeqNo,
}

impl RunBuilder {
    /// Starts a builder. `bits_per_key` controls the Bloom filter (0 = none).
    pub fn new(id: RunId, page_size: usize, bits_per_key: f64) -> Self {
        assert!(page_size > PAGE_HEADER_BYTES + crate::entry::ENTRY_HEADER_BYTES);
        Self {
            id,
            page_size,
            bits_per_key,
            out: Vec::new(),
            page_starts: Vec::new(),
            page_entries: 0,
            first_keys: Vec::new(),
            entries: 0,
            data_bytes: 0,
            last_key: 0..0,
            max_seq: 0,
        }
    }

    /// Appends an entry, copying its bytes into the run's buffer. Panics if
    /// keys are not strictly ascending or the entry cannot fit in an empty
    /// page.
    pub fn push(&mut self, e: EntryRef<'_>) {
        let size = e.encoded_size();
        assert!(
            PAGE_HEADER_BYTES + size <= self.page_size,
            "entry larger than a page"
        );
        assert!(
            self.entries == 0 || e.key > &self.out[self.last_key.clone()],
            "RunBuilder keys must be strictly ascending"
        );
        let page_full = self.page_starts.last().is_none_or(|start| {
            self.out.len() - start + size > self.page_size || self.page_entries == u16::MAX
        });
        if page_full {
            self.close_page();
            self.page_starts.push(self.out.len());
            self.out.extend_from_slice(&0u16.to_le_bytes());
            self.first_keys.push(Key::copy_from_slice(e.key));
        }
        let key_at = self.out.len() + crate::entry::ENTRY_HEADER_BYTES;
        encode_entry(&mut self.out, e);
        self.last_key = key_at..key_at + e.key.len();
        self.page_entries += 1;
        self.entries += 1;
        self.data_bytes += size as u64;
        self.max_seq = self.max_seq.max(e.seq);
    }

    /// Writes the filling page's entry count into its header.
    fn close_page(&mut self) {
        if let Some(&start) = self.page_starts.last() {
            self.out[start..start + PAGE_HEADER_BYTES]
                .copy_from_slice(&self.page_entries.to_le_bytes());
        }
        self.page_entries = 0;
    }

    /// Number of entries added so far.
    pub fn len(&self) -> usize {
        self.entries as usize
    }

    /// True if nothing was added.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Logical bytes accumulated so far.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Writes the pages to `storage` in one call (charging write I/O),
    /// builds the Bloom filter and fence pointers, and returns the
    /// finished run.
    ///
    /// `capacity_bytes` is the FLSM per-run capacity recorded on the run.
    /// Returns `None` if no entries were pushed.
    pub fn finish(mut self, storage: &dyn Storage, capacity_bytes: u64) -> Option<Run> {
        if self.entries == 0 {
            return None;
        }
        self.close_page();
        self.page_starts.push(self.out.len());
        let pages: Vec<&[u8]> = self
            .page_starts
            .windows(2)
            .map(|bounds| &self.out[bounds[0]..bounds[1]])
            .collect();
        let extent = storage.allocate(pages.len() as u32);
        storage.write_pages(extent, &pages);
        let mut bloom = Bloom::sized_for(self.entries as usize, self.bits_per_key);
        for page in &pages {
            let mut cursor = EntryCursor::page(*page).expect("the builder encoded this page");
            while let Some(e) = cursor.entry() {
                bloom.insert(e.key);
                cursor.advance().expect("the builder encoded this page");
            }
        }
        Some(Run {
            id: self.id,
            extent,
            bloom,
            entry_count: self.entries,
            data_bytes: self.data_bytes,
            capacity_bytes: AtomicU64::new(capacity_bytes),
            min_key: self.first_keys[0].clone(),
            max_key: Key::copy_from_slice(&self.out[self.last_key]),
            fences: FencePointers::new(self.first_keys),
            max_seq: self.max_seq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::KvEntry;
    use ruskey_storage::{CostModel, SimulatedDisk};

    fn key(i: u64) -> Key {
        Bytes::copy_from_slice(&i.to_be_bytes())
    }

    fn value(i: u64) -> Key {
        Bytes::from(format!("value-{i:06}"))
    }

    fn build_run(storage: &dyn Storage, n: u64, bits: f64) -> Run {
        let mut b = RunBuilder::new(1, storage.page_size(), bits);
        for i in 0..n {
            b.push(KvEntry::put(key(i * 2), value(i), i + 1).borrowed());
        }
        b.finish(storage, u64::MAX).unwrap()
    }

    fn entries(mut cursor: RunCursor<'_>) -> Vec<KvEntry> {
        let mut out = Vec::new();
        while let Some(e) = cursor.entry() {
            out.push(e.to_owned());
            cursor.advance();
        }
        out
    }

    #[test]
    fn probe_finds_every_key() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(disk.as_ref(), 100, 10.0);
        for i in 0..100 {
            let r = run.probe(disk.as_ref(), &key(i * 2));
            match r.outcome {
                ProbeOutcome::Found(v) => assert_eq!(v, Some(value(i))),
                other => panic!("key {i} not found: {other:?}"),
            }
        }
    }

    #[test]
    fn probe_out_of_range_costs_nothing() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(disk.as_ref(), 10, 10.0);
        let before = disk.metrics().pages_read;
        let r = run.probe(disk.as_ref(), &key(1_000_000));
        assert_eq!(r.outcome, ProbeOutcome::FilteredOut);
        assert_eq!(disk.metrics().pages_read, before);
    }

    #[test]
    fn probe_missing_key_in_range() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(disk.as_ref(), 100, 10.0);
        // Odd keys are absent; with bits=10 most probes are filtered, any
        // bloom positive must come back as FalsePositive, never Found.
        for i in 0..100 {
            let r = run.probe(disk.as_ref(), &key(i * 2 + 1));
            assert!(
                matches!(
                    r.outcome,
                    ProbeOutcome::FilteredOut | ProbeOutcome::FalsePositive
                ),
                "phantom key found"
            );
        }
    }

    #[test]
    fn iterator_streams_in_order() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(disk.as_ref(), 50, 10.0);
        let entries = entries(run.cursor(disk.as_ref()));
        assert_eq!(entries.len(), 50);
        for w in entries.windows(2) {
            assert!(w[0].key < w[1].key);
        }
        assert_eq!(entries[0].key, key(0));
        assert_eq!(entries[49].key, key(98));
    }

    #[test]
    fn seeked_iterator_starts_at_bound() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(disk.as_ref(), 50, 10.0);
        // Seek to key 31 (absent): first yielded must be 32.
        let cursor = run.cursor_from(disk.as_ref(), &key(31));
        assert_eq!(cursor.entry().unwrap().key, key(32).as_ref());
        assert_eq!(cursor.row().unwrap().0, key(32));
        // Seek before the run start, and past its end.
        let cursor = run.cursor_from(disk.as_ref(), &key(0));
        assert_eq!(cursor.entry().unwrap().key, key(0).as_ref());
        assert!(run.cursor_from(disk.as_ref(), &key(99)).entry().is_none());
    }

    #[test]
    fn metadata_and_counters() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(disk.as_ref(), 100, 8.0);
        assert_eq!(run.entry_count(), 100);
        assert!(run.page_count() > 1);
        assert!(run.data_bytes() > 0);
        assert!(run.metadata_bytes() > 0);
        assert_eq!(run.max_seq(), 100);
        assert_eq!(run.min_key(), &key(0));
        assert_eq!(run.max_key(), &key(198));
    }

    #[test]
    fn destroy_frees_pages() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(disk.as_ref(), 20, 8.0);
        assert!(disk.live_pages() > 0);
        run.destroy(disk.as_ref());
        assert_eq!(disk.live_pages(), 0);
    }

    #[test]
    fn empty_builder_returns_none() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let b = RunBuilder::new(1, 256, 8.0);
        assert!(b.finish(disk.as_ref(), 0).is_none());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_push_panics() {
        let mut b = RunBuilder::new(1, 256, 8.0);
        b.push(KvEntry::put(key(5), value(5), 1).borrowed());
        b.push(KvEntry::put(key(3), value(3), 2).borrowed());
    }

    /// A run rebuilt from its manifest record and data pages is
    /// observationally identical: same probes, same iteration, same
    /// metadata footprint (the Bloom filter is rebuilt from the same keys
    /// with the same budget).
    #[test]
    fn recover_rebuilds_an_identical_run() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(disk.as_ref(), 80, 8.0);
        let rec = crate::manifest::RunRecord {
            run_id: run.id(),
            extent_id: run.extent().id,
            pages: run.page_count(),
            capacity_bytes: run.capacity_bytes(),
            entry_count: run.entry_count(),
            data_bytes: run.data_bytes(),
            max_seq: run.max_seq(),
            bloom_bits_per_key: 8.0,
            min_key: run.min_key().clone(),
            max_key: run.max_key().clone(),
        };
        let rebuilt = Run::recover(disk.as_ref(), &rec).unwrap();
        assert_eq!(rebuilt.entry_count(), run.entry_count());
        assert_eq!(rebuilt.metadata_bytes(), run.metadata_bytes());
        for i in 0..80u64 {
            let a = run.probe(disk.as_ref(), &key(i * 2));
            let b = rebuilt.probe(disk.as_ref(), &key(i * 2));
            assert_eq!(a, b, "probe {i} diverged after recovery");
        }
        assert_eq!(
            entries(run.cursor(disk.as_ref())),
            entries(rebuilt.cursor(disk.as_ref()))
        );
        // A record whose expectations disagree with the pages is rejected.
        let bad = crate::manifest::RunRecord {
            entry_count: rec.entry_count + 1,
            ..rec
        };
        assert!(Run::recover(disk.as_ref(), &bad).is_err());
    }

    #[test]
    fn zero_bits_run_still_correct() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(disk.as_ref(), 30, 0.0);
        let r = run.probe(disk.as_ref(), &key(4));
        assert!(matches!(r.outcome, ProbeOutcome::Found(_)));
        // In-range misses always pay a page read without a filter.
        let r = run.probe(disk.as_ref(), &key(5));
        assert_eq!(r.outcome, ProbeOutcome::FalsePositive);
        assert_eq!(r.pages_read, 1);
    }
}
