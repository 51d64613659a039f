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
//! [`RunBuilder`]: it copies each entry once into the page filling and
//! appends closed pages to the run's extent 256 at a time
//! ([`Storage::append_pages`]), so whatever the run's length it holds at
//! most 257 pages, the fence keys and one 16-byte Bloom hash pair per key,
//! from which `finish` fills a filter sized from the entry count. Over a
//! storage that cannot append it keeps the whole run and puts it down with
//! one [`Storage::write_pages`] at the end: the same pages, extent ids and
//! filter either way. Fence keys and the run's bounds are copies of
//! exactly their bytes: they live as long as the run does and must not
//! keep a 4 KiB page alive each.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use ruskey_storage::{Extent, Storage};

use crate::bloom::{hash_pair, Bloom, HashPair};
use crate::entry::{encode_entry, CorruptPage, EntryCursor, PAGE_HEADER_BYTES};
use crate::fence::FencePointers;
use crate::types::{key_prefix, EntryRef, Key, SeqNo, Value};

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

/// A point-lookup key, prepared once per lookup for every run it probes:
/// its Bloom [`HashPair`] and its sixteen-byte fence prefix.
#[derive(Debug)]
pub struct LookupKey<'k> {
    key: &'k [u8],
    hashes: HashPair,
    prefix: u128,
}

impl<'k> LookupKey<'k> {
    /// Hashes `key` and takes its prefix.
    pub fn new(key: &'k [u8]) -> Self {
        Self {
            key,
            hashes: hash_pair(key),
            prefix: key_prefix(key),
        }
    }
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
    /// Bits-per-key the Bloom filter was built with (the manifest records
    /// it, so recovery rebuilds the same filter).
    bits_per_key: f64,
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
    pub(crate) fn id(&self) -> RunId {
        self.id
    }

    /// Logical data size in bytes (sum of encoded entry sizes).
    pub(crate) fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// The FLSM per-run capacity assigned at creation (bytes).
    pub(crate) fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes.load(Ordering::Relaxed)
    }

    /// Updates the capacity (only ever called on a level's *active* run when
    /// a flexible transition changes the policy, §4.2). Takes `&self`: runs
    /// are shared handles, and the capacity is their one interior-mutable
    /// field.
    pub(crate) fn set_capacity_bytes(&self, capacity: u64) {
        self.capacity_bytes.store(capacity, Ordering::Relaxed);
    }

    /// Number of pages occupied on storage.
    pub fn page_count(&self) -> u32 {
        self.extent.pages
    }

    /// The storage extent holding the run's pages (recorded in the
    /// manifest so the run survives a restart on a persistent backend).
    pub(crate) fn extent(&self) -> Extent {
        self.extent
    }

    /// Smallest key in the run.
    pub(crate) fn min_key(&self) -> &Key {
        &self.min_key
    }

    /// Largest key in the run.
    pub(crate) fn max_key(&self) -> &Key {
        &self.max_key
    }

    /// The manifest record describing the run as it stands.
    pub(crate) fn record(&self) -> crate::manifest::RunRecord {
        crate::manifest::RunRecord {
            run_id: self.id,
            extent_id: self.extent.id,
            pages: self.extent.pages,
            capacity_bytes: self.capacity_bytes(),
            entry_count: self.entry_count,
            data_bytes: self.data_bytes,
            max_seq: self.max_seq,
            bloom_bits_per_key: self.bits_per_key,
            min_key: self.min_key.clone(),
            max_key: self.max_key.clone(),
        }
    }

    /// Probes the run for `lookup`'s key, charging `c_r` CPU plus any page
    /// read to the storage clock.
    pub fn probe(&self, storage: &dyn Storage, lookup: &LookupKey<'_>) -> ProbeResult {
        storage.charge_cpu(storage.cost_model().cpu_probe_ns);
        let filtered_out = ProbeResult {
            outcome: ProbeOutcome::FilteredOut,
            pages_read: 0,
        };
        let key = lookup.key;
        if key < self.min_key.as_ref() || key > self.max_key.as_ref() {
            return filtered_out;
        }
        if !self.bloom.contains_hashed(lookup.hashes) {
            return filtered_out;
        }
        let Some(page_idx) = self.fences.locate_prefixed(key, lookup.prefix) else {
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
    pub(crate) fn cursor_from<'a>(&self, storage: &'a dyn Storage, start: &[u8]) -> RunCursor<'a> {
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
    pub(crate) fn recover(
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
            bits_per_key: rec.bloom_bits_per_key,
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
    pub(crate) fn row(&self) -> Option<(Key, Value)> {
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

/// Closed pages a [`RunBuilder`] holds before it appends them to the run's
/// extent: 1 MiB at the default page size, the most a file disk puts down
/// in one positional write.
const BATCH_PAGES: usize = 256;

/// Builds a run from entries supplied in strictly ascending key order.
pub struct RunBuilder<'s> {
    id: RunId,
    storage: &'s dyn Storage,
    page_size: usize,
    bits_per_key: f64,
    /// The run's extent once its first batch is down (or once claimed).
    extent: Option<Extent>,
    /// Pages not yet on storage back to back, each led by its entry count.
    out: Vec<u8>,
    /// Where each page starts in `out`; the last one is still filling.
    page_starts: Vec<usize>,
    /// Entries in the page still filling.
    page_entries: u16,
    first_keys: Vec<Key>,
    /// Every key's Bloom hashes (none without a filter), for the filter
    /// `finish` sizes from the entry count.
    hashes: Vec<HashPair>,
    entries: u64,
    data_bytes: u64,
    /// Where the last pushed key sits in `out`.
    last_key: Range<usize>,
    max_seq: SeqNo,
}

impl<'s> RunBuilder<'s> {
    /// Starts a builder writing to `storage`. `bits_per_key` controls the
    /// Bloom filter (0 = none). The run's extent is allocated with its
    /// first batch of pages, or at [`RunBuilder::finish`] if it has none.
    pub fn new(id: RunId, storage: &'s dyn Storage, bits_per_key: f64) -> Self {
        let page_size = storage.page_size();
        assert!(page_size > PAGE_HEADER_BYTES + crate::entry::ENTRY_HEADER_BYTES);
        Self {
            id,
            storage,
            page_size,
            bits_per_key,
            extent: None,
            out: Vec::new(),
            page_starts: Vec::new(),
            page_entries: 0,
            first_keys: Vec::new(),
            hashes: Vec::new(),
            entries: 0,
            data_bytes: 0,
            last_key: 0..0,
            max_seq: 0,
        }
    }

    /// Allocates the run's extent now, so builders filled side by side
    /// number their extents in the order they were made, as builders
    /// finished one after another would. A storage that cannot append
    /// allocates nothing here; `finish` then allocates the whole run.
    pub(crate) fn claim_extent(mut self) -> Self {
        self.extent = self.storage.append_pages(None, &[]).map(|(ext, _)| ext);
        self
    }

    /// Appends an entry, copying its bytes into the page filling. Panics if
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
            if self.page_starts.len() == BATCH_PAGES {
                self.append_closed();
            }
            self.page_starts.push(self.out.len());
            self.out.extend_from_slice(&0u16.to_le_bytes());
            self.first_keys.push(Key::copy_from_slice(e.key));
        }
        let key_at = self.out.len() + crate::entry::ENTRY_HEADER_BYTES;
        encode_entry(&mut self.out, e);
        self.last_key = key_at..key_at + e.key.len();
        if self.bits_per_key > 0.0 {
            self.hashes.push(hash_pair(e.key));
        }
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

    /// The pages in `out`, all closed.
    fn held_pages(&self) -> Vec<&[u8]> {
        let ends = self
            .page_starts
            .iter()
            .skip(1)
            .copied()
            .chain([self.out.len()]);
        (self.page_starts.iter().zip(ends))
            .map(|(&start, end)| &self.out[start..end])
            .collect()
    }

    /// Appends the pages in `out` (all closed) to the run's extent and
    /// drops them. A storage that cannot append keeps them in `out`, and
    /// the builder holds the whole run from then on.
    fn append_closed(&mut self) -> bool {
        let Some((extent, _)) = self.storage.append_pages(self.extent, &self.held_pages()) else {
            return false;
        };
        self.extent = Some(extent);
        self.out.clear();
        self.page_starts.clear();
        true
    }

    /// Puts the pages still held down (charging write I/O), builds the
    /// Bloom filter and fence pointers, and returns the finished run.
    /// Over a storage that cannot append, the whole run goes down here in
    /// one [`Storage::write_pages`] to an extent allocated for it.
    ///
    /// `capacity_bytes` is the FLSM per-run capacity recorded on the run.
    /// Returns `None` if no entries were pushed (and frees a claimed
    /// extent).
    pub fn finish(mut self, capacity_bytes: u64) -> Option<Run> {
        if self.entries == 0 {
            if let Some(extent) = self.extent {
                self.storage.free(extent);
            }
            return None;
        }
        self.close_page();
        let max_key = Key::copy_from_slice(&self.out[self.last_key.clone()]);
        if !self.append_closed() {
            let pages = self.held_pages();
            let extent = self.storage.allocate(pages.len() as u32);
            self.storage.write_pages(extent, &pages);
            self.extent = Some(extent);
        }
        let mut bloom = Bloom::sized_for(self.entries as usize, self.bits_per_key);
        self.hashes.iter().for_each(|&h| bloom.insert_hashed(h));
        Some(Run {
            id: self.id,
            extent: self.extent.expect("the run's pages are down"),
            bloom,
            entry_count: self.entries,
            data_bytes: self.data_bytes,
            bits_per_key: self.bits_per_key,
            capacity_bytes: AtomicU64::new(capacity_bytes),
            min_key: self.first_keys[0].clone(),
            max_key,
            fences: FencePointers::new(self.first_keys),
            max_seq: self.max_seq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::KvEntry;
    use ruskey_storage::{CostModel, IoCharge, SimulatedDisk, StorageMetrics, VirtualClock};
    use std::sync::{Arc, Mutex};

    impl Run {
        fn entry_count(&self) -> u64 {
            self.entry_count
        }

        fn max_seq(&self) -> SeqNo {
            self.max_seq
        }

        /// In-memory metadata footprint (Bloom bits + fence keys and their
        /// 16-byte prefixes), bytes.
        fn metadata_bytes(&self) -> usize {
            self.bloom.memory_bytes() + self.fences.memory_bytes()
        }
    }

    fn key(i: u64) -> Key {
        Bytes::copy_from_slice(&i.to_be_bytes())
    }

    fn value(i: u64) -> Key {
        Bytes::from(format!("value-{i:06}"))
    }

    fn build_run(storage: &dyn Storage, n: u64, bits: f64) -> Run {
        let mut b = RunBuilder::new(1, storage, bits);
        for i in 0..n {
            b.push(KvEntry::put(key(i * 2), value(i), i + 1).borrowed());
        }
        b.finish(u64::MAX).unwrap()
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
            let r = run.probe(disk.as_ref(), &LookupKey::new(&key(i * 2)));
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
        let r = run.probe(disk.as_ref(), &LookupKey::new(&key(1_000_000)));
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
            let r = run.probe(disk.as_ref(), &LookupKey::new(&key(i * 2 + 1)));
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
        let b = RunBuilder::new(1, disk.as_ref(), 8.0);
        assert!(b.finish(0).is_none());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_push_panics() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let mut b = RunBuilder::new(1, disk.as_ref(), 8.0);
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
        let rec = run.record();
        let rebuilt = Run::recover(disk.as_ref(), &rec).unwrap();
        assert_eq!(rebuilt.entry_count(), run.entry_count());
        assert_eq!(rebuilt.metadata_bytes(), run.metadata_bytes());
        for i in 0..80u64 {
            let a = run.probe(disk.as_ref(), &LookupKey::new(&key(i * 2)));
            let b = rebuilt.probe(disk.as_ref(), &LookupKey::new(&key(i * 2)));
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

    /// Forwards the required methods to a simulated disk and logs every
    /// page written as `(extent, page)`. With `appends` it forwards
    /// [`Storage::append_pages`] too; without, the method keeps its
    /// "cannot append" default, as in a decorator written before it.
    struct Logged {
        disk: Arc<SimulatedDisk>,
        appends: bool,
        writes: Mutex<Vec<(u64, u32)>>,
    }

    impl Logged {
        fn new(appends: bool) -> Self {
            Self {
                disk: SimulatedDisk::new(256, CostModel::NVME),
                appends,
                writes: Mutex::new(Vec::new()),
            }
        }

        fn writes(&self) -> Vec<(u64, u32)> {
            self.writes.lock().unwrap().clone()
        }
    }

    impl Storage for Logged {
        fn page_size(&self) -> usize {
            self.disk.page_size()
        }
        fn allocate(&self, pages: u32) -> Extent {
            self.disk.allocate(pages)
        }
        fn write_page(&self, ext: Extent, idx: u32, data: &[u8]) -> IoCharge {
            self.writes.lock().unwrap().push((ext.id, idx));
            self.disk.write_page(ext, idx, data)
        }
        fn append_pages(&self, ext: Option<Extent>, pages: &[&[u8]]) -> Option<(Extent, IoCharge)> {
            if !self.appends {
                return None;
            }
            let (grown, charge) = self.disk.append_pages(ext, pages)?;
            let first = grown.pages - pages.len() as u32;
            let mut writes = self.writes.lock().unwrap();
            writes.extend((first..grown.pages).map(|idx| (grown.id, idx)));
            Some((grown, charge))
        }
        fn try_read_page(
            &self,
            ext: Extent,
            idx: u32,
            buf: &mut Vec<u8>,
        ) -> std::io::Result<IoCharge> {
            self.disk.try_read_page(ext, idx, buf)
        }
        fn free(&self, ext: Extent) {
            self.disk.free(ext)
        }
        fn metrics(&self) -> StorageMetrics {
            self.disk.metrics()
        }
        fn clock(&self) -> &VirtualClock {
            self.disk.clock()
        }
        fn cost_model(&self) -> CostModel {
            self.disk.cost_model()
        }
        fn live_pages(&self) -> u64 {
            self.disk.live_pages()
        }
    }

    /// Pushes ascending entries until the run spans `pages` pages.
    fn fill_pages(b: &mut RunBuilder<'_>, pages: usize) {
        let mut i = 0;
        while b.first_keys.len() < pages || b.page_entries < 3 {
            b.push(KvEntry::put(key(i), value(i), i + 1).borrowed());
            i += 1;
        }
    }

    /// A run longer than one batch reaches storage while it is built: its
    /// first 256 pages are written before its last entry is pushed.
    #[test]
    fn a_long_run_is_written_before_its_last_push() {
        let log = Logged::new(true);
        let mut b = RunBuilder::new(1, &log, 10.0);
        fill_pages(&mut b, BATCH_PAGES + 40);
        assert_eq!(log.writes().len(), BATCH_PAGES);
        b.push(KvEntry::put(key(u64::MAX), value(0), 1).borrowed());
        let run = b.finish(u64::MAX).unwrap();
        let every_page: Vec<_> = (0..run.page_count())
            .map(|p| (run.extent().id, p))
            .collect();
        assert_eq!(log.writes(), every_page);
        assert_eq!(log.live_pages(), run.page_count() as u64);
    }

    /// While it builds a 2000-page run, the builder holds at most one
    /// batch of closed pages and the page filling.
    #[test]
    fn a_builder_holds_at_most_257_pages() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let mut b = RunBuilder::new(1, disk.as_ref(), 10.0);
        let mut most = 0;
        for i in 0.. {
            b.push(KvEntry::put(key(i), value(i), i + 1).borrowed());
            most = most.max(b.out.len());
            if b.first_keys.len() == 2000 && b.page_entries == 1 {
                break;
            }
        }
        assert!(most > BATCH_PAGES * 256 * 9 / 10, "a batch was not held");
        assert!(most <= (BATCH_PAGES + 1) * 256, "held {most} bytes");
        let run = b.finish(u64::MAX).unwrap();
        assert_eq!((run.page_count(), disk.live_pages()), (2000, 2000));
    }

    /// Over a storage that cannot append, the builder keeps the whole run
    /// and writes it at `finish`: the same extent, pages, charges and
    /// Bloom bits as over a storage that takes it in batches.
    #[test]
    fn a_storage_that_cannot_append_gets_the_same_run() {
        let build = |appends: bool| {
            let log = Logged::new(appends);
            let mut b = RunBuilder::new(7, &log, 10.0);
            fill_pages(&mut b, 3 * BATCH_PAGES + 9);
            let run = b.finish(u64::MAX).unwrap();
            let pages: Vec<Bytes> = (0..run.page_count())
                .map(|p| log.try_read_shared(run.extent(), p).unwrap().0)
                .collect();
            let state = (log.writes(), log.metrics(), log.clock().now_ns());
            (format!("{run:?}"), pages, state)
        };
        let (streamed, whole) = (build(true), build(false));
        assert!(streamed.1.len() > 3 * BATCH_PAGES);
        assert!(streamed == whole, "the runs differ");
    }

    #[test]
    fn zero_bits_run_still_correct() {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let run = build_run(disk.as_ref(), 30, 0.0);
        let r = run.probe(disk.as_ref(), &LookupKey::new(&key(4)));
        assert!(matches!(r.outcome, ProbeOutcome::Found(_)));
        // In-range misses always pay a page read without a filter.
        let r = run.probe(disk.as_ref(), &LookupKey::new(&key(5)));
        assert_eq!(r.outcome, ProbeOutcome::FalsePositive);
        assert_eq!(r.pages_read, 1);
    }
}
