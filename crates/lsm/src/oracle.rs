#![cfg(test)]
//! The chain the page cursor and the merge kernel replaced, kept verbatim as
//! the oracle their tests compare against: a page decoded into a `Vec` of
//! owned entries, a run iterated behind a boxed iterator, a merge through a
//! heap of owned items with a cloned key each, pages packed one `Vec` each
//! and written one `write_page` at a time. Nothing here is product code.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use bytes::Bytes;
use ruskey_storage::{Extent, Storage};

use crate::entry::{ENTRY_HEADER_BYTES, PAGE_HEADER_BYTES};
use crate::run::Run;
use crate::types::{Key, KvEntry, OpKind, Value};

/// Serializes an entry into a page buffer; `false` (buffer untouched) if it
/// would not fit in a page of `page_size` bytes.
pub(crate) fn append_entry(buf: &mut Vec<u8>, e: &KvEntry, page_size: usize) -> bool {
    let need = e.encoded_size();
    let used = if buf.is_empty() {
        PAGE_HEADER_BYTES
    } else {
        buf.len()
    };
    if used + need > page_size {
        return false;
    }
    if buf.is_empty() {
        buf.extend_from_slice(&0u16.to_le_bytes());
    }
    buf.extend_from_slice(&(e.key.len() as u16).to_le_bytes());
    buf.extend_from_slice(&(e.value.len() as u32).to_le_bytes());
    buf.extend_from_slice(&e.seq.to_le_bytes());
    buf.push(e.kind.to_byte());
    buf.extend_from_slice(&e.key);
    buf.extend_from_slice(&e.value);
    let n = u16::from_le_bytes([buf[0], buf[1]]) + 1;
    buf[0..2].copy_from_slice(&n.to_le_bytes());
    true
}

/// Decodes all entries of a page; keys and values are slices of the one
/// `Bytes` the page buffer becomes.
pub(crate) fn decode_page(page: Vec<u8>) -> Vec<KvEntry> {
    if page.len() < PAGE_HEADER_BYTES {
        return Vec::new();
    }
    let page = Bytes::from(page);
    let n = u16::from_le_bytes([page[0], page[1]]) as usize;
    let mut out = Vec::with_capacity(n);
    let mut off = PAGE_HEADER_BYTES;
    for _ in 0..n {
        let klen = u16::from_le_bytes(page[off..off + 2].try_into().unwrap()) as usize;
        let vlen = u32::from_le_bytes(page[off + 2..off + 6].try_into().unwrap()) as usize;
        let seq = u64::from_le_bytes(page[off + 6..off + 14].try_into().unwrap());
        let kind = OpKind::from_byte(page[off + 14]).expect("corrupt entry kind");
        off += ENTRY_HEADER_BYTES;
        let key = page.slice(off..off + klen);
        off += klen;
        let value = page.slice(off..off + vlen);
        off += vlen;
        out.push(KvEntry {
            key,
            value,
            seq,
            kind,
        });
    }
    out
}

/// Streams a run's entries in key order, reading one page at a time.
pub(crate) struct RunIterator {
    extent: Extent,
    storage: Arc<dyn Storage>,
    next_page: u32,
    current: std::vec::IntoIter<KvEntry>,
    peeked: Option<KvEntry>,
}

impl RunIterator {
    /// Sequential iterator over all entries of `run`.
    pub(crate) fn new(run: &Run, storage: Arc<dyn Storage>) -> Self {
        Self::at_page(run.extent(), storage, 0)
    }

    /// Iterator positioned at the first entry with key `>= start`.
    pub(crate) fn from_key(run: &Run, storage: Arc<dyn Storage>, start: &[u8]) -> Self {
        let mut it = Self::at_page(run.extent(), storage, run.fences().seek_page(start));
        it.skip_until(start);
        it
    }

    fn at_page(extent: Extent, storage: Arc<dyn Storage>, start_page: u32) -> Self {
        Self {
            extent,
            storage,
            next_page: start_page,
            current: Vec::new().into_iter(),
            peeked: None,
        }
    }

    fn refill(&mut self) -> bool {
        while self.next_page < self.extent.pages {
            let mut buf = Vec::with_capacity(self.storage.page_size());
            self.storage
                .read_page(self.extent, self.next_page, &mut buf);
            self.next_page += 1;
            let entries = decode_page(buf);
            if !entries.is_empty() {
                self.current = entries.into_iter();
                return true;
            }
        }
        false
    }

    fn skip_until(&mut self, start: &[u8]) {
        while let Some(e) = self.peek() {
            if e.key.as_ref() >= start {
                break;
            }
            self.next();
        }
    }

    fn peek(&mut self) -> Option<&KvEntry> {
        if self.peeked.is_none() {
            self.peeked = self.advance();
        }
        self.peeked.as_ref()
    }

    fn advance(&mut self) -> Option<KvEntry> {
        loop {
            if let Some(e) = self.current.next() {
                return Some(e);
            }
            if !self.refill() {
                return None;
            }
        }
    }
}

impl Iterator for RunIterator {
    type Item = KvEntry;

    fn next(&mut self) -> Option<KvEntry> {
        if let Some(e) = self.peeked.take() {
            return Some(e);
        }
        self.advance()
    }
}

/// A sorted source of entries for merging.
pub(crate) type EntrySource = Box<dyn Iterator<Item = KvEntry>>;

struct HeapItem {
    key: Key,
    seq: u64,
    source: usize,
    entry: KvEntry,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest key first, and for
        // equal keys the *highest* sequence number first (so the winner is
        // popped before its stale duplicates).
        other
            .key
            .cmp(&self.key)
            .then_with(|| self.seq.cmp(&other.seq))
            .then_with(|| other.source.cmp(&self.source))
    }
}

/// Streaming k-way merge over sorted sources with version resolution.
pub(crate) struct MergeIterator {
    heap: BinaryHeap<HeapItem>,
    sources: Vec<EntrySource>,
    drop_tombstones: bool,
    pub(crate) entries_in: u64,
    pub(crate) entries_out: u64,
}

impl MergeIterator {
    pub(crate) fn new(sources: Vec<EntrySource>, drop_tombstones: bool) -> Self {
        let mut m = Self {
            heap: BinaryHeap::with_capacity(sources.len()),
            sources,
            drop_tombstones,
            entries_in: 0,
            entries_out: 0,
        };
        for i in 0..m.sources.len() {
            m.pull(i);
        }
        m
    }

    fn pull(&mut self, source: usize) {
        if let Some(entry) = self.sources[source].next() {
            self.entries_in += 1;
            self.heap.push(HeapItem {
                key: entry.key.clone(),
                seq: entry.seq,
                source,
                entry,
            });
        }
    }
}

impl Iterator for MergeIterator {
    type Item = KvEntry;

    fn next(&mut self) -> Option<KvEntry> {
        loop {
            let top = self.heap.pop()?;
            self.pull(top.source);
            // Discard stale versions of the same key.
            while let Some(peek) = self.heap.peek() {
                if peek.key != top.key {
                    break;
                }
                let stale = self.heap.pop().unwrap();
                self.pull(stale.source);
            }
            if self.drop_tombstones && top.entry.is_tombstone() {
                continue;
            }
            self.entries_out += 1;
            return Some(top.entry);
        }
    }
}

/// The scan the kernel's [`crate::iter::RangeScan`] replaced.
pub(crate) struct RangeScan {
    inner: MergeIterator,
    end: Key,
    remaining: usize,
}

impl RangeScan {
    pub(crate) fn new(sources: Vec<EntrySource>, end: Key, limit: usize) -> Self {
        Self {
            inner: MergeIterator::new(sources, true),
            end,
            remaining: limit,
        }
    }
}

impl Iterator for RangeScan {
    type Item = (Key, Value);

    fn next(&mut self) -> Option<(Key, Value)> {
        if self.remaining == 0 {
            return None;
        }
        let e: KvEntry = self.inner.next()?;
        if e.key >= self.end {
            self.remaining = 0;
            return None;
        }
        self.remaining -= 1;
        Some((e.key, e.value))
    }
}

/// What `RunBuilder::push` + `finish` did to the device: entries packed
/// into one `Vec` per page, the extent allocated once the last page is
/// known, the pages written one call each. `None` for no entries.
pub(crate) fn write_run(
    storage: &dyn Storage,
    entries: impl Iterator<Item = KvEntry>,
) -> Option<Extent> {
    let page_size = storage.page_size();
    let mut pages: Vec<Vec<u8>> = Vec::new();
    let mut current: Vec<u8> = Vec::new();
    for e in entries {
        if !append_entry(&mut current, &e, page_size) {
            assert!(!current.is_empty(), "entry larger than a page");
            pages.push(std::mem::take(&mut current));
            assert!(append_entry(&mut current, &e, page_size));
        }
    }
    if !current.is_empty() {
        pages.push(current);
    }
    if pages.is_empty() {
        return None;
    }
    let extent = storage.allocate(pages.len() as u32);
    for (i, page) in pages.iter().enumerate() {
        storage.write_page(extent, i as u32, page);
    }
    Some(extent)
}

mod tests;
