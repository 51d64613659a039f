//! The in-memory write buffer.
//!
//! New writes land here; when the buffer's logical size reaches the
//! configured capacity, the engine sorts (implicit: the map is ordered) and
//! flushes the contents as a sorted run into Level 1 (paper §2).

use std::collections::btree_map::{BTreeMap, Range};
use std::ops::Bound;

use crate::types::{EntryRef, Key, KvEntry, OpKind, SeqNo, Value};

/// Value slot stored per key in the buffer.
#[derive(Debug, Clone)]
struct Slot {
    value: Value,
    seq: SeqNo,
    kind: OpKind,
}

/// A sorted in-memory write buffer with logical-size accounting.
#[derive(Debug, Default)]
pub struct Memtable {
    map: BTreeMap<Key, Slot>,
    bytes: u64,
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a put or tombstone, replacing any previous version of the key.
    pub fn insert(&mut self, entry: KvEntry) {
        let size = entry.encoded_size() as u64;
        let KvEntry {
            key,
            value,
            seq,
            kind,
        } = entry;
        if let Some(old) = self.map.insert(key.clone(), Slot { value, seq, kind }) {
            let old_size = (crate::entry::ENTRY_HEADER_BYTES + key.len() + old.value.len()) as u64;
            self.bytes = self.bytes - old_size + size;
        } else {
            self.bytes += size;
        }
    }

    /// Looks up the latest version of `key`, if buffered.
    pub fn get(&self, key: &[u8]) -> Option<KvEntry> {
        self.map.get(key).map(|slot| KvEntry {
            key: Key::copy_from_slice(key),
            value: slot.value.clone(),
            seq: slot.seq,
            kind: slot.kind,
        })
    }

    /// What a point lookup needs of [`Memtable::get`], without building
    /// an entry: `None` if the key is not buffered, `Some(None)` if its
    /// latest version is a tombstone, `Some(Some(value))` otherwise.
    pub(crate) fn lookup(&self, key: &[u8]) -> Option<Option<&Value>> {
        self.map
            .get(key)
            .map(|slot| (slot.kind == OpKind::Put).then_some(&slot.value))
    }

    /// Logical size in bytes (sum of encoded entry sizes).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of distinct buffered keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// A cursor over every buffered entry in ascending key order — what a
    /// flush merges into Level 1.
    pub fn cursor(&self) -> MemCursor<'_> {
        MemCursor::new(self.map.range::<[u8], _>(..))
    }

    /// A cursor over the buffered entries with keys in `[start, end)`. It
    /// walks the map as it is advanced; nothing is copied up front.
    pub fn range(&self, start: &[u8], end: &[u8]) -> MemCursor<'_> {
        let bounds = (Bound::Included(start), Bound::Excluded(end));
        MemCursor::new(self.map.range::<[u8], _>(bounds))
    }
}

/// A lazy cursor over a key range of a [`Memtable`]: on one entry at a
/// time, borrowed from the map.
#[derive(Debug)]
pub struct MemCursor<'a> {
    current: Option<(&'a Key, &'a Slot)>,
    rest: Range<'a, Key, Slot>,
}

impl<'a> MemCursor<'a> {
    fn new(mut rest: Range<'a, Key, Slot>) -> Self {
        Self {
            current: rest.next(),
            rest,
        }
    }

    /// The entry the cursor is on, or `None` once past the range.
    pub fn entry(&self) -> Option<EntryRef<'a>> {
        self.current.map(|(key, slot)| EntryRef {
            key,
            value: &slot.value,
            seq: slot.seq,
            kind: slot.kind,
        })
    }

    /// Key and value of the current entry as shared handles.
    pub fn row(&self) -> Option<(Key, Value)> {
        self.current
            .map(|(key, slot)| (key.clone(), slot.value.clone()))
    }

    /// Moves to the next entry of the range.
    pub fn advance(&mut self) {
        self.current = self.rest.next();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn put(k: &str, v: &str, seq: u64) -> KvEntry {
        KvEntry::put(
            Bytes::copy_from_slice(k.as_bytes()),
            Bytes::copy_from_slice(v.as_bytes()),
            seq,
        )
    }

    #[test]
    fn insert_get_overwrite() {
        let mut m = Memtable::new();
        m.insert(put("a", "1", 1));
        m.insert(put("a", "two", 2));
        let got = m.get(b"a").unwrap();
        assert_eq!(got.value.as_ref(), b"two");
        assert_eq!(got.seq, 2);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn size_accounting_tracks_overwrites() {
        let mut m = Memtable::new();
        m.insert(put("key", "aa", 1));
        let s1 = m.bytes();
        m.insert(put("key", "aaaa", 2)); // value grew by 2
        assert_eq!(m.bytes(), s1 + 2);
        m.insert(put("key", "", 3));
        assert_eq!(m.bytes(), s1 - 2);
    }

    #[test]
    fn tombstones_are_stored() {
        let mut m = Memtable::new();
        m.insert(put("a", "1", 1));
        m.insert(KvEntry::delete(Bytes::from_static(b"a"), 2));
        let got = m.get(b"a").unwrap();
        assert!(got.is_tombstone());
    }

    fn keys(mut c: MemCursor<'_>) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(e) = c.entry() {
            assert_eq!(c.row().unwrap().0.as_ref(), e.key);
            out.push(e.key.to_vec());
            c.advance();
        }
        out
    }

    #[test]
    fn cursor_is_sorted() {
        let mut m = Memtable::new();
        for (i, k) in ["mango", "apple", "zebra"].iter().enumerate() {
            m.insert(put(k, "v", i as u64));
        }
        assert_eq!(keys(m.cursor()), [&b"apple"[..], b"mango", b"zebra"]);
        assert!(keys(Memtable::new().cursor()).is_empty());
    }

    #[test]
    fn range_bounds_are_half_open() {
        let mut m = Memtable::new();
        for k in ["a", "b", "c", "d"] {
            m.insert(put(k, "v", 1));
        }
        assert_eq!(keys(m.range(b"b", b"d")), [b"b", b"c"]);
        assert!(keys(m.range(b"x", b"z")).is_empty());
    }

    #[test]
    fn lookup_tells_tombstone_from_absent() {
        let mut m = Memtable::new();
        m.insert(put("a", "1", 1));
        m.insert(KvEntry::delete(Bytes::from_static(b"b"), 2));
        assert_eq!(m.lookup(b"a").unwrap().unwrap().as_ref(), b"1");
        assert_eq!(m.lookup(b"b"), Some(None));
        assert_eq!(m.lookup(b"c"), None);
    }
}
