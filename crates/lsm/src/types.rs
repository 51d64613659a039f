//! Core key-value types shared across the engine.

use bytes::Bytes;

/// A user key. Keys are arbitrary byte strings ordered lexicographically;
/// the workload generators encode integer keys big-endian so lexicographic
/// and numeric order coincide.
pub type Key = Bytes;

/// A user value (opaque bytes).
pub type Value = Bytes;

/// The first sixteen bytes of `key` as a big-endian number, zero-padded.
/// Where two prefixes differ they order as the keys do; equal prefixes
/// leave the order to the full keys (`"a"` and `"a\0"` pad alike).
pub(crate) fn key_prefix(key: &[u8]) -> u128 {
    let mut prefix = [0u8; 16];
    let n = key.len().min(16);
    prefix[..n].copy_from_slice(&key[..n]);
    u128::from_be_bytes(prefix)
}

/// Monotonically increasing sequence number assigned to every write.
/// Between two entries for the same key, the higher sequence number wins.
pub type SeqNo = u64;

/// The kind of a logical write operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Insert or overwrite a key.
    Put,
    /// Delete a key (a *tombstone*; physically removed at the bottom level).
    Delete,
}

impl OpKind {
    /// Single-byte wire encoding.
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            OpKind::Put => 0,
            OpKind::Delete => 1,
        }
    }

    /// Decodes the wire byte; returns `None` for unknown values.
    pub(crate) fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(OpKind::Put),
            1 => Some(OpKind::Delete),
            _ => None,
        }
    }
}

/// An internal key-value entry: a user key plus the versioning metadata the
/// engine needs to resolve overwrites and deletes during merges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvEntry {
    /// User key.
    pub key: Key,
    /// User value; empty for tombstones.
    pub value: Value,
    /// Sequence number of the write that produced this entry.
    pub seq: SeqNo,
    /// Put or Delete.
    pub kind: OpKind,
}

impl KvEntry {
    /// Creates a put entry.
    pub fn put(key: impl Into<Key>, value: impl Into<Value>, seq: SeqNo) -> Self {
        Self {
            key: key.into(),
            value: value.into(),
            seq,
            kind: OpKind::Put,
        }
    }

    /// Creates a tombstone entry.
    pub fn delete(key: impl Into<Key>, seq: SeqNo) -> Self {
        Self {
            key: key.into(),
            value: Bytes::new(),
            seq,
            kind: OpKind::Delete,
        }
    }

    /// True if this entry is a tombstone.
    pub fn is_tombstone(&self) -> bool {
        self.kind == OpKind::Delete
    }

    /// The logical (encoded) size of the entry in bytes, used for all
    /// capacity accounting (`E` in the paper's notation is the typical value
    /// of this for fixed-size workloads).
    pub fn encoded_size(&self) -> usize {
        self.borrowed().encoded_size()
    }

    /// The entry as a borrowed view.
    pub fn borrowed(&self) -> EntryRef<'_> {
        EntryRef {
            key: &self.key,
            value: &self.value,
            seq: self.seq,
            kind: self.kind,
        }
    }
}

/// A borrowed view of one entry: what a cursor over a page, a merge batch
/// or the memtable yields, and what a run builder consumes. Nothing is
/// copied or reference-counted until a consumer asks for owned bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef<'a> {
    /// User key.
    pub key: &'a [u8],
    /// User value; empty for tombstones.
    pub value: &'a [u8],
    /// Sequence number of the write that produced this entry.
    pub seq: SeqNo,
    /// Put or Delete.
    pub kind: OpKind,
}

impl EntryRef<'_> {
    /// True if this entry is a tombstone.
    pub(crate) fn is_tombstone(&self) -> bool {
        self.kind == OpKind::Delete
    }

    /// See [`KvEntry::encoded_size`].
    pub(crate) fn encoded_size(&self) -> usize {
        crate::entry::ENTRY_HEADER_BYTES + self.key.len() + self.value.len()
    }

    /// An owned copy: key and value each in an allocation of exactly their
    /// size.
    pub fn to_owned(&self) -> KvEntry {
        KvEntry {
            key: Key::copy_from_slice(self.key),
            value: Value::copy_from_slice(self.value),
            seq: self.seq,
            kind: self.kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opkind_roundtrip() {
        for k in [OpKind::Put, OpKind::Delete] {
            assert_eq!(OpKind::from_byte(k.to_byte()), Some(k));
        }
        assert_eq!(OpKind::from_byte(9), None);
    }

    #[test]
    fn tombstone_has_empty_value() {
        let e = KvEntry::delete(Bytes::from_static(b"k"), 7);
        assert!(e.is_tombstone());
        assert!(e.value.is_empty());
        assert_eq!(e.seq, 7);
    }

    #[test]
    fn encoded_size_counts_header_and_payload() {
        let e = KvEntry::put(Bytes::from_static(b"key"), Bytes::from_static(b"value"), 1);
        assert_eq!(e.encoded_size(), crate::entry::ENTRY_HEADER_BYTES + 3 + 5);
    }
}
