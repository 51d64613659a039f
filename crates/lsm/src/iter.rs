//! Streaming range scans.

use crate::compaction::{Merge, Source};
use crate::types::{Key, Value};

/// A streaming, merged, version-resolved range scan over `[start, end)`.
///
/// Runs the merge kernel ([`Merge`]) over per-run cursors and the
/// memtable, excluding tombstoned keys and stopping at the end bound. A
/// returned row's key and value are slices of the page (or clones of the
/// memtable's handles) the winning source holds: nothing is copied, and
/// nothing is sliced for a row the scan does not return. Collected by
/// [`crate::FlsmTree::scan`].
pub(crate) struct RangeScan<'a> {
    merge: Merge<'a>,
    end: &'a [u8],
    remaining: usize,
}

impl<'a> RangeScan<'a> {
    /// Builds a scan from pre-seeked sorted sources.
    pub(crate) fn new(sources: Vec<Source<'a>>, end: &'a [u8], limit: usize) -> Self {
        Self {
            merge: Merge::new(sources, true),
            end,
            remaining: limit,
        }
    }
}

impl Iterator for RangeScan<'_> {
    type Item = (Key, Value);

    fn next(&mut self) -> Option<(Key, Value)> {
        if self.remaining == 0 {
            return None;
        }
        let end = self.end;
        let row = self
            .merge
            .next_with(|src| src.entry().filter(|e| e.key < end).and_then(|_| src.row()))
            .flatten();
        self.remaining = if row.is_some() { self.remaining - 1 } else { 0 };
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryBuf;
    use crate::types::KvEntry;
    use bytes::Bytes;

    fn e(k: &str, v: &str, seq: u64) -> KvEntry {
        KvEntry::put(
            Bytes::copy_from_slice(k.as_bytes()),
            Bytes::copy_from_slice(v.as_bytes()),
            seq,
        )
    }

    fn buf(entries: &[KvEntry]) -> EntryBuf {
        let mut buf = EntryBuf::default();
        entries.iter().for_each(|e| buf.push(e.borrowed()));
        buf
    }

    #[test]
    fn scan_stops_at_end_and_limit() {
        let src = buf(&[
            e("a", "1", 1),
            e("b", "2", 2),
            e("c", "3", 3),
            e("d", "4", 4),
        ]);
        let got: Vec<_> = RangeScan::new(vec![Source::Buf(src.cursor())], b"d", 10).collect();
        assert_eq!(got.len(), 3);
        let got: Vec<_> = RangeScan::new(vec![Source::Buf(src.cursor())], b"zzz", 2).collect();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn scan_skips_tombstones() {
        let newer = buf(&[KvEntry::delete(Bytes::from_static(b"b"), 10)]);
        let older = buf(&[e("a", "1", 1), e("b", "2", 2)]);
        let sources = vec![Source::Buf(newer.cursor()), Source::Buf(older.cursor())];
        let got: Vec<_> = RangeScan::new(sources, b"zzz", 10).collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0.as_ref(), b"a");
    }
}
