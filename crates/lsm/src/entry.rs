//! On-page encoding of entries, and the one cursor that reads it in place.
//!
//! A page is laid out as:
//!
//! ```text
//! [n_entries: u16] [entry]*
//! entry = [klen: u16] [vlen: u32] [seq: u64] [kind: u8] [key bytes] [value bytes]
//! ```
//!
//! Entries never span pages (the engine enforces `encoded_size <= page
//! capacity`), matching how fence pointers guarantee `O(1)` page reads per
//! run probe in the paper's model.
//!
//! [`EntryCursor`] walks such a sequence without decoding it into owned
//! entries: it sits on one entry at a time and hands out its key and value
//! as slices of the buffer underneath, which is a shared page handle for a
//! run's pages and a plain byte slice for an [`EntryBuf`], the in-memory
//! form a merge's output takes between the step that builds it and the
//! step that admits it. Every header is bounds- and kind-checked as the
//! cursor reaches it, so a damaged page is a typed [`CorruptPage`], never
//! an out-of-bounds index.

use std::ops::Deref;

use bytes::Bytes;

use crate::types::{EntryRef, Key, OpKind, SeqNo, Value};

/// Fixed per-entry header size: klen (2) + vlen (4) + seq (8) + kind (1).
pub const ENTRY_HEADER_BYTES: usize = 2 + 4 + 8 + 1;

/// Fixed per-page header size: entry count (2).
pub const PAGE_HEADER_BYTES: usize = 2;

/// Appends the encoding of `e` to `out`.
pub(crate) fn encode_entry(out: &mut Vec<u8>, e: EntryRef<'_>) {
    let mut header = [0u8; ENTRY_HEADER_BYTES];
    header[0..2].copy_from_slice(&(e.key.len() as u16).to_le_bytes());
    header[2..6].copy_from_slice(&(e.value.len() as u32).to_le_bytes());
    header[6..14].copy_from_slice(&e.seq.to_le_bytes());
    header[14] = e.kind.to_byte();
    out.reserve(e.encoded_size());
    out.extend_from_slice(&header);
    out.extend_from_slice(e.key);
    out.extend_from_slice(e.value);
}

/// Page contents that do not parse: where, and what was wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptPage {
    /// Byte offset of the entry header that failed its check.
    pub offset: usize,
    /// Which check failed.
    pub what: &'static str,
}

impl std::fmt::Display for CorruptPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.what, self.offset)
    }
}

/// An in-place cursor over encoded entries held in `B`. It is either *on*
/// an entry (`EntryCursor::entry` is `Some`) or exhausted.
#[derive(Debug, Clone)]
pub struct EntryCursor<B> {
    buf: B,
    /// Entries after the current one.
    remaining: u32,
    /// Offset of the current entry's key; its value follows the key.
    key_off: usize,
    /// Offset one past the current entry: the next entry's header.
    next: usize,
    klen: u16,
    seq: SeqNo,
    kind: OpKind,
    on_entry: bool,
}

impl<B: Deref<Target = [u8]>> EntryCursor<B> {
    /// A cursor on the first entry of an encoded page. A page too short to
    /// hold its count is an empty page (a never-written tail).
    pub(crate) fn page(page: B) -> Result<Self, CorruptPage> {
        let count = match page.get(..PAGE_HEADER_BYTES) {
            Some(n) => u16::from_le_bytes([n[0], n[1]]) as u32,
            None => 0,
        };
        Self::entries(page, PAGE_HEADER_BYTES, count)
    }

    /// A cursor on the first of `count` entries encoded from byte `start`.
    pub(crate) fn entries(buf: B, start: usize, count: u32) -> Result<Self, CorruptPage> {
        let mut cursor = Self {
            buf,
            remaining: count,
            key_off: start,
            next: start,
            klen: 0,
            seq: 0,
            kind: OpKind::Put,
            on_entry: false,
        };
        cursor.advance()?;
        Ok(cursor)
    }

    /// Moves to the next entry, or exhausts the cursor after the last one.
    /// On an error the cursor is left exhausted.
    pub(crate) fn advance(&mut self) -> Result<(), CorruptPage> {
        self.on_entry = false;
        if self.remaining == 0 {
            return Ok(());
        }
        let corrupt = |what| CorruptPage {
            offset: self.next,
            what,
        };
        let key_off = self.next + ENTRY_HEADER_BYTES;
        let h = self
            .buf
            .get(self.next..key_off)
            .ok_or_else(|| corrupt("entry header past the end of the page"))?;
        let klen = u16::from_le_bytes([h[0], h[1]]);
        let vlen = u32::from_le_bytes([h[2], h[3], h[4], h[5]]);
        let kind = OpKind::from_byte(h[14]).ok_or_else(|| corrupt("unknown entry kind"))?;
        let end = key_off + klen as usize + vlen as usize;
        if end > self.buf.len() {
            return Err(corrupt("entry runs past the end of the page"));
        }
        self.seq = u64::from_le_bytes(h[6..14].try_into().expect("8 header bytes"));
        (self.klen, self.kind) = (klen, kind);
        (self.key_off, self.next) = (key_off, end);
        self.remaining -= 1;
        self.on_entry = true;
        Ok(())
    }

    /// The entry the cursor is on, borrowed from the buffer.
    pub(crate) fn entry(&self) -> Option<EntryRef<'_>> {
        self.on_entry.then(|| {
            let (key, value) = self.buf[self.key_off..self.next].split_at(self.klen as usize);
            EntryRef {
                key,
                value,
                seq: self.seq,
                kind: self.kind,
            }
        })
    }
}

impl EntryCursor<Bytes> {
    /// Key and value of the current entry as slices *of the page handle*:
    /// no bytes are copied, and the pair keeps the whole page alive — for
    /// rows handed to a caller, never for anything the engine retains.
    pub(crate) fn row(&self) -> Option<(Key, Value)> {
        self.on_entry.then(|| {
            let value_off = self.key_off + self.klen as usize;
            (
                self.buf.slice(self.key_off..value_off),
                self.buf.slice(value_off..self.next),
            )
        })
    }
}

/// Entries encoded back to back in ascending key order, without page
/// framing: what a merge emits when its output is admitted by a later
/// step, so no entry is held as an owned, reference-counted pair meanwhile.
#[derive(Debug, Default)]
pub struct EntryBuf {
    bytes: Vec<u8>,
    entries: u32,
}

impl EntryBuf {
    /// Appends one entry.
    pub fn push(&mut self, e: EntryRef<'_>) {
        encode_entry(&mut self.bytes, e);
        self.entries += 1;
    }

    /// A cursor on the first entry.
    pub fn cursor(&self) -> EntryCursor<&[u8]> {
        EntryCursor::entries(self.bytes.as_slice(), 0, self.entries)
            .expect("an EntryBuf holds what it encoded")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::KvEntry;

    fn entry(k: &str, v: &str, seq: u64) -> KvEntry {
        KvEntry::put(
            Bytes::copy_from_slice(k.as_bytes()),
            Bytes::copy_from_slice(v.as_bytes()),
            seq,
        )
    }

    fn page_of(entries: &[KvEntry]) -> Vec<u8> {
        let mut page = (entries.len() as u16).to_le_bytes().to_vec();
        for e in entries {
            encode_entry(&mut page, e.borrowed());
        }
        page
    }

    fn collect<B: Deref<Target = [u8]>>(mut c: EntryCursor<B>) -> Vec<KvEntry> {
        let mut out = Vec::new();
        while let Some(e) = c.entry() {
            out.push(e.to_owned());
            c.advance().unwrap();
        }
        out
    }

    #[test]
    fn page_roundtrips_puts_and_tombstones() {
        let entries = vec![
            entry("a", "1", 1),
            KvEntry::delete(Bytes::from_static(b"b"), 9),
            entry("c", "333", 3),
        ];
        let page = page_of(&entries);
        assert_eq!(
            collect(EntryCursor::page(page.as_slice()).unwrap()),
            entries
        );
        assert_eq!(
            collect(EntryCursor::page(Bytes::from(page)).unwrap()),
            entries
        );
    }

    #[test]
    fn short_and_empty_pages_hold_nothing() {
        assert!(EntryCursor::page(&[][..]).unwrap().entry().is_none());
        assert!(EntryCursor::page(&[0u8][..]).unwrap().entry().is_none());
        assert!(EntryCursor::page(&[0u8, 0][..]).unwrap().entry().is_none());
    }

    #[test]
    fn rows_are_slices_of_the_page() {
        let page = Bytes::from(page_of(&[entry("key", "value", 7)]));
        let (k, v) = EntryCursor::page(page).unwrap().row().unwrap();
        assert_eq!(k.as_ref(), b"key");
        assert_eq!(v.as_ref(), b"value");
    }

    #[test]
    fn entry_buf_roundtrips() {
        let entries = vec![entry("a", "1", 1), entry("b", "", 2)];
        let mut buf = EntryBuf::default();
        assert!(buf.cursor().entry().is_none());
        for e in &entries {
            buf.push(e.borrowed());
        }
        assert_eq!(collect(buf.cursor()), entries);
    }

    /// Every way a header can lie is a typed error at the entry that lies,
    /// and the cursor stays exhausted afterwards.
    #[test]
    fn damaged_headers_are_typed_errors() {
        let good = page_of(&[entry("apple", "1", 1), entry("mango", "2", 2)]);
        let second = PAGE_HEADER_BYTES + ENTRY_HEADER_BYTES + 5 + 1;
        let damage: [(usize, u8, &str); 4] = [
            (second + 14, 7, "unknown entry kind"),
            (second + 1, 0xff, "entry runs past the end of the page"),
            (second + 5, 0x7f, "entry runs past the end of the page"),
            (0, 3, "entry header past the end of the page"),
        ];
        for (at, byte, what) in damage {
            let mut page = good.clone();
            page[at] = byte;
            let mut c = EntryCursor::page(page.as_slice()).unwrap();
            let err = loop {
                match c.advance() {
                    Ok(()) if c.entry().is_some() => {}
                    Ok(()) => panic!("damage at {at} went unnoticed"),
                    Err(e) => break e,
                }
            };
            assert_eq!(err.what, what, "damage at byte {at}");
            assert!(c.entry().is_none());
        }
        // A damaged first entry fails the constructor itself.
        let mut page = good;
        page[PAGE_HEADER_BYTES + 14] = 9;
        assert!(EntryCursor::page(page.as_slice()).is_err());
    }
}
