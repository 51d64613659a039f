//! Fence pointers: the in-memory first-key index of a run's pages.
//!
//! With fence pointers, probing a run for a key requires at most one page
//! read (paper §2): a binary search over the first keys locates the unique
//! page that could contain the key. The search walks one contiguous array
//! of the first keys' sixteen-byte prefixes (big-endian, zero-padded) and
//! touches a full key only where its prefix ties the probe's.

use crate::types::{key_prefix, Key};

/// First-key-per-page index for one sorted run.
#[derive(Debug, Clone, Default)]
pub struct FencePointers {
    /// `key_prefix` of each first key, in page order.
    prefixes: Vec<u128>,
    first_keys: Vec<Key>,
}

impl FencePointers {
    /// Builds fence pointers from the first key of each page, in page order.
    pub fn new(first_keys: Vec<Key>) -> Self {
        debug_assert!(
            first_keys.windows(2).all(|w| w[0] <= w[1]),
            "pages must be sorted"
        );
        let prefixes = first_keys.iter().map(|k| key_prefix(k)).collect();
        Self {
            prefixes,
            first_keys,
        }
    }

    /// The unique page that may contain `key`, or `None` if `key` sorts
    /// before the first page.
    pub fn locate(&self, key: &[u8]) -> Option<u32> {
        self.locate_prefixed(key, key_prefix(key))
    }

    /// [`FencePointers::locate`] for a key whose `key_prefix` the caller
    /// already holds.
    pub(crate) fn locate_prefixed(&self, key: &[u8], prefix: u128) -> Option<u32> {
        // Pages from `end` on start past `key`: their prefix is larger.
        let end = self.prefixes.partition_point(|&p| p <= prefix);
        // The pages whose prefix ties `key`'s end at `end`; among them the
        // full keys decide ("a" < "a\0", though both pad to one prefix).
        let after = match end.checked_sub(1) {
            Some(last) if self.prefixes[last] == prefix => {
                let ties = self.prefixes[..end].partition_point(|&p| p < prefix);
                ties + self.first_keys[ties..end].partition_point(|fk| fk.as_ref() <= key)
            }
            _ => end,
        };
        after.checked_sub(1).map(|i| i as u32)
    }

    /// The first page whose content may include keys `>= key` (for seeking a
    /// range scan): the page that could contain `key`, page 0 if `key`
    /// sorts before every page (or there are none), and the last page if
    /// every page starts at or before `key`.
    pub(crate) fn seek_page(&self, key: &[u8]) -> u32 {
        self.locate(key).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    impl FencePointers {
        /// Number of pages indexed.
        fn page_count(&self) -> usize {
            self.first_keys.len()
        }

        /// In-memory footprint in bytes: the keys plus a 16-byte prefix per
        /// page (ignoring Vec overhead).
        pub(crate) fn memory_bytes(&self) -> usize {
            self.first_keys.iter().map(|k| k.len()).sum::<usize>()
                + self.prefixes.len() * std::mem::size_of::<u128>()
        }
    }

    fn fences(keys: &[&str]) -> FencePointers {
        FencePointers::new(
            keys.iter()
                .map(|k| Bytes::copy_from_slice(k.as_bytes()))
                .collect(),
        )
    }

    /// The full-key search the prefix array replaced: the reference
    /// `locate` must equal on every key.
    fn reference_locate(first_keys: &[Key], key: &[u8]) -> Option<u32> {
        let idx = first_keys.partition_point(|fk| fk.as_ref() <= key);
        idx.checked_sub(1).map(|i| i as u32)
    }

    #[test]
    fn locate_exact_and_between() {
        let f = fences(&["b", "f", "m"]);
        assert_eq!(f.locate(b"b"), Some(0));
        assert_eq!(f.locate(b"c"), Some(0));
        assert_eq!(f.locate(b"f"), Some(1));
        assert_eq!(f.locate(b"g"), Some(1));
        assert_eq!(f.locate(b"m"), Some(2));
        assert_eq!(f.locate(b"zzz"), Some(2));
    }

    #[test]
    fn locate_before_first_is_none() {
        let f = fences(&["b", "f"]);
        assert_eq!(f.locate(b"a"), None);
    }

    /// Keys that pad to one prefix are told apart by their full bytes.
    #[test]
    fn prefix_ties_fall_back_to_the_keys() {
        let f = fences(&["a", "a\0", "a\0\0"]);
        assert_eq!(f.locate(b""), None);
        assert_eq!(f.locate(b"a"), Some(0));
        assert_eq!(f.locate(b"a\0"), Some(1));
        assert_eq!(f.locate(b"a\0\0\0"), Some(2));
        assert_eq!(f.locate(b"a\x01"), Some(2));
        let g = fences(&["a\0"]);
        assert_eq!(g.locate(b"a"), None);
    }

    #[test]
    fn seek_clamps_to_first_page() {
        let f = fences(&["b", "f"]);
        assert_eq!(f.seek_page(b"a"), 0);
        assert_eq!(f.seek_page(b"c"), 0);
        assert_eq!(f.seek_page(b"q"), 1);
    }

    /// Past every page the seek names the last one, never `page_count()`:
    /// `Run::cursor_from` opens a cursor on the page it returns.
    #[test]
    fn seek_past_every_page_is_the_last_page() {
        let f = fences(&["b", "f", "m"]);
        assert_eq!(f.seek_page(b"zzz"), f.page_count() as u32 - 1);
    }

    #[test]
    fn memory_counts_keys_and_prefixes() {
        let f = fences(&["b", "ff", "mmm"]);
        assert_eq!(f.memory_bytes(), 6 + 3 * 16);
    }

    #[test]
    fn empty_fences() {
        let f = FencePointers::default();
        assert_eq!(f.page_count(), 0);
        assert_eq!(f.locate(b"x"), None);
        assert_eq!(f.seek_page(b"x"), 0);
        assert_eq!(f.memory_bytes(), 0);
    }

    /// A key of 0–24 bytes from a small alphabet: a head byte, then zeros,
    /// then an optional tail byte. Many keys share their first sixteen
    /// bytes, differ only past them, or differ only in trailing zeros
    /// (`"a"` / `"a\0"`, `""` / `"\0"`), every way two keys tie on a
    /// prefix. Head 3 stands for the empty key.
    fn spec_key((head, zeros, tail): (u8, usize, u8)) -> Key {
        if head == 3 {
            return Bytes::new();
        }
        let mut key = vec![head];
        key.resize(1 + zeros, 0);
        if tail > 0 {
            key.push(tail);
        }
        key.truncate(24);
        Bytes::from(key)
    }

    fn key_spec() -> impl Strategy<Value = (u8, usize, u8)> {
        (0u8..4, 0usize..24, 0u8..3)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// `locate` and `seek_page` equal the full-key `partition_point` on
        /// every fence key, on every probe key (between, before or after
        /// them), just past each, and on the empty and an all-`0xff` key.
        #[test]
        fn prefix_search_equals_the_full_key_search(
            first in prop::collection::vec(key_spec(), 0..40),
            probes in prop::collection::vec(key_spec(), 0..40),
        ) {
            let mut first_keys: Vec<Key> = first.into_iter().map(spec_key).collect();
            first_keys.sort();
            let f = FencePointers::new(first_keys.clone());
            let mut keys: Vec<Key> = probes.into_iter().map(spec_key).collect();
            keys.extend(first_keys.iter().cloned());
            let past: Vec<Key> = keys
                .iter()
                .map(|k| Bytes::from([k.as_ref(), &[0]].concat()))
                .collect();
            keys.extend(past);
            keys.push(Bytes::new());
            keys.push(Bytes::from(vec![0xff; 25]));
            for key in &keys {
                let want = reference_locate(&first_keys, key);
                prop_assert_eq!(f.locate(key), want);
                prop_assert_eq!(f.seek_page(key), want.unwrap_or(0));
            }
        }
    }
}
