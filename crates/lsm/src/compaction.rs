//! K-way merging of sorted entry sources: the one merge kernel.
//!
//! Compaction sort-merges multiple sorted runs into one, keeping only the
//! newest version (highest sequence number) of each key, and physically
//! dropping tombstones when the merge output lands in the tree's bottom
//! level (below which no older version can exist). A flush, a merge-down,
//! a policy-transition merge and a range scan are all this merge over
//! different [`Source`]s with a different consumer at the end.
//!
//! The kernel never owns an entry. Each source is a cursor sitting on its
//! current entry; a binary heap of source *indices* orders them by
//! comparing the keys where they lie (a page handle, a merge batch, the
//! memtable), each index carrying its key's first sixteen bytes so that a
//! comparison rarely has to look. A step picks the winning source, lets
//! the consumer copy what it wants out of the winner while it is still in
//! place, and only then advances the sources the step consumed — the
//! winner first, then every source holding an older version of the same
//! key, newest first. That order is part of the contract: advancing a run
//! cursor past the end of a page reads the next page, and the block
//! cache's recency state is counted, so pages are touched in exactly the
//! order the engine has always touched them. Two sources are the same
//! heap with one comparison a step.

use std::cmp::Ordering;

use crate::entry::EntryCursor;
use crate::memtable::MemCursor;
use crate::run::RunCursor;
use crate::types::{key_prefix, EntryRef, Key, Value};

/// A sorted source of entries for merging: a cursor on its current entry.
pub enum Source<'a> {
    /// A run's pages, read as the cursor reaches them.
    Run(RunCursor<'a>),
    /// The output of an earlier merge.
    Buf(EntryCursor<&'a [u8]>),
    /// A key range of the memtable.
    Mem(MemCursor<'a>),
}

impl Source<'_> {
    /// The entry the source is on, or `None` once it is exhausted.
    pub fn entry(&self) -> Option<EntryRef<'_>> {
        match self {
            Source::Run(c) => c.entry(),
            Source::Buf(c) => c.entry(),
            Source::Mem(c) => c.entry(),
        }
    }

    /// Key and value of the current entry as owned handles, sharing the
    /// source's storage where it has any (a page handle, the memtable's
    /// own handles).
    pub fn row(&self) -> Option<(Key, Value)> {
        match self {
            Source::Run(c) => c.row(),
            Source::Buf(c) => c
                .entry()
                .map(|e| (Key::copy_from_slice(e.key), Value::copy_from_slice(e.value))),
            Source::Mem(c) => c.row(),
        }
    }

    fn advance(&mut self) {
        match self {
            Source::Run(c) => c.advance(),
            Source::Buf(c) => c.advance().expect("an EntryBuf holds what it encoded"),
            Source::Mem(c) => c.advance(),
        }
    }
}

/// A live source as the heap holds it: its index, and the [`key_prefix`]
/// of its current key. Where two prefixes differ they order as the keys
/// do, so most comparisons are decided here without touching a source; a
/// tie falls back to the keys.
#[derive(Debug, Clone, Copy)]
struct Head {
    prefix: u128,
    source: usize,
}

impl Head {
    fn of(sources: &[Source<'_>], source: usize) -> Option<Self> {
        Some(Head {
            prefix: key_prefix(sources[source].entry()?.key),
            source,
        })
    }

    fn same_key(self, other: Head, sources: &[Source<'_>]) -> bool {
        self.prefix == other.prefix && live(sources, self).key == live(sources, other).key
    }

    /// Whether this head leaves the heap before `other`: the smaller key
    /// first; among versions of one key the newest first, so the winner
    /// is met before the versions it shadows; then the lower index.
    fn pops_before(self, other: Head, sources: &[Source<'_>]) -> bool {
        self.prefix.cmp(&other.prefix).then_with(|| {
            let (a, b) = (live(sources, self), live(sources, other));
            a.key
                .cmp(b.key)
                .then_with(|| b.seq.cmp(&a.seq))
                .then_with(|| self.source.cmp(&other.source))
        }) == Ordering::Less
    }
}

fn live<'s>(sources: &'s [Source<'_>], head: Head) -> EntryRef<'s> {
    sources[head.source]
        .entry()
        .expect("the heap holds live sources")
}

fn sift_down(heap: &mut [Head], sources: &[Source<'_>], mut at: usize) {
    loop {
        let left = 2 * at + 1;
        if left >= heap.len() {
            return;
        }
        let right = left + 1;
        let child = if right < heap.len() && heap[right].pops_before(heap[left], sources) {
            right
        } else {
            left
        };
        if !heap[child].pops_before(heap[at], sources) {
            return;
        }
        heap.swap(at, child);
        at = child;
    }
}

fn push(heap: &mut Vec<Head>, sources: &[Source<'_>], head: Head) {
    heap.push(head);
    let mut at = heap.len() - 1;
    while at > 0 {
        let parent = (at - 1) / 2;
        if !heap[at].pops_before(heap[parent], sources) {
            return;
        }
        heap.swap(at, parent);
        at = parent;
    }
}

/// Streaming k-way merge over sorted sources with version resolution.
pub struct Merge<'a> {
    sources: Vec<Source<'a>>,
    /// Min-heap (by [`Head::pops_before`]) of the sources still on an entry.
    heap: Vec<Head>,
    /// The sources the step in progress consumes, in advancing order.
    consumed: Vec<usize>,
    drop_tombstones: bool,
    /// Number of input entries consumed (for `c_w` CPU accounting).
    pub entries_in: u64,
    /// Number of entries emitted.
    pub entries_out: u64,
}

impl<'a> Merge<'a> {
    /// Creates a merge over `sources`; each must yield strictly ascending
    /// keys. If `drop_tombstones` is set, delete markers are elided from the
    /// output (only valid when merging into the bottom level).
    pub fn new(sources: Vec<Source<'a>>, drop_tombstones: bool) -> Self {
        let mut heap = Vec::with_capacity(sources.len());
        for i in 0..sources.len() {
            if let Some(head) = Head::of(&sources, i) {
                push(&mut heap, &sources, head);
            }
        }
        Self {
            entries_in: heap.len() as u64,
            entries_out: 0,
            consumed: Vec::with_capacity(sources.len()),
            sources,
            heap,
            drop_tombstones,
        }
    }

    /// Advances source `i`; its new head if it is on another entry.
    fn pull(&mut self, i: usize) -> Option<Head> {
        self.sources[i].advance();
        let head = Head::of(&self.sources, i);
        self.entries_in += u64::from(head.is_some());
        head
    }

    /// One merge step: finds the next surviving entry, hands the source
    /// that holds it to `take` while the entry is still in place, then
    /// advances every source the step consumed. `None` once all sources
    /// are exhausted.
    pub fn next_with<R>(&mut self, mut take: impl FnMut(&Source<'a>) -> R) -> Option<R> {
        loop {
            let &winner = self.heap.first()?;
            let survives = !(self.drop_tombstones && live(&self.sources, winner).is_tombstone());
            let taken = survives.then(|| take(&self.sources[winner.source]));
            // Decide the whole advancing order — the winner, then every
            // source it shadows — while each key is still in place.
            self.consumed.clear();
            while let Some(&next) = self.heap.first() {
                if !next.same_key(winner, &self.sources) {
                    break;
                }
                self.heap.swap_remove(0);
                sift_down(&mut self.heap, &self.sources, 0);
                self.consumed.push(next.source);
            }
            for n in 0..self.consumed.len() {
                if let Some(head) = self.pull(self.consumed[n]) {
                    push(&mut self.heap, &self.sources, head);
                }
            }
            if survives {
                self.entries_out += 1;
                return taken;
            }
        }
    }

    /// Runs the merge to its end, passing every surviving entry to `sink`.
    pub fn drain_into(&mut self, mut sink: impl FnMut(EntryRef<'_>)) {
        while self
            .next_with(|src| sink(src.entry().expect("the winner is on an entry")))
            .is_some()
        {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryBuf;
    use crate::types::KvEntry;
    use bytes::Bytes;

    /// Merges in-memory entry vectors (each sorted) into one vector.
    fn merge_sorted(batches: Vec<Vec<KvEntry>>, drop_tombstones: bool) -> Vec<KvEntry> {
        let bufs: Vec<EntryBuf> = batches
            .iter()
            .map(|batch| {
                let mut buf = EntryBuf::default();
                batch.iter().for_each(|e| buf.push(e.borrowed()));
                buf
            })
            .collect();
        let sources = bufs.iter().map(|b| Source::Buf(b.cursor())).collect();
        let mut out = Vec::new();
        Merge::new(sources, drop_tombstones).drain_into(|e| out.push(e.to_owned()));
        out
    }

    fn e(k: &str, v: &str, seq: u64) -> KvEntry {
        KvEntry::put(
            Bytes::copy_from_slice(k.as_bytes()),
            Bytes::copy_from_slice(v.as_bytes()),
            seq,
        )
    }

    fn d(k: &str, seq: u64) -> KvEntry {
        KvEntry::delete(Bytes::copy_from_slice(k.as_bytes()), seq)
    }

    #[test]
    fn merges_disjoint_sources() {
        let out = merge_sorted(
            vec![vec![e("a", "1", 1), e("c", "3", 2)], vec![e("b", "2", 3)]],
            false,
        );
        let keys: Vec<&[u8]> = out.iter().map(|x| x.key.as_ref()).collect();
        assert_eq!(keys, vec![b"a".as_ref(), b"b".as_ref(), b"c".as_ref()]);
    }

    #[test]
    fn newest_version_wins() {
        let out = merge_sorted(
            vec![
                vec![e("k", "old", 1)],
                vec![e("k", "mid", 5)],
                vec![e("k", "new", 9)],
            ],
            false,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value.as_ref(), b"new");
        assert_eq!(out[0].seq, 9);
    }

    #[test]
    fn tombstone_shadows_older_put() {
        let out = merge_sorted(vec![vec![e("k", "v", 1)], vec![d("k", 2)]], false);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_tombstone());
    }

    #[test]
    fn tombstones_dropped_at_bottom() {
        let out = merge_sorted(
            vec![vec![e("a", "1", 1), e("k", "v", 2)], vec![d("k", 3)]],
            true,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key.as_ref(), b"a");
    }

    #[test]
    fn newer_put_survives_older_tombstone() {
        let out = merge_sorted(vec![vec![d("k", 1)], vec![e("k", "alive", 2)]], true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value.as_ref(), b"alive");
    }

    #[test]
    fn counts_in_and_out() {
        let mut bufs = [EntryBuf::default(), EntryBuf::default()];
        for entry in [e("a", "1", 1), e("b", "2", 2)] {
            bufs[0].push(entry.borrowed());
        }
        bufs[1].push(e("b", "3", 3).borrowed());
        let sources = bufs.iter().map(|b| Source::Buf(b.cursor())).collect();
        let mut m = Merge::new(sources, false);
        let mut out = Vec::new();
        m.drain_into(|e| out.push(e.to_owned()));
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].value.as_ref(), b"3");
        assert_eq!(m.entries_in, 3);
        assert_eq!(m.entries_out, 2);
    }

    #[test]
    fn empty_sources() {
        let out = merge_sorted(vec![vec![], vec![]], false);
        assert!(out.is_empty());
        assert!(Merge::new(vec![], false).next_with(|_| ()).is_none());
    }

    #[test]
    fn many_sources_interleaved() {
        // 8 sources with interleaved keys; result must be globally sorted.
        let mut batches = Vec::new();
        for s in 0..8u64 {
            let batch: Vec<KvEntry> = (0..20u64)
                .map(|i| {
                    let k = i * 8 + s;
                    KvEntry::put(
                        Bytes::copy_from_slice(&k.to_be_bytes()),
                        Bytes::new(),
                        s + 1,
                    )
                })
                .collect();
            batches.push(batch);
        }
        let out = merge_sorted(batches, false);
        assert_eq!(out.len(), 160);
        for w in out.windows(2) {
            assert!(w[0].key < w[1].key);
        }
    }
}
