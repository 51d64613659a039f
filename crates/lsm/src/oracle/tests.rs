#![cfg(test)]
//! The kernel against the chain it replaced: same entries out, same pages
//! touched in the same order with the same charges, same bytes on disk —
//! and the same again through a `Storage` that offers only the required
//! methods.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use proptest::prelude::*;
use ruskey_storage::{
    BlockCache, CostModel, Extent, FileDisk, IoCharge, SimulatedDisk, Storage, StorageMetrics,
    VirtualClock,
};

use super::{write_run, EntrySource, MergeIterator, RunIterator};
use crate::compaction::{Merge, Source};
use crate::entry::EntryBuf;
use crate::manifest::Manifest;
use crate::memtable::Memtable;
use crate::run::{Run, RunBuilder};
use crate::types::{KvEntry, OpKind};
use crate::wal::Wal;
use crate::{FlsmTree, LsmConfig};

fn key(i: u64) -> Bytes {
    Bytes::copy_from_slice(&i.to_be_bytes())
}

fn val(i: u64) -> Bytes {
    Bytes::from(format!("value-{i:05}"))
}

/// One storage call as the engine's caller sees it.
#[derive(Debug, Clone, PartialEq)]
enum Io {
    Read {
        ext: u64,
        page: u32,
        charge: IoCharge,
    },
    /// Pages `0..pages` of one extent, however many calls wrote them.
    Write {
        ext: u64,
        pages: u32,
        charge: IoCharge,
    },
}

/// Forwards every call and logs reads and writes. It never forwards
/// [`Storage::append_pages`], so the run builder's whole-run fallback runs;
/// with `fast_paths` off it forwards only what the required methods need,
/// so the provided default of [`Storage::try_read_shared`] runs too — the
/// `Storage` a decorator written before those methods existed presents.
struct Recorder {
    inner: Arc<dyn Storage>,
    fast_paths: bool,
    log: Mutex<Vec<Io>>,
}

impl Recorder {
    fn new(inner: Arc<dyn Storage>, fast_paths: bool) -> Arc<Self> {
        Arc::new(Self {
            inner,
            fast_paths,
            log: Mutex::new(Vec::new()),
        })
    }

    fn take_log(&self) -> Vec<Io> {
        std::mem::take(&mut self.log.lock().unwrap())
    }

    fn log_read(&self, ext: Extent, page: u32, charge: IoCharge) {
        self.log.lock().unwrap().push(Io::Read {
            ext: ext.id,
            page,
            charge,
        });
    }

    fn log_write(&self, ext: Extent, first: u32, count: u32, charge: IoCharge) {
        let mut log = self.log.lock().unwrap();
        match log.last_mut() {
            Some(Io::Write {
                ext: id,
                pages,
                charge: sum,
            }) if *id == ext.id && *pages == first => {
                *pages += count;
                *sum += charge;
            }
            _ => {
                assert_eq!(first, 0, "a run is written from its first page");
                log.push(Io::Write {
                    ext: ext.id,
                    pages: count,
                    charge,
                });
            }
        }
    }
}

impl Storage for Recorder {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn allocate(&self, pages: u32) -> Extent {
        self.inner.allocate(pages)
    }
    fn write_page(&self, ext: Extent, idx: u32, data: &[u8]) -> IoCharge {
        let charge = self.inner.write_page(ext, idx, data);
        self.log_write(ext, idx, 1, charge);
        charge
    }
    fn try_read_page(&self, ext: Extent, idx: u32, buf: &mut Vec<u8>) -> std::io::Result<IoCharge> {
        let charge = self.inner.try_read_page(ext, idx, buf)?;
        self.log_read(ext, idx, charge);
        Ok(charge)
    }
    fn try_read_shared(&self, ext: Extent, idx: u32) -> std::io::Result<(Bytes, IoCharge)> {
        if !self.fast_paths {
            let mut buf = Vec::new();
            let charge = self.try_read_page(ext, idx, &mut buf)?;
            return Ok((Bytes::from(buf), charge));
        }
        let (page, charge) = self.inner.try_read_shared(ext, idx)?;
        self.log_read(ext, idx, charge);
        Ok((page, charge))
    }
    fn sync_extent(&self, ext: Extent) -> std::io::Result<IoCharge> {
        self.inner.sync_extent(ext)
    }
    fn sync_dir(&self) -> std::io::Result<IoCharge> {
        self.inner.sync_dir()
    }
    fn collect_orphans(&self, live: &[u64]) -> std::io::Result<Vec<u64>> {
        self.inner.collect_orphans(live)
    }
    fn free(&self, ext: Extent) {
        self.inner.free(ext);
    }
    fn metrics(&self) -> StorageMetrics {
        self.inner.metrics()
    }
    fn clock(&self) -> &VirtualClock {
        self.inner.clock()
    }
    fn cost_model(&self) -> CostModel {
        self.inner.cost_model()
    }
    fn charge_cpu(&self, ns: u64) {
        self.inner.charge_cpu(ns);
    }
    fn live_pages(&self) -> u64 {
        self.inner.live_pages()
    }
}

/// A recorder over a six-page, strictly LRU cache over a simulated disk.
/// The log pins every access in order, which pins the recency state; the
/// small cache additionally puts hits, misses and evictions into the
/// charges the log compares.
fn small_cache_stack(fast_paths: bool) -> (Arc<Recorder>, Arc<SimulatedDisk>) {
    let disk = SimulatedDisk::new(256, CostModel::NVME);
    let cache = BlockCache::with_segments(Arc::clone(&disk), 6, 1);
    (Recorder::new(cache, fast_paths), disk)
}

fn build_run(storage: &dyn Storage, id: u64, entries: &[KvEntry]) -> Run {
    let mut b = RunBuilder::new(id, storage, 8.0);
    entries.iter().for_each(|e| b.push(e.borrowed()));
    b.finish(u64::MAX).unwrap()
}

/// Ten runs whose keys interleave and collide (every key divisible by 3
/// lives in three runs, under different seqs), of different lengths so
/// they run out at different times, some versions tombstones.
fn tier_of_ten(storage: &dyn Storage) -> Vec<Run> {
    (0..10u64)
        .map(|r| {
            let entries: Vec<KvEntry> = (0..40 + r * 7)
                .filter(|i| i % 10 == r || (i % 3 == 0 && (i / 3) % 10 / 3 == r / 3))
                .map(|i| match (i + r) % 11 {
                    0 => KvEntry::delete(key(i), 100 * r + i),
                    _ => KvEntry::put(key(i), val(i * 10 + r), 100 * r + i),
                })
                .collect();
            build_run(storage, r + 1, &entries)
        })
        .collect()
}

fn memtable_batch() -> Memtable {
    let mut m = Memtable::new();
    for i in (0..120u64).step_by(2) {
        match i % 5 {
            0 => m.insert(KvEntry::delete(key(i), 5000 + i)),
            _ => m.insert(KvEntry::put(key(i), val(i + 7), 5000 + i)),
        }
    }
    m
}

fn owned(m: &Memtable) -> Vec<KvEntry> {
    let mut out = Vec::new();
    let mut c = m.cursor();
    while let Some(e) = c.entry() {
        out.push(e.to_owned());
        c.advance();
    }
    out
}

fn page_bytes(disk: &SimulatedDisk, ext: Extent) -> Vec<Vec<u8>> {
    (0..ext.pages)
        .map(|i| {
            let mut buf = Vec::new();
            disk.try_read_page(ext, i, &mut buf).unwrap();
            buf
        })
        .collect()
}

/// What both chains leave behind for one scenario.
#[derive(Debug, PartialEq)]
struct Trace {
    log: Vec<Io>,
    entries_in: u64,
    entries_out: u64,
    output: Vec<KvEntry>,
    /// Pages of the run the scenario wrote, if it wrote one.
    pages: Vec<Vec<u8>>,
    clock_ns: u64,
    metrics: StorageMetrics,
}

impl Trace {
    fn close(
        rec: &Recorder,
        disk: &SimulatedDisk,
        (entries_in, entries_out): (u64, u64),
        output: Vec<KvEntry>,
        written: Option<Extent>,
    ) -> Self {
        Trace {
            log: rec.take_log(),
            entries_in,
            entries_out,
            output,
            pages: written.map_or_else(Vec::new, |ext| page_bytes(disk, ext)),
            clock_ns: rec.clock().now_ns(),
            metrics: rec.metrics(),
        }
    }
}

/// Flush into an active run and merge a ten-run tier down into a run below
/// it, through the oracle chain. Returns one trace per step.
fn oracle_write_path(drop_tombstones: bool) -> Vec<Trace> {
    let (rec, disk) = small_cache_stack(true);
    let storage: Arc<dyn Storage> = rec.clone();
    let runs = tier_of_ten(rec.as_ref());
    let mem = memtable_batch();
    rec.take_log();
    let mut traces = Vec::new();

    let sources: Vec<EntrySource> = vec![
        Box::new(RunIterator::new(&runs[9], Arc::clone(&storage))),
        Box::new(owned(&mem).into_iter()),
    ];
    let mut merge = MergeIterator::new(sources, drop_tombstones);
    let out: Vec<KvEntry> = merge.by_ref().collect();
    let ext = write_run(rec.as_ref(), out.iter().cloned());
    let counts = (merge.entries_in, merge.entries_out);
    traces.push(Trace::close(&rec, &disk, counts, out, ext));

    let sources: Vec<EntrySource> = runs
        .iter()
        .map(|r| Box::new(RunIterator::new(r, Arc::clone(&storage))) as EntrySource)
        .collect();
    let mut merge = MergeIterator::new(sources, false);
    let batch: Vec<KvEntry> = merge.by_ref().collect();
    let counts = (merge.entries_in, merge.entries_out);
    traces.push(Trace::close(&rec, &disk, counts, batch.clone(), None));

    let below = build_run(rec.as_ref(), 50, &owned(&mem));
    rec.take_log();
    let sources: Vec<EntrySource> = vec![
        Box::new(RunIterator::new(&below, Arc::clone(&storage))),
        Box::new(batch.into_iter()),
    ];
    let mut merge = MergeIterator::new(sources, drop_tombstones);
    let out: Vec<KvEntry> = merge.by_ref().collect();
    let ext = write_run(rec.as_ref(), out.iter().cloned());
    let counts = (merge.entries_in, merge.entries_out);
    traces.push(Trace::close(&rec, &disk, counts, out, ext));
    traces
}

/// The same three steps through the cursor, the kernel and the builder.
fn kernel_write_path(drop_tombstones: bool, fast_paths: bool) -> Vec<Trace> {
    let (rec, disk) = small_cache_stack(fast_paths);
    let storage: &dyn Storage = rec.as_ref();
    let runs = tier_of_ten(storage);
    let mem = memtable_batch();
    rec.take_log();
    let mut traces = Vec::new();

    let admit = |sources: Vec<Source<'_>>, run_id: u64| {
        let mut merge = Merge::new(sources, drop_tombstones);
        let mut builder = RunBuilder::new(run_id, storage, 8.0);
        let mut out = Vec::new();
        merge.drain_into(|e| {
            out.push(e.to_owned());
            builder.push(e);
        });
        let ext = builder.finish(u64::MAX).map(|run| run.extent());
        let counts = (merge.entries_in, merge.entries_out);
        Trace::close(&rec, &disk, counts, out, ext)
    };

    let sources = vec![
        Source::Run(runs[9].cursor(storage)),
        Source::Mem(mem.cursor()),
    ];
    traces.push(admit(sources, 20));

    let sources = runs
        .iter()
        .map(|r| Source::Run(r.cursor(storage)))
        .collect();
    let mut merge = Merge::new(sources, false);
    let mut batch = EntryBuf::default();
    let mut out = Vec::new();
    merge.drain_into(|e| {
        out.push(e.to_owned());
        batch.push(e);
    });
    let counts = (merge.entries_in, merge.entries_out);
    drop(merge);
    traces.push(Trace::close(&rec, &disk, counts, out, None));

    let below = build_run(storage, 50, &owned(&mem));
    rec.take_log();
    let sources = vec![
        Source::Run(below.cursor(storage)),
        Source::Buf(batch.cursor()),
    ];
    traces.push(admit(sources, 21));
    traces
}

/// (b) A flush into an active run, a ten-run merge-down and the admit
/// below it read and write the same pages in the same order for the same
/// charges as the oracle chain, leave the same bytes on the device — and
/// do so with or without the storage fast paths.
#[test]
fn write_path_touches_the_pages_the_oracle_touches() {
    for drop_tombstones in [false, true] {
        let want = oracle_write_path(drop_tombstones);
        assert_eq!(kernel_write_path(drop_tombstones, true), want);
        assert_eq!(kernel_write_path(drop_tombstones, false), want);
    }
}

/// (b) A scan cut by its limit, and one cut by its end bound, read the
/// pages the oracle's scan reads — including the page past a page whose
/// last entry the scan consumed — and return the same rows.
#[test]
fn scans_touch_the_pages_the_oracle_touches() {
    for (start, end, limit) in [(31u64, 1_000u64, 20usize), (10, 47, 100), (0, 5, 0)] {
        let (start, end) = (key(start), key(end));

        let (rec, _) = small_cache_stack(true);
        let storage: Arc<dyn Storage> = rec.clone();
        let runs = tier_of_ten(rec.as_ref());
        let mem = memtable_batch();
        rec.take_log();
        let mut sources: Vec<EntrySource> = vec![Box::new(
            owned(&mem)
                .into_iter()
                .filter(|e| e.key >= start && e.key < end)
                .collect::<Vec<_>>()
                .into_iter(),
        )];
        for run in runs.iter().rev() {
            let it = RunIterator::from_key(run, Arc::clone(&storage), &start);
            sources.push(Box::new(it));
        }
        let want: Vec<_> = super::RangeScan::new(sources, end.clone(), limit).collect();
        let want_log = rec.take_log();

        for fast_paths in [true, false] {
            let (rec, _) = small_cache_stack(fast_paths);
            let storage: &dyn Storage = rec.as_ref();
            let runs = tier_of_ten(storage);
            rec.take_log();
            let mut sources = vec![Source::Mem(mem.range(&start, &end))];
            for run in runs.iter().rev() {
                sources.push(Source::Run(run.cursor_from(storage, &start)));
            }
            let got: Vec<_> = crate::iter::RangeScan::new(sources, &end, limit).collect();
            assert_eq!(got, want);
            assert_eq!(rec.take_log(), want_log, "fast paths {fast_paths}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// (a) The kernel equals the oracle merge on random sorted sources with
    /// keys shared between sources, seqs that tie, and tombstones: same
    /// entries out, same counts in and out, for both `drop_tombstones`. A
    /// key is one byte followed by 0, 3, 6, … 21 zero bytes, so keys are
    /// prefixes of each other, differ only past their sixteenth byte, or
    /// differ only in trailing zeros — every way two keys can tie on the
    /// heap's zero-padded sixteen-byte prefix without being equal.
    #[test]
    fn merge_equals_the_oracle_merge(
        sources in prop::collection::vec(
            prop::collection::btree_map(0u8..40, (0u64..6, any::<bool>(), any::<u8>()), 0..30),
            0..12,
        ),
        drop_tombstones in any::<bool>(),
    ) {
        let batches: Vec<Vec<KvEntry>> = sources
            .iter()
            .map(|source| {
                source
                    .iter()
                    .map(|(&k, &(seq, tombstone, v))| KvEntry {
                        key: Bytes::from([vec![k / 8], vec![0; 3 * (k % 8) as usize]].concat()),
                        value: if tombstone { Bytes::new() } else { Bytes::from(vec![v; 3]) },
                        seq,
                        kind: if tombstone { OpKind::Delete } else { OpKind::Put },
                    })
                    .collect()
            })
            .collect();

        let boxed: Vec<EntrySource> = batches
            .iter()
            .map(|b| Box::new(b.clone().into_iter()) as EntrySource)
            .collect();
        let mut oracle = MergeIterator::new(boxed, drop_tombstones);
        let want: Vec<KvEntry> = oracle.by_ref().collect();

        let bufs: Vec<EntryBuf> = batches
            .iter()
            .map(|b| {
                let mut buf = EntryBuf::default();
                b.iter().for_each(|e| buf.push(e.borrowed()));
                buf
            })
            .collect();
        let cursors = bufs.iter().map(|b| Source::Buf(b.cursor())).collect();
        let mut merge = Merge::new(cursors, drop_tombstones);
        let mut got = Vec::new();
        merge.drain_into(|e| got.push(e.to_owned()));

        prop_assert_eq!(got, want);
        prop_assert_eq!(merge.entries_in, oracle.entries_in);
        prop_assert_eq!(merge.entries_out, oracle.entries_out);
    }
}

/// A deterministic mix of every operation that reads or writes pages,
/// with flushes, cascading merges, a policy transition and scans cut by
/// their limit; returns what the operations returned.
fn drive(tree: &mut FlsmTree) -> Vec<Option<Bytes>> {
    let mut seen = Vec::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for step in 0..6_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 900;
        match x >> 60 {
            0..=7 => tree.put(key(k), val(step)),
            8..=9 => tree.delete(key(k)),
            10..=13 => seen.push(tree.get(&key(k))),
            _ => {
                for (k, v) in tree.scan(&key(k), &key(k + 60), 25) {
                    seen.push(Some(k));
                    seen.push(Some(v));
                }
            }
        }
        if step == 3_000 {
            tree.set_policy(0, 3);
        }
        if step % 64 == 0 {
            tree.maintain_boundary();
        }
    }
    seen
}

/// (c) A `Storage` that implements only the required methods — what a
/// decorator written before the fast paths existed looks like — yields the
/// same gets, the same scans and the same statistics, virtual clock
/// included, inline and with background maintenance.
#[test]
fn required_methods_alone_give_the_same_tree() {
    for background_maintenance in [false, true] {
        let run = |fast_paths: bool| {
            let disk = SimulatedDisk::new(512, CostModel::NVME);
            let cache = BlockCache::new(disk, 24);
            let cfg = LsmConfig {
                buffer_bytes: 2048,
                size_ratio: 4,
                initial_policy: 2,
                background_maintenance,
                ..LsmConfig::scaled_default()
            };
            let mut tree = FlsmTree::new(cfg, Recorder::new(cache, fast_paths));
            let seen = drive(&mut tree);
            (seen, tree.stats())
        };
        let (fast, slow) = (run(true), run(false));
        assert!(fast.1.flushes > 20 && fast.1.levels.len() >= 3);
        assert!(fast.1.cache_hits > 0 && fast.1.cache_evictions > 0);
        assert_eq!(fast, slow);
    }
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ruskey-oracle-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Cross-version restart. A store directory whose extent files come out of
/// the oracle chain (pages packed one `Vec` each, one `write_page` each —
/// the parent commit's writer) recovers under the cursor, and every extent
/// file the builder writes is, byte for byte, the file the oracle chain
/// writes for the same entries and reads back through the oracle's
/// iterator: the on-disk page and slot formats did not move.
#[test]
fn stores_written_by_the_old_chain_recover_and_vice_versa() {
    let cfg = LsmConfig {
        buffer_bytes: 1024,
        size_ratio: 4,
        initial_policy: 3,
        ..LsmConfig::scaled_default()
    };
    let open = |dir: &std::path::Path| FileDisk::new(dir.join("data"), 256, CostModel::FREE);

    // A store written by this build.
    let new_dir = tmp_dir("new");
    let mut model = BTreeMap::new();
    {
        let mut t = FlsmTree::new(cfg.clone(), open(&new_dir).unwrap());
        t.attach_manifest(Manifest::create(new_dir.join("MANIFEST"), 0).unwrap());
        t.attach_wal(Wal::open(new_dir.join("wal")).unwrap());
        for i in 0..2_500u64 {
            let k = (i * 37) % 1_500;
            if i % 9 == 0 {
                t.delete(key(k));
                model.remove(&k);
            } else {
                t.put(key(k), val(i));
                model.insert(k, val(i));
            }
        }
        t.commit_wal().unwrap();
    }

    // The same directory as the old chain would have written it: manifest
    // and WAL as they are (their framing is pinned in their own tests),
    // every extent re-written from its entries by the oracle writer.
    let old_dir = tmp_dir("old");
    let slots = Manifest::slot_paths(&new_dir.join("MANIFEST"));
    for (from, to) in slots
        .iter()
        .zip(Manifest::slot_paths(&old_dir.join("MANIFEST")))
    {
        std::fs::copy(from, to).unwrap();
    }
    std::fs::copy(new_dir.join("wal"), old_dir.join("wal")).unwrap();
    let manifest = Manifest::recover(new_dir.join("MANIFEST"))
        .unwrap()
        .unwrap();
    let new_disk = open(&new_dir).unwrap();
    let old_disk = open(&old_dir).unwrap();
    let mut records: Vec<_> = manifest
        .state()
        .levels
        .iter()
        .flat_map(|l| l.sealed.iter().chain(l.active.as_ref()))
        .collect();
    records.sort_by_key(|r| r.extent_id);
    assert!(records.len() >= 3, "the scenario must leave several runs");
    let mut next_id = 1;
    for rec in records {
        let run = Run::recover(new_disk.as_ref(), rec).unwrap();
        // Old reader over new pages.
        let entries: Vec<KvEntry> =
            RunIterator::new(&run, Arc::clone(&new_disk) as Arc<dyn Storage>).collect();
        assert_eq!(entries.len() as u64, rec.entry_count);
        // Old writer; extent ids are made to line up by burning the gaps.
        for _ in next_id..rec.extent_id {
            old_disk.allocate(0);
        }
        next_id = rec.extent_id + 1;
        let ext = write_run(old_disk.as_ref(), entries.into_iter()).unwrap();
        assert_eq!((ext.id, ext.pages), (rec.extent_id, rec.pages));
        let file = format!("extent-{:08}.run", ext.id);
        assert_eq!(
            std::fs::read(new_dir.join("data").join(&file)).unwrap(),
            std::fs::read(old_dir.join("data").join(&file)).unwrap(),
            "{file} differs between the builder and the oracle writer"
        );
    }
    drop((new_disk, old_disk));

    // New reader over the old chain's directory.
    let mut t = FlsmTree::recover_persistent(
        cfg,
        open(&old_dir).unwrap(),
        old_dir.join("MANIFEST"),
        old_dir.join("wal"),
    )
    .unwrap();
    assert!(t.stats().runs_recovered >= 3);
    for k in 0..1_500u64 {
        assert_eq!(t.get(&key(k)), model.get(&k).cloned(), "key {k}");
    }
    let rows = t.scan(&key(0), &key(1_500), usize::MAX);
    assert_eq!(rows.len(), model.len());
    let _ = std::fs::remove_dir_all(&new_dir);
    let _ = std::fs::remove_dir_all(&old_dir);
}
