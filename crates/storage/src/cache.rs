//! A sharded, O(1)-eviction LRU block cache over any [`Storage`] backend.
//!
//! The paper motivates black-box (RL) modeling partly because components
//! such as memory caches defeat white-box formulas (§1.2). This cache is
//! built to *serve*, not just to exist for that experiment:
//!
//! * **Sharded locking** — the capacity is split across K independently
//!   locked LRU segments, keyed by a hash of `(extent, page)`, so
//!   concurrent readers on different pages contend on different locks
//!   instead of one global mutex.
//! * **O(1) eviction** — each segment keeps an intrusive doubly-linked
//!   recency list over a slab plus a `HashMap` from page key to slot:
//!   hit, insert, and evict are all constant-time (the seed cache's
//!   min-scan over every resident page is gone).
//! * **Exact counters** — hits, misses, and evictions surface three ways:
//!   per-call in the returned [`IoCharge`], aggregated in
//!   [`Storage::metrics`], and directly via [`BlockCache::hits`] /
//!   [`BlockCache::misses`] / `BlockCache::evictions`.
//! * **Invalidation on free** — [`Storage::free`] purges the extent's
//!   pages from every segment *before* forwarding, so an extent id whose
//!   pages were freed under the two-log contract (only after the manifest
//!   commit) can never serve stale data.
//!
//! Virtual-cost semantics are unchanged from the seed: a hit charges only
//! [`CostModel::cpu_probe_ns`] and performs no device I/O; a miss forwards
//! to the inner device and fills the cache (reads are write-allocated,
//! writes are write-through). The cache stays **disabled by default** on
//! the simulated backend, matching the paper's direct-I/O setup and
//! keeping that path's accounting bit-identical; the persistent store
//! wires it over each shard's `FileDisk` via
//! `PersistenceConfig::cache_pages`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use bytes::Bytes;

use crate::clock::VirtualClock;
use crate::cost::CostModel;
use crate::disk::{Extent, IoCharge, Storage};
use crate::metrics::StorageMetrics;

/// Key identifying a cached page.
type PageKey = (u64, u32);

/// Default segment count; small capacities use fewer (≥ 1 page each).
const DEFAULT_SEGMENTS: usize = 8;

/// Sentinel slot index for list ends and free slots.
const NIL: usize = usize::MAX;

/// One resident page: slab slot carrying the intrusive recency links.
struct Slot {
    key: PageKey,
    data: Bytes,
    prev: usize,
    next: usize,
}

/// One independently locked LRU segment: `map` finds the slot in O(1),
/// the intrusive list orders recency, `free` recycles slots — every
/// operation (hit, insert, evict, remove) is constant-time.
struct Segment {
    capacity: usize,
    map: HashMap<PageKey, usize>,
    slab: Vec<Slot>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot (the eviction victim).
    tail: usize,
}

impl Segment {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity(capacity.min(1024)),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slab[h].prev = i,
        }
        self.head = i;
    }

    /// Looks a page up, promoting it to most-recently-used on a hit.
    fn get(&mut self, key: PageKey) -> Option<Bytes> {
        let &i = self.map.get(&key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(self.slab[i].data.clone())
    }

    /// Inserts (or refreshes) a page, returning how many pages were
    /// evicted to make room (0 or 1).
    fn insert(&mut self, key: PageKey, data: Bytes) -> u64 {
        if let Some(&i) = self.map.get(&key) {
            self.slab[i].data = data;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return 0;
        }
        let mut evicted = 0;
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "full segment must have a tail");
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.free.push(victim);
            evicted = 1;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Slot {
                    key,
                    data,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slab.push(Slot {
                    key,
                    data,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }

    /// Drops every resident page of an extent (O(pages resident)).
    fn remove_extent(&mut self, id: u64) {
        let victims: Vec<usize> = self
            .map
            .iter()
            .filter(|((eid, _), _)| *eid == id)
            .map(|(_, &i)| i)
            .collect();
        for i in victims {
            self.unlink(i);
            self.map.remove(&self.slab[i].key);
            self.free.push(i);
        }
    }
}

/// A sharded LRU page cache wrapping an inner [`Storage`].
///
/// Hits cost only [`CostModel::cpu_probe_ns`]; misses go to the inner
/// device. See the module docs for the locking and eviction design.
///
/// Every segment lock recovers a poisoned guard
/// (`PoisonError::into_inner`) instead of panicking: all that runs under
/// one is a single `Segment` method, whose list surgery follows indices
/// from the segment's own map and, short of a bug in it, cannot stop
/// halfway — so a segment a panicking thread held is still a consistent
/// LRU of device-page copies.
pub struct BlockCache<S: Storage> {
    inner: Arc<S>,
    segments: Vec<Mutex<Segment>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<S: Storage> BlockCache<S> {
    /// Wraps `inner` with a cache holding up to `capacity_pages` pages,
    /// split over `min(8, capacity_pages)` segments.
    pub fn new(inner: Arc<S>, capacity_pages: usize) -> Arc<Self> {
        let segments = DEFAULT_SEGMENTS.min(capacity_pages.max(1));
        Self::with_segments(inner, capacity_pages, segments)
    }

    /// Wraps `inner` with an explicit segment count (tests pin strict
    /// global LRU order with one segment).
    pub fn with_segments(inner: Arc<S>, capacity_pages: usize, segments: usize) -> Arc<Self> {
        assert!(
            capacity_pages > 0,
            "use the raw storage for a zero-size cache"
        );
        assert!(
            (1..=capacity_pages).contains(&segments),
            "need 1..=capacity_pages segments so every segment holds a page"
        );
        // Distribute the capacity exactly: the first `capacity % segments`
        // segments take one extra page.
        let (base, rem) = (capacity_pages / segments, capacity_pages % segments);
        let segments = (0..segments)
            .map(|i| Mutex::new(Segment::new(base + usize::from(i < rem))))
            .collect();
        Arc::new(Self {
            inner,
            segments,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// The segment responsible for a page (FNV-1a over the key).
    fn segment(&self, key: PageKey) -> &Mutex<Segment> {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in key.0.to_le_bytes().into_iter().chain(key.1.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        &self.segments[(h % self.segments.len() as u64) as usize]
    }

    /// Number of cache hits served.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (reads forwarded to the device).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of pages evicted to make room.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    fn insert(&self, key: PageKey, data: Bytes) -> u64 {
        let evicted = self
            .segment(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, data);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }
}

impl<S: Storage> Storage for BlockCache<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&self, pages: u32) -> Extent {
        self.inner.allocate(pages)
    }

    fn write_page(&self, ext: Extent, idx: u32, data: &[u8]) -> IoCharge {
        // Write-through: keep the cache coherent and always persist.
        let evicted = self.insert((ext.id, idx), Bytes::copy_from_slice(data));
        let mut charge = self.inner.write_page(ext, idx, data);
        charge.io.cache_evictions += evicted;
        charge
    }

    /// Write-through for a whole run: the pages enter the cache in page
    /// order (the recency order the per-page loop leaves), each copied
    /// once, and the device sees one bulk write.
    fn write_pages(&self, ext: Extent, pages: &[&[u8]]) -> IoCharge {
        let evicted: u64 = (0u32..)
            .zip(pages)
            .map(|(idx, page)| self.insert((ext.id, idx), Bytes::copy_from_slice(page)))
            .sum();
        let mut charge = self.inner.write_pages(ext, pages);
        charge.io.cache_evictions += evicted;
        charge
    }

    /// Write-through for a batch of a run: the device grows the extent,
    /// then the pages enter the cache in page order, as
    /// [`Storage::write_pages`] puts them.
    fn append_pages(&self, ext: Option<Extent>, pages: &[&[u8]]) -> Option<(Extent, IoCharge)> {
        let (grown, mut charge) = self.inner.append_pages(ext, pages)?;
        let first = grown.pages - pages.len() as u32;
        charge.io.cache_evictions += (first..)
            .zip(pages)
            .map(|(idx, page)| self.insert((grown.id, idx), Bytes::copy_from_slice(page)))
            .sum::<u64>();
        Some((grown, charge))
    }

    fn try_read_page(&self, ext: Extent, idx: u32, buf: &mut Vec<u8>) -> std::io::Result<IoCharge> {
        let (page, charge) = self.try_read_shared(ext, idx)?;
        buf.clear();
        buf.extend_from_slice(&page);
        Ok(charge)
    }

    /// A hit hands out the resident handle and copies nothing; a miss
    /// caches the very handle the device read produced.
    fn try_read_shared(&self, ext: Extent, idx: u32) -> std::io::Result<(Bytes, IoCharge)> {
        let cached = self
            .segment((ext.id, idx))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get((ext.id, idx));
        if let Some(page) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let probe_ns = self.inner.cost_model().cpu_probe_ns;
            self.inner.charge_cpu(probe_ns);
            // A hit performs no device I/O: only the CPU probe is charged.
            let charge = IoCharge {
                ns: probe_ns,
                io: StorageMetrics {
                    cache_hits: 1,
                    ..StorageMetrics::default()
                },
            };
            Ok((page, charge))
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            // A failed device read fills nothing: the error propagates
            // typed, and the cache never holds a torn page.
            let (page, mut charge) = self.inner.try_read_shared(ext, idx)?;
            charge.io.cache_misses = 1;
            charge.io.cache_evictions += self.insert((ext.id, idx), page.clone());
            Ok((page, charge))
        }
    }

    fn sync_extent(&self, ext: Extent) -> std::io::Result<IoCharge> {
        self.inner.sync_extent(ext)
    }

    fn sync_dir(&self) -> std::io::Result<IoCharge> {
        self.inner.sync_dir()
    }

    fn collect_orphans(&self, live: &[u64]) -> std::io::Result<Vec<u64>> {
        // Purge collected extents' pages: an orphan's id becomes reusable
        // the moment its file is gone, and no stale page may outlive it.
        let collected = self.inner.collect_orphans(live)?;
        for id in &collected {
            for seg in &self.segments {
                seg.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove_extent(*id);
            }
        }
        Ok(collected)
    }

    fn faults(&self) -> Option<&Arc<crate::FaultPlan>> {
        self.inner.faults()
    }

    fn free(&self, ext: Extent) {
        // Purge before forwarding: once the inner device reuses the id,
        // no stale page may survive here.
        for seg in &self.segments {
            seg.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove_extent(ext.id);
        }
        self.inner.free(ext);
    }

    /// The inner device's counters plus this cache's hit/miss/eviction
    /// totals (hits never reach the device, so they only exist here).
    fn metrics(&self) -> StorageMetrics {
        let mut m = self.inner.metrics();
        m.cache_hits += self.hits();
        m.cache_misses += self.misses();
        m.cache_evictions += self.evictions();
        m
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::SimulatedDisk;

    impl<S: Storage> BlockCache<S> {
        /// Pages currently resident across all segments.
        fn cached_pages(&self) -> usize {
            self.segments
                .iter()
                .map(|s| s.lock().unwrap().map.len())
                .sum()
        }

        /// Hit ratio in `[0, 1]`; zero when no reads have occurred.
        fn hit_ratio(&self) -> f64 {
            let h = self.hits() as f64;
            let m = self.misses() as f64;
            if h + m == 0.0 {
                0.0
            } else {
                h / (h + m)
            }
        }
    }

    fn setup(cap: usize) -> (Arc<BlockCache<SimulatedDisk>>, Arc<SimulatedDisk>) {
        let disk = SimulatedDisk::new(128, CostModel::NVME);
        (BlockCache::new(Arc::clone(&disk), cap), disk)
    }

    /// One segment: strict global LRU order, for deterministic recency
    /// assertions.
    fn setup_lru(cap: usize) -> (Arc<BlockCache<SimulatedDisk>>, Arc<SimulatedDisk>) {
        let disk = SimulatedDisk::new(128, CostModel::NVME);
        (BlockCache::with_segments(Arc::clone(&disk), cap, 1), disk)
    }

    #[test]
    fn hit_avoids_device_read() {
        let (cache, disk) = setup(4);
        let ext = cache.allocate(1);
        cache.write_page(ext, 0, b"abc");
        let mut buf = Vec::new();
        let charge = cache.read_page(ext, 0, &mut buf); // hit: write-through populated it
        assert_eq!(&buf, b"abc");
        assert_eq!(cache.hits(), 1);
        assert_eq!(disk.metrics().pages_read, 0);
        assert_eq!(charge.io.cache_hits, 1, "hit flows through the IoCharge");
        assert_eq!(charge.io.pages_read, 0);
        assert_eq!(charge.ns, CostModel::NVME.cpu_probe_ns);
    }

    #[test]
    fn miss_fills_cache() {
        let (cache, disk) = setup_lru(1);
        let a = cache.allocate(1);
        let b = cache.allocate(1);
        cache.write_page(a, 0, b"a");
        cache.write_page(b, 0, b"b"); // evicts a (capacity 1)
        assert_eq!(cache.evictions(), 1);
        let mut buf = Vec::new();
        let charge = cache.read_page(a, 0, &mut buf); // miss
        assert_eq!(cache.misses(), 1);
        assert_eq!(charge.io.cache_misses, 1, "miss flows through the IoCharge");
        assert_eq!(disk.metrics().pages_read, 1);
        cache.read_page(a, 0, &mut buf); // now a hit
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let (cache, disk) = setup_lru(2);
        let ext = cache.allocate(3);
        cache.write_page(ext, 0, b"0");
        cache.write_page(ext, 1, b"1");
        cache.write_page(ext, 2, b"2"); // page 0 evicted
        let mut buf = Vec::new();
        cache.read_page(ext, 1, &mut buf);
        cache.read_page(ext, 2, &mut buf);
        assert_eq!(disk.metrics().pages_read, 0);
        cache.read_page(ext, 0, &mut buf);
        assert_eq!(disk.metrics().pages_read, 1);
    }

    /// A hit must *promote*: after touching the LRU page, the other
    /// resident page becomes the next victim.
    #[test]
    fn hit_promotes_to_mru() {
        let (cache, disk) = setup_lru(2);
        let ext = cache.allocate(3);
        cache.write_page(ext, 0, b"0");
        cache.write_page(ext, 1, b"1");
        let mut buf = Vec::new();
        cache.read_page(ext, 0, &mut buf); // promote page 0
        cache.write_page(ext, 2, b"2"); // must evict page 1, not 0
        cache.read_page(ext, 0, &mut buf);
        assert_eq!(disk.metrics().pages_read, 0, "promoted page stayed");
        cache.read_page(ext, 1, &mut buf);
        assert_eq!(disk.metrics().pages_read, 1, "LRU page was evicted");
    }

    #[test]
    fn free_invalidates() {
        let (cache, _disk) = setup(4);
        let ext = cache.allocate(1);
        cache.write_page(ext, 0, b"x");
        cache.free(ext);
        // A fresh extent may reuse nothing; reading the freed extent panics
        // at the device level, proving the cache did not serve stale data.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut buf = Vec::new();
            cache.read_page(ext, 0, &mut buf);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn hit_ratio_math() {
        let (cache, _) = setup(4);
        assert_eq!(cache.hit_ratio(), 0.0);
        let ext = cache.allocate(1);
        cache.write_page(ext, 0, b"x");
        let mut buf = Vec::new();
        cache.read_page(ext, 0, &mut buf);
        cache.read_page(ext, 0, &mut buf);
        assert!((cache.hit_ratio() - 1.0).abs() < 1e-9);
    }

    /// Sharded capacity is exact: residency never exceeds the configured
    /// page budget, whatever the access pattern.
    #[test]
    fn sharded_capacity_is_bounded() {
        let (cache, _) = setup(13);
        let ext = cache.allocate(200);
        for i in 0..200 {
            cache.write_page(ext, i, &[i as u8; 16]);
        }
        assert!(cache.cached_pages() <= 13, "capacity overrun");
        assert!(cache.evictions() > 0);
        let mut buf = Vec::new();
        for i in 0..200 {
            cache.read_page(ext, i, &mut buf);
            assert_eq!(buf[0], i as u8);
        }
        assert!(cache.cached_pages() <= 13, "capacity overrun after reads");
    }

    /// Invalidation reaches every segment, and metrics() reports the
    /// cache counters on top of the device's.
    #[test]
    fn invalidation_spans_segments_and_metrics_aggregate() {
        let (cache, _) = setup(64);
        let a = cache.allocate(32);
        let b = cache.allocate(4);
        for i in 0..32 {
            cache.write_page(a, i, b"a");
        }
        for i in 0..4 {
            cache.write_page(b, i, b"b");
        }
        cache.free(a);
        assert_eq!(cache.cached_pages(), 4, "only extent b remains resident");
        let mut buf = Vec::new();
        for i in 0..4 {
            cache.read_page(b, i, &mut buf);
        }
        let m = cache.metrics();
        assert_eq!(m.cache_hits, 4);
        assert_eq!(m.cache_misses, 0);
        assert_eq!(m.cache_evictions, 0);
    }

    /// Concurrent readers through the sharded segments: results stay
    /// exact and hits + misses account for every read.
    #[test]
    fn concurrent_reads_are_exact() {
        let disk = SimulatedDisk::new(128, CostModel::FREE);
        let cache = BlockCache::new(Arc::clone(&disk), 32);
        let ext = cache.allocate(64);
        for i in 0..64 {
            cache.write_page(ext, i, &[i as u8; 8]);
        }
        let (h0, m0) = (cache.hits(), cache.misses());
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    let mut buf = Vec::new();
                    for round in 0..200u32 {
                        let i = (round * 7 + t) % 64;
                        cache.read_page(ext, i, &mut buf);
                        assert_eq!(buf[0], i as u8, "stale or torn page");
                    }
                });
            }
        });
        assert_eq!(cache.hits() - h0 + (cache.misses() - m0), 800);
    }

    /// A hit hands out the handle the cache holds, not a copy of it, and
    /// a miss caches the handle the device read produced; the handle
    /// outlives the page's eviction and its extent.
    #[test]
    fn shared_reads_share_the_resident_page() {
        let (cache, disk) = setup_lru(1);
        let ext = cache.allocate(2);
        cache.write_page(ext, 0, b"zero");
        let (first, charge) = cache.try_read_shared(ext, 0).unwrap();
        assert_eq!(
            (charge.io.cache_hits, charge.ns),
            (1, CostModel::NVME.cpu_probe_ns)
        );
        assert!(!first.is_unique(), "the cache holds the same allocation");
        cache.write_page(ext, 1, b"one"); // evicts page 0
        assert!(first.is_unique(), "eviction drops the cache's handle only");
        assert_eq!(&first[..], b"zero");
        let (missed, charge) = cache.try_read_shared(ext, 0).unwrap(); // evicts page 1
        assert_eq!((charge.io.cache_misses, charge.io.pages_read), (1, 1));
        let (hit, _) = cache.try_read_shared(ext, 0).unwrap();
        assert_eq!(disk.metrics().pages_read, 1);
        cache.free(ext);
        assert_eq!((&missed[..], &hit[..]), (&b"zero"[..], &b"zero"[..]));
    }

    /// A bulk write, and a run appended in batches, leave the cache as the
    /// per-page loop does: same residents in the same recency order, same
    /// eviction count.
    #[test]
    fn bulk_write_fills_the_cache_like_page_writes() {
        let pages: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 8]).collect();
        let refs: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
        let ((bulk, _), (looped, _)) = (setup_lru(3), setup_lru(3));
        let (ext_a, ext_b) = (bulk.allocate(5), looped.allocate(5));
        let mut want = IoCharge::default();
        for (i, page) in refs.iter().enumerate() {
            want += looped.write_page(ext_b, i as u32, page);
        }
        assert_eq!(bulk.write_pages(ext_a, &refs), want);
        assert_eq!(want.io.cache_evictions, 2);
        let (appended, _) = setup_lru(3);
        let (ext_c, mut charge) = appended.append_pages(None, &refs[..2]).unwrap();
        let (ext_c, rest) = appended.append_pages(Some(ext_c), &refs[2..]).unwrap();
        charge += rest;
        assert_eq!((ext_c, charge), (ext_b, want));
        // Touch the oldest resident, insert one more page: the victim must
        // be the same on every side.
        for (cache, ext) in [(&bulk, ext_a), (&looped, ext_b), (&appended, ext_c)] {
            let hit = |i| cache.try_read_shared(ext, i).unwrap().1.io.cache_hits;
            assert_eq!(hit(2), 1);
            cache.write_page(cache.allocate(1), 0, b"new");
            assert_eq!([hit(2), hit(4), hit(3)], [1, 1, 0], "page 3 was the victim");
        }
    }
}
