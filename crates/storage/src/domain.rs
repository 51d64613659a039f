//! Per-shard storage views with private time domains.
//!
//! The shards of a sharded store share one physical device, but each shard
//! must account its *own* virtual time and I/O exactly: windowing shared
//! counters under parallel missions silently absorbs concurrent siblings'
//! charges. [`ShardStorage`] wraps a shared [`Storage`] and mirrors every
//! charge — page I/O via the [`IoCharge`] the device returns, CPU via
//! [`Storage::charge_cpu`] — into a clock and metrics owned by the view:
//!
//! * the view's [`Storage::clock`] is a fresh [`VirtualClock`] in its own
//!   time domain, advanced only by this view's operations, so an engine
//!   windowing it observes exactly its own work at any shard count;
//! * the view's [`Storage::metrics`] are the domain's exact I/O share;
//! * the shared device still receives every charge, so its clock remains
//!   the **device-busy** aggregate — the sum over all domains.
//!
//! Composition at the store level follows: *device-busy time* is the sum of
//! the domains' clocks, *wall time* of a parallel mission is the max over
//! the participating domains' deltas.
//!
//! A domain belongs to its view, not to any OS thread: a mission lane, an
//! ad-hoc call and a served request charge the same domain from whichever
//! thread currently borrows the shard's tree, and the accounting stays
//! exact because exactly one of them holds that tree at a time (clock and
//! metrics are atomic, so even concurrent charging would only race, not
//! corrupt).

use std::sync::Arc;

use bytes::Bytes;

use crate::clock::VirtualClock;
use crate::cost::CostModel;
use crate::disk::{Extent, IoCharge, Storage};
use crate::metrics::{AtomicMetrics, StorageMetrics};

/// A view of a shared storage device that owns a private time domain.
///
/// All I/O is delegated to the shared device (allocation, data, and the
/// device's own accounting included); the view additionally mirrors every
/// charge into its own [`VirtualClock`] and metrics. With one view per
/// shard, per-shard time and I/O attribution is exact under parallelism.
pub struct ShardStorage {
    inner: Arc<dyn Storage>,
    clock: VirtualClock,
    metrics: AtomicMetrics,
}

impl ShardStorage {
    /// Creates a view over `inner` with a fresh time domain starting at 0.
    pub fn new(inner: Arc<dyn Storage>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            clock: VirtualClock::new(),
            metrics: AtomicMetrics::default(),
        })
    }

    /// The shared device underneath this view.
    pub fn device(&self) -> &Arc<dyn Storage> {
        &self.inner
    }
}

impl Storage for ShardStorage {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&self, pages: u32) -> Extent {
        self.inner.allocate(pages)
    }

    fn write_page(&self, ext: Extent, idx: u32, data: &[u8]) -> IoCharge {
        let charge = self.inner.write_page(ext, idx, data);
        self.metrics.add(&charge.io);
        self.clock.advance(charge.ns);
        charge
    }

    fn try_read_page(&self, ext: Extent, idx: u32, buf: &mut Vec<u8>) -> std::io::Result<IoCharge> {
        let charge = self.inner.try_read_page(ext, idx, buf)?;
        self.metrics.add(&charge.io);
        self.clock.advance(charge.ns);
        Ok(charge)
    }

    fn try_read_shared(&self, ext: Extent, idx: u32) -> std::io::Result<(Bytes, IoCharge)> {
        let (page, charge) = self.inner.try_read_shared(ext, idx)?;
        self.metrics.add(&charge.io);
        self.clock.advance(charge.ns);
        Ok((page, charge))
    }

    fn write_pages(&self, ext: Extent, pages: &[&[u8]]) -> IoCharge {
        let charge = self.inner.write_pages(ext, pages);
        self.metrics.add(&charge.io);
        self.clock.advance(charge.ns);
        charge
    }

    fn append_pages(&self, ext: Option<Extent>, pages: &[&[u8]]) -> Option<(Extent, IoCharge)> {
        let (grown, charge) = self.inner.append_pages(ext, pages)?;
        self.metrics.add(&charge.io);
        self.clock.advance(charge.ns);
        Some((grown, charge))
    }

    fn sync_extent(&self, ext: Extent) -> std::io::Result<IoCharge> {
        let charge = self.inner.sync_extent(ext)?;
        self.metrics.add(&charge.io);
        self.clock.advance(charge.ns);
        Ok(charge)
    }

    fn sync_dir(&self) -> std::io::Result<IoCharge> {
        let charge = self.inner.sync_dir()?;
        self.metrics.add(&charge.io);
        self.clock.advance(charge.ns);
        Ok(charge)
    }

    fn collect_orphans(&self, live: &[u64]) -> std::io::Result<Vec<u64>> {
        self.inner.collect_orphans(live)
    }

    fn arm_power_cut(&self, point: crate::PowerCutPoint, after: u64) {
        self.inner.arm_power_cut(point, after);
    }

    fn free(&self, ext: Extent) {
        self.inner.free(ext);
    }

    /// This domain's exact I/O share (not the shared device totals).
    fn metrics(&self) -> StorageMetrics {
        self.metrics.snapshot()
    }

    /// This view's own time domain.
    fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    fn cost_model(&self) -> CostModel {
        self.inner.cost_model()
    }

    /// CPU charges land on both timelines: the domain's clock and the
    /// shared device's busy aggregate.
    fn charge_cpu(&self, ns: u64) {
        self.inner.charge_cpu(ns);
        self.clock.advance(ns);
    }

    fn live_pages(&self) -> u64 {
        self.inner.live_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::SimulatedDisk;

    fn device() -> Arc<SimulatedDisk> {
        SimulatedDisk::new(128, CostModel::NVME)
    }

    #[test]
    fn view_gets_its_own_domain() {
        let d = device();
        let a = ShardStorage::new(d.clone());
        let b = ShardStorage::new(d);
        assert_ne!(a.clock().domain(), b.clock().domain());
        assert_ne!(a.clock().domain(), a.device().clock().domain());
    }

    #[test]
    fn charges_mirror_into_domain_and_device() {
        let d = device();
        let v = ShardStorage::new(d.clone());
        let ext = v.allocate(2);
        v.write_page(ext, 0, b"abc");
        let mut buf = Vec::new();
        v.read_page(ext, 0, &mut buf);
        v.charge_cpu(7);
        let expect = CostModel::NVME.write_page_ns + CostModel::NVME.read_page_ns + 7;
        assert_eq!(v.clock().now_ns(), expect, "domain clock");
        assert_eq!(d.clock().now_ns(), expect, "device-busy clock");
        let m = v.metrics();
        assert_eq!(m.pages_written, 1);
        assert_eq!(m.pages_read, 1);
        assert_eq!(m.bytes_written, 3);
        assert_eq!(m.bytes_read, 3);
    }

    /// The invariant the store-level composition relies on: the device
    /// clock equals the sum of the domains' clocks, and each domain saw
    /// only its own charges.
    #[test]
    fn device_busy_is_sum_of_domains() {
        let d = device();
        let a = ShardStorage::new(d.clone());
        let b = ShardStorage::new(d.clone());
        let ea = a.allocate(1);
        let eb = b.allocate(1);
        a.write_page(ea, 0, b"x");
        b.write_page(eb, 0, b"y");
        let mut buf = Vec::new();
        b.read_page(eb, 0, &mut buf);
        let w = CostModel::NVME.write_page_ns;
        let r = CostModel::NVME.read_page_ns;
        assert_eq!(a.clock().now_ns(), w);
        assert_eq!(b.clock().now_ns(), w + r);
        assert_eq!(d.clock().now_ns(), 2 * w + r);
        assert_eq!(a.metrics().pages_written, 1);
        assert_eq!(a.metrics().pages_read, 0, "sibling read must not leak");
        assert_eq!(b.metrics().pages_read, 1);
    }

    /// Parallel views over one device: every domain accounts exactly its
    /// own work; the device aggregates all of it.
    #[test]
    fn concurrent_views_attribute_exactly() {
        const PAGES: u64 = 200;
        let d = device();
        let views: Vec<Arc<ShardStorage>> = (0..4).map(|_| ShardStorage::new(d.clone())).collect();
        std::thread::scope(|s| {
            for v in &views {
                let v = Arc::clone(v);
                s.spawn(move || {
                    let ext = v.allocate(PAGES as u32);
                    let mut buf = Vec::new();
                    for i in 0..PAGES as u32 {
                        v.write_page(ext, i, &[7u8; 64]);
                        v.read_page(ext, i, &mut buf);
                    }
                });
            }
        });
        let per_domain = PAGES * (CostModel::NVME.write_page_ns + CostModel::NVME.read_page_ns);
        for v in &views {
            assert_eq!(v.clock().now_ns(), per_domain, "exact per-domain time");
            assert_eq!(v.metrics().pages_read, PAGES);
            assert_eq!(v.metrics().pages_written, PAGES);
        }
        assert_eq!(d.clock().now_ns(), 4 * per_domain, "device-busy sum");
    }

    #[test]
    fn views_stack_and_delegate_structure() {
        let d = device();
        let v = ShardStorage::new(d.clone());
        assert_eq!(v.page_size(), d.page_size());
        let ext = v.allocate(1);
        v.write_page(ext, 0, b"z");
        assert_eq!(v.live_pages(), 1);
        v.free(ext);
        assert_eq!(v.live_pages(), 0);
        assert_eq!(d.live_extents(), 0);
    }
}
