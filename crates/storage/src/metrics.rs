//! Exact storage-level accounting.

use std::sync::atomic::{AtomicU64, Ordering};

/// Internal atomic counters maintained by a storage backend.
#[derive(Debug, Default)]
pub(crate) struct AtomicMetrics {
    pub pages_read: AtomicU64,
    pub pages_written: AtomicU64,
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
    pub read_ns: AtomicU64,
    pub write_ns: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub cache_evictions: AtomicU64,
    pub extent_syncs: AtomicU64,
    pub dir_syncs: AtomicU64,
}

impl AtomicMetrics {
    /// Adds a per-call metrics delta (e.g. an [`crate::IoCharge`]'s I/O)
    /// into the counters — used by storage views mirroring a shared
    /// device's accounting into their own domain.
    pub fn add(&self, d: &StorageMetrics) {
        // One call moves two or three counters (a cache hit: one), so the
        // zero deltas are skipped rather than added.
        let bump = |counter: &AtomicU64, by: u64| {
            if by != 0 {
                counter.fetch_add(by, Ordering::Relaxed);
            }
        };
        bump(&self.pages_read, d.pages_read);
        bump(&self.pages_written, d.pages_written);
        bump(&self.bytes_read, d.bytes_read);
        bump(&self.bytes_written, d.bytes_written);
        bump(&self.read_ns, d.read_ns);
        bump(&self.write_ns, d.write_ns);
        bump(&self.cache_hits, d.cache_hits);
        bump(&self.cache_misses, d.cache_misses);
        bump(&self.cache_evictions, d.cache_evictions);
        bump(&self.extent_syncs, d.extent_syncs);
        bump(&self.dir_syncs, d.dir_syncs);
    }

    pub fn snapshot(&self) -> StorageMetrics {
        StorageMetrics {
            pages_read: self.pages_read.load(Ordering::Relaxed),
            pages_written: self.pages_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            read_ns: self.read_ns.load(Ordering::Relaxed),
            write_ns: self.write_ns.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            extent_syncs: self.extent_syncs.load(Ordering::Relaxed),
            dir_syncs: self.dir_syncs.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of storage counters.
///
/// Snapshots form a monoid: use [`StorageMetrics::delta`] to measure the I/O
/// performed by a specific operation (e.g. one mission, one compaction).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StorageMetrics {
    /// Number of page reads issued to the device.
    pub pages_read: u64,
    /// Number of page writes issued to the device.
    pub pages_written: u64,
    /// Bytes read from the device.
    pub bytes_read: u64,
    /// Bytes written to the device.
    pub bytes_written: u64,
    /// Virtual nanoseconds spent on reads.
    pub read_ns: u64,
    /// Virtual nanoseconds spent on writes.
    pub write_ns: u64,
    /// Page reads served from a block cache without touching the device
    /// (0 on backends without a cache in front).
    pub cache_hits: u64,
    /// Page reads that missed the block cache and went to the device.
    pub cache_misses: u64,
    /// Pages evicted from the block cache to make room.
    pub cache_evictions: u64,
    /// Extent-file fsyncs issued ([`crate::Storage::sync_extent`]): the
    /// power-failure contract's per-run data-durability cost.
    pub extent_syncs: u64,
    /// Directory-handle fsyncs issued ([`crate::Storage::sync_dir`]):
    /// what makes extent creation (and renames) survive power loss.
    pub dir_syncs: u64,
}

impl std::ops::AddAssign for StorageMetrics {
    fn add_assign(&mut self, d: Self) {
        self.pages_read += d.pages_read;
        self.pages_written += d.pages_written;
        self.bytes_read += d.bytes_read;
        self.bytes_written += d.bytes_written;
        self.read_ns += d.read_ns;
        self.write_ns += d.write_ns;
        self.cache_hits += d.cache_hits;
        self.cache_misses += d.cache_misses;
        self.cache_evictions += d.cache_evictions;
        self.extent_syncs += d.extent_syncs;
        self.dir_syncs += d.dir_syncs;
    }
}

impl StorageMetrics {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn delta(&self, earlier: &StorageMetrics) -> StorageMetrics {
        StorageMetrics {
            pages_read: self.pages_read.saturating_sub(earlier.pages_read),
            pages_written: self.pages_written.saturating_sub(earlier.pages_written),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            read_ns: self.read_ns.saturating_sub(earlier.read_ns),
            write_ns: self.write_ns.saturating_sub(earlier.write_ns),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
            extent_syncs: self.extent_syncs.saturating_sub(earlier.extent_syncs),
            dir_syncs: self.dir_syncs.saturating_sub(earlier.dir_syncs),
        }
    }

    /// Total virtual I/O time (read + write).
    pub fn io_ns(&self) -> u64 {
        self.read_ns + self.write_ns
    }

    /// Total page operations (reads + writes).
    pub fn page_ops(&self) -> u64 {
        self.pages_read + self.pages_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_counterwise() {
        let a = StorageMetrics {
            pages_read: 10,
            pages_written: 4,
            bytes_read: 4096,
            bytes_written: 2048,
            read_ns: 100,
            write_ns: 50,
            cache_hits: 9,
            cache_misses: 6,
            cache_evictions: 3,
            extent_syncs: 8,
            dir_syncs: 5,
        };
        let b = StorageMetrics {
            pages_read: 3,
            pages_written: 1,
            bytes_read: 1024,
            bytes_written: 512,
            read_ns: 20,
            write_ns: 10,
            cache_hits: 4,
            cache_misses: 2,
            cache_evictions: 1,
            extent_syncs: 3,
            dir_syncs: 2,
        };
        let d = a.delta(&b);
        assert_eq!(d.pages_read, 7);
        assert_eq!(d.pages_written, 3);
        assert_eq!(d.bytes_read, 3072);
        assert_eq!(d.bytes_written, 1536);
        assert_eq!(d.io_ns(), 120);
        assert_eq!(d.page_ops(), 10);
        assert_eq!(d.cache_hits, 5);
        assert_eq!(d.cache_misses, 4);
        assert_eq!(d.cache_evictions, 2);
        assert_eq!(d.extent_syncs, 5);
        assert_eq!(d.dir_syncs, 3);
    }

    #[test]
    fn delta_saturates() {
        let small = StorageMetrics::default();
        let big = StorageMetrics {
            pages_read: 5,
            ..Default::default()
        };
        assert_eq!(small.delta(&big).pages_read, 0);
    }

    #[test]
    fn atomic_snapshot_roundtrip() {
        let m = AtomicMetrics::default();
        m.pages_read.store(7, Ordering::Relaxed);
        m.write_ns.store(99, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.pages_read, 7);
        assert_eq!(s.write_ns, 99);
    }
}
