//! Spans recorded from outside the engine, and their reduction.
//!
//! [`TracingStorage`] decorates any `Storage` and records one span per
//! page read, page write, extent sync and directory sync; the replay loop
//! records one root span per engine call. A traced stack is
//! `TracingStorage(BlockCache(TracingStorage(FileDisk)))`, so a root's
//! children are calls at the cache boundary and their children are device
//! calls. The traced run is single-threaded, which makes two things true:
//! the sink can be thread-local (no lock on the recorded path), and the
//! self times of all spans must add up to the time the roots cover.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use crate::adapter::{
    CostModel, Extent, IoCharge, PowerCutPoint, Storage, StorageMetrics, VirtualClock,
};
use crate::stats::percentile_ns;

/// What a span timed. Roots are engine calls; the rest are storage calls,
/// named by the boundary ([`Boundary`]) they were recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Get,
    Put,
    Delete,
    Scan,
    MaintainStep,
    Commit,
    Read(Boundary),
    Write(Boundary),
    SyncExtent(Boundary),
    SyncDir(Boundary),
}

/// Where in the storage stack a [`TracingStorage`] sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Above the block cache: what the LSM layer calls.
    Cache,
    /// Below the block cache: what reaches the file device.
    Device,
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `op` is the ordinal of the root it belongs to, the
/// identifier all spans of one engine call share.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub start: Instant,
    pub end: Instant,
    pub parent: u32,
    pub op: u32,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end.duration_since(self.start).as_nanos() as u64
    }
}

/// The thread's span sink: spans in start order, and the innermost span
/// still open. Between the clock read that ends one root and the one that
/// starts the next lies the sink's own bookkeeping, so it is kept short:
/// raw `Instant`s, no stack, nothing converted until the reduction.
struct Sink {
    spans: Vec<Span>,
    /// When recording started; the placeholder a span holds until its
    /// clock reads happen.
    epoch: Option<Instant>,
    current: u32,
    roots: u32,
    recording: bool,
}

thread_local! {
    static SINK: RefCell<Sink> = const {
        RefCell::new(Sink {
            spans: Vec::new(),
            epoch: None,
            current: NO_PARENT,
            roots: 0,
            recording: false,
        })
    };
}

/// Starts recording on this thread, dropping anything recorded before.
/// `expected_spans` sizes the buffer, which is written once here so that
/// neither its growth nor its page faults land between two recorded spans.
pub fn start_recording(expected_spans: usize) {
    SINK.with_borrow_mut(|s| {
        let epoch = Instant::now();
        let filler = Span {
            kind: SpanKind::Get,
            start: epoch,
            end: epoch,
            parent: NO_PARENT,
            op: 0,
        };
        s.spans = vec![filler; expected_spans];
        s.spans.clear();
        s.epoch = Some(epoch);
        s.current = NO_PARENT;
        s.roots = 0;
        s.recording = true;
    });
}

/// Stops recording and hands over the spans recorded on this thread.
pub fn stop_recording() -> Vec<Span> {
    SINK.with_borrow_mut(|s| {
        s.recording = false;
        debug_assert_eq!(s.current, NO_PARENT, "span left open");
        std::mem::take(&mut s.spans)
    })
}

/// Opens a span; a no-op unless this thread is recording. The clock is
/// read last, so the sink's own bookkeeping lands outside the span.
fn enter(kind: SpanKind) {
    SINK.with_borrow_mut(|s| {
        if !s.recording {
            return;
        }
        let parent = s.current;
        s.roots += u32::from(parent == NO_PARENT);
        s.current = s.spans.len() as u32;
        let epoch = s.epoch.expect("recording has an epoch");
        s.spans.push(Span {
            kind,
            start: epoch,
            end: epoch,
            parent,
            op: s.roots.saturating_sub(1),
        });
        s.spans[s.current as usize].start = Instant::now();
    });
}

/// Closes the innermost open span. The clock is read first.
fn exit() {
    let now = Instant::now();
    SINK.with_borrow_mut(|s| {
        if !s.recording {
            return;
        }
        let span = &mut s.spans[s.current as usize];
        span.end = now;
        s.current = span.parent;
    });
}

/// Runs `f` inside a span of `kind`.
pub fn span<R>(kind: SpanKind, f: impl FnOnce() -> R) -> R {
    enter(kind);
    let r = f();
    exit();
    r
}

/// A `Storage` decorator that forwards every call unchanged and records a
/// span around the four calls that do I/O.
pub struct TracingStorage {
    inner: Arc<dyn Storage>,
    at: Boundary,
}

impl TracingStorage {
    pub fn new(inner: Arc<dyn Storage>, at: Boundary) -> Arc<Self> {
        Arc::new(Self { inner, at })
    }
}

impl Storage for TracingStorage {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn allocate(&self, pages: u32) -> Extent {
        self.inner.allocate(pages)
    }

    fn write_page(&self, ext: Extent, idx: u32, data: &[u8]) -> IoCharge {
        span(SpanKind::Write(self.at), || {
            self.inner.write_page(ext, idx, data)
        })
    }

    fn try_read_page(&self, ext: Extent, idx: u32, buf: &mut Vec<u8>) -> std::io::Result<IoCharge> {
        span(SpanKind::Read(self.at), || {
            self.inner.try_read_page(ext, idx, buf)
        })
    }

    fn read_page(&self, ext: Extent, idx: u32, buf: &mut Vec<u8>) -> IoCharge {
        span(SpanKind::Read(self.at), || {
            self.inner.read_page(ext, idx, buf)
        })
    }

    fn sync_extent(&self, ext: Extent) -> std::io::Result<IoCharge> {
        span(SpanKind::SyncExtent(self.at), || {
            self.inner.sync_extent(ext)
        })
    }

    fn sync_dir(&self) -> std::io::Result<IoCharge> {
        span(SpanKind::SyncDir(self.at), || self.inner.sync_dir())
    }

    fn collect_orphans(&self, live: &[u64]) -> std::io::Result<Vec<u64>> {
        self.inner.collect_orphans(live)
    }

    fn arm_power_cut(&self, point: PowerCutPoint, after: u64) {
        self.inner.arm_power_cut(point, after);
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

/// Durations and self times of the spans of one kind.
#[derive(Debug, Default)]
pub struct KindTimes {
    pub durations_ns: Vec<u64>,
    pub self_ns: u64,
}

impl KindTimes {
    pub fn p(&mut self, p: f64) -> f64 {
        percentile_ns(&mut self.durations_ns, p)
    }
}

/// The reduced trace.
#[derive(Debug, Default)]
pub struct Reduced {
    pub get: KindTimes,
    pub put: KindTimes,
    pub delete: KindTimes,
    pub scan: KindTimes,
    pub maintain_step: KindTimes,
    pub commit: KindTimes,
    /// Cache-boundary reads that no device read answered: cache hits.
    pub cache_hit: KindTimes,
    /// Cache-boundary reads with a device read under them, minus that
    /// device read: what a miss costs on top of the device.
    pub cache_miss_overhead: KindTimes,
    /// Self time of every cache-boundary span (the cache's own work).
    pub cache_self_ns: u64,
    pub file_read: KindTimes,
    pub file_write: KindTimes,
    pub file_sync_extent: KindTimes,
    pub file_sync_dir: KindTimes,
    /// Time the roots cover: the sum of their durations.
    pub root_ns: u64,
    /// First root start to last root end.
    pub wall_ns: u64,
    pub roots: u64,
    /// Spans whose children outlast them, or whose parent belongs to
    /// another operation — there must be none.
    pub malformed: u64,
}

impl Reduced {
    /// Self time of the engine calls: what the LSM layer spends outside
    /// the storage calls under it.
    pub fn lsm_self_ns(&self) -> u64 {
        [
            &self.get,
            &self.put,
            &self.delete,
            &self.scan,
            &self.maintain_step,
            &self.commit,
        ]
        .iter()
        .map(|k| k.self_ns)
        .sum()
    }

    /// Self time of the device-boundary spans.
    pub fn file_self_ns(&self) -> u64 {
        self.file_read.self_ns
            + self.file_write.self_ns
            + self.file_sync_extent.self_ns
            + self.file_sync_dir.self_ns
    }

    /// Share of the traced wall no span covers: the replay loop itself.
    pub fn unattributed_share(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.wall_ns.saturating_sub(self.root_ns) as f64 / self.wall_ns as f64
    }
}

/// Reduces spans to per-kind durations and self times (a span's duration
/// minus the part its children cover).
pub fn reduce(spans: &[Span]) -> Reduced {
    let mut r = Reduced::default();
    let mut child_ns = vec![0u64; spans.len()];
    let mut device_read_under = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let d = s.ns();
            r.malformed += u64::from(spans[s.parent as usize].op != s.op);
            child_ns[s.parent as usize] += d;
            if s.kind == SpanKind::Read(Boundary::Device) {
                device_read_under[s.parent as usize] += d;
            }
        }
    }
    let mut covered: Option<(Instant, Instant)> = None;
    for (i, s) in spans.iter().enumerate() {
        let dur = s.ns();
        r.malformed += u64::from(child_ns[i] > dur);
        let own = dur.saturating_sub(child_ns[i]);
        if s.parent == NO_PARENT {
            r.roots += 1;
            r.root_ns += dur;
            covered = Some(match covered {
                None => (s.start, s.end),
                Some((first, last)) => (first.min(s.start), last.max(s.end)),
            });
        }
        let times = match s.kind {
            SpanKind::Get => &mut r.get,
            SpanKind::Put => &mut r.put,
            SpanKind::Delete => &mut r.delete,
            SpanKind::Scan => &mut r.scan,
            SpanKind::MaintainStep => &mut r.maintain_step,
            SpanKind::Commit => &mut r.commit,
            SpanKind::Read(Boundary::Device) => &mut r.file_read,
            SpanKind::Write(Boundary::Device) => &mut r.file_write,
            SpanKind::SyncExtent(Boundary::Device) => &mut r.file_sync_extent,
            SpanKind::SyncDir(Boundary::Device) => &mut r.file_sync_dir,
            SpanKind::Read(Boundary::Cache) => {
                r.cache_self_ns += own;
                if device_read_under[i] == 0 {
                    &mut r.cache_hit
                } else {
                    r.cache_miss_overhead
                        .durations_ns
                        .push(dur.saturating_sub(device_read_under[i]));
                    continue;
                }
            }
            SpanKind::Write(Boundary::Cache)
            | SpanKind::SyncExtent(Boundary::Cache)
            | SpanKind::SyncDir(Boundary::Cache) => {
                r.cache_self_ns += own;
                continue;
            }
        };
        times.durations_ns.push(dur);
        times.self_ns += own;
    }
    if let Some((first, last)) = covered {
        r.wall_ns = last.duration_since(first).as_nanos() as u64;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_roots() {
        let epoch = Instant::now();
        let at = |ns: u64| epoch + std::time::Duration::from_nanos(ns);
        let mk = |kind, start_ns, end_ns, parent, op| Span {
            kind,
            start: at(start_ns),
            end: at(end_ns),
            parent,
            op,
        };
        let spans = [
            mk(SpanKind::Get, 0, 100, NO_PARENT, 0),
            mk(SpanKind::Read(Boundary::Cache), 10, 90, 0, 0),
            mk(SpanKind::Read(Boundary::Device), 20, 70, 1, 0),
            mk(SpanKind::Get, 110, 150, NO_PARENT, 1),
            mk(SpanKind::Read(Boundary::Cache), 120, 130, 3, 1),
        ];
        let mut r = reduce(&spans);
        assert_eq!(r.roots, 2);
        assert_eq!(r.root_ns, 140);
        assert_eq!(r.wall_ns, 150);
        assert_eq!(r.malformed, 0);
        assert_eq!(r.get.self_ns, 20 + 30);
        assert_eq!(r.cache_self_ns, 30 + 10);
        assert_eq!(r.file_self_ns(), 50);
        assert_eq!(
            r.lsm_self_ns() + r.cache_self_ns + r.file_self_ns(),
            r.root_ns
        );
        assert_eq!(r.cache_hit.durations_ns, vec![10]);
        assert_eq!(r.cache_miss_overhead.durations_ns, vec![30]);
        assert_eq!(r.get.p(50.0), 40.0);
        assert!((r.unattributed_share() - 10.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn a_child_outlasting_its_parent_is_flagged() {
        let epoch = Instant::now();
        let at = |ns: u64| epoch + std::time::Duration::from_nanos(ns);
        let spans = [
            Span {
                kind: SpanKind::Put,
                start: at(0),
                end: at(10),
                parent: NO_PARENT,
                op: 0,
            },
            Span {
                kind: SpanKind::Write(Boundary::Cache),
                start: at(0),
                end: at(50),
                parent: 0,
                op: 0,
            },
        ];
        assert_eq!(reduce(&spans).malformed, 1);
    }
}
