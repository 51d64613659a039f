//! One run of one workload: set-up, the measured phase, the correctness
//! checks, and (with `--trace 1`) the traced replay and the probes.
//!
//! End-to-end metrics always come from the untraced measured phase; the
//! traced work runs after it, in the same process.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::adapter::{
    encode_key, probe_leaves, probe_wal, CommitAt, Engine, Key, LevelStatsSnapshot, MissionReport,
    Operation, Pair, ReplayTree, ServeOutcome, StorageMetrics, TreeStatsSnapshot, KEY_LEN,
    MISSION_OPS, SHARDS,
};
use crate::env::{peak_rss_mb, process_cpu_ns};
use crate::metrics::Values;
use crate::stats::{median, percentile_us};
use crate::trace::{self, Reduced};
use crate::util::{Fnv1a, SplitMix64};
use crate::workloads::{fingerprint, Counts, Driver, Missions, Workload, SESSIONS};

/// Point lookups sampled by each correctness check.
const CHECK_GETS: u64 = 2000;
/// Share of the measured missions the traced replay repeats.
const REPLAY_SHARE: f64 = 0.2;
/// `trace.unattributed_share` above this means spans are missing.
pub const MAX_UNATTRIBUTED: f64 = 0.03;
/// An fsync faster than this is not reaching a device.
const MIN_DURABLE_SYNC_US: f64 = 5.0;
/// Set-ups repeat until they add up to this long (and [`MAX_SETUPS`] at most).
const MIN_SETUP_TOTAL_S: f64 = 0.3;
const MAX_SETUPS: usize = 30;
/// Served lookups the frontend round-trip probe times.
const ROUNDTRIPS: usize = 20_000;

/// What to run.
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// 1, or 20 for `--quick`.
    pub divisor: u64,
    pub trace: bool,
    /// Times the set-up is repeated at least; `setup_s` is the median.
    pub setups: usize,
    /// Parent of this run's data directory.
    pub dir: PathBuf,
}

/// What a run measured.
pub struct Row {
    pub workload: &'static str,
    pub seed: u64,
    pub traffic_fp: u64,
    pub missions: usize,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Values,
    /// Empty unless the run traced.
    pub per_layer: Values,
    /// `Some(false)` when the WAL probe saw fsyncs too fast to be real.
    pub durable_device: Option<bool>,
    pub warnings: Vec<String>,
}

/// Where runs keep their data unless `--dir` says otherwise: beside the
/// executable, which is inside the build directory of the checkout.
pub fn default_data_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("ledger-data")
}

/// A fresh, empty directory under `parent`, unique to this call: runs and
/// tests of one process never share one.
pub fn scratch_dir_in(parent: &Path, tag: &str) -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = parent.join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
pub fn scratch_dir(tag: &str) -> PathBuf {
    scratch_dir_in(&default_data_dir(), tag).unwrap()
}

/// Removes a run's data directory when the run ends, however it ends.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `BTreeMap` shadow model every result is checked against.
#[derive(Default)]
struct Shadow {
    live: BTreeMap<Key, Key>,
    /// Key + value bytes of the live pairs, the denominator of space
    /// amplification.
    live_bytes: u64,
    /// Key + value bytes handed to the store so far (a delete hands it a
    /// key), the denominator of write amplification.
    user_bytes: u64,
}

impl Shadow {
    fn load(pairs: &[Pair]) -> Self {
        let mut s = Shadow::default();
        for (k, v) in pairs {
            s.put(k, v);
        }
        s
    }

    fn put(&mut self, key: &Key, value: &Key) {
        self.user_bytes += (key.len() + value.len()) as u64;
        self.live_bytes += (key.len() + value.len()) as u64;
        if let Some(old) = self.live.insert(key.clone(), value.clone()) {
            self.live_bytes -= (key.len() + old.len()) as u64;
        }
    }

    fn apply(&mut self, op: &Operation) {
        match op {
            Operation::Put { key, value } => self.put(key, value),
            Operation::Delete { key } => {
                self.user_bytes += key.len() as u64;
                if let Some(old) = self.live.remove(key) {
                    self.live_bytes -= (key.len() + old.len()) as u64;
                }
            }
            Operation::Get { .. } | Operation::Scan { .. } => {}
        }
    }
}

/// Sampled gets (live, deleted and never-written keys) and one full scan
/// against the model. Returns `(reads attempted, mismatches)`.
fn check(engine: &mut Engine, shadow: &Shadow, key_space: u64, rng: &mut SplitMix64) -> (u64, u64) {
    let mut failed = 0;
    for i in 0..CHECK_GETS {
        // Every fifth key lies past the loaded key space: never written.
        let id = rng.below(key_space) + if i % 5 == 4 { key_space } else { 0 };
        let key = encode_key(id, KEY_LEN);
        failed += u64::from(engine.get(&key).as_ref() != shadow.live.get(&key));
    }
    let scanned = engine.scan_all();
    failed += scanned.len().abs_diff(shadow.live.len()) as u64;
    failed += scanned
        .iter()
        .zip(&shadow.live)
        .filter(|((k, v), (mk, mv))| k != *mk || v != *mv)
        .count() as u64;
    (CHECK_GETS + 1, failed)
}

/// Sums over the measured missions' reports.
#[derive(Default)]
struct MissionSums {
    /// Wall composition of virtual time: each mission's slowest shard.
    virtual_wall_ns: u64,
    /// Virtual time summed over shards, per operation, of each mission.
    virtual_ns_per_op: Vec<f64>,
    model_update_ns: Vec<u64>,
    process_ns: u64,
    commit_virtual_ns: u64,
    wal_acked: u64,
    shard_ops: Vec<u64>,
    policy_changes: u64,
    policies: Vec<u32>,
}

impl MissionSums {
    fn record(&mut self, r: &MissionReport) {
        self.virtual_wall_ns += r.end_to_end_ns;
        self.virtual_ns_per_op.push(r.busy_ns_per_op());
        self.model_update_ns.push(r.model_update_ns);
        self.process_ns += r.real_process_ns;
        self.commit_virtual_ns += r.commit_ns;
        self.wal_acked += r.wal_synced;
        if self.shard_ops.len() < r.shard_ops.len() {
            self.shard_ops.resize(r.shard_ops.len(), 0);
        }
        for (sum, n) in self.shard_ops.iter_mut().zip(&r.shard_ops) {
            *sum += n;
        }
        // A level's policy differing from the mission before; a level
        // that did not exist then has not changed.
        let changed = |(i, k): (usize, &u32)| self.policies.get(i).is_some_and(|old| old != k);
        self.policy_changes += r
            .policies_after
            .iter()
            .enumerate()
            .filter(|&p| changed(p))
            .count() as u64;
        self.policies.clone_from(&r.policies_after);
    }
}

/// Counters windowed over the measured phase, plus the end state.
struct Window {
    stats: TreeStatsSnapshot,
    storage: StorageMetrics,
    /// Wall composition of the shards' virtual clocks: the slowest shard.
    virtual_wall_ns: u64,
    /// Bytes handed to the store before the window opened.
    user_bytes_before: u64,
    lifetime_pages_written: u64,
    page_size: u64,
    live_pages: u64,
    runs: u64,
    levels: u64,
}

struct WindowStart {
    shards: Vec<TreeStatsSnapshot>,
    storage: StorageMetrics,
    user_bytes: u64,
}

impl WindowStart {
    fn open(engine: &Engine, shadow: &Shadow) -> Self {
        Self {
            shards: engine.shard_stats(),
            storage: engine.storage_metrics(),
            user_bytes: shadow.user_bytes,
        }
    }

    fn close(self, engine: &Engine) -> Window {
        let end = engine.shard_stats();
        let deltas: Vec<TreeStatsSnapshot> = end
            .iter()
            .zip(&self.shards)
            .map(|(e, s)| e.delta(s))
            .collect();
        let storage = engine.storage_metrics();
        let (runs, levels) = engine.runs_and_levels();
        Window {
            virtual_wall_ns: deltas.iter().map(|d| d.clock_ns).max().unwrap_or(0),
            user_bytes_before: self.user_bytes,
            stats: TreeStatsSnapshot::merge_all(&deltas),
            lifetime_pages_written: storage.pages_written,
            storage: storage.delta(&self.storage),
            page_size: engine.page_size() as u64,
            live_pages: engine.live_pages(),
            runs,
            levels,
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the measured phase produced, whichever driver ran it.
struct Measured {
    ops: u64,
    /// Sum of the timed calls (`run_mission` calls, or the serving window).
    wall_ns: u64,
    cpu_ns: u64,
    /// Wall of each caller's unit of waiting: a `run_mission` call, or
    /// `SERVED_BATCH` consecutive requests of one client.
    mission_ns: Vec<u64>,
    sums: MissionSums,
    serve: Option<ServeOutcome>,
    window: Window,
    /// Device bytes live per live user byte, sampled at every mission
    /// boundary (at the end of a serving window).
    space_amp: Vec<f64>,
    gen_ns: u64,
    fp: Fnv1a,
    request_errors: u64,
    reply_mismatches: u64,
}

impl Measured {
    fn level_sum(&self, f: fn(&LevelStatsSnapshot) -> u64) -> f64 {
        self.window.stats.levels.iter().map(f).sum::<u64>() as f64
    }
}

fn open_engine(w: &Workload, store: &Path) -> Result<Engine, String> {
    match w.driver {
        Driver::Paper => Ok(Engine::open_paper()),
        _ => Engine::open_sharded(store, w.cache_pages),
    }
}

pub fn run(args: &RunArgs) -> Result<Row, String> {
    let w = &args.workload;
    let counts = w.counts(args.seconds, args.divisor);
    let root = scratch_dir_in(&args.dir, w.name)?;
    let _cleanup = DataDir(root.clone());
    let store = root.join("store");

    // Inputs first: generation is the ledger's work, not the system's, and
    // stays outside every timed call.
    let pairs = w.load_pairs(args.seed);
    let mut stream = w.missions(args.seed, counts);
    let (warm_missions, warm_scripts, scripts) = match w.driver {
        Driver::Serving => {
            let (warm, measured) = w.scripts(args.seed, counts);
            (Vec::new(), warm, measured)
        }
        _ => (stream.take(counts.warmup), Vec::new(), Vec::new()),
    };
    let mut shadow = Shadow::load(&pairs);
    let mut warm_ops = 0;
    for op in warm_missions.iter().chain(&warm_scripts).flatten() {
        shadow.apply(op);
        warm_ops += 1;
    }

    // Set-up: open and bulk load; the last store is kept. Repeated `setups`
    // times, and further while the repetitions add up to less than
    // MIN_SETUP_TOTAL_S, so the median of a 15 ms set-up rests on twenty
    // samples and not on three.
    let mut setup_s = Vec::new();
    let mut engine = None;
    while setup_s.len() < args.setups.max(1)
        || (setup_s.iter().sum::<f64>() < MIN_SETUP_TOTAL_S && setup_s.len() < MAX_SETUPS)
    {
        // The previous incarnation closes before its directory is reused.
        drop(engine.take());
        let load = pairs.clone();
        let t = Instant::now();
        let mut e = open_engine(w, &store)?;
        e.bulk_load(load);
        setup_s.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");

    // Warm-up: the measured traffic's first tenth, once, so that caches
    // are filled and whatever is built on first use is built. It is
    // fsync-bound like the measured phase and is kept out of `setup_s`,
    // which it would otherwise dominate and make as unsteady as the disk.
    let t = Instant::now();
    for ops in &warm_missions {
        engine.run_mission(ops)?;
    }
    let mut request_errors = 0;
    if !warm_scripts.is_empty() {
        let out = engine.serve_scripts(&warm_scripts)?;
        request_errors = out.clients.iter().map(|c| c.errors).sum();
    }
    let warmup_s = t.elapsed().as_secs_f64();

    let mut m = match w.driver {
        Driver::Serving => measure_serving(&mut engine, &scripts, &mut shadow)?,
        _ => measure_missions(&mut engine, &mut stream, counts, &mut shadow)?,
    };
    m.request_errors += request_errors;

    // Correctness: the model now, and again after a restart from disk, so
    // every acknowledged write is read back from the files.
    let mut rng = SplitMix64::new(args.seed ^ 0x6c65_6467_6572);
    let (mut attempted, mut failed) = check(&mut engine, &shadow, w.entries, &mut rng);
    let mut recovery = None;
    if w.driver != Driver::Paper {
        drop(engine);
        let t = Instant::now();
        engine = Engine::recover_sharded(&store, w.cache_pages)?;
        let recover_ms = t.elapsed().as_secs_f64() * 1e3;
        recovery = Some((recover_ms, engine.tree_stats()));
        let (a, f) = check(&mut engine, &shadow, w.entries, &mut rng);
        attempted += a;
        failed += f;
    }

    let page = m.window.page_size as f64;
    let mut e2e = Values::default();
    e2e.set("setup_s", median(&setup_s));
    e2e.set(
        "throughput_ops_s",
        ratio(m.ops as f64 * 1e9, m.wall_ns as f64),
    );
    e2e.set(
        "virtual_ns_per_op",
        ratio(m.window.stats.busy_ns as f64, m.ops as f64),
    );
    e2e.set(
        "read_amp",
        ratio(
            m.level_sum(|l| l.lookup_pages),
            m.window.stats.lookups as f64,
        ),
    );
    e2e.set(
        "write_amp",
        ratio(
            m.window.lifetime_pages_written as f64 * page,
            shadow.user_bytes as f64,
        ),
    );
    e2e.set(
        "space_amp",
        m.space_amp.iter().sum::<f64>() / m.space_amp.len().max(1) as f64,
    );
    e2e.set("peak_rss_mb", peak_rss_mb());

    let mut row = Row {
        workload: w.name,
        seed: args.seed,
        traffic_fp: m.fp.finish(),
        missions: m.mission_ns.len(),
        attempted: attempted + warm_ops + m.ops,
        failed: failed + m.request_errors + m.reply_mismatches,
        end_to_end: e2e,
        per_layer: Values::default(),
        durable_device: None,
        warnings: Vec::new(),
    };
    if args.trace {
        let mut pl = Values::default();
        pl.set("core.warmup_s", warmup_s);
        counted(&mut pl, w, &mut m, &shadow, recovery);
        let sync_us_p50 = probed(&mut pl, w, &m, engine, &root, &mut row)?;
        let mut replayed = replay(w, args.seed, counts, &pairs, &root)?;
        traced(&mut pl, &mut replayed, &mut row);
        // What the frontend adds on top of the engine call and the fsync.
        let (mut get_overhead_us, mut put_overhead_us) = (0.0, 0.0);
        if w.driver == Driver::Serving {
            let served_p50 = |name| pl.get(name).unwrap_or(0.0);
            let (get_ns, put_ns) = (replayed.traced.get.p(50.0), replayed.traced.put.p(50.0));
            get_overhead_us = served_p50("frontend.get_p50_us") - get_ns / 1e3;
            put_overhead_us = served_p50("frontend.put_p50_us") - put_ns / 1e3 - sync_us_p50;
        }
        pl.set("frontend.get_overhead_us", get_overhead_us);
        pl.set("frontend.put_overhead_us", put_overhead_us);
        row.per_layer = pl;
    }
    Ok(row)
}

/// Per-layer metrics from counters windowed over the measured phase
/// itself (source C): free, and exact on mission workloads.
fn counted(
    pl: &mut Values,
    w: &Workload,
    m: &mut Measured,
    shadow: &Shadow,
    recovery: Option<(f64, TreeStatsSnapshot)>,
) {
    let ops = m.ops as f64;
    let wall = m.wall_ns as f64;
    let served = w.driver == Driver::Serving;
    let tuner_ns: u64 = m.sums.model_update_ns.iter().sum();
    let tuner_share = ratio(tuner_ns as f64, wall);
    let process_share = ratio(m.sums.process_ns as f64, wall);
    pl.set("core.tuner_share", tuner_share);
    pl.set(
        "core.tuner.update_us_p50",
        percentile_us(&mut m.sums.model_update_ns, 50.0),
    );
    pl.set(
        "core.tuner.update_us_p99",
        percentile_us(&mut m.sums.model_update_ns, 99.0),
    );
    pl.set("core.tuner.policy_changes", m.sums.policy_changes as f64);
    pl.set(
        "core.tuner.converged_virtual_ns_per_op",
        if w.driver == Driver::Paper {
            converged_mean(&m.sums.virtual_ns_per_op)
        } else {
            0.0
        },
    );
    pl.set("core.cpu_ns_per_op", ratio(m.cpu_ns as f64, ops));
    pl.set(
        "core.mission_p50_us",
        percentile_us(&mut m.mission_ns, 50.0),
    );
    pl.set(
        "core.mission_p99_us",
        percentile_us(&mut m.mission_ns, 99.0),
    );
    pl.set("core.process_share", process_share);
    pl.set(
        "core.report_share",
        if served {
            0.0
        } else {
            (1.0 - process_share - tuner_share).max(0.0)
        },
    );
    let busiest_shard = m.sums.shard_ops.iter().copied().max().unwrap_or(0) as f64;
    pl.set(
        "core.shard_imbalance",
        ratio(
            busiest_shard * m.sums.shard_ops.len() as f64,
            m.sums.shard_ops.iter().sum::<u64>() as f64,
        ),
    );
    let virtual_wall_ns = if served {
        m.window.virtual_wall_ns
    } else {
        m.sums.virtual_wall_ns
    };
    pl.set(
        "core.virtual_wall_ns_per_op",
        ratio(virtual_wall_ns as f64, ops),
    );
    pl.set(
        "core.commit_virtual_ns_per_mission",
        ratio(m.sums.commit_virtual_ns as f64, m.mission_ns.len() as f64),
    );
    let (recover_ms, recovered) = recovery.unwrap_or_default();
    pl.set("core.recover_ms", recover_ms);
    pl.set("core.recover_runs", recovered.runs_recovered as f64);
    pl.set("core.recover_replayed", recovered.replayed_tail as f64);

    let (mut get_ns, mut put_ns): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
    let mut acked_writes = m.sums.wal_acked;
    let snapshot = m.serve.as_ref().map(|out| {
        for c in &out.clients {
            get_ns.extend(&c.get_ns);
            put_ns.extend(&c.write_ns);
        }
        acked_writes = out.snapshot.acked_writes;
        &out.snapshot
    });
    pl.set("frontend.get_p50_us", percentile_us(&mut get_ns, 50.0));
    pl.set("frontend.get_p90_us", percentile_us(&mut get_ns, 90.0));
    pl.set("frontend.get_p99_us", percentile_us(&mut get_ns, 99.0));
    pl.set("frontend.put_p50_us", percentile_us(&mut put_ns, 50.0));
    pl.set("frontend.put_p90_us", percentile_us(&mut put_ns, 90.0));
    pl.set("frontend.put_p99_us", percentile_us(&mut put_ns, 99.0));
    pl.set(
        "frontend.writes_per_commit",
        snapshot.map_or(0.0, |s| s.mean_batch_writes()),
    );
    pl.set(
        "frontend.queue_stalls",
        snapshot.map_or(0.0, |s| s.stalls as f64),
    );
    pl.set(
        "frontend.queue_stall_us_per_op",
        snapshot.map_or(0.0, |s| ratio(s.stall_ns as f64 / 1e3, s.requests() as f64)),
    );
    pl.set(
        "frontend.shard_imbalance",
        snapshot.map_or(0.0, |s| s.shard_imbalance()),
    );

    let s = &m.window.stats;
    let page = m.window.page_size as f64;
    let probes = m.level_sum(|l| l.probes);
    let compact_written = m.level_sum(|l| l.compact_pages_written);
    let flushes = s.flushes as f64;
    pl.set(
        "lsm.wal.fsyncs_per_acked_write",
        ratio(s.wal_syncs as f64, acked_writes as f64),
    );
    let measured_user_bytes = (shadow.user_bytes - m.window.user_bytes_before) as f64;
    pl.set(
        "lsm.write_amp_measured",
        ratio(compact_written * page, measured_user_bytes),
    );
    pl.set("lsm.bloom_probes_per_get", ratio(probes, s.lookups as f64));
    pl.set(
        "lsm.bloom_fp_rate",
        ratio(m.level_sum(|l| l.false_positives), probes),
    );
    pl.set(
        "lsm.runs_per_level_end",
        ratio(m.window.runs as f64, m.window.levels as f64),
    );
    pl.set("lsm.flushes_per_kop", ratio(flushes * 1e3, ops));
    pl.set(
        "lsm.compact_pages_written_per_kop",
        ratio(compact_written * 1e3, ops),
    );
    pl.set("lsm.bg_compactions", s.bg_compactions as f64);
    pl.set(
        "lsm.manifest_edits_per_flush",
        ratio(s.manifest_edits as f64, flushes),
    );
    pl.set(
        "lsm.extent_syncs_per_flush",
        ratio(s.extent_syncs as f64, flushes),
    );
    pl.set(
        "lsm.dir_syncs_per_flush",
        ratio(s.dir_syncs as f64, flushes),
    );
    pl.set("lsm.stall_virtual_ns_per_op", ratio(s.stall_ns as f64, ops));
    pl.set(
        "lsm.pending_compaction_bytes_end",
        s.pending_compaction_bytes as f64,
    );
    let cache_reads = (s.cache_hits + s.cache_misses) as f64;
    pl.set(
        "storage.cache.hit_ratio",
        ratio(s.cache_hits as f64, cache_reads),
    );
    pl.set(
        "storage.cache.evictions_per_op",
        ratio(s.cache_evictions as f64, ops),
    );
    pl.set(
        "storage.pages_read_per_op",
        ratio(m.window.storage.pages_read as f64, ops),
    );
    pl.set(
        "storage.pages_written_per_op",
        ratio(m.window.storage.pages_written as f64, ops),
    );
    pl.set("workload.gen_ns_per_op", ratio(m.gen_ns as f64, ops));
}

/// Per-layer metrics from short probes that time a layer's public
/// functions directly, after the measured phase (source P). Takes the
/// engine (the frontend probe is its last use) and returns the median fsync
/// of the data directory in µs, which a derived metric needs.
fn probed(
    pl: &mut Values,
    w: &Workload,
    m: &Measured,
    mut engine: Engine,
    root: &Path,
    row: &mut Row,
) -> Result<f64, String> {
    let roundtrip_us = if w.driver == Driver::Serving {
        percentile_us(&mut engine.frontend_roundtrips_ns(ROUNDTRIPS)?, 50.0)
    } else {
        0.0
    };
    pl.set("frontend.roundtrip_us_p50", roundtrip_us);
    drop(engine);

    let mut wal = probe_wal(root)?;
    let sync_us_p50 = percentile_us(&mut wal.sync_ns, 50.0);
    pl.set("lsm.wal.append_ns", wal.append_ns);
    pl.set("lsm.wal.sync_us_p50", sync_us_p50);
    pl.set("lsm.wal.sync_us_p90", percentile_us(&mut wal.sync_ns, 90.0));
    row.durable_device = Some(sync_us_p50 >= MIN_DURABLE_SYNC_US);
    if sync_us_p50 < MIN_DURABLE_SYNC_US {
        row.warnings.push(format!(
            "an fsync in the data directory takes {sync_us_p50:.1} us: no device is being \
             waited for, so every fsync-bound number of this run is meaningless"
        ));
    }

    let shards = if w.driver == Driver::Paper {
        1
    } else {
        SHARDS as u64
    };
    let leaves = probe_leaves(w.entries / shards);
    pl.set("lsm.bloom.contains_ns", leaves.bloom_contains_ns);
    pl.set("lsm.fence.locate_ns", leaves.fence_locate_ns);
    pl.set("lsm.memtable.insert_ns", leaves.memtable_insert_ns);
    pl.set("lsm.memtable.get_ns", leaves.memtable_get_ns);
    // A Bloom-positive probe is the one that searches the fences and reads
    // a page, so pages read by lookups count the fence searches.
    let wall = m.wall_ns as f64;
    let (probes, lookup_pages) = (m.level_sum(|l| l.probes), m.level_sum(|l| l.lookup_pages));
    pl.set(
        "lsm.bloom.est_share",
        ratio(probes * leaves.bloom_contains_ns, wall),
    );
    pl.set(
        "lsm.fence.est_share",
        ratio(lookup_pages * leaves.fence_locate_ns, wall),
    );
    Ok(sync_us_p50)
}

/// Per-layer metrics from the spans of the traced replay (source T). A
/// workload without a replay has no spans, and every metric reads 0.
fn traced(pl: &mut Values, r: &mut Replayed, row: &mut Row) {
    let t = &mut r.traced;
    let wall = t.wall_ns as f64;
    pl.set("lsm.get_ns_p50", t.get.p(50.0));
    pl.set("lsm.get_ns_p99", t.get.p(99.0));
    pl.set("lsm.scan_us_p50", t.scan.p(50.0) / 1e3);
    pl.set("lsm.put_ns_p50", t.put.p(50.0));
    pl.set("lsm.put_ns_p99", t.put.p(99.0));
    pl.set("lsm.maintain_step_us_p50", t.maintain_step.p(50.0) / 1e3);
    pl.set("lsm.maintain_step_us_p99", t.maintain_step.p(99.0) / 1e3);
    pl.set("lsm.commit_us_p50", t.commit.p(50.0) / 1e3);
    pl.set("lsm.self_share", ratio(t.lsm_self_ns() as f64, wall));
    pl.set(
        "lsm.replay.wall_ns_per_op",
        ratio(r.bare_wall_ns as f64, r.ops as f64),
    );
    pl.set("lsm.inline.put_ns_p99", r.inline.put.p(99.0));
    pl.set(
        "lsm.inline.wall_ns_per_op",
        ratio(r.inline.wall_ns as f64, r.ops as f64),
    );
    pl.set("storage.cache.hit_ns_p50", t.cache_hit.p(50.0));
    pl.set(
        "storage.cache.miss_overhead_ns_p50",
        t.cache_miss_overhead.p(50.0),
    );
    pl.set(
        "storage.cache.self_share",
        ratio(t.cache_self_ns as f64, wall),
    );
    pl.set("storage.file.read_ns_p50", t.file_read.p(50.0));
    pl.set("storage.file.read_ns_p99", t.file_read.p(99.0));
    pl.set("storage.file.write_ns_p50", t.file_write.p(50.0));
    pl.set(
        "storage.file.sync_extent_us_p50",
        t.file_sync_extent.p(50.0) / 1e3,
    );
    pl.set(
        "storage.file.sync_dir_us_p50",
        t.file_sync_dir.p(50.0) / 1e3,
    );
    pl.set("storage.file.share", ratio(t.file_self_ns() as f64, wall));
    pl.set("storage.file.fds_opened", r.fds_opened as f64);
    pl.set("storage.file.buffer_grows", r.buffer_grows as f64);
    pl.set(
        "trace.overhead_ratio",
        ratio(r.traced_wall_ns as f64, r.bare_wall_ns as f64),
    );
    pl.set("trace.unattributed_share", t.unattributed_share());
    if t.malformed > 0 {
        row.warnings.push(format!(
            "{} spans outlast their parent or belong to another operation",
            t.malformed
        ));
    }
    if t.unattributed_share() > MAX_UNATTRIBUTED {
        row.warnings.push(format!(
            "trace.unattributed_share is {:.4}, above {MAX_UNATTRIBUTED}: the replay loop \
             itself is too large a part of what the trace covers",
            t.unattributed_share()
        ));
    }
}

/// Mean over sessions of the mean virtual ns/op of each session's last
/// 40 % of missions — the paper's ranking metric (Table 3).
fn converged_mean(ns_per_op: &[f64]) -> f64 {
    let per_session = ns_per_op.len() / SESSIONS;
    if per_session == 0 {
        return 0.0;
    }
    let tail = ((per_session as f64 * 0.4).ceil() as usize).max(1);
    let means: Vec<f64> = ns_per_op
        .chunks(per_session)
        .take(SESSIONS)
        .map(|s| s[s.len() - tail..].iter().sum::<f64>() / tail as f64)
        .collect();
    means.iter().sum::<f64>() / means.len() as f64
}

/// The measured phase of a mission-driven workload. Missions are generated
/// a chunk at a time between the timed calls, so memory stays bounded and
/// the CPU reading around a chunk's execution excludes generation, the
/// shadow model and the fingerprint.
fn measure_missions(
    engine: &mut Engine,
    stream: &mut Missions,
    counts: Counts,
    shadow: &mut Shadow,
) -> Result<Measured, String> {
    // About sixteen CPU readings per run: each spans many 10 ms ticks.
    let chunk = (counts.missions / 16).clamp(1, 256);
    let start = WindowStart::open(engine, shadow);
    let page = engine.page_size() as f64;
    let mut sums = MissionSums::default();
    let (mut cpu_ns, mut gen_ns, mut left) = (0, 0, counts.missions);
    let mut fp = Fnv1a::default();
    let mut space_amp = Vec::with_capacity(counts.missions);
    let mut mission_ns = Vec::with_capacity(counts.missions);
    while left > 0 {
        let t = Instant::now();
        let missions = stream.take(chunk.min(left));
        gen_ns += t.elapsed().as_nanos() as u64;
        if missions.is_empty() {
            return Err("the mission stream ended early".into());
        }
        left -= missions.len();
        let mut live_pages = Vec::with_capacity(missions.len());
        let cpu0 = process_cpu_ns();
        for ops in &missions {
            let t = Instant::now();
            let report = engine.run_mission(ops)?;
            mission_ns.push(t.elapsed().as_nanos() as u64);
            sums.record(&report);
            live_pages.push(engine.live_pages());
        }
        cpu_ns += process_cpu_ns() - cpu0;
        for (ops, pages) in missions.iter().zip(live_pages) {
            fingerprint(&mut fp, ops);
            ops.iter().for_each(|op| shadow.apply(op));
            space_amp.push(ratio(pages as f64 * page, shadow.live_bytes as f64));
        }
    }
    let window = start.close(engine);
    Ok(Measured {
        ops: (counts.missions * MISSION_OPS) as u64,
        wall_ns: mission_ns.iter().sum(),
        cpu_ns,
        mission_ns,
        sums,
        serve: None,
        window,
        space_amp,
        gen_ns,
        fp,
        request_errors: 0,
        reply_mismatches: 0,
    })
}

/// The measured phase of the serving workload: one window, all clients.
fn measure_serving(
    engine: &mut Engine,
    scripts: &[Vec<Operation>],
    shadow: &mut Shadow,
) -> Result<Measured, String> {
    let start = WindowStart::open(engine, shadow);
    let cpu0 = process_cpu_ns();
    let out = engine.serve_scripts(scripts)?;
    let cpu_ns = process_cpu_ns() - cpu0;
    let window = start.close(engine);

    // Clients write disjoint key ranges and read only their own, so each
    // reply is checked by replaying that client's script on the model.
    let mut fp = Fnv1a::default();
    let mut reply_mismatches = 0;
    for (script, client) in scripts.iter().zip(&out.clients) {
        fingerprint(&mut fp, script);
        let mut replies = client.replies.iter();
        for op in script {
            if let Operation::Get { key } = op {
                let reply = replies.next().map(Option::as_ref);
                reply_mismatches += u64::from(reply != Some(shadow.live.get(key)));
            }
            shadow.apply(op);
        }
    }
    let space_amp = ratio(
        (window.live_pages * window.page_size) as f64,
        shadow.live_bytes as f64,
    );
    Ok(Measured {
        ops: scripts.iter().map(|s| s.len() as u64).sum(),
        wall_ns: out.window_ns,
        cpu_ns,
        mission_ns: out
            .clients
            .iter()
            .flat_map(|c| c.batch_ns.iter().copied())
            .collect(),
        sums: MissionSums::default(),
        request_errors: out.clients.iter().map(|c| c.errors).sum(),
        serve: Some(out),
        window,
        space_amp: vec![space_amp],
        gen_ns: 0,
        fp,
        reply_mismatches,
    })
}

/// What the replays produced; all empty for a workload without one.
#[derive(Default)]
struct Replayed {
    /// Operations each replay executed.
    ops: u64,
    traced: Reduced,
    traced_wall_ns: u64,
    /// Wall of the same operations on an undecorated stack.
    bare_wall_ns: u64,
    /// Root spans of the same operations with inline maintenance.
    inline: Reduced,
    /// `open(2)` calls and scratch-buffer allocations of the file disk
    /// during the traced replay; both should be 0 once a workload that
    /// creates no runs is warm.
    fds_opened: u64,
    buffer_grows: u64,
}

/// Replays the first [`REPLAY_SHARE`] of the measured missions, op by op and
/// single-threaded, on one tree behind a traced stack, once more on a bare
/// stack for the tracing overhead, and (where the workload asks) once with
/// inline maintenance.
fn replay(
    w: &Workload,
    seed: u64,
    counts: Counts,
    pairs: &[Pair],
    root: &Path,
) -> Result<Replayed, String> {
    let replayed = ((counts.missions as f64 * REPLAY_SHARE).ceil() as usize).max(1);
    let (warm, missions, commit_at) = match w.driver {
        // Its split is core.tuner_share against core.process_share.
        Driver::Paper => return Ok(Replayed::default()),
        Driver::Missions => {
            let mut stream = w.missions(seed, counts);
            (
                stream.take(counts.warmup),
                stream.take(replayed),
                CommitAt::MissionEnd,
            )
        }
        Driver::Serving => {
            let (mut warm, mut measured) = w.scripts(seed, counts);
            let first = measured.swap_remove(0);
            let chunks = first
                .chunks(MISSION_OPS)
                .take(replayed)
                .map(<[_]>::to_vec)
                .collect();
            (vec![warm.swap_remove(0)], chunks, CommitAt::EveryOp)
        }
    };
    // One tree holds what two shards held, so it gets both caches.
    let cache_pages = w.cache_pages * SHARDS;
    let ops: usize = missions.iter().map(Vec::len).sum();
    // A root and, for most operations, a span at each storage boundary.
    let expected_spans = ops * 4;
    let open = |tag: &str, traced: bool, background: bool| -> Result<ReplayTree, String> {
        let mut tree = ReplayTree::open(&root.join(tag), cache_pages, traced, background)?;
        tree.bulk_load(pairs.to_vec());
        tree.run_missions::<false>(&warm, commit_at)?;
        Ok(tree)
    };
    let mut out = Replayed {
        ops: ops as u64,
        ..Replayed::default()
    };

    let mut tree = open("traced", true, true)?;
    let (fds0, grows0) = (tree.fds_opened(), tree.buffer_grows());
    trace::start_recording(expected_spans);
    let t = Instant::now();
    tree.run_missions::<true>(&missions, commit_at)?;
    out.traced_wall_ns = t.elapsed().as_nanos() as u64;
    out.traced = trace::reduce(&trace::stop_recording());
    out.fds_opened = tree.fds_opened() - fds0;
    out.buffer_grows = tree.buffer_grows() - grows0;
    drop(tree);

    let mut tree = open("bare", false, true)?;
    let t = Instant::now();
    tree.run_missions::<false>(&missions, commit_at)?;
    out.bare_wall_ns = t.elapsed().as_nanos() as u64;
    drop(tree);

    if w.replay_inline {
        let mut tree = open("inline", false, false)?;
        trace::start_recording(expected_spans);
        tree.run_missions::<true>(&missions, commit_at)?;
        out.inline = trace::reduce(&trace::stop_recording());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;
    use crate::workloads::by_name;

    #[test]
    fn converged_mean_takes_each_sessions_tail() {
        // Five sessions of five missions; the tail is the last two.
        let v: Vec<f64> = (0..25).map(f64::from).collect();
        let expect = (0..5).map(|s| f64::from(s * 5 + 3) + 0.5).sum::<f64>() / 5.0;
        assert_eq!(converged_mean(&v), expect);
        assert_eq!(converged_mean(&[1.0, 2.0]), 0.0);
    }

    /// Counted metrics repeat exactly: two quick runs of `mixed-hot` with
    /// one seed agree to the last bit, and the checks pass.
    #[test]
    fn exact_metrics_repeat_across_quick_runs() {
        let quick = || {
            run(&RunArgs {
                workload: by_name("mixed-hot").unwrap(),
                seed: 11,
                seconds: 10,
                divisor: 20,
                trace: false,
                setups: 1,
                dir: default_data_dir(),
            })
            .unwrap()
        };
        let (a, b) = (quick(), quick());
        assert_eq!((a.failed, b.failed), (0, 0));
        assert_eq!(a.traffic_fp, b.traffic_fp);
        assert_eq!(a.attempted, b.attempted);
        for m in END_TO_END.iter().filter(|m| m.exact) {
            let (x, y) = (
                a.end_to_end.get(m.name).unwrap(),
                b.end_to_end.get(m.name).unwrap(),
            );
            assert!(x > 0.0, "{} is 0", m.name);
            assert_eq!(x.to_bits(), y.to_bits(), "{}: {x} vs {y}", m.name);
        }
    }
}
