//! Per-shard time domains: the exactness property the sharded engine's
//! accounting now guarantees.
//!
//! Each shard of a [`RusKey`] runs on its own device, whose virtual clock
//! is the shard's private time domain, so per-level `lookup_ns`/
//! `compact_ns` (and the per-shard I/O counters and live pages) must equal — *exactly*, not approximately —
//! the values of an equivalent single-shard run over that shard's key
//! partition, even while `N` shards execute concurrently. The store-level
//! compositions (device-busy = sum over domains, mission wall = max over
//! domains) must behave like the monoids they claim to be.

use std::sync::Arc;

use proptest::prelude::*;

use ruskey_repro::lsm::TreeStatsSnapshot;
use ruskey_repro::ruskey::db::RusKeyConfig;
use ruskey_repro::ruskey::sharded::{Backend, PersistenceConfig, RusKey};
use ruskey_repro::ruskey::tuner::NoOpTuner;
use ruskey_repro::ruskey::MissionReport;
use ruskey_repro::storage::{CostModel, SimulatedDisk, Storage};
use ruskey_repro::workload::routing::{partition_ops, shard_for_key};
use ruskey_repro::workload::{bulk_load_pairs, OpGenerator, OpMix, Operation, WorkloadSpec};

fn small_cfg() -> RusKeyConfig {
    let mut cfg = RusKeyConfig::scaled_default();
    cfg.lsm.buffer_bytes = 4096;
    cfg.lsm.size_ratio = 4;
    cfg
}

fn disk() -> Arc<dyn Storage> {
    SimulatedDisk::new(512, CostModel::NVME)
}

/// One fresh disk per shard.
fn disks(shards: usize) -> Vec<Arc<dyn Storage>> {
    (0..shards).map(|_| disk()).collect()
}

/// An untuned store with one shard per device.
fn volatile(cfg: RusKeyConfig, devices: Vec<Arc<dyn Storage>>) -> RusKey {
    let shards = devices.len();
    RusKey::open(cfg, shards, Box::new(NoOpTuner), Backend::Volatile(devices)).expect("open")
}

fn mixed_spec(key_space: u64) -> WorkloadSpec {
    WorkloadSpec {
        key_space,
        key_len: 16,
        value_len: 48,
        ..WorkloadSpec::scaled_default(key_space)
    }
    .with_mix(OpMix {
        lookup: 0.35,
        update: 0.4,
        delete: 0.1,
        scan: 0.15,
    })
}

/// Acceptance (ISSUE 2): at `N ∈ {2, 4}`, every shard's statistics after
/// parallel missions — including the time attribution `lookup_ns` and
/// `compact_ns` — are bit-identical to a single-shard store replaying that
/// shard's lane of the same missions on its key partition. Before time
/// domains, concurrent siblings' charges leaked into these windows.
#[test]
fn per_shard_times_equal_single_threaded_run() {
    for &n in &[2usize, 4] {
        let pairs = bulk_load_pairs(2000, 16, 48, 7);
        let devices = disks(n);
        let mut sharded = volatile(small_cfg(), devices.clone());
        sharded.bulk_load(pairs.clone());

        let mut g = OpGenerator::new(mixed_spec(2000), 9);
        let missions: Vec<Vec<Operation>> = (0..4).map(|_| g.take_ops(300)).collect();
        let reports: Vec<_> = missions
            .iter()
            .map(|ops| {
                let before: Vec<u64> = devices.iter().map(|d| d.clock().now_ns()).collect();
                let report = sharded.run_mission(ops);
                // Every charge a shard makes lands on its own device, so the
                // mission's device-busy time is the sum of the devices'
                // clock deltas: no work double-charged, none dropped.
                let busy: u64 = devices
                    .iter()
                    .zip(&before)
                    .map(|(d, b)| d.clock().now_ns() - b)
                    .sum();
                assert_eq!(
                    report.window.busy_ns, busy,
                    "shards={n}: device-busy diverged from the devices' clocks"
                );
                report
            })
            .collect();
        assert_eq!(
            sharded.last_parallelism(),
            n,
            "missions must actually run in parallel for the test to mean anything"
        );

        for shard in 0..n {
            // Equivalent single-threaded run: the shard's key partition,
            // then the shard's lane of every mission (scans broadcast, so
            // each lane contains them all).
            let mut single = volatile(small_cfg(), disks(1));
            single.bulk_load(
                pairs
                    .iter()
                    .filter(|(k, _)| shard_for_key(k, n) == shard)
                    .cloned()
                    .collect(),
            );
            for ops in &missions {
                let lane: Vec<Operation> = partition_ops(ops, n)[shard]
                    .iter()
                    .map(|op| (*op).clone())
                    .collect();
                single.run_mission(&lane);
            }
            let parallel_stats = sharded.shard(shard).stats();
            let solo_stats = single.shard(0).stats();
            assert_eq!(
                parallel_stats, solo_stats,
                "shards={n} shard={shard}: parallel per-shard accounting \
                 diverged from the single-threaded run"
            );
            assert_eq!(
                sharded.shard(shard).storage().live_pages(),
                single.shard(0).storage().live_pages(),
                "shards={n} shard={shard}: live pages diverged"
            );
            // Spell out the headline fields of the acceptance criterion.
            for (lvl, (p, s)) in parallel_stats
                .levels
                .iter()
                .zip(&solo_stats.levels)
                .enumerate()
            {
                assert_eq!(p.lookup_ns, s.lookup_ns, "shard {shard} level {lvl}");
                assert_eq!(p.compact_ns, s.compact_ns, "shard {shard} level {lvl}");
            }
        }

        // The merged mission reports composed correctly: wall never
        // exceeds device-busy, and both are populated.
        for r in &reports {
            assert!(r.end_to_end_ns > 0);
            assert!(r.end_to_end_ns <= r.window.busy_ns);
        }
    }
}

/// The merged snapshot is assembled from exact per-shard parts: its
/// per-level times are the sums of the shards' (individually exact)
/// times, its busy time the sum and its wall time the max of the domains.
#[test]
fn merged_snapshot_composes_exact_shard_parts() {
    let n = 4;
    let mut sharded = volatile(small_cfg(), disks(n));
    sharded.bulk_load(bulk_load_pairs(2000, 16, 48, 11));
    let mut g = OpGenerator::new(mixed_spec(2000), 17);
    for _ in 0..3 {
        sharded.run_mission(&g.take_ops(400));
    }
    let per_shard = sharded.shard_snapshots();
    let merged = sharded.stats();
    assert_eq!(
        merged.busy_ns,
        per_shard.iter().map(|s| s.busy_ns).sum::<u64>()
    );
    assert_eq!(
        merged.clock_ns,
        per_shard.iter().map(|s| s.clock_ns).max().unwrap()
    );
    for lvl in 0..merged.levels.len() {
        let want: u64 = per_shard
            .iter()
            .filter_map(|s| s.levels.get(lvl))
            .map(|l| l.lookup_ns + l.compact_ns)
            .sum();
        assert_eq!(merged.levels[lvl].total_ns(), want, "level {lvl}");
    }
}

/// Ad-hoc operations run on the shard workers with the same domain
/// attribution as the mission path: after an ad-hoc stream (scans
/// fanning out to every shard, point ops routed to their owner), every
/// shard's statistics — including `lookup_ns` per level — are
/// bit-identical to a single-shard store replaying that shard's lane of
/// the same stream ad hoc. Before the workers served ad-hoc traffic,
/// scan fan-out charged the submitting thread's domain and broke this.
#[test]
fn adhoc_ops_attribute_time_to_their_own_domains() {
    for &n in &[2usize, 4] {
        let pairs = bulk_load_pairs(2000, 16, 48, 7);
        let mut sharded = volatile(small_cfg(), disks(n));
        sharded.bulk_load(pairs.clone());

        let mut g = OpGenerator::new(mixed_spec(2000), 23);
        let ops = g.take_ops(1200);
        for op in &ops {
            apply_adhoc(&mut sharded, op);
        }

        for shard in 0..n {
            let mut single = volatile(small_cfg(), disks(1));
            single.bulk_load(
                pairs
                    .iter()
                    .filter(|(k, _)| shard_for_key(k, n) == shard)
                    .cloned()
                    .collect(),
            );
            for op in partition_ops(&ops, n)[shard].iter() {
                apply_adhoc(&mut single, op);
            }
            assert_eq!(
                sharded.shard(shard).stats(),
                single.shard(0).stats(),
                "shards={n} shard={shard}: ad-hoc per-shard accounting \
                 diverged from the single-threaded lane replay"
            );
            assert_eq!(
                sharded.shard(shard).storage().live_pages(),
                single.shard(0).storage().live_pages(),
                "shards={n} shard={shard}: live pages diverged"
            );
        }
    }
}

/// Runs one mission and checks that its report is a window over the
/// shards' statistics: the merge of every shard's own delta — wall time
/// the max over the shards, busy time the sum — with each gauge at its
/// end state and the two fields kept beside the window equal to it.
fn mission_window(db: &mut RusKey, ops: &[Operation]) -> MissionReport {
    let before = db.shard_snapshots();
    let report = db.run_mission(ops);
    let after = db.shard_snapshots();
    let deltas: Vec<TreeStatsSnapshot> =
        after.iter().zip(&before).map(|(a, b)| a.delta(b)).collect();
    let n = deltas.len();
    assert_eq!(
        report.window,
        TreeStatsSnapshot::merge_all(&deltas),
        "shards={n}"
    );
    let wall = deltas.iter().map(|d| d.clock_ns).max().unwrap();
    assert_eq!(report.window.clock_ns, wall, "shards={n}: wall is the max");
    let busy: u64 = deltas.iter().map(|d| d.busy_ns).sum();
    assert_eq!(report.window.busy_ns, busy, "shards={n}: busy is the sum");
    let debt: u64 = after.iter().map(|s| s.pending_compaction_bytes).sum();
    assert_eq!(
        report.window.pending_compaction_bytes, debt,
        "shards={n}: a gauge's end state"
    );
    assert_eq!(report.end_to_end_ns, report.window.clock_ns);
    assert_eq!(report.wal_synced, report.window.wal_synced);
    let physical: Vec<u64> = deltas
        .iter()
        .map(|d| d.lookups + d.updates + d.scans)
        .collect();
    assert_eq!(report.shard_ops, physical, "shards={n}");
    report
}

/// A mission's report is the merge of per-shard deltas, never the delta
/// of merged snapshots, at `N ∈ {1, 4}` on a persistent store with
/// background maintenance, so the WAL, manifest, cache and maintenance
/// counters, and the compaction-debt gauge, are live in the window.
#[test]
fn a_mission_report_is_the_merge_of_per_shard_deltas() {
    let mut debt_seen = false;
    for &n in &[1usize, 4] {
        let root = std::env::temp_dir().join(format!("ruskey-window-{n}-{}", std::process::id()));
        let mut p = PersistenceConfig::new(&root);
        p.page_size = 512;
        let mut cfg = small_cfg();
        cfg.lsm.buffer_bytes = 1024;
        cfg.lsm.size_ratio = 2;
        cfg.lsm.background_maintenance = true;
        let mut db = RusKey::open(cfg, n, Box::new(NoOpTuner), Backend::Create(&p)).expect("open");
        db.bulk_load(bulk_load_pairs(20_000, 16, 48, 7));
        let mut g = OpGenerator::new(mixed_spec(20_000), 31);
        let reports: Vec<MissionReport> = (0..3)
            .map(|_| mission_window(&mut db, &g.take_ops(1500)))
            .collect();
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(
                r.mission_idx, i as u64,
                "shards={n}: one report per mission"
            );
            assert!(
                r.window.wal_appends > 0 && r.window.manifest_edits > 0,
                "shards={n}"
            );
            assert!(r.window.stall_ns > 0, "shards={n}");
            debt_seen |= r.window.pending_compaction_bytes > 0;
        }
        if n > 1 {
            let clocks: Vec<u64> = db.shard_snapshots().iter().map(|s| s.clock_ns).collect();
            assert!(
                clocks.windows(2).any(|w| w[0] != w[1]),
                "shard clocks must differ: {clocks:?}"
            );
        }
        drop(db);
        std::fs::remove_dir_all(&root).ok();
    }
    assert!(debt_seen, "the gauge must be read at a non-zero end state");
}

fn apply_adhoc(db: &mut RusKey, op: &Operation) {
    match op {
        Operation::Get { key } => {
            db.get(key);
        }
        Operation::Put { key, value } => db.put(key.clone(), value.clone()),
        Operation::Delete { key } => db.delete(key.clone()),
        Operation::Scan { start, end, limit } => {
            db.scan(start, end, *limit);
        }
    }
}

fn arb_snapshot() -> impl Strategy<Value = TreeStatsSnapshot> {
    (
        (0u64..1000, 0u64..1000, 0u64..100),
        0u64..1_000_000,
        prop::collection::vec((0u64..10_000, 0u64..10_000), 0..4),
    )
        .prop_map(
            |((lookups, updates, scans), clock, levels)| TreeStatsSnapshot {
                lookups,
                updates,
                scans,
                clock_ns: clock,
                busy_ns: clock,
                levels: levels
                    .into_iter()
                    .map(
                        |(lookup_ns, compact_ns)| ruskey_repro::lsm::LevelStatsSnapshot {
                            lookup_ns,
                            compact_ns,
                            ..Default::default()
                        },
                    )
                    .collect(),
                ..Default::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The sum/max domain composition is associative and
    /// permutation-invariant: any merge order of any shard ordering
    /// yields the same store-wide snapshot.
    #[test]
    fn composition_is_associative_and_permutation_invariant(
        snaps in prop::collection::vec(arb_snapshot(), 1..6),
        rotation in 0usize..6,
    ) {
        // Associativity: left fold == right fold.
        let left = TreeStatsSnapshot::merge_all(&snaps);
        let right = snaps
            .iter()
            .rev()
            .fold(TreeStatsSnapshot::default(), |acc, s| s.merge(&acc));
        prop_assert_eq!(&left, &right);

        // Permutation invariance: rotations and reversal agree.
        let k = rotation % snaps.len();
        let rotated: Vec<&TreeStatsSnapshot> =
            snaps[k..].iter().chain(snaps[..k].iter()).collect();
        prop_assert_eq!(&left, &TreeStatsSnapshot::merge_all(rotated));
        let reversed: Vec<&TreeStatsSnapshot> = snaps.iter().rev().collect();
        prop_assert_eq!(&left, &TreeStatsSnapshot::merge_all(reversed));

        // The two compositions do what they say on the tin.
        prop_assert_eq!(left.busy_ns, snaps.iter().map(|s| s.busy_ns).sum::<u64>());
        prop_assert_eq!(
            left.clock_ns,
            snaps.iter().map(|s| s.clock_ns).max().unwrap_or(0)
        );
    }
}
