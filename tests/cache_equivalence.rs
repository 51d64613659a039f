//! Cache-transparency harness for the sharded block cache.
//!
//! The block cache sits between each shard's `FlsmTree` and its
//! `FileDisk`, so the one property that matters is *transparency*: a
//! cache-enabled store must be get/scan-bit-identical to a cache-disabled
//! store executing the same schedule — through memtable flushes,
//! compaction cascades (which free extents the cache must invalidate
//! under the two-log contract), and a full `recover_persistent` restart
//! (where freed extent ids can be reallocated, so a stale cached page
//! would serve another run's data).
//!
//! Two suites:
//!
//! 1. **Mission proptest**: random balanced missions at `N ∈ {1, 2, 4}`
//!    run against two persistent stores differing only in `cache_pages`
//!    (a deliberately tiny cache, so hits, misses, evictions, and
//!    invalidations all occur). Gets and scans are compared after every
//!    mission, after a restart of both stores, and after a post-restart
//!    mission.
//! 2. **Deterministic invalidation scenario**: overwrite-heavy rounds
//!    with forced flushes make compaction free and reallocate extents
//!    while lookups keep the freed pages cache-hot; any missed
//!    invalidation surfaces as a stale read.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use proptest::prelude::*;

use ruskey_repro::ruskey::db::RusKeyConfig;
use ruskey_repro::ruskey::sharded::{Backend, PersistenceConfig, RusKey};
use ruskey_repro::ruskey::tuner::NoOpTuner;
use ruskey_repro::storage::CostModel;
use ruskey_repro::workload::{encode_key, OpGenerator, OpMix, Operation, WorkloadSpec};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn store_root(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ruskey-cacheq-{tag}-{}-{n}", std::process::id()))
}

/// `cache_pages = 6` is deliberately tiny: every scenario exercises
/// eviction and reuse, not just warm hits.
fn pcfg(root: &PathBuf, cache_pages: usize) -> PersistenceConfig {
    let mut p = PersistenceConfig::new(root);
    p.page_size = 512;
    p.cost = CostModel::FREE;
    p.cache_pages = cache_pages;
    p
}

/// A small buffer so missions flush and compact runs — the mutations the
/// cache must stay coherent through.
fn small_cfg() -> RusKeyConfig {
    let mut cfg = RusKeyConfig::scaled_default();
    cfg.lsm.buffer_bytes = 2048;
    cfg.lsm.size_ratio = 4;
    cfg
}

fn open(shards: usize, p: &PersistenceConfig) -> RusKey {
    RusKey::open(small_cfg(), shards, Box::new(NoOpTuner), Backend::Create(p))
        .expect("open persistent store")
}

fn recover(shards: usize, p: &PersistenceConfig) -> RusKey {
    RusKey::open(
        small_cfg(),
        shards,
        Box::new(NoOpTuner),
        Backend::Recover(p),
    )
    .expect("recover persistent store")
}

fn key(i: u64) -> Bytes {
    encode_key(i, 16)
}

const KEYS: u64 = 240;

/// Every get over the key space plus a full and a bounded scan must be
/// bit-identical between the cached and uncached stores.
fn assert_equivalent(cached: &mut RusKey, uncached: &mut RusKey, when: &str) {
    for i in 0..KEYS + 2 {
        assert_eq!(
            cached.get(&key(i)),
            uncached.get(&key(i)),
            "{when}: get({i}) diverged between cached and uncached stores"
        );
    }
    let lo = key(0);
    let hi = key(KEYS + 2);
    assert_eq!(
        cached.scan(&lo, &hi, usize::MAX),
        uncached.scan(&lo, &hi, usize::MAX),
        "{when}: full scan diverged"
    );
    assert_eq!(
        cached.scan(&key(40), &key(160), 29),
        uncached.scan(&key(40), &key(160), 29),
        "{when}: bounded scan diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// ISSUE satellite 3: random balanced missions at `N ∈ {1, 2, 4}`;
    /// the cache-enabled store stays bit-identical to the cache-disabled
    /// store through flushes, compactions, and a restart of both.
    #[test]
    fn cached_store_is_bit_identical_to_uncached(
        seed in any::<u64>(),
        missions in 2usize..5,
        shard_sel in 0usize..3,
    ) {
        let shards = [1usize, 2, 4][shard_sel];
        let root_c = store_root("prop-on");
        let root_u = store_root("prop-off");
        let p_c = pcfg(&root_c, 6);
        let p_u = pcfg(&root_u, 0);
        let mut cached = open(shards, &p_c);
        let mut uncached = open(shards, &p_u);

        let spec = WorkloadSpec {
            key_space: KEYS,
            key_len: 16,
            value_len: 48,
            ..WorkloadSpec::scaled_default(KEYS)
        }
        .with_mix(OpMix::balanced());
        let mut g = OpGenerator::new(spec, seed);
        for m in 0..missions {
            let ops: Vec<Operation> = g.take_ops(400);
            cached.run_mission(&ops);
            uncached.run_mission(&ops);
            assert_equivalent(&mut cached, &mut uncached, &format!("mission {m}"));
        }
        prop_assert!(
            cached.stats().flushes > 0,
            "the schedule must flush runs to disk"
        );
        prop_assert!(
            cached.stats().cache_hits > 0,
            "the cached store must actually serve from its cache"
        );
        prop_assert_eq!(
            uncached.stats().cache_hits, 0,
            "cache_pages = 0 must disable caching entirely"
        );

        // Restart both stores; the recovered cached store starts cold
        // but must stay identical (stale pages after extent reuse would
        // surface here or in the post-restart mission).
        cached.group_commit();
        uncached.group_commit();
        drop(cached);
        drop(uncached);
        let mut cached = recover(shards, &p_c);
        let mut uncached = recover(shards, &p_u);
        assert_equivalent(&mut cached, &mut uncached, "after restart");
        let ops: Vec<Operation> = g.take_ops(400);
        cached.run_mission(&ops);
        uncached.run_mission(&ops);
        assert_equivalent(&mut cached, &mut uncached, "post-restart mission");

        let _ = std::fs::remove_dir_all(&root_c);
        let _ = std::fs::remove_dir_all(&root_u);
    }
}

/// Deterministic invalidation scenario: keep a small key space cache-hot
/// while overwrite rounds force flushes and compactions that free and
/// reallocate extents. A cache that misses an invalidation serves a
/// freed (or reused) page and diverges.
#[test]
fn compaction_invalidation_never_serves_stale_pages() {
    for shards in [1usize, 2, 4] {
        let root_c = store_root("inval-on");
        let root_u = store_root("inval-off");
        let p_c = pcfg(&root_c, 6);
        let p_u = pcfg(&root_u, 0);
        let mut cached = open(shards, &p_c);
        let mut uncached = open(shards, &p_u);

        for round in 0..8u64 {
            // Overwrites supersede whole runs, so compaction frees their
            // extents; lookups in between keep those pages cached.
            let ops: Vec<Operation> = (0..KEYS)
                .map(|i| Operation::Put {
                    key: key(i),
                    value: Bytes::from(format!("r{round}-v{i:04}")),
                })
                .chain((0..KEYS).step_by(3).map(|i| Operation::Get { key: key(i) }))
                .collect();
            cached.run_mission(&ops);
            uncached.run_mission(&ops);
            for s in 0..shards {
                cached.shard_mut(s).flush();
                uncached.shard_mut(s).flush();
            }
            assert_equivalent(&mut cached, &mut uncached, &format!("round {round}"));
        }
        assert!(
            cached.stats().cache_hits > 0 && cached.stats().cache_evictions > 0,
            "{shards} shards: the scenario must exercise hits and evictions \
             (hits {}, evictions {})",
            cached.stats().cache_hits,
            cached.stats().cache_evictions
        );

        // Restart: recovery reopens the FileDisk (extent ids continue
        // from the directory scan, so freed ids can be reallocated) and
        // the recovered cached store must still be identical.
        cached.group_commit();
        uncached.group_commit();
        drop(cached);
        drop(uncached);
        let mut cached = recover(shards, &p_c);
        let mut uncached = recover(shards, &p_u);
        assert_equivalent(&mut cached, &mut uncached, "after restart");

        let _ = std::fs::remove_dir_all(&root_c);
        let _ = std::fs::remove_dir_all(&root_u);
    }
}
