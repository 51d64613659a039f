//! Component micro-benchmarks: the primitive costs underlying the paper's
//! cost model (Bloom probes = `c_r`, merge work = `c_w`, run probes,
//! memtable inserts, DDPG gradient steps = the Fig. 13 numerator, and the
//! three network passes a step is made of), and the
//! per-unit costs of the page cursor, the merge kernel, the log append and
//! the log's fsync on a growing and on a recycled file.
//! Every row times itself and prints its cost per probe, entry, page or
//! call, so the layer is visible without the ledger:
//! `cargo bench -p ruskey-bench --bench micro`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ruskey_lsm::bloom::Bloom;
use ruskey_lsm::compaction::{Merge, Source};
use ruskey_lsm::entry::EntryBuf;
use ruskey_lsm::memtable::Memtable;
use ruskey_lsm::run::{LookupKey, Run, RunBuilder};
use ruskey_lsm::types::KvEntry;
use ruskey_lsm::{FlsmTree, LsmConfig, Wal};
use ruskey_rl::{Activation, Ddpg, DdpgConfig, Mlp, Transition};
use ruskey_storage::{BlockCache, CostModel, SimulatedDisk, Storage};

fn key(i: u64) -> bytes::Bytes {
    bytes::Bytes::copy_from_slice(&i.to_be_bytes())
}

/// Probes per timed call of the sub-microsecond rows, so the clock read
/// is not what they measure.
const PROBES: u64 = 1_000;

fn bench_bloom() {
    let keys: Vec<[u8; 8]> = (0..10_000u64).map(|i| i.to_be_bytes()).collect();
    let bloom = Bloom::build(keys.iter().map(|k| k.as_slice()), keys.len(), 8.0);
    let mut i = 0u64;
    per_unit(
        "bloom_probe_8bpk",
        "ns",
        PROBES,
        || (),
        |()| {
            for _ in 0..PROBES {
                i = i.wrapping_add(1);
                black_box(bloom.contains(&i.to_be_bytes()));
            }
        },
    );
}

fn bench_memtable() {
    per_unit("memtable_insert_128B", "ns", 512, Memtable::new, |mut m| {
        for i in 0..512u64 {
            m.insert(KvEntry::put(key(i), vec![7u8; 112], i));
        }
        m
    });
}

fn bench_run_probe() {
    let disk = SimulatedDisk::new(4096, CostModel::FREE);
    let mut builder = RunBuilder::new(1, disk.as_ref(), 8.0);
    for i in 0..10_000u64 {
        builder.push(KvEntry::put(key(i * 2), vec![1u8; 112], i).borrowed());
    }
    let run = builder.finish(u64::MAX).unwrap();
    for (name, offset) in [("run_probe_hit", 0), ("run_probe_miss", 1)] {
        let mut i = 0u64;
        per_unit(
            name,
            "ns",
            PROBES,
            || (),
            |()| {
                for _ in 0..PROBES {
                    i = (i + 1) % 10_000;
                    black_box(run.probe(disk.as_ref(), &LookupKey::new(&key(i * 2 + offset))));
                }
            },
        );
    }
}

/// Calls `routine` on fresh input from `setup` until half a second of
/// routine time has accumulated, and prints the mean cost of one of the
/// `units` units of work a call performs.
fn per_unit<I, O>(
    name: &str,
    unit: &str,
    units: u64,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) {
    routine(setup()); // warm-up
    let (mut spent, mut calls) = (Duration::ZERO, 0u64);
    while spent < Duration::from_millis(500) {
        let input = setup();
        let t0 = Instant::now();
        let output = routine(input);
        spent += t0.elapsed();
        calls += 1;
        drop(black_box(output));
    }
    let ns = spent.as_nanos() as f64 / (calls * units) as f64;
    match unit {
        "us" => println!("{name}: {:.2} us ({calls} calls)", ns / 1e3),
        _ => println!("{name}: {ns:.0} ns ({calls} calls of {units})"),
    }
}

/// `n` 128-byte entries with keys `first, first + step, ...`.
fn entries_of(n: u64, first: u64, step: u64) -> Vec<KvEntry> {
    (0..n)
        .map(|i| KvEntry::put(key16(first + i * step), vec![3u8; 112], i + 1))
        .collect()
}

fn run_of(storage: &dyn Storage, id: u64, entries: &[KvEntry]) -> Run {
    let mut b = RunBuilder::new(id, storage, 8.0);
    entries.iter().for_each(|e| b.push(e.borrowed()));
    b.finish(u64::MAX).unwrap()
}

/// The ledger's 16-byte key.
fn key16(i: u64) -> bytes::Bytes {
    bytes::Bytes::copy_from_slice(&(i as u128).to_be_bytes())
}

/// The merge loop as the write path runs it, per input entry: a flush
/// (the level's active run against a memtable, into a run builder) and a
/// full tier (ten runs into the batch the level below admits).
fn bench_merge() {
    let disk = SimulatedDisk::new(4096, CostModel::FREE);
    let storage: &dyn Storage = disk.as_ref();

    let active_entries = entries_of(4_000, 0, 2);
    let active = run_of(storage, 1, &active_entries);
    let mut mem = Memtable::new();
    for i in 0..500u64 {
        mem.insert(KvEntry::put(key16(i * 16 + 1), vec![5u8; 112], 10_000 + i));
    }
    per_unit(
        "merge_ns_per_entry/flush_2way",
        "ns",
        4_500,
        || RunBuilder::new(2, storage, 8.0),
        |mut builder| {
            let sources = vec![
                Source::Run(active.cursor(storage)),
                Source::Mem(mem.cursor()),
            ];
            Merge::new(sources, false).drain_into(|e| builder.push(e));
            builder
        },
    );

    let tier: Vec<Run> = (0..10)
        .map(|r| run_of(storage, 10 + r, &entries_of(500, r, 10)))
        .collect();
    per_unit(
        "merge_ns_per_entry/tier_10way",
        "ns",
        5_000,
        EntryBuf::default,
        |mut batch| {
            let sources = tier
                .iter()
                .map(|r| Source::Run(r.cursor(storage)))
                .collect();
            Merge::new(sources, false).drain_into(|e| batch.push(e));
            batch
        },
    );

    per_unit(
        "run_build_ns_per_page",
        "ns",
        u64::from(active.page_count()),
        || (),
        |()| run_of(storage, 3, &active_entries).destroy(storage),
    );
}

/// A tree over a block cache that holds all of it: three levels, twelve
/// runs, the ledger's entry shape.
fn cache_resident_tree() -> FlsmTree {
    let disk = SimulatedDisk::new(4096, CostModel::FREE);
    let cache = BlockCache::new(disk, 1 << 16);
    let cfg = LsmConfig {
        initial_policy: 4,
        ..LsmConfig::scaled_default()
    };
    let mut tree = FlsmTree::new(cfg, cache as Arc<dyn Storage>);
    for i in 0..40_000u64 {
        tree.put(key16(i.wrapping_mul(0x9E37_79B9) % 50_000), vec![7u8; 112]);
    }
    tree
}

/// The read path on cache-resident data: a limit-100 scan (seek every
/// overlapping run, then merge rows) and a point get that hits a run.
fn bench_reads() {
    let mut tree = cache_resident_tree();
    let mut next = 0u64;
    let mut draw = || {
        next = (next + 7_919) % 49_000;
        next
    };
    per_unit("scan_limit100_us", "us", 1, &mut draw, |k| {
        tree.scan(&key16(k), &key16(u64::MAX), 100)
    });
    per_unit("cache_hit_get_ns", "ns", 1, &mut draw, |k| {
        tree.get(&key16(k))
    });
}

/// One WAL append of a 128-byte record into the user-space buffer (the
/// reset that empties the buffer between calls is not timed).
fn bench_wal_append() {
    let path = std::env::temp_dir().join(format!("ruskey-micro-wal-{}", std::process::id()));
    let records: Vec<KvEntry> = (0..1_000u64)
        .map(|i| KvEntry::put(key16(i), vec![9u8; 112], i))
        .collect();
    let wal = std::cell::RefCell::new(Wal::open(&path).expect("open WAL"));
    per_unit(
        "wal_append_ns",
        "ns",
        1_000,
        || wal.borrow_mut().reset().expect("reset"),
        |()| {
            let mut wal = wal.borrow_mut();
            for r in &records {
                wal.append(r).expect("append");
            }
        },
    );
    let _ = std::fs::remove_file(&path);
}

/// One 128-byte append and its `sync`: on a fresh log, whose every fsync
/// extends the file, and on a log recycled after a 64 KiB generation,
/// whose fsyncs overwrite blocks already allocated (the setup recycles it
/// again, untimed, before a generation outgrows them).
fn bench_wal_sync() {
    const GENERATION: u64 = (64 << 10) / (8 + 11 + 128);
    let record = |i: u64| KvEntry::put(key16(i), vec![9u8; 112], i);
    for (name, recycled) in [
        ("wal_sync_growing_us", false),
        ("wal_sync_recycled_us", true),
    ] {
        let path = std::env::temp_dir().join(format!("ruskey-micro-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).expect("open WAL");
        if recycled {
            (0..GENERATION).for_each(|i| wal.append(&record(i)).expect("append"));
            wal.sync().expect("sync");
            wal.reset().expect("reset");
        }
        let wal = std::cell::RefCell::new(wal);
        let mut seq = 0u64;
        per_unit(
            name,
            "us",
            1,
            || {
                let mut wal = wal.borrow_mut();
                if recycled && wal.records() == GENERATION {
                    wal.reset().expect("reset");
                }
                seq += 1;
                seq
            },
            |i| {
                let mut wal = wal.borrow_mut();
                wal.append(&record(i)).expect("append");
                wal.sync().expect("sync");
            },
        );
        let _ = std::fs::remove_file(&path);
    }
}

fn bench_ddpg_step() {
    // The Fig. 13 numerator: one model update with the paper's 3x128 nets.
    let mut agent = Ddpg::new(DdpgConfig::paper_default(6, 1));
    for i in 0..256 {
        agent.observe(Transition {
            state: vec![0.1; 6],
            action: vec![0.0],
            reward: -(i as f32 % 7.0),
            next_state: vec![0.1; 6],
            done: false,
        });
    }
    per_unit(
        "ddpg_train_step_3x128_batch32",
        "us",
        1,
        || (),
        |()| agent.train_step(),
    );

    // The same update where a tuning run spends most of its missions: varied
    // transitions and 1500 steps behind it, so ReLU units have died and the
    // Adam moments of their weights have had time to decay towards zero (the
    // regime a subnormal moment would slow down severalfold).
    let mut agent = Ddpg::new(DdpgConfig::paper_default(6, 1));
    let mut lcg = 13u32;
    let mut draw_state = move || -> Vec<f32> {
        (0..6)
            .map(|_| {
                lcg = lcg.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (lcg >> 8) as f32 / (1u32 << 24) as f32
            })
            .collect()
    };
    let mut state = draw_state();
    for _ in 0..1500 {
        let next_state = draw_state();
        let action = agent.act_explore(&state);
        agent.observe(Transition {
            reward: -(action[0] - state[0]).abs(),
            state,
            action,
            next_state: next_state.clone(),
            done: false,
        });
        agent.train_step();
        state = next_state;
    }
    per_unit(
        "ddpg_train_step_after_1500_steps",
        "us",
        1,
        || (),
        |()| agent.train_step(),
    );
}

/// The three passes a training step is made of, on the critic of the agent
/// above (`[s, a]` = 7 inputs, 3×128 ReLU, one Q value) over a replay batch
/// of 32, at the kernel width this CPU gets.
fn bench_mlp_passes() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut net = Mlp::new(
        &[7, 128, 128, 128, 1],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    net.input_mut(32).fill_with(|| rng.gen());
    let grad = [-1.0f32; 32];
    per_unit(
        "mlp_forward_3x128_batch32",
        "us",
        1,
        || (),
        |()| net.forward_batch()[0],
    );
    per_unit(
        "mlp_accumulate_grads_3x128_batch32",
        "us",
        1,
        || (),
        |()| net.accumulate_grads(&grad),
    );
    per_unit(
        "mlp_input_grads_3x128_batch32",
        "us",
        1,
        || (),
        |()| net.input_grads(&grad)[0],
    );
}

fn bench_flush_admit() {
    per_unit(
        "tree_put_with_flushes_64KiB_buffer",
        "ns",
        2000,
        || {
            let disk = SimulatedDisk::new(4096, CostModel::FREE);
            FlsmTree::new(LsmConfig::scaled_default(), disk as Arc<dyn Storage>)
        },
        |mut tree| {
            for i in 0..2000u64 {
                tree.put(key(i), vec![5u8; 112]);
            }
            tree
        },
    );
}

fn main() {
    bench_bloom();
    bench_memtable();
    bench_run_probe();
    bench_merge();
    bench_reads();
    bench_wal_append();
    bench_wal_sync();
    bench_ddpg_step();
    bench_mlp_passes();
    bench_flush_admit();
}
