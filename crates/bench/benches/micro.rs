//! Component micro-benchmarks: the primitive costs underlying the paper's
//! cost model (Bloom probes = `c_r`, merge work = `c_w`, run probes,
//! memtable inserts, DDPG gradient steps = the Fig. 13 numerator).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use ruskey_lsm::bloom::Bloom;
use ruskey_lsm::memtable::Memtable;
use ruskey_lsm::run::RunBuilder;
use ruskey_lsm::types::KvEntry;
use ruskey_rl::{Ddpg, DdpgConfig, Transition};
use ruskey_storage::{CostModel, SimulatedDisk, Storage};

fn key(i: u64) -> bytes::Bytes {
    bytes::Bytes::copy_from_slice(&i.to_be_bytes())
}

fn bench_bloom(c: &mut Criterion) {
    let keys: Vec<[u8; 8]> = (0..10_000u64).map(|i| i.to_be_bytes()).collect();
    let bloom = Bloom::build(keys.iter().map(|k| k.as_slice()), keys.len(), 8.0);
    let mut i = 0u64;
    c.bench_function("bloom_probe_8bpk", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(bloom.contains(&i.to_be_bytes()))
        })
    });
}

fn bench_memtable(c: &mut Criterion) {
    c.bench_function("memtable_insert_128B", |b| {
        b.iter_batched(
            Memtable::new,
            |mut m| {
                for i in 0..512u64 {
                    m.insert(KvEntry::put(key(i), vec![7u8; 112], i));
                }
                m
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_run_probe(c: &mut Criterion) {
    let disk = SimulatedDisk::new(4096, CostModel::FREE);
    let mut builder = RunBuilder::new(1, 4096, 8.0);
    for i in 0..10_000u64 {
        builder.push(KvEntry::put(key(i * 2), vec![1u8; 112], i));
    }
    let run = builder.finish(disk.as_ref(), u64::MAX).unwrap();
    let mut i = 0u64;
    c.bench_function("run_probe_hit", |b| {
        b.iter(|| {
            i = (i + 1) % 10_000;
            black_box(run.probe(disk.as_ref(), &key(i * 2)))
        })
    });
    c.bench_function("run_probe_miss", |b| {
        b.iter(|| {
            i = (i + 1) % 10_000;
            black_box(run.probe(disk.as_ref(), &key(i * 2 + 1)))
        })
    });
}

fn bench_merge(c: &mut Criterion) {
    use ruskey_lsm::compaction::merge_sorted;
    c.bench_function("merge_4x1000_entries", |b| {
        b.iter_batched(
            || {
                (0..4u64)
                    .map(|s| {
                        (0..1000u64)
                            .map(|i| KvEntry::put(key(i * 4 + s), vec![0u8; 32], s * 1000 + i))
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            },
            |batches| black_box(merge_sorted(batches, false)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_ddpg_step(c: &mut Criterion) {
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
    c.bench_function("ddpg_train_step_3x128_batch32", |b| {
        b.iter(|| black_box(agent.train_step()))
    });

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
    c.bench_function("ddpg_train_step_after_1500_steps", |b| {
        b.iter(|| black_box(agent.train_step()))
    });
}

fn bench_flush_admit(c: &mut Criterion) {
    use ruskey_lsm::{FlsmTree, LsmConfig};
    c.bench_function("tree_put_with_flushes_64KiB_buffer", |b| {
        b.iter_batched(
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
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_bloom, bench_memtable, bench_run_probe, bench_merge, bench_ddpg_step, bench_flush_admit
}
criterion_main!(micro);
