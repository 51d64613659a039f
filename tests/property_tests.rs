//! Property-based tests (proptest) over the core data structures and
//! cross-crate invariants.

use std::collections::BTreeMap;

use bytes::Bytes;
use proptest::prelude::*;

use ruskey_repro::analysis::propagation::propagate_rounded;
use ruskey_repro::analysis::TransitionScenario;
use ruskey_repro::lsm::compaction::{Merge, Source};
use ruskey_repro::lsm::entry::EntryBuf;
use ruskey_repro::lsm::run::RunBuilder;
use ruskey_repro::lsm::{FlsmTree, KvEntry, LsmConfig, TransitionStrategy};
use ruskey_repro::storage::{CostModel, SimulatedDisk};

/// An operation in the random-interleaving model test.
#[derive(Debug, Clone)]
enum ModelOp {
    Put(u16, u8),
    Delete(u16),
    Get(u16),
    SetPolicy(u8),
    Flush,
}

fn model_op() -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        4 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| ModelOp::Put(k % 512, v)),
        1 => any::<u16>().prop_map(|k| ModelOp::Delete(k % 512)),
        3 => any::<u16>().prop_map(|k| ModelOp::Get(k % 512)),
        1 => any::<u8>().prop_map(|k| ModelOp::SetPolicy(k % 4 + 1)),
        1 => Just(ModelOp::Flush),
    ]
}

fn key(k: u16) -> Bytes {
    Bytes::copy_from_slice(&(k as u64).to_be_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The FLSM-tree behaves exactly like a BTreeMap under arbitrary
    /// interleavings of puts/deletes/gets/policy-changes, for every
    /// transition strategy.
    #[test]
    fn flsm_equals_btreemap(ops in prop::collection::vec(model_op(), 1..400),
                            strategy_idx in 0usize..3) {
        let strategy = TransitionStrategy::ALL[strategy_idx];
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let cfg = LsmConfig {
            buffer_bytes: 1024,
            size_ratio: 4,
            transition: strategy,
            ..LsmConfig::scaled_default()
        };
        let mut tree = FlsmTree::new(cfg, disk);
        let mut model: BTreeMap<u16, u8> = BTreeMap::new();
        for op in ops {
            match op {
                ModelOp::Put(k, v) => {
                    model.insert(k, v);
                    tree.put(key(k), vec![v]);
                }
                ModelOp::Delete(k) => {
                    model.remove(&k);
                    tree.delete(key(k));
                }
                ModelOp::Get(k) => {
                    let got = tree.get(&key(k));
                    let want = model.get(&k).map(|v| vec![*v]);
                    prop_assert_eq!(got.as_deref(), want.as_deref());
                }
                ModelOp::SetPolicy(p) => {
                    for lvl in 0..tree.level_count() {
                        tree.set_policy(lvl, p as u32);
                    }
                }
                ModelOp::Flush => tree.flush(),
            }
        }
        // Full verification sweep at the end.
        for (k, v) in &model {
            let want = vec![*v];
            let got = tree.get(&key(*k));
            prop_assert_eq!(got.as_deref(), Some(want.as_slice()));
        }
    }

    /// Run round-trip: building a run from arbitrary sorted entries and
    /// iterating it returns exactly the input.
    #[test]
    fn run_roundtrip(keys in prop::collection::btree_set(any::<u32>(), 1..200),
                     vlen in 0usize..64) {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let mut builder = RunBuilder::new(1, disk.as_ref(), 8.0);
        let entries: Vec<KvEntry> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| KvEntry::put(
                Bytes::copy_from_slice(&(*k as u64).to_be_bytes()),
                Bytes::from(vec![(i % 256) as u8; vlen]),
                i as u64 + 1,
            ))
            .collect();
        for e in &entries {
            builder.push(e.borrowed());
        }
        let run = builder.finish(u64::MAX).unwrap();
        let mut cursor = run.cursor(disk.as_ref());
        let mut got: Vec<KvEntry> = Vec::new();
        while let Some(e) = cursor.entry() {
            got.push(e.to_owned());
            cursor.advance();
        }
        prop_assert_eq!(got, entries);
    }

    /// Merging preserves the latest version of every key and never invents
    /// keys.
    #[test]
    fn merge_latest_wins(batches in prop::collection::vec(
        prop::collection::btree_map(any::<u16>(), any::<u8>(), 0..50), 1..6)) {
        let mut seq = 0u64;
        let mut latest: BTreeMap<u16, (u64, u8)> = BTreeMap::new();
        let sorted_batches: Vec<Vec<KvEntry>> = batches
            .iter()
            .map(|b| {
                b.iter()
                    .map(|(k, v)| {
                        seq += 1;
                        let e = latest.entry(*k).or_insert((seq, *v));
                        if seq >= e.0 {
                            *e = (seq, *v);
                        }
                        KvEntry::put(key(*k), vec![*v], seq)
                    })
                    .collect()
            })
            .collect();
        let bufs: Vec<EntryBuf> = sorted_batches
            .iter()
            .map(|batch| {
                let mut buf = EntryBuf::default();
                batch.iter().for_each(|e| buf.push(e.borrowed()));
                buf
            })
            .collect();
        let sources = bufs.iter().map(|b| Source::Buf(b.cursor())).collect();
        let mut merged: Vec<KvEntry> = Vec::new();
        Merge::new(sources, false).drain_into(|e| merged.push(e.to_owned()));
        prop_assert_eq!(merged.len(), latest.len());
        for e in &merged {
            let k = u64::from_be_bytes(e.key.as_ref().try_into().unwrap()) as u16;
            let (want_seq, want_v) = latest[&k];
            prop_assert_eq!(e.seq, want_seq);
            let want = vec![want_v];
            prop_assert_eq!(e.value.as_ref(), want.as_slice());
        }
    }

    /// Lemma 5.1 propagation: policies stay in [1, T] and are
    /// non-increasing whenever the premise K2 <= K1 holds.
    #[test]
    fn propagation_invariants(k1 in 1u32..=10, k2 in 1u32..=10, t in 2u32..=10, levels in 1usize..10) {
        let k1c = k1.min(t);
        let k2c = k2.min(t);
        let ks = propagate_rounded(k1c, k2c, t, levels);
        prop_assert_eq!(ks.len(), levels);
        for &k in &ks {
            prop_assert!((1..=t).contains(&k));
        }
        if k2c <= k1c {
            for w in ks.windows(2) {
                prop_assert!(w[1] <= w[0], "{:?} increased", ks);
            }
        }
    }

    /// Table 2 dominance: a flexible transition's additional cost never
    /// exceeds a lazy transition's, anywhere in the parameter space.
    #[test]
    fn flexible_dominates_lazy(k_old in 1u32..=10, k_new in 1u32..=10,
                               fill in 0.0f64..1.0, gamma in 0.05f64..0.95) {
        let s = TransitionScenario {
            k_old: k_old as f64,
            k_new: k_new as f64,
            fill,
            gamma,
            ..TransitionScenario::paper_case_study()
        };
        prop_assert!(s.additional_cost_flexible() <= s.additional_cost_lazy() + 1e-9);
        prop_assert!(s.additional_cost_flexible() >= 0.0);
        prop_assert!(s.additional_cost_greedy() >= 0.0);
    }

    /// Scans agree with the reference model over arbitrary bounds.
    #[test]
    fn scan_equals_model(puts in prop::collection::btree_map(any::<u16>(), any::<u8>(), 1..120),
                         lo in any::<u16>(), span in 1u16..200) {
        let disk = SimulatedDisk::new(256, CostModel::FREE);
        let cfg = LsmConfig {
            buffer_bytes: 1024,
            size_ratio: 4,
            ..LsmConfig::scaled_default()
        };
        let mut tree = FlsmTree::new(cfg, disk);
        for (k, v) in &puts {
            tree.put(key(*k), vec![*v]);
        }
        let lo = lo % 512;
        let hi = lo.saturating_add(span);
        let got = tree.scan(&key(lo), &key(hi), usize::MAX);
        let want: Vec<(u16, u8)> = puts.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got.len(), want.len());
        for ((gk, gv), (wk, wv)) in got.iter().zip(&want) {
            prop_assert_eq!(u64::from_be_bytes(gk.as_ref().try_into().unwrap()) as u16, *wk);
            let want = vec![*wv];
            prop_assert_eq!(gv.as_ref(), want.as_slice());
        }
    }
}
