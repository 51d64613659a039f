//! The five named workloads and their traffic.
//!
//! `--seed` is the only input to generation: the same seed gives the same
//! load, the same warm-up and the same measured operations, whose hash is
//! the row's `traffic_fp`.

use crate::adapter::{
    bulk_load_pairs, client_scripts, DynamicWorkload, KeyDistribution, OpGenerator, OpMix,
    Operation, Pair, WorkloadSpec, KEY_LEN, MISSION_OPS, VALUE_LEN,
};
use crate::util::Fnv1a;

/// Closed-loop clients of the serving workload: with two shard workers on
/// two cores, a client waiting for its reply is asleep, so at most two
/// threads are runnable.
pub const CLIENTS: usize = 2;
/// Sessions of the paper's dynamic workload (Fig. 7).
pub const SESSIONS: usize = 5;

/// How a workload is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `RusKey::with_lerp` missions on a simulated disk.
    Paper,
    /// `ShardedRusKey::run_mission` on the persistent store.
    Missions,
    /// `ShardedRusKey::serve` with [`CLIENTS`] closed-loop clients.
    Serving,
}

/// One named workload. Data and cache sizes are fixed (their ratio defines
/// the workload); only the mission count scales with `--seconds`.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub driver: Driver,
    /// Entries bulk-loaded before any traffic.
    pub entries: u64,
    /// Block-cache pages per shard (none on the simulated disk).
    pub cache_pages: usize,
    pub mix: OpMix,
    pub distribution: KeyDistribution,
    pub zero_result_fraction: f64,
    /// Missions per second of `--seconds` (for [`Driver::Serving`]:
    /// thousands of requests per second, all clients together), measured
    /// on the reference box so that a run measures for about `--seconds`.
    /// A constant, not a timer: a fixed operation count is what lets the
    /// counted metrics repeat exactly for a seed.
    pub missions_per_second: f64,
    /// Warm-up missions as a share of the measured count; they run once
    /// before the measured phase and count only into `core.warmup_s`.
    pub warmup_share: f64,
    /// Whether the traced run also replays with inline maintenance, the
    /// evidence for whether that mode should survive.
    pub replay_inline: bool,
}

const fn mix(lookup: f64, update: f64, delete: f64, scan: f64) -> OpMix {
    OpMix {
        lookup,
        update,
        delete,
        scan,
    }
}

/// The workloads, in the order `ledger run` drives them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "paper-dynamic",
            why: "Paper Fig. 7 on one Lerp-tuned tree, 50k entries, simulated disk: the only \
                  workload where the tuner and FLSM transitions run; WAL, files, cache and \
                  frontend are bypassed.",
            driver: Driver::Paper,
            entries: 50_000,
            cache_pages: 0,
            // Overridden per session by `DynamicWorkload::paper_fig7`.
            mix: mix(0.5, 0.5, 0.0, 0.0),
            distribution: KeyDistribution::Uniform,
            zero_result_fraction: 0.0,
            missions_per_second: 21.0,
            warmup_share: 0.0,
            replay_inline: false,
        },
        Workload {
            name: "read-cold",
            why: "400k entries (51 MB) behind a 4 MiB cache, 95 % gets 5 % scans: Bloom, \
                  fence search, cache miss and pread do the work; the write path, WAL and \
                  tuner are idle.",
            driver: Driver::Missions,
            entries: 400_000,
            cache_pages: 512,
            mix: mix(0.95, 0.0, 0.0, 0.05),
            distribution: KeyDistribution::Uniform,
            zero_result_fraction: 0.1,
            missions_per_second: 280.0,
            warmup_share: 0.1,
            replay_inline: false,
        },
        Workload {
            name: "write-heavy",
            why: "40k entries, 85 % puts 10 % deletes: WAL append, memtable, flush, merges, \
                  manifest commits, extent and directory fsyncs and the group commit do the \
                  work; reads are 5 %.",
            driver: Driver::Missions,
            entries: 40_000,
            cache_pages: 4096,
            mix: mix(0.05, 0.85, 0.10, 0.0),
            distribution: KeyDistribution::Uniform,
            zero_result_fraction: 0.0,
            missions_per_second: 100.0,
            warmup_share: 0.1,
            replay_inline: true,
        },
        Workload {
            name: "mixed-hot",
            why: "100k entries (12.8 MB) inside a 32 MiB cache, Zipfian 50 % gets 45 % puts \
                  5 % scans: cache hits and the memtable serve reads while flushes and \
                  merges retire runs beside them.",
            driver: Driver::Missions,
            entries: 100_000,
            cache_pages: 4096,
            mix: mix(0.50, 0.45, 0.0, 0.05),
            distribution: KeyDistribution::Zipfian { theta: 0.99 },
            zero_result_fraction: 0.0,
            missions_per_second: 140.0,
            warmup_share: 0.1,
            replay_inline: false,
        },
        Workload {
            name: "serve-mixed",
            why: "100k entries, two closed-loop clients through the serving frontend, 80 % \
                  gets: queue hand-off, batching, cross-client group commit, ack after \
                  fsync; engine work is a few percent of a request.",
            driver: Driver::Serving,
            entries: 100_000,
            cache_pages: 4096,
            mix: mix(0.80, 0.18, 0.02, 0.0),
            distribution: KeyDistribution::Uniform,
            zero_result_fraction: 0.0,
            missions_per_second: 12.0,
            warmup_share: 0.1,
            replay_inline: false,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// How many missions a run of `seconds` measures and warms up with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Measured missions of [`MISSION_OPS`] operations (for
    /// [`Driver::Serving`]: per client).
    pub missions: usize,
    pub warmup: usize,
}

impl Workload {
    /// `divisor` is 1 for a full run and 20 for `--quick`.
    pub fn counts(&self, seconds: u64, divisor: u64) -> Counts {
        let total = self.missions_per_second * seconds as f64 / divisor as f64;
        let missions = match self.driver {
            // The same count in each of the five sessions.
            Driver::Paper => (total / SESSIONS as f64).round().max(2.0) as usize * SESSIONS,
            Driver::Missions => total.round().max(10.0) as usize,
            Driver::Serving => (total / CLIENTS as f64).round().max(2.0) as usize,
        };
        let warmup = (missions as f64 * self.warmup_share).round() as usize;
        Counts { missions, warmup }
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            key_space: self.entries,
            key_len: KEY_LEN,
            value_len: VALUE_LEN,
            distribution: self.distribution.clone(),
            mix: self.mix,
            zero_result_fraction: self.zero_result_fraction,
            ..WorkloadSpec::scaled_default(self.entries)
        }
    }

    /// The pairs bulk-loaded before any traffic.
    pub fn load_pairs(&self, seed: u64) -> Vec<Pair> {
        bulk_load_pairs(self.entries, KEY_LEN, VALUE_LEN, seed)
    }

    /// The mission stream of a mission-driven workload: warm-up missions
    /// first, measured missions after them, from one generator.
    pub fn missions(&self, seed: u64, counts: Counts) -> Missions {
        let generator = OpGenerator::new(self.spec(), seed.wrapping_add(1));
        Missions(match self.driver {
            Driver::Paper => MissionSource::Dynamic(DynamicWorkload::paper_fig7(
                generator,
                counts.missions / SESSIONS,
                MISSION_OPS,
            )),
            _ => MissionSource::Steady(generator),
        })
    }

    /// Per-client scripts of the serving workload over disjoint write
    /// ranges: `warmup` missions per client first, `missions` after them.
    /// Returns `(warm-up scripts, measured scripts)`.
    pub fn scripts(&self, seed: u64, counts: Counts) -> (Vec<Vec<Operation>>, Vec<Vec<Operation>>) {
        let per_client = (counts.warmup + counts.missions) * MISSION_OPS;
        let mut measured = client_scripts(&self.spec(), CLIENTS, per_client, seed.wrapping_add(1));
        let warmup = measured
            .iter_mut()
            .map(|s| s.drain(..counts.warmup * MISSION_OPS).collect())
            .collect();
        (warmup, measured)
    }
}

enum MissionSource {
    Steady(OpGenerator),
    Dynamic(DynamicWorkload),
}

/// A stream of missions; see [`Workload::missions`].
pub struct Missions(MissionSource);

impl Missions {
    /// The next `n` missions (fewer once a dynamic schedule is exhausted).
    pub fn take(&mut self, n: usize) -> Vec<Vec<Operation>> {
        match &mut self.0 {
            MissionSource::Steady(g) => (0..n).map(|_| g.take_ops(MISSION_OPS)).collect(),
            MissionSource::Dynamic(d) => d.by_ref().take(n).map(|(_, ops)| ops).collect(),
        }
    }
}

/// Folds operations into the traffic fingerprint: kind, key and value
/// length (values are random bytes; their length is what the engine's
/// work depends on).
pub fn fingerprint(fp: &mut Fnv1a, ops: &[Operation]) {
    for op in ops {
        match op {
            Operation::Get { key } => {
                fp.write(b"g");
                fp.write(key);
            }
            Operation::Put { key, value } => {
                fp.write(b"p");
                fp.write(key);
                fp.write(&(value.len() as u32).to_le_bytes());
            }
            Operation::Delete { key } => {
                fp.write(b"d");
                fp.write(key);
            }
            Operation::Scan { start, end, limit } => {
                fp.write(b"s");
                fp.write(start);
                fp.write(end);
                fp.write(&(*limit as u64).to_le_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_scale_with_seconds_and_keep_sessions_equal() {
        for w in all() {
            let full = w.counts(10, 1);
            let quick = w.counts(10, 20);
            assert!(full.missions > quick.missions, "{}", w.name);
            assert_eq!(w.counts(10, 1), full, "a count is a function of its inputs");
            if w.driver == Driver::Paper {
                assert_eq!(full.missions % SESSIONS, 0);
                assert_eq!(quick.missions % SESSIONS, 0);
                assert_eq!(full.warmup, 0, "learning from scratch is what it measures");
            }
        }
    }

    #[test]
    fn traffic_repeats_per_seed_and_differs_across_seeds() {
        for w in all() {
            let counts = Counts {
                missions: if w.driver == Driver::Paper { 10 } else { 3 },
                warmup: 1,
            };
            let fp = |seed: u64| {
                let mut fp = Fnv1a::default();
                if w.driver == Driver::Serving {
                    let (warm, measured) = w.scripts(seed, counts);
                    assert!(warm.iter().all(|s| s.len() == MISSION_OPS));
                    for s in &measured {
                        assert_eq!(s.len(), 3 * MISSION_OPS);
                        fingerprint(&mut fp, s);
                    }
                } else {
                    let mut m = w.missions(seed, counts);
                    for ops in m.take(counts.missions) {
                        assert_eq!(ops.len(), MISSION_OPS);
                        fingerprint(&mut fp, &ops);
                    }
                }
                fp.finish()
            };
            assert_eq!(fp(42), fp(42), "{}", w.name);
            assert_ne!(fp(42), fp(7), "{}", w.name);
        }
    }

    #[test]
    fn a_dynamic_schedule_ends() {
        let w = by_name("paper-dynamic").unwrap();
        let counts = Counts {
            missions: 10,
            warmup: 0,
        };
        let mut m = w.missions(1, counts);
        assert_eq!(m.take(8).len(), 8);
        assert_eq!(m.take(8).len(), 2);
    }
}
