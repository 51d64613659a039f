//! One function per paper table/figure (`repro`'s usage text is the index).

use ruskey::db::RusKeyConfig;
use ruskey::lerp::{Lerp, LerpConfig, PropagationScheme};
use ruskey::tuner::{
    BruteForceLerp, FixedPolicy, GreedyHeuristic, LazyLeveling, NoOpTuner, PerLevelNoPropagation,
    Tuner,
};
use ruskey_analysis::TransitionScenario;
use ruskey_lsm::TransitionStrategy;
use ruskey_workload::ycsb::Preset;
use ruskey_workload::{DynamicWorkload, KeyDistribution, OpGenerator, OpMix, Operation};

use crate::runner::{
    converged_mean_latency, prepared_store, rank, run, ExperimentScale, MissionRecord,
};

/// One method's mission time series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Method label (e.g. RusKey, Lazy(K=10)).
    pub method: String,
    /// Per-mission records.
    pub records: Vec<MissionRecord>,
}

/// A complete single-workload comparison (one sub-figure).
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Workload label (e.g. "read-heavy").
    pub workload: String,
    /// One series per method.
    pub series: Vec<Series>,
}

fn lerp_tuner(scale: &ExperimentScale, monkey: bool) -> Box<dyn Tuner> {
    let scheme = if monkey {
        PropagationScheme::Monkey
    } else {
        PropagationScheme::Uniform
    };
    let mut cfg = LerpConfig::paper_default(scheme);
    cfg.seed = scale.seed.wrapping_mul(31).wrapping_add(7);
    Box::new(Lerp::new(cfg))
}

fn base_cfg(monkey: bool) -> RusKeyConfig {
    if monkey {
        RusKeyConfig::scaled_monkey()
    } else {
        RusKeyConfig::scaled_default()
    }
}

/// The methods of one comparison, in print order: a label and the tuner
/// its store is opened with.
type Roster = Vec<(String, Box<dyn Tuner>)>;

/// RusKey (Lerp under the scheme `monkey` picks) followed by `baselines`.
fn roster(scale: &ExperimentScale, monkey: bool, baselines: Roster) -> Roster {
    let mut methods = vec![("RusKey".to_string(), lerp_tuner(scale, monkey))];
    methods.extend(baselines);
    methods
}

/// The paper's three fixed baselines: Aggressive (K=1), Moderate (K=5),
/// Lazy (K=10 = T).
fn fixed_baselines() -> Roster {
    vec![
        (
            "Aggressive(K=1)".into(),
            Box::new(FixedPolicy::aggressive()) as Box<dyn Tuner>,
        ),
        ("Moderate(K=5)".into(), Box::new(FixedPolicy::moderate())),
        ("Lazy(K=10)".into(), Box::new(FixedPolicy::lazy())),
    ]
}

/// RusKey against the fixed baselines, plus Dostoevsky's Lazy-Leveling if
/// asked for: the roster of Figs. 6, 7, 8 and 11 and the YCSB sweep.
fn fixed_roster(scale: &ExperimentScale, monkey: bool, with_lazy_leveling: bool) -> Roster {
    let mut methods = roster(scale, monkey, fixed_baselines());
    if with_lazy_leveling {
        methods.push(lazy_leveling());
    }
    methods
}

/// Dostoevsky's Lazy-Leveling, the Monkey-scheme baseline of Figs. 8 and 9.
fn lazy_leveling() -> (String, Box<dyn Tuner>) {
    ("Lazy-Leveling".into(), Box::new(LazyLeveling))
}

/// Runs each method of `roster` over its own copy of the schedule
/// `missions` makes, on a freshly loaded store.
fn series<M>(
    scale: &ExperimentScale,
    monkey: bool,
    roster: Roster,
    missions: impl Fn() -> M,
) -> Vec<Series>
where
    M: IntoIterator<Item = (usize, Vec<Operation>)>,
{
    roster
        .into_iter()
        .map(|(method, tuner)| {
            let db = prepared_store(base_cfg(monkey), scale, tuner, scale.disk());
            Series {
                method,
                records: run(db, missions()),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 6 — static workloads, uniform Bloom scheme
// ---------------------------------------------------------------------

/// The three static mixes of Figs. 6, 8 and 11 (a–c).
fn static_mixes() -> [(&'static str, OpMix); 3] {
    [
        ("read-heavy", OpMix::read_heavy()),
        ("write-heavy", OpMix::write_heavy()),
        ("balanced", OpMix::balanced()),
    ]
}

/// Fig. 6: RusKey self-navigates to the optimal design on static workloads
/// (read-heavy / write-heavy / balanced), uniform scheme, vs the three
/// fixed baselines.
pub fn fig6(scale: &ExperimentScale) -> Vec<Comparison> {
    static_comparison(
        scale,
        false,
        KeyDistribution::Uniform,
        &static_mixes(),
        false,
    )
}

/// Fig. 8: the same comparison under the Monkey scheme, plus Lazy-Leveling.
pub fn fig8(scale: &ExperimentScale) -> Vec<Comparison> {
    static_comparison(scale, true, KeyDistribution::Uniform, &static_mixes(), true)
}

/// Fig. 11 (a–c): the same comparison on YCSB Zipfian workloads.
pub fn fig11_abc(scale: &ExperimentScale) -> Vec<Comparison> {
    let zipf = KeyDistribution::zipfian_default();
    static_comparison(scale, false, zipf, &static_mixes(), false)
}

/// Fig. 11 (d): 50% range lookups / 50% updates on YCSB Zipfian.
pub fn fig11_range(scale: &ExperimentScale) -> Comparison {
    let zipf = KeyDistribution::zipfian_default();
    let mixes = [("range-balanced", OpMix::range_balanced())];
    let mut comparisons = static_comparison(scale, false, zipf, &mixes, false);
    comparisons.remove(0)
}

/// One comparison per labelled mix: the fixed roster, each method on its
/// own store over the static mix.
fn static_comparison(
    scale: &ExperimentScale,
    monkey: bool,
    dist: KeyDistribution,
    mixes: &[(&str, OpMix)],
    with_lazy_leveling: bool,
) -> Vec<Comparison> {
    mixes
        .iter()
        .map(|(label, mix)| {
            let spec = scale.spec().with_mix(*mix).with_distribution(dist.clone());
            let roster = fixed_roster(scale, monkey, with_lazy_leveling);
            Comparison {
                workload: (*label).into(),
                series: series(scale, monkey, roster, || {
                    scale.static_missions(spec.clone())
                }),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 7 + Table 3 — dynamic workload
// ---------------------------------------------------------------------

/// Labels of the five Fig. 7 sessions, in order.
pub const FIG7_SESSIONS: [&str; 5] = [
    "read-heavy",
    "balanced",
    "write-heavy",
    "write-inclined",
    "read-inclined",
];

/// Fig. 7: the five-session dynamic workload, RusKey vs fixed baselines.
pub fn fig7(scale: &ExperimentScale) -> Vec<Series> {
    dynamic_comparison(scale, fixed_roster(scale, false, false))
}

/// Runs `roster` over the Fig. 7 schedule, each method on its own store.
fn dynamic_comparison(scale: &ExperimentScale, roster: Roster) -> Vec<Series> {
    series(scale, false, roster, || {
        let g = OpGenerator::new(scale.spec(), scale.seed.wrapping_add(1));
        DynamicWorkload::paper_fig7(g, scale.missions, scale.mission_size)
    })
}

/// A Table 3 / Fig. 12-style ranking: per-session mean latency (converged
/// tail) and per-method average rank.
#[derive(Debug, Clone)]
pub struct RankingTable {
    /// Method names.
    pub methods: Vec<String>,
    /// `latency[m][s]` = method m's tail latency in session s (ms/op).
    pub latency: Vec<Vec<f64>>,
    /// `ranks[m][s]` = method m's rank in session s (1 = best).
    pub ranks: Vec<Vec<usize>>,
    /// Average rank per method.
    pub avg_rank: Vec<f64>,
}

/// Builds the ranking table from per-method session series.
pub fn ranking_from_series(series: &[Series], sessions: usize) -> RankingTable {
    let methods: Vec<String> = series.iter().map(|s| s.method.clone()).collect();
    // Per-method per-session tail latency.
    let latency: Vec<Vec<f64>> = series
        .iter()
        .map(|s| {
            (0..sessions)
                .map(|sess| {
                    let recs: Vec<MissionRecord> = s
                        .records
                        .iter()
                        .filter(|r| r.session == sess)
                        .cloned()
                        .collect();
                    if recs.is_empty() {
                        f64::NAN
                    } else {
                        converged_mean_latency(&recs, 0.4)
                    }
                })
                .collect()
        })
        .collect();
    let mut ranks = vec![vec![0usize; sessions]; series.len()];
    for sess in 0..sessions {
        let col: Vec<f64> = latency.iter().map(|row| row[sess]).collect();
        let r = rank(&col);
        for (m, rr) in r.into_iter().enumerate() {
            ranks[m][sess] = rr;
        }
    }
    let avg_rank = ranks
        .iter()
        .map(|row| row.iter().sum::<usize>() as f64 / sessions as f64)
        .collect();
    RankingTable {
        methods,
        latency,
        ranks,
        avg_rank,
    }
}

// ---------------------------------------------------------------------
// Figure 9 — novel per-level policy settings vs Lazy-Leveling
// ---------------------------------------------------------------------

/// Result of the Fig. 9 per-level study.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Method label.
    pub method: String,
    /// End-to-end mean latency over the measured window (ms/op).
    pub end_to_end_ms_per_op: f64,
    /// Final per-level policies.
    pub policies: Vec<u32>,
    /// Per-level latency per op (ms) over the measured window.
    pub per_level_ms_per_op: Vec<f64>,
}

/// Fig. 9: under the Monkey scheme on a balanced workload, RusKey adopts a
/// novel per-level policy layout (aggressive on top, lazier deeper) and
/// beats Lazy-Leveling end-to-end and per level.
pub fn fig9(scale: &ExperimentScale) -> Vec<Fig9Result> {
    let spec = scale.spec().with_mix(OpMix::balanced());
    let roster = roster(scale, true, vec![lazy_leveling()]);
    series(scale, true, roster, || scale.static_missions(spec.clone()))
        .into_iter()
        .map(|Series { method, records }| {
            let tail_start = records.len() - (records.len() / 3).max(1);
            let tail = &records[tail_start..];
            let end_to_end =
                tail.iter().map(|r| r.latency_ms_per_op).sum::<f64>() / tail.len() as f64;
            let policies = tail.last().unwrap().policies.clone();
            // Per-level latency needs the mission reports' level stats; we
            // recompute from the recorded series: MissionRecord keeps only
            // aggregate numbers, so re-run the tail measurement directly.
            let per_level = per_level_latency(scale, true, &spec, &policies);
            Fig9Result {
                method,
                end_to_end_ms_per_op: end_to_end,
                policies,
                per_level_ms_per_op: per_level,
            }
        })
        .collect()
}

/// Measures steady-state per-level latency for a fixed policy layout.
fn per_level_latency(
    scale: &ExperimentScale,
    monkey: bool,
    spec: &ruskey_workload::WorkloadSpec,
    policies: &[u32],
) -> Vec<f64> {
    let mut db = prepared_store(base_cfg(monkey), scale, Box::new(NoOpTuner), scale.disk());
    for (l, &k) in policies.iter().enumerate() {
        db.shard_mut(0).set_policy(l, k);
    }
    let mut g = OpGenerator::new(spec.clone(), scale.seed.wrapping_add(99));
    let missions = (scale.missions / 4).max(5);
    let mut level_ns = Vec::new();
    let mut ops_total = 0u64;
    for _ in 0..missions {
        let ops = g.take_ops(scale.mission_size);
        let report = db.run_mission(&ops);
        ops_total += report.ops;
        let levels = &report.window.levels;
        if level_ns.len() < levels.len() {
            level_ns.resize(levels.len(), 0u64);
        }
        for (i, l) in levels.iter().enumerate() {
            level_ns[i] += l.total_ns();
        }
    }
    level_ns
        .into_iter()
        .map(|ns| ns as f64 / ops_total.max(1) as f64 / 1e6)
        .collect()
}

// ---------------------------------------------------------------------
// Figure 10 — transition micro-benchmark
// ---------------------------------------------------------------------

/// Fig. 10: per-mission write/read latency around a K=1 → K=10 transition
/// at the midpoint, for greedy/lazy/flexible transitions.
pub fn fig10(scale: &ExperimentScale) -> Vec<Series> {
    TransitionStrategy::ALL
        .iter()
        .map(|&strategy| {
            let cfg = base_cfg(false).with_transition(strategy);
            let mut db = prepared_store(cfg, scale, Box::new(NoOpTuner), scale.disk());
            db.shard_mut(0).set_policy_all(1);
            let spec = scale.spec().with_mix(OpMix::balanced());
            let mut g = OpGenerator::new(spec, scale.seed.wrapping_add(5));
            let half = scale.missions / 2;
            let mut records = Vec::with_capacity(scale.missions);
            for m in 0..scale.missions {
                if m == half {
                    // The transition under test: K = 1 -> K = 10 everywhere.
                    let levels = db.shard(0).level_count();
                    for l in 0..levels {
                        db.shard_mut(0).set_policy(l, 10);
                    }
                }
                let ops = g.take_ops(scale.mission_size);
                let report = db.run_mission(&ops);
                let session = usize::from(m >= half);
                records.push(MissionRecord::from_report(&report, session, true));
            }
            Series {
                method: strategy.name().into(),
                records,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 12 — greedy threshold heuristics
// ---------------------------------------------------------------------

/// Fig. 12: greedy threshold tuners vs RusKey on the Fig. 7 dynamic
/// workload, with the average-rank table.
pub fn fig12(scale: &ExperimentScale) -> Vec<Series> {
    let heuristics = GreedyHeuristic::paper_settings()
        .into_iter()
        .map(|h| (h.name(), Box::new(h) as Box<dyn Tuner>))
        .collect();
    dynamic_comparison(scale, roster(scale, false, heuristics))
}

// ---------------------------------------------------------------------
// Figure 13 — model update cost
// ---------------------------------------------------------------------

/// One row of the Fig. 13 comparison.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Workload + scheme label (e.g. "balanced-U").
    pub label: String,
    /// Mean LSM processing time per mission — virtual seconds (what a real
    /// deployment's I/O time would be).
    pub lsm_virtual_s: f64,
    /// Mean LSM processing time per mission — real wall seconds in the
    /// simulator.
    pub lsm_real_s: f64,
    /// Mean RL model update time per mission — real wall seconds.
    pub model_real_s: f64,
    /// Mission size this was measured at.
    pub mission_size: usize,
}

impl Fig13Row {
    /// Ratio of model update time to LSM time at the measured scale.
    pub fn ratio_measured(&self) -> f64 {
        self.model_real_s / self.lsm_virtual_s.max(1e-12)
    }

    /// Extrapolated ratio at the paper's mission size (50 000 ops): LSM
    /// time grows linearly with mission size while the model update is a
    /// constant number of gradient steps per mission.
    pub fn ratio_at_paper_scale(&self) -> f64 {
        let scale = 50_000.0 / self.mission_size as f64;
        self.model_real_s / (self.lsm_virtual_s * scale).max(1e-12)
    }
}

/// Fig. 13: RusKey's model update time per mission is insignificant next to
/// LSM operation time, across workloads and Bloom schemes.
pub fn fig13(scale: &ExperimentScale) -> Vec<Fig13Row> {
    let combos = [
        ("read-heavy-U", OpMix::read_heavy(), false),
        ("write-heavy-U", OpMix::write_heavy(), false),
        ("balanced-U", OpMix::balanced(), false),
        ("read-heavy-M", OpMix::read_heavy(), true),
        ("write-heavy-M", OpMix::write_heavy(), true),
        ("balanced-M", OpMix::balanced(), true),
    ];
    combos
        .iter()
        .map(|(label, mix, monkey)| {
            let spec = scale.spec().with_mix(*mix);
            let db = prepared_store(
                base_cfg(*monkey),
                scale,
                lerp_tuner(scale, *monkey),
                scale.disk(),
            );
            let records = run(db, scale.static_missions(spec));
            let n = records.len() as f64;
            let virt = records.iter().map(|r| r.latency_ms_per_op).sum::<f64>() / 1e3
                * scale.mission_size as f64
                / n;
            let real = records
                .iter()
                .map(|r| r.real_process_ns as f64)
                .sum::<f64>()
                / n
                / 1e9;
            let model = records
                .iter()
                .map(|r| r.model_update_ns as f64)
                .sum::<f64>()
                / n
                / 1e9;
            Fig13Row {
                label: (*label).into(),
                lsm_virtual_s: virt,
                lsm_real_s: real,
                model_real_s: model,
                mission_size: scale.mission_size,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 2 — transition costs: analytic + measured
// ---------------------------------------------------------------------

/// Analytic and measured transition costs for one strategy.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Strategy name.
    pub strategy: String,
    /// Analytic additional cost from §4.3 (I/Os), paper case study.
    pub analytic_ios: f64,
    /// Measured page I/O issued *at the moment of the transition* (pages).
    pub measured_immediate_pages: u64,
    /// Measured extra pages over the post-transition window versus a tree
    /// born with the new policy.
    pub measured_additional_pages: i64,
}

/// Table 2: the §4.3 case-study numbers (greedy 125, lazy 3.75, flexible
/// 2.5 I/Os) plus live measurements from the engine.
pub fn table2(scale: &ExperimentScale) -> Vec<Table2Row> {
    let s = TransitionScenario::paper_case_study();
    let analytic = [
        ("greedy", s.additional_cost_greedy()),
        ("lazy", s.additional_cost_lazy()),
        ("flexible", s.additional_cost_flexible()),
    ];

    // Baseline: a store born with the new policy processes the same window.
    let window_pages = |strategy: Option<TransitionStrategy>, k_old: u32, k_new: u32| {
        let cfg = base_cfg(false).with_transition(strategy.unwrap_or(TransitionStrategy::Flexible));
        let mut db = prepared_store(cfg, scale, Box::new(NoOpTuner), scale.disk());
        db.shard_mut(0).set_policy_all(k_old);
        let spec = scale.spec().with_mix(OpMix::balanced());
        let mut g = OpGenerator::new(spec, scale.seed.wrapping_add(17));
        // Warm up so the structure reflects k_old.
        for _ in 0..3 {
            let ops = g.take_ops(scale.mission_size);
            db.run_mission(&ops);
        }
        let before = db.shard(0).storage().metrics();
        if strategy.is_some() {
            db.shard_mut(0).set_policy_all(k_new);
        }
        let immediate = db.shard(0).storage().metrics().delta(&before);
        let m0 = db.shard(0).storage().metrics();
        for _ in 0..6 {
            let ops = g.take_ops(scale.mission_size);
            db.run_mission(&ops);
        }
        let window = db.shard(0).storage().metrics().delta(&m0);
        (immediate.page_ops(), window.page_ops())
    };

    // Reference: born with K = 5 -> switched to 4 (the case-study change).
    let (_, reference) = window_pages(None, 4, 4);
    TransitionStrategy::ALL
        .iter()
        .zip(analytic)
        .map(|(&strategy, (name, analytic_ios))| {
            let (immediate, window) = window_pages(Some(strategy), 5, 4);
            Table2Row {
                strategy: name.into(),
                analytic_ios,
                measured_immediate_pages: immediate,
                measured_additional_pages: window as i64 - reference as i64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// §7 brute-force comparison
// ---------------------------------------------------------------------

/// Result of the brute-force learning comparison.
#[derive(Debug, Clone)]
pub struct BruteForceRow {
    /// Method label.
    pub method: String,
    /// Did the tuner converge within the budget?
    pub converged: bool,
    /// Mission index of convergence (if any).
    pub converged_at: Option<usize>,
    /// Tail mean latency (ms/op).
    pub tail_latency_ms: f64,
    /// Total model update time (s).
    pub model_update_s: f64,
}

/// §7 "Brute-force learning approaches can be impractical": level-based
/// Lerp vs a single whole-tree DDPG (action space `O(T^L)`) vs per-level
/// RL without propagation.
///
/// The paper runs this on the balanced workload with a 24-hour budget; at
/// our scale the contrast is sharpest on the write-heavy mix, where Lerp
/// converges within ~70 missions while the brute-force variants keep
/// wandering.
pub fn bruteforce(scale: &ExperimentScale) -> Vec<BruteForceRow> {
    let spec = scale.spec().with_mix(OpMix::write_heavy());
    let methods: Roster = vec![
        (
            "RusKey (level-based + propagation)".into(),
            lerp_tuner(scale, false),
        ),
        (
            "Brute-force whole-tree RL".into(),
            Box::new(BruteForceLerp::new(4, scale.seed)),
        ),
        (
            "Per-level RL, no propagation".into(),
            Box::new(PerLevelNoPropagation::new(4, scale.seed)),
        ),
    ];
    series(scale, false, methods, || {
        scale.static_missions(spec.clone())
    })
    .into_iter()
    .map(|Series { method, records }| {
        let converged_at = records.iter().position(|r| r.converged);
        let tail = converged_mean_latency(&records, 0.3);
        let model_s = records.iter().map(|r| r.model_update_ns).sum::<u64>() as f64 / 1e9;
        BruteForceRow {
            method,
            converged: converged_at.is_some(),
            converged_at,
            tail_latency_ms: tail,
            model_update_s: model_s,
        }
    })
    .collect()
}

// ---------------------------------------------------------------------
// YCSB presets sweep (supporting experiment)
// ---------------------------------------------------------------------

/// Runs every YCSB preset against RusKey and the fixed baselines,
/// returning tail latencies. Used by the `ycsb_bench` example.
pub fn ycsb_sweep(
    scale: &ExperimentScale,
    presets: &[Preset],
) -> Vec<(String, Vec<(String, f64)>)> {
    presets
        .iter()
        .map(|p| {
            let spec = ruskey_workload::WorkloadSpec {
                key_space: scale.load_entries,
                key_len: scale.key_len,
                value_len: scale.value_len,
                ..p.spec(scale.load_entries)
            };
            let roster = fixed_roster(scale, false, false);
            let rows = series(scale, false, roster, || scale.static_missions(spec.clone()))
                .into_iter()
                .map(|s| (s.method, converged_mean_latency(&s.records, 0.3)))
                .collect();
            (p.label().to_string(), rows)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(method: &str, session: usize, latency: f64) -> Series {
        let record = MissionRecord {
            mission: 0,
            session,
            latency_ms_per_op: latency,
            write_latency_s: 0.0,
            read_latency_s: 0.0,
            policy_l1: 1,
            policies: vec![1],
            model_update_ns: 0,
            real_process_ns: 0,
            converged: true,
        };
        Series {
            method: method.into(),
            records: vec![record],
        }
    }

    #[test]
    fn a_session_without_records_does_not_stop_the_ranking() {
        // Two sessions, records only in the first: the second's latencies
        // are NaN for every method.
        let table = ranking_from_series(&[series("a", 0, 2.0), series("b", 0, 1.0)], 2);
        assert!(table.latency.iter().all(|row| row[1].is_nan()));
        assert_eq!((table.ranks[0][0], table.ranks[1][0]), (2, 1));
    }
}
