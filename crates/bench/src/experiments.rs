//! One function per paper table/figure (`repro`'s usage text is the index).

use ruskey::db::RusKeyConfig;
use ruskey::lerp::{Lerp, LerpConfig, PropagationScheme};
use ruskey::runner::{
    converged_mean_latency, prepared_store, rank, run_dynamic, run_static, ExperimentScale,
    MissionRecord,
};
use ruskey::tuner::{
    BruteForceLerp, FixedPolicy, GreedyHeuristic, LazyLeveling, NoOpTuner, PerLevelNoPropagation,
    Tuner,
};
use ruskey_analysis::TransitionScenario;
use ruskey_lsm::TransitionStrategy;
use ruskey_workload::ycsb::Preset;
use ruskey_workload::{DynamicWorkload, KeyDistribution, OpGenerator, OpMix};

/// One method's mission time series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Method label (e.g. "RusKey", "K=1").
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

/// The paper's three fixed baselines: Aggressive (K=1), Moderate (K=5),
/// Lazy (K=10 = T).
fn fixed_baselines() -> Vec<(String, Box<dyn Tuner>)> {
    vec![
        (
            "Aggressive(K=1)".into(),
            Box::new(FixedPolicy::aggressive()) as Box<dyn Tuner>,
        ),
        ("Moderate(K=5)".into(), Box::new(FixedPolicy::moderate())),
        ("Lazy(K=10)".into(), Box::new(FixedPolicy::lazy())),
    ]
}

// ---------------------------------------------------------------------
// Figure 6 — static workloads, uniform Bloom scheme
// ---------------------------------------------------------------------

/// Fig. 6: RusKey self-navigates to the optimal design on static workloads
/// (read-heavy / write-heavy / balanced), uniform scheme, vs the three
/// fixed baselines.
pub fn fig6(scale: &ExperimentScale) -> Vec<Comparison> {
    static_comparison(scale, false, KeyDistribution::Uniform, false)
}

/// Fig. 8: the same comparison under the Monkey scheme, plus Lazy-Leveling.
pub fn fig8(scale: &ExperimentScale) -> Vec<Comparison> {
    static_comparison(scale, true, KeyDistribution::Uniform, true)
}

/// Fig. 11 (a–c): the same comparison on YCSB Zipfian workloads.
pub fn fig11_abc(scale: &ExperimentScale) -> Vec<Comparison> {
    static_comparison(scale, false, KeyDistribution::zipfian_default(), false)
}

fn static_comparison(
    scale: &ExperimentScale,
    monkey: bool,
    dist: KeyDistribution,
    with_lazy_leveling: bool,
) -> Vec<Comparison> {
    let workloads = [
        ("read-heavy", OpMix::read_heavy()),
        ("write-heavy", OpMix::write_heavy()),
        ("balanced", OpMix::balanced()),
    ];
    workloads
        .iter()
        .map(|(label, mix)| {
            let spec = scale.spec().with_mix(*mix).with_distribution(dist.clone());
            let mut series = vec![Series {
                method: "RusKey".into(),
                records: run_static(
                    base_cfg(monkey),
                    scale,
                    lerp_tuner(scale, monkey),
                    spec.clone(),
                ),
            }];
            for (name, tuner) in fixed_baselines() {
                series.push(Series {
                    method: name,
                    records: run_static(base_cfg(monkey), scale, tuner, spec.clone()),
                });
            }
            if with_lazy_leveling {
                series.push(Series {
                    method: "Lazy-Leveling".into(),
                    records: run_static(
                        base_cfg(monkey),
                        scale,
                        Box::new(LazyLeveling),
                        spec.clone(),
                    ),
                });
            }
            Comparison {
                workload: (*label).into(),
                series,
            }
        })
        .collect()
}

/// Fig. 11 (d): 50% range lookups / 50% updates on YCSB Zipfian.
pub fn fig11_range(scale: &ExperimentScale) -> Comparison {
    let spec = scale
        .spec()
        .with_mix(OpMix::range_balanced())
        .with_distribution(KeyDistribution::zipfian_default());
    let mut series = vec![Series {
        method: "RusKey".into(),
        records: run_static(
            base_cfg(false),
            scale,
            lerp_tuner(scale, false),
            spec.clone(),
        ),
    }];
    for (name, tuner) in fixed_baselines() {
        series.push(Series {
            method: name,
            records: run_static(base_cfg(false), scale, tuner, spec.clone()),
        });
    }
    Comparison {
        workload: "range-balanced".into(),
        series,
    }
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
    let mut out = Vec::new();
    let mk_workload = |seed: u64| {
        let g = OpGenerator::new(scale.spec(), seed);
        DynamicWorkload::paper_fig7(g, scale.missions, scale.mission_size)
    };
    out.push(Series {
        method: "RusKey".into(),
        records: run_dynamic(
            base_cfg(false),
            scale,
            lerp_tuner(scale, false),
            mk_workload(scale.seed.wrapping_add(1)),
        ),
    });
    for (name, tuner) in fixed_baselines() {
        out.push(Series {
            method: name,
            records: run_dynamic(
                base_cfg(false),
                scale,
                tuner,
                mk_workload(scale.seed.wrapping_add(1)),
            ),
        });
    }
    out
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
    let methods: Vec<(String, Box<dyn Tuner>)> = vec![
        ("RusKey".into(), lerp_tuner(scale, true)),
        ("Lazy-Leveling".into(), Box::new(LazyLeveling)),
    ];
    methods
        .into_iter()
        .map(|(method, tuner)| {
            let records = run_static(base_cfg(true), scale, tuner, spec.clone());
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
    let mut db = prepared_store(base_cfg(monkey), scale, Box::new(NoOpTuner));
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
            let mut db = prepared_store(cfg, scale, Box::new(NoOpTuner));
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
    let mk_workload = |seed: u64| {
        let g = OpGenerator::new(scale.spec(), seed);
        DynamicWorkload::paper_fig7(g, scale.missions, scale.mission_size)
    };
    let mut out = vec![Series {
        method: "RusKey".into(),
        records: run_dynamic(
            base_cfg(false),
            scale,
            lerp_tuner(scale, false),
            mk_workload(scale.seed.wrapping_add(1)),
        ),
    }];
    for h in GreedyHeuristic::paper_settings() {
        let name = h.name();
        out.push(Series {
            method: name,
            records: run_dynamic(
                base_cfg(false),
                scale,
                Box::new(h),
                mk_workload(scale.seed.wrapping_add(1)),
            ),
        });
    }
    out
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
            let records = run_static(base_cfg(*monkey), scale, lerp_tuner(scale, *monkey), spec);
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
        let mut db = prepared_store(cfg, scale, Box::new(NoOpTuner));
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
    let methods: Vec<(String, Box<dyn Tuner>)> = vec![
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
    methods
        .into_iter()
        .map(|(method, tuner)| {
            let records = run_static(base_cfg(false), scale, tuner, spec.clone());
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
            let mut rows = vec![(
                "RusKey".to_string(),
                converged_mean_latency(
                    &run_static(
                        base_cfg(false),
                        scale,
                        lerp_tuner(scale, false),
                        spec.clone(),
                    ),
                    0.3,
                ),
            )];
            for (name, tuner) in fixed_baselines() {
                rows.push((
                    name,
                    converged_mean_latency(
                        &run_static(base_cfg(false), scale, tuner, spec.clone()),
                        0.3,
                    ),
                ));
            }
            (p.label().to_string(), rows)
        })
        .collect()
}
