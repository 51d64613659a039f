//! One function per paper table/figure (`repro`'s usage text is the index),
//! each returning its claim rows and the series it plots.

use std::ops::Range;

use ruskey::db::RusKeyConfig;
use ruskey::lerp::{learn, Lerp, LerpConfig, Pending, PropagationScheme, DEFAULT_ALPHA};
use ruskey::state::{level_state, LEVEL_STATE_DIM};
use ruskey::tuner::{
    level_cost, stepped_policy, stride_seed, FixedPolicy, GreedyHeuristic, LazyLeveling, NoOpTuner,
    RewardScale, TreeObservation, Tuner,
};
use ruskey::MissionReport;
use ruskey_analysis::TransitionScenario;
use ruskey_lsm::TransitionStrategy;
use ruskey_rl::{Ddpg, DdpgConfig};
use ruskey_workload::ycsb::Preset;
use ruskey_workload::{DynamicWorkload, KeyDistribution, OpGenerator, OpMix, Operation};

use crate::ablations::whitebox_k;
use crate::claims::{ClaimRow, Outcome};
use crate::percentile::tail_mean;
use crate::runner::{
    converged_mean_latency, prepared_store, rank, run, ExperimentScale, MissionRecord,
};

/// How far above the best baseline RusKey's converged cost may sit for a
/// regret claim ("RusKey finds the best design") to hold.
const REGRET_BOUND: f64 = 1.15;

/// One method's mission time series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Method label (e.g. RusKey, Lazy(K=10)).
    pub method: String,
    /// Per-mission records.
    pub records: Vec<MissionRecord>,
}

/// The series of one plot (one sub-figure, one CSV file).
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The CSV file's stem (e.g. `fig6_static_uniform_read-heavy`).
    pub name: String,
    /// One series per method.
    pub series: Vec<Series>,
}

/// The first series' (RusKey's) converged ms/op over the best of the
/// rest: below 1 it beats every other method.
fn regret(series: &[Series], tail_fraction: f64) -> f64 {
    let tail = |s: &Series| converged_mean_latency(&s.records, tail_fraction);
    let best = series[1..].iter().map(tail).fold(f64::INFINITY, f64::min);
    tail(&series[0]) / best
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

/// One rung of the K ladder: `FixedPolicy::new(k)`, labelled as the
/// paper's Aggressive (K=1), Moderate (K=5) or Lazy (K=10 = T) baseline
/// where it is one.
fn rung(k: u32) -> (String, Box<dyn Tuner>) {
    let label = match k {
        1 => "Aggressive(K=1)".into(),
        5 => "Moderate(K=5)".into(),
        10 => "Lazy(K=10)".into(),
        k => format!("K={k}"),
    };
    (label, Box::new(FixedPolicy::new(k)))
}

/// RusKey against the fixed baselines, plus Dostoevsky's Lazy-Leveling if
/// asked for: the roster of Figs. 7, 8 and 11 and the YCSB sweep.
fn fixed_roster(scale: &ExperimentScale, monkey: bool, with_lazy_leveling: bool) -> Roster {
    let mut methods = roster(scale, monkey, [1, 5, 10].map(rung).into());
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
// Figure 6 — static workloads, uniform Bloom scheme, on the K ladder
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
/// (read-heavy / write-heavy / balanced), uniform scheme. Per mix, RusKey
/// and every rung K = 1..T run on their own store, and the rows are:
/// - `ladder.<mix>.k<K>`: each rung's converged ms/op;
/// - `ladder.<mix>.best_k`, and `ladder.<mix>.whitebox_k`, the white-box
///   optimum at the mix's lookup share on the scale's device;
/// - `ladder.<mix>.distinct_rungs`: how many distinct costs the rungs
///   have (rungs that build the same tree cost the same);
/// - `fig6.regret.<mix>`: RusKey's cost over the best rung's.
///
/// The plot keeps the paper's three baselines beside RusKey.
pub fn fig6(scale: &ExperimentScale) -> Outcome {
    let size_ratio = base_cfg(false).lsm.size_ratio;
    let mut out = Outcome::default();
    for (mix_label, mix) in static_mixes() {
        let spec = scale.spec().with_mix(mix);
        let ladder = roster(scale, false, (1..=size_ratio).map(rung).collect());
        let runs = series(scale, false, ladder, || scale.static_missions(spec.clone()));
        let costs: Vec<f64> = runs[1..]
            .iter()
            .map(|s| converged_mean_latency(&s.records, 0.4))
            .collect();
        let best = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let mut distinct = costs.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        let ladder_row =
            |name: &str, v: f64| ClaimRow::recorded(format!("ladder.{mix_label}.{name}"), v);
        for (k, &cost) in (1..).zip(&costs) {
            out.rows.push(ladder_row(&format!("k{k}"), cost));
        }
        let regret = regret(&runs, 0.4);
        out.rows.extend([
            ladder_row(
                "best_k",
                (1 + costs.iter().position(|&c| c == best).unwrap_or(0)) as f64,
            ),
            ladder_row("whitebox_k", whitebox_k(&scale.cost, mix.lookup).into()),
            ladder_row("distinct_rungs", distinct.len() as f64),
            ClaimRow::claim(
                format!("fig6.regret.{mix_label}"),
                Some(1.0),
                regret,
                regret <= REGRET_BOUND,
            ),
        ]);
        out.plots.push(Comparison {
            name: format!("fig6_static_uniform_{mix_label}"),
            series: runs
                .into_iter()
                .filter(|s| !s.method.starts_with("K="))
                .collect(),
        });
    }
    out
}

/// Fig. 8: the Fig. 6 comparison under the Monkey scheme against the
/// paper's three baselines and Lazy-Leveling: `fig8.regret.<mix>`.
pub fn fig8(scale: &ExperimentScale) -> Outcome {
    let mut out = Outcome::default();
    static_comparison(
        &mut out,
        scale,
        "fig8_static_monkey",
        true,
        KeyDistribution::Uniform,
        &static_mixes(),
    );
    out
}

/// Fig. 11: the comparison on YCSB Zipfian workloads, (a–c) the three
/// static mixes and (d) 50% range lookups / 50% updates:
/// `fig11.regret.<mix>` and `fig11d.regret.range-balanced`.
pub fn fig11(scale: &ExperimentScale) -> Outcome {
    let zipf = KeyDistribution::zipfian_default();
    let range = [("range-balanced", OpMix::range_balanced())];
    let mut out = Outcome::default();
    static_comparison(
        &mut out,
        scale,
        "fig11_ycsb",
        false,
        zipf.clone(),
        &static_mixes(),
    );
    static_comparison(&mut out, scale, "fig11d_range", false, zipf, &range);
    out
}

/// One comparison per labelled mix, each plotted as `<plot>_<mix>`: the
/// fixed roster (with Lazy-Leveling under the Monkey scheme), each method
/// on its own store over the static mix, and the row `<fig>.regret.<mix>`,
/// RusKey's converged ms/op over the best baseline's, where `<fig>` is
/// the plot's name up to its first `_`.
fn static_comparison(
    out: &mut Outcome,
    scale: &ExperimentScale,
    plot: &str,
    monkey: bool,
    dist: KeyDistribution,
    mixes: &[(&str, OpMix)],
) {
    let fig = plot.split('_').next().unwrap_or(plot);
    for (label, mix) in mixes {
        let spec = scale.spec().with_mix(*mix).with_distribution(dist.clone());
        let roster = fixed_roster(scale, monkey, monkey);
        let series = series(scale, monkey, roster, || {
            scale.static_missions(spec.clone())
        });
        let regret = regret(&series, 0.4);
        out.rows.push(ClaimRow::claim(
            format!("{fig}.regret.{label}"),
            Some(1.0),
            regret,
            regret <= REGRET_BOUND,
        ));
        out.plots.push(Comparison {
            name: format!("{plot}_{label}"),
            series,
        });
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

/// Fig. 7 and Table 3: the five-session dynamic workload, RusKey vs the
/// fixed baselines. Beside Table 3's ranking rows, `fig7.shift_missions.
/// <session>` counts the missions from the session's start to RusKey's
/// last K(L1) change in it (0 if it kept its K).
pub fn fig7(scale: &ExperimentScale) -> Outcome {
    let series = dynamic_comparison(scale, fixed_roster(scale, false, false));
    let mut rows = ranking_rows("table3", &series, &FIG7_SESSIONS);
    let recs = &series[0].records;
    for (s, label) in FIG7_SESSIONS.iter().enumerate() {
        let start = recs.iter().position(|r| r.session == s).unwrap_or(0);
        let last_change = (1..recs.len())
            .rfind(|&i| recs[i].session == s && recs[i].policy_l1 != recs[i - 1].policy_l1);
        let shift = last_change.map_or(0, |i| i + 1 - start);
        rows.push(ClaimRow::recorded(
            format!("fig7.shift_missions.{label}"),
            shift as f64,
        ));
    }
    let plots = vec![Comparison {
        name: "fig7".into(),
        series,
    }];
    Outcome { plots, rows }
}

/// Runs `roster` over the Fig. 7 schedule, each method on its own store.
fn dynamic_comparison(scale: &ExperimentScale, roster: Roster) -> Vec<Series> {
    series(scale, false, roster, || {
        let g = OpGenerator::new(scale.spec(), scale.seed.wrapping_add(1));
        DynamicWorkload::paper_fig7(g, scale.missions, scale.mission_size)
    })
}

/// A Table 3-style ranking of RusKey (the first series) against the rest,
/// by converged ms/op per session (a session without records is NaN and
/// ranks last):
/// - `<fig>.avg_rank`: RusKey's average rank; it holds when strictly the
///   best;
/// - `<fig>.margin`: the best other method's average rank minus RusKey's;
/// - `<fig>.regret.<session>`: RusKey's ms/op over the best other
///   method's in that session.
fn ranking_rows(fig: &str, series: &[Series], sessions: &[&str]) -> Vec<ClaimRow> {
    let mut rank_sums = vec![0usize; series.len()];
    let mut regrets = Vec::new();
    for (sess, label) in sessions.iter().enumerate() {
        let latency: Vec<f64> = series
            .iter()
            .map(|s| {
                let latencies: Vec<f64> = s
                    .records
                    .iter()
                    .filter(|r| r.session == sess)
                    .map(|r| r.latency_ms_per_op)
                    .collect();
                if latencies.is_empty() {
                    f64::NAN
                } else {
                    tail_mean(&latencies, 0.4)
                }
            })
            .collect();
        for (sum, r) in rank_sums.iter_mut().zip(rank(&latency)) {
            *sum += r;
        }
        let best_other = latency[1..].iter().copied().fold(f64::INFINITY, f64::min);
        regrets.push(ClaimRow::recorded(
            format!("{fig}.regret.{label}"),
            latency[0] / best_other,
        ));
    }
    let avg_rank: Vec<f64> = rank_sums
        .iter()
        .map(|&r| r as f64 / sessions.len() as f64)
        .collect();
    let best_other = avg_rank[1..].iter().copied().fold(f64::INFINITY, f64::min);
    let mut rows = vec![
        ClaimRow::claim(
            format!("{fig}.avg_rank"),
            None,
            avg_rank[0],
            avg_rank[0] < best_other,
        ),
        ClaimRow::recorded(format!("{fig}.margin"), best_other - avg_rank[0]),
    ];
    rows.extend(regrets);
    rows
}

// ---------------------------------------------------------------------
// Figure 9 — novel per-level policy settings vs Lazy-Leveling
// ---------------------------------------------------------------------

/// Fig. 9: under the Monkey scheme on a balanced workload, RusKey adopts a
/// novel per-level policy layout (aggressive on top, lazier deeper) and
/// beats Lazy-Leveling end to end and per level. Rows:
/// `fig9.vs_lazy_leveling`, RusKey's converged ms/op (last third) over
/// Lazy-Leveling's; per level, `fig9.level<i>.k`, RusKey's final K, and
/// `fig9.level<i>.vs_lazy_leveling`, the same ratio per level, measured
/// again on each method's final layout.
pub fn fig9(scale: &ExperimentScale) -> Outcome {
    let spec = scale.spec().with_mix(OpMix::balanced());
    let roster = roster(scale, true, vec![lazy_leveling()]);
    let series = series(scale, true, roster, || scale.static_missions(spec.clone()));
    let ratio = regret(&series, 1.0 / 3.0);
    let mut rows = vec![ClaimRow::claim(
        "fig9.vs_lazy_leveling",
        None,
        ratio,
        ratio <= 1.0,
    )];
    let final_policies = |s: &Series| {
        s.records
            .last()
            .map(|r| r.policies.clone())
            .unwrap_or_default()
    };
    let ruskey_policies = final_policies(&series[0]);
    let ours = per_level_latency(scale, true, &spec, &ruskey_policies);
    let theirs = per_level_latency(scale, true, &spec, &final_policies(&series[1]));
    for (l, (o, t)) in ours.iter().zip(&theirs).enumerate() {
        let k = ruskey_policies.get(l).map_or(f64::NAN, |&k| k.into());
        rows.push(ClaimRow::recorded(format!("fig9.level{}.k", l + 1), k));
        rows.push(ClaimRow::recorded(
            format!("fig9.level{}.vs_lazy_leveling", l + 1),
            o / t,
        ));
    }
    Outcome {
        rows,
        ..Outcome::default()
    }
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
/// at the midpoint, for greedy/lazy/flexible transitions. Per strategy,
/// `fig10.<strategy>.peak_write_s` (the worst mission's write time after
/// the switch) and `fig10.<strategy>.total_s` (every mission's read and
/// write time); then flexible's peak and total over the better of the
/// other two, which hold below 1.
pub fn fig10(scale: &ExperimentScale) -> Outcome {
    let half = scale.missions / 2;
    let series: Vec<Series> = TransitionStrategy::ALL
        .iter()
        .map(|&strategy| {
            let cfg = base_cfg(false).with_transition(strategy);
            let mut db = prepared_store(cfg, scale, Box::new(NoOpTuner), scale.disk());
            db.shard_mut(0).set_policy_all(1);
            let spec = scale.spec().with_mix(OpMix::balanced());
            let mut g = OpGenerator::new(spec, scale.seed.wrapping_add(5));
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
        .collect();
    let mut rows = Vec::new();
    let mut costs = Vec::new();
    for s in &series {
        let peak = s.records[half.min(s.records.len())..]
            .iter()
            .map(|r| r.write_latency_s)
            .fold(0.0, f64::max);
        let total: f64 = s
            .records
            .iter()
            .map(|r| r.write_latency_s + r.read_latency_s)
            .sum();
        rows.push(ClaimRow::recorded(
            format!("fig10.{}.peak_write_s", s.method),
            peak,
        ));
        rows.push(ClaimRow::recorded(
            format!("fig10.{}.total_s", s.method),
            total,
        ));
        costs.push((peak, total));
    }
    // Greedy, lazy, flexible; the paper's totals are 51 s, 44 s and 40 s.
    let [greedy, lazy, flexible] = [costs[0], costs[1], costs[2]];
    let peak_ratio = flexible.0 / greedy.0.min(lazy.0);
    let total_ratio = flexible.1 / greedy.1.min(lazy.1);
    rows.extend([
        ClaimRow::claim(
            "fig10.flexible_peak_ratio",
            None,
            peak_ratio,
            peak_ratio < 1.0,
        ),
        ClaimRow::claim(
            "fig10.flexible_total_ratio",
            Some(40.0 / 44.0),
            total_ratio,
            total_ratio < 1.0,
        ),
    ]);
    let plots = vec![Comparison {
        name: "fig10".into(),
        series,
    }];
    Outcome { plots, rows }
}

// ---------------------------------------------------------------------
// Figure 12 — greedy threshold heuristics
// ---------------------------------------------------------------------

/// The `(h_bottom, h_top)` thresholds, in percent, of every greedy
/// heuristic Fig. 12 evaluates.
const GREEDY_SETTINGS: [(u8, u8); 6] = [(50, 50), (33, 67), (25, 75), (10, 90), (25, 50), (50, 75)];

/// Fig. 12: greedy threshold tuners vs RusKey on the Fig. 7 dynamic
/// workload, ranked as Table 3 is (`fig12.avg_rank`, `.margin`,
/// `.regret.<session>`).
pub fn fig12(scale: &ExperimentScale) -> Outcome {
    let heuristics = GREEDY_SETTINGS
        .iter()
        .map(|&(bottom, top)| GreedyHeuristic::new(bottom.into(), top.into()))
        .map(|h| (h.name(), Box::new(h) as Box<dyn Tuner>))
        .collect();
    let series = dynamic_comparison(scale, roster(scale, false, heuristics));
    let rows = ranking_rows("fig12", &series, &FIG7_SESSIONS);
    let plots = vec![Comparison {
        name: "fig12".into(),
        series,
    }];
    Outcome { plots, rows }
}

// ---------------------------------------------------------------------
// Figure 13 — model update cost
// ---------------------------------------------------------------------

/// Fig. 13: RusKey's model update time per mission is insignificant next to
/// LSM operation time, across workloads and Bloom schemes. The row
/// `fig13.model_share_50k` is the largest share over the six mixes and
/// schemes, extrapolated to the paper's 50 000-op missions: LSM time grows
/// with the mission while the model update is a constant number of
/// gradient steps. The model time is the one wall-clock number of the
/// claims; the LSM time is virtual.
pub fn fig13(scale: &ExperimentScale) -> Outcome {
    let combos = [
        (OpMix::read_heavy(), false),
        (OpMix::write_heavy(), false),
        (OpMix::balanced(), false),
        (OpMix::read_heavy(), true),
        (OpMix::write_heavy(), true),
        (OpMix::balanced(), true),
    ];
    let share = combos
        .iter()
        .map(|(mix, monkey)| {
            let spec = scale.spec().with_mix(*mix);
            let db = prepared_store(
                base_cfg(*monkey),
                scale,
                lerp_tuner(scale, *monkey),
                scale.disk(),
            );
            let records = run(db, scale.static_missions(spec));
            let model_s: f64 = records.iter().map(|r| r.model_update_ns as f64 / 1e9).sum();
            let lsm_s_at_50k: f64 = records
                .iter()
                .map(|r| r.latency_ms_per_op / 1e3 * 50_000.0)
                .sum();
            model_s / lsm_s_at_50k.max(1e-12)
        })
        .fold(0.0, f64::max);
    Outcome {
        rows: vec![ClaimRow::claim(
            "fig13.model_share_50k",
            Some(0.01),
            share,
            share <= 0.01,
        )],
        ..Outcome::default()
    }
}

// ---------------------------------------------------------------------
// Table 2 — transition costs: analytic + measured
// ---------------------------------------------------------------------

/// Table 2: the §4.3 case-study numbers (greedy 125, lazy 3.75, flexible
/// 2.5 I/Os, the paper column of `table2.<strategy>.additional_pages`)
/// beside live measurements of a K = 5 → 4 switch: the pages issued at
/// the switch (`immediate_pages`), the extra pages over the next window
/// against a store born with K = 4 (`additional_pages`), and their sum
/// (`total_pages`), which holds for flexible when it is the least of the
/// three.
pub fn table2(scale: &ExperimentScale) -> Outcome {
    let s = TransitionScenario::paper_case_study();
    let analytic = [
        s.additional_cost_greedy(),
        s.additional_cost_lazy(),
        s.additional_cost_flexible(),
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

    // Reference: born with K = 4, the policy the case study switches to.
    let (_, reference) = window_pages(None, 4, 4);
    let measured: Vec<(u64, f64)> = TransitionStrategy::ALL
        .iter()
        .map(|&strategy| {
            let (immediate, window) = window_pages(Some(strategy), 5, 4);
            (immediate, window as f64 - reference as f64)
        })
        .collect();
    let totals: Vec<f64> = measured.iter().map(|&(i, a)| i as f64 + a).collect();
    let mut rows = Vec::new();
    for (i, strategy) in TransitionStrategy::ALL.iter().enumerate() {
        let id = |what: &str| format!("table2.{}.{what}_pages", strategy.name());
        let (immediate, additional) = measured[i];
        let total = totals[i];
        rows.push(ClaimRow::recorded(id("immediate"), immediate as f64));
        rows.push(ClaimRow {
            paper: Some(analytic[i]),
            ..ClaimRow::recorded(id("additional"), additional)
        });
        rows.push(if *strategy == TransitionStrategy::Flexible {
            let least = totals.iter().enumerate().all(|(j, &t)| j == i || total < t);
            ClaimRow::claim(id("total"), None, total, least)
        } else {
            ClaimRow::recorded(id("total"), total)
        });
    }
    Outcome {
        rows,
        ..Outcome::default()
    }
}

// ---------------------------------------------------------------------
// §7 brute-force comparison
// ---------------------------------------------------------------------

/// Levels the agents of a §7 RL baseline tune.
const BASELINE_LEVELS: usize = 4;

/// How a §7 impracticality baseline schedules DDPG agents over Lerp's
/// [`LevelLearner`](ruskey::lerp::LevelLearner) seam. Lerp (§5) tunes one
/// level at a time and propagates what it learned to the deeper levels;
/// every agent of a baseline tunes the levels it owns at every mission, and
/// nothing is propagated. Each value is a constant of its baseline.
struct Schedule {
    /// The method's name.
    name: &'static str,
    /// Levels one agent owns: 1, or all [`BASELINE_LEVELS`].
    levels_per_agent: usize,
    /// Gradient steps per mission.
    train_steps: usize,
    /// Transitions an agent stores before it trains.
    warmup: usize,
    /// Weight of the first owned level's latency in the cost (§5.1.3): 0
    /// for the whole-tree agent, whose cost is the end-to-end latency.
    alpha: f64,
}

/// §7's brute-force model: one agent whose action moves every level at
/// once (action space `O(T^L)` instead of `O(L)`).
const BRUTE_FORCE: Schedule = Schedule {
    name: "brute-force-rl",
    levels_per_agent: BASELINE_LEVELS,
    train_steps: 1,
    warmup: 32,
    alpha: 0.0,
};

/// §7's second variant: an agent per level, all trained at once from their
/// own level rewards. Deep levels compact exponentially less often, so
/// their agents starve for samples (the paper sees failures from Level 3
/// down).
const PER_LEVEL: Schedule = Schedule {
    name: "per-level-rl-no-propagation",
    levels_per_agent: 1,
    train_steps: 1,
    warmup: 16,
    alpha: DEFAULT_ALPHA,
};

/// A [`Schedule`] seated as a tuner: agent `i` owns the levels from
/// `i·levels_per_agent` on, and tunes those that exist. It never counts as
/// converged: that brute force does not reliably converge is the point.
/// Its model-update time is not kept: `bruteforce` reports none.
struct Baseline {
    schedule: &'static Schedule,
    seed: u64,
    /// Each agent, with its reward scale and its step awaiting a reward.
    agents: Vec<(Ddpg, RewardScale, Pending)>,
}

impl Baseline {
    /// The tuner of shard `shard`: its agent `i` is sibling
    /// `shard·agents + i` of `seed`, so no two seats share an agent seed.
    fn seat(schedule: &'static Schedule, seed: u64, shard: usize) -> Self {
        let levels = schedule.levels_per_agent;
        let n = BASELINE_LEVELS / levels;
        let agent = |i| DdpgConfig {
            seed: stride_seed(seed, shard * n + i),
            warmup: schedule.warmup,
            ..DdpgConfig::paper_default(levels * LEVEL_STATE_DIM, levels)
        };
        let agents = (0..n).map(|i| (Ddpg::new(agent(i)), RewardScale::default(), None));
        Self {
            schedule,
            seed,
            agents: agents.collect(),
        }
    }
}

impl Tuner for Baseline {
    fn name(&self) -> String {
        self.schedule.name.into()
    }

    fn tune(&mut self, report: &MissionReport, obs: &TreeObservation) -> Vec<(usize, u32)> {
        let s = self.schedule;
        let mut out = Vec::new();
        for (i, (agent, scale, pending)) in self.agents.iter_mut().enumerate() {
            let first = i * s.levels_per_agent;
            if first >= obs.level_count {
                break;
            }
            let state = full_state(report, obs, first..first + s.levels_per_agent);
            let reward = scale.reward(level_cost(report, first, s.alpha));
            learn(agent, pending.take(), reward, &state, s.train_steps);
            let (_, action) = agent.act_both(&state);
            for (level, &a) in (first..obs.level_count).zip(&action) {
                let k = stepped_policy(obs.policies[level], a, obs.size_ratio);
                if k != obs.policies[level] {
                    out.push((level, k));
                }
            }
            *pending = Some((state, action));
        }
        out
    }

    fn for_shard(&self, shard: usize) -> Box<dyn Tuner> {
        Box::new(Self::seat(self.schedule, self.seed, shard))
    }

    fn converged(&self) -> bool {
        false
    }
}

/// The state of an agent that owns `levels`: their [`level_state`]s,
/// concatenated. Over every level it is the whole-tree state of §7's
/// "without a level-based model" comparison.
fn full_state(report: &MissionReport, obs: &TreeObservation, levels: Range<usize>) -> Vec<f32> {
    levels.flat_map(|l| level_state(report, obs, l)).collect()
}

/// §7 "Brute-force learning approaches can be impractical": level-based
/// Lerp vs a single whole-tree DDPG (action space `O(T^L)`) vs per-level
/// RL without propagation. Rows: `bruteforce.converged_at`, the mission
/// RusKey converged at (none if it did not), and `bruteforce.tail_ratio`,
/// its converged ms/op over the better brute-force method's, which holds
/// at or below 1.
///
/// The paper runs this on the balanced workload with a 24-hour budget; at
/// our scale the contrast is sharpest on the write-heavy mix.
pub fn bruteforce(scale: &ExperimentScale) -> Outcome {
    let spec = scale.spec().with_mix(OpMix::write_heavy());
    let methods: Roster = vec![
        (
            "RusKey (level-based + propagation)".into(),
            lerp_tuner(scale, false),
        ),
        (
            "Brute-force whole-tree RL".into(),
            Box::new(Baseline::seat(&BRUTE_FORCE, scale.seed, 0)),
        ),
        (
            "Per-level RL, no propagation".into(),
            Box::new(Baseline::seat(&PER_LEVEL, scale.seed, 0)),
        ),
    ];
    let series = series(scale, false, methods, || {
        scale.static_missions(spec.clone())
    });
    let converged_at = series[0].records.iter().position(|r| r.converged);
    let ratio = regret(&series, 0.3);
    Outcome {
        rows: vec![
            ClaimRow::recorded(
                "bruteforce.converged_at",
                converged_at.map_or(f64::NAN, |m| m as f64),
            ),
            ClaimRow::claim("bruteforce.tail_ratio", None, ratio, ratio <= 1.0),
        ],
        ..Outcome::default()
    }
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
        let rows = ranking_rows(
            "t",
            &[series("a", 0, 2.0), series("b", 0, 1.0)],
            &["s0", "s1"],
        );
        let row = |id: &str| rows.iter().find(|r| r.id == id).expect(id);
        assert_eq!(row("t.regret.s0").ours, 2.0);
        assert!(row("t.regret.s1").ours.is_nan());
        // a ranks 2 in s0 and, tied with b as the two NaNs, 1 in s1: its
        // average rank trails b's by half a rank.
        assert_eq!(row("t.avg_rank").ours, 1.5);
        assert_eq!(row("t.avg_rank").verdict, crate::Verdict::Fails);
        assert_eq!(row("t.margin").ours, -0.5);
    }

    fn obs(policies: Vec<u32>) -> TreeObservation {
        let n = policies.len();
        TreeObservation {
            policies,
            fills: vec![0.5; n],
            run_counts: vec![1; n],
            size_ratio: 10,
            level_count: n,
        }
    }

    fn report() -> MissionReport {
        MissionReport {
            ops: 1000,
            window: ruskey_lsm::TreeStatsSnapshot {
                lookups: 500,
                updates: 500,
                clock_ns: 1_000_000,
                levels: vec![ruskey_lsm::LevelStatsSnapshot::default(); 3],
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn per_level_no_propagation_bounded_and_never_converged() {
        let mut t = Baseline::seat(&PER_LEVEL, 9, 0);
        for _ in 0..5 {
            for (lvl, k) in t.tune(&report(), &obs(vec![5, 5, 5])) {
                assert!(lvl < 3);
                assert!((1..=10).contains(&k));
            }
        }
        assert!(!t.converged());
        assert_eq!(t.name(), "per-level-rl-no-propagation");
        assert_eq!(t.for_shard(2).name(), t.name());
    }

    #[test]
    fn per_level_seats_give_every_agent_its_own_seed() {
        // An agent's first greedy action is a function of its seed (its
        // initial weights): two agents with one seed act alike to the bit.
        let probe = [0.5; LEVEL_STATE_DIM];
        let mut seen = std::collections::HashMap::new();
        for shard in 0..4 {
            let mut seat = Baseline::seat(&PER_LEVEL, 9, shard);
            for (level, (agent, ..)) in seat.agents.iter_mut().enumerate() {
                let bits = agent.act(&probe)[0].to_bits();
                if let Some((s, l)) = seen.insert(bits, (shard, level)) {
                    panic!("shard {shard} level {level} has the seed of shard {s} level {l}");
                }
            }
        }
    }

    #[test]
    fn brute_force_emits_bounded_changes() {
        let mut t = Baseline::seat(&BRUTE_FORCE, 1, 0);
        for _ in 0..5 {
            for (lvl, k) in t.tune(&report(), &obs(vec![5, 5, 5])) {
                assert!(lvl < 3);
                assert!((1..=10).contains(&k));
            }
        }
        assert!(!t.converged());
        assert_eq!(t.for_shard(2).name(), t.name());
    }

    #[test]
    fn full_state_concatenates() {
        let (r, o) = (report(), obs(vec![2, 5]));
        let s = full_state(&r, &o, 0..2);
        assert_eq!(s.len(), 2 * LEVEL_STATE_DIM);
        assert_eq!(&s[..LEVEL_STATE_DIM], level_state(&r, &o, 0).as_slice());
        assert_eq!(full_state(&r, &o, 1..2), level_state(&r, &o, 1));
    }

    #[test]
    fn regret_divides_ruskeys_cost_by_the_best_other_methods() {
        let methods = [
            series("RusKey", 0, 2.0),
            series("a", 0, 4.0),
            series("b", 0, 1.6),
        ];
        assert_eq!(regret(&methods, 0.4), 1.25);
        assert_eq!(regret(&methods[..2], 0.4), 0.5);
    }
}
