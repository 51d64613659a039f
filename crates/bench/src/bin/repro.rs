//! `repro` — regenerates every table and figure of the RusKey paper.
//!
//! ```text
//! repro <experiment> [--scale tiny|small|full] [--csv DIR] [--json PATH]
//!
//! experiments:
//!   table2  fig6  fig7  table3  fig8  fig9  fig10  fig11  fig12  fig13
//!   bruteforce  tuning  all  ablations
//! ```
//!
//! Results print as aligned text tables; `--csv DIR` additionally writes
//! the per-mission series as CSV files for plotting. `tuning` also writes
//! its rows and its `tuning_ok` verdict as JSON, to `--json PATH` if given
//! (under `all` too), else to `tuning.json`. An unknown experiment, flag
//! or scale, or a flag without its value, prints the valid choices and
//! exits with status 2; output that cannot be written exits with status 1.
//! The engine's own performance is measured by the perf ledger
//! (`ledger/`), not here.

#![forbid(unsafe_code)]

use ruskey::runner::ExperimentScale;
use ruskey_bench::*;

/// What every experiment runner gets.
struct Ctx {
    scale: ExperimentScale,
    /// The scale's name in the JSON documents.
    label: &'static str,
    csv_dir: Option<String>,
    /// Where `tuning`'s JSON goes, if the caller said.
    json_path: Option<String>,
}

/// One experiment: its name, whether `all` includes it, and its runner.
type Experiment = (&'static str, bool, fn(&Ctx));

/// Every experiment by name. `table3` is `fig7` under its other name;
/// `ablations` only runs when asked for.
const EXPERIMENTS: &[Experiment] = &[
    ("table2", true, run_table2),
    ("fig6", true, |c| {
        run_comparisons("fig6_static_uniform", &fig6(&c.scale), c)
    }),
    ("fig7", true, run_fig7_table3),
    ("table3", false, run_fig7_table3),
    ("fig8", true, |c| {
        run_comparisons("fig8_static_monkey", &fig8(&c.scale), c)
    }),
    ("fig9", true, run_fig9),
    ("fig10", true, run_fig10),
    ("fig11", true, |c| {
        run_comparisons("fig11_ycsb", &fig11_abc(&c.scale), c);
        run_comparisons("fig11d_range", &[fig11_range(&c.scale)], c);
    }),
    ("fig12", true, run_fig12),
    ("fig13", true, run_fig13),
    ("bruteforce", true, run_bruteforce),
    ("tuning", true, run_tuning),
    ("ablations", false, run_ablations),
];

/// Reports a command-line mistake with the valid choices and exits 2.
fn usage_error(problem: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    eprintln!("repro: {problem}");
    eprintln!("usage: repro <experiment> [--scale tiny|small|full] [--csv DIR] [--json PATH]");
    eprintln!("experiments: {} all", names.join(" "));
    std::process::exit(2);
}

/// Parses the command line into the experiment name and its context.
fn parse_args() -> (String, Ctx) {
    let mut argv = std::env::args().skip(1);
    let mut experiment = String::from("all");
    let mut scale = "small".to_string();
    let mut csv_dir = None;
    let mut json_path = None;
    while let Some(arg) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| usage_error(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--json" => json_path = Some(value()),
            "--csv" => csv_dir = Some(value()),
            "--scale" => scale = value(),
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag {flag}")),
            name => experiment = name.to_string(),
        }
    }
    if experiment != "all" && !EXPERIMENTS.iter().any(|e| e.0 == experiment) {
        usage_error(&format!("unknown experiment '{experiment}'"));
    }
    let (label, scale) = match scale.as_str() {
        "tiny" => ("tiny", ExperimentScale::tiny()),
        "small" => ("small", repro_scale()),
        "full" => ("full", full_scale()),
        other => usage_error(&format!("unknown scale '{other}' (tiny, small, full)")),
    };
    let ctx = Ctx {
        scale,
        label,
        csv_dir,
        json_path,
    };
    (experiment, ctx)
}

/// The default reproduction scale (a few minutes for `all`).
fn repro_scale() -> ExperimentScale {
    ExperimentScale {
        load_entries: 50_000,
        mission_size: 1000,
        missions: 300,
        ..ExperimentScale::small()
    }
}

/// A larger scale closer to the paper's proportions (tens of minutes).
fn full_scale() -> ExperimentScale {
    ExperimentScale {
        load_entries: 200_000,
        mission_size: 2000,
        missions: 600,
        ..ExperimentScale::small()
    }
}

/// Reports output that could not be written and exits 1, so a stale
/// file from an earlier run never passes for this run's result.
fn write_error(path: &str, e: std::io::Error) -> ! {
    eprintln!("repro: could not write {path}: {e}");
    std::process::exit(1);
}

/// Writes an experiment's JSON document to the caller's `--json` path,
/// or to `<experiment>.json`.
fn write_json(c: &Ctx, experiment: &str, json: String) {
    let path = c
        .json_path
        .clone()
        .unwrap_or_else(|| format!("{experiment}.json"));
    std::fs::write(&path, json).unwrap_or_else(|e| write_error(&path, e));
    println!("  [json] {path}");
    println!();
}

fn write_csv(c: &Ctx, name: &str, content: &str) {
    if let Some(dir) = &c.csv_dir {
        let path = format!("{dir}/{name}.csv");
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, content))
            .unwrap_or_else(|e| write_error(&path, e));
        println!("  [csv] {path}");
    }
}

fn run_table2(c: &Ctx) {
    println!("== Table 2: transition costs and delays ==");
    println!("(analytic case study: T=10, B=4096, E=1024, C=1024000, f=0.01, K=5->4, x=gamma=1/2)");
    println!(
        "{:<12}{:>16}{:>26}{:>26}",
        "strategy", "analytic I/Os", "measured immediate pages", "measured additional pages"
    );
    for row in table2(&c.scale) {
        println!(
            "{:<12}{:>16.2}{:>26}{:>26}",
            row.strategy,
            row.analytic_ios,
            row.measured_immediate_pages,
            row.measured_additional_pages
        );
    }
    println!();
}

fn run_comparisons(name: &str, comparisons: &[Comparison], ctx: &Ctx) {
    println!("== {name} ==");
    for c in comparisons {
        print!("{}", comparison_summary(c, 0.4));
        write_csv(
            ctx,
            &format!("{name}_{}", c.workload),
            &series_csv(&c.series),
        );
        // Policy trace of RusKey (the paper's top subplots).
        if let Some(rk) = c.series.iter().find(|s| s.method == "RusKey") {
            let trace: Vec<u32> = rk
                .records
                .iter()
                .step_by((rk.records.len() / 20).max(1))
                .map(|r| r.policy_l1)
                .collect();
            println!("  RusKey K(L1) trace: {trace:?}");
        }
    }
    println!();
}

fn run_fig7_table3(c: &Ctx) {
    println!("== Fig 7: dynamic workload (5 sessions) + Table 3 ranking ==");
    let series = fig7(&c.scale);
    write_csv(c, "fig7", &series_csv(&series));
    if let Some(rk) = series.iter().find(|s| s.method == "RusKey") {
        let trace: Vec<(usize, u32)> = rk
            .records
            .iter()
            .step_by((rk.records.len() / 25).max(1))
            .map(|r| (r.session, r.policy_l1))
            .collect();
        println!("  RusKey (session, K(L1)) trace: {trace:?}");
    }
    let table = ranking_from_series(&series, FIG7_SESSIONS.len());
    println!("{}", ranking_table(&table, &FIG7_SESSIONS));
    println!();
}

fn run_fig9(c: &Ctx) {
    println!("== Fig 9: per-level policies vs Lazy-Leveling (Monkey, balanced) ==");
    for r in fig9(&c.scale) {
        println!(
            "  {:<16} end-to-end {:.4} ms/op  policies {:?}",
            r.method, r.end_to_end_ms_per_op, r.policies
        );
        let lv: Vec<String> = r
            .per_level_ms_per_op
            .iter()
            .enumerate()
            .map(|(i, v)| format!("L{}={:.4}", i + 1, v))
            .collect();
        println!("    per-level ms/op: {}", lv.join("  "));
    }
    println!();
}

fn run_fig10(c: &Ctx) {
    println!("== Fig 10: transition methods micro-benchmark (K=1 -> K=10 at midpoint) ==");
    let series = fig10(&c.scale);
    write_csv(c, "fig10", &series_csv(&series));
    let half = c.scale.missions / 2;
    println!(
        "{:<12}{:>22}{:>22}{:>20}{:>16}",
        "strategy",
        "peak write lat (s)",
        "mean write after (s)",
        "mean read after (s)",
        "total (s)"
    );
    for s in &series {
        let after: Vec<_> = s.records.iter().filter(|r| r.mission >= half).collect();
        let peak = after.iter().map(|r| r.write_latency_s).fold(0.0, f64::max);
        let mw = after.iter().map(|r| r.write_latency_s).sum::<f64>() / after.len() as f64;
        let mr = after.iter().map(|r| r.read_latency_s).sum::<f64>() / after.len() as f64;
        let total: f64 = s
            .records
            .iter()
            .map(|r| r.write_latency_s + r.read_latency_s)
            .sum();
        println!(
            "{:<12}{:>22.4}{:>22.4}{:>20.4}{:>16.2}",
            s.method, peak, mw, mr, total
        );
    }
    println!("(paper: end-to-end 51s greedy / 44s lazy / 40s flexible; shapes should match)");
    println!();
}

fn run_fig12(c: &Ctx) {
    println!("== Fig 12: greedy threshold heuristics vs RusKey ==");
    let series = fig12(&c.scale);
    write_csv(c, "fig12", &series_csv(&series));
    let table = ranking_from_series(&series, FIG7_SESSIONS.len());
    println!("{}", ranking_table(&table, &FIG7_SESSIONS));
    println!();
}

fn run_fig13(c: &Ctx) {
    println!("== Fig 13: model update time vs LSM time per mission ==");
    println!(
        "{:<16}{:>18}{:>16}{:>18}{:>12}{:>20}",
        "workload",
        "LSM virtual (s)",
        "LSM real (s)",
        "model real (s)",
        "model/LSM",
        "@50k-op missions"
    );
    for r in fig13(&c.scale) {
        println!(
            "{:<16}{:>18.4}{:>16.4}{:>18.6}{:>11.2}%{:>19.3}%",
            r.label,
            r.lsm_virtual_s,
            r.lsm_real_s,
            r.model_real_s,
            100.0 * r.ratio_measured(),
            100.0 * r.ratio_at_paper_scale(),
        );
    }
    println!(
        "(the model update is a constant per mission; at the paper's 50 000-op missions its share"
    );
    println!(" drops to the last column — the paper reports <= 1%)");
    println!();
}

fn run_ablations(c: &Ctx) {
    let scale = &c.scale;
    println!("== Ablation: block cache vs fixed policies (balanced workload) ==");
    for r in ablation_cache(scale) {
        println!("  {:<22} {:.4} ms/op", r.label, r.tail_latency_ms);
    }
    println!();
    println!("== Ablation: white-box K* across device cost models ==");
    println!(
        "  {:<12}{:>14}{:>14}{:>14}",
        "device", "K*(γ=0.9)", "K*(γ=0.5)", "K*(γ=0.1)"
    );
    for (label, kr, kb, kw) in ablation_cost_model() {
        println!("  {label:<12}{kr:>14}{kb:>14}{kw:>14}");
    }
    println!();
    println!("== Ablation: reward mix α (write-heavy workload) ==");
    for r in ablation_alpha(scale) {
        println!(
            "  {:<14} tail {:.4} ms/op, converged at {:<8} final K(L1)={}",
            r.label,
            r.tail_latency_ms,
            r.converged_at.map_or("never".into(), |m| m.to_string()),
            r.final_k1
        );
    }
    println!();
}

fn run_tuning(c: &Ctx) {
    println!("== Tuning: per-shard Lerp ==");
    let v = tuning(&c.scale);
    println!(
        "{:<10}{:<8}{:>10}{:>12}{:>18}{:>10}{:>18}{:>10}",
        "workload", "shards", "missions", "ops", "tail ns/op", "tuned", "final K(L1)", "distinct"
    );
    for r in &v.rows {
        let k1: Vec<String> = r.final_k1.iter().map(|k| k.to_string()).collect();
        println!(
            "{:<10}{:<8}{:>10}{:>12}{:>18.1}{:>10}{:>18}{:>10}",
            r.workload,
            r.shards,
            r.missions,
            r.ops_total,
            r.tail_ns_per_op,
            r.tuned_missions,
            format!("[{}]", k1.join(",")),
            r.distinct_policies
        );
    }
    println!("  tuning_ok={}", v.ok);
    write_json(c, "tuning", tuning_json(c.label, &v));
}

fn run_bruteforce(c: &Ctx) {
    println!("== Brute-force learning comparison (write-heavy workload) ==");
    for r in bruteforce(&c.scale) {
        println!(
            "  {:<36} converged: {:<5} at mission {:<8} tail latency {:.4} ms/op, model time {:.3}s",
            r.method,
            r.converged,
            r.converged_at.map_or("never".into(), |m| m.to_string()),
            r.tail_latency_ms,
            r.model_update_s
        );
    }
    println!();
}

fn main() {
    let (experiment, ctx) = parse_args();
    println!(
        "RusKey reproduction harness | load={} entries, mission={} ops, missions={}\n",
        ctx.scale.load_entries, ctx.scale.mission_size, ctx.scale.missions
    );
    let t0 = std::time::Instant::now();
    for &(name, in_all, run) in EXPERIMENTS {
        if experiment == name || (experiment == "all" && in_all) {
            run(&ctx);
        }
    }
    println!("done in {:.1}s", t0.elapsed().as_secs_f64());
}
