//! `repro` — regenerates every table and figure of the RusKey paper.
//!
//! ```text
//! repro <experiment> [--scale tiny|small|full] [--csv DIR] [--json PATH]
//!
//! experiments:
//!   table2  fig6  fig7  table3  fig8  fig9  fig10  fig11  fig12  fig13
//!   bruteforce  tuning  all  ablations  claims
//! ```
//!
//! Every experiment's result is a set of claim rows, printed as one
//! Markdown table, `| id | paper | ours | spread | verdict |`; a verdict is
//! `holds`, `fails` or `recorded` (a value with no claim). `--csv DIR`
//! also writes the per-mission series as CSV files for plotting. Every
//! run also writes the rows it printed as JSON, one row per line, to
//! `--json PATH`, else to `<experiment>.json` (`all.json` for `all`).
//! `claims` runs every experiment `all` runs at seeds 42, 7 and 1234 and
//! folds the rows by id: `ours` is the median over the seeds, `spread`
//! max − min, and a row holds only if it holds at every seed; it writes
//! no CSV. An
//! unknown experiment, flag or scale, or a flag without its value, prints
//! the valid choices and exits with status 2; output that cannot be
//! written exits with status 1.
//! The engine's own performance is measured by the perf ledger
//! (`ledger/`), not here.

#![forbid(unsafe_code)]

use ruskey_bench::*;

/// What every experiment runner gets.
struct Ctx {
    scale: ExperimentScale,
    csv_dir: Option<String>,
}

/// One experiment: its name, whether `all` includes it, and its runner.
type Experiment = (&'static str, bool, fn(&Ctx) -> Outcome);

/// Every experiment by name. `table3` is `fig7` under its other name;
/// `ablations` and `claims` only run when asked for.
const EXPERIMENTS: &[Experiment] = &[
    ("table2", true, |c| table2(&c.scale)),
    ("fig6", true, |c| fig6(&c.scale)),
    ("fig7", true, |c| fig7(&c.scale)),
    ("table3", false, |c| fig7(&c.scale)),
    ("fig8", true, |c| fig8(&c.scale)),
    ("fig9", true, |c| fig9(&c.scale)),
    ("fig10", true, |c| fig10(&c.scale)),
    ("fig11", true, |c| fig11(&c.scale)),
    ("fig12", true, |c| fig12(&c.scale)),
    ("fig13", true, |c| fig13(&c.scale)),
    ("bruteforce", true, |c| bruteforce(&c.scale)),
    ("tuning", true, |c| tuning(&c.scale)),
    ("ablations", false, |c| ablations(&c.scale)),
    ("claims", false, run_claims),
];

/// Reports a command-line mistake with the valid choices and exits 2.
fn usage_error(problem: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    eprintln!("repro: {problem}");
    eprintln!("usage: repro <experiment> [--scale tiny|small|full] [--csv DIR] [--json PATH]");
    eprintln!("experiments: {} all", names.join(" "));
    std::process::exit(2);
}

/// Parses the command line into the experiment name, the scale's name,
/// the path its rows go to as JSON, and the runners' context.
fn parse_args() -> (String, &'static str, String, Ctx) {
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
    let json_path = json_path.unwrap_or_else(|| format!("{experiment}.json"));
    (experiment, label, json_path, Ctx { scale, csv_dir })
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

fn write_csv(c: &Ctx, name: &str, content: &str) {
    if let Some(dir) = &c.csv_dir {
        let path = format!("{dir}/{name}.csv");
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, content))
            .unwrap_or_else(|e| write_error(&path, e));
        println!("  [csv] {path}");
    }
}

fn run_claims(c: &Ctx) -> Outcome {
    let runs: Vec<Vec<ClaimRow>> = CLAIM_SEEDS
        .iter()
        .map(|&seed| {
            let at_seed = Ctx {
                scale: ExperimentScale {
                    seed,
                    ..c.scale.clone()
                },
                csv_dir: None,
            };
            run(&at_seed, "all")
        })
        .collect();
    Outcome {
        rows: fold_seeds(&runs),
        ..Outcome::default()
    }
}

/// Runs `experiment` (every experiment `all` includes, for `all`),
/// writes the CSVs of what it plots, and returns its rows.
fn run(c: &Ctx, experiment: &str) -> Vec<ClaimRow> {
    let mut rows = Vec::new();
    for &(name, in_all, runner) in EXPERIMENTS {
        if experiment == name || (experiment == "all" && in_all) {
            let outcome = runner(c);
            for plot in &outcome.plots {
                write_csv(c, &plot.name, &series_csv(&plot.series));
            }
            rows.extend(outcome.rows);
        }
    }
    rows
}

fn main() {
    let (experiment, label, json_path, ctx) = parse_args();
    println!(
        "RusKey reproduction harness | load={} entries, mission={} ops, missions={}\n",
        ctx.scale.load_entries, ctx.scale.mission_size, ctx.scale.missions
    );
    let t0 = std::time::Instant::now();
    let rows = run(&ctx, &experiment);
    println!("\n{}", claims_table(&rows));
    std::fs::write(&json_path, rows_json(&experiment, label, &rows))
        .unwrap_or_else(|e| write_error(&json_path, e));
    println!("  [json] {json_path}");
    println!("done in {:.1}s", t0.elapsed().as_secs_f64());
}
