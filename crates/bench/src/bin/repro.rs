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
//! also writes the per-mission series as CSV files for plotting. `tuning`
//! also writes its rows and its `tuning_ok` verdict as JSON, to `--json
//! PATH` if given (under `all` too), else to `tuning.json`. `claims` runs
//! every experiment `all` runs at seeds 42, 7 and 1234 and folds the rows
//! by id: `ours` is the median over the seeds, `spread` max − min, and a
//! row holds only if it holds at every seed; it writes the rows as JSON
//! to `--json PATH`, else to `claims.json`, and writes no CSV. An
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
    /// The scale's name in the JSON documents.
    label: &'static str,
    csv_dir: Option<String>,
    /// Where the experiment's JSON goes (none for the runs `claims`
    /// folds).
    json_path: Option<String>,
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
    ("tuning", true, run_tuning),
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
    let json_default = if experiment == "claims" {
        "claims.json"
    } else {
        "tuning.json"
    };
    let ctx = Ctx {
        scale,
        label,
        csv_dir,
        json_path: Some(json_path.unwrap_or_else(|| json_default.into())),
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

/// Writes an experiment's JSON document to the context's JSON path, if
/// it has one.
fn write_json(c: &Ctx, json: String) {
    if let Some(path) = &c.json_path {
        std::fs::write(path, json).unwrap_or_else(|e| write_error(path, e));
        println!("  [json] {path}");
    }
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

fn run_tuning(c: &Ctx) -> Outcome {
    let v = tuning(&c.scale);
    write_json(c, tuning_json(c.label, &v));
    let ok = ClaimRow::claim("tuning.ok", None, f64::from(u8::from(v.ok)), v.ok);
    Outcome {
        rows: vec![ok],
        ..Outcome::default()
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
                label: c.label,
                csv_dir: None,
                json_path: None,
            };
            run(&at_seed, "all")
        })
        .collect();
    let rows = fold_seeds(&runs);
    write_json(c, claims_json(c.label, &rows));
    Outcome {
        rows,
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
    let (experiment, ctx) = parse_args();
    println!(
        "RusKey reproduction harness | load={} entries, mission={} ops, missions={}\n",
        ctx.scale.load_entries, ctx.scale.mission_size, ctx.scale.missions
    );
    let t0 = std::time::Instant::now();
    let rows = run(&ctx, &experiment);
    println!("\n{}", claims_table(&rows));
    println!("done in {:.1}s", t0.elapsed().as_secs_f64());
}
