//! The perf ledger: the repository's benchmark.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of standard output is the
//!     result: {"correct", "attempted", "failed", "metrics"} with the
//!     end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
//! ledger run [--seed 42] [--seconds 10] [--quick] [--out ledger.json]
//!     all five workloads, each in a process of its own, traced; prints
//!     every metric by name with its unit and writes the ledger file
//! ledger diff A.json B.json
//! ledger agree A1.json A2.json A3.json -- B1.json B2.json B3.json
//! ```
//!
//! See `README.md` beside `Cargo.toml` for the workloads and the metrics.

mod adapter;
mod env;
mod json;
mod metrics;
mod report;
mod run;
mod stats;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Json;
use metrics::{end_to_end_registry, per_layer_registry};
use run::{Row, RunArgs};

/// Seconds one run measures unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("diff") => match &args[1..] {
            [a, b] => report::diff(a, b).map(u8::from),
            _ => Err("usage: ledger diff A.json B.json".into()),
        },
        Some("agree") => {
            let mut sets = args[1..].split(|a| a == "--");
            match (sets.next(), sets.next(), sets.next()) {
                (Some(a), Some(b), None) => report::agree(a, b).map(|v| u8::from(v > 0)),
                _ => Err(
                    "usage: ledger agree A1.json A2.json A3.json -- B1.json B2.json B3.json".into(),
                ),
            }
        }
        Some(flag) if flag.starts_with("--") => run_one(&args),
        _ => Err(
            "usage: ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                  | run | diff | agree (see README.md)"
                .into(),
        ),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs and bare `--name` switches.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a}"))?;
            let value = if switches.contains(&name) {
                None
            } else {
                Some(
                    it.next()
                        .ok_or_else(|| format!("--{name} needs a value"))?
                        .clone(),
                )
            };
            out.push((name.to_string(), value));
        }
        Ok(Flags(out))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        self.value(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name} {v}: not a whole number"))
        })
    }

    /// `--dir`, or the default beside the executable.
    fn data_dir(&self) -> PathBuf {
        self.value("dir")
            .map_or_else(run::default_data_dir, PathBuf::from)
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

fn refuse_debug_build() -> Result<(), String> {
    if env::build_profile() == "debug" {
        return Err("this is a debug build; its numbers mean nothing. Build with --release".into());
    }
    Ok(())
}

fn row_json(row: &Row) -> Result<Json, String> {
    let per_layer = if row.per_layer.is_empty() {
        Json::obj::<&str>([])
    } else {
        row.per_layer.to_json(per_layer_registry())?
    };
    Ok(Json::obj([
        ("workload", Json::str(row.workload)),
        ("seed", Json::Num(row.seed as f64)),
        ("traffic_fp", Json::str(format!("{:016x}", row.traffic_fp))),
        ("mission_samples", Json::Num(row.missions as f64)),
        ("ops_attempted", Json::Num(row.attempted as f64)),
        ("ops_failed", Json::Num(row.failed as f64)),
        (
            "durable_device",
            row.durable_device.map_or(Json::Null, Json::Bool),
        ),
        (
            "warnings",
            Json::Arr(row.warnings.iter().map(Json::str).collect()),
        ),
        ("end_to_end", row.end_to_end.to_json(end_to_end_registry())?),
        ("per_layer", per_layer),
    ]))
}

/// One run of one workload, as the benchmark's contract asks for it.
fn run_one(args: &[String]) -> Result<u8, String> {
    let flags = Flags::parse(args, &["quick"])?;
    flags.only(&[
        "workload", "seed", "seconds", "trace", "dir", "row", "quick",
    ])?;
    refuse_debug_build()?;
    let name = flags.value("workload").ok_or("--workload is required")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let trace = match flags.value("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let quick = flags.has("quick");
    let seconds = flags.number("seconds", RUN_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: expected 1 to 60"));
    }
    let row = run::run(&RunArgs {
        workload,
        seed: flags.number("seed", 42)?,
        seconds,
        divisor: if quick { 20 } else { 1 },
        trace,
        setups: if quick { 1 } else { SETUPS },
        dir: flags.data_dir(),
    })?;
    for w in &row.warnings {
        eprintln!("ledger: warning: {w}");
    }
    if let Some(path) = flags.value("row") {
        std::fs::write(path, row_json(&row)?.render_pretty())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let metrics = if trace {
        row.per_layer.to_json(per_layer_registry())?
    } else {
        row.end_to_end.to_json(end_to_end_registry())?
    };
    let result = Json::obj([
        ("correct", Json::Bool(row.failed == 0)),
        ("attempted", Json::Num(row.attempted as f64)),
        ("failed", Json::Num(row.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    Ok(0)
}

/// `ledger run`: every workload in a child process of its own, so that
/// allocator state, thread-locals and the peak memory reading belong to one
/// workload; then one table and one file.
fn run_all(args: &[String]) -> Result<u8, String> {
    let flags = Flags::parse(args, &["quick"])?;
    flags.only(&["seed", "seconds", "out", "dir", "quick"])?;
    refuse_debug_build()?;
    let seed = flags.number("seed", 42)?;
    let seconds = flags.number("seconds", RUN_SECONDS)?;
    let quick = flags.has("quick");
    let out = flags.value("out").unwrap_or("ledger.json");
    let dir = flags.data_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;

    let mut rows = Vec::new();
    let mut bad = Vec::new();
    for w in workloads::all() {
        eprintln!("ledger: running {}: {}", w.name, w.why);
        let row_path = dir.join(format!("row-{}-{}.json", w.name, std::process::id()));
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name, "--trace", "1"])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .arg("--dir")
            .arg(&dir)
            .arg("--row")
            .arg(&row_path)
            .stdout(std::process::Stdio::null());
        if quick {
            child.arg("--quick");
        }
        let status = child
            .status()
            .map_err(|e| format!("spawn {}: {e}", w.name))?;
        let text = std::fs::read_to_string(&row_path);
        let _ = std::fs::remove_file(&row_path);
        if !status.success() {
            return Err(format!("workload {} ended with {status}", w.name));
        }
        let text = text.map_err(|e| format!("{}: {e}", row_path.display()))?;
        let row = Json::parse(&text)?;
        let failed = row.get("ops_failed").and_then(Json::as_f64).unwrap_or(1.0);
        let warned = row
            .get("warnings")
            .and_then(Json::as_arr)
            .is_some_and(|w| !w.is_empty());
        if failed > 0.0 || warned {
            bad.push(w.name);
        }
        print_row(&row);
        rows.push(row);
    }
    let durable = rows
        .iter()
        .all(|r| r.get("durable_device") != Some(&Json::Bool(false)));
    let doc = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("quick", Json::Bool(quick)),
        ("environment", env::describe(&dir, durable)),
        ("workloads", Json::Arr(rows)),
    ]);
    std::fs::write(out, doc.render_pretty()).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("ledger: wrote {out}");
    if !bad.is_empty() {
        eprintln!(
            "ledger: failed operations or warnings on: {}",
            bad.join(", ")
        );
        return Ok(1);
    }
    Ok(0)
}

fn print_row(row: &Json) {
    let text = |k: &str| row.get(k).and_then(Json::as_str).unwrap_or("?");
    let num = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!(
        "== {}  seed {}  traffic_fp {}  mission samples {}  ops attempted {}  ops failed {}",
        text("workload"),
        num("seed"),
        text("traffic_fp"),
        num("mission_samples"),
        num("ops_attempted"),
        num("ops_failed"),
    );
    for section in ["end_to_end", "per_layer"] {
        for (name, m) in row.get(section).and_then(Json::as_obj).unwrap_or(&[]) {
            println!(
                "{:<44} {:>18.4} {}",
                name,
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                m.get("unit").and_then(Json::as_str).unwrap_or("?"),
            );
        }
    }
    for w in row.get("warnings").and_then(Json::as_arr).unwrap_or(&[]) {
        println!("warning: {}", w.as_str().unwrap_or("?"));
    }
    println!();
}
