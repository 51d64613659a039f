//! Markdown, CSV and JSON rendering of experiment results.

use crate::claims::ClaimRow;
use crate::experiments::Series;
use crate::tuning::TuningVerdict;

/// Renders a mission-series comparison as CSV: `mission,method,...`.
pub fn series_csv(series: &[Series]) -> String {
    let mut out = String::from(
        "mission,session,method,latency_ms_per_op,write_latency_s,read_latency_s,policy_l1,converged\n",
    );
    for s in series {
        for r in &s.records {
            out.push_str(&format!(
                "{},{},{},{:.6},{:.6},{:.6},{},{}\n",
                r.mission,
                r.session,
                s.method,
                r.latency_ms_per_op,
                r.write_latency_s,
                r.read_latency_s,
                r.policy_l1,
                r.converged
            ));
        }
    }
    out
}

/// Renders claim rows as the Markdown table `repro` prints and
/// `EXPERIMENTS.md` holds: `| id | paper | ours | spread | verdict |`.
pub fn claims_table(rows: &[ClaimRow]) -> String {
    let mut out = String::from("| id | paper | ours | spread | verdict |\n|---|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            r.id,
            number(r.paper.unwrap_or(f64::NAN)),
            number(r.ours),
            number(r.spread),
            r.verdict.name()
        ));
    }
    out
}

/// A table cell: the value rounded to four significant digits (an
/// integer part is never rounded), or `—` if it is not finite (none
/// measured).
fn number(v: f64) -> String {
    let scale = 10f64.powi((3.0 - v.abs().log10().floor()).clamp(0.0, 17.0) as i32);
    if v.is_finite() {
        format!("{}", (v * scale).round() / scale)
    } else {
        "—".into()
    }
}

/// A JSON value, as far as the experiment documents need one
/// (hand-rolled — the workspace carries no serde). [`tuning_json`] and
/// [`claims_json`] build these and [`experiment_json`] writes them.
enum Json {
    Str(String),
    Int(u64),
    Bool(bool),
    /// A float printed with a fixed number of decimals.
    Float(f64, usize),
    /// A float printed in full, or `null` if it is not finite.
    Num(f64),
    Array(Vec<Json>),
    Object(Vec<(&'static str, Json)>),
}

use Json::{Array, Bool, Float, Object};

/// Any unsigned count (`usize`, `u64`, `u32`) as a JSON integer.
fn int<T: TryInto<u64>>(n: T) -> Json {
    Json::Int(n.try_into().ok().expect("counts fit in u64"))
}

fn string(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// Writes `n` comma-separated items between `open` and `close`.
fn list(
    out: &mut String,
    open: char,
    close: char,
    n: usize,
    mut item: impl FnMut(usize, &mut String),
) {
    out.push(open);
    for i in 0..n {
        if i > 0 {
            out.push_str(", ");
        }
        item(i, out);
    }
    out.push(close);
}

impl Json {
    /// Writes the value on one line: `"key": value` members and array
    /// items separated by `, `.
    fn inline(&self, out: &mut String) {
        match self {
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Int(n) => out.push_str(&n.to_string()),
            Bool(b) => out.push_str(&b.to_string()),
            Float(v, decimals) => out.push_str(&format!("{v:.decimals$}")),
            Json::Num(v) if v.is_finite() => out.push_str(&v.to_string()),
            Json::Num(_) => out.push_str("null"),
            Array(items) => list(out, '[', ']', items.len(), |i, out| items[i].inline(out)),
            Object(members) => list(out, '{', '}', members.len(), |i, out| {
                out.push_str(&format!("\"{}\": ", members[i].0));
                members[i].1.inline(out);
            }),
        }
    }
}

/// Writes an experiment document: the envelope every experiment shares
/// (`experiment`, `scale`), then its own verdicts and row arrays — one
/// top-level member per line, an array member one row per line,
/// everything below inline.
fn experiment_json(
    experiment: &str,
    scale_label: &str,
    members: Vec<(&'static str, Json)>,
) -> String {
    let mut doc = vec![
        ("experiment", string(experiment)),
        ("scale", string(scale_label)),
    ];
    doc.extend(members);
    let mut out = String::from("{\n");
    for (m, (key, value)) in doc.iter().enumerate() {
        out.push_str(&format!("  \"{key}\": "));
        match value {
            Array(rows) => {
                out.push_str("[\n");
                for (i, row) in rows.iter().enumerate() {
                    out.push_str("    ");
                    row.inline(&mut out);
                    out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
                }
                out.push_str("  ]");
            }
            scalar => scalar.inline(&mut out),
        }
        out.push_str(if m + 1 < doc.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Renders the per-shard-tuning experiment as machine-readable JSON.
/// Each tuning row carries the converged-tail metric
/// (`tail_ns_per_op`), the non-vacuity counter (`tuned_missions`), and
/// the visible specialization (`final_k1`, `distinct_policies`). The
/// top-level `tuning_ok` flag — every row tuned — is what CI greps as a
/// smoke check.
pub fn tuning_json(scale_label: &str, v: &TuningVerdict) -> String {
    let row = |r: &crate::tuning::TuningRow| {
        Object(vec![
            ("workload", string(r.workload)),
            ("shards", int(r.shards)),
            ("missions", int(r.missions)),
            ("ops_total", int(r.ops_total)),
            ("tail_ns_per_op", Float(r.tail_ns_per_op, 1)),
            ("tuned_missions", int(r.tuned_missions)),
            (
                "final_k1",
                Array(r.final_k1.iter().map(|&k| int(k)).collect()),
            ),
            ("distinct_policies", int(r.distinct_policies)),
        ])
    };
    let doc = vec![
        ("tuning_ok", Bool(v.ok)),
        ("rows", Array(v.rows.iter().map(row).collect())),
    ];
    experiment_json("tuning", scale_label, doc)
}

/// Renders claim rows as JSON, one row per line:
/// `{"id": …, "paper": …, "ours": …, "spread": …, "verdict": …}`, with
/// `null` where the paper states no value or none was measured.
pub fn claims_json(scale_label: &str, rows: &[ClaimRow]) -> String {
    let row = |r: &ClaimRow| {
        Object(vec![
            ("id", string(&r.id)),
            ("paper", Json::Num(r.paper.unwrap_or(f64::NAN))),
            ("ours", Json::Num(r.ours)),
            ("spread", Json::Num(r.spread)),
            ("verdict", string(r.verdict.name())),
        ])
    };
    let doc = vec![("rows", Array(rows.iter().map(row).collect()))];
    experiment_json("claims", scale_label, doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::MissionRecord;

    fn record(mission: usize, latency: f64) -> MissionRecord {
        MissionRecord {
            mission,
            session: 0,
            latency_ms_per_op: latency,
            write_latency_s: 0.1,
            read_latency_s: 0.2,
            policy_l1: 3,
            policies: vec![3],
            model_update_ns: 5,
            converged: true,
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let s = vec![Series {
            method: "X".into(),
            records: vec![record(0, 1.5), record(1, 2.0)],
        }];
        let csv = series_csv(&s);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("mission,"));
        assert!(lines[1].contains(",X,"));
    }

    #[test]
    fn tuning_json_carries_all_verdict_legs() {
        use crate::tuning::{TuningRow, TuningVerdict};
        let row = |workload: &'static str, tail: f64| TuningRow {
            workload,
            shards: 4,
            missions: 24,
            ops_total: 4800,
            tail_ns_per_op: tail,
            tuned_missions: 12,
            final_k1: vec![1, 1, 9, 1],
            distinct_policies: 2,
        };
        let v = TuningVerdict {
            rows: vec![
                row("uniform", 1020.0),
                row("skewed", 1400.0),
                row("shifting", 1450.0),
            ],
            ok: true,
        };
        let json = tuning_json("tiny", &v);
        assert!(json.contains("\"experiment\": \"tuning\""));
        assert!(json.contains("\"tuning_ok\": true"));
        assert!(json.contains("\"final_k1\": [1, 1, 9, 1]"));
        assert_eq!(json.matches("\"tail_ns_per_op\":").count(), 3);
        let bad = TuningVerdict { ok: false, ..v };
        let bad_json = tuning_json("tiny", &bad);
        assert!(bad_json.contains("\"tuning_ok\": false"));
        // Balanced braces/brackets, no trailing comma before a close.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn claims_json_gives_one_line_per_row() {
        let rows = vec![
            ClaimRow::claim("table2.flexible.total_pages", None, 0.0, true),
            ClaimRow::claim("fig13.model_share_50k", Some(0.01), 0.00228, true),
            ClaimRow::claim("fig6.regret.write-heavy", Some(1.0), 1.7634, false),
            ClaimRow::recorded("bruteforce.converged_at", f64::NAN),
        ];
        let json = claims_json("small", &rows);
        assert!(json.contains("\"experiment\": \"claims\""));
        let lines: Vec<&str> = json.lines().filter(|l| l.contains("\"id\": ")).collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"table2.flexible.total_pages\""));
        assert!(lines[0].ends_with("\"verdict\": \"holds\"},"));
        assert!(lines[1].contains("\"paper\": 0.01, \"ours\": 0.00228, \"spread\": 0"));
        assert!(lines[2].contains("\"verdict\": \"fails\""));
        assert!(lines[3].contains("\"paper\": null, \"ours\": null"));
        assert!(lines[3].ends_with("\"verdict\": \"recorded\"}"));
        // Balanced braces/brackets, no trailing comma before a close.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"));
        // The Markdown table: a header, a rule, then the same rows.
        let table = claims_table(&rows);
        let cells: Vec<&str> = table.lines().collect();
        assert_eq!(cells.len(), 2 + rows.len());
        assert_eq!(cells[0], "| id | paper | ours | spread | verdict |");
        assert_eq!(
            cells[4],
            "| fig6.regret.write-heavy | 1 | 1.763 | 0 | fails |"
        );
        assert_eq!(
            cells[5],
            "| bruteforce.converged_at | — | — | 0 | recorded |"
        );
    }
}
