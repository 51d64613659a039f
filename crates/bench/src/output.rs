//! Plain-text table, CSV, and JSON rendering for experiment results.

use crate::experiments::{Comparison, RankingTable, Series};
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

/// Renders a comparison summary: per-method mean latency over the last
/// `tail` fraction of missions, with the winner marked.
pub fn comparison_summary(c: &Comparison, tail: f64) -> String {
    let mut rows: Vec<(String, f64)> = c
        .series
        .iter()
        .map(|s| {
            let n = ((s.records.len() as f64 * tail).ceil() as usize).clamp(1, s.records.len());
            let slice = &s.records[s.records.len() - n..];
            let mean = slice.iter().map(|r| r.latency_ms_per_op).sum::<f64>() / slice.len() as f64;
            (s.method.clone(), mean)
        })
        .collect();
    let best = rows.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let mut out = format!("workload: {}\n", c.workload);
    for (m, v) in rows {
        let marker = if (v - best).abs() < 1e-12 {
            "  <-- best"
        } else {
            ""
        };
        out.push_str(&format!("  {m:<22} {v:>10.4} ms/op{marker}\n"));
    }
    out
}

/// Renders a [`RankingTable`] like the paper's Table 3.
pub fn ranking_table(t: &RankingTable, session_labels: &[&str]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<28}", "Method"));
    for l in session_labels {
        out.push_str(&format!("{l:>16}"));
    }
    out.push_str(&format!("{:>12}\n", "Avg.Rank"));
    for (m, method) in t.methods.iter().enumerate() {
        out.push_str(&format!("{method:<28}"));
        for s in 0..session_labels.len() {
            out.push_str(&format!("{:>12.4}({})", t.latency[m][s], t.ranks[m][s]));
        }
        out.push_str(&format!("{:>12.2}\n", t.avg_rank[m]));
    }
    out
}

/// A JSON value, as far as the experiment documents need one
/// (hand-rolled — the workspace carries no serde). [`tuning_json`]
/// builds these and [`experiment_json`] writes them.
enum Json {
    Str(String),
    Int(u64),
    Bool(bool),
    /// A float printed with a fixed number of decimals.
    Float(f64, usize),
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

/// Simple aligned two-column table.
pub fn kv_table(title: &str, rows: &[(String, String)]) -> String {
    let w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(8) + 2;
    let mut out = format!("{title}\n");
    for (k, v) in rows {
        out.push_str(&format!("  {k:<w$}{v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruskey::runner::MissionRecord;

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
            real_process_ns: 10,
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
    fn summary_marks_best() {
        let c = Comparison {
            workload: "w".into(),
            series: vec![
                Series {
                    method: "slow".into(),
                    records: vec![record(0, 5.0)],
                },
                Series {
                    method: "fast".into(),
                    records: vec![record(0, 1.0)],
                },
            ],
        };
        let s = comparison_summary(&c, 1.0);
        let fast_line = s.lines().find(|l| l.contains("fast")).unwrap();
        assert!(fast_line.contains("best"));
        // Sorted ascending: fast before slow.
        let fast_pos = s.find("fast").unwrap();
        let slow_pos = s.find("slow").unwrap();
        assert!(fast_pos < slow_pos);
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
    fn kv_table_aligns() {
        let out = kv_table(
            "T",
            &[("a".into(), "1".into()), ("long-key".into(), "2".into())],
        );
        assert!(out.contains("T\n"));
        assert!(out.contains("long-key"));
    }
}
