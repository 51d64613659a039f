//! Markdown, CSV and JSON rendering of experiment results.

use crate::claims::ClaimRow;
use crate::experiments::Series;

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

/// A JSON string (hand-rolled — the workspace carries no serde).
fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number printed in full, or `null` if it is not finite.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".into()
    }
}

/// Renders an experiment's claim rows as JSON: the `experiment` and
/// `scale` they came from, then one row per line, `{"id": …, "paper": …,
/// "ours": …, "spread": …, "verdict": …}`, with `null` where the paper
/// states no value or none was measured.
pub fn rows_json(experiment: &str, scale_label: &str, rows: &[ClaimRow]) -> String {
    let mut out = format!(
        "{{\n  \"experiment\": {},\n  \"scale\": {},\n  \"rows\": [\n",
        json_str(experiment),
        json_str(scale_label)
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"paper\": {}, \"ours\": {}, \"spread\": {}, \"verdict\": {}}}{}\n",
            json_str(&r.id),
            json_num(r.paper.unwrap_or(f64::NAN)),
            json_num(r.ours),
            json_num(r.spread),
            json_str(r.verdict.name()),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
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

    /// The tuning experiment's rows render through the one rows renderer,
    /// its verdict on the line `repro all --json` writes and CI greps.
    #[test]
    fn tuning_rows_render_the_line_ci_greps() {
        let rows = vec![
            ClaimRow::recorded("tuning.skewed.k1.shard2", 9.0),
            ClaimRow::claim("tuning.ok", None, 1.0, true),
        ];
        let json = rows_json("all", "tiny", &rows);
        assert!(json.starts_with("{\n  \"experiment\": \"all\",\n  \"scale\": \"tiny\",\n"));
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(
            lines[4],
            "    {\"id\": \"tuning.skewed.k1.shard2\", \"paper\": null, \"ours\": 9, \
             \"spread\": 0, \"verdict\": \"recorded\"},"
        );
        assert_eq!(
            lines[5],
            "    {\"id\": \"tuning.ok\", \"paper\": null, \"ours\": 1, \"spread\": 0, \
             \"verdict\": \"holds\"}"
        );
        assert_eq!(lines[6..], ["  ]", "}"]);
    }

    #[test]
    fn claims_json_gives_one_line_per_row() {
        let rows = vec![
            ClaimRow::claim("table2.flexible.total_pages", None, 0.0, true),
            ClaimRow::claim("fig13.model_share_50k", Some(0.01), 0.00228, true),
            ClaimRow::claim("fig6.regret.write-heavy", Some(1.0), 1.7634, false),
            ClaimRow::recorded("bruteforce.converged_at", f64::NAN),
        ];
        let json = rows_json("claims", "small", &rows);
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
