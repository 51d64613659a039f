//! Plain-text table, CSV, and JSON rendering for experiment results.

use crate::compaction::CompactionRow;
use crate::experiments::{Comparison, RankingTable, Series};
use crate::persistence::PersistenceRow;
use crate::read_path::ReadPathRow;
use crate::scaling::ShardScalingRow;
use crate::serve::ServeVerdict;
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
/// (hand-rolled — the workspace carries no serde). Every `*_json`
/// renderer below builds these and [`experiment_json`] writes them.
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

/// Renders the shard-scaling experiment as a machine-readable JSON
/// document, the anchor of the repo's performance trajectory across PRs.
/// Each row reports both virtual-time compositions explicitly:
/// `virtual_wall_ns_per_op` (max over shard time domains per mission)
/// and `virtual_busy_ns_per_op` (sum over shard time domains — total
/// device work).
pub fn shard_scaling_json(scale_label: &str, rows: &[ShardScalingRow]) -> String {
    let row = |r: &ShardScalingRow| {
        Object(vec![
            ("backend", string(r.backend)),
            ("shards", int(r.shards)),
            ("missions", int(r.missions)),
            ("ops_total", int(r.ops_total)),
            ("wall_s", Float(r.wall_s, 6)),
            ("kops_per_s", Float(r.kops_per_s, 3)),
            ("virtual_wall_ns_per_op", Float(r.virtual_wall_ns_per_op, 1)),
            ("virtual_busy_ns_per_op", Float(r.virtual_busy_ns_per_op, 1)),
            ("real_us_per_mission", Float(r.real_us_per_mission, 1)),
            ("real_get_ns_per_op", Float(r.real_get_ns_per_op, 1)),
            ("cache_hit_ratio", Float(r.cache_hit_ratio, 4)),
            ("parallelism", int(r.parallelism)),
        ])
    };
    let rows = Array(rows.iter().map(row).collect());
    experiment_json("shard_scaling", scale_label, vec![("rows", rows)])
}

/// Renders the read-path experiment as machine-readable JSON. Each row
/// carries the three timed populations (hot / cold / missing, real ns
/// per lookup), the cache counters, and the zero-alloc accounting; the
/// per-row verdicts conjoin into the top-level `read_path_ok` flag CI
/// greps as a smoke check (cache hits observed, hot no slower than
/// cold, missing-key rejection no slower than hot, zero fds opened and
/// zero buffer regrows during the timed phases, zero probes and page
/// reads for out-of-bounds keys). `speedup_hot_vs_uncached` is the
/// cached variant's hot-phase advantage over the bare `FileDisk` path.
pub fn read_path_json(scale_label: &str, rows: &[ReadPathRow]) -> String {
    let mut doc = vec![("read_path_ok", Bool(rows.iter().all(|r| r.ok)))];
    let hot = |variant: &str| {
        let row = rows.iter().find(|r| r.variant == variant);
        row.map(|r| r.hot_ns_per_op)
    };
    if let (Some(c), Some(u)) = (hot("cached"), hot("uncached")) {
        let speedup = if c > 0.0 { u / c } else { 0.0 };
        doc.push(("speedup_hot_vs_uncached", Float(speedup, 2)));
    }
    let row = |r: &ReadPathRow| {
        Object(vec![
            ("variant", string(r.variant)),
            ("entries", int(r.entries)),
            ("ops_per_phase", int(r.ops_per_phase)),
            ("hot_ns_per_op", Float(r.hot_ns_per_op, 1)),
            ("cold_ns_per_op", Float(r.cold_ns_per_op, 1)),
            ("missing_ns_per_op", Float(r.missing_ns_per_op, 1)),
            ("cache_hits", int(r.cache_hits)),
            ("cache_misses", int(r.cache_misses)),
            ("cache_hit_ratio", Float(r.cache_hit_ratio, 4)),
            ("fds_opened", int(r.fds_opened)),
            ("buffer_grows", int(r.buffer_grows)),
            ("hot_device_reads", int(r.hot_device_reads)),
            ("missing_device_reads", int(r.missing_device_reads)),
            ("missing_probes", int(r.missing_probes)),
            ("ok", Bool(r.ok)),
        ])
    };
    doc.push(("rows", Array(rows.iter().map(row).collect())));
    experiment_json("read_path", scale_label, doc)
}

/// Renders the background-compaction experiment as machine-readable
/// JSON. Each row carries the per-op virtual-latency percentiles, the
/// structural counters (`flushes`, `bg_compactions`, `stall_ns`,
/// `pending_compaction_bytes`), and the model-equivalence accounting;
/// the per-row verdicts conjoin into the top-level `compaction_ok` flag
/// CI greps as a smoke check (background p99 no worse than inline p99,
/// zero read divergence including during in-flight merges and through a
/// pinned snapshot, background compactions actually observed).
/// `p99_speedup_vs_inline` is the inline row's p99 over the background
/// row's — the tail-latency win of moving structural work off the hot
/// path.
pub fn compaction_json(scale_label: &str, rows: &[CompactionRow]) -> String {
    let mut doc = vec![("compaction_ok", Bool(rows.iter().all(|r| r.ok)))];
    let p99 = |variant: &str| {
        let row = rows.iter().find(|r| r.variant == variant);
        row.map(|r| r.p99_ns)
    };
    if let (Some(i), Some(b)) = (p99("inline"), p99("background")) {
        let speedup = if b > 0 { i as f64 / b as f64 } else { 0.0 };
        doc.push(("p99_speedup_vs_inline", Float(speedup, 2)));
    }
    let row = |r: &CompactionRow| {
        Object(vec![
            ("variant", string(r.variant)),
            ("ops", int(r.ops)),
            ("p50_ns", int(r.p50_ns)),
            ("p99_ns", int(r.p99_ns)),
            ("max_ns", int(r.max_ns)),
            ("flushes", int(r.flushes)),
            ("bg_compactions", int(r.bg_compactions)),
            ("stall_ns", int(r.stall_ns)),
            ("pending_compaction_bytes", int(r.pending_compaction_bytes)),
            ("equivalence_checks", int(r.equivalence_checks)),
            ("ok", Bool(r.ok)),
        ])
    };
    doc.push(("rows", Array(rows.iter().map(row).collect())));
    experiment_json("compaction", scale_label, doc)
}

/// Renders the persistence experiment as machine-readable JSON. Each row
/// carries the restart-equivalence accounting (flushes before the
/// restart, manifest edits, runs rebuilt from data pages, WAL records
/// replayed on top, keys compared) plus a per-row `ok` verdict; the
/// top-level `persistence_ok` is the conjunction, which CI greps as a
/// smoke check (a `FileDisk`-backed store at every shard count survives
/// drop + recover get/scan-identical with its flushed runs intact).
/// `power_failure_ok` is the conjunction of the per-row `power_ok`
/// verdicts — the simulated power cut at the extent-fsync barrier was
/// recovered to exactly the acknowledged state with the torn orphan
/// swept. Each row also carries the group-commit accounting
/// (`synced_ops` vs `acknowledged_ops`, fsync counts, batch size, both
/// commit compositions): `durability_ok` conjoins the per-row
/// `group_commit_ok` verdicts (synced ops ≥ acknowledged ops, ≤ 1 sync
/// per shard per batch), and `overlap_ok` is the overlapped-barrier bound
/// on its own: every row's `commit_ns_per_mission` (max over concurrent
/// legs) stayed ≤ `commit_busy_ns_per_mission` (the sequential sum). CI
/// greps all four verdicts.
pub fn persistence_json(scale_label: &str, rows: &[PersistenceRow]) -> String {
    let overlap_ok = rows
        .iter()
        .all(|r| r.commit_ns_per_mission <= r.commit_busy_ns_per_mission + 1e-9);
    let row = |r: &PersistenceRow| {
        Object(vec![
            ("shards", int(r.shards)),
            ("missions", int(r.missions)),
            ("ops_total", int(r.ops_total)),
            ("flushes", int(r.flushes)),
            ("acknowledged_ops", int(r.acknowledged_ops)),
            ("synced_ops", int(r.synced_ops)),
            ("wal_appends", int(r.wal_appends)),
            ("wal_syncs", int(r.wal_syncs)),
            ("mean_batch", Float(r.mean_batch, 2)),
            ("commit_ns_per_mission", Float(r.commit_ns_per_mission, 1)),
            (
                "commit_busy_ns_per_mission",
                Float(r.commit_busy_ns_per_mission, 1),
            ),
            ("group_commit_ok", Bool(r.group_commit_ok)),
            ("manifest_edits", int(r.manifest_edits)),
            ("runs_recovered", int(r.runs_recovered)),
            ("replayed_tail", int(r.replayed_tail)),
            ("checked_keys", int(r.checked_keys)),
            ("ok", Bool(r.ok)),
            ("extent_syncs", int(r.extent_syncs)),
            ("dir_syncs", int(r.dir_syncs)),
            ("orphans_collected", int(r.orphans_collected)),
            ("power_ok", Bool(r.power_ok)),
        ])
    };
    let doc = vec![
        ("persistence_ok", Bool(rows.iter().all(|r| r.ok))),
        ("power_failure_ok", Bool(rows.iter().all(|r| r.power_ok))),
        (
            "durability_ok",
            Bool(rows.iter().all(|r| r.group_commit_ok)),
        ),
        ("overlap_ok", Bool(overlap_ok)),
        ("rows", Array(rows.iter().map(row).collect())),
    ];
    experiment_json("persistence", scale_label, doc)
}

/// Renders the concurrent-serving experiment as machine-readable JSON.
/// Each row carries the closed-loop measurement (real-time throughput,
/// p50/p99/p999 request latency, cross-client commit coalescing,
/// backpressure stalls) and the equivalence accounting (mid-flight
/// read-your-writes rereads, final-state shadow comparison); the
/// per-row verdicts conjoin with the crash-durability and
/// admission-control legs into the top-level `serve_ok` flag CI greps
/// as a smoke check. `crash_ok` and `admission_ok` are also reported on
/// their own.
pub fn serve_json(scale_label: &str, v: &ServeVerdict) -> String {
    let row = |r: &crate::serve::ServeRow| {
        Object(vec![
            ("clients", int(r.clients)),
            ("shards", int(r.shards)),
            ("ops_total", int(r.ops_total)),
            ("acked_writes", int(r.acked_writes)),
            ("stalls", int(r.stalls)),
            ("throughput_kops", Float(r.throughput_kops, 3)),
            ("p50_ns", int(r.p50_ns)),
            ("p99_ns", int(r.p99_ns)),
            ("p999_ns", int(r.p999_ns)),
            ("max_ns", int(r.max_ns)),
            ("mean_batch", Float(r.mean_batch, 2)),
            ("ryw_checks", int(r.ryw_checks)),
            ("ryw_violations", int(r.ryw_violations)),
            ("final_mismatches", int(r.final_mismatches)),
            ("client_errors", int(r.client_errors)),
            ("ok", Bool(r.ok)),
        ])
    };
    let doc = vec![
        ("serve_ok", Bool(v.ok)),
        ("crash_ok", Bool(v.crash_ok)),
        ("crash_acked", int(v.crash_acked)),
        ("admission_ok", Bool(v.admission_ok)),
        ("admission_rejections", int(v.admission_rejections)),
        ("rows", Array(v.rows.iter().map(row).collect())),
    ];
    experiment_json("serve", scale_label, doc)
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
    use crate::serve::ServeRow;
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
    fn shard_scaling_json_is_well_formed() {
        let rows = vec![
            ShardScalingRow {
                backend: "simulated",
                shards: 1,
                missions: 10,
                ops_total: 1000,
                wall_s: 0.5,
                kops_per_s: 2.0,
                virtual_wall_ns_per_op: 12345.6,
                virtual_busy_ns_per_op: 12345.6,
                real_us_per_mission: 800.0,
                real_get_ns_per_op: 900.0,
                cache_hit_ratio: 0.0,
                parallelism: 1,
            },
            ShardScalingRow {
                backend: "file",
                shards: 4,
                missions: 10,
                ops_total: 1000,
                wall_s: 0.2,
                kops_per_s: 5.0,
                virtual_wall_ns_per_op: 4000.2,
                virtual_busy_ns_per_op: 13000.8,
                real_us_per_mission: 350.0,
                real_get_ns_per_op: 450.0,
                cache_hit_ratio: 0.8731,
                parallelism: 4,
            },
        ];
        let json = shard_scaling_json("small", &rows);
        assert!(json.contains("\"experiment\": \"shard_scaling\""));
        assert!(json.contains("\"shards\": 4"));
        assert!(json.contains("\"backend\": \"simulated\""));
        assert!(json.contains("\"backend\": \"file\""));
        // Both time compositions are named explicitly in every row.
        assert_eq!(json.matches("\"virtual_wall_ns_per_op\":").count(), 2);
        assert_eq!(json.matches("\"virtual_busy_ns_per_op\":").count(), 2);
        assert_eq!(json.matches("\"real_us_per_mission\":").count(), 2);
        // As are the read-path columns this PR trajectory tracks.
        assert_eq!(json.matches("\"real_get_ns_per_op\":").count(), 2);
        assert_eq!(json.matches("\"cache_hit_ratio\":").count(), 2);
        // Exactly one comma between the two row objects, none trailing.
        assert_eq!(json.matches("}},").count(), 0);
        assert_eq!(json.matches("},\n").count(), 1);
        assert!(!json.contains(",\n  ]"));
        // Balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// A passing persistence row; the commit barrier costs 50 ns per
    /// shard sequentially and 50 ns overlapped.
    fn persistence_row(shards: usize) -> PersistenceRow {
        PersistenceRow {
            shards,
            missions: 4,
            ops_total: 400,
            flushes: 6,
            acknowledged_ops: 200,
            synced_ops: 200,
            wal_appends: 200,
            wal_syncs: 8,
            mean_batch: 25.0,
            commit_ns_per_mission: 50.0,
            commit_busy_ns_per_mission: 50.0 * shards as f64,
            group_commit_ok: true,
            manifest_edits: 30,
            runs_recovered: 5,
            replayed_tail: 12,
            checked_keys: 100,
            ok: true,
            extent_syncs: 7,
            dir_syncs: 6,
            orphans_collected: 1,
            power_ok: true,
        }
    }

    #[test]
    fn persistence_json_carries_the_verdict() {
        let row = |shards: usize, ok: bool, power_ok: bool| PersistenceRow {
            ok,
            power_ok,
            ..persistence_row(shards)
        };
        let json = persistence_json("tiny", &[row(1, true, true), row(2, true, true)]);
        assert!(json.contains("\"experiment\": \"persistence\""));
        assert!(json.contains("\"persistence_ok\": true"));
        assert!(json.contains("\"power_failure_ok\": true"));
        assert_eq!(json.matches("\"runs_recovered\":").count(), 2);
        assert_eq!(json.matches("\"replayed_tail\":").count(), 2);
        assert_eq!(json.matches("\"extent_syncs\":").count(), 2);
        assert_eq!(json.matches("\"orphans_collected\":").count(), 2);
        // One failing row flips the matching top-level verdict — and only
        // that one.
        let bad = persistence_json("tiny", &[row(1, true, true), row(2, false, true)]);
        assert!(bad.contains("\"persistence_ok\": false"));
        assert!(bad.contains("\"power_failure_ok\": true"));
        let bad_power = persistence_json("tiny", &[row(1, true, false), row(2, true, true)]);
        assert!(bad_power.contains("\"persistence_ok\": true"));
        assert!(bad_power.contains("\"power_failure_ok\": false"));
        // Balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn durability_json_reports_both_commit_compositions() {
        let json = persistence_json("tiny", &[persistence_row(1), persistence_row(2)]);
        assert!(json.contains("\"durability_ok\": true"));
        assert!(json.contains("\"overlap_ok\": true"));
        assert_eq!(json.matches("\"commit_ns_per_mission\":").count(), 2);
        assert_eq!(json.matches("\"commit_busy_ns_per_mission\":").count(), 2);
        let mut commit = persistence_row(2);
        commit.group_commit_ok = false;
        let bad_commit = persistence_json("tiny", &[persistence_row(1), commit]);
        assert!(bad_commit.contains("\"durability_ok\": false"));
        assert!(bad_commit.contains("\"persistence_ok\": true"));
        // A row whose overlapped latency exceeds the sequential sum flips
        // the overlap verdict (the barrier max can never beat the sum).
        let mut overlap = persistence_row(4);
        overlap.commit_ns_per_mission = 300.0;
        let bad_overlap = persistence_json("tiny", &[overlap]);
        assert!(bad_overlap.contains("\"overlap_ok\": false"));
        assert!(bad_overlap.contains("\"durability_ok\": true"));
    }

    #[test]
    fn read_path_json_carries_verdict_and_speedup() {
        let row = |variant: &'static str, hot: f64, ok: bool| ReadPathRow {
            variant,
            entries: 2000,
            ops_per_phase: 2000,
            hot_ns_per_op: hot,
            cold_ns_per_op: 2000.0,
            missing_ns_per_op: 100.0,
            cache_hits: if variant == "cached" { 1500 } else { 0 },
            cache_misses: if variant == "cached" { 500 } else { 0 },
            cache_hit_ratio: if variant == "cached" { 0.75 } else { 0.0 },
            fds_opened: 0,
            buffer_grows: 0,
            hot_device_reads: 0,
            missing_device_reads: 0,
            missing_probes: 0,
            ok,
        };
        let json = read_path_json(
            "tiny",
            &[row("cached", 400.0, true), row("uncached", 1600.0, true)],
        );
        assert!(json.contains("\"experiment\": \"read_path\""));
        assert!(json.contains("\"read_path_ok\": true"));
        assert!(json.contains("\"speedup_hot_vs_uncached\": 4.00"));
        assert_eq!(json.matches("\"hot_ns_per_op\":").count(), 2);
        assert_eq!(json.matches("\"missing_probes\":").count(), 2);
        assert_eq!(json.matches("\"fds_opened\":").count(), 2);
        // One failing row flips the top-level verdict.
        let bad = read_path_json(
            "tiny",
            &[row("cached", 400.0, true), row("uncached", 1600.0, false)],
        );
        assert!(bad.contains("\"read_path_ok\": false"));
        // Balanced braces/brackets, no trailing comma before the close.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn compaction_json_carries_verdict_and_speedup() {
        let row = |variant: &'static str, p99: u64, ok: bool| CompactionRow {
            variant,
            ops: 4000,
            p50_ns: 900,
            p99_ns: p99,
            max_ns: p99 * 3,
            flushes: 60,
            bg_compactions: if variant == "background" { 12 } else { 0 },
            stall_ns: if variant == "background" { 5000 } else { 0 },
            pending_compaction_bytes: 0,
            equivalence_checks: 1200,
            ok,
        };
        let json = compaction_json(
            "tiny",
            &[row("inline", 80_000, true), row("background", 20_000, true)],
        );
        assert!(json.contains("\"experiment\": \"compaction\""));
        assert!(json.contains("\"compaction_ok\": true"));
        assert!(json.contains("\"p99_speedup_vs_inline\": 4.00"));
        assert_eq!(json.matches("\"p99_ns\":").count(), 2);
        assert_eq!(json.matches("\"bg_compactions\":").count(), 2);
        assert_eq!(json.matches("\"equivalence_checks\":").count(), 2);
        // One failing row flips the top-level verdict.
        let bad = compaction_json(
            "tiny",
            &[
                row("inline", 80_000, true),
                row("background", 90_000, false),
            ],
        );
        assert!(bad.contains("\"compaction_ok\": false"));
        // Balanced braces/brackets, no trailing comma before the close.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn serve_json_carries_all_verdict_legs() {
        let row = |clients: usize, mean_batch: f64, ok: bool| ServeRow {
            clients,
            shards: 4,
            ops_total: 3200,
            acked_writes: 1500,
            stalls: 3,
            throughput_kops: 120.5,
            p50_ns: 8_000,
            p99_ns: 90_000,
            p999_ns: 400_000,
            max_ns: 900_000,
            mean_batch,
            ryw_checks: 300,
            ryw_violations: 0,
            final_mismatches: 0,
            client_errors: 0,
            ok,
        };
        let v = ServeVerdict {
            rows: vec![row(1, 1.0, true), row(16, 2.4, true)],
            crash_acked: 220,
            crash_ok: true,
            admission_rejections: 57,
            admission_ok: true,
            ok: true,
        };
        let json = serve_json("tiny", &v);
        assert!(json.contains("\"experiment\": \"serve\""));
        assert!(json.contains("\"serve_ok\": true"));
        assert!(json.contains("\"crash_ok\": true"));
        assert!(json.contains("\"admission_ok\": true"));
        assert!(json.contains("\"admission_rejections\": 57"));
        // The tail percentiles the issue pins are named in every row.
        assert_eq!(json.matches("\"p999_ns\":").count(), 2);
        assert_eq!(json.matches("\"mean_batch\":").count(), 2);
        assert_eq!(json.matches("\"ryw_violations\":").count(), 2);
        // A failed leg flips only the top-level verdict it feeds.
        let bad = ServeVerdict {
            crash_ok: false,
            ok: false,
            ..v
        };
        let bad_json = serve_json("tiny", &bad);
        assert!(bad_json.contains("\"serve_ok\": false"));
        assert!(bad_json.contains("\"crash_ok\": false"));
        assert!(bad_json.contains("\"admission_ok\": true"));
        // Balanced braces/brackets, no trailing comma before the close.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"));
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
