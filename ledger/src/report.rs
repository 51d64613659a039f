//! Reading `ledger.json` files back: `ledger diff` and `ledger agree`.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::median;
use crate::workloads::{by_name, Driver};

/// One workload row of a ledger file.
pub struct FileRow {
    pub workload: String,
    pub traffic_fp: String,
    pub end_to_end: Vec<(String, f64, String)>,
    pub per_layer: Vec<(String, f64, String)>,
}

impl FileRow {
    fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

fn metric_list(row: &Json, key: &str) -> Result<Vec<(String, f64, String)>, String> {
    let obj = row
        .get(key)
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("row without {key}"))?;
    obj.iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                _ => Err(format!("metric {name} without value or unit")),
            }
        })
        .collect()
}

/// Loads the workload rows of the file `ledger run --out` wrote.
pub fn load(path: &str) -> Result<Vec<FileRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no workloads"))?;
    rows.iter()
        .map(|row| {
            let field = |k: &str| {
                row.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{path}: row without {k}"))
            };
            Ok(FileRow {
                workload: field("workload")?,
                traffic_fp: field("traffic_fp")?,
                end_to_end: metric_list(row, "end_to_end").map_err(|e| format!("{path}: {e}"))?,
                per_layer: metric_list(row, "per_layer").map_err(|e| format!("{path}: {e}"))?,
            })
        })
        .collect()
}

/// The change from `a` to `b` as a share of `a` (0 when `a` is 0).
fn relative_change(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else {
        (b - a) / a.abs()
    }
}

/// By how much `b` is worse than `a`, as a share of `a`; negative = better.
fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => relative_change(a, b),
        Better::Higher => -relative_change(a, b),
    }
}

/// Counted metrics repeat exactly only where one thread orders the
/// operations; serving clients interleave differently every run.
fn repeats_exactly(m: &EndToEnd, workload: &str) -> bool {
    m.exact && by_name(workload).is_some_and(|w| w.driver != Driver::Serving)
}

/// The verdict on one run against one run. A counted metric repeats
/// exactly, so any change of it is real. A timed metric's bound is at least
/// three times its run-to-run spread at the baseline, so a change within a
/// third of the bound is noise, one beyond the bound is a change, and one
/// in between a single pair of runs cannot resolve.
pub fn verdict(m: &EndToEnd, workload: &str, a: f64, b: f64) -> &'static str {
    let w = worse_by(m, a, b);
    let by_sign = if w > 0.0 { "worse" } else { "better" };
    if repeats_exactly(m, workload) {
        return if a.to_bits() == b.to_bits() {
            "same"
        } else {
            by_sign
        };
    }
    match w.abs() {
        d if d <= m.bound / 3.0 => "same",
        d if d <= m.bound => "unresolved",
        _ => by_sign,
    }
}

fn same_traffic<'a>(
    a: &'a [FileRow],
    b: &'a [FileRow],
) -> Result<Vec<(&'a FileRow, &'a FileRow)>, String> {
    let mut pairs = Vec::new();
    for ra in a {
        let rb = b
            .iter()
            .find(|r| r.workload == ra.workload)
            .ok_or_else(|| format!("workload {} is missing from one file", ra.workload))?;
        if ra.traffic_fp != rb.traffic_fp {
            return Err(format!(
                "{}: traffic_fp differs ({} vs {}): the two files measured different \
                 traffic and cannot be compared",
                ra.workload, ra.traffic_fp, rb.traffic_fp
            ));
        }
        pairs.push((ra, rb));
    }
    Ok(pairs)
}

/// `ledger diff A.json B.json`. Returns whether any verdict is `worse`.
pub fn diff(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut any_worse = false;
    println!(
        "{:<14} {:<20} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "end-to-end metric", "A", "B", "delta", "bound"
    );
    let pairs = same_traffic(&a, &b)?;
    for (ra, rb) in &pairs {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (ra.value(m.name), rb.value(m.name)) else {
                return Err(format!("{}: {} is missing", ra.workload, m.name));
            };
            let v = verdict(m, &ra.workload, va, vb);
            any_worse |= v == "worse";
            println!(
                "{:<14} {:<20} {:>16.4} {:>16.4} {:>+8.2}% {:>5.0}%  {v}",
                ra.workload,
                m.name,
                va,
                vb,
                relative_change(va, vb) * 100.0,
                m.bound * 100.0,
            );
        }
    }
    println!();
    println!(
        "{:<14} {:<40} {:>16} {:>16}  unit",
        "workload", "per-layer metric", "A", "B"
    );
    for (ra, rb) in &pairs {
        for (name, va, unit) in &ra.per_layer {
            let vb = rb
                .per_layer
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, v, _)| *v);
            match vb {
                Some(vb) => println!(
                    "{:<14} {name:<40} {va:>16.4} {vb:>16.4}  {unit}",
                    ra.workload
                ),
                None => println!(
                    "{:<14} {name:<40} {va:>16.4} {:>16}  {unit}",
                    ra.workload, "-"
                ),
            }
        }
    }
    Ok(any_worse)
}

/// `ledger agree A1 A2 A3 -- B1 B2 B3`: two sets of runs of the same code.
/// Every counted metric must be bit-identical across all files, and every
/// other end-to-end metric's two set medians must lie within its bound of
/// each other. Returns the number of violations.
pub fn agree(set_a: &[String], set_b: &[String]) -> Result<usize, String> {
    if set_a.len() < 3 || set_b.len() < 3 {
        return Err("agree needs at least three files on each side of --".into());
    }
    let load_set = |paths: &[String]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
    let (a, b) = (load_set(set_a)?, load_set(set_b)?);
    for file in a.iter().chain(&b).skip(1) {
        same_traffic(&a[0], file)?;
    }
    let mut violations = 0;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload",
        "end-to-end metric",
        "A min",
        "A median",
        "A max",
        "B min",
        "B median",
        "B max",
        "delta",
        "bound"
    );
    for row in &a[0] {
        for m in END_TO_END {
            let values = |set: &[Vec<FileRow>]| -> Result<Vec<f64>, String> {
                set.iter()
                    .map(|file| {
                        file.iter()
                            .find(|r| r.workload == row.workload)
                            .and_then(|r| r.value(m.name))
                            .ok_or_else(|| format!("{}: {} is missing", row.workload, m.name))
                    })
                    .collect()
            };
            let (va, vb) = (values(&a)?, values(&b)?);
            let (ma, mb) = (median(&va), median(&vb));
            let delta = relative_change(ma, mb).abs();
            let identical = va.iter().chain(&vb).all(|v| v.to_bits() == va[0].to_bits());
            let ok = if repeats_exactly(m, &row.workload) {
                identical
            } else {
                delta <= m.bound
            };
            violations += usize::from(!ok);
            let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{:<14} {:<20} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>5.0}%  {}",
                row.workload,
                m.name,
                min(&va),
                ma,
                max(&va),
                min(&vb),
                mb,
                max(&vb),
                delta * 100.0,
                m.bound * 100.0,
                match (ok, repeats_exactly(m, &row.workload)) {
                    (true, true) => "identical",
                    (true, false) => "agree",
                    (false, true) => "NOT IDENTICAL",
                    (false, false) => "DISAGREE",
                },
            );
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_exactness() {
        let thr = metric("throughput_ops_s"); // higher is better
        let b = thr.bound;
        assert_eq!(
            verdict(thr, "read-cold", 100.0, 100.0 * (1.0 - b / 4.0)),
            "same"
        );
        assert_eq!(
            verdict(thr, "read-cold", 100.0, 100.0 * (1.0 - b / 2.0)),
            "unresolved"
        );
        assert_eq!(
            verdict(thr, "read-cold", 100.0, 100.0 * (1.0 - b * 1.5)),
            "worse"
        );
        assert_eq!(
            verdict(thr, "read-cold", 100.0, 100.0 * (1.0 + b * 1.5)),
            "better"
        );
        let wa = metric("write_amp"); // counted, lower is better
        assert_eq!(verdict(wa, "write-heavy", 5.0, 5.0), "same");
        assert_eq!(verdict(wa, "write-heavy", 5.0, 5.000001), "worse");
        assert_eq!(verdict(wa, "write-heavy", 5.0, 4.999999), "better");
        // Two clients interleave, so the count only nearly repeats there.
        assert_eq!(verdict(wa, "serve-mixed", 5.0, 5.000001), "same");
    }
}
