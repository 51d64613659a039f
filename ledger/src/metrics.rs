//! The metric registry: every name the ledger prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names (a test pins that), and
//! the README says what each one means and which end-to-end metric a
//! per-layer metric should move.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// A metric a user of the system would see, reported on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// Counted, not timed: identical for the same seed and code on every
    /// run of a mission workload (`serve-mixed` interleaves two clients,
    /// so there it only nearly repeats).
    pub exact: bool,
}

/// The end-to-end metrics. Each applies to all five workloads and is never
/// 0 on any of them. Client-visible numbers that exist on one workload only
/// (served get/put latency, fsyncs per acknowledged write) are per-layer
/// metrics of the layer that produces them, and so are CPU time per
/// operation and the mission latency percentiles: on a box whose speed
/// drifts by the minute every gated timed metric is one more way for an
/// unchanged program to be rejected, so only two are gated (README,
/// "Noise").
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("throughput_ops_s", "1/s", Higher, 0.25, false),
    e2e("virtual_ns_per_op", "ns", Lower, 0.05, true),
    e2e("read_amp", "pages/get", Lower, 0.06, true),
    e2e("write_amp", "ratio", Lower, 0.2, true),
    e2e("space_amp", "ratio", Lower, 0.03, true),
    e2e("peak_rss_mb", "MiB", Lower, 0.2, false),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// A metric of one layer (a module of the repository). No bound; its
/// direction is recorded in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit }
}

/// The per-layer metrics, reported on every workload; one that does not
/// apply to a workload (its layer is idle there) reads 0. The prefix names
/// the layer: `core`, `frontend` (core::frontend), `lsm`, `storage`, and
/// `workload`/`trace` for the ledger itself.
pub const PER_LAYER: &[PerLayer] = &[
    layer("core.tuner_share", "ratio"),
    layer("core.tuner.update_us_p50", "us"),
    layer("core.tuner.update_us_p99", "us"),
    layer("core.tuner.policy_changes", "count"),
    layer("core.tuner.converged_virtual_ns_per_op", "ns"),
    layer("core.warmup_s", "s"),
    layer("core.cpu_ns_per_op", "ns"),
    layer("core.mission_p50_us", "us"),
    layer("core.mission_p99_us", "us"),
    layer("core.process_share", "ratio"),
    layer("core.report_share", "ratio"),
    layer("core.shard_imbalance", "ratio"),
    layer("core.virtual_wall_ns_per_op", "ns"),
    layer("core.commit_virtual_ns_per_mission", "ns"),
    layer("core.recover_ms", "ms"),
    layer("core.recover_runs", "count"),
    layer("core.recover_replayed", "count"),
    layer("frontend.get_p50_us", "us"),
    layer("frontend.get_p90_us", "us"),
    layer("frontend.get_p99_us", "us"),
    layer("frontend.put_p50_us", "us"),
    layer("frontend.put_p90_us", "us"),
    layer("frontend.put_p99_us", "us"),
    layer("frontend.roundtrip_us_p50", "us"),
    layer("frontend.writes_per_commit", "ratio"),
    layer("frontend.queue_stalls", "count"),
    layer("frontend.queue_stall_us_per_op", "us"),
    layer("frontend.shard_imbalance", "ratio"),
    layer("frontend.get_overhead_us", "us"),
    layer("frontend.put_overhead_us", "us"),
    layer("lsm.wal.fsyncs_per_acked_write", "ratio"),
    layer("lsm.write_amp_measured", "ratio"),
    layer("lsm.bloom_probes_per_get", "ratio"),
    layer("lsm.bloom_fp_rate", "ratio"),
    layer("lsm.runs_per_level_end", "ratio"),
    layer("lsm.flushes_per_kop", "ratio"),
    layer("lsm.compact_pages_written_per_kop", "ratio"),
    layer("lsm.bg_compactions", "count"),
    layer("lsm.manifest_edits_per_flush", "ratio"),
    layer("lsm.extent_syncs_per_flush", "ratio"),
    layer("lsm.dir_syncs_per_flush", "ratio"),
    layer("lsm.stall_virtual_ns_per_op", "ns"),
    layer("lsm.pending_compaction_bytes_end", "bytes"),
    layer("lsm.get_ns_p50", "ns"),
    layer("lsm.get_ns_p99", "ns"),
    layer("lsm.scan_us_p50", "us"),
    layer("lsm.put_ns_p50", "ns"),
    layer("lsm.put_ns_p99", "ns"),
    layer("lsm.maintain_step_us_p50", "us"),
    layer("lsm.maintain_step_us_p99", "us"),
    layer("lsm.commit_us_p50", "us"),
    layer("lsm.self_share", "ratio"),
    layer("lsm.replay.wall_ns_per_op", "ns"),
    layer("lsm.inline.put_ns_p99", "ns"),
    layer("lsm.inline.wall_ns_per_op", "ns"),
    layer("lsm.wal.append_ns", "ns"),
    layer("lsm.wal.sync_us_p50", "us"),
    layer("lsm.wal.sync_us_p90", "us"),
    layer("lsm.bloom.contains_ns", "ns"),
    layer("lsm.fence.locate_ns", "ns"),
    layer("lsm.memtable.insert_ns", "ns"),
    layer("lsm.memtable.get_ns", "ns"),
    layer("lsm.bloom.est_share", "ratio"),
    layer("lsm.fence.est_share", "ratio"),
    layer("storage.cache.hit_ratio", "ratio"),
    layer("storage.cache.evictions_per_op", "ratio"),
    layer("storage.cache.hit_ns_p50", "ns"),
    layer("storage.cache.miss_overhead_ns_p50", "ns"),
    layer("storage.cache.self_share", "ratio"),
    layer("storage.file.read_ns_p50", "ns"),
    layer("storage.file.read_ns_p99", "ns"),
    layer("storage.file.write_ns_p50", "ns"),
    layer("storage.file.sync_extent_us_p50", "us"),
    layer("storage.file.sync_dir_us_p50", "us"),
    layer("storage.file.share", "ratio"),
    layer("storage.file.fds_opened", "count"),
    layer("storage.file.buffer_grows", "count"),
    layer("storage.pages_read_per_op", "ratio"),
    layer("storage.pages_written_per_op", "ratio"),
    layer("workload.gen_ns_per_op", "ns"),
    layer("trace.overhead_ratio", "ratio"),
    layer("trace.unattributed_share", "ratio"),
];

/// Measured values by metric name, in the order they were set.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, …}` for exactly the names in
    /// `registry`, in registry order. A registered metric nobody measured
    /// is a bug in the ledger, not a 0.
    pub fn to_json<'a>(
        &self,
        registry: impl Iterator<Item = (&'a str, &'a str)>,
    ) -> Result<Json, String> {
        let mut pairs = Vec::new();
        for (name, unit) in registry {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not a number: {value}"));
            }
            pairs.push((
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ));
        }
        Ok(Json::obj(pairs))
    }
}

pub fn end_to_end_registry() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit))
}

pub fn per_layer_registry() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = end_to_end_registry()
            .chain(per_layer_registry())
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names.iter().collect::<HashSet<_>>().len(), names.len());
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (name, unit) in end_to_end_registry().chain(per_layer_registry()) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` and the registry name the same metrics with the
    /// same units, directions and bounds, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        let run_seconds = doc.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(run_seconds, Some(crate::RUN_SECONDS as f64));
        let listed = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (m, reg) in listed.iter().zip(END_TO_END) {
            assert_eq!(field(m, "name"), reg.name);
            assert_eq!(field(m, "unit"), reg.unit, "{}", reg.name);
            assert_eq!(field(m, "better"), reg.better.as_str(), "{}", reg.name);
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(reg.bound));
        }
        let listed = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (m, reg) in listed.iter().zip(PER_LAYER) {
            assert_eq!(field(m, "name"), reg.name);
            assert_eq!(field(m, "unit"), reg.unit, "{}", reg.name);
            assert!(["lower", "higher"].contains(&field(m, "better").as_str()));
        }
        let listed = doc.get("workloads").and_then(Json::as_arr).unwrap();
        let listed: Vec<(String, String)> = listed
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = crate::workloads::all()
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }
}
