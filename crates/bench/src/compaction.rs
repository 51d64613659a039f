//! Background-compaction experiment (beyond the paper): tail latency of
//! a write-heavy mission mix with structural work on vs off the hot path.
//!
//! `repro compaction` drives the same deterministic put/delete/get mix
//! against two [`FlsmTree`] variants over the simulated device:
//!
//! * **inline**: the classic write path — a full memtable flushes (and a
//!   full level cascades) inside the `put` that tripped it, so the
//!   structural spike lands on that operation's latency;
//! * **background**: `background_maintenance` enabled — flushes and
//!   compactions run as the tree's bounded boundary grant
//!   ([`FlsmTree::maintain_boundary`]) at mission boundaries (every
//!   [`BOUNDARY_OPS`] operations), off every operation's path, exactly
//!   as a sharded store's mission lanes interleave them.
//!
//! Every operation's latency is read off the tree's virtual clock, so
//! the comparison is deterministic and device-model-exact. Both variants
//! verify reads against an in-memory model *while merges are in flight*
//! and pin a mid-run [`ruskey_lsm::TreeSnapshot`] across the remaining
//! structural churn; the verdicts conjoin into the top-level
//! `compaction_ok` flag CI greps from the JSON output (background p99 no
//! worse than inline p99, zero read divergence, background compactions
//! actually observed).

use std::collections::BTreeMap;

use bytes::Bytes;
use ruskey::runner::ExperimentScale;
use ruskey_lsm::{FlsmTree, LsmConfig};
use ruskey_storage::SimulatedDisk;
use ruskey_workload::encode_key;

/// Operations between maintenance boundaries in the background variant —
/// the bench's stand-in for a shard's per-mission lane.
const BOUNDARY_OPS: u64 = 32;

/// One variant's measurement.
#[derive(Debug, Clone)]
pub struct CompactionRow {
    /// `"inline"` or `"background"`.
    pub variant: &'static str,
    /// Operations driven (puts + deletes + gets).
    pub ops: u64,
    /// Median per-op latency (virtual ns).
    pub p50_ns: u64,
    /// 99th-percentile per-op latency (virtual ns) — the headline: the
    /// structural spikes inline mode pays on the op path.
    pub p99_ns: u64,
    /// Worst single-op latency (virtual ns).
    pub max_ns: u64,
    /// Memtable flushes over the run.
    pub flushes: u64,
    /// Background maintenance steps applied (0 for `"inline"`).
    pub bg_compactions: u64,
    /// Virtual ns the write path spent blocked on structural work.
    pub stall_ns: u64,
    /// Structural debt outstanding at the end of the run (gauge).
    pub pending_compaction_bytes: u64,
    /// Reads verified against the in-memory model, including reads
    /// issued while a merge was in flight and through the pinned
    /// mid-run snapshot.
    pub equivalence_checks: u64,
    /// All of the row's invariants held (zero read divergence; for
    /// `"background"` also: compactions observed and p99 no worse than
    /// the inline row's).
    pub ok: bool,
}

/// Drives the write-heavy mix against one variant. `inline_p99` is the
/// inline row's reading, used by the background row's verdict.
fn run_variant(
    scale: &ExperimentScale,
    background: bool,
    inline_p99: Option<u64>,
) -> CompactionRow {
    let variant = if background { "background" } else { "inline" };
    let disk = SimulatedDisk::new(scale.page_size, scale.cost);
    let cfg = LsmConfig {
        buffer_bytes: 8192,
        size_ratio: 4,
        initial_policy: 1,
        background_maintenance: background,
        l0_stall_runs: 16,
        ..LsmConfig::scaled_default()
    };
    let mut tree = FlsmTree::new(cfg, disk);

    let ops = ((scale.mission_size * scale.missions) as u64).max(2_000);
    let key_space = scale.load_entries.max(1);
    let value = Bytes::from(vec![b'v'; scale.value_len]);
    let key = |i: u64| encode_key(i % key_space, scale.key_len);

    let mut model: BTreeMap<Bytes, Bytes> = BTreeMap::new();
    let mut latencies: Vec<u64> = Vec::with_capacity(ops as usize);
    let mut checks = 0u64;
    let mut mismatches = 0u64;
    let mut pinned: Option<(ruskey_lsm::TreeSnapshot, BTreeMap<Bytes, Bytes>)> = None;

    for i in 0..ops {
        // Write-heavy mix: 70% puts, 10% deletes, 20% gets, keys striding
        // the space so levels fill and overwrite garbage accumulates.
        let k = key(i.wrapping_mul(7919));
        let t0 = tree.storage().clock().now_ns();
        match i % 10 {
            7 => {
                tree.delete(k.clone());
                model.remove(&k);
            }
            8 | 9 => {
                let got = tree.get(&k);
                checks += 1;
                if got.as_ref() != model.get(&k) {
                    mismatches += 1;
                }
            }
            _ => {
                tree.put(k.clone(), value.clone());
                model.insert(k, value.clone());
            }
        }
        latencies.push(tree.storage().clock().now_ns() - t0);

        if background && (i + 1) % BOUNDARY_OPS == 0 {
            // The mission boundary: deferred structural work runs here,
            // outside every timed operation above.
            tree.maintain_boundary();
            if tree.has_pending_compaction() {
                // Reads racing the in-flight merge must already agree.
                let probe = key((i + 1).wrapping_mul(7919));
                checks += 1;
                if tree.get(&probe).as_ref() != model.get(&probe) {
                    mismatches += 1;
                }
            }
        }
        if i == ops / 2 {
            // Pin the mid-run structure: the second half's merges retire
            // the runs under this snapshot, and it must keep reading the
            // frozen state regardless.
            tree.flush();
            pinned = Some((tree.snapshot(), model.clone()));
        }
    }

    // Drain the background debt (inline is already quiescent), then
    // verify the live tree and the pinned snapshot against their models.
    while tree.maintain(8) > 0 {}
    if let Some((snap, frozen)) = &pinned {
        for i in (0..key_space).step_by(((key_space / 97).max(1)) as usize) {
            let k = encode_key(i, scale.key_len);
            checks += 1;
            if snap.get(tree.storage().as_ref(), &k).as_ref() != frozen.get(&k) {
                mismatches += 1;
            }
        }
    }
    for (k, v) in &model {
        checks += 1;
        if tree.get(k).as_ref() != Some(v) {
            mismatches += 1;
        }
    }
    let scanned = tree.scan(&encode_key(0, scale.key_len), &[0xffu8; 1], usize::MAX);
    let expected: Vec<(Bytes, Bytes)> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    checks += 1;
    if scanned != expected {
        mismatches += 1;
    }

    latencies.sort_unstable();
    let p99 = crate::percentile_ns(&latencies, 0.99);
    let stats = tree.stats();
    let ok = mismatches == 0
        && (!background || (stats.bg_compactions > 0 && inline_p99.is_none_or(|ip| p99 <= ip)));
    CompactionRow {
        variant,
        ops,
        p50_ns: crate::percentile_ns(&latencies, 0.50),
        p99_ns: p99,
        max_ns: crate::max_ns(&latencies),
        flushes: stats.flushes,
        bg_compactions: stats.bg_compactions,
        stall_ns: stats.stall_ns,
        pending_compaction_bytes: stats.pending_compaction_bytes,
        equivalence_checks: checks,
        ok,
    }
}

/// Runs both variants and returns their rows — `"inline"` first,
/// `"background"` second, so the tail-latency win of moving structural
/// work off the hot path is `rows[0].p99_ns as f64 / rows[1].p99_ns as
/// f64`.
pub fn compaction(scale: &ExperimentScale) -> Vec<CompactionRow> {
    let inline = run_variant(scale, false, None);
    let background = run_variant(scale, true, Some(inline.p99_ns));
    vec![inline, background]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            load_entries: 1_500,
            ..ExperimentScale::tiny()
        }
    }

    #[test]
    fn background_beats_inline_tail_latency_and_stays_equivalent() {
        let _serial = crate::real_time_test_guard();
        let rows = compaction(&tiny());
        assert_eq!(rows[0].variant, "inline");
        assert_eq!(rows[1].variant, "background");
        for r in &rows {
            assert!(r.ok, "compaction invariants failed: {r:?}");
            assert!(r.equivalence_checks > 0);
        }
        assert!(rows[1].bg_compactions > 0, "background steps must run");
        assert!(
            rows[1].p99_ns <= rows[0].p99_ns,
            "deferred structural work must not worsen the op tail: {} vs {}",
            rows[1].p99_ns,
            rows[0].p99_ns
        );
    }
}
