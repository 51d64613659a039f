//! Concurrent-serving experiment (beyond the paper): the
//! [`ServingFrontend`](ruskey::frontend::ServingFrontend) under a
//! closed-loop multi-client YCSB-style workload.
//!
//! `repro serve` drives a persistent 4-shard store with K ∈ {1, 4, 16}
//! closed-loop clients (each issues one request, waits for the reply,
//! issues the next) over disjoint key ranges, reporting real-time
//! throughput and p50/p99/p999 request latency. The verdict legs CI
//! greps as `serve_ok`:
//!
//! * **read-your-writes** — every client periodically rereads its own
//!   last acknowledged write mid-flight and the final store state
//!   matches every client's shadow model (zero violations);
//! * **cross-client group commit** — at 16 clients ≫ 4 shards the mean
//!   records-per-fsync exceeds 1: concurrent clients' writes
//!   coalesced into shared fsyncs (at 1 client it cannot exceed 1);
//! * **crash durability** — a [`CrashPoint`] armed on one shard fires
//!   mid-serve; every write acknowledged before the crash must survive
//!   reopening on [`Backend::Recover`];
//! * **admission control** — a tight token bucket under hammering
//!   clients must reject (backpressure observed) while every
//!   *acknowledged* write stays durable and every *rejected* write
//!   stays unexecuted — a rejection never drops an acknowledged op.

use std::collections::HashMap;
use std::thread;
use std::time::Instant;

use bytes::Bytes;
use ruskey::db::RusKeyConfig;
use ruskey::frontend::{ServingClient, ServingConfig, ServingError};
use ruskey::runner::ExperimentScale;
use ruskey::sharded::{Backend, PersistenceConfig, RusKey};
use ruskey::tuner::NoOpTuner;
use ruskey_lsm::CrashPoint;
use ruskey_workload::{bulk_load_pairs, client_scripts, encode_key, OpMix, Operation};

use crate::percentile::{max_ns, percentile_ns};

/// One client-count configuration's serving measurement.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Closed-loop client threads.
    pub clients: usize,
    /// Shards (each behind its own lock while serving).
    pub shards: usize,
    /// Requests admitted (client ops + mid-flight read-your-writes
    /// rereads).
    pub ops_total: u64,
    /// Writes acknowledged after the fsync covering them.
    pub acked_writes: u64,
    /// Times a client found its shard's lock taken and blocked for it.
    pub stalls: u64,
    /// Real throughput over the serving window (kops/s).
    pub throughput_kops: f64,
    /// Median request latency (real ns, measured at the client).
    pub p50_ns: u64,
    /// 99th-percentile request latency (real ns).
    pub p99_ns: u64,
    /// 99.9th-percentile request latency (real ns).
    pub p999_ns: u64,
    /// Slowest request (real ns).
    pub max_ns: u64,
    /// Mean records per fsync — cross-client group-commit coalescing;
    /// > 1 means concurrent clients shared fsyncs.
    pub mean_batch: f64,
    /// Mid-flight read-your-writes rereads performed.
    pub ryw_checks: u64,
    /// Rereads that saw anything but the client's own last write.
    pub ryw_violations: u64,
    /// Final-state keys that diverged from the clients' shadow models.
    pub final_mismatches: u64,
    /// Client requests that failed (should be zero without faults).
    pub client_errors: u64,
    /// Row verdict: zero violations, mismatches, and errors, and writes
    /// actually acknowledged.
    pub ok: bool,
}

/// The whole experiment: per-concurrency rows plus the crash-durability
/// and admission-control legs.
#[derive(Debug, Clone)]
pub struct ServeVerdict {
    /// One row per client count (same shard count throughout).
    pub rows: Vec<ServeRow>,
    /// Writes acknowledged before the mid-serve crash fired.
    pub crash_acked: u64,
    /// The crash leg held: the crash fired mid-serve and every
    /// acknowledged write survived recovery.
    pub crash_ok: bool,
    /// Requests the token bucket rejected in the admission leg.
    pub admission_rejections: u64,
    /// The admission leg held: rejections observed, every acknowledged
    /// write present, every rejected write absent.
    pub admission_ok: bool,
    /// The headline verdict CI greps: every row ok, coalescing observed
    /// at clients ≫ shards, crash and admission legs ok.
    pub ok: bool,
}

/// What one closed-loop client brought home.
struct ClientOutcome {
    latencies: Vec<u64>,
    /// The client's shadow model: key → expected final value (`None`
    /// after a delete). Disjoint key ranges make the union over clients
    /// a model of the whole store.
    shadow: HashMap<Bytes, Option<Bytes>>,
    ryw_checks: u64,
    ryw_violations: u64,
    errors: u64,
}

/// Runs one client's script against the frontend, closed-loop.
fn run_client(client: &ServingClient, script: &[Operation]) -> ClientOutcome {
    let mut out = ClientOutcome {
        latencies: Vec::with_capacity(script.len()),
        shadow: HashMap::new(),
        ryw_checks: 0,
        ryw_violations: 0,
        errors: 0,
    };
    let mut last_write: Option<Bytes> = None;
    for (i, op) in script.iter().enumerate() {
        let t0 = Instant::now();
        match op {
            Operation::Get { key } => {
                if client.get(key).is_err() {
                    out.errors += 1;
                }
            }
            Operation::Put { key, value } => {
                if client.put(key.clone(), value.clone()).is_ok() {
                    out.shadow.insert(key.clone(), Some(value.clone()));
                    last_write = Some(key.clone());
                } else {
                    out.errors += 1;
                }
            }
            Operation::Delete { key } => {
                if client.delete(key.clone()).is_ok() {
                    out.shadow.insert(key.clone(), None);
                    last_write = Some(key.clone());
                } else {
                    out.errors += 1;
                }
            }
            Operation::Scan { start, end, limit } => {
                if client.scan(start, end, *limit).is_err() {
                    out.errors += 1;
                }
            }
        }
        out.latencies.push(t0.elapsed().as_nanos() as u64);
        // Mid-flight read-your-writes: every 8th op, reread this
        // client's last acknowledged write — the per-shard lock's order
        // must make it visible no matter what the other clients are doing.
        if i % 8 == 7 {
            if let Some(key) = &last_write {
                out.ryw_checks += 1;
                match client.get(key) {
                    Ok(v) => {
                        let expected = out.shadow.get(key).expect("shadowed write");
                        if v.as_deref() != expected.as_deref() {
                            out.ryw_violations += 1;
                        }
                    }
                    Err(_) => out.errors += 1,
                }
            }
        }
    }
    out
}

/// Runs one client-count configuration against a fresh persistent store.
fn run_row(scale: &ExperimentScale, clients: usize, shards: usize) -> ServeRow {
    let dir = std::env::temp_dir().join(format!(
        "ruskey-serve-{}-{clients}c{shards}s",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut persistence = PersistenceConfig::new(&dir);
    persistence.page_size = scale.page_size;
    persistence.cost = scale.cost;
    let mut db = RusKey::open(
        RusKeyConfig::scaled_default(),
        shards,
        Box::new(NoOpTuner),
        Backend::Create(&persistence),
    )
    .expect("open persistent store");
    db.bulk_load(bulk_load_pairs(
        scale.load_entries,
        scale.key_len,
        scale.value_len,
        scale.seed,
    ));
    let spec = scale.spec().with_mix(OpMix {
        lookup: 0.45,
        update: 0.45,
        delete: 0.05,
        scan: 0.05,
    });
    let scripts = client_scripts(
        &spec,
        clients,
        scale.mission_size,
        scale.seed.wrapping_add(7),
    );

    let frontend = db.serve(ServingConfig::default()).expect("start serving");
    let t0 = Instant::now();
    let outcomes: Vec<ClientOutcome> = thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let client = frontend.client();
                s.spawn(move || run_client(&client, script))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    let metrics = db.finish_serving(frontend).expect("finish serving");

    // Final-state equivalence: the store (now back under direct control)
    // must match the union of the clients' shadow models.
    let mut final_mismatches = 0u64;
    for o in &outcomes {
        for (key, expected) in &o.shadow {
            if db.get(key).as_deref() != expected.as_deref() {
                final_mismatches += 1;
            }
        }
    }
    let mut latencies: Vec<u64> = outcomes.iter().flat_map(|o| o.latencies.clone()).collect();
    latencies.sort_unstable();
    let ryw_checks = outcomes.iter().map(|o| o.ryw_checks).sum();
    let ryw_violations = outcomes.iter().map(|o| o.ryw_violations).sum();
    let client_errors = outcomes.iter().map(|o| o.errors).sum();
    let _ = std::fs::remove_dir_all(&dir);
    let ok = ryw_violations == 0
        && final_mismatches == 0
        && client_errors == 0
        && metrics.acked_writes > 0;
    ServeRow {
        clients,
        shards,
        ops_total: metrics.requests(),
        acked_writes: metrics.acked_writes,
        stalls: metrics.stalls,
        throughput_kops: metrics.requests() as f64 / wall_s / 1e3,
        p50_ns: percentile_ns(&latencies, 0.50),
        p99_ns: percentile_ns(&latencies, 0.99),
        p999_ns: percentile_ns(&latencies, 0.999),
        max_ns: max_ns(&latencies),
        mean_batch: metrics.mean_batch_writes(),
        ryw_checks,
        ryw_violations,
        final_mismatches,
        client_errors,
        ok,
    }
}

/// The crash-durability leg: arm a WAL crash on shard 0, serve writes
/// from concurrent clients, and verify every *acknowledged* write
/// survives recovery. Returns `(acked_writes, ok)`.
fn crash_leg(scale: &ExperimentScale) -> (u64, bool) {
    const SHARDS: usize = 2;
    const CLIENTS: usize = 4;
    const WRITES_PER_CLIENT: u64 = 80;
    let dir = std::env::temp_dir().join(format!("ruskey-serve-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut persistence = PersistenceConfig::new(&dir);
    persistence.page_size = scale.page_size;
    persistence.cost = scale.cost;
    let cfg = RusKeyConfig::scaled_default();
    let mut db = RusKey::open(
        cfg.clone(),
        SHARDS,
        Box::new(NoOpTuner),
        Backend::Create(&persistence),
    )
    .expect("open persistent store");
    // Fire after 24 more shard-0 appends: mid-serve, well before the
    // clients run out of writes (shard 0 owns roughly half of them).
    db.shard_mut(0)
        .wal_mut()
        .expect("persistent shard has a WAL")
        .arm_crash(CrashPoint::PostAppend, 24);

    let frontend = db.serve(ServingConfig::default()).expect("start serving");
    let acked: Vec<(Bytes, Bytes)> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = frontend.client();
                s.spawn(move || {
                    let mut acked = Vec::new();
                    for i in 0..WRITES_PER_CLIENT {
                        let key = encode_key(c as u64 * 100_000 + i, 16);
                        let value = Bytes::from(format!("serve-crash-{c}-{i}"));
                        // Crashed/Stopped errors are the expected fate of
                        // shard-0 writes after the crash fires; only an
                        // Ok reply is an acknowledgement.
                        if client.put(key.clone(), value.clone()).is_ok() {
                            acked.push((key, value));
                        }
                    }
                    acked
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("crash-leg client panicked"))
            .collect()
    });
    let _ = db.finish_serving(frontend).expect("finish serving");
    let mut ok = db.crashed();
    drop(db);

    let mut rec = RusKey::open(
        cfg,
        SHARDS,
        Box::new(NoOpTuner),
        Backend::Recover(&persistence),
    )
    .expect("recover after mid-serve crash");
    ok &= !acked.is_empty();
    for (key, value) in &acked {
        ok &= rec.get(key).as_deref() == Some(value.as_ref());
    }
    let _ = std::fs::remove_dir_all(&dir);
    (acked.len() as u64, ok)
}

/// The admission-control leg: a tight token bucket under hammering
/// clients must reject requests, acknowledged writes must all land, and
/// rejected writes must never have executed. Returns
/// `(rejections, ok)`.
fn admission_leg(scale: &ExperimentScale) -> (u64, bool) {
    const SHARDS: usize = 2;
    const CLIENTS: usize = 4;
    const WRITES_PER_CLIENT: u64 = 200;
    let mut db = RusKey::open(
        RusKeyConfig::scaled_default(),
        SHARDS,
        Box::new(NoOpTuner),
        Backend::Volatile(scale.disk()),
    )
    .expect("open");
    let frontend = db
        .serve(ServingConfig {
            rate_limit_per_sec: 500,
            burst: 8,
        })
        .expect("start serving");
    let (acked, rejected): (Vec<Bytes>, Vec<Bytes>) = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = frontend.client();
                s.spawn(move || {
                    let mut acked = Vec::new();
                    let mut rejected = Vec::new();
                    for i in 0..WRITES_PER_CLIENT {
                        let key = encode_key(c as u64 * 100_000 + i, 16);
                        match client.put(key.clone(), Bytes::from_static(b"admitted")) {
                            Ok(()) => acked.push(key),
                            Err(ServingError::Rejected { .. }) => rejected.push(key),
                            Err(_) => {}
                        }
                    }
                    (acked, rejected)
                })
            })
            .collect();
        let mut all_acked = Vec::new();
        let mut all_rejected = Vec::new();
        for h in handles {
            let (a, r) = h.join().expect("admission-leg client panicked");
            all_acked.extend(a);
            all_rejected.extend(r);
        }
        (all_acked, all_rejected)
    });
    let metrics = db.finish_serving(frontend).expect("finish serving");
    let mut ok = !rejected.is_empty() && !acked.is_empty();
    ok &= metrics.rejections == rejected.len() as u64;
    // An acknowledged op is never dropped; a rejected op never executed.
    for key in &acked {
        ok &= db.get(key).is_some();
    }
    for key in &rejected {
        ok &= db.get(key).is_none();
    }
    (rejected.len() as u64, ok)
}

/// Runs the whole serving experiment: K ∈ {1, 4, 16} clients over a
/// 4-shard persistent store, plus the crash-durability and
/// admission-control legs.
pub fn serve(scale: &ExperimentScale) -> ServeVerdict {
    const SHARDS: usize = 4;
    let rows: Vec<ServeRow> = [1usize, 4, 16]
        .iter()
        .map(|&clients| run_row(scale, clients, SHARDS))
        .collect();
    let (crash_acked, crash_ok) = crash_leg(scale);
    let (admission_rejections, admission_ok) = admission_leg(scale);
    // Cross-client coalescing: at clients ≫ shards the mean fsync must
    // cover more than a single write — writers that arrive while an fsync
    // is in flight share the next one.
    let coalesced = rows
        .iter()
        .filter(|r| r.clients > r.shards)
        .all(|r| r.mean_batch > 1.0);
    let ok = rows.iter().all(|r| r.ok) && coalesced && crash_ok && admission_ok;
    ServeVerdict {
        rows,
        crash_acked,
        crash_ok,
        admission_rejections,
        admission_ok,
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            load_entries: 1200,
            mission_size: 150,
            missions: 3,
            ..ExperimentScale::tiny()
        }
    }

    #[test]
    fn serve_verdict_holds_at_tiny_scale() {
        let _serial = crate::real_time_test_guard();
        let v = serve(&tiny());
        assert!(v.crash_ok, "acknowledged writes must survive the crash");
        assert!(v.admission_ok, "admission leg must hold");
        assert!(v.admission_rejections > 0, "bucket must reject");
        assert!(v.crash_acked > 0);
        for r in &v.rows {
            assert!(r.ok, "row at {} clients failed", r.clients);
            assert_eq!(r.ryw_violations, 0);
            assert_eq!(r.final_mismatches, 0);
            assert!(r.p999_ns >= r.p99_ns && r.p99_ns >= r.p50_ns);
        }
        let crowded = v.rows.iter().find(|r| r.clients == 16).unwrap();
        assert!(
            crowded.mean_batch > 1.0,
            "16 clients over 4 shards must coalesce writes (got {})",
            crowded.mean_batch
        );
        assert!(v.ok, "serve_ok must hold");
    }
}
