//! Quickstart: open a RusKey store, use the KV API, then let the tuner
//! drive a short mission loop.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ruskey_repro::ruskey::{Backend, Lerp, RusKey, RusKeyConfig, StoreError};
use ruskey_repro::storage::{CostModel, SimulatedDisk};
use ruskey_repro::workload::{bulk_load_pairs, OpGenerator, OpMix, WorkloadSpec};

/// The paper's single-tree store: one shard, tuned by Lerp, on a simulated
/// NVMe-like device (deterministic, exact I/O accounting).
fn open_store() -> Result<RusKey, StoreError> {
    let cfg = RusKeyConfig::scaled_default();
    let lerp = Box::new(Lerp::new(cfg.lerp.clone()));
    let disk = SimulatedDisk::new(4096, CostModel::NVME);
    RusKey::open(cfg, 1, lerp, Backend::Volatile(vec![disk]))
}

fn main() -> Result<(), StoreError> {
    let mut db = open_store()?;

    // --- Plain key-value usage -----------------------------------------
    db.put(&b"greeting"[..], &b"hello, LSM"[..]);
    db.put(&b"answer"[..], &b"42"[..]);
    println!("get(greeting) = {:?}", db.get(b"greeting"));
    db.delete(&b"greeting"[..]);
    println!("after delete   = {:?}", db.get(b"greeting"));
    for (k, v) in db.scan(b"a", b"z", 10) {
        println!(
            "scan: {:?} -> {} bytes",
            String::from_utf8_lossy(&k),
            v.len()
        );
    }

    // --- Mission-driven operation (the paper's workflow) ---------------
    // Load a working set, then stream missions; the Lerp tuner adjusts the
    // compaction policy between missions.
    let n = 20_000;
    db = open_store()?;
    db.bulk_load(bulk_load_pairs(n, 16, 112, 7));
    println!(
        "\nbulk-loaded {n} entries into {} levels, policies {:?}",
        db.shard(0).level_count(),
        db.shard(0).policies()
    );

    let spec = WorkloadSpec::scaled_default(n).with_mix(OpMix::write_heavy());
    let mut gen = OpGenerator::new(spec, 1);
    println!("\nmission  K(L1)  latency(ms/op)  converged");
    for m in 0..60 {
        let ops = gen.take_ops(1000);
        let report = db.run_mission(&ops);
        if m % 5 == 0 {
            println!(
                "{m:>7}  {:>5}  {:>14.4}  {}",
                report.policies_after.first().copied().unwrap_or(1),
                report.ns_per_op() / 1e6,
                db.tuner_converged()
            );
        }
    }
    println!("\nfinal policies: {:?}", db.shard(0).policies());
    Ok(())
}
