//! White-box optimal policies (Eq. 5 / Lemma 5.1) vs Lerp's learned
//! policies, across workload mixes.
//!
//! The white-box model knows the device constants exactly (we feed it the
//! simulator's own cost model), so its `K*` is the analytic optimum; Lerp
//! must find a comparable policy from rewards alone.
//!
//! ```sh
//! cargo run --release --example whitebox_vs_rl
//! ```

use ruskey_repro::analysis::cost::{optimal_k_int, CostParams};
use ruskey_repro::analysis::propagation::propagate_rounded;
use ruskey_repro::lsm::bloom::fpr_for_bits;
use ruskey_repro::ruskey::{Backend, Lerp, RusKey, RusKeyConfig};
use ruskey_repro::storage::{CostModel, SimulatedDisk};
use ruskey_repro::workload::{bulk_load_pairs, OpGenerator, OpMix, WorkloadSpec};

fn whitebox_k(gamma: f64, fpr: f64) -> u32 {
    let c = CostModel::NVME;
    let p = CostParams {
        size_ratio: 10.0,
        entry_bytes: 143.0, // 16 B key + 112 B value + 15 B header
        page_bytes: 4096.0,
        read_io_ns: c.read_page_ns as f64,
        write_io_ns: c.write_page_ns as f64,
        cpu_probe_ns: c.cpu_probe_ns as f64,
        cpu_merge_ns: c.cpu_merge_per_key_ns as f64,
        gamma,
    };
    optimal_k_int(&p, fpr, 10)
}

fn learned_k(gamma: f64) -> (u32, Vec<u32>) {
    let n = 50_000;
    let cfg = RusKeyConfig::scaled_default();
    let lerp = Box::new(Lerp::new(cfg.lerp.clone()));
    let disk = SimulatedDisk::new(4096, CostModel::NVME);
    let mut db = RusKey::open(cfg, 1, lerp, Backend::Volatile(vec![disk])).expect("valid config");
    db.bulk_load(bulk_load_pairs(n, 16, 112, 7));
    let spec = WorkloadSpec::scaled_default(n).with_mix(OpMix::reads(gamma));
    let mut gen = OpGenerator::new(spec, 5);
    for _ in 0..220 {
        let ops = gen.take_ops(1000);
        db.run_mission(&ops);
        if db.tuner_converged() {
            break;
        }
    }
    (
        db.shard(0).policies().first().copied().unwrap_or(1),
        db.shard(0).policies(),
    )
}

fn main() {
    let fpr = fpr_for_bits(8.0); // uniform scheme, 8 bits/key
    println!("White-box K* (Eq. 5, exact device constants) vs Lerp's learned K (rewards only)\n");
    println!(
        "{:>8} {:>14} {:>12}   Lerp all policies",
        "γ", "white-box K*", "Lerp K(L1)"
    );
    for gamma in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let wb = whitebox_k(gamma, fpr);
        let (k1, all) = learned_k(gamma);
        println!("{gamma:>8.1} {wb:>14} {k1:>12}   {all:?}");
    }

    println!("\nLemma 5.1 propagation from the paper's worked example (K1=9, K2=7, T=10):");
    println!(
        "  {:?}  (paper: [9, 7, 3, 1])",
        propagate_rounded(9, 7, 10, 4)
    );
}
