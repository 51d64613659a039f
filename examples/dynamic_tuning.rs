//! The paper's Fig. 2 running example: a dynamic workload shifting
//! write-heavy → balanced → read-heavy, with RusKey self-tuning its
//! compaction policy (K should drift high under writes, middle when
//! balanced, low under reads).
//!
//! ```sh
//! cargo run --release --example dynamic_tuning
//! ```

use ruskey_repro::ruskey::{Backend, Lerp, RusKey, RusKeyConfig};
use ruskey_repro::storage::{CostModel, SimulatedDisk};
use ruskey_repro::workload::{
    bulk_load_pairs, DynamicWorkload, OpGenerator, OpMix, Session, WorkloadSpec,
};

fn main() {
    let n = 50_000u64;
    // Long enough for Lerp to converge, be knocked out by the shift, and
    // retune (retuning toward the *opposite* extreme — e.g. K=10 after a
    // write-heavy session back down to K=1 — needs the most exploration).
    let missions_per_session = 250;
    let mission_size = 1000;

    let cfg = RusKeyConfig::scaled_default();
    let lerp = Box::new(Lerp::new(cfg.lerp.clone()));
    let disk = SimulatedDisk::new(4096, CostModel::NVME);
    let mut db = RusKey::open(cfg, 1, lerp, Backend::Volatile(vec![disk])).expect("valid config");
    db.bulk_load(bulk_load_pairs(n, 16, 112, 7));

    let sessions = vec![
        Session {
            mix: OpMix::write_heavy(),
            missions: missions_per_session,
            label: "write-heavy",
        },
        Session {
            mix: OpMix::balanced(),
            missions: missions_per_session,
            label: "balanced",
        },
        Session {
            mix: OpMix::read_heavy(),
            missions: missions_per_session,
            label: "read-heavy",
        },
    ];
    let generator = OpGenerator::new(WorkloadSpec::scaled_default(n), 11);
    let mut workload = DynamicWorkload::new(generator, sessions, mission_size);

    println!("Fig. 2 running example: workload shifts and RusKey's policy trace\n");
    println!(
        "{:>8} {:>14} {:>7} {:>16} {:>10}",
        "mission", "session", "K(L1)", "latency(ms/op)", "converged"
    );
    let mut m = 0usize;
    let mut last_session = usize::MAX;
    while let Some((session, ops)) = workload.next() {
        let report = db.run_mission(&ops);
        if session != last_session {
            println!("  ---- workload shift ----");
            last_session = session;
        }
        if m.is_multiple_of(15) {
            println!(
                "{m:>8} {:>14} {:>7} {:>16.4} {:>10}",
                workload.sessions()[session].label,
                report.policies_after.first().copied().unwrap_or(1),
                report.ns_per_op() / 1e6,
                db.tuner_converged()
            );
        }
        m += 1;
    }
    println!("\nfinal policies: {:?}", db.shard(0).policies());
    println!(
        "(expect K(L1) high in the write-heavy session, mid when balanced, low when read-heavy)"
    );
}
