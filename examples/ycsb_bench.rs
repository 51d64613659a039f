//! Run the YCSB presets (plus the paper's mixes) against RusKey and the
//! fixed-policy baselines, printing tail latencies per preset.
//!
//! ```sh
//! cargo run --release --example ycsb_bench
//! ```

use ruskey_bench::{ycsb_sweep, ExperimentScale};
use ruskey_repro::workload::ycsb::Preset;

fn main() {
    let scale = ExperimentScale {
        load_entries: 30_000,
        mission_size: 1000,
        missions: 120,
        ..ExperimentScale::small()
    };
    let presets = [
        Preset::YcsbA,
        Preset::YcsbB,
        Preset::YcsbC,
        Preset::ReadHeavy,
        Preset::WriteHeavy,
        Preset::RangeBalanced,
    ];
    println!(
        "YCSB sweep | load={} entries, {} missions x {} ops (tail mean over last 30%)\n",
        scale.load_entries, scale.missions, scale.mission_size
    );
    for (preset, rows) in ycsb_sweep(&scale, &presets) {
        println!("{preset}:");
        let best = rows.iter().map(|(_, v)| *v).fold(f64::INFINITY, f64::min);
        for (method, latency) in rows {
            let marker = if (latency - best).abs() < 1e-12 {
                "  <-- best"
            } else {
                ""
            };
            println!("  {method:<18} {latency:>9.4} ms/op{marker}");
        }
        println!();
    }
}
