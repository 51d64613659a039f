//! What the ledger reads about the process and the box it runs on.

use std::path::Path;
use std::process::Command;

use crate::json::Json;

/// User + system CPU time of this process so far, all threads, exited
/// ones included, in ns. `/proc/self/stat` counts in clock ticks (10 ms),
/// so callers sample it around intervals of a second or more.
pub fn process_cpu_ns() -> u64 {
    const NS_PER_TICK: u64 = 10_000_000; // USER_HZ is 100 on Linux
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick() + tick()) * NS_PER_TICK
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `dir`, from `/proc/mounts` (the
/// longest mount point that prefixes the path wins).
pub fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then_some((point.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t.to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The environment block of `ledger.json`. `durable_device` is false when
/// a run's WAL probe saw fsyncs too fast to have reached a device.
pub fn describe(data_dir: &Path, durable_device: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("data_dir_fs", Json::str(filesystem_of(data_dir))),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_head",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("build_profile", Json::str(build_profile())),
        ("durable_device", Json::Bool(durable_device)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_something() {
        // Burn a little CPU so the tick counter cannot be zero by accident.
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        assert!(process_cpu_ns() > 0);
        assert!(peak_rss_mb() > 0.5);
        assert_ne!(filesystem_of(Path::new("/proc")), "unknown");
    }
}
