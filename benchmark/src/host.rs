//! What the benchmark reads about its own process and host.

use std::process::Command;

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` does not say.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
/// `/proc/self/stat` counts in `USER_HZ` ticks, which Linux fixes at 100.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th of the whole line.
            let rest = s.rsplit_once(')')?.1;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / USER_HZ)
        })
        .unwrap_or(0.0)
}

/// Threads the host runs at once; every workload's load generator stays
/// at or below it.
pub fn parallelism() -> usize {
    visual_road::base::sync::hardware_parallelism()
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version` of the toolchain on the path.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// Commit of the checkout, `unknown` outside a git repository.
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}
