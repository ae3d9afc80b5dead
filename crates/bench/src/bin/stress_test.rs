//! Multi-tenant load driver for the `visualroad serve` query server:
//! the command line over [`vr_bench::stress`], whose module docs list
//! what a run checks.
//!
//! ```text
//! stress_test --addr 127.0.0.1:7878 \
//!   --tenants gold:high:2,bronze:low:6 --requests 25 \
//!   --queries Q1,Q2a --deadline-ms 2000 --online-every 5 \
//!   --p99-bound-ms 4000 --expect-shedding --shutdown \
//!   --out results/ci/stress.json
//! ```
//!
//! Exits 2 with the usage text on a bad command line, 1 when any
//! verification fails.

use std::process::ExitCode;

use vr_bench::stress::{self, Config};

const USAGE: &str = "USAGE: stress_test --addr HOST:PORT [--tenants name:prio:sessions,...]
[--requests N] [--queries Q1,Q2a,...] [--engine NAME]
[--deadline-ms N] [--low-deadline-ms N]
[--online-every N] [--online-speedup F]
[--p99-bound-ms N] [--expect-shedding] [--require-high-zero-shed]
[--shutdown] [--out FILE] [--qlog FILE]";

fn main() -> ExitCode {
    let cfg = match Config::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(complaint) => {
            eprintln!("stress_test: {complaint}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sessions: usize = cfg.tenants.iter().map(|t| t.sessions).sum();
    eprintln!(
        "stress_test: {sessions} sessions x {} requests against {} ...",
        cfg.requests, cfg.addr
    );
    let mut summary = String::new();
    let report = stress::run(&cfg, &mut summary);
    print!("{summary}");
    let report = match report {
        Ok(report) => report,
        Err(fatal) => {
            eprintln!("FAIL: {fatal}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &cfg.out {
        let doc = stress::render_report(
            report.wall,
            sessions,
            cfg.requests,
            report.high_p99_us,
            report.low_load_shed,
            &report.tenants,
            report.failures.len(),
        );
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if report.failures.is_empty() {
        println!("stress_test: PASS");
        return ExitCode::SUCCESS;
    }
    for f in &report.failures {
        eprintln!("FAIL: {f}");
    }
    ExitCode::FAILURE
}
