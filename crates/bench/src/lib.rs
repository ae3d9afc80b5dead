//! Shared harness for the experiment-reproduction binaries.
//!
//! Every table and figure in the paper's evaluation (§6) has a
//! `repro_*` binary in `src/bin/`; see DESIGN.md's per-experiment
//! index and EXPERIMENTS.md for recorded results. The binaries run a
//! *scaled-down* configuration by default (seconds of small video
//! instead of hours of 1κ–4κ) and accept flags to scale up.

pub mod args;
pub mod corpus_input;
pub mod json;
pub mod loc;
pub mod table;

use std::time::{Duration, Instant};

/// Time a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Format a duration as seconds with millisecond precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// A reproduction's shape checks — the relative structure of a paper
/// figure, as predicates the binary asserts. Each check prints one
/// line with the measured value and its bound; [`ShapeChecks::finish`]
/// is the process exit code, non-zero if any failed.
#[derive(Default)]
pub struct ShapeChecks {
    failed: usize,
}

impl ShapeChecks {
    /// Check that `measured` lies in `[lo, hi]`.
    pub fn check(&mut self, what: &str, measured: f64, lo: f64, hi: f64) {
        let ok = (lo..=hi).contains(&measured);
        self.failed += usize::from(!ok);
        let verdict = if ok { "ok" } else { "FAIL" };
        println!("shape {verdict}: {what} = {measured:.2} (bound [{lo}, {hi}])");
    }

    /// Success if every check held.
    pub fn finish(self) -> std::process::ExitCode {
        if self.failed > 0 {
            eprintln!("{} shape check(s) failed", self.failed);
            return std::process::ExitCode::FAILURE;
        }
        std::process::ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helpers() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
    }

    #[test]
    fn shape_checks_count_failures() {
        let mut checks = ShapeChecks::default();
        checks.check("inside", 2.0, 1.5, 2.6);
        checks.check("at the bound", 1.6, 1.6, f64::INFINITY);
        assert_eq!(checks.failed, 0);
        checks.check("outside", 2.7, 1.5, 2.6);
        checks.check("not a number", f64::NAN, 1.5, 2.6);
        assert_eq!(checks.failed, 2);
        assert_eq!(checks.finish(), std::process::ExitCode::FAILURE);
    }
}
