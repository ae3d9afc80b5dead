//! Lines of code per file, by the Figure 7 counter ([`vr_bench::loc::loc`]:
//! non-empty, non-comment lines), in two columns: the code above the
//! file's inline `#[cfg(test)]` module and the tests from it on
//! ([`vr_bench::loc::split_tests`]); then the totals.
//!
//! ```text
//! loc_report FILE...
//! ```
//!
//! `./ci.sh guard` runs it over each crate's `src/` and keeps the
//! totals in `results/ci/loc.txt`, so "this refactor removed N lines"
//! is a number from the repo's own instrument. Exit code 1 if a file
//! cannot be read, 2 with no arguments.

use std::process::ExitCode;

use vr_bench::loc::{loc, split_tests};

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: loc_report FILE...");
        return ExitCode::from(2);
    }
    let (mut code, mut tests) = (0usize, 0usize);
    println!("{:>6} {:>6}  file", "code", "test");
    for file in &files {
        match std::fs::read_to_string(file) {
            Ok(source) => {
                let (above, below) = split_tests(&source);
                let (c, t) = (loc(above), loc(below));
                (code, tests) = (code + c, tests + t);
                println!("{c:>6} {t:>6}  {file}");
            }
            Err(e) => {
                eprintln!("loc_report: cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{code:>6} {tests:>6}  total");
    ExitCode::SUCCESS
}
