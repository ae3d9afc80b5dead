//! Lines of code per file, by the Figure 7 counter ([`vr_bench::loc::loc`]:
//! non-empty, non-comment lines), plus the total.
//!
//! ```text
//! loc_report FILE...
//! ```
//!
//! `./ci.sh guard` runs it over the request-path sources and keeps the
//! table in `results/ci/loc.txt`, so "this refactor removed N lines" is
//! a number from the repo's own instrument. Exit code 1 if a file
//! cannot be read, 2 with no arguments.

use std::process::ExitCode;

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: loc_report FILE...");
        return ExitCode::from(2);
    }
    let mut total = 0usize;
    for file in &files {
        match std::fs::read_to_string(file) {
            Ok(source) => {
                let n = vr_bench::loc::loc(&source);
                total += n;
                println!("{n:>6}  {file}");
            }
            Err(e) => {
                eprintln!("loc_report: cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{total:>6}  total");
    ExitCode::SUCCESS
}
