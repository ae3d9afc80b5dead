//! Figure 7: lines of code required to execute each query per system,
//! plus supporting extension code.
//!
//! The measurement parses the engines' *actual* compiled-in sources
//! and counts the non-empty, non-comment lines of each query's match
//! arm (see `vr_bench::loc`). Shared kernels — the code every engine
//! leans on, analogous to the paper's "supporting extension"
//! bars — are reported separately. `results/repro_fig7.txt` holds this
//! output, and a `vr_bench::loc` test keeps it current.

fn main() {
    print!("{}", vr_bench::loc::figure7());
}
