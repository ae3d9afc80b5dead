//! The workspace's JSON reader lives in `vr_base::json`; this path
//! stays for `benchmark/`, which builds against `vr_bench::json`.

pub use vr_base::json::{parse, Value};
