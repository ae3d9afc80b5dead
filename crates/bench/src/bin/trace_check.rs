//! Validator for the observability artifacts: chrome-trace profiles
//! (`visualroad run --trace-out`) and query logs (`visualroad serve
//! --qlog-out`). The command line over the readers that sit beside
//! each writer, whose docs list their checks:
//! `vr_base::obs::trace::validate` (the required span names default to
//! the five pipeline stages `scan,decode,kernel,encode,sink`) and
//! `obs::qlog::parse`.
//!
//! ```text
//! trace_check [<trace.json>] [--require name1,name2,...] [--qlog qlog.jsonl]...
//! ```
//!
//! Exit code 0 when every requested artifact passes, 1 with a
//! diagnostic on the first violation.

use std::process::ExitCode;
use vr_base::obs::{qlog, trace};

const DEFAULT_REQUIRED: &str = "scan,decode,kernel,encode,sink";

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn run() -> Result<String, String> {
    let mut path = None;
    let mut qlog_paths: Vec<String> = Vec::new();
    let mut required = DEFAULT_REQUIRED.to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--require" => required = value("a comma-separated name list")?,
            "--qlog" => qlog_paths.push(value("a query-log path")?),
            _ if path.is_none() && !arg.starts_with("--") => path = Some(arg),
            _ => return Err(format!("unexpected argument {arg:?}")),
        }
    }
    let mut summary: Vec<String> = Vec::new();
    for q in &qlog_paths {
        let records = qlog::parse(&read(q)?, q)?.len();
        summary.push(format!("qlog OK: {q} ({records} records)"));
    }
    let Some(path) = path else {
        if summary.is_empty() {
            return Err(
                "usage: trace_check [<trace.json>] [--require names] [--qlog qlog.jsonl]".into(),
            );
        }
        return Ok(summary.join("\n"));
    };
    let required: Vec<&str> = required.split(',').filter(|s| !s.is_empty()).collect();
    let t = trace::validate(&read(&path)?, &path, &required)?;
    summary.push(format!(
        "trace OK: {} events, {} spans, {} distinct names, {} tracks, {} scheduler instances",
        t.events, t.spans, t.names, t.tracks, t.instances
    ));
    Ok(summary.join("\n"))
}

fn main() -> ExitCode {
    match run() {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_check: {e}");
            ExitCode::FAILURE
        }
    }
}
