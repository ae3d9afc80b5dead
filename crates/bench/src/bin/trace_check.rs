//! Validator for the observability artifacts: chrome-trace profiles
//! (`visualroad run --trace-out`), metrics snapshots (`--metrics-out`),
//! collapsed-stack flamegraph files (`--folded-out`) and query logs
//! (`visualroad serve --qlog-out`). `crates/bench/tests/` runs it on
//! artifacts written in-process.
//!
//! ```text
//! trace_check [<trace.json>] [--require name1,name2,...]
//!             [--metrics snap.json]... [--folded folded.txt]...
//!             [--qlog qlog.jsonl]...
//! ```
//!
//! Trace checks, in order:
//!
//! 1. the document parses and holds a non-empty `traceEvents` array;
//! 2. every event is well-formed: non-empty string `name`, string
//!    `cat`, `ph` of `"B"` or `"E"`, numeric `ts >= 0`, numeric
//!    `pid`/`tid`;
//! 3. B/E pairs balance per track: replaying each `tid`'s events in
//!    file order, every `E` must close the innermost open `B` with the
//!    same name, timestamps must be non-decreasing within a track, and
//!    every track's stack must be empty at the end;
//! 4. every required span name appears as a `B` event (default: the
//!    five pipeline stages `scan,decode,kernel,encode,sink`), and at
//!    least one scheduler instance span (`cat == "scheduler"`, name
//!    `instance.*`) is present.
//!
//! Metrics checks (`--metrics`): the snapshot parses, every counter is
//! a non-negative finite number, and every histogram's bucket counts
//! sum to its `count`.
//!
//! Folded checks (`--folded`): the file is non-empty and every line is
//! `stack <nanos>` with a `;`-separated non-empty stack and a
//! parseable non-negative integer count.
//!
//! Query-log checks (`--qlog`): the file is non-empty, every line
//! parses as JSON, `seq` is strictly increasing in file order, `req`
//! is >= 1, `tenant` is non-empty, `priority` is `high`/`low`,
//! `outcome` is one of `ok`/`cancelled`/`shed`/`err`, `shed_reason`
//! is non-null iff the outcome is `shed`, `route` is non-null iff the
//! outcome is `ok`, and an `exemplar` may only be present when the
//! record is at or over its own `slow_us` threshold.
//!
//! Exit code 0 when every requested artifact passes, 1 with a
//! diagnostic on the first violation.

use std::process::ExitCode;
use vr_base::json::{self, Value};

const DEFAULT_REQUIRED: &str = "scan,decode,kernel,encode,sink";

struct Event<'a> {
    name: &'a str,
    cat: &'a str,
    begin: bool,
    ts: f64,
    tid: u64,
    index: usize,
}

fn parse_event<'a>(v: &'a Value, index: usize) -> Result<Event<'a>, String> {
    let name = v
        .get("name")
        .and_then(Value::as_str)
        .filter(|n| !n.is_empty())
        .ok_or_else(|| format!("event {index}: missing or empty \"name\""))?;
    let cat = v
        .get("cat")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("event {index}: missing \"cat\""))?;
    let ph = v
        .get("ph")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("event {index}: missing \"ph\""))?;
    let begin = match ph {
        "B" => true,
        "E" => false,
        other => return Err(format!("event {index}: unexpected phase {other:?}")),
    };
    let ts = v
        .get("ts")
        .and_then(Value::as_f64)
        .filter(|t| t.is_finite() && *t >= 0.0)
        .ok_or_else(|| format!("event {index}: missing or negative \"ts\""))?;
    v.get("pid")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("event {index}: missing \"pid\""))?;
    let tid = v
        .get("tid")
        .and_then(Value::as_f64)
        .filter(|t| *t >= 0.0)
        .ok_or_else(|| format!("event {index}: missing \"tid\""))? as u64;
    Ok(Event { name, cat, begin, ts, tid, index })
}

/// Parse and sanity-check one `--metrics-out` snapshot.
fn check_metrics(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let counters = doc
        .get("counters")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{path}: no \"counters\" object"))?;
    for (name, value) in counters {
        let v = value
            .as_f64()
            .ok_or_else(|| format!("{path}: counter {name:?} is not a number"))?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("{path}: counter {name:?} is negative or non-finite ({v})"));
        }
    }
    if let Some(histograms) = doc.get("histograms").and_then(Value::as_object) {
        for (name, hist) in histograms {
            let count = hist
                .get("count")
                .and_then(Value::as_f64)
                .filter(|c| c.is_finite() && *c >= 0.0)
                .ok_or_else(|| format!("{path}: histogram {name:?} missing \"count\""))?;
            let buckets = hist
                .get("buckets")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{path}: histogram {name:?} missing \"buckets\""))?;
            let mut sum = 0.0;
            for (i, b) in buckets.iter().enumerate() {
                let b = b
                    .as_f64()
                    .filter(|b| b.is_finite() && *b >= 0.0)
                    .ok_or_else(|| format!("{path}: histogram {name:?} bucket {i} is invalid"))?;
                sum += b;
            }
            if sum != count {
                return Err(format!(
                    "{path}: histogram {name:?} buckets sum to {sum} but count is {count}"
                ));
            }
        }
    }
    Ok(())
}

/// Validate one collapsed-stacks file: non-empty, every line
/// `frame;frame;... <nanos>`.
fn check_folded(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut lines = 0;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let (stack, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("{path}:{}: no \"stack count\" separator", i + 1))?;
        if stack.is_empty() || stack.split(';').any(str::is_empty) {
            return Err(format!("{path}:{}: empty frame in stack {stack:?}", i + 1));
        }
        count
            .parse::<u64>()
            .map_err(|_| format!("{path}:{}: count {count:?} is not a non-negative integer", i + 1))?;
        lines += 1;
    }
    if lines == 0 {
        return Err(format!("{path}: no folded stacks"));
    }
    Ok(lines)
}

/// Validate one structured query log (JSONL, one record per settled
/// request) as written by `visualroad serve --qlog-out`.
fn check_qlog(path: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut last_seq = 0u64;
    let mut records = 0u64;
    for (i, line) in text.lines().enumerate() {
        let at = |msg: &str| format!("{path}:{}: {msg}", i + 1);
        let rec = json::parse(line).map_err(|e| at(&format!("invalid JSON: {e}")))?;
        let num = |key: &str| {
            rec.get(key)
                .and_then(Value::as_f64)
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| at(&format!("missing or negative {key:?}")))
        };
        let seq = num("seq")? as u64;
        if seq <= last_seq {
            return Err(at(&format!("seq {seq} is not strictly increasing (previous {last_seq})")));
        }
        last_seq = seq;
        if (num("req")? as u64) < 1 {
            return Err(at("req must be >= 1"));
        }
        if rec.get("tenant").and_then(Value::as_str).is_none_or(str::is_empty) {
            return Err(at("missing or empty \"tenant\""));
        }
        match rec.get("priority").and_then(Value::as_str) {
            Some("high") | Some("low") => {}
            other => return Err(at(&format!("bad priority {other:?}"))),
        }
        let outcome = rec
            .get("outcome")
            .and_then(Value::as_str)
            .ok_or_else(|| at("missing \"outcome\""))?;
        if !matches!(outcome, "ok" | "cancelled" | "shed" | "err") {
            return Err(at(&format!("unknown outcome {outcome:?}")));
        }
        let non_null = |key: &str| !matches!(rec.get(key), None | Some(Value::Null));
        if non_null("shed_reason") != (outcome == "shed") {
            return Err(at(&format!(
                "shed_reason must be present iff outcome is shed (outcome {outcome:?})"
            )));
        }
        if non_null("route") != (outcome == "ok") {
            return Err(at(&format!(
                "route must be present iff outcome is ok (outcome {outcome:?})"
            )));
        }
        let slow_us = num("slow_us")? as u64;
        let latency_us = num("latency_us")? as u64;
        if non_null("exemplar") && (slow_us == 0 || latency_us < slow_us) {
            return Err(at(&format!(
                "exemplar on a record that is not slow (latency {latency_us}us, threshold {slow_us}us)"
            )));
        }
        records += 1;
    }
    if records == 0 {
        return Err(format!("{path}: no query-log records"));
    }
    Ok(records)
}

fn run() -> Result<String, String> {
    let mut path = None;
    let mut metrics_paths: Vec<String> = Vec::new();
    let mut folded_paths: Vec<String> = Vec::new();
    let mut qlog_paths: Vec<String> = Vec::new();
    let mut required: Vec<String> =
        DEFAULT_REQUIRED.split(',').map(str::to_string).collect();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--require" => {
                let names = value("a comma-separated name list")?;
                required = names.split(',').filter(|s| !s.is_empty()).map(str::to_string).collect();
            }
            "--metrics" => metrics_paths.push(value("a snapshot path")?),
            "--folded" => folded_paths.push(value("a collapsed-stacks path")?),
            "--qlog" => qlog_paths.push(value("a query-log path")?),
            _ if path.is_none() => path = Some(arg),
            _ => return Err(format!("unexpected argument {arg:?}")),
        }
    }
    let mut summary: Vec<String> = Vec::new();
    for m in &metrics_paths {
        check_metrics(m)?;
        summary.push(format!("metrics OK: {m}"));
    }
    for f in &folded_paths {
        let lines = check_folded(f)?;
        summary.push(format!("folded OK: {f} ({lines} stacks)"));
    }
    for q in &qlog_paths {
        let records = check_qlog(q)?;
        summary.push(format!("qlog OK: {q} ({records} records)"));
    }
    let Some(path) = path else {
        if summary.is_empty() {
            return Err(
                "usage: trace_check [<trace.json>] [--require names] [--metrics snap.json] \
                 [--folded folded.txt] [--qlog qlog.jsonl]"
                    .into(),
            );
        }
        return Ok(summary.join("\n"));
    };

    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let raw = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no \"traceEvents\" array"))?;
    if raw.is_empty() {
        return Err(format!("{path}: traceEvents is empty"));
    }

    let events: Vec<Event> = raw
        .iter()
        .enumerate()
        .map(|(i, v)| parse_event(v, i))
        .collect::<Result<_, _>>()?;

    // Per-track balance: an E must close the innermost open B of the
    // same name, and timestamps must be monotonic within the track.
    let mut tracks: std::collections::BTreeMap<u64, (Vec<&Event>, f64)> =
        std::collections::BTreeMap::new();
    for e in &events {
        let (stack, last_ts) = tracks.entry(e.tid).or_insert_with(|| (Vec::new(), 0.0));
        if e.ts + 1e-9 < *last_ts {
            return Err(format!(
                "event {}: ts {} goes backwards on tid {} (previous {})",
                e.index, e.ts, e.tid, last_ts
            ));
        }
        *last_ts = e.ts;
        if e.begin {
            stack.push(e);
        } else {
            match stack.pop() {
                Some(open) if open.name == e.name => {}
                Some(open) => {
                    return Err(format!(
                        "event {}: E {:?} closes B {:?} on tid {}",
                        e.index, e.name, open.name, e.tid
                    ));
                }
                None => {
                    return Err(format!(
                        "event {}: E {:?} with no open span on tid {}",
                        e.index, e.name, e.tid
                    ));
                }
            }
        }
    }
    for (tid, (stack, _)) in &tracks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "tid {tid}: span {:?} (event {}) never closed",
                open.name, open.index
            ));
        }
    }

    // Required span coverage.
    let begin_names: std::collections::BTreeSet<&str> =
        events.iter().filter(|e| e.begin).map(|e| e.name).collect();
    for want in &required {
        if !begin_names.contains(want.as_str()) {
            return Err(format!("no span named {want:?} in the profile"));
        }
    }
    let instances = events
        .iter()
        .filter(|e| e.begin && e.cat == "scheduler" && e.name.starts_with("instance."))
        .count();
    if instances == 0 {
        return Err("no scheduler instance span (cat \"scheduler\", name \"instance.*\")".into());
    }

    summary.push(format!(
        "trace OK: {} events, {} spans, {} distinct names, {} tracks, {} scheduler instances",
        events.len(),
        events.iter().filter(|e| e.begin).count(),
        begin_names.len(),
        tracks.len(),
        instances
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
