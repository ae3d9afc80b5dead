//! The command-line contract of `trace_check` and `stress_test`: stdout,
//! stderr and exit code, pinned byte for byte. Both binaries are thin
//! shells over library calls, so this file is where their flag parsing,
//! their messages and their exit codes are held still. It is the one
//! test under `crates/bench/tests/` that spawns a process.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

#[path = "../../../tests/common/child.rs"]
mod child;
use child::Bounded;

/// How long either binary may take on these small inputs.
const LIMIT: Duration = Duration::from_secs(60);

/// Exit code, stdout and stderr of `bin args`, run in `dir`.
fn run(bin: &str, dir: &Path, args: &[&str]) -> (i32, String, String) {
    let mut cmd = Command::new(bin);
    let (child, stdin) = Bounded::spawn(cmd.current_dir(dir).args(args), LIMIT);
    drop(stdin);
    let out = child.finish();
    let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
    (out.status.code().expect("an exit code"), text(out.stdout), text(out.stderr))
}

fn check(bin: &str, dir: &Path, args: &[&str], code: i32, stdout: &str, stderr: &str) {
    let got = run(bin, dir, args);
    assert_eq!(got, (code, stdout.to_string(), stderr.to_string()), "{bin} {args:?}");
}

fn trace_check(dir: &Path, args: &[&str], code: i32, stdout: &str, stderr: &str) {
    check(env!("CARGO_BIN_EXE_trace_check"), dir, args, code, stdout, stderr);
}

/// A fresh directory holding `files`.
fn scratch(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("bins-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (file, body) in files {
        std::fs::write(dir.join(file), body).unwrap();
    }
    dir
}

/// One chrome-trace event as `trace::write_chrome_trace` renders it.
fn event(name: &str, cat: &str, ph: &str, ts: u32, tid: u32) -> String {
    format!(
        "{{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"{ph}\", \"ts\": {ts}.000, \
         \"pid\": 1, \"tid\": {tid}, \"args\": {{\"span\": 1}}}}"
    )
}

/// A scheduler instance on track 1 holding the five pipeline stages
/// one after another, and a nested pair on track 2; `swap` closes the
/// last stage with the wrong name.
fn trace(swap: bool) -> String {
    let mut events = vec![event("instance.q1.0", "scheduler", "B", 0, 1)];
    let stages = ["scan", "decode", "kernel", "encode", "sink"];
    for (i, stage) in stages.iter().enumerate() {
        let ts = 10 * i as u32 + 1;
        events.push(event(stage, "pipeline", "B", ts, 1));
        let closes = if swap && i == 4 { "encode" } else { stage };
        events.push(event(closes, "pipeline", "E", ts + 5, 1));
    }
    events.push(event("instance.q1.0", "scheduler", "E", 60, 1));
    events.push(event("outer", "test", "B", 2, 2));
    events.push(event("inner", "test", "B", 3, 2));
    events.push(event("inner", "test", "E", 4, 2));
    events.push(event("outer", "test", "E", 5, 2));
    format!(
        "{{\"traceEvents\": [\n{}\n], \"displayTimeUnit\": \"ms\", \"otherData\": {{\"dropped\": 0}}}}\n",
        events.join(",\n")
    )
}

/// A query-log record as `QueryLog` renders it.
fn record(seq: u32, req: u32, outcome: &str, shed_reason: &str, route: &str) -> String {
    format!(
        "{{\"seq\": {seq}, \"req\": {req}, \"tenant\": \"gold\", \"priority\": \"high\", \"query\": \"Q1\", \
         \"engine\": \"batch\", \"outcome\": \"{outcome}\", \"shed_reason\": {shed_reason}, \"degraded\": false, \
         \"route\": {route}, \"queue_wait_us\": 3, \"latency_us\": 1200, \"deadline_ms\": 3000, \
         \"plan_digest\": \"00000000deadbeef\", \"slow_us\": 0, \"exemplar\": null}}\n"
    )
}

fn qlog(seqs: [u32; 2]) -> String {
    record(seqs[0], 2, "ok", "null", "\"rescan\"")
        + &record(seqs[1], 1, "shed", "\"quota\"", "null")
}

const TRACE_USAGE: &str =
    "trace_check: usage: trace_check [<trace.json>] [--require names] [--qlog qlog.jsonl]\n";

#[test]
fn trace_check_without_arguments_prints_its_usage() {
    let dir = scratch("usage", &[]);
    trace_check(&dir, &[], 1, "", TRACE_USAGE);
    // The collapsed-stacks and metrics-snapshot readers are gone: their
    // options are refused.
    for gone in ["--folded", "--metrics"] {
        let refused = format!("trace_check: unexpected argument \"{gone}\"\n");
        trace_check(&dir, &[gone, "x"], 1, "", &refused);
    }
}

#[test]
fn trace_check_passes_a_good_set_of_artifacts() {
    let dir = scratch(
        "good",
        &[("trace.json", &trace(false)), ("qlog.jsonl", &qlog([1, 2]))],
    );
    let args = ["trace.json", "--qlog", "qlog.jsonl"];
    trace_check(
        &dir,
        &args,
        0,
        "qlog OK: qlog.jsonl (2 records)\n\
         trace OK: 16 events, 8 spans, 8 distinct names, 2 tracks, 1 scheduler instances\n",
        "",
    );
}

#[test]
fn trace_check_names_the_first_violation_of_each_artifact() {
    let dir = scratch(
        "bad",
        &[("trace.json", &trace(true)), ("qlog.jsonl", &qlog([2, 2]))],
    );
    trace_check(
        &dir,
        &["trace.json"],
        1,
        "",
        "trace_check: event 10: E \"encode\" closes B \"sink\" on tid 1\n",
    );
    trace_check(
        &dir,
        &["--qlog", "qlog.jsonl"],
        1,
        "",
        "trace_check: qlog.jsonl:2: seq 2 is not strictly increasing (previous 2)\n",
    );
}

const STRESS_USAGE: &str = "\n\nUSAGE: stress_test --addr HOST:PORT [--tenants name:prio:sessions,...]\n\
    [--requests N] [--queries Q1,Q2a,...] [--engine NAME]\n[--deadline-ms N] [--low-deadline-ms N]\n\
    [--online-every N] [--online-speedup F]\n[--p99-bound-ms N] [--expect-shedding] [--require-high-zero-shed]\n\
    [--shutdown] [--out FILE] [--qlog FILE]\n";

fn stress_test(args: &[&str], code: i32, stdout: &str, stderr: &str) {
    check(env!("CARGO_BIN_EXE_stress_test"), &scratch("stress", &[]), args, code, stdout, stderr);
}

#[test]
fn stress_test_rejects_a_bad_command_line_with_its_usage() {
    let usage = |msg: &str| format!("stress_test: {msg}{STRESS_USAGE}");
    stress_test(&[], 2, "", &usage("--addr HOST:PORT is required"));
    stress_test(&["--addr", "127.0.0.1:1", "--bogus"], 2, "", &usage("unknown flag \"--bogus\""));
    stress_test(
        &["--addr", "127.0.0.1:1", "--tenants", "gold:mid:2"],
        2,
        "",
        &usage("tenant spec is name:high|low:sessions"),
    );
}

#[test]
fn stress_test_fails_against_a_closed_port() {
    let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().to_string();
    let (code, stdout, stderr) =
        run(env!("CARGO_BIN_EXE_stress_test"), &scratch("closed", &[]), &["--addr", &addr]);
    assert_eq!(
        (code, stdout, stderr.replace(&addr, "ADDR")),
        (
            1,
            "tenant     prio   sent    ok  idx  rscn degraded  canc  err  shed    p50_ms    p95_ms    p99_ms      qps\n"
                .to_string(),
            "stress_test: 8 sessions x 25 requests against ADDR ...\n\
             FAIL: cannot fetch STATS: connect ADDR: Connection refused (os error 111)\n"
                .to_string(),
        )
    );
}
