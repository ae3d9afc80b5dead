//! The `visualroad` binary, spawned: what only a process shows. Result
//! bytes with tracing on and off, chaos runs that exit 0, the
//! allocation budget and its independence of query order, EXPLAIN ANALYZE and its exit code, `generate`
//! at one node and at every core, `ingest` and `search` over a damaged
//! side index and its latency, and the `serve` lifecycle (stdin,
//! `serving on ADDR`, drain, exit code). Every child is killed, and its
//! test failed, once it outlives its limit.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{ChildStdin, Command, Output};
use std::sync::{OnceLock, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use visual_road::base::json::{self, Value};
use visual_road::base::obs::{qlog, trace};

#[path = "common/child.rs"]
mod child;
use child::Bounded;

const BIN: &str = env!("CARGO_BIN_EXE_visualroad");

/// How long a `visualroad` run may take (the full chaos suite is the
/// longest), a `serve` session, and its `serving on` announcement.
const RUN_LIMIT: Duration = Duration::from_secs(900);
const SERVE_LIMIT: Duration = Duration::from_secs(600);
const ANNOUNCE_LIMIT: Duration = Duration::from_secs(30);

/// Every engine, both tile layouts, seconds of work.
const RUN_ARGS: [&str; 14] = [
    "run", "--engine", "all", "--queries", "Q1,Q2c", "--scale", "1", "--res", "128x72",
    "--duration", "0.4", "--batch", "2", "--no-validate",
];

/// The dataset every `search` below answers over.
const SEARCH_DATASET: [&str; 8] =
    ["--scale", "1", "--res", "96x54", "--duration", "2.0", "--seed", "9"];

/// The latency test holds this exclusively, every other test shared:
/// its percentiles are measured with nothing else of this suite running.
static QUIET: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    QUIET.read().unwrap_or_else(|e| e.into_inner())
}

/// An empty directory of its own for each test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// `visualroad ARGS` under `env`; panics with its stderr unless it
/// exits 0.
fn visualroad(args: &[&str], env: &[(&str, &str)]) -> Output {
    let (run, _) = Bounded::spawn(Command::new(BIN).args(args).envs(env.iter().copied()), RUN_LIMIT);
    let out = run.finish();
    assert!(
        out.status.success(),
        "visualroad {args:?} exited {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn read_json(p: &Path) -> Value {
    json::parse(&std::fs::read_to_string(p).unwrap()).unwrap()
}

fn num(doc: &Value, key: &str) -> f64 {
    doc.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("no number {key:?}"))
}

fn text<'a>(doc: &'a Value, key: &str) -> &'a str {
    doc.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("no string {key:?}"))
}

/// Every file under `dir`, by path relative to it.
fn read_tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut todo = vec![dir.to_path_buf()];
    while let Some(d) = todo.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let p = entry.unwrap().path();
            if p.is_dir() {
                todo.push(p);
            } else {
                files.insert(p.strip_prefix(dir).unwrap().to_path_buf(), std::fs::read(&p).unwrap());
            }
        }
    }
    files
}

fn assert_same_tree(base: &BTreeMap<PathBuf, Vec<u8>>, other: &BTreeMap<PathBuf, Vec<u8>>, what: &str) {
    assert_eq!(base.keys().collect::<Vec<_>>(), other.keys().collect::<Vec<_>>(), "{what}: files");
    for (name, bytes) in base {
        assert!(other[name] == *bytes, "{what}: {} differs", name.display());
    }
}

/// Telemetry never feeds back into results: a traced run writes the
/// bytes the plain run writes, at four workers — which also makes the
/// two runs run-to-run identical.
#[test]
fn traced_and_untraced_runs_write_identical_results() {
    let _quiet = shared();
    let dir = scratch("telemetry");
    let run = |name: &str, extra: &[&str], env: &[(&str, &str)]| {
        let out = dir.join(name);
        let mut args = RUN_ARGS.to_vec();
        args.extend(["--write", path(&out)]);
        args.extend(extra);
        let output = visualroad(&args, &[&[("VR_WORKERS", "4")], env].concat());
        (read_tree(&out), String::from_utf8_lossy(&output.stderr).into_owned())
    };
    let (base, _) = run("base", &[], &[]);
    assert!(!base.is_empty(), "the plain run wrote nothing");
    let profile = dir.join("trace.json");
    let (traced, _) = run("traced", &["--trace-out", path(&profile)], &[]);
    let stages = ["scan", "decode", "kernel", "encode", "sink"];
    trace::validate(&std::fs::read_to_string(&profile).unwrap(), path(&profile), &stages).unwrap();
    assert_same_tree(&base, &traced, "--trace-out");
}

/// A flag the command does not read — misspelled, or one that no
/// longer exists — a count or speedup that is not positive, and a fault
/// plan naming a stage or query that does not exist each exit 1 while
/// the flags are parsed, before any dataset is generated, naming the
/// flag.
#[test]
fn bad_flags_and_values_are_refused_before_generation() {
    let _quiet = shared();
    let cases: [(&[&str], &str); 14] = [
        (&["run", "--batch", "0"], "--batch"),
        (&["run", "--online", "0"], "--online"),
        (&["run", "--online", "-2"], "--online"),
        (&["run", "--online", "NaN"], "--online"),
        (&["run", "--worker", "4"], "--worker for run"),
        (&["run", "--workers", "2"], "--workers for run"),
        (&["serve", "--drain-timeout-ms", "5"], "--drain-timeout-ms for serve"),
        (&["run", "--serve-metrics", "0"], "--serve-metrics for run"),
        (&["run", "--folded-out", "f.txt"], "--folded-out for run"),
        (&["run", "--metrics-out", "m.json"], "--metrics-out for run"),
        (&["serve", "--serve-metrics", "0"], "--serve-metrics for serve"),
        (&["run", "--optimizer", "explain"], "--optimizer"),
        (&["run", "--faults", "stall_stage=kernal:5ms"], "--faults"),
        (&["run", "--faults", "panic_kernel=Q99:frame2"], "--faults"),
    ];
    for (args, named) in cases {
        let (child, _) = Bounded::spawn(Command::new(BIN).args(args), RUN_LIMIT);
        let out = child.finish();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}:\n{stderr}");
        assert!(stderr.starts_with("error: ") && stderr.contains(named), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("generating"), "{args:?} generated a dataset first:\n{stderr}");
    }
}

/// The chaos schedule: the full suite on every engine in write mode
/// under a deadline, then an online run losing a fifth of its RTP
/// packets. Both finish, and the fault-accounting check they end with
/// passes (it exits 1 on a mismatch). Each fault is keyed by what it
/// hits, so both replay at one worker and at four: the same files, byte
/// for byte, and the same `degraded:` and `fault accounting:` lines.
#[test]
fn chaos_runs_exit_zero() {
    let _quiet = shared();
    let dir = scratch("chaos");
    let faults = "corrupt_bitstream=0.01,stall_stage=kernel:2ms,io_fail=write:0.02,panic_kernel=q4:frame2";
    let tile = ["--scale", "1", "--res", "128x72", "--duration", "0.4", "--batch", "2", "--no-validate"];
    let verdict = |args: &[&str], workers: &str| -> Vec<String> {
        let stdout = visualroad(args, &[("VR_WORKERS", workers)]).stdout;
        let stdout = String::from_utf8_lossy(&stdout);
        assert!(stdout.contains("fault accounting: OK"), "{args:?}");
        let kept = |l: &&str| l.contains("degraded:") || l.starts_with("fault accounting:");
        stdout.lines().filter(kept).map(str::to_string).collect()
    };
    let run = |workers: &str| {
        let out = dir.join(format!("workers-{workers}"));
        let batch = [
            &["run", "--engine", "all", "--full-suite"][..],
            &tile,
            &["--write", path(&out), "--deadline-ms", "30000", "--faults", faults, "--fault-seed", "7"],
        ]
        .concat();
        let online = [
            &["run", "--engine", "reference", "--queries", "Q1,Q2a"][..],
            &tile,
            &["--online", "1000", "--faults", "drop_rtp=0.2", "--fault-seed", "11"],
        ]
        .concat();
        let lines = (verdict(&batch, workers), verdict(&online, workers));
        (read_tree(&out), lines)
    };
    let (tree, lines) = run("4");
    let (tree_1, lines_1) = run("1");
    assert_same_tree(&tree, &tree_1, "VR_WORKERS=1");
    assert_eq!(lines, lines_1, "degraded: and fault accounting: lines at VR_WORKERS=1");
}


/// The plan documents `--explain-out FILE.json` wrote, each read as its
/// query's label and the `(stage, allocs, alloc_bytes,
/// peak_alloc_bytes)` of every plan node that is a stage.
fn stage_allocations(plans: &Path) -> Vec<(String, Vec<(String, [u64; 3])>)> {
    fn walk(node: &Value, out: &mut Vec<(String, [u64; 3])>) {
        if let Some(stage) = node.get("stage").and_then(Value::as_str) {
            let stats = node.get("stats").unwrap();
            let figures = ["allocs", "alloc_bytes", "peak_alloc_bytes"].map(|k| num(stats, k) as u64);
            out.push((stage.to_string(), figures));
        }
        for child in node.get("children").and_then(Value::as_array).unwrap() {
            walk(child, out);
        }
    }
    let doc = read_json(plans);
    let entries = doc.as_array().unwrap().iter().map(|entry| {
        let mut stages = Vec::new();
        walk(entry.get("plan").unwrap(), &mut stages);
        (text(entry, "query").to_string(), stages)
    });
    entries.collect()
}

/// The zero-copy data plane's budget: a sequential batch Q1 costs at
/// most 150 stage-scoped heap allocations (109 today, 585 before
/// shared buffers), read off its EXPLAIN ANALYZE plan.
#[test]
fn batch_q1_stays_within_its_allocation_budget() {
    let _quiet = shared();
    let plans = scratch("alloc").join("plans.json");
    let args = [
        "run", "--engine", "batch", "--queries", "Q1", "--scale", "1", "--res", "128x72",
        "--duration", "0.4", "--batch", "2", "--no-validate", "--explain-analyze", "--explain-out",
        path(&plans),
    ];
    visualroad(&args, &[("VR_WORKERS", "1")]);
    let plans = stage_allocations(&plans);
    assert_eq!(plans.len(), 1, "one plan for batch Q1");
    let total: u64 = plans[0].1.iter().map(|(_, [allocs, ..])| allocs).sum();
    assert!(total > 0, "alloc tracking recorded nothing");
    assert!(total <= 150, "Q1 batch allocated {total} times per query (budget 150)");
}

/// A stage's allocation figures are its own, not its position's: each
/// query's stage nodes read the same allocations, bytes and peak
/// whether the query runs first in the process or second.
#[test]
fn stage_allocations_do_not_depend_on_query_order() {
    let _quiet = shared();
    let dir = scratch("alloc-order");
    let run = |queries: &str| {
        let plans = dir.join(format!("{queries}.json"));
        let args = [
            "run", "--engine", "reference", "--queries", queries, "--scale", "1", "--res",
            "128x72", "--duration", "0.4", "--batch", "2", "--no-validate", "--explain-analyze",
            "--explain-out", path(&plans),
        ];
        visualroad(&args, &[("VR_WORKERS", "1")]);
        stage_allocations(&plans).into_iter().collect::<BTreeMap<_, _>>()
    };
    let (q1_first, q2a_first) = (run("Q1,Q2a"), run("Q2a,Q1"));
    assert_eq!(q1_first.len(), 2, "two plans: {q1_first:?}");
    assert_eq!(q1_first, q2a_first, "stage (allocs, alloc_bytes, peak_alloc_bytes) by query");
}

/// Whether a plan line annotates the `stage` node with a nonzero wall
/// time.
fn annotates(line: &str, stage: &str) -> bool {
    let Some(rest) = line.trim_start().strip_prefix(stage) else {
        return false;
    };
    (rest.starts_with(':') || rest.starts_with(' '))
        && rest.split("wall=").skip(1).any(|t| t.starts_with(|c: char| ('1'..='9').contains(&c)))
}

/// EXPLAIN ANALYZE at one worker, where a plan's self times must sum to
/// no more than its wall time and the binary exits 1 on one that does
/// not: every stage is an annotated plan node, and the span tree of the
/// same run is a chrome trace whose spans nest on every track.
#[test]
fn explain_analyze_annotates_every_stage_and_writes_a_valid_trace() {
    let _quiet = shared();
    let dir = scratch("explain");
    let (plans, profile) = (dir.join("plans.txt"), dir.join("trace.json"));
    let extra = ["--explain-analyze", "--explain-out", path(&plans), "--trace-out", path(&profile)];
    visualroad(&[&RUN_ARGS[..], &extra].concat(), &[("VR_WORKERS", "1")]);
    let plans = std::fs::read_to_string(&plans).unwrap();
    for stage in ["scan", "decode", "kernel", "encode", "sink"] {
        assert!(
            plans.lines().any(|l| annotates(l, stage)),
            "no annotated {stage:?} plan node with nonzero wall time:\n{plans}"
        );
    }
    let stages = ["scan", "decode", "kernel", "encode", "sink"];
    trace::validate(&std::fs::read_to_string(&profile).unwrap(), path(&profile), &stages).unwrap();
}

#[test]
fn plan_node_annotation_is_read_exactly() {
    assert!(annotates("        scan:memory (frame-table read)  [wall=2.00ms self=923ns]", "scan"));
    assert!(annotates("      kernel (slow_float_crop)  [wall=2.05ms self=57.97us]", "kernel"));
    assert!(!annotates("    decode:batch (sequential)  [wall=0ns self=0ns]", "decode"), "zero wall");
    assert!(!annotates("    decoder (sequential)  [wall=3.00us]", "decode"), "another node");
    assert!(!annotates("    sink (mode=stream)", "sink"), "not annotated");
}

/// `generate --nodes 1` writes the bytes the flagless run, which uses a
/// generator thread per core, writes.
#[test]
fn generate_writes_the_same_dataset_at_one_node_and_at_every_core() {
    let _quiet = shared();
    let dir = scratch("generate");
    let dataset = ["generate", "--scale", "2", "--res", "96x54", "--duration", "0.4", "--seed", "7"];
    let (plain, one) = (dir.join("plain"), dir.join("nodes1"));
    visualroad(&[&dataset[..], &["--out", path(&plain)]].concat(), &[]);
    visualroad(&[&dataset[..], &["--nodes", "1", "--out", path(&one)]].concat(), &[]);
    let base = read_tree(&plain);
    assert!(!base.is_empty(), "generate wrote nothing");
    assert_same_tree(&base, &read_tree(&one), "--nodes 1");
}

/// The search dataset's side index, written by `visualroad ingest`,
/// and the rescan's answer to `--kind count`.
fn side_index() -> &'static (PathBuf, String) {
    static INDEX: OnceLock<(PathBuf, String)> = OnceLock::new();
    INDEX.get_or_init(|| {
        let dir = scratch("index");
        let file = dir.join("dataset.vrsx");
        visualroad(&[&["ingest"][..], &SEARCH_DATASET, &["--out", path(&file)]].concat(), &[]);
        let count = ["--kind", "count", "--rescan", "--repeat", "1"];
        let (doc, _) = search(&count, &dir.join("count.json"));
        (file, text(&doc, "answer").to_string())
    })
}

fn search(args: &[&str], out: &Path) -> (Value, String) {
    let args = [&["search"][..], &SEARCH_DATASET, args, &["--out", path(out)]].concat();
    let stderr = String::from_utf8_lossy(&visualroad(&args, &[]).stderr).into_owned();
    (read_json(out), stderr)
}

/// A truncated and a bit-flipped side index each fail closed: a
/// warning, the rescan route, the rescan's answer, exit 0.
#[test]
fn search_falls_back_to_rescan_on_a_damaged_side_index() {
    let _quiet = shared();
    let (index, truth) = side_index();
    let bytes = std::fs::read(index).unwrap();
    let mut flipped = bytes.clone();
    flipped[40..44].copy_from_slice(&[0xff; 4]);
    assert_ne!(flipped, bytes, "the flip must change the file");
    let dir = scratch("damaged");
    for (name, body) in [("trunc", &bytes[..bytes.len() - 7]), ("flip", &flipped[..])] {
        let file = dir.join(format!("{name}.vrsx"));
        std::fs::write(&file, body).unwrap();
        let args = ["--kind", "count", "--index", path(&file), "--repeat", "1"];
        let (doc, stderr) = search(&args, &dir.join(format!("{name}.json")));
        assert!(stderr.contains("unusable"), "{name}: loaded without a warning:\n{stderr}");
        assert_eq!(text(&doc, "route"), "rescan", "{name}");
        assert_eq!(text(&doc, "answer"), truth, "{name}: fallback answer");
    }
}

/// Top-k over the side index: routed to the index, recall@10 ≥ 0.9
/// against scene geometry on both routes, p95 under 5 ms and at least
/// 10× below the rescan's.
#[test]
fn index_topk_is_millisecond_scale_and_ten_times_faster_than_rescan() {
    let (index, _) = side_index();
    let _quiet = QUIET.write().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("topk");
    let topk = ["--kind", "topk", "--class", "vehicle", "--window", "8", "--k", "10", "--repeat", "20"];
    let (via_index, _) = search(&[&topk[..], &["--index", path(index)]].concat(), &dir.join("index.json"));
    let (via_rescan, _) = search(&[&topk[..], &["--rescan"]].concat(), &dir.join("rescan.json"));
    assert_eq!(text(&via_index, "route"), "index");
    assert_eq!(text(&via_rescan, "route"), "rescan");
    for doc in [&via_index, &via_rescan] {
        assert!(num(doc, "recall") >= 0.9, "recall@10 {} < 0.9", num(doc, "recall"));
    }
    let (p95_index, p95_rescan) = (num(&via_index, "p95_us"), num(&via_rescan, "p95_us"));
    assert!(p95_index < 5000.0, "index top-k p95 {p95_index} us over the 5 ms budget");
    assert!(
        p95_rescan >= 10.0 * p95_index,
        "rescan p95 {p95_rescan} us is not 10x index p95 {p95_index} us"
    );
}

/// A `visualroad serve` child. Rust holds its stdin — a `SHUTDOWN`
/// line there drains it — and reads its address from the
/// `serving on ADDR` line on stdout.
struct Serve {
    child: Bounded,
    stdin: ChildStdin,
    addr: String,
}

impl Serve {
    fn start(args: &[&str]) -> Self {
        let (mut child, stdin) =
            Bounded::spawn(Command::new(BIN).arg("serve").args(args).env("VR_WORKERS", "4"), SERVE_LIMIT);
        let by = Instant::now() + ANNOUNCE_LIMIT;
        let addr = loop {
            let Some(line) = child.stdout_line(by) else {
                let out = child.finish();
                panic!("serve {args:?} exited before announcing its address:\n{}", String::from_utf8_lossy(&out.stderr));
            };
            if let Some(addr) = line.trim().strip_prefix("serving on ") {
                break addr.to_string();
            }
        };
        Self { child, stdin, addr }
    }

    /// One request line on a new connection; the response line.
    fn request(&self, line: &str) -> String {
        let mut conn = TcpStream::connect(&self.addr).unwrap();
        writeln!(conn, "{line}").unwrap();
        let mut response = String::new();
        BufReader::new(conn).read_line(&mut response).unwrap();
        response.trim_end().to_string()
    }

    /// Drain (a `SHUTDOWN` line on stdin, unless the wire already
    /// started one), then require exit 0, `drained cleanly` and no
    /// panic. Returns the final STATS document and the stderr.
    fn finish(mut self) -> (Value, String) {
        let _ = writeln!(self.stdin, "SHUTDOWN");
        let out = self.child.finish();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "serve exited {}:\n{stderr}", out.status);
        assert!(stderr.contains("drained cleanly"), "no clean drain:\n{stderr}");
        assert!(!stderr.contains("panicked at"), "a panic surfaced:\n{stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let (_, stats) = stdout.split_once(&format!("serving on {}\n", self.addr)).unwrap();
        (json::parse(stats).unwrap(), stderr)
    }
}

/// The three server configurations the fleets in `crates/bench/tests`
/// run in-process, as processes: each announces its address, answers,
/// drains on a `SHUTDOWN` (stdin or wire) and exits 0.
#[test]
fn serve_sessions_drain_cleanly_and_exit_zero() {
    let _quiet = shared();
    let dir = scratch("serve");
    let qlog = dir.join("qlog.jsonl");
    let base = [
        "--scale", "1", "--res", "96x54", "--duration", "0.25", "--queries", "Q1,Q2a",
        "--engine", "batch", "--workers", "2", "--max-concurrent", "2",
    ];
    let admission =
        ["--queue-depth", "4", "--tenant-quota", "8", "--degrade-load", "0.9", "--shed-load", "1.5"];

    // Chaos: corruption and stalls, drained over stdin.
    let chaos = ["--faults", "corrupt_bitstream=0.02,stall_stage=kernel:5ms", "--fault-seed", "7"];
    let serve = Serve::start(&[&base[..], &admission, &chaos, &["--qlog-out", path(&qlog)]].concat());
    for tenant in ["gold priority=high", "bronze priority=low"] {
        let r = serve.request(&format!("EXEC tenant={tenant} query=Q1"));
        assert!(["OK ", "ERR ", "SHED ", "CANCELLED "].iter().any(|p| r.starts_with(p)), "{r}");
    }
    let (stats, _) = serve.finish();
    assert!(stats.get("tenants").and_then(|t| t.get("gold")).is_some(), "final STATS: {stats:?}");
    let records = qlog::parse(&std::fs::read_to_string(&qlog).unwrap(), path(&qlog)).unwrap();
    assert_eq!(records.len(), 2, "one record a request");

    // SLO tracking, drained over the wire.
    let slo = [
        "--faults", "stall_stage=kernel:5ms", "--fault-seed", "7", "--slow-query-ms", "1",
        "--slo", "high=6000,low=60000,target=0.95,window=512",
    ];
    let serve = Serve::start(&[&base[..], &admission, &slo].concat());
    assert!(serve.request("EXEC tenant=gold priority=high query=Q2a").starts_with("OK "));
    assert_eq!(serve.request("SHUTDOWN"), "OK draining");
    let (stats, _) = serve.finish();
    assert!(stats.get("slo").is_some(), "final STATS has no slo block: {stats:?}");

    // The semantic index, ingested at start-up.
    let index = ["--queue-depth", "8", "--tenant-quota", "32", "--use-index"];
    let serve = Serve::start(&[&base[..], &index].concat());
    let s1 = serve.request("EXEC tenant=gold priority=high query=S1");
    assert!(s1.starts_with("OK ") && s1.contains("route=index"), "{s1}");
    let (_, stderr) = serve.finish();
    assert!(stderr.contains("semantic index ready"), "{stderr}");
}
