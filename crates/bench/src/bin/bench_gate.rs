//! CI bench-regression gate: compare a measured benchmark-result file
//! (written by the harness's `--save-json`) against a committed
//! baseline and fail on regressions beyond tolerance.
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [--tolerance 0.30] [--seed-new]
//!            [--deltas-out FILE]
//! ```
//!
//! The per-benchmark delta table is always printed — on pass as well
//! as on failure — and with `--deltas-out` it is additionally written
//! to FILE so CI can keep it as an artifact. When the result files
//! carry a `"stages"` section (per-stage latency quantiles the
//! harness appends from the metrics registry), the table also shows
//! per-stage p95 columns; those rows are informational and never fail
//! the gate, but they make stage-level regressions attributable from
//! the CI artifact alone.
//!
//! Verdicts per benchmark id:
//!
//! * `PASS`      — current median within ±tolerance of the baseline;
//! * `FASTER`    — improved beyond tolerance (informational; the
//!   baseline should be refreshed to lock the win in);
//! * `REGRESSED` — slower beyond tolerance (fails the gate);
//! * `MISSING`   — in the baseline but not the current run (fails the
//!   gate: a renamed or deleted benchmark must update the baseline);
//! * `NEW`       — not in the baseline yet. A warning, never a
//!   failure: a freshly added benchmark has nothing to regress
//!   against. With `--seed-new` the entry (and, when the baseline
//!   file is missing entirely, the whole current result set) is
//!   merged into the baseline so the first run seeds it and the next
//!   run gates it.
//!
//! The gate additionally checks the parallel-pipeline speedup contract
//! on every `*workers1` / `*workers4` benchmark pair the current run
//! carries (today the Q1 batch sweep): at 4 workers the query must
//! run ≥ 1.5× faster than at 1 worker. On single-core hosts (where no
//! wall-clock speedup is physically available) the contract inverts
//! into an overhead cap — workers4 must stay within 25 % of workers1,
//! so the parallel path can never be pathologically slower than the
//! sequential one (the margin absorbs thread-spawn and channel
//! scheduling noise on a loaded single core).

use std::collections::BTreeMap;
use std::process::ExitCode;
use vr_base::json::{self, Value};

const DEFAULT_TOLERANCE: f64 = 0.30;
const Q1_SPEEDUP_FLOOR: f64 = 1.5;
/// Single-core hosts cannot speed up, but the parallel pipeline's
/// bookkeeping must not make workers4 meaningfully slower than the
/// sequential run. 25 % headroom absorbs thread-spawn and channel
/// scheduling noise on a contended single core while still flagging
/// pathological serialization (a per-sample contention bug shows up
/// as 1.5–2×, far past this cap).
const SINGLE_CORE_OVERHEAD_CAP: f64 = 1.25;

/// `--verify` mode: check that each artifact parses cleanly as either
/// a harness benchmark-result file with at least one benchmark, or an
/// optimizer calibration profile. The CI guard stage runs this against
/// the committed baseline and profile so a corrupt artifact fails
/// before any expensive stage spends minutes rebuilding.
fn verify_artifacts(paths: &[String]) -> Result<(), String> {
    for path in paths {
        match load(path).and_then(|doc| medians(path, &doc)) {
            Ok(medians) if !medians.is_empty() => {
                println!("verify {path}: OK ({} benchmarks)", medians.len());
                continue;
            }
            Ok(_) => return Err(format!("{path}: benchmark file holds no benchmarks")),
            Err(bench_err) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                match vr_vdbms::CalibrationProfile::parse(&text) {
                    Ok(_) => println!("verify {path}: OK (calibration profile)"),
                    Err(profile_err) => {
                        return Err(format!(
                            "{path}: neither a benchmark file ({bench_err}) nor a \
                             calibration profile ({profile_err})"
                        ))
                    }
                }
            }
        }
    }
    Ok(())
}

/// Read and parse one result file — once; every table below is a
/// view of the same document.
fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn medians(path: &str, doc: &Value) -> Result<BTreeMap<String, f64>, String> {
    let benches = doc
        .get("benchmarks")
        .and_then(|b| b.as_array())
        .ok_or_else(|| format!("{path}: no \"benchmarks\" array"))?;
    let mut medians = BTreeMap::new();
    for b in benches {
        let id = b
            .get("id")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{path}: benchmark without an id"))?;
        let median = b
            .get("median_ns")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{path}: {id} has no median_ns"))?;
        medians.insert(id.to_string(), median);
    }
    Ok(medians)
}

/// Per-stage p95 latencies from a result file's `"stages"` section.
/// Absent or empty sections (committed baselines rebuilt by
/// `--seed-new` keep only the benchmark lines) yield an empty map.
fn stage_p95(path: &str, doc: &Value) -> Result<BTreeMap<String, f64>, String> {
    let mut stages = BTreeMap::new();
    if let Some(map) = doc.get("stages").and_then(|s| s.as_object()) {
        for (stage, entry) in map {
            let p95 = entry
                .get("p95_ns")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("{path}: stage {stage:?} has no p95_ns"))?;
            stages.insert(stage.clone(), p95);
        }
    }
    Ok(stages)
}

/// Plan labels (`"plan"` field) per benchmark id, when a result file
/// carries them. Ids without a plan simply stay absent.
fn plans(path: &str, doc: &Value) -> Result<BTreeMap<String, String>, String> {
    let benches = doc
        .get("benchmarks")
        .and_then(|b| b.as_array())
        .ok_or_else(|| format!("{path}: no \"benchmarks\" array"))?;
    let mut plans = BTreeMap::new();
    for b in benches {
        if let (Some(id), Some(plan)) = (
            b.get("id").and_then(|v| v.as_str()),
            b.get("plan").and_then(|v| v.as_str()),
        ) {
            plans.insert(id.to_string(), plan.to_string());
        }
    }
    Ok(plans)
}

fn fmt_ms(ns: f64) -> String {
    format!("{:.3}ms", ns / 1e6)
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Artifact verification mode: `bench_gate --verify FILE...`.
    if args.first().map(String::as_str) == Some("--verify") {
        if args.len() < 2 {
            return Err("--verify needs at least one file path".into());
        }
        verify_artifacts(&args[1..])?;
        return Ok(true);
    }
    let mut positional = Vec::new();
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut seed_new = false;
    let mut deltas_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--tolerance" {
            i += 1;
            tolerance = args
                .get(i)
                .and_then(|t| t.parse::<f64>().ok())
                .filter(|t| *t > 0.0)
                .ok_or("--tolerance needs a positive number")?;
        } else if args[i] == "--seed-new" {
            seed_new = true;
        } else if args[i] == "--deltas-out" {
            i += 1;
            deltas_out =
                Some(args.get(i).ok_or("--deltas-out needs a file path")?.clone());
        } else {
            positional.push(args[i].clone());
        }
        i += 1;
    }
    let [baseline_path, current_path] = positional.as_slice() else {
        return Err(
            "usage: bench_gate <baseline.json> <current.json> [--tolerance 0.30] [--seed-new] \
             [--deltas-out FILE] | bench_gate --verify FILE..."
                .into(),
        );
    };

    // First run ever: no baseline to gate against. With --seed-new the
    // current results become the baseline; without it that is an error
    // (CI must opt in to self-seeding explicitly).
    if seed_new && !std::path::Path::new(baseline_path).exists() {
        std::fs::copy(current_path, baseline_path)
            .map_err(|e| format!("cannot seed {baseline_path}: {e}"))?;
        println!("bench gate: no baseline at {baseline_path}; seeded it from {current_path}");
        return Ok(true);
    }

    let (baseline_doc, current_doc) = (load(baseline_path)?, load(current_path)?);
    let baseline = medians(baseline_path, &baseline_doc)?;
    let current = medians(current_path, &current_doc)?;
    if current.is_empty() {
        return Err(format!("{current_path} holds no benchmarks"));
    }

    // The delta table is built up as lines so it can be both printed
    // (pass and fail alike) and persisted via --deltas-out.
    let mut table: Vec<String> = Vec::new();
    table.push(format!(
        "bench gate: {} current vs {} baseline benchmarks (tolerance ±{:.0}%)",
        current.len(),
        baseline.len(),
        tolerance * 100.0
    ));
    table.push(format!(
        "{:<50} {:>12} {:>12} {:>8}  {}",
        "benchmark", "baseline", "current", "ratio", "verdict"
    ));
    let mut failures = 0usize;
    let mut new_ids: Vec<String> = Vec::new();
    for (id, &cur) in &current {
        match baseline.get(id) {
            Some(&base) if base > 0.0 => {
                let ratio = cur / base;
                let verdict = if ratio > 1.0 + tolerance {
                    failures += 1;
                    "REGRESSED"
                } else if ratio < 1.0 / (1.0 + tolerance) {
                    "FASTER"
                } else {
                    "PASS"
                };
                table.push(format!(
                    "{id:<50} {:>12} {:>12} {ratio:>7.2}x  {verdict}",
                    fmt_ms(base),
                    fmt_ms(cur)
                ));
            }
            _ => {
                new_ids.push(id.clone());
                table.push(format!(
                    "{id:<50} {:>12} {:>12} {:>8}  NEW ({})",
                    "-",
                    fmt_ms(cur),
                    "-",
                    if seed_new { "seeding" } else { "warn: not in baseline" }
                ));
            }
        }
    }
    for id in baseline.keys() {
        if !current.contains_key(id) {
            failures += 1;
            table.push(format!("{id:<50} {:>12} {:>12} {:>8}  MISSING", "?", "-", "-"));
        }
    }

    // Plan flips: when both files record which plan the engine ran
    // (the harness's `plan` field, written by the optimizer benches),
    // a changed choice is surfaced next to the timing delta. A flip is
    // informational — whether it is a win or a regression is what the
    // timing rows above already judge — but it makes optimizer-driven
    // deltas attributable at a glance.
    let baseline_plans = plans(baseline_path, &baseline_doc)?;
    let current_plans = plans(current_path, &current_doc)?;
    for (id, cur_plan) in &current_plans {
        match baseline_plans.get(id) {
            Some(base_plan) if base_plan != cur_plan => {
                table.push(format!(
                    "{id}: plan [{base_plan}] -> [{cur_plan}] — PLAN-CHANGED (informational)"
                ));
            }
            _ => {}
        }
    }

    // Per-stage p95 latency columns: informational only, so a noisy
    // stage quantile can never fail the gate, but stage-level
    // regressions stay attributable from the persisted delta table.
    let baseline_stages = stage_p95(baseline_path, &baseline_doc)?;
    let current_stages = stage_p95(current_path, &current_doc)?;
    if !current_stages.is_empty() {
        table.push(format!(
            "{:<50} {:>12} {:>12} {:>8}  {}",
            "stage p95 latency", "baseline", "current", "ratio", "(informational)"
        ));
        for (stage, &cur) in &current_stages {
            match baseline_stages.get(stage) {
                Some(&base) if base > 0.0 => {
                    table.push(format!(
                        "{:<50} {:>12} {:>12} {:>7.2}x  STAGE",
                        format!("stage/{stage}"),
                        fmt_ms(base),
                        fmt_ms(cur),
                        cur / base
                    ));
                }
                _ => {
                    table.push(format!(
                        "{:<50} {:>12} {:>12} {:>8}  STAGE (no baseline)",
                        format!("stage/{stage}"),
                        "-",
                        fmt_ms(cur),
                        "-"
                    ));
                }
            }
        }
    }

    // Parallel-speedup contract, enforced on every workers1/workers4
    // benchmark pair the current run carries (today the Q1 batch
    // sweep; any future sweep joins the contract by naming). On
    // multi-core hosts 4 workers must deliver a real speedup; on a
    // single core no speedup is physically available, but the
    // parallel path's overhead must still keep workers4 within a few
    // percent of workers1 — a pipelined run that is meaningfully
    // *slower* than sequential is a scaling regression either way.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let pairs: Vec<(String, f64, f64)> = current
        .iter()
        .filter_map(|(id, &w1)| {
            let stem = id.strip_suffix("workers1")?;
            current.get(&format!("{stem}workers4")).map(|&w4| (id.clone(), w1, w4))
        })
        .collect();
    for (id, w1, w4) in pairs {
        let speedup = w1 / w4.max(1.0);
        if cores >= 2 {
            let ok = speedup >= Q1_SPEEDUP_FLOOR;
            if !ok {
                failures += 1;
            }
            table.push(format!(
                "{id}: speedup at 4 workers {speedup:.2}x on {cores} cores \
                 (floor {Q1_SPEEDUP_FLOOR}x) — {}",
                if ok { "PASS" } else { "REGRESSED" }
            ));
        } else {
            let ok = w4 <= w1 * SINGLE_CORE_OVERHEAD_CAP;
            if !ok {
                failures += 1;
            }
            table.push(format!(
                "{id}: speedup at 4 workers {speedup:.2}x on a single core \
                 (workers4 must stay within {:.0}% of workers1) — {}",
                (SINGLE_CORE_OVERHEAD_CAP - 1.0) * 100.0,
                if ok { "PASS" } else { "REGRESSED" }
            ));
        }
    }

    if failures > 0 {
        table.push(format!("bench gate: {failures} failure(s)"));
    } else {
        table.push("bench gate: all benchmarks within tolerance".to_string());
    }

    for line in &table {
        println!("{line}");
    }
    if let Some(path) = &deltas_out {
        let mut text = table.join("\n");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    if seed_new && !new_ids.is_empty() {
        seed_baseline(baseline_path, current_path, &new_ids)?;
        println!(
            "bench gate: seeded {} new benchmark(s) into {baseline_path}",
            new_ids.len()
        );
    }
    Ok(failures == 0)
}

/// Merge the entries for `new_ids` from the current result file into
/// the committed baseline, preserving every existing entry verbatim.
/// Both files use the one-entry-per-line schema the harness writes.
fn seed_baseline(
    baseline_path: &str,
    current_path: &str,
    new_ids: &[String],
) -> Result<(), String> {
    let entry_of = |text: &str, id: &str| -> Option<String> {
        let needle = format!("\"id\": \"{id}\"");
        text.lines()
            .find(|l| l.contains(&needle))
            .map(|l| l.trim().trim_end_matches(',').to_string())
    };
    let baseline_text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
    let current_text = std::fs::read_to_string(current_path)
        .map_err(|e| format!("cannot read {current_path}: {e}"))?;

    let mut entries: Vec<String> = baseline_text
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"id\":"))
        .map(|l| l.trim().trim_end_matches(',').to_string())
        .collect();
    for id in new_ids {
        entries.push(entry_of(&current_text, id).ok_or_else(|| {
            format!("{current_path}: cannot locate the result line for {id}")
        })?);
    }

    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str("    ");
        out.push_str(e);
        out.push_str(if i + 1 == entries.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(baseline_path, out).map_err(|e| format!("cannot write {baseline_path}: {e}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
