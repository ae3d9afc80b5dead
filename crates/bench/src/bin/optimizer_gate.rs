//! CI optimizer gate: compare a hand-tuned benchmark run
//! (`VR_OPTIMIZER=off`) against a cost-based-optimizer run
//! (`VR_OPTIMIZER=on`) of the same bench suite and fail when the
//! optimizer makes things worse.
//!
//! ```text
//! optimizer_gate <off.json> <on.json> [--deltas-out FILE]
//! ```
//!
//! Failure conditions:
//!
//! * any benchmark that records a `plan` label runs ≥10% slower with
//!   the optimizer on than with it off — the optimizer must never
//!   lose meaningfully to the hand-tuned default it replaced;
//! * a known-bad pick survives:
//!   - `optimizer/q2c_batch_12f` must choose the short-circuit
//!     cascade order (the streaming full-model plan is ~2x slower on
//!     temporally-coherent video);
//!   - `optimizer/q1_batch_48f` must not choose a fan-out above 1
//!     while the measured worker sweep (`q1_batch_workers4` vs
//!     `workers1`, from the same run) shows fan-out losing.
//!
//! Benchmarks without a plan label (the legacy engine sweeps) are
//! reported but never gate: the optimizer made no choice there, so a
//! slow sample is bench noise, not a planning error.

use std::collections::BTreeMap;
use std::process::ExitCode;
use vr_base::json;

/// An optimizer-chosen plan may cost at most this ratio of the
/// hand-tuned plan's median before the gate fails.
const MAX_SLOWDOWN: f64 = 1.10;

struct Bench {
    median_ns: f64,
    plan: Option<String>,
}

fn load(path: &str) -> Result<BTreeMap<String, Bench>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let benches = doc
        .get("benchmarks")
        .and_then(|b| b.as_array())
        .ok_or_else(|| format!("{path}: no \"benchmarks\" array"))?;
    let mut out = BTreeMap::new();
    for b in benches {
        let id = b
            .get("id")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{path}: benchmark without an id"))?;
        let median_ns = b
            .get("median_ns")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{path}: {id} has no median_ns"))?;
        let plan = b.get("plan").and_then(|v| v.as_str()).map(str::to_string);
        out.insert(id.to_string(), Bench { median_ns, plan });
    }
    Ok(out)
}

fn fmt_ms(ns: f64) -> String {
    format!("{:.3}ms", ns / 1e6)
}

/// The fan-out a plan label declares (`... workers=N`), if any.
fn plan_workers(plan: &str) -> Option<usize> {
    plan.split("workers=").nth(1)?.split_whitespace().next()?.parse().ok()
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut deltas_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--deltas-out" {
            i += 1;
            deltas_out =
                Some(args.get(i).ok_or("--deltas-out needs a file path")?.clone());
        } else {
            positional.push(args[i].clone());
        }
        i += 1;
    }
    let [off_path, on_path] = positional.as_slice() else {
        return Err("usage: optimizer_gate <off.json> <on.json> [--deltas-out FILE]".into());
    };
    let off = load(off_path)?;
    let on = load(on_path)?;
    if on.is_empty() {
        return Err(format!("{on_path} holds no benchmarks"));
    }

    let mut table: Vec<String> = Vec::new();
    table.push(format!(
        "optimizer gate: {} optimizer-on vs {} hand-tuned benchmarks \
         (max slowdown {:.0}%)",
        on.len(),
        off.len(),
        (MAX_SLOWDOWN - 1.0) * 100.0
    ));
    table.push(format!(
        "{:<40} {:>12} {:>12} {:>8}  {}",
        "benchmark", "hand-tuned", "optimizer", "ratio", "verdict"
    ));
    let mut failures = 0usize;
    for (id, cur) in &on {
        let Some(base) = off.get(id) else {
            table.push(format!(
                "{id:<40} {:>12} {:>12} {:>8}  NEW (no hand-tuned run)",
                "-",
                fmt_ms(cur.median_ns),
                "-"
            ));
            continue;
        };
        let ratio = cur.median_ns / base.median_ns.max(1.0);
        let gated = cur.plan.is_some();
        let verdict = if gated && ratio > MAX_SLOWDOWN {
            failures += 1;
            "REGRESSED"
        } else if ratio < 1.0 / MAX_SLOWDOWN {
            "FASTER"
        } else if gated {
            "PASS"
        } else {
            "PASS (no plan; informational)"
        };
        table.push(format!(
            "{id:<40} {:>12} {:>12} {ratio:>7.2}x  {verdict}",
            fmt_ms(base.median_ns),
            fmt_ms(cur.median_ns)
        ));
        match (&base.plan, &cur.plan) {
            (Some(b), Some(c)) if b != c => {
                table.push(format!("{id}: plan [{b}] -> [{c}] — PLAN-CHANGED"));
            }
            _ => {}
        }
    }

    // Known-bad pick 1: on coherent video the Q2(c) batch plan must be
    // the short-circuit cascade order, not the full model per frame.
    match on.get("optimizer/q2c_batch_12f") {
        Some(b) => match &b.plan {
            Some(plan) if plan.contains("short-circuit") => {
                table.push(format!("q2c cascade order: [{plan}] — PASS"));
            }
            Some(plan) => {
                failures += 1;
                table.push(format!(
                    "q2c cascade order: [{plan}] does not short-circuit — FAILED"
                ));
            }
            None => {
                failures += 1;
                table.push(
                    "q2c cascade order: optimizer run recorded no plan — FAILED".into(),
                );
            }
        },
        None => {
            failures += 1;
            table.push(format!("{on_path}: optimizer/q2c_batch_12f missing — FAILED"));
        }
    }

    // Known-bad pick 2: the optimizer must not fan Q1 out while the
    // measured worker sweep in the same run shows fan-out losing
    // (today's single-core containers).
    let q1_plan = on.get("optimizer/q1_batch_48f").and_then(|b| b.plan.as_deref());
    match q1_plan {
        Some(plan) => {
            let chosen = plan_workers(plan).unwrap_or(1);
            let w1 = off.get("engines_256x144x48/q1_batch_workers1").map(|b| b.median_ns);
            let w4 = off.get("engines_256x144x48/q1_batch_workers4").map(|b| b.median_ns);
            match (w1, w4) {
                (Some(w1), Some(w4)) if w4 > w1 && chosen > 1 => {
                    failures += 1;
                    table.push(format!(
                        "q1 fan-out: chose workers={chosen} while measured workers4 \
                         ({}) loses to workers1 ({}) — FAILED",
                        fmt_ms(w4),
                        fmt_ms(w1)
                    ));
                }
                (Some(w1), Some(w4)) => {
                    table.push(format!(
                        "q1 fan-out: chose workers={chosen} (measured workers1 {} \
                         vs workers4 {}) — PASS",
                        fmt_ms(w1),
                        fmt_ms(w4)
                    ));
                }
                _ => {
                    table.push(format!(
                        "q1 fan-out: chose workers={chosen} (worker sweep absent; \
                         not judged)"
                    ));
                }
            }
        }
        None => {
            failures += 1;
            table.push(format!(
                "{on_path}: optimizer/q1_batch_48f missing a plan — FAILED"
            ));
        }
    }

    if failures > 0 {
        table.push(format!("optimizer gate: {failures} failure(s)"));
    } else {
        table.push("optimizer gate: every optimizer choice holds up".to_string());
    }

    for line in &table {
        println!("{line}");
    }
    if let Some(path) = &deltas_out {
        let mut text = table.join("\n");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(failures == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("optimizer_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
