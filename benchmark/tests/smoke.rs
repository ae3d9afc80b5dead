//! The declaration and the program must agree: `BENCHMARK.json` names
//! exactly what `vrbench` prints, and `vrbench` prints exactly what
//! `BENCHMARK.json` names, for every workload, traced and not.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use vr_benchmark::json::{self, Value};
use vr_benchmark::metrics::{self, Decl};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// (name, unit, better, bound) rows of one of the declaration's lists.
fn declared(doc: &Value, list: &str) -> Vec<(String, String, String, Option<f64>)> {
    doc.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Value::as_str).expect(key).to_string();
            (
                text("name"),
                text("unit"),
                text("better"),
                m.get("bound").and_then(Value::as_f64),
            )
        })
        .collect()
}

fn rows(decls: Vec<Decl>) -> Vec<(String, String, String, Option<f64>)> {
    decls
        .into_iter()
        .map(|d| {
            (
                d.name,
                d.unit.to_string(),
                d.better.label().to_string(),
                d.bound,
            )
        })
        .collect()
}

#[test]
fn the_declaration_matches_the_program_s_tables() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), rows(metrics::end_to_end()));
    assert_eq!(declared(&doc, "per_layer"), rows(metrics::per_layer()));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, metrics::WORKLOADS);
    // The driver's own limits on the file.
    let keys: BTreeSet<&str> = doc
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    assert!(declared(&doc, "end_to_end").iter().any(|(n, u, b, _)| (
        n.as_str(),
        u.as_str(),
        b.as_str()
    ) == ("setup_s", "s", "lower")));
    let seconds = doc
        .get("run_seconds")
        .and_then(json::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));
}

/// Run one workload at smoke sizes; return the metric names of the last
/// line of its standard output.
fn smoke(workload: &str, trace: &str) -> BTreeSet<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_vrbench"))
        .args([
            "run",
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            trace,
        ])
        .output()
        .expect("vrbench runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let result =
        json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    let keys: BTreeSet<&str> = result
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        BTreeSet::from(["correct", "attempted", "failed", "metrics"])
    );
    assert_eq!(
        result.get("correct").and_then(json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert!(result.get("attempted").and_then(json::as_u64).unwrap() >= 1);
    assert_eq!(result.get("failed").and_then(json::as_u64), Some(0));
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    for (name, entry) in metrics {
        let value = entry
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            entry.get("unit").and_then(Value::as_str).is_some(),
            "{name} has no unit"
        );
        if trace == "0" {
            assert!(
                value > 0.0,
                "end-to-end metric {name} is {value} on {workload}"
            );
        }
    }
    metrics.keys().cloned().collect()
}

#[test]
fn every_workload_prints_exactly_the_declared_names() {
    let doc = benchmark_json();
    let names = |list: &str| -> BTreeSet<String> {
        declared(&doc, list)
            .into_iter()
            .map(|(name, ..)| name)
            .collect()
    };
    let (end_to_end, per_layer) = (names("end_to_end"), names("per_layer"));
    // One after another: the runs time things, and two at once on a small
    // host would make the load generator late.
    for workload in metrics::WORKLOADS {
        assert_eq!(smoke(workload, "0"), end_to_end, "{workload}, untraced");
        assert_eq!(smoke(workload, "1"), per_layer, "{workload}, traced");
        let trace =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace_{workload}.json"));
        let spans =
            json::parse(&std::fs::read_to_string(&trace).expect("span file")).expect("span JSON");
        assert!(
            !spans.as_array().expect("span array").is_empty(),
            "{workload} recorded no spans"
        );
    }
}
