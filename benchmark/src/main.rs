//! `vrbench` — the repo benchmark (see ../BENCHMARK.json and README.md).
//!
//! ```text
//! vrbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
//! vrbench compare A.json… -- B.json…   verdict per workload × end-to-end metric
//! ```
//!
//! `run --workload W` measures one workload in this process and ends its
//! standard output with one JSON line: `correct`, `attempted`, `failed`,
//! `metrics`. Without `--workload`, `run` re-executes itself once per
//! workload, so each is measured in a process of its own.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use vr_benchmark::metrics::{self, Decl, Outcome, WORKLOADS};
use vr_benchmark::workload::{self, RunArgs, Sizes};
use vr_benchmark::{batch, compare, host, json, serve};

const USAGE: &str = "usage: vrbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
[--out FILE] [--smoke]\n       vrbench compare A.json... -- B.json...";

/// Timed window of a full-size run when `--seconds` is not given: the
/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 16.0;
const SMOKE_SECONDS: f64 = 0.3;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

impl Cli {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; the workloads are {WORKLOADS:?}"
                    ));
                }
                cli.workload = Some(w.clone());
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not {other:?}")),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => parse_cli(&argv[1..]).and_then(|cli| match &cli.workload {
            Some(_) => run_one(&cli, process_start),
            None => run_all(&cli),
        }),
        Some("compare") => compare::main(&argv[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("vrbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn declared(trace: bool) -> Vec<Decl> {
    if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    }
}

/// Measure one workload in this process. `Ok(false)`: measured, but the
/// outputs were not correct.
fn run_one(cli: &Cli, process_start: Instant) -> Result<bool, String> {
    let args = RunArgs {
        workload: cli
            .workload
            .clone()
            .expect("run_one is called with a workload"),
        seed: cli.seed,
        seconds: cli.seconds(),
        trace: cli.trace,
        sizes: if cli.smoke { Sizes::SMOKE } else { Sizes::FULL },
    };
    let mut out = Outcome::default();
    if args.workload.starts_with("batch_") {
        batch::run(&args, process_start, &mut out)?;
    } else {
        serve::run(&args, process_start, &mut out)?;
    }
    out.attempted = out.attempted.max(1);
    if args.trace {
        out.set("failed_share", out.failed as f64 / out.attempted as f64);
    } else {
        // A high-water mark: reading it after tear-down loses nothing.
        out.set("peak_rss_mb", host::peak_rss_mib());
    }

    let decls = declared(args.trace);
    if !args.trace {
        // An end-to-end metric is never 0: a missing one is a bug here.
        if let Some(d) = decls.iter().find(|d| out.get(&d.name) <= 0.0) {
            return Err(format!("end-to-end metric {} was not measured", d.name));
        }
    }
    println!(
        "# {} seed={} seconds={} trace={} hardware_parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        host::parallelism()
    );
    for d in &decls {
        let detail = out
            .quartiles
            .get(&d.name)
            .map(|q| {
                format!(
                    "  (median {:.6}, quartiles {:.6} .. {:.6}, n={})",
                    q.median, q.q1, q.q3, q.n
                )
            })
            .unwrap_or_default();
        println!(
            "{:<44} {:>16.6} {}{detail}",
            d.name,
            out.get(&d.name),
            d.unit
        );
    }
    println!(
        "{} failed of {} attempted operations",
        out.failed, out.attempted
    );
    for note in &out.notes {
        println!("note: {note}");
    }
    for problem in &out.problems {
        println!("INCORRECT: {problem}");
    }
    if let Some(path) = &cli.out {
        write_out(
            path,
            cli,
            &[(args.workload.clone(), workload_json(&decls, &out, true))],
        )?;
    }
    println!("{}", workload_json(&decls, &out, false));
    Ok(out.correct())
}

/// The result object of one workload: the contract's four keys, and with
/// `detail` the quartiles and notes as well.
fn workload_json(decls: &[Decl], out: &Outcome, detail: bool) -> String {
    let metrics: Vec<String> = decls
        .iter()
        .map(|d| {
            let mut fields = format!(
                "\"value\": {}, \"unit\": {}",
                json::number(out.get(&d.name)),
                json::quote(d.unit)
            );
            if let (true, Some(q)) = (detail, out.quartiles.get(&d.name)) {
                fields.push_str(&format!(
                    ", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}",
                    json::number(q.median),
                    json::number(q.q1),
                    json::number(q.q3),
                    q.n
                ));
            }
            format!("{}: {{{fields}}}", json::quote(&d.name))
        })
        .collect();
    let mut body = format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if detail {
        let list = |items: &[String]| {
            items
                .iter()
                .map(|n| json::quote(n))
                .collect::<Vec<_>>()
                .join(", ")
        };
        body.push_str(&format!(
            ", \"notes\": [{}], \"problems\": [{}]",
            list(&out.notes),
            list(&out.problems)
        ));
    }
    format!("{{{body}}}")
}

/// Write a result file: the host and run parameters, then one object per
/// workload. This is what `compare` reads.
fn write_out(path: &Path, cli: &Cli, workloads: &[(String, String)]) -> Result<(), String> {
    let body: Vec<String> = workloads
        .iter()
        .map(|(name, object)| format!("    {}: {object}", json::quote(name)))
        .collect();
    let text = format!(
        "{{\n  \"commit\": {},\n  \"rustc\": {},\n  \"hardware_parallelism\": {},\n  \"seed\": {},\n  \
         \"seconds\": {},\n  \"trace\": {},\n  \"smoke\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        json::quote(&host::git_commit()),
        json::quote(&host::rustc_version()),
        host::parallelism(),
        cli.seed,
        json::number(cli.seconds()),
        cli.trace,
        cli.smoke,
        body.join(",\n")
    );
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Run every workload, each in a process of its own, and merge what they
/// measured.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let scratch = workload::out_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let mut merged = Vec::new();
    let mut all_correct = true;
    for name in WORKLOADS {
        let part = scratch.join(format!("part-{}-{name}.json", std::process::id()));
        let mut command = Command::new(&exe);
        command
            .args(["run", "--workload", name, "--seed", &cli.seed.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if let Some(s) = cli.seconds {
            command.args(["--seconds", &s.to_string()]);
        }
        if cli.smoke {
            command.arg("--smoke");
        }
        // The child's table goes straight to our standard output.
        let status = command.status().map_err(|e| format!("run {name}: {e}"))?;
        match status.code() {
            Some(0) => {}
            Some(1) => all_correct = false,
            _ => return Err(format!("workload {name} did not finish: {status}")),
        }
        let text =
            std::fs::read_to_string(&part).map_err(|e| format!("read {}: {e}", part.display()))?;
        let _ = std::fs::remove_file(&part);
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?;
        let object = doc
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or(format!("{}: no result for {name}", part.display()))?;
        merged.push((name.to_string(), json::render(object)));
        println!();
    }
    if let Some(path) = &cli.out {
        write_out(path, cli, &merged)?;
        println!("results written to {}", path.display());
    }
    println!(
        "{}",
        if all_correct {
            "all workloads correct"
        } else {
            "SOME WORKLOADS INCORRECT"
        }
    );
    Ok(all_correct)
}
